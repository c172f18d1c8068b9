//! A blocking client for the CFSF wire protocol: one connection, one
//! request in flight, explicit timeouts everywhere. The router composes
//! these into pools; tests and tools use one directly.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::frame::{self, FrameError, Request, Response};

/// Timeouts for one client connection.
#[derive(Debug, Clone, Copy)]
pub struct ClientOptions {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read/write socket timeout.
    pub io_timeout: Duration,
    /// End-to-end budget for one request (send + serve + receive).
    pub request_deadline: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_secs(5),
        }
    }
}

/// A connected protocol client. Dropping it closes the connection.
pub struct ShardClient {
    stream: TcpStream,
    opts: ClientOptions,
}

impl ShardClient {
    /// Connects to `addr` within the connect timeout and hardens the
    /// stream (blocking mode + io timeouts).
    pub fn connect(addr: impl ToSocketAddrs, opts: ClientOptions) -> std::io::Result<Self> {
        // ToSocketAddrs can yield several candidates; try each within
        // the budget, keeping the last error.
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, opts.connect_timeout) {
                Ok(stream) => {
                    cf_obs::net::harden(&stream, opts.io_timeout)?;
                    return Ok(Self { stream, opts });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to")
        }))
    }

    /// Sends `req` and waits for the answer within the request deadline.
    /// Any error leaves the connection in an unknown framing state — the
    /// caller must drop this client and reconnect.
    pub fn request(&mut self, req: &Request) -> Result<Response, FrameError> {
        Ok(self.request_traced(req)?.0)
    }

    /// [`ShardClient::request`] that also surfaces the remote spans the
    /// server shipped back on the response frame — the router stitches
    /// these into its own trace under the propagated trace id.
    pub fn request_traced(
        &mut self,
        req: &Request,
    ) -> Result<(Response, Vec<cf_obs::trace::RemoteSpan>), FrameError> {
        frame::write_request(&mut self.stream, req)?;
        frame::read_response(
            &mut self.stream,
            self.opts.request_deadline,
            Instant::now() + self.opts.request_deadline,
        )
    }

    /// Typed [`Request::PredictBatch`]: one frame out, one answer per
    /// pair back, in request order. Any other response kind (including a
    /// server-side error frame) is a [`FrameError::Malformed`].
    pub fn predict_batch(
        &mut self,
        pairs: Vec<(u32, u32)>,
    ) -> Result<Vec<Option<crate::frame::WirePrediction>>, FrameError> {
        match self.request(&Request::predict_batch(pairs))? {
            Response::Predictions(preds) => Ok(preds),
            Response::Error { .. } => Err(FrameError::Malformed("server rejected the batch")),
            _ => Err(FrameError::Malformed("unexpected response kind for batch")),
        }
    }
}
