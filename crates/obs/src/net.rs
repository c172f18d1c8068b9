//! Hardened blocking-socket helpers shared by every TCP loop in the
//! workspace: the telemetry endpoint ([`crate::serve`]) and the sharded
//! request-serving tier (`cf-serve`).
//!
//! Three latent bugs lived in the original `serve.rs` socket loop, and
//! this module is their fix at the root so no copy of the loop can
//! re-inherit them:
//!
//! 1. **Nonblocking leak.** The accept listener runs nonblocking (so it
//!    can poll a stop flag), and on some platforms accepted streams
//!    inherit that mode — which makes `set_read_timeout` a no-op: every
//!    read returns `WouldBlock` immediately and the loop treats a
//!    perfectly healthy slow client as done. [`harden`] explicitly puts
//!    the stream back into blocking mode before arming the timeouts.
//! 2. **Timeout routed as a complete request.** A read timeout mid-head
//!    used to fall through to the router with whatever prefix had
//!    arrived. [`read_head`] reports [`HeadOutcome::TimedOut`] so the
//!    caller can answer `408` instead of serving a truncated request.
//! 3. **O(n²) terminator scan.** The `\r\n\r\n` search re-walked the
//!    whole buffer after every chunk. [`read_head`] keeps a scan offset
//!    and only examines new bytes (minus a 3-byte overlap for a
//!    terminator straddling a chunk boundary), so the scan is O(n)
//!    total no matter how finely a client drips bytes.

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The HTTP head terminator the incremental scan looks for.
const TERMINATOR: &[u8; 4] = b"\r\n\r\n";

/// How a head read over a hardened stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadOutcome {
    /// The `\r\n\r\n` terminator arrived; the value is the offset one
    /// past it (the head occupies `buf[..offset]`, any extra bytes after
    /// it belong to a body this server does not read).
    Complete(usize),
    /// The deadline expired before the terminator arrived. The buffer
    /// holds the partial head; the right answer is `408`, not routing.
    TimedOut,
    /// The buffer exceeded the caller's limit with no terminator; the
    /// right answer is `431`, not routing the oversized prefix.
    TooLarge,
    /// The peer closed the connection before the terminator. An empty
    /// buffer is a port probe; a non-empty one is a malformed request.
    Closed,
}

/// Puts an accepted stream into the known-good serving state: **blocking
/// mode** (accepted sockets can inherit the listener's nonblocking flag,
/// which silently disarms read timeouts) with `timeout` armed for both
/// reads and writes.
pub fn harden(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(())
}

/// `true` for the two kinds an armed read/write timeout surfaces as
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads an HTTP request head (everything through `\r\n\r\n`) from a
/// [`harden`]ed stream into `buf`, returning how the read ended — the
/// caller maps each [`HeadOutcome`] to a response status instead of
/// guessing from buffer contents.
///
/// `deadline` bounds the *whole* head, not one read: a client dripping a
/// byte per socket-timeout tick makes progress on every read and would
/// otherwise hold the connection forever. Reads past `max_bytes` without
/// a terminator stop early with [`HeadOutcome::TooLarge`].
pub fn read_head(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_bytes: usize,
    deadline: Instant,
) -> std::io::Result<HeadOutcome> {
    let mut chunk = [0u8; 512];
    // Next scan starts here; backs up 3 bytes per chunk so a terminator
    // split across chunks is still seen exactly once.
    let mut scan_from = 0usize;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(HeadOutcome::Closed),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(off) = find_terminator(&buf[scan_from..]) {
                    return Ok(HeadOutcome::Complete(scan_from + off + TERMINATOR.len()));
                }
                if buf.len() > max_bytes {
                    return Ok(HeadOutcome::TooLarge);
                }
                scan_from = buf.len().saturating_sub(TERMINATOR.len() - 1);
                if Instant::now() >= deadline {
                    return Ok(HeadOutcome::TimedOut);
                }
            }
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Ok(HeadOutcome::TimedOut);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Offset of the first `\r\n\r\n` in `tail`, if present.
fn find_terminator(tail: &[u8]) -> Option<usize> {
    tail.windows(TERMINATOR.len()).position(|w| w == TERMINATOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn complete_head_reports_terminator_offset() {
        let (mut client, mut server) = pair();
        harden(&server, Duration::from_millis(200)).unwrap();
        client
            .write_all(b"GET / HTTP/1.1\r\n\r\nbodybytes")
            .unwrap();
        let mut buf = Vec::new();
        let out = read_head(
            &mut server,
            &mut buf,
            8192,
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(out, HeadOutcome::Complete(18));
        assert!(buf.starts_with(b"GET / HTTP/1.1\r\n\r\n"));
    }

    #[test]
    fn terminator_straddling_chunks_is_found_once() {
        // Force the terminator across the 512-byte chunk boundary.
        let (mut client, mut server) = pair();
        harden(&server, Duration::from_millis(200)).unwrap();
        let mut req = b"GET /".to_vec();
        req.resize(510, b'x'); // head so far: 510 bytes, no terminator
        req.extend_from_slice(b"\r\n\r\n");
        client.write_all(&req).unwrap();
        let mut buf = Vec::new();
        let out = read_head(
            &mut server,
            &mut buf,
            8192,
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(out, HeadOutcome::Complete(514));
    }

    #[test]
    fn stalled_partial_head_times_out() {
        let (mut client, mut server) = pair();
        harden(&server, Duration::from_millis(50)).unwrap();
        client.write_all(b"GET /metr").unwrap();
        let mut buf = Vec::new();
        let out = read_head(
            &mut server,
            &mut buf,
            8192,
            Instant::now() + Duration::from_millis(150),
        )
        .unwrap();
        assert_eq!(out, HeadOutcome::TimedOut);
        assert_eq!(buf, b"GET /metr");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let (mut client, mut server) = pair();
        harden(&server, Duration::from_millis(200)).unwrap();
        let big = vec![b'A'; 4096];
        client.write_all(&big).unwrap();
        let mut buf = Vec::new();
        let out = read_head(
            &mut server,
            &mut buf,
            1024,
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(out, HeadOutcome::TooLarge);
    }

    #[test]
    fn clean_close_is_reported() {
        let (client, mut server) = pair();
        harden(&server, Duration::from_millis(200)).unwrap();
        drop(client);
        let mut buf = Vec::new();
        let out = read_head(
            &mut server,
            &mut buf,
            8192,
            Instant::now() + Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(out, HeadOutcome::Closed);
        assert!(buf.is_empty());
    }
}
