//! Mergeable metric snapshots with a versioned wire form.
//!
//! A fleet of shard processes each holds its own [`Registry`]; the router
//! wants one coherent view. Quantile summaries cannot be combined after
//! the fold, but the raw log-bucket form ([`HistogramBuckets`]) can:
//! every process shares the same deterministic bucket boundaries, so
//! bucket-wise addition is *exact* — the merged histogram is bit-identical
//! to one histogram that had observed every shard's samples. Counters add;
//! gauges are instantaneous per-process readings and are deliberately not
//! merged (the aggregator renders them per shard instead).
//!
//! The wire encoding is length-prefixed, bounds-checked and carries its
//! own version byte ([`WIRE_VERSION`]) so the stats frame can evolve
//! independently of the CFWP frame header version.

use std::collections::BTreeMap;

use crate::{HistogramBuckets, Registry};

/// Version byte leading every encoded [`MergeSnapshot`]. Decoders reject
/// versions they do not know rather than guessing at field layouts.
pub const WIRE_VERSION: u8 = 1;

/// Hard caps the decoder enforces before allocating, so a corrupt or
/// hostile stats payload cannot balloon memory.
const MAX_ENTRIES: usize = 16 * 1024;
const MAX_NAME_LEN: usize = 256;
const MAX_NONZERO_BUCKETS: usize = 4096;

/// A point-in-time metric capture in mergeable form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeSnapshot {
    /// Counter values by name (merge: add).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (not merged; rendered per shard).
    pub gauges: BTreeMap<String, i64>,
    /// Histogram buckets by name (merge: exact bucket-wise add).
    pub histograms: BTreeMap<String, HistogramBuckets>,
}

/// Why a stats payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeDecodeError {
    /// Payload ended before a declared field.
    Truncated,
    /// Leading version byte names a layout this decoder does not know.
    UnknownVersion(u8),
    /// A declared count or length exceeds the decoder's hard caps.
    TooLarge,
    /// A metric name was not valid UTF-8.
    BadName,
}

impl std::fmt::Display for MergeDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeDecodeError::Truncated => write!(f, "stats payload truncated"),
            MergeDecodeError::UnknownVersion(v) => {
                write!(f, "unknown stats wire version {v}")
            }
            MergeDecodeError::TooLarge => write!(f, "stats payload exceeds decode caps"),
            MergeDecodeError::BadName => write!(f, "metric name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for MergeDecodeError {}

impl MergeSnapshot {
    /// Captures `reg` in mergeable form.
    pub fn of(reg: &Registry) -> Self {
        MergeSnapshot {
            counters: reg
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: reg
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: reg
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.buckets()))
                .collect(),
        }
    }

    /// Adds `other` into `self`: counters add, histograms merge
    /// bucket-wise (exact), gauges are left untouched — an instantaneous
    /// reading from another process has no meaningful sum.
    pub fn merge(&mut self, other: &Self) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Folds every histogram into its quantile summary, yielding the
    /// plain [`crate::Snapshot`] form renderers already understand.
    pub fn summarize(&self) -> crate::Snapshot {
        crate::Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// Encodes the snapshot in the versioned wire form. Histogram buckets
    /// are written sparsely (index, count pairs for nonzero buckets only)
    /// — most of the ~500 buckets are empty in practice.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(WIRE_VERSION);
        put_u32(&mut out, self.counters.len() as u32);
        for (name, v) in &self.counters {
            put_name(&mut out, name);
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, self.gauges.len() as u32);
        for (name, v) in &self.gauges {
            put_name(&mut out, name);
            put_u64(&mut out, *v as u64);
        }
        put_u32(&mut out, self.histograms.len() as u32);
        for (name, h) in &self.histograms {
            put_name(&mut out, name);
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.sum);
            put_u64(&mut out, h.min);
            put_u64(&mut out, h.max);
            let nonzero: Vec<(usize, u64)> = h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i, c))
                .collect();
            put_u32(&mut out, nonzero.len() as u32);
            for (idx, c) in nonzero {
                put_u16(&mut out, idx as u16);
                put_u64(&mut out, c);
            }
        }
        out
    }

    /// Decodes a payload written by [`to_bytes`](Self::to_bytes) (any
    /// process, any uptime — the layout is self-describing within a
    /// version).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, MergeDecodeError> {
        let mut c = Reader { buf, pos: 0 };
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(MergeDecodeError::UnknownVersion(version));
        }
        let mut snap = MergeSnapshot::default();
        let n_counters = c.len_capped(MAX_ENTRIES)?;
        for _ in 0..n_counters {
            let name = c.name()?;
            let v = c.u64()?;
            snap.counters.insert(name, v);
        }
        let n_gauges = c.len_capped(MAX_ENTRIES)?;
        for _ in 0..n_gauges {
            let name = c.name()?;
            let v = c.u64()? as i64;
            snap.gauges.insert(name, v);
        }
        let n_hists = c.len_capped(MAX_ENTRIES)?;
        for _ in 0..n_hists {
            let name = c.name()?;
            let mut h = HistogramBuckets::new();
            h.count = c.u64()?;
            h.sum = c.u64()?;
            h.min = c.u64()?;
            h.max = c.u64()?;
            let nonzero = c.len_capped(MAX_NONZERO_BUCKETS)?;
            for _ in 0..nonzero {
                let idx = c.u16()? as usize;
                let cnt = c.u64()?;
                // Every process shares one bucket layout; a different one
                // is a different WIRE_VERSION, not a reason to grow.
                let slot = h.counts.get_mut(idx).ok_or(MergeDecodeError::TooLarge)?;
                *slot = cnt;
            }
            snap.histograms.insert(name, h);
        }
        Ok(snap)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    let len = bytes.len().min(MAX_NAME_LEN);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], MergeDecodeError> {
        let end = self.pos.checked_add(n).ok_or(MergeDecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(MergeDecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, MergeDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, MergeDecodeError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, MergeDecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, MergeDecodeError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn len_capped(&mut self, cap: usize) -> Result<usize, MergeDecodeError> {
        let n = self.u32()? as usize;
        if n > cap {
            return Err(MergeDecodeError::TooLarge);
        }
        Ok(n)
    }

    fn name(&mut self) -> Result<String, MergeDecodeError> {
        let len = self.u16()? as usize;
        if len > MAX_NAME_LEN {
            return Err(MergeDecodeError::TooLarge);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| MergeDecodeError::BadName)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample_snapshot(seed: u64) -> MergeSnapshot {
        let reg = Registry::new();
        reg.counter("req").add(seed + 10);
        reg.counter("err").add(seed % 3);
        reg.gauge("gen").set(seed as i64);
        let h = reg.histogram("lat_ns");
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        MergeSnapshot::of(&reg)
    }

    #[test]
    fn wire_round_trip_is_lossless() {
        let snap = sample_snapshot(7);
        let decoded = MergeSnapshot::from_bytes(&snap.to_bytes()).expect("round trip must decode");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn merge_is_bitwise_equal_to_recording_both_streams() {
        let reg_a = Registry::new();
        let reg_b = Registry::new();
        let combined = Histogram::new();
        for v in [1u64, 5, 17, 901, 77_000, 3_000_000] {
            reg_a.histogram("h").record(v);
            combined.record(v);
        }
        for v in [2u64, 5, 40, 901, 1 << 40] {
            reg_b.histogram("h").record(v);
            combined.record(v);
        }
        let mut merged = MergeSnapshot::of(&reg_a);
        merged.merge(&MergeSnapshot::of(&reg_b));
        assert_eq!(merged.histograms["h"], combined.buckets());
        assert_eq!(
            merged.histograms["h"].summary(),
            combined.snapshot(),
            "quantiles from merged buckets must match the single-histogram fold"
        );
    }

    #[test]
    fn counters_add_and_gauges_do_not_merge() {
        let mut a = sample_snapshot(1);
        let b = sample_snapshot(2);
        let a_req = a.counters["req"];
        let a_gen = a.gauges["gen"];
        a.merge(&b);
        assert_eq!(a.counters["req"], a_req + b.counters["req"]);
        assert_eq!(a.gauges["gen"], a_gen, "gauges are per-process readings");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample_snapshot(3).to_bytes();
        bytes[0] = 9;
        assert_eq!(
            MergeSnapshot::from_bytes(&bytes),
            Err(MergeDecodeError::UnknownVersion(9))
        );
    }

    #[test]
    fn truncated_payload_is_rejected_not_panicked() {
        let bytes = sample_snapshot(4).to_bytes();
        for cut in 0..bytes.len().min(64) {
            let r = MergeSnapshot::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    /// A bucket index past the shared layout used to grow the histogram
    /// to it: 64 histograms naming bucket 65,535 in a 3,277-byte payload
    /// decoded into 32 MiB of buckets.
    #[test]
    fn bucket_index_past_the_layout_is_rejected() {
        // `hists` histograms, each with one nonzero bucket at `idx`.
        let payload = |hists: usize, idx: u16| {
            let mut b = vec![WIRE_VERSION];
            for n in [0, 0, hists as u32] {
                put_u32(&mut b, n); // counters, gauges, histograms
            }
            for i in 0..hists {
                put_name(&mut b, &format!("h{i:02}"));
                for _ in 0..4 {
                    put_u64(&mut b, 1); // count, sum, min, max
                }
                put_u32(&mut b, 1);
                put_u16(&mut b, idx);
                put_u64(&mut b, 1);
            }
            b
        };
        let crafted = payload(64, u16::MAX);
        assert_eq!(crafted.len(), 3_277);
        let last = crate::histogram_bucket_count() - 1;
        for bytes in [crafted, payload(1, last as u16 + 1)] {
            assert_eq!(
                MergeSnapshot::from_bytes(&bytes),
                Err(MergeDecodeError::TooLarge)
            );
        }
        let snap = MergeSnapshot::from_bytes(&payload(1, last as u16)).unwrap();
        assert_eq!(snap.histograms["h00"].counts[last], 1);
    }

    #[test]
    fn count_over_skips_the_threshold_bucket() {
        let h = Histogram::new();
        for v in [10u64, 100, 1_000, 10_000] {
            h.record(v);
        }
        let b = h.buckets();
        assert_eq!(b.count_over(0), 4);
        assert_eq!(b.count_over(5_000), 1);
        assert_eq!(b.count_over(u64::MAX), 0);
    }
}
