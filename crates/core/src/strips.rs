//! Per-item serving strips: the GIS top-`M` lists, restructured once at
//! fit time into structure-of-arrays form for the online kernels.
//!
//! [`cf_similarity::Gis`] stores `(ItemId, f64)` pairs ordered by
//! descending similarity — the right shape for ranking, the wrong shape
//! for the Eq. 12 kernels, which want the column indices, similarities,
//! and squared similarities as three contiguous `f64`/`u32` strips. The
//! fast path used to gather those strips into thread-local scratch on
//! every request; since the GIS and `M` are fixed for the lifetime of a
//! fitted model, the gather is done once per item here instead
//! (~2.4 MB at paper scale), and serving reads the strips in place.
//!
//! Each strip starts on an 8-element boundary (64 bytes for the `f64`
//! strips, relative to the allocation base — Vec bases are allocator-
//! aligned, not line-aligned, but a fixed 64-byte phase means every strip
//! spans the minimum number of cache lines and no strip straddles an
//! extra line at each end). The padding tail is never read: real lengths
//! are tracked separately from the padded starts.

use cf_matrix::ItemId;
use cf_similarity::Gis;

/// Strips start every `STRIP_ALIGN` elements: 8 × 8-byte `f64` = 64 B,
/// one cache line.
const STRIP_ALIGN: usize = 8;

/// Flattened top-`M` similar-item strips for every item, indexed by
/// [`ItemStrips::try_get`]. Rebuilt whenever the GIS or `M` changes.
#[derive(Debug, Clone)]
pub(crate) struct ItemStrips {
    /// Padded start of item `i`'s strip (a multiple of [`STRIP_ALIGN`]).
    offsets: Vec<u32>,
    /// Real (unpadded) length of item `i`'s strip.
    lens: Vec<u32>,
    /// Similar-item column indices (`u32` halves the index bandwidth).
    idx: Vec<u32>,
    /// Item-item similarities, descending per strip.
    sim: Vec<f64>,
    /// Squared similarities, hoisted out of the pair-weight loop.
    sim2: Vec<f64>,
}

impl ItemStrips {
    /// Flattens the top-`m` GIS list of every item, padding each strip to
    /// the next [`STRIP_ALIGN`] boundary (pad values are zeros and never
    /// read — `lens` bounds every access).
    pub(crate) fn build(gis: &Gis, m: usize) -> Self {
        let num_items = gis.num_items();
        let mut offsets = Vec::with_capacity(num_items);
        let mut lens = Vec::with_capacity(num_items);
        let mut idx = Vec::new();
        let mut sim = Vec::new();
        let mut sim2 = Vec::new();
        for i in 0..num_items {
            debug_assert_eq!(idx.len() % STRIP_ALIGN, 0);
            offsets.push(idx.len() as u32);
            let list = gis.top_m(ItemId::from(i), m);
            lens.push(list.len() as u32);
            for &(i_s, s) in list {
                idx.push(i_s.index() as u32);
                sim.push(s);
                sim2.push(s * s);
            }
            let padded = list.len().next_multiple_of(STRIP_ALIGN);
            idx.resize(padded + offsets[i] as usize, 0);
            sim.resize(idx.len(), 0.0);
            sim2.resize(idx.len(), 0.0);
        }
        Self {
            offsets,
            lens,
            idx,
            sim,
            sim2,
        }
    }

    /// The `(indices, similarities, squared similarities)` strips of
    /// `item`, each of the same length (≤ `M`), or `None` when `item` is
    /// outside the strips — serving degrades instead of panicking when an
    /// id and the fitted structures disagree.
    #[inline]
    pub(crate) fn try_get(&self, item: ItemId) -> Option<(&[u32], &[f64], &[f64])> {
        let lo = *self.offsets.get(item.index())? as usize;
        let hi = lo + *self.lens.get(item.index())? as usize;
        Some((&self.idx[lo..hi], &self.sim[lo..hi], &self.sim2[lo..hi]))
    }

    /// Total bytes held by the strips (footprint gauge).
    pub(crate) fn bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.lens.len() * std::mem::size_of::<u32>()
            + self.idx.len() * std::mem::size_of::<u32>()
            + self.sim.len() * std::mem::size_of::<f64>()
            + self.sim2.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, MatrixBuilder, UserId};
    use cf_similarity::GisConfig;

    fn gis() -> Gis {
        let mut b = MatrixBuilder::with_dims(6, 5);
        for u in 0..6u32 {
            for i in 0..5u32 {
                if (u + i) % 3 != 0 {
                    b.push(UserId::new(u), ItemId::new(i), f64::from((u * i) % 5 + 1));
                }
            }
        }
        Gis::build(&b.build().unwrap(), &GisConfig::default())
    }

    #[test]
    fn strips_mirror_gis_lists() {
        let g = gis();
        for m in [1, 3, 95] {
            let strips = ItemStrips::build(&g, m);
            for i in 0..g.num_items() {
                let item = ItemId::from(i);
                let (idx, sim, sim2) = strips.try_get(item).unwrap();
                let list = g.top_m(item, m);
                assert_eq!(idx.len(), list.len());
                assert_eq!(sim.len(), list.len());
                assert_eq!(sim2.len(), list.len());
                for (k, &(i_s, s)) in list.iter().enumerate() {
                    assert_eq!(idx[k] as usize, i_s.index());
                    assert_eq!(sim[k], s);
                    assert_eq!(sim2[k], s * s);
                }
            }
        }
    }

    #[test]
    fn strips_start_on_align_boundaries() {
        let g = gis();
        for m in [1, 3, 95] {
            let strips = ItemStrips::build(&g, m);
            for (i, &off) in strips.offsets.iter().enumerate() {
                assert_eq!(off as usize % STRIP_ALIGN, 0, "item {i}, m={m}");
            }
            // The backing arrays end padded too.
            assert_eq!(strips.idx.len() % STRIP_ALIGN, 0);
            assert_eq!(strips.sim.len(), strips.idx.len());
            assert_eq!(strips.sim2.len(), strips.idx.len());
        }
    }

    #[test]
    fn out_of_range_items_degrade_to_none() {
        let strips = ItemStrips::build(&gis(), 3);
        assert!(strips.try_get(ItemId::new(4)).is_some());
        assert!(strips.try_get(ItemId::new(5)).is_none());
        assert!(strips.try_get(ItemId::new(9999)).is_none());
    }

    #[test]
    fn bytes_counts_all_arrays() {
        let strips = ItemStrips::build(&gis(), 3);
        let expect = strips.offsets.len() * 4
            + strips.lens.len() * 4
            + strips.idx.len() * 4
            + strips.sim.len() * 8
            + strips.sim2.len() * 8;
        assert_eq!(strips.bytes(), expect);
        assert!(strips.bytes() > 0);
    }
}
