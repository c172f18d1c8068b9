//! Quantized fused weight planes — the serving fast path's memory layout.
//!
//! The online kernels (Eq. 10–13) weigh every cell by `w = ε` (original
//! rating) or `w = 1 − ε` (smoothed rating) and then multiply by the
//! rating itself. Post-smoothing the matrix is *complete* and ε is fixed
//! for the lifetime of a fitted model, so all of it can be folded once at
//! fit time. The first fused layout stored `[f64 w, f64 w·r]` pairs plus
//! an `f64` presence plane — 24 bytes per cell. That made the kernels
//! branch-free but left the scattered-request path LLC-latency-bound
//! (DESIGN.md §6b): at 500×1000 the pair plane alone is ~12 MB, so every
//! mixed-pattern request misses to DRAM.
//!
//! This layout attacks the footprint instead of the ALUs:
//!
//! - **Cells are quantized codes, not floats.** One `u16` (default) or
//!   `u8` per cell: bit 0 is provenance (`1` = original rating, `0` =
//!   smoothed), bit 1 is presence, and the remaining 14 (resp. 6) bits
//!   are a linear code for the rating over the plane's own `[min, max]`
//!   range (`r ≈ min + code · step`, `step = span / (2^bits − 1)`).
//!   16 B/cell becomes 2 B/cell.
//! - **Presence lives in the cell, once.** Bit 1 makes a kernel's
//!   scattered gather one load per cell — the LLC-bound MAC loops never
//!   touch a second stream — and [`WeightPlanes::is_present`] reads the
//!   same bit [`PlaneDequant::triple`] hands the kernels. Presence is
//!   load-bearing — an absent cell is stored all-zero, which *would*
//!   dequantize to a smoothed-cell weight, so dequantization gates the
//!   weight through the presence bit (see [`PlaneDequant::pair`]).
//! - **Weights stay exact.** Dequantization looks the weight up in a
//!   4-entry LUT indexed by the cell's low two bits,
//!   `(present << 1) | provenance`: `[0, 0, 1−ε, ε]`. Only the *rating*
//!   carries quantization error (≤ `step/2` per cell); weighted-sum
//!   denominators, overlap counts, and estimator availability are
//!   bit-identical to the exact layout.
//!
//! Planes are derived state: a linear fold of the dense store, which
//! fit, load and full rebuilds all compute anyway, so nothing persists
//! them. A generation patched from another re-encodes only the cells its
//! dense store rewrote ([`WeightPlanes::patched`]). Its code range must
//! still be the one a full fold would calibrate, and each plane keeps
//! every row's `(lo, hi)` so that check rescans only the rows holding a
//! rewritten cell: the range is always the fold of the row ranges in
//! row order, whether a plane was folded whole or patched, so both pick
//! the same extreme bit for bit (down to which of `±0.0` is the
//! minimum). The cell plane itself stays one flat allocation, which a
//! patch copies.
//!
//! All raw code/LUT handling lives in this file behind [`PlaneDequant`]
//! and the typed row views; kernels never touch cell bits directly. The
//! type system holds this: [`QuantCell::bits`] and [`QuantCell::pack`]
//! take a [`PlanesOnly`] that only this file can build, and the LUT is a
//! private field.

use crate::{DenseRatings, ItemId, UserId};

/// Storage precision of the quantized weight planes.
///
/// `U16` (the default) keeps rating error below `span/32766` — invisible
/// next to model error. `U8` halves the plane again for footprint-critical
/// deployments at a coarser (documented) tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanePrecision {
    /// 16-bit cells: 14-bit rating code + presence and provenance bits.
    #[default]
    U16,
    /// 8-bit cells: 6-bit rating code + presence and provenance bits.
    U8,
}

impl PlanePrecision {
    /// Stable wire/persistence code (`0` = U16, `1` = U8).
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            PlanePrecision::U16 => 0,
            PlanePrecision::U8 => 1,
        }
    }

    /// Inverse of [`PlanePrecision::code`]; `None` for unknown codes.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(PlanePrecision::U16),
            1 => Some(PlanePrecision::U8),
            _ => None,
        }
    }
}

/// The key to a cell's raw bits. Its field is private, so only this file
/// can build one, and so only this file can call [`QuantCell::bits`] or
/// [`QuantCell::pack`]: decoding a cell anywhere else would duplicate the
/// encoding and silently diverge when it changes. Kernels dequantize
/// through [`PlaneDequant::pair`] instead.
///
/// ```compile_fail,E0423
/// use cf_matrix::{PlanesOnly, QuantCell};
/// fn raw<C: QuantCell>(cell: C) -> u32 {
///     cell.bits(PlanesOnly(()))
/// }
/// ```
///
/// ```
/// use cf_matrix::{DenseRatings, ItemId, PlaneDequant, PlanesView, QuantCell, UserId, WeightPlanes};
/// fn weighted<C: QuantCell>(dq: PlaneDequant, cell: C) -> (f64, f64) {
///     dq.pair(cell)
/// }
/// let mut dense = DenseRatings::new(1, 1);
/// dense.set_original(UserId::new(0), ItemId::new(0), 4.0);
/// let planes = WeightPlanes::from_dense(&dense, 0.25);
/// let (w, _) = match planes.view() {
///     PlanesView::U16(t) => weighted(t.dq(), t.cell_row(UserId::new(0))[0]),
///     PlanesView::U8(t) => weighted(t.dq(), t.cell_row(UserId::new(0))[0]),
/// };
/// assert_eq!(w, 0.25);
/// ```
#[derive(Debug)]
pub struct PlanesOnly(());

/// One quantized plane cell: an unsigned integer holding
/// `(rating_code << 2) | (present << 1) | provenance`.
///
/// Implemented for `u16` and `u8`; kernels are generic over this trait and
/// monomorphize per precision, so the dequant math inlines with no
/// per-cell dispatch.
pub trait QuantCell: Copy + Send + Sync + 'static {
    /// Bits available for the rating code (cell width minus the
    /// presence and provenance bits).
    const CODE_BITS: u32;
    /// Largest representable rating code.
    const MAX_CODE: u32 = (1u32 << Self::CODE_BITS) - 1;
    /// Packs raw cell bits (code + provenance already combined).
    fn pack(bits: u32, key: PlanesOnly) -> Self;
    /// The raw cell bits.
    fn bits(self, key: PlanesOnly) -> u32;
}

impl QuantCell for u16 {
    const CODE_BITS: u32 = 14;
    #[inline]
    fn pack(bits: u32, _: PlanesOnly) -> Self {
        bits as u16
    }
    #[inline]
    fn bits(self, _: PlanesOnly) -> u32 {
        self as u32
    }
}

impl QuantCell for u8 {
    const CODE_BITS: u32 = 6;
    #[inline]
    fn pack(bits: u32, _: PlanesOnly) -> Self {
        bits as u8
    }
    #[inline]
    fn bits(self, _: PlanesOnly) -> u32 {
        self as u32
    }
}

/// The dequantization constants of one plane: the exact-weight LUT and the
/// rating code's affine map. `Copy`, 48 bytes — callers hoist it out of
/// their loops and the whole struct lives in registers.
#[derive(Debug, Clone, Copy)]
pub struct PlaneDequant {
    /// Weight by `(present << 1) | provenance`: absent → `0.0` (twice),
    /// present smoothed → `1 − ε`, present original → `ε`. Exact — no
    /// quantization touches the weights.
    wlut: [f64; 4],
    /// Rating of code 0.
    min: f64,
    /// Rating increment per code step (`0.0` for a constant/empty plane).
    step: f64,
}

impl PlaneDequant {
    /// Dequantizes one cell into the `(w, w·r)` pair the kernels
    /// accumulate. The cell's own presence bit gates the weight (the LUT
    /// index is the low two bits, `(present << 1) | provenance`), so
    /// absent cells contribute exact zeros from a *single* load — the
    /// scattered MAC loops read one stream.
    #[inline(always)]
    pub fn pair<C: QuantCell>(&self, cell: C) -> (f64, f64) {
        let b = cell.bits(PlanesOnly(()));
        let w = self.wlut[(b & 3) as usize];
        let r = (b >> 2) as f64 * self.step + self.min;
        (w, w * r)
    }

    /// [`PlaneDequant::pair`] plus the cell's presence bit (0 or 1), for
    /// kernels that also count overlap (`m_used`, PCC normalization).
    #[inline(always)]
    pub fn triple<C: QuantCell>(&self, cell: C) -> (f64, f64, u64) {
        let b = cell.bits(PlanesOnly(()));
        let w = self.wlut[(b & 3) as usize];
        let r = (b >> 2) as f64 * self.step + self.min;
        (w, w * r, u64::from((b >> 1) & 1))
    }

    /// The rating increment per code step — the quantization granularity.
    /// Per-cell rating error is at most `step / 2`.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }
}

/// A borrowed, precision-typed view of one plane: the generic kernels'
/// entry point. Obtained via [`WeightPlanes::view`]; dispatching on the
/// [`PlanesView`] enum once per request monomorphizes the whole kernel.
#[derive(Debug, Clone, Copy)]
pub struct TypedPlanes<'a, C: QuantCell> {
    cells: &'a [C],
    num_items: usize,
    dq: PlaneDequant,
}

impl<'a, C: QuantCell> TypedPlanes<'a, C> {
    /// The plane's dequantization constants (copy it out of loops).
    #[inline]
    pub fn dq(&self) -> PlaneDequant {
        self.dq
    }

    /// Number of item columns per row.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The quantized cell row of user `u` (`num_items` cells).
    #[inline]
    pub fn cell_row(&self, u: UserId) -> &'a [C] {
        let lo = u.index() * self.num_items;
        &self.cells[lo..lo + self.num_items]
    }

    /// The dequantized `(w, w·r)` pair of one cell (`(0.0, ±0.0)` where
    /// absent).
    #[inline]
    pub fn pair(&self, u: UserId, i: ItemId) -> (f64, f64) {
        self.dq.pair(self.cell_row(u)[i.index()])
    }

    /// The lowest and highest rating any cell of this plane dequantizes
    /// to: codes 0 and `MAX_CODE` through the same affine map as
    /// [`PlaneDequant::pair`], so (with `step ≥ 0`, which folding
    /// guarantees) every cell's `r` lies inside, bit for bit.
    #[inline]
    pub fn rating_range(&self) -> (f64, f64) {
        let top = f64::from(C::MAX_CODE) * self.dq.step + self.dq.min;
        (self.dq.min, top)
    }

    /// Safe software prefetch of user `u`'s cell row: touches one cell per
    /// cache line and sinks the result through [`std::hint::black_box`] so
    /// the loads are emitted but nothing is architecturally consumed. With
    /// `unsafe` forbidden crate-wide there is no `_mm_prefetch`;
    /// demand-touching the next neighbor's row while the current one is in
    /// the MAC overlaps its DRAM latency with live work, which is the same
    /// pipelining effect. Presence is in the cells, so the MAC reads only
    /// this row.
    #[inline]
    pub fn prefetch_row(&self, u: UserId) {
        let row = self.cell_row(u);
        let stride = (64 / std::mem::size_of::<C>()).max(1);
        let mut acc = 0u32;
        let mut c = 0;
        while c < row.len() {
            acc ^= row[c].bits(PlanesOnly(()));
            c += stride;
        }
        std::hint::black_box(acc);
    }
}

/// The precision-dispatch view over a [`WeightPlanes`]. Match once per
/// request, then run a generic kernel on the typed arm.
#[derive(Debug, Clone, Copy)]
pub enum PlanesView<'a> {
    /// 16-bit cells.
    U16(TypedPlanes<'a, u16>),
    /// 8-bit cells.
    U8(TypedPlanes<'a, u8>),
}

#[derive(Debug, Clone, PartialEq)]
enum Cells {
    U16(Vec<u16>),
    U8(Vec<u8>),
}

/// Dense quantized weight planes with ε folded into the weight LUT and
/// presence in each cell. Built once per fitted model (and rebuilt when
/// the dense ratings, ε, or the precision change); read-only on the
/// serving path.
///
/// Equality compares every stored bit: the cells, the dequantization
/// constants and the row ranges, each `f64` by [`f64::to_bits`].
#[derive(Debug, Clone)]
pub struct WeightPlanes {
    num_users: usize,
    num_items: usize,
    dq: PlaneDequant,
    precision: PlanePrecision,
    cells: Cells,
    /// Each row's lowest and highest present rating, folded in row order
    /// into the code range.
    row_ranges: Vec<(f64, f64)>,
}

impl PartialEq for WeightPlanes {
    fn eq(&self, other: &Self) -> bool {
        let bits = |p: &Self| {
            let PlaneDequant { wlut, min, step } = p.dq;
            let ranges = p
                .row_ranges
                .iter()
                .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()));
            let consts = (wlut.map(f64::to_bits), min.to_bits(), step.to_bits());
            (
                p.num_users,
                p.num_items,
                p.precision,
                consts,
                ranges.collect::<Vec<_>>(),
            )
        };
        self.cells == other.cells && bits(self) == bits(other)
    }
}

impl WeightPlanes {
    /// Folds the dense ratings and their provenance bitmap into quantized
    /// weight planes at the default [`PlanePrecision::U16`].
    pub fn from_dense(dense: &DenseRatings, epsilon: f64) -> Self {
        Self::from_dense_with(dense, epsilon, PlanePrecision::default())
    }

    /// [`WeightPlanes::from_dense`] at an explicit precision. The rating
    /// code range is self-calibrated to the plane's own min/max (smoothed
    /// ratings routinely overshoot the nominal rating scale), so the
    /// documented tolerance is `span / (2^code_bits − 1) / 2` per cell.
    pub fn from_dense_with(dense: &DenseRatings, epsilon: f64, precision: PlanePrecision) -> Self {
        // Pass 1: self-calibrate the code range over the present cells.
        let row_ranges = row_ranges(dense);
        let (min, step) = calibrate(&row_ranges, precision);

        let cells = match precision {
            PlanePrecision::U16 => Cells::U16(build_cells(dense, min, step)),
            PlanePrecision::U8 => Cells::U8(build_cells(dense, min, step)),
        };

        Self {
            num_users: dense.num_users(),
            num_items: dense.num_items(),
            dq: PlaneDequant {
                wlut: [0.0, 0.0, 1.0 - epsilon, epsilon],
                min,
                step,
            },
            precision,
            cells,
            row_ranges,
        }
    }

    /// These planes with `cells` re-encoded from `dense`: what
    /// [`WeightPlanes::from_dense_with`] would fold from `dense`, at the
    /// cost of the listed cells plus a rescan of the rows that hold one,
    /// provided every cell *not* listed holds the value and provenance it
    /// was folded from.
    ///
    /// `None` when `dense` calibrates a different code range — a new
    /// extreme rating moves `min` or `step`, and with them every code —
    /// or has other dimensions; the caller must then fold in full.
    pub fn patched(
        &self,
        dense: &DenseRatings,
        cells: impl IntoIterator<Item = (UserId, ItemId)>,
    ) -> Option<Self> {
        if (dense.num_users(), dense.num_items()) != (self.num_users, self.num_items) {
            return None;
        }
        let cells: Vec<(UserId, ItemId)> = cells.into_iter().collect();
        let mut row_ranges = self.row_ranges.clone();
        let mut rescanned = vec![false; self.num_users];
        for &(u, _) in &cells {
            if !std::mem::replace(&mut rescanned[u.index()], true) {
                row_ranges[u.index()] = row_range(dense.row(u));
            }
        }
        let (min, step) = calibrate(&row_ranges, self.precision);
        if min.to_bits() != self.dq.min.to_bits() || step.to_bits() != self.dq.step.to_bits() {
            return None;
        }
        let mut out = Self {
            cells: self.cells.clone(),
            row_ranges,
            ..*self
        };
        match &mut out.cells {
            Cells::U16(c) => reencode(c, dense, min, step, &cells),
            Cells::U8(c) => reencode(c, dense, min, step, &cells),
        }
        Some(out)
    }

    /// Number of user rows.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of item columns.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The rating quantization granularity (per-cell rating error is at
    /// most half this). `0.0` for constant or empty planes.
    #[inline]
    pub fn step(&self) -> f64 {
        self.dq.step
    }

    /// The precision-typed view for kernel dispatch.
    #[inline]
    pub fn view(&self) -> PlanesView<'_> {
        match &self.cells {
            Cells::U16(c) => PlanesView::U16(TypedPlanes {
                cells: c,
                num_items: self.num_items,
                dq: self.dq,
            }),
            Cells::U8(c) => PlanesView::U8(TypedPlanes {
                cells: c,
                num_items: self.num_items,
                dq: self.dq,
            }),
        }
    }

    /// The dequantized `(w, w·r)` pair of one cell (`(0.0, ±0.0)` where
    /// absent). Convenience for single-cell reads; kernels should dispatch
    /// through [`WeightPlanes::view`] instead.
    #[inline]
    pub fn pair(&self, u: UserId, i: ItemId) -> (f64, f64) {
        debug_assert!(u.index() < self.num_users && i.index() < self.num_items);
        match self.view() {
            PlanesView::U16(v) => v.pair(u, i),
            PlanesView::U8(v) => v.pair(u, i),
        }
    }

    /// Whether the cell holds a value: its presence bit, as
    /// [`PlaneDequant::triple`] reads it for the kernels.
    #[inline]
    pub fn is_present(&self, u: UserId, i: ItemId) -> bool {
        let present = match self.view() {
            PlanesView::U16(v) => v.dq.triple(v.cell_row(u)[i.index()]).2,
            PlanesView::U8(v) => v.dq.triple(v.cell_row(u)[i.index()]).2,
        };
        present == 1
    }

    /// Bytes held by the quantized cell plane (footprint gauge).
    #[inline]
    pub fn cell_bytes(&self) -> usize {
        match &self.cells {
            Cells::U16(c) => c.len() * std::mem::size_of::<u16>(),
            Cells::U8(c) => c.len() * std::mem::size_of::<u8>(),
        }
    }
}

/// The lowest and highest present rating of one row, `(+∞, −∞)` when
/// none is present. Eight independent lanes of compare-selects, which
/// vectorize; an absent (NaN) cell compares false both ways, so it is
/// skipped.
fn row_range(row: &[f64]) -> (f64, f64) {
    const LANES: usize = 8;
    let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
    let mut chunks = row.chunks_exact(LANES);
    for chunk in &mut chunks {
        for l in 0..LANES {
            lo[l] = if chunk[l] < lo[l] { chunk[l] } else { lo[l] };
            hi[l] = if chunk[l] > hi[l] { chunk[l] } else { hi[l] };
        }
    }
    for &r in chunks.remainder() {
        lo[0] = if r < lo[0] { r } else { lo[0] };
        hi[0] = if r > hi[0] { r } else { hi[0] };
    }
    fold_ranges(lo.into_iter().zip(hi))
}

/// Folds `(lo, hi)` pairs in order; of two equal extremes (`±0.0`) the
/// earlier one stays.
fn fold_ranges(ranges: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    ranges
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (l, h)| {
            (if l < lo { l } else { lo }, if h > hi { h } else { hi })
        })
}

/// Every row's [`row_range`], user 0 first.
fn row_ranges(dense: &DenseRatings) -> Vec<(f64, f64)> {
    (0..dense.num_users())
        .map(|ui| row_range(dense.row(UserId::from(ui))))
        .collect()
}

/// The code range a plane self-calibrates to: `(min, step)` from the
/// fold of its row ranges, with `step = 0` for a constant or empty plane.
fn calibrate(row_ranges: &[(f64, f64)], precision: PlanePrecision) -> (f64, f64) {
    let (lo, hi) = fold_ranges(row_ranges.iter().copied());
    let (min, span) = if lo.is_finite() && hi > lo {
        (lo, hi - lo)
    } else if lo.is_finite() {
        (lo, 0.0)
    } else {
        (0.0, 0.0)
    };
    let max_code = match precision {
        PlanePrecision::U16 => u16::MAX_CODE,
        PlanePrecision::U8 => u8::MAX_CODE,
    };
    let step = if span > 0.0 {
        span / max_code as f64
    } else {
        0.0
    };
    (min, step)
}

/// The cell code of a present rating `r` under the affine map
/// `(min, step)`.
#[inline]
fn encode<C: QuantCell>(r: f64, original: bool, min: f64, inv_step: f64) -> C {
    // (r − min) ≥ 0 by construction of min; clamp guards the
    // floating-point overshoot of round() at the top of the range.
    let code = (((r - min) * inv_step).round() as u32).min(C::MAX_CODE);
    C::pack((code << 2) | 0b10 | u32::from(original), PlanesOnly(()))
}

#[inline]
fn inv_step(step: f64) -> f64 {
    if step > 0.0 {
        1.0 / step
    } else {
        0.0
    }
}

/// Quantizes every present cell of `dense` into `C` codes.
fn build_cells<C: QuantCell>(dense: &DenseRatings, min: f64, step: f64) -> Vec<C> {
    let (p, q) = (dense.num_users(), dense.num_items());
    let inv_step = inv_step(step);

    let mut cells = vec![C::pack(0, PlanesOnly(())); p * q];
    for ui in 0..p {
        let row = dense.dense_row(UserId::from(ui));
        let base = ui * q;
        for (ii, &r) in row.values.iter().enumerate() {
            if r.is_nan() {
                continue;
            }
            let original = (row.original[ii >> 6] >> (ii & 63)) & 1 == 1;
            cells[base + ii] = encode(r, original, min, inv_step);
        }
    }
    cells
}

/// [`build_cells`] for the listed cells only, in place.
fn reencode<C: QuantCell>(
    cells: &mut [C],
    dense: &DenseRatings,
    min: f64,
    step: f64,
    listed: &[(UserId, ItemId)],
) {
    let q = dense.num_items();
    let inv_step = inv_step(step);
    for &(u, i) in listed {
        let row = dense.dense_row(u);
        let r = row.values[i.index()];
        cells[u.index() * q + i.index()] = if r.is_nan() {
            C::pack(0, PlanesOnly(()))
        } else {
            encode(r, row.is_original(i), min, inv_step)
        };
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn dense() -> DenseRatings {
        let mut d = DenseRatings::new(2, 3);
        d.set_original(UserId::new(0), ItemId::new(0), 4.0);
        d.set_smoothed(UserId::new(0), ItemId::new(2), 2.5);
        d.set_original(UserId::new(1), ItemId::new(1), 1.0);
        d
    }

    #[test]
    fn planes_fold_epsilon_and_provenance() {
        let p = WeightPlanes::from_dense(&dense(), 0.35);
        let tol = p.step(); // rating error ≤ step/2; weights exact
                            // original rating: w = ε exactly, rating within quantization
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(0));
        assert_eq!(w, 0.35);
        assert!((wr - 0.35 * 4.0).abs() <= 0.35 * tol);
        // smoothed rating: w = 1 − ε exactly
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(2));
        assert!((w - 0.65).abs() < 1e-12);
        assert!((wr - 0.65 * 2.5).abs() <= 0.65 * tol);
        // absent cell: exact zero weight and product
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(1));
        assert_eq!((w, wr.abs()), (0.0, 0.0));
        let (w, wr) = p.pair(UserId::new(1), ItemId::new(0));
        assert_eq!((w, wr.abs()), (0.0, 0.0));
    }

    #[test]
    fn presence_plane_tracks_cells_not_weights() {
        // ε = 1 zeroes the weight of smoothed cells; presence must still
        // distinguish "absent" from "present with zero weight".
        let p = WeightPlanes::from_dense(&dense(), 1.0);
        assert!(p.is_present(UserId::new(0), ItemId::new(0)));
        assert!(!p.is_present(UserId::new(0), ItemId::new(1)));
        assert!(p.is_present(UserId::new(0), ItemId::new(2)));
        let (w, wr) = p.pair(UserId::new(0), ItemId::new(2));
        assert_eq!((w, wr.abs()), (0.0, 0.0));
        assert!(!p.is_present(UserId::new(1), ItemId::new(0)));
        assert!(p.is_present(UserId::new(1), ItemId::new(1)));
        assert!(!p.is_present(UserId::new(1), ItemId::new(2)));
    }

    #[test]
    fn rows_are_contiguous_views() {
        let p = WeightPlanes::from_dense(&dense(), 0.35);
        assert_eq!(p.num_users(), 2);
        assert_eq!(p.num_items(), 3);
        let PlanesView::U16(v) = p.view() else {
            panic!("default precision must be U16");
        };
        assert_eq!(v.cell_row(UserId::new(1)).len(), 3);
        let (w, wr) = v.pair(UserId::new(1), ItemId::new(1));
        assert_eq!(w, 0.35);
        assert!((wr - 0.35).abs() <= 0.35 * p.step());
        // Typed view and dispatching accessor agree exactly.
        assert_eq!(p.pair(UserId::new(1), ItemId::new(1)), (w, wr));
    }

    #[test]
    fn u8_precision_quantizes_coarser_but_same_weights() {
        let d = dense();
        let p16 = WeightPlanes::from_dense_with(&d, 0.35, PlanePrecision::U16);
        let p8 = WeightPlanes::from_dense_with(&d, 0.35, PlanePrecision::U8);
        assert!(p8.step() > p16.step());
        // span = 4.0 − 1.0 = 3.0 over 63 (resp. 16383) codes.
        assert!((p8.step() - 3.0 / 63.0).abs() < 1e-12);
        assert!((p16.step() - 3.0 / 16383.0).abs() < 1e-12);
        let (w16, _) = p16.pair(UserId::new(0), ItemId::new(2));
        let (w8, wr8) = p8.pair(UserId::new(0), ItemId::new(2));
        assert_eq!(w16, w8); // weights never quantized
        assert!((wr8 - 0.65 * 2.5).abs() <= 0.65 * p8.step());
        assert_eq!(p8.cell_bytes() * 2, p16.cell_bytes());
    }

    /// Every code of both precisions dequantizes inside
    /// `rating_range`, and codes 0 and `MAX_CODE` to exactly its ends.
    #[test]
    fn rating_range_holds_every_code() {
        fn check<C: QuantCell>(t: &TypedPlanes<'_, C>) {
            // ε = 0: a present smoothed cell weighs exactly 1, so the
            // pair's product is the dequantized rating itself.
            let dq = t.dq();
            let (lo, hi) = t.rating_range();
            for code in 0..=C::MAX_CODE {
                let (w, r) = dq.pair(C::pack((code << 2) | 0b10, PlanesOnly(())));
                assert_eq!(w, 1.0);
                assert!(
                    (lo..=hi).contains(&r),
                    "code {code}: {r} outside [{lo}, {hi}]"
                );
            }
            let (_, bottom) = dq.pair(C::pack(0b10, PlanesOnly(())));
            let (_, top) = dq.pair(C::pack((C::MAX_CODE << 2) | 0b10, PlanesOnly(())));
            assert_eq!(
                (bottom.to_bits(), top.to_bits()),
                (lo.to_bits(), hi.to_bits())
            );
        }
        let mut d = DenseRatings::new(1, 2);
        d.set_original(UserId::new(0), ItemId::new(0), 1.1);
        d.set_original(UserId::new(0), ItemId::new(1), 4.7);
        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            match WeightPlanes::from_dense_with(&d, 0.0, precision).view() {
                PlanesView::U16(t) => check(&t),
                PlanesView::U8(t) => check(&t),
            }
        }
    }

    #[test]
    fn constant_and_empty_planes_have_zero_step() {
        let mut d = DenseRatings::new(1, 2);
        d.set_original(UserId::new(0), ItemId::new(0), 3.0);
        d.set_original(UserId::new(0), ItemId::new(1), 3.0);
        let p = WeightPlanes::from_dense(&d, 0.35);
        assert_eq!(p.step(), 0.0);
        // Constant plane round-trips exactly: r = min.
        assert_eq!(p.pair(UserId::new(0), ItemId::new(1)), (0.35, 0.35 * 3.0));

        let empty = WeightPlanes::from_dense(&DenseRatings::new(2, 3), 0.35);
        assert_eq!(empty.step(), 0.0);
        assert!(!empty.is_present(UserId::new(1), ItemId::new(2)));
    }

    /// Re-encoding just the rewritten cells reproduces a full fold bit
    /// for bit while the calibrated range holds, and refuses once a new
    /// extreme moves it.
    #[test]
    fn patched_planes_equal_a_full_fold_or_refuse() {
        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            let mut d = DenseRatings::new(3, 70);
            for u in 0..3u32 {
                for i in (0..70u32).step_by(2) {
                    d.set_smoothed(UserId::new(u), ItemId::new(i), 1.0 + f64::from(i % 9) * 0.5);
                }
            }
            let base = WeightPlanes::from_dense_with(&d, 0.35, precision);
            let mut next = d.clone();
            let touched = [
                (UserId::new(1), ItemId::new(3)),  // value moves inside the range
                (UserId::new(2), ItemId::new(69)), // absent → original
                (UserId::new(0), ItemId::new(5)),  // absent → smoothed
            ];
            next.set_smoothed(touched[0].0, touched[0].1, 2.25);
            next.set_original(touched[1].0, touched[1].1, 3.0);
            next.set_smoothed(touched[2].0, touched[2].1, 4.75);
            let patched = base.patched(&next, touched).expect("range unchanged");
            let full = WeightPlanes::from_dense_with(&next, 0.35, precision);
            assert_eq!(patched, full, "{precision:?}");
            assert_ne!(patched, base, "{precision:?}");

            next.set_smoothed(UserId::new(0), ItemId::new(7), 5.5); // new max
            assert!(base
                .patched(&next, [(UserId::new(0), ItemId::new(7))])
                .is_none());
            assert!(base.patched(&DenseRatings::new(3, 69), []).is_none());
        }
    }

    /// Presence is per cell, on both sides of item 64, where a row of
    /// 64-bit words would change words.
    #[test]
    fn presence_holds_across_the_64th_item() {
        let mut d = DenseRatings::new(2, 70);
        d.set_smoothed(UserId::new(1), ItemId::new(0), 4.0);
        d.set_original(UserId::new(1), ItemId::new(63), 3.0);
        d.set_original(UserId::new(1), ItemId::new(69), 2.0);
        for precision in [PlanePrecision::U16, PlanePrecision::U8] {
            let p = WeightPlanes::from_dense_with(&d, 0.35, precision);
            for (i, present) in [(0, true), (63, true), (64, false), (68, false), (69, true)] {
                let i = ItemId::new(i);
                assert_eq!(p.is_present(UserId::new(1), i), present, "{i:?}");
                assert!(!p.is_present(UserId::new(0), i), "{i:?}");
            }
        }
    }
}
