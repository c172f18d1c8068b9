//! Dense user×item rating storage with provenance bits.
//!
//! The smoothing step of the paper (Eq. 7) fills *every* cell of the
//! training matrix: original ratings stay, missing ones are replaced by
//! `mean(u) + Δr(C,i)`. Downstream, Eq. 10/11 must still distinguish the
//! two kinds (original ratings weigh `ε`, smoothed ones `1-ε`), so the
//! dense store carries one provenance bit per cell.
//!
//! Each user's row — its values and its provenance bits, one
//! [`DenseRow`] — sits behind its own `Arc`, and the store is filled one
//! row at a time ([`DenseRatings::from_rows`]). Cloning a store copies
//! one pointer per user, not the cells, and a write copies a row only
//! when the row is still shared ([`DenseRatings::row_mut`]). A partial
//! rebuild patches a clone of the served generation's store, so the new
//! generation shares every row the patch does not rewrite: at 2000×1000
//! that is one pointer per user plus the ~70 rows of a dirty cluster,
//! not 16 MB of cells.

use std::sync::Arc;

use crate::{ItemId, RatingMatrix, UserId};

/// One user's dense row: a value per item (`NaN` = absent) and one
/// "was originally rated" bit per item (little-endian `u64` words, 64
/// items per word).
#[derive(Debug, Clone)]
pub struct DenseRow {
    pub(crate) values: Vec<f64>,
    pub(crate) original: Vec<u64>,
}

impl DenseRow {
    /// A row of `num_items` absent cells.
    pub fn absent(num_items: usize) -> Self {
        Self {
            values: vec![f64::NAN; num_items],
            original: vec![0u64; num_items.div_ceil(64)],
        }
    }

    /// `true` iff cell `i` holds a user-provided (not smoothed) rating.
    #[inline]
    pub fn is_original(&self, i: ItemId) -> bool {
        let c = i.index();
        (self.original[c / 64] >> (c % 64)) & 1 == 1
    }

    /// Stores an original (user-provided) rating.
    #[inline]
    pub fn set_original(&mut self, i: ItemId, r: f64) {
        let c = i.index();
        self.values[c] = r;
        self.original[c / 64] |= 1 << (c % 64);
    }

    /// Stores a smoothed (imputed) rating; does not disturb the provenance
    /// bit of a cell that already holds an original rating.
    #[inline]
    pub fn set_smoothed(&mut self, i: ItemId, r: f64) {
        self.values[i.index()] = r;
    }
}

/// A dense user×item matrix of ratings plus an "was originally rated" bit
/// per cell, one shared [`DenseRow`] per user.
///
/// Absent cells are encoded as `NaN` and reported as `None` by
/// [`DenseRatings::get`]; after smoothing no cell should be absent (the
/// smoother falls back to the user mean when a cluster has no signal).
#[derive(Debug, Clone)]
pub struct DenseRatings {
    num_items: usize,
    rows: Vec<Arc<DenseRow>>,
}

impl DenseRatings {
    /// An all-absent matrix of the given shape. Every row starts as the
    /// same shared absent row; the first write to a row copies it.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        let absent = Arc::new(DenseRow::absent(num_items));
        Self {
            num_items,
            rows: vec![absent; num_users],
        }
    }

    /// A matrix of these rows, user 0 first, each row `num_items` wide.
    pub fn from_rows(num_items: usize, rows: impl IntoIterator<Item = DenseRow>) -> Self {
        let rows = rows
            .into_iter()
            .map(|row| {
                assert_eq!(row.values.len(), num_items, "dense row width");
                Arc::new(row)
            })
            .collect();
        Self { num_items, rows }
    }

    /// Seeds a dense matrix with the sparse matrix's ratings, all flagged
    /// as original; every other cell is absent.
    pub fn from_sparse(m: &RatingMatrix) -> Self {
        let q = m.num_items();
        Self::from_rows(
            q,
            m.users().map(|u| {
                let mut row = DenseRow::absent(q);
                for (i, r) in m.user_ratings(u) {
                    row.set_original(i, r);
                }
                row
            }),
        )
    }

    /// Number of user rows.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.rows.len()
    }

    /// Number of item columns.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// User `u`'s row.
    #[inline]
    pub fn dense_row(&self, u: UserId) -> &DenseRow {
        &self.rows[u.index()]
    }

    /// User `u`'s row for writing; copies the row first when another
    /// store still shares it.
    #[inline]
    pub fn row_mut(&mut self, u: UserId) -> &mut DenseRow {
        Arc::make_mut(&mut self.rows[u.index()])
    }

    /// Replaces user `u`'s row.
    pub fn set_row(&mut self, u: UserId, row: DenseRow) {
        assert_eq!(row.values.len(), self.num_items, "dense row width");
        self.rows[u.index()] = Arc::new(row);
    }

    /// Whether user `u`'s row is the same allocation in both stores —
    /// true for every row a patch left alone.
    pub fn shares_row(&self, other: &DenseRatings, u: UserId) -> bool {
        Arc::ptr_eq(&self.rows[u.index()], &other.rows[u.index()])
    }

    /// Stores an original (user-provided) rating.
    #[inline]
    pub fn set_original(&mut self, u: UserId, i: ItemId, r: f64) {
        self.row_mut(u).set_original(i, r);
    }

    /// Stores a smoothed (imputed) rating; does not disturb the provenance
    /// bit of a cell that already holds an original rating.
    #[inline]
    pub fn set_smoothed(&mut self, u: UserId, i: ItemId, r: f64) {
        self.row_mut(u).set_smoothed(i, r);
    }

    /// The value at `(u, i)`, if present.
    #[inline]
    pub fn get(&self, u: UserId, i: ItemId) -> Option<f64> {
        let v = self.rows[u.index()].values[i.index()];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// `true` iff the cell holds a user-provided (not smoothed) rating.
    #[inline]
    pub fn is_original(&self, u: UserId, i: ItemId) -> bool {
        self.rows[u.index()].is_original(i)
    }

    /// Full row of user `u` (absent cells are `NaN`).
    #[inline]
    pub fn row(&self, u: UserId) -> &[f64] {
        &self.rows[u.index()].values
    }

    /// Number of cells currently holding a value.
    pub fn filled_cells(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.values.iter().filter(|v| !v.is_nan()).count())
            .sum()
    }

    /// `true` when every cell holds a value (the post-smoothing invariant).
    pub fn is_complete(&self) -> bool {
        self.rows
            .iter()
            .all(|row| row.values.iter().all(|v| !v.is_nan()))
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::MatrixBuilder;

    fn sparse() -> RatingMatrix {
        let mut b = MatrixBuilder::with_dims(2, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(1), ItemId::new(2), 2.0);
        b.build().unwrap()
    }

    #[test]
    fn from_sparse_seeds_originals() {
        let d = DenseRatings::from_sparse(&sparse());
        assert_eq!(d.get(UserId::new(0), ItemId::new(0)), Some(5.0));
        assert!(d.is_original(UserId::new(0), ItemId::new(0)));
        assert_eq!(d.get(UserId::new(0), ItemId::new(1)), None);
        assert!(!d.is_original(UserId::new(0), ItemId::new(1)));
        assert_eq!(d.filled_cells(), 2);
        assert!(!d.is_complete());
    }

    #[test]
    fn smoothing_fills_without_claiming_provenance() {
        let mut d = DenseRatings::from_sparse(&sparse());
        d.set_smoothed(UserId::new(0), ItemId::new(1), 3.5);
        assert_eq!(d.get(UserId::new(0), ItemId::new(1)), Some(3.5));
        assert!(!d.is_original(UserId::new(0), ItemId::new(1)));
    }

    #[test]
    fn set_smoothed_over_original_keeps_bit() {
        let mut d = DenseRatings::from_sparse(&sparse());
        d.set_smoothed(UserId::new(0), ItemId::new(0), 4.0);
        assert_eq!(d.get(UserId::new(0), ItemId::new(0)), Some(4.0));
        assert!(d.is_original(UserId::new(0), ItemId::new(0)));
    }

    #[test]
    fn row_view_matches_gets() {
        let mut d = DenseRatings::from_sparse(&sparse());
        d.set_smoothed(UserId::new(0), ItemId::new(2), 1.0);
        let row = d.row(UserId::new(0));
        assert_eq!(row.len(), 3);
        assert_eq!(row[0], 5.0);
        assert!(row[1].is_nan());
        assert_eq!(row[2], 1.0);
    }

    #[test]
    fn complete_after_filling_everything() {
        let mut d = DenseRatings::new(2, 2);
        for u in 0..2u32 {
            for i in 0..2u32 {
                d.set_smoothed(UserId::new(u), ItemId::new(i), 3.0);
            }
        }
        assert!(d.is_complete());
        assert_eq!(d.filled_cells(), 4);
    }

    #[test]
    fn provenance_bits_across_word_boundaries() {
        // 70 items span two u64 words per row; make sure bit addressing
        // holds on both sides of the boundary.
        let mut d = DenseRatings::new(2, 70);
        d.set_original(UserId::new(1), ItemId::new(63), 2.0);
        d.set_original(UserId::new(1), ItemId::new(64), 4.0);
        assert!(d.is_original(UserId::new(1), ItemId::new(63)));
        assert!(d.is_original(UserId::new(1), ItemId::new(64)));
        assert!(!d.is_original(UserId::new(1), ItemId::new(65)));
        assert!(!d.is_original(UserId::new(0), ItemId::new(64)));
    }

    /// A clone shares every row; a write copies just the row it lands
    /// in and leaves the other store as it was.
    #[test]
    fn a_write_copies_only_its_row() {
        let base = DenseRatings::from_sparse(&sparse());
        let mut next = base.clone();
        assert!((0..2).all(|u| next.shares_row(&base, UserId::new(u))));
        next.set_smoothed(UserId::new(1), ItemId::new(0), 3.0);
        assert!(next.shares_row(&base, UserId::new(0)));
        assert!(!next.shares_row(&base, UserId::new(1)));
        assert_eq!(base.get(UserId::new(1), ItemId::new(0)), None);
        assert_eq!(next.get(UserId::new(1), ItemId::new(0)), Some(3.0));
        assert!(next.is_original(UserId::new(1), ItemId::new(2)));

        let mut row = DenseRow::absent(3);
        row.set_original(ItemId::new(1), 1.0);
        next.set_row(UserId::new(0), row);
        assert!(!next.shares_row(&base, UserId::new(0)));
        assert_eq!(next.row(UserId::new(0))[1], 1.0);
        assert!(next.dense_row(UserId::new(0)).is_original(ItemId::new(1)));
    }
}
