//! The immutable sparse rating matrix.
//!
//! Stored twice: user-major (CSR — every CF algorithm walks user profiles)
//! and item-major (CSC — item-item PCC and item means walk columns). Both
//! views are built once — by [`MatrixBuilder`](crate::MatrixBuilder), or by
//! [`RatingMatrix::with_ratings`] from an existing matrix — and never
//! mutated, so a shared reference can be handed to any number of worker
//! threads.

use crate::{ItemId, MatrixError, RatingScale, UserId};

/// One compressed view: `(ptr, keys, vals)`, where major index `k` owns
/// `keys/vals[ptr[k]..ptr[k + 1]]`, keys strictly increasing.
type Compressed<K> = (Vec<u32>, Vec<K>, Vec<f64>);

/// An immutable sparse user×item rating matrix.
///
/// Rows are users, columns are items (the paper's `X_u` view). Entries are
/// `f64` ratings on a fixed [`RatingScale`]. Per-user means, per-item means
/// and the global mean are precomputed at build time since every similarity
/// kernel in the paper mean-centers its inputs.
#[derive(Debug, Clone)]
pub struct RatingMatrix {
    pub(crate) num_users: usize,
    pub(crate) num_items: usize,
    pub(crate) scale: RatingScale,
    // User-major (CSR): row u is user_items/user_vals[user_ptr[u]..user_ptr[u+1]],
    // item ids strictly increasing within a row.
    pub(crate) user_ptr: Vec<u32>,
    pub(crate) user_items: Vec<ItemId>,
    pub(crate) user_vals: Vec<f64>,
    // Item-major (CSC) mirror: col i is item_users/item_vals[item_ptr[i]..item_ptr[i+1]],
    // user ids strictly increasing within a column.
    pub(crate) item_ptr: Vec<u32>,
    pub(crate) item_users: Vec<UserId>,
    pub(crate) item_vals: Vec<f64>,
    // Means. Users/items with no ratings fall back to the global mean so
    // that mean-centering never divides by a phantom zero profile.
    pub(crate) user_means: Vec<f64>,
    pub(crate) item_means: Vec<f64>,
    pub(crate) global_mean: f64,
}

impl RatingMatrix {
    /// Wraps finished CSR and CSC storage and derives every mean from it.
    /// The only place means are computed, so a matrix spliced by
    /// [`Self::with_ratings`] carries bitwise the means a fresh
    /// [`MatrixBuilder`](crate::MatrixBuilder) build would.
    pub(crate) fn from_storage(
        num_users: usize,
        num_items: usize,
        scale: RatingScale,
        (user_ptr, user_items, user_vals): Compressed<ItemId>,
        (item_ptr, item_users, item_vals): Compressed<UserId>,
    ) -> Self {
        let nnz = user_vals.len();
        let total: f64 = user_vals.iter().sum();
        let global_mean = if nnz == 0 {
            scale.midpoint()
        } else {
            total / nnz as f64
        };
        let user_means = segment_means(&user_ptr, &user_vals, global_mean);
        let item_means = segment_means(&item_ptr, &item_vals, global_mean);
        Self {
            num_users,
            num_items,
            scale,
            user_ptr,
            user_items,
            user_vals,
            item_ptr,
            item_users,
            item_vals,
            user_means,
            item_means,
            global_mean,
        }
    }

    /// This matrix plus `cells`, without a rebuild: the new cells are
    /// sorted and spliced into the CSR rows and CSC columns, and the
    /// means recomputed — `O(ratings + cells·log cells)`, a few memcpys
    /// where a [`MatrixBuilder`](crate::MatrixBuilder) re-sorts every
    /// triplet.
    ///
    /// The result and the errors are those of building `self`'s triplets
    /// followed by `cells` with the dimensions fixed: non-finite and
    /// off-scale ratings fail in push order, a cell rated twice with
    /// different values (within `cells` or against a stored rating) is a
    /// [`MatrixError::ConflictingDuplicate`], and exact repeats collapse.
    /// The one difference is that an id outside the dimensions is
    /// [`MatrixError::CellOutOfRange`] instead of growing the matrix.
    pub fn with_ratings(
        &self,
        cells: &[(UserId, ItemId, f64)],
    ) -> Result<RatingMatrix, MatrixError> {
        for &(u, i, r) in cells {
            crate::builder::check_rating(u, i, r, self.scale)?;
        }
        if let Some(&(user, item, _)) = cells
            .iter()
            .find(|(u, i, _)| u.index() >= self.num_users || i.index() >= self.num_items)
        {
            return Err(MatrixError::CellOutOfRange {
                user,
                item,
                num_users: self.num_users,
                num_items: self.num_items,
            });
        }
        if self.num_ratings() == 0
            && cells.is_empty()
            && (self.num_users == 0 || self.num_items == 0)
        {
            return Err(MatrixError::Empty);
        }

        // Stable sort, so among repeats of one cell the first pushed is
        // the one the others are checked against.
        let mut sorted = cells.to_vec();
        sorted.sort_by_key(|&(u, i, _)| (u, i));
        let mut fresh: Vec<(UserId, ItemId, f64)> = Vec::with_capacity(sorted.len());
        for (u, i, r) in sorted {
            let kept = match fresh.last() {
                Some(&(pu, pi, pr)) if (pu, pi) == (u, i) => Some(pr),
                _ => self.get(u, i),
            };
            match kept {
                None => fresh.push((u, i, r)),
                Some(first) if first != r => {
                    return Err(MatrixError::ConflictingDuplicate {
                        user: u,
                        item: i,
                        first,
                        second: r,
                    });
                }
                Some(_) => {}
            }
        }

        let by_user: Vec<(usize, ItemId, f64)> =
            fresh.iter().map(|&(u, i, r)| (u.index(), i, r)).collect();
        let mut by_item: Vec<(usize, UserId, f64)> =
            fresh.iter().map(|&(u, i, r)| (i.index(), u, r)).collect();
        by_item.sort_unstable_by_key(|&(i, u, _)| (i, u));
        Ok(Self::from_storage(
            self.num_users,
            self.num_items,
            self.scale,
            splice(&self.user_ptr, &self.user_items, &self.user_vals, &by_user),
            splice(&self.item_ptr, &self.item_users, &self.item_vals, &by_item),
        ))
    }

    /// Number of users (`P` in the paper).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items (`Q` in the paper).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Total number of stored ratings.
    #[inline]
    pub fn num_ratings(&self) -> usize {
        self.user_vals.len()
    }

    /// Fraction of cells that hold a rating (Table I reports 9.44% for the
    /// paper's MovieLens extract).
    pub fn density(&self) -> f64 {
        if self.num_users == 0 || self.num_items == 0 {
            return 0.0;
        }
        self.num_ratings() as f64 / (self.num_users as f64 * self.num_items as f64)
    }

    /// The rating scale all entries lie on.
    #[inline]
    pub fn scale(&self) -> RatingScale {
        self.scale
    }

    /// Iterator over all user ids.
    pub fn users(&self) -> impl ExactSizeIterator<Item = UserId> + Clone {
        (0..self.num_users as u32).map(UserId::new)
    }

    /// Iterator over all item ids.
    pub fn items(&self) -> impl ExactSizeIterator<Item = ItemId> + Clone {
        (0..self.num_items as u32).map(ItemId::new)
    }

    /// The items user `u` rated and the ratings, as parallel slices sorted
    /// by item id. This is the zero-cost view; prefer it in hot loops.
    #[inline]
    pub fn user_row(&self, u: UserId) -> (&[ItemId], &[f64]) {
        let lo = self.user_ptr[u.index()] as usize;
        let hi = self.user_ptr[u.index() + 1] as usize;
        (&self.user_items[lo..hi], &self.user_vals[lo..hi])
    }

    /// The users who rated item `i` and their ratings, as parallel slices
    /// sorted by user id.
    #[inline]
    pub fn item_col(&self, i: ItemId) -> (&[UserId], &[f64]) {
        let lo = self.item_ptr[i.index()] as usize;
        let hi = self.item_ptr[i.index() + 1] as usize;
        (&self.item_users[lo..hi], &self.item_vals[lo..hi])
    }

    /// Iterator form of [`Self::user_row`]: `(item, rating)` pairs.
    pub fn user_ratings(&self, u: UserId) -> impl ExactSizeIterator<Item = (ItemId, f64)> + '_ {
        let (items, vals) = self.user_row(u);
        items.iter().copied().zip(vals.iter().copied())
    }

    /// Iterator form of [`Self::item_col`]: `(user, rating)` pairs.
    pub fn item_ratings(&self, i: ItemId) -> impl ExactSizeIterator<Item = (UserId, f64)> + '_ {
        let (users, vals) = self.item_col(i);
        users.iter().copied().zip(vals.iter().copied())
    }

    /// Iterator over every stored `(user, item, rating)` triplet in
    /// user-major order.
    pub fn triplets(&self) -> impl Iterator<Item = (UserId, ItemId, f64)> + '_ {
        self.users()
            .flat_map(move |u| self.user_ratings(u).map(move |(i, r)| (u, i, r)))
    }

    /// The rating user `u` gave item `i`, if any. Binary search over the
    /// user's row (rows are short: ~94 entries in the paper's dataset).
    pub fn get(&self, u: UserId, i: ItemId) -> Option<f64> {
        let (items, vals) = self.user_row(u);
        items.binary_search(&i).ok().map(|pos| vals[pos])
    }

    /// `true` iff user `u` rated item `i`.
    #[inline]
    pub fn is_rated(&self, u: UserId, i: ItemId) -> bool {
        self.get(u, i).is_some()
    }

    /// Number of items rated by `u` (`|I{u}|`).
    #[inline]
    pub fn user_count(&self, u: UserId) -> usize {
        (self.user_ptr[u.index() + 1] - self.user_ptr[u.index()]) as usize
    }

    /// Number of users who rated `i` (`|U{i}|`).
    #[inline]
    pub fn item_count(&self, i: ItemId) -> usize {
        (self.item_ptr[i.index() + 1] - self.item_ptr[i.index()]) as usize
    }

    /// Mean rating of user `u` (global mean if the user rated nothing).
    #[inline]
    pub fn user_mean(&self, u: UserId) -> f64 {
        self.user_means[u.index()]
    }

    /// Mean rating of item `i` (global mean if nobody rated it).
    #[inline]
    pub fn item_mean(&self, i: ItemId) -> f64 {
        self.item_means[i.index()]
    }

    /// Mean of all stored ratings.
    #[inline]
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }

    /// All user means as a slice indexed by `UserId::index`.
    #[inline]
    pub fn user_means(&self) -> &[f64] {
        &self.user_means
    }

    /// All item means as a slice indexed by `ItemId::index`.
    #[inline]
    pub fn item_means(&self) -> &[f64] {
        &self.item_means
    }

    /// Builds a new matrix containing only the rows of users for which
    /// `keep(u)` is true, preserving user ids and dimensions. Used by the
    /// evaluation protocol to carve ML_100/ML_200/ML_300 out of one dataset
    /// without renumbering anything.
    pub fn filter_users(&self, mut keep: impl FnMut(UserId) -> bool) -> RatingMatrix {
        let mut b =
            crate::MatrixBuilder::with_dims(self.num_users, self.num_items).scale(self.scale);
        for u in self.users() {
            if keep(u) {
                for (i, r) in self.user_ratings(u) {
                    b.push(u, i, r);
                }
            }
        }
        // Filtering a valid matrix cannot introduce conflicts, and the
        // fixed dimensions make an all-dropped result a legal empty matrix.
        b.build()
            .unwrap_or_else(|e| unreachable!("filtering a valid matrix stays valid: {e}"))
    }

    /// Builds a new matrix with the given cells removed (each cell at most
    /// once; cells that were never rated are ignored). Used to hold out
    /// ratings for Given-N evaluation.
    pub fn without_cells(&self, cells: &[(UserId, ItemId)]) -> RatingMatrix {
        let mut removed: Vec<(UserId, ItemId)> = cells.to_vec();
        removed.sort_unstable();
        removed.dedup();
        let mut b =
            crate::MatrixBuilder::with_dims(self.num_users, self.num_items).scale(self.scale);
        for (u, i, r) in self.triplets() {
            if removed.binary_search(&(u, i)).is_err() {
                b.push(u, i, r);
            }
        }
        b.build()
            .unwrap_or_else(|e| unreachable!("removing cells from a valid matrix stays valid: {e}"))
    }
}

/// Mean of each compressed segment in storage order; an empty segment
/// gets `fallback`.
fn segment_means(ptr: &[u32], vals: &[f64], fallback: f64) -> Vec<f64> {
    ptr.windows(2)
        .map(|w| {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if hi > lo {
                vals[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            } else {
                fallback
            }
        })
        .collect()
}

/// Merges `adds` — `(major, key, value)` sorted by `(major, key)`, no key
/// already stored — into one compressed view.
fn splice<K: Copy + Ord>(
    ptr: &[u32],
    keys: &[K],
    vals: &[f64],
    adds: &[(usize, K, f64)],
) -> Compressed<K> {
    let mut out_ptr = Vec::with_capacity(ptr.len());
    let mut out_keys = Vec::with_capacity(keys.len() + adds.len());
    let mut out_vals = Vec::with_capacity(vals.len() + adds.len());
    out_ptr.push(0u32);
    let mut a = 0;
    for (major, w) in ptr.windows(2).enumerate() {
        let (mut s, hi) = (w[0] as usize, w[1] as usize);
        while let Some(&(_, key, v)) = adds.get(a).filter(|add| add.0 == major) {
            let end = s + keys[s..hi].partition_point(|&k| k < key);
            out_keys.extend_from_slice(&keys[s..end]);
            out_vals.extend_from_slice(&vals[s..end]);
            out_keys.push(key);
            out_vals.push(v);
            s = end;
            a += 1;
        }
        out_keys.extend_from_slice(&keys[s..hi]);
        out_vals.extend_from_slice(&vals[s..hi]);
        out_ptr.push(out_keys.len() as u32);
    }
    (out_ptr, out_keys, out_vals)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::MatrixBuilder;

    /// 3 users × 4 items:
    ///        i0   i1   i2   i3
    ///  u0     5    3    .    1
    ///  u1     4    .    .    1
    ///  u2     .    1    5    4
    pub(crate) fn small() -> RatingMatrix {
        let mut b = MatrixBuilder::new();
        for (u, i, r) in [
            (0, 0, 5.0),
            (0, 1, 3.0),
            (0, 3, 1.0),
            (1, 0, 4.0),
            (1, 3, 1.0),
            (2, 1, 1.0),
            (2, 2, 5.0),
            (2, 3, 4.0),
        ] {
            b.push(UserId::new(u), ItemId::new(i), r);
        }
        b.build().unwrap()
    }

    #[test]
    fn dimensions_and_counts() {
        let m = small();
        assert_eq!(m.num_users(), 3);
        assert_eq!(m.num_items(), 4);
        assert_eq!(m.num_ratings(), 8);
        assert_eq!(m.user_count(UserId::new(0)), 3);
        assert_eq!(m.item_count(ItemId::new(3)), 3);
        assert_eq!(m.item_count(ItemId::new(2)), 1);
    }

    #[test]
    fn density_matches_hand_count() {
        let m = small();
        assert!((m.density() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn get_and_is_rated() {
        let m = small();
        assert_eq!(m.get(UserId::new(0), ItemId::new(1)), Some(3.0));
        assert_eq!(m.get(UserId::new(0), ItemId::new(2)), None);
        assert!(m.is_rated(UserId::new(2), ItemId::new(2)));
        assert!(!m.is_rated(UserId::new(1), ItemId::new(1)));
    }

    #[test]
    fn rows_and_cols_are_sorted_and_consistent() {
        let m = small();
        for u in m.users() {
            let (items, vals) = m.user_row(u);
            assert_eq!(items.len(), vals.len());
            assert!(items.windows(2).all(|w| w[0] < w[1]), "row not sorted");
            for (&i, &r) in items.iter().zip(vals) {
                // every CSR entry must appear in the CSC mirror
                let (users, cvals) = m.item_col(i);
                let pos = users.binary_search(&u).expect("CSC missing CSR entry");
                assert_eq!(cvals[pos], r);
            }
        }
        for i in m.items() {
            let (users, _) = m.item_col(i);
            assert!(users.windows(2).all(|w| w[0] < w[1]), "col not sorted");
        }
    }

    #[test]
    fn means_match_hand_computation() {
        let m = small();
        assert!((m.user_mean(UserId::new(0)) - 3.0).abs() < 1e-12);
        assert!((m.user_mean(UserId::new(1)) - 2.5).abs() < 1e-12);
        assert!((m.item_mean(ItemId::new(0)) - 4.5).abs() < 1e-12);
        assert!((m.item_mean(ItemId::new(3)) - 2.0).abs() < 1e-12);
        let total: f64 = 5.0 + 3.0 + 1.0 + 4.0 + 1.0 + 1.0 + 5.0 + 4.0;
        assert!((m.global_mean() - total / 8.0).abs() < 1e-12);
    }

    #[test]
    fn triplets_cover_everything_once() {
        let m = small();
        let t: Vec<_> = m.triplets().collect();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0], (UserId::new(0), ItemId::new(0), 5.0));
        assert_eq!(t[7], (UserId::new(2), ItemId::new(3), 4.0));
    }

    #[test]
    fn filter_users_keeps_ids_and_dims() {
        let m = small();
        let f = m.filter_users(|u| u.index() != 1);
        assert_eq!(f.num_users(), 3);
        assert_eq!(f.num_items(), 4);
        assert_eq!(f.num_ratings(), 6);
        assert_eq!(f.user_count(UserId::new(1)), 0);
        assert_eq!(f.get(UserId::new(2), ItemId::new(2)), Some(5.0));
        // empty user's mean falls back to the new global mean
        assert!((f.user_mean(UserId::new(1)) - f.global_mean()).abs() < 1e-12);
    }

    #[test]
    fn without_cells_removes_exactly_those() {
        let m = small();
        let h = m.without_cells(&[
            (UserId::new(0), ItemId::new(1)),
            (UserId::new(2), ItemId::new(3)),
            (UserId::new(1), ItemId::new(2)), // never rated: ignored
        ]);
        assert_eq!(h.num_ratings(), 6);
        assert_eq!(h.get(UserId::new(0), ItemId::new(1)), None);
        assert_eq!(h.get(UserId::new(2), ItemId::new(3)), None);
        assert_eq!(h.get(UserId::new(0), ItemId::new(0)), Some(5.0));
    }

    /// Every stored field, compared bit for bit.
    fn assert_identical(a: &RatingMatrix, b: &RatingMatrix) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((a.num_users, a.num_items), (b.num_users, b.num_items));
        assert_eq!(a.user_ptr, b.user_ptr);
        assert_eq!(a.user_items, b.user_items);
        assert_eq!(bits(&a.user_vals), bits(&b.user_vals));
        assert_eq!(a.item_ptr, b.item_ptr);
        assert_eq!(a.item_users, b.item_users);
        assert_eq!(bits(&a.item_vals), bits(&b.item_vals));
        assert_eq!(bits(&a.user_means), bits(&b.user_means));
        assert_eq!(bits(&a.item_means), bits(&b.item_means));
        assert_eq!(a.global_mean.to_bits(), b.global_mean.to_bits());
    }

    /// What `with_ratings` must reproduce: a fresh build of the stored
    /// triplets followed by `cells`.
    fn rebuilt(
        m: &RatingMatrix,
        cells: &[(UserId, ItemId, f64)],
    ) -> Result<RatingMatrix, MatrixError> {
        let mut b = MatrixBuilder::with_dims(m.num_users(), m.num_items()).scale(m.scale());
        for (u, i, r) in m.triplets() {
            b.push(u, i, r);
        }
        for &(u, i, r) in cells {
            b.push(u, i, r);
        }
        b.build()
    }

    #[test]
    fn splice_equals_a_fresh_build() {
        let m = small();
        let cells = [
            (UserId::new(1), ItemId::new(2), 2.0),
            (UserId::new(0), ItemId::new(2), 4.0),
            (UserId::new(1), ItemId::new(1), 5.0),
            (UserId::new(2), ItemId::new(0), 3.0),
            // exact repeats collapse, against `cells` and the store
            (UserId::new(1), ItemId::new(2), 2.0),
            (UserId::new(0), ItemId::new(0), 5.0),
        ];
        assert_identical(
            &m.with_ratings(&cells).unwrap(),
            &rebuilt(&m, &cells).unwrap(),
        );
        assert_identical(&m.with_ratings(&[]).unwrap(), &m);
    }

    #[test]
    fn splice_rejects_what_the_builder_rejects() {
        let m = small();
        let (u, i) = (UserId::new(1), ItemId::new(2));
        for bad in [f64::NAN, f64::INFINITY, 0.5, 9.0] {
            let cells = [(UserId::new(2), ItemId::new(0), 3.0), (u, i, bad)];
            assert_eq!(
                format!("{:?}", m.with_ratings(&cells).unwrap_err()),
                format!("{:?}", rebuilt(&m, &cells).unwrap_err()),
            );
        }
        // Conflicts within the new cells and against a stored rating.
        for cells in [
            vec![(u, i, 2.0), (u, i, 3.0)],
            vec![(UserId::new(0), ItemId::new(1), 4.0)],
        ] {
            let (spliced, built) = (m.with_ratings(&cells), rebuilt(&m, &cells));
            let (
                Err(MatrixError::ConflictingDuplicate {
                    user,
                    item,
                    first,
                    second,
                }),
                Err(MatrixError::ConflictingDuplicate {
                    user: bu,
                    item: bi,
                    first: bf,
                    second: bs,
                }),
            ) = (spliced, built)
            else {
                panic!("both must reject {cells:?} as a conflicting duplicate");
            };
            assert_eq!((user, item), (bu, bi));
            // The builder's sort is unstable, so only the pair is fixed.
            assert_eq!(
                [first.min(second), first.max(second)],
                [bf.min(bs), bf.max(bs)]
            );
        }
        // Fixed dimensions: an id past them is an error, not growth.
        assert!(matches!(
            m.with_ratings(&[(UserId::new(3), ItemId::new(0), 3.0)]),
            Err(MatrixError::CellOutOfRange {
                num_users: 3,
                num_items: 4,
                ..
            })
        ));
        assert!(matches!(
            m.with_ratings(&[(UserId::new(0), ItemId::new(4), 3.0)]),
            Err(MatrixError::CellOutOfRange { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn splice_matches_the_builder_on_random_matrices(
            base in proptest::collection::btree_map((0u32..12, 0u32..15), 1u32..=5, 0..90),
            added in proptest::collection::vec(((0u32..12, 0u32..15), 1u32..=5), 0..25)
        ) {
            let mut b = MatrixBuilder::with_dims(12, 15);
            for (&(u, i), &r) in &base {
                b.push(UserId::new(u), ItemId::new(i), f64::from(r));
            }
            let m = b.build().unwrap();
            let cells: Vec<(UserId, ItemId, f64)> = added
                .iter()
                .map(|&((u, i), r)| (UserId::new(u), ItemId::new(i), f64::from(r)))
                .collect();
            match (m.with_ratings(&cells), rebuilt(&m, &cells)) {
                (Ok(a), Ok(b)) => assert_identical(&a, &b),
                (Err(MatrixError::ConflictingDuplicate { user, item, .. }),
                 Err(MatrixError::ConflictingDuplicate { user: bu, item: bi, .. })) => {
                    proptest::prop_assert_eq!((user, item), (bu, bi));
                }
                (a, b) => proptest::prop_assert!(false, "splice {a:?} vs builder {b:?}"),
            }
        }
    }

    #[test]
    fn empty_rows_and_cols_are_fine() {
        let mut b = MatrixBuilder::with_dims(5, 5);
        b.push(UserId::new(4), ItemId::new(4), 3.0);
        let m = b.build().unwrap();
        assert_eq!(m.user_count(UserId::new(0)), 0);
        assert_eq!(m.item_count(ItemId::new(0)), 0);
        let (items, vals) = m.user_row(UserId::new(2));
        assert!(items.is_empty() && vals.is_empty());
        assert_eq!(m.user_mean(UserId::new(0)), m.global_mean());
        assert_eq!(m.item_mean(ItemId::new(1)), m.global_mean());
    }
}
