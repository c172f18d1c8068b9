//! Construction of [`RatingMatrix`] from `(user, item, rating)` triplets.

use crate::{ItemId, MatrixError, RatingMatrix, RatingScale, UserId};

/// Counts of triplets dropped by [`MatrixBuilder::build_quarantined`].
///
/// Strict [`MatrixBuilder::build`] turns the first invalid triplet into an
/// error; the quarantining build instead skips invalid input and accounts
/// for every dropped triplet here, so ingestion survives a corrupt upstream
/// feed without silently poisoning PCC or the weight planes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Triplets whose rating was NaN or ±∞.
    pub non_finite: usize,
    /// Triplets whose rating fell outside the declared [`RatingScale`].
    pub out_of_scale: usize,
    /// Repeated `(user, item)` cells with a different rating; the first
    /// occurrence (in push order) is kept, later conflicts are dropped.
    pub conflicting: usize,
}

impl QuarantineReport {
    /// Total number of quarantined triplets.
    pub fn total(&self) -> usize {
        self.non_finite + self.out_of_scale + self.conflicting
    }

    /// `true` when nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// Accumulates rating triplets and freezes them into a [`RatingMatrix`].
///
/// The builder accepts triplets in any order, deduplicates exact repeats,
/// rejects conflicting repeats, validates every rating against the declared
/// [`RatingScale`], and assembles both the CSR and CSC views plus all means
/// in `O(n log n)`.
///
/// ```
/// use cf_matrix::{MatrixBuilder, UserId, ItemId};
///
/// let mut b = MatrixBuilder::new();
/// b.push(UserId::new(0), ItemId::new(2), 4.0);
/// b.push(UserId::new(1), ItemId::new(0), 3.0);
/// let m = b.build().unwrap();
/// assert_eq!(m.num_users(), 2);
/// assert_eq!(m.num_items(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    triplets: Vec<(UserId, ItemId, f64)>,
    min_users: usize,
    min_items: usize,
    scale: RatingScale,
}

impl Default for MatrixBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MatrixBuilder {
    /// New builder; dimensions are inferred from the largest ids pushed.
    pub fn new() -> Self {
        Self {
            triplets: Vec::new(),
            min_users: 0,
            min_items: 0,
            scale: RatingScale::default(),
        }
    }

    /// New builder with dimensions fixed to at least `users × items`, so
    /// trailing unrated users/items keep their slots (the evaluation
    /// protocol relies on stable ids across splits).
    pub fn with_dims(users: usize, items: usize) -> Self {
        Self {
            triplets: Vec::new(),
            min_users: users,
            min_items: items,
            scale: RatingScale::default(),
        }
    }

    /// Sets the rating scale validated at build time (default 1..=5).
    #[must_use]
    pub fn scale(mut self, scale: RatingScale) -> Self {
        self.scale = scale;
        self
    }

    /// Pre-allocates space for `n` triplets.
    pub fn reserve(&mut self, n: usize) {
        self.triplets.reserve(n);
    }

    /// Adds one rating.
    pub fn push(&mut self, user: UserId, item: ItemId, rating: f64) {
        self.triplets.push((user, item, rating));
    }

    /// Number of triplets pushed so far (before deduplication).
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Like [`build`](Self::build), but quarantines invalid triplets
    /// instead of failing on them: non-finite ratings, out-of-scale
    /// ratings, and conflicting duplicates (first push wins) are dropped
    /// and counted in the returned [`QuarantineReport`].
    ///
    /// Errors only when the surviving triplets cannot form a matrix at all
    /// ([`MatrixError::Empty`] with no fixed dimensions).
    pub fn build_quarantined(self) -> Result<(RatingMatrix, QuarantineReport), MatrixError> {
        let MatrixBuilder {
            triplets,
            min_users,
            min_items,
            scale,
        } = self;

        let mut report = QuarantineReport::default();
        // Stable sort: for conflicting duplicates "first pushed wins", and
        // an unstable sort would make the winner arbitrary.
        let mut indexed: Vec<(usize, (UserId, ItemId, f64))> =
            triplets.into_iter().enumerate().collect();
        indexed.sort_by_key(|&(pos, (u, i, _))| (u, i, pos));

        let mut clean = MatrixBuilder::with_dims(min_users, min_items).scale(scale);
        let mut last_kept: Option<(UserId, ItemId)> = None;
        for (_, (u, i, r)) in indexed {
            if !r.is_finite() {
                report.non_finite += 1;
                continue;
            }
            if !scale.contains(r) {
                report.out_of_scale += 1;
                continue;
            }
            if last_kept == Some((u, i)) {
                // Exact repeats collapse silently in `build`; only count a
                // genuine conflict. We cannot compare against the dropped
                // rating here, so compare against the kept one via push
                // order: `clean` still holds it as its last triplet.
                if clean.triplets.last().map(|t| t.2) != Some(r) {
                    report.conflicting += 1;
                }
                continue;
            }
            last_kept = Some((u, i));
            clean.push(u, i, r);
        }
        let matrix = clean.build()?;
        Ok((matrix, report))
    }

    /// Validates, sorts, deduplicates, and assembles the matrix.
    ///
    /// With no triplets the build fails with [`MatrixError::Empty`] —
    /// unless dimensions were fixed via [`with_dims`](Self::with_dims), in
    /// which case an all-unrated matrix is a legitimate value (its global
    /// mean is the scale midpoint).
    pub fn build(self) -> Result<RatingMatrix, MatrixError> {
        let MatrixBuilder {
            mut triplets,
            min_users,
            min_items,
            scale,
        } = self;

        for &(u, i, r) in &triplets {
            check_rating(u, i, r, scale)?;
        }
        if triplets.is_empty() && (min_users == 0 || min_items == 0) {
            return Err(MatrixError::Empty);
        }

        triplets.sort_unstable_by_key(|t| (t.0, t.1));
        // Reject conflicting duplicates, collapse exact ones.
        let mut deduped: Vec<(UserId, ItemId, f64)> = Vec::with_capacity(triplets.len());
        for (u, i, r) in triplets {
            match deduped.last() {
                Some(&(pu, pi, pr)) if pu == u && pi == i => {
                    if pr != r {
                        return Err(MatrixError::ConflictingDuplicate {
                            user: u,
                            item: i,
                            first: pr,
                            second: r,
                        });
                    }
                }
                _ => deduped.push((u, i, r)),
            }
        }

        let num_users = min_users.max(deduped.iter().map(|t| t.0.index() + 1).max().unwrap_or(0));
        let num_items = min_items.max(deduped.iter().map(|t| t.1.index() + 1).max().unwrap_or(0));
        let nnz = deduped.len();

        // CSR (already in user-major sorted order).
        let mut user_ptr = vec![0u32; num_users + 1];
        for &(u, _, _) in &deduped {
            user_ptr[u.index() + 1] += 1;
        }
        for k in 0..num_users {
            user_ptr[k + 1] += user_ptr[k];
        }
        let user_items: Vec<ItemId> = deduped.iter().map(|t| t.1).collect();
        let user_vals: Vec<f64> = deduped.iter().map(|t| t.2).collect();

        // CSC via counting sort on item.
        let mut item_ptr = vec![0u32; num_items + 1];
        for &(_, i, _) in &deduped {
            item_ptr[i.index() + 1] += 1;
        }
        for k in 0..num_items {
            item_ptr[k + 1] += item_ptr[k];
        }
        let mut cursor: Vec<u32> = item_ptr[..num_items].to_vec();
        let mut item_users = vec![UserId::new(0); nnz];
        let mut item_vals = vec![0.0f64; nnz];
        // deduped is user-major, so within each column users come out sorted.
        for &(u, i, r) in &deduped {
            let slot = cursor[i.index()] as usize;
            item_users[slot] = u;
            item_vals[slot] = r;
            cursor[i.index()] += 1;
        }

        Ok(RatingMatrix::from_storage(
            num_users,
            num_items,
            scale,
            (user_ptr, user_items, user_vals),
            (item_ptr, item_users, item_vals),
        ))
    }
}

/// The per-rating validation [`MatrixBuilder::build`] and
/// [`RatingMatrix::with_ratings`] share: finite, then on `scale`.
pub(crate) fn check_rating(
    user: UserId,
    item: ItemId,
    value: f64,
    scale: RatingScale,
) -> Result<(), MatrixError> {
    if !value.is_finite() {
        return Err(MatrixError::NonFiniteRating { user, item, value });
    }
    if !scale.contains(value) {
        return Err(MatrixError::RatingOutOfScale {
            user,
            item,
            value,
            min: scale.min,
            max: scale.max,
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_input_is_sorted() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(1), ItemId::new(3), 2.0);
        b.push(UserId::new(0), ItemId::new(1), 5.0);
        b.push(UserId::new(1), ItemId::new(0), 4.0);
        let m = b.build().unwrap();
        let (items, vals) = m.user_row(UserId::new(1));
        assert_eq!(items, &[ItemId::new(0), ItemId::new(3)]);
        assert_eq!(vals, &[4.0, 2.0]);
    }

    #[test]
    fn exact_duplicates_collapse() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 3.0);
        b.push(UserId::new(0), ItemId::new(0), 3.0);
        let m = b.build().unwrap();
        assert_eq!(m.num_ratings(), 1);
    }

    #[test]
    fn conflicting_duplicates_error() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 3.0);
        b.push(UserId::new(0), ItemId::new(0), 4.0);
        assert!(matches!(
            b.build(),
            Err(MatrixError::ConflictingDuplicate { .. })
        ));
    }

    #[test]
    fn nan_rating_rejected() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), f64::NAN);
        assert!(matches!(
            b.build(),
            Err(MatrixError::NonFiniteRating { .. })
        ));
    }

    #[test]
    fn out_of_scale_rejected() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 6.0);
        assert!(matches!(
            b.build(),
            Err(MatrixError::RatingOutOfScale { .. })
        ));
    }

    #[test]
    fn custom_scale_accepts_wider_values() {
        let mut b = MatrixBuilder::new().scale(RatingScale::new(0.0, 10.0));
        b.push(UserId::new(0), ItemId::new(0), 6.0);
        let m = b.build().unwrap();
        assert_eq!(m.get(UserId::new(0), ItemId::new(0)), Some(6.0));
    }

    #[test]
    fn empty_builder_errors() {
        assert!(matches!(
            MatrixBuilder::new().build(),
            Err(MatrixError::Empty)
        ));
    }

    #[test]
    fn with_dims_pads_dimensions() {
        let mut b = MatrixBuilder::with_dims(10, 20);
        b.push(UserId::new(0), ItemId::new(0), 1.0);
        let m = b.build().unwrap();
        assert_eq!(m.num_users(), 10);
        assert_eq!(m.num_items(), 20);
    }

    #[test]
    fn empty_build_with_fixed_dims_yields_empty_matrix() {
        let m = MatrixBuilder::with_dims(3, 4).build().unwrap();
        assert_eq!(m.num_users(), 3);
        assert_eq!(m.num_items(), 4);
        assert_eq!(m.num_ratings(), 0);
        assert_eq!(m.global_mean(), 3.0);
        assert_eq!(m.get(UserId::new(0), ItemId::new(0)), None);
    }

    #[test]
    fn empty_build_with_zero_dims_still_errors() {
        assert!(matches!(
            MatrixBuilder::with_dims(0, 4).build(),
            Err(MatrixError::Empty)
        ));
    }

    #[test]
    fn quarantined_build_drops_and_counts_bad_triplets() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 4.0);
        b.push(UserId::new(0), ItemId::new(1), f64::NAN);
        b.push(UserId::new(0), ItemId::new(2), f64::INFINITY);
        b.push(UserId::new(1), ItemId::new(0), 9.0);
        b.push(UserId::new(1), ItemId::new(1), 2.0);
        b.push(UserId::new(1), ItemId::new(1), 5.0); // conflicts, first wins
        b.push(UserId::new(1), ItemId::new(1), 2.0); // exact repeat, silent
        let (m, report) = b.build_quarantined().unwrap();
        assert_eq!(report.non_finite, 2);
        assert_eq!(report.out_of_scale, 1);
        assert_eq!(report.conflicting, 1);
        assert_eq!(report.total(), 4);
        assert!(!report.is_clean());
        assert_eq!(m.num_ratings(), 2);
        assert_eq!(m.get(UserId::new(1), ItemId::new(1)), Some(2.0));
    }

    #[test]
    fn quarantined_build_is_clean_for_valid_input() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), 4.0);
        b.push(UserId::new(1), ItemId::new(1), 2.0);
        let (m, report) = b.build_quarantined().unwrap();
        assert!(report.is_clean());
        assert_eq!(m.num_ratings(), 2);
    }

    #[test]
    fn quarantined_build_of_all_bad_input_without_dims_errors() {
        let mut b = MatrixBuilder::new();
        b.push(UserId::new(0), ItemId::new(0), f64::NAN);
        assert!(matches!(b.build_quarantined(), Err(MatrixError::Empty)));
    }

    #[test]
    fn quarantined_build_of_all_bad_input_with_dims_survives() {
        let mut b = MatrixBuilder::with_dims(2, 2);
        b.push(UserId::new(0), ItemId::new(0), f64::NAN);
        let (m, report) = b.build_quarantined().unwrap();
        assert_eq!(m.num_ratings(), 0);
        assert_eq!(report.non_finite, 1);
    }

    #[test]
    fn dims_grow_past_with_dims_if_needed() {
        let mut b = MatrixBuilder::with_dims(2, 2);
        b.push(UserId::new(5), ItemId::new(7), 1.0);
        let m = b.build().unwrap();
        assert_eq!(m.num_users(), 6);
        assert_eq!(m.num_items(), 8);
    }
}
