//! Shared helpers for the baseline implementations.

use cf_matrix::{ItemId, RatingMatrix, UserId};

/// The standard fallback chain every baseline uses when its own estimator
/// has no evidence: the user's mean if they have a profile, else the
/// item's mean if it has raters, else the global mean.
///
/// MAE in the paper's protocol is computed over *every* holdout cell, so
/// abstaining is not an option; this chain is the conventional way the CF
/// literature fills the gap.
pub fn fallback_rating(m: &RatingMatrix, user: UserId, item: ItemId) -> f64 {
    if m.user_count(user) > 0 {
        m.user_mean(user)
    } else if m.item_count(item) > 0 {
        m.item_mean(item)
    } else {
        m.global_mean()
    }
}

/// `true` when the ids address a cell inside the matrix.
pub(crate) fn in_range(m: &RatingMatrix, user: UserId, item: ItemId) -> bool {
    user.index() < m.num_users() && item.index() < m.num_items()
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use cf_matrix::MatrixBuilder;

    #[test]
    fn fallback_prefers_user_then_item_then_global() {
        let mut b = MatrixBuilder::with_dims(3, 3);
        b.push(UserId::new(0), ItemId::new(0), 5.0);
        b.push(UserId::new(0), ItemId::new(1), 3.0);
        b.push(UserId::new(1), ItemId::new(0), 1.0);
        let m = b.build().unwrap();
        // user 0 has a profile: user mean 4.0
        assert_eq!(fallback_rating(&m, UserId::new(0), ItemId::new(2)), 4.0);
        // user 2 empty, item 0 rated: item mean 3.0
        assert_eq!(fallback_rating(&m, UserId::new(2), ItemId::new(0)), 3.0);
        // user 2 empty, item 2 unrated: global mean 3.0
        assert_eq!(fallback_rating(&m, UserId::new(2), ItemId::new(2)), 3.0);
    }
}
