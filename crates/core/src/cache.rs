//! One neighbor-selection slot per model user.
//!
//! The online phase caches each user's top-`K` like-minded-user selection
//! ("caching intermediate results", §V-D). Selection depends on the
//! active user alone, so a model needs at most one cached selection per
//! user: the cache is a table of one slot per user of the model, indexed
//! by [`UserId`], each slot its own `RwLock<Option<_>>`. Concurrent
//! traffic for different users touches different locks, a hit is one
//! read lock and an `Arc` clone, and the footprint is bounded by the
//! model's own user count, so nothing is ever evicted.
//!
//! The insert and poison-reset logic lives in [`NeighborSlots`], generic
//! over the [`cf_obs::sync::Shim`] primitive family: production
//! instantiates it with [`StdShim`], while the `cf-analysis` loom-lite
//! model checker instantiates the *same* logic with
//! scheduler-instrumented primitives and exhaustively explores thread
//! interleavings against its invariants (racing inserts share the first
//! writer's value, a hit never returns another user's value, a poison
//! reset never drops a later insert or touches another slot).

// A hot-path module: the clock is read only through
// `cf_obs::now_if_enabled`.
#![deny(clippy::disallowed_methods)]

use std::sync::Arc;

use cf_matrix::UserId;
use cf_obs::sync::{Shim, ShimRwLock, StdShim};

/// A cached selection: the user's top-`K` like-minded users.
pub(crate) type Selection = Arc<Vec<(UserId, f64)>>;

/// The production neighbor cache: [`NeighborSlots`] over std primitives.
pub(crate) type NeighborCache = NeighborSlots<StdShim, Selection>;

/// The schedulable cache core: one lock-guarded slot per user, with
/// poisoned-slot self-reset, generic over the synchronization shim.
///
/// All methods take `&self`; interior mutability is per slot. Values
/// are any cheaply-cloneable type (production uses an `Arc`). A user
/// past the table (at or beyond the user count it was built for) has no
/// slot: it never hits, and an insert for it is returned uncached.
pub struct NeighborSlots<S: Shim, V: Clone + Send + Sync + 'static> {
    slots: Box<[S::RwLock<Option<V>>]>,
}

impl<S: Shim, V: Clone + Send + Sync + 'static> NeighborSlots<S, V> {
    /// An empty table with one slot for each of `users` users.
    pub fn new(users: usize) -> Self {
        Self {
            slots: (0..users).map(|_| S::RwLock::new(None)).collect(),
        }
    }

    /// Write access to `slot`. A slot whose lock was poisoned by a
    /// panicking holder is first reset to empty, its poison cleared and
    /// the reset counted in `cache.poison_reset`. The check runs under
    /// the write lock, so one poisoning is reset exactly once and never
    /// after a later writer's insert. The cache is derived state:
    /// dropping one selection costs one re-selection.
    fn write(slot: &S::RwLock<Option<V>>) -> impl std::ops::DerefMut<Target = Option<V>> + '_ {
        let mut held = slot.write_recover();
        if slot.is_poisoned() {
            cf_obs::counter!("cache.poison_reset").inc();
            slot.clear_poison();
            *held = None;
        }
        held
    }

    /// The cached value for `user`, if any. A poisoned slot is reset
    /// and reports a miss.
    pub fn get(&self, user: UserId) -> Option<V> {
        let slot = self.slots.get(user.index())?;
        match slot.read() {
            Ok(held) => held.clone(),
            Err(_) => {
                drop(Self::write(slot));
                None
            }
        }
    }

    /// Caches a computed value for `user` and returns the cached one.
    /// When a racing thread inserted for the same user first, the
    /// incumbent wins and is returned, so all racers end up sharing one
    /// value and an entry is never silently replaced.
    pub fn insert(&self, user: UserId, value: V) -> V {
        let Some(slot) = self.slots.get(user.index()) else {
            return value;
        };
        let mut held = Self::write(slot);
        #[cfg(feature = "faultinject")]
        cf_faultinject::maybe_panic("cache.poison");
        held.get_or_insert(value).clone()
    }

    /// Number of users with a cached value. A poisoned slot counts as
    /// empty and is left for its next writer to reset.
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.read().is_ok_and(|held| held.is_some()))
            .count()
    }

    /// True when no value is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cached `(user, value)` pair in user order, each slot read
    /// under its read lock. Read-only: a poisoned slot contributes
    /// nothing and stays for its next writer to reset.
    pub fn snapshot(&self) -> Vec<(UserId, V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(u, slot)| Some((UserId::from(u), slot.read().ok()?.clone()?)))
            .collect()
    }

    /// Drops every cached value, resetting any poisoned slot on the way.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *Self::write(slot) = None;
        }
    }

    /// Instrumentation (tests and the model checker): poisons `user`'s
    /// slot exactly as a panicking writer would.
    pub fn poison(&self, user: UserId) {
        if let Some(slot) = self.slots.get(user.index()) {
            slot.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(u: u32) -> Selection {
        Arc::new(vec![(UserId::new(u), 1.0)])
    }

    #[test]
    fn insert_then_get_shares_the_arc() {
        let c = NeighborCache::new(8);
        let v = c.insert(UserId::new(3), sel(3));
        let hit = c.get(UserId::new(3)).expect("cached");
        assert!(Arc::ptr_eq(&v, &hit));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn racing_insert_keeps_the_incumbent() {
        let c = NeighborCache::new(8);
        let first = c.insert(UserId::new(5), sel(5));
        let second = c.insert(UserId::new(5), sel(99));
        assert!(Arc::ptr_eq(&first, &second), "incumbent must win");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_user_past_the_table_is_never_cached() {
        let c = NeighborCache::new(4);
        let v = sel(4);
        assert!(Arc::ptr_eq(&c.insert(UserId::new(4), Arc::clone(&v)), &v));
        assert!(c.get(UserId::new(4)).is_none());
        c.poison(UserId::new(4));
        assert!(c.is_empty());
    }

    /// A poisoned slot resets alone, on whichever of `get`, `insert` and
    /// `clear` touches it first, and the reset is counted; `len` and
    /// `snapshot` only read, and every other slot keeps the very `Arc` it
    /// held.
    #[test]
    fn poisoned_slots_reset_alone_on_get_insert_and_clear() {
        let resets = || cf_obs::counter!("cache.poison_reset").get();
        let c = NeighborCache::new(8);
        let poisoned = |u: usize| c.slots[u].is_poisoned();
        let kept: Vec<Selection> = (0..8).map(|u| c.insert(UserId::new(u), sel(u))).collect();

        let before = resets();
        c.poison(UserId::new(2));
        assert!(poisoned(2));
        assert_eq!(c.len(), 7, "a poisoned slot counts as empty");
        assert!(poisoned(2), "len is read-only");
        assert_eq!(c.snapshot().len(), 7);
        assert!(poisoned(2), "snapshot is read-only");
        assert!(c.get(UserId::new(2)).is_none(), "reset reports a miss");
        assert!(!poisoned(2), "get resets the slot");
        assert!(resets() > before);
        let v = c.insert(UserId::new(2), sel(2));
        assert!(Arc::ptr_eq(&v, &c.get(UserId::new(2)).unwrap()));

        c.poison(UserId::new(6));
        let v = c.insert(UserId::new(6), sel(60));
        assert!(!poisoned(6), "insert resets the slot");
        assert_eq!(v[0].0, UserId::new(60), "the reset slot takes the insert");
        for u in [0, 1, 3, 4, 5, 7] {
            let hit = c.get(UserId::new(u)).unwrap();
            assert!(Arc::ptr_eq(&hit, &kept[u as usize]), "user {u}");
        }

        c.poison(UserId::new(1));
        c.poison(UserId::new(4));
        c.clear();
        assert!(
            (0..8).all(|u| !poisoned(u)),
            "clear leaves no slot poisoned"
        );
        assert!(c.is_empty());
        let v = c.insert(UserId::new(1), sel(1));
        assert!(Arc::ptr_eq(&v, &c.get(UserId::new(1)).unwrap()));
    }

    #[test]
    fn snapshot_lists_every_entry_in_user_order() {
        let c = NeighborCache::new(20);
        for u in (0..20u32).rev().step_by(2) {
            c.insert(UserId::new(u), sel(u));
        }
        let snap = c.snapshot();
        let users: Vec<u32> = snap.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(users, (1..20).step_by(2).collect::<Vec<_>>());
        for (u, v) in snap {
            assert!(Arc::ptr_eq(&v, &c.get(u).unwrap()));
        }
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(UserId::new(7)).is_none());
    }
}
