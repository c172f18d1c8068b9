//! The serving tier's *only* doorway to the model: a handle over the
//! RCU-style generation cell from `cfsf_core::refresh`.
//!
//! Every request path in this crate reaches the model through
//! [`ModelHandle::with`] or [`ModelHandle::with_generation`], which lend
//! the generation currently serving to a closure for one call. That is
//! what makes zero-pause refresh work: a background rebuild publishes a
//! new generation into the cell, the next call sees it, and calls already
//! in flight finish on the generation they started with. The `&Cfsf` a
//! closure receives cannot escape it (the compiler rejects a closure
//! that returns it), so no serve path can pin a generation past one call.

use std::sync::Arc;

use cfsf_core::{Cfsf, GenCell};

/// A cloneable handle to the model generation currently serving.
///
/// Two constructions:
/// - [`ModelHandle::fixed`] wraps a plain fitted model — generation 0
///   forever; the classic static-shard deployment.
/// - [`ModelHandle::from_cell`] shares a live [`GenCell`] (typically
///   [`cfsf_core::SelfHealingCfsf::cell`]) so a background refresh
///   worker swaps generations under the server without a restart.
#[derive(Clone)]
pub struct ModelHandle {
    cell: Arc<GenCell<Cfsf>>,
}

impl ModelHandle {
    /// A handle that always serves `model` (generation 0).
    pub fn fixed(model: Arc<Cfsf>) -> Self {
        Self {
            cell: Arc::new(GenCell::new(model)),
        }
    }

    /// A handle sharing a live generation cell — publishes through the
    /// cell become visible to this handle's next [`ModelHandle::with`].
    pub fn from_cell(cell: Arc<GenCell<Cfsf>>) -> Self {
        Self { cell }
    }

    /// Runs `f` on the model generation currently serving. The
    /// generation stays pinned for the whole call, so one request always
    /// computes against one consistent model even while a refresh
    /// publishes mid-request.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cf_serve::ModelHandle;
    /// use cfsf_core::{Cfsf, CfsfConfig};
    ///
    /// let data = cf_data::SyntheticConfig::small().generate();
    /// let model = Cfsf::fit(&data.matrix, CfsfConfig::small()).unwrap();
    /// let handle = ModelHandle::fixed(Arc::new(model));
    /// let users = handle.with(|model| model.matrix().num_users());
    /// assert_eq!(users, data.matrix.num_users());
    /// ```
    ///
    /// The model cannot leave the closure, so no caller keeps a
    /// generation past the call:
    ///
    /// ```compile_fail
    /// use cf_serve::ModelHandle;
    /// use cfsf_core::Cfsf;
    ///
    /// fn keep(handle: &ModelHandle) -> &Cfsf {
    ///     handle.with(|model| model)
    /// }
    /// ```
    pub fn with<R>(&self, f: impl FnOnce(&Cfsf) -> R) -> R {
        f(&self.cell.load())
    }

    /// [`ModelHandle::with`] plus the generation id the model belongs
    /// to — the pair is read under one guard, never torn.
    pub fn with_generation<R>(&self, f: impl FnOnce(&Cfsf, u64) -> R) -> R {
        let (model, generation) = self.cell.load_with_generation();
        f(&model, generation)
    }

    /// The current generation id (monitoring only; pair reads go through
    /// [`ModelHandle::with_generation`]).
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsf_core::CfsfConfig;

    fn fitted() -> Arc<Cfsf> {
        let d = cf_data::SyntheticConfig::small().generate();
        Arc::new(Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap())
    }

    #[test]
    fn fixed_handle_serves_generation_zero() {
        let model = fitted();
        let handle = ModelHandle::fixed(Arc::clone(&model));
        handle.with_generation(|loaded, generation| {
            assert_eq!(generation, 0);
            assert!(std::ptr::eq(loaded, &*model));
        });
    }

    #[test]
    fn cell_handle_observes_published_generations() {
        let a = fitted();
        let cell = Arc::new(GenCell::new(Arc::clone(&a)));
        let handle = ModelHandle::from_cell(Arc::clone(&cell));
        assert_eq!(handle.generation(), 0);

        let b = fitted();
        cell.publish(Arc::clone(&b));
        handle.with_generation(|loaded, generation| {
            assert_eq!(generation, 1);
            assert!(std::ptr::eq(loaded, &*b));
        });
        assert!(handle.with(|loaded| std::ptr::eq(loaded, &*b)));
        // The old generation stays alive for holders of its Arc.
        assert!(Arc::strong_count(&a) >= 1);
    }
}
