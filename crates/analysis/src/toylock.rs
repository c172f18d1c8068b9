//! The loom-lite self-test fixture: a deliberately buggy lock.
//!
//! [`ToyLockModel`] with `buggy: true` implements mutual exclusion with
//! a non-atomic check-then-act on a flag — the classic race: two threads
//! both observe the flag clear, both set it, both enter the critical
//! section. The model checker must find the violation (the regression
//! tests pin a recorded random seed that does). The fixed variant takes
//! a real blocking mutex and must pass *exhaustively* — which also
//! proves the scheduler's blocked/promote machinery keeps the schedule
//! tree finite.

use cf_obs::sync::{Ordering, ShimAtomicU64, ShimMutex};

use crate::llsync::{LLAtomicBool, LLAtomicU64, LLMutex};
use crate::sched::Model;

/// A critical-section model guarded either by a broken check-then-act
/// flag lock (`buggy: true`) or by the shim's blocking mutex.
pub struct ToyLockModel {
    /// Use the racy flag lock instead of the blocking mutex.
    pub buggy: bool,
    /// Number of contending threads.
    pub threads: usize,
}

/// Shared state of [`ToyLockModel`].
pub struct ToyLockState {
    flag: LLAtomicBool,
    lock: LLMutex<()>,
    /// Threads currently inside the critical section.
    in_cs: LLAtomicU64,
    /// Times more than one thread was observed inside at once.
    violations: LLAtomicU64,
    /// Completed critical sections.
    acquisitions: LLAtomicU64,
}

impl ToyLockState {
    fn critical_section(&self) {
        let inside = self.in_cs.fetch_add(1, Ordering::Relaxed) + 1;
        if inside > 1 {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        // Leave: wrapping add of -1 (the shim exposes no fetch_sub; the
        // counter is only ever compared against small values).
        self.in_cs.fetch_add(u64::MAX, Ordering::Relaxed);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
    }
}

impl Model for ToyLockModel {
    type State = ToyLockState;

    fn name(&self) -> &'static str {
        if self.buggy {
            "toy-lock-buggy"
        } else {
            "toy-lock-fixed"
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn make_state(&self) -> ToyLockState {
        ToyLockState {
            flag: LLAtomicBool::new(false),
            lock: ShimMutex::new(()),
            in_cs: ShimAtomicU64::new(0),
            violations: ShimAtomicU64::new(0),
            acquisitions: ShimAtomicU64::new(0),
        }
    }

    fn run_thread(&self, _tid: usize, st: &ToyLockState) {
        if self.buggy {
            // Check... (yield) ...then act: another thread can pass the
            // check between these two operations.
            while st.flag.load(Ordering::SeqCst) {}
            st.flag.store(true, Ordering::SeqCst);
            st.critical_section();
            st.flag.store(false, Ordering::SeqCst);
        } else {
            let _g = st.lock.lock_recover();
            st.critical_section();
        }
    }

    fn check(&self, st: &ToyLockState) -> Result<(), String> {
        if st.violations.load(Ordering::Relaxed) > 0 {
            return Err(format!(
                "mutual exclusion violated {} time(s)",
                st.violations.load(Ordering::Relaxed)
            ));
        }
        if st.in_cs.load(Ordering::Relaxed) != 0 {
            return Err("a thread never left the critical section".into());
        }
        let acq = st.acquisitions.load(Ordering::Relaxed);
        if acq != self.threads as u64 {
            return Err(format!(
                "expected {} critical sections, saw {acq}",
                self.threads
            ));
        }
        Ok(())
    }

    fn state_hash(&self, st: &ToyLockState) -> Option<u64> {
        // Atomics only (the contract): flag + counters cover all shared
        // state except lock ownership, which the scheduler's progress
        // vector pins for these straight-line bodies.
        let mut h = u64::from(st.flag.load(Ordering::Relaxed));
        h = h
            .wrapping_mul(0x100_0193)
            .wrapping_add(st.in_cs.load(Ordering::Relaxed))
            .wrapping_mul(0x100_0193)
            .wrapping_add(st.violations.load(Ordering::Relaxed))
            .wrapping_mul(0x100_0193)
            .wrapping_add(st.acquisitions.load(Ordering::Relaxed));
        Some(h)
    }
}
