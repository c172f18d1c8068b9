//! Wall-clock measurement of the online phase (Fig. 5's metric).

use std::time::{Duration, Instant};

use cf_data::HoldoutCell;
use cf_matrix::Predictor;

/// Predicts every holdout cell once and returns the elapsed wall time.
///
/// This is the paper's "response time" metric: how long the *online*
/// phase takes to serve a whole testset. The offline phase (fitting) is
/// deliberately excluded, matching §V-D.
pub fn time_predictions<P: Predictor + ?Sized>(predictor: &P, holdout: &[HoldoutCell]) -> Duration {
    let start = Instant::now();
    for cell in holdout {
        // The value is consumed through a black box so the optimizer can't
        // hoist or skip predictions.
        std::hint::black_box(predictor.predict(cell.user, cell.item));
    }
    start.elapsed()
}

/// How many rounds [`median_times`] runs. Odd, so the median is one
/// measured round.
pub(crate) const TIMING_ROUNDS: usize = 5;

/// Runs every timed closure once per round, in order, for
/// [`TIMING_ROUNDS`] rounds, and returns each closure's median time in
/// input order.
///
/// One single-shot wall time per method lets a burst of host load that
/// lands on one method decide a comparison. Alternating the methods
/// round by round spreads such bursts over all of them, and the median
/// drops the rounds they hit. Each closure does its own per-round set-up
/// (clearing CFSF's neighbor cache, so every round is a cold serving run)
/// and returns only the time it measured.
pub(crate) fn median_times<const N: usize>(runs: [&dyn Fn() -> Duration; N]) -> [Duration; N] {
    let mut samples = [(); N].map(|()| Vec::with_capacity(TIMING_ROUNDS));
    for _ in 0..TIMING_ROUNDS {
        for (run, times) in runs.iter().zip(&mut samples) {
            times.push(run());
        }
    }
    samples.map(|mut times| {
        times.sort_unstable();
        times[TIMING_ROUNDS / 2]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_matrix::{ItemId, UserId};
    use std::cell::RefCell;

    struct Slow;
    impl Predictor for Slow {
        fn predict(&self, _: UserId, _: ItemId) -> Option<f64> {
            std::hint::black_box((0..2000).map(|x| x as f64).sum::<f64>());
            Some(3.0)
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn time_grows_with_cells() {
        let cell = |i| HoldoutCell {
            user: UserId::new(0),
            item: ItemId::new(i),
            rating: 3.0,
        };
        let small: Vec<_> = (0..50u32).map(cell).collect();
        let large: Vec<_> = (0..5000u32).map(cell).collect();
        let t_small = time_predictions(&Slow, &small);
        let t_large = time_predictions(&Slow, &large);
        assert!(t_large > t_small, "{t_large:?} !> {t_small:?}");
    }

    #[test]
    fn empty_holdout_is_instant() {
        let t = time_predictions(&Slow, &[]);
        assert!(t < Duration::from_millis(50));
    }

    #[test]
    fn median_times_alternates_and_takes_each_median() {
        let calls = RefCell::new(Vec::new());
        // Method `m`'s round `r` takes `[9, 1, 5, 7, 3][r] + 100 m` ms, so
        // its median is `5 + 100 m` ms only if its samples stay its own.
        let timed = |m: u64| {
            let calls = &calls;
            move || {
                let mut calls = calls.borrow_mut();
                let round = calls.iter().filter(|&&c| c == m).count();
                calls.push(m);
                Duration::from_millis([9, 1, 5, 7, 3][round] + 100 * m)
            }
        };
        let (a, b) = (timed(0), timed(1));
        let medians = median_times([&a, &b]);
        assert_eq!(
            medians,
            [Duration::from_millis(5), Duration::from_millis(105)]
        );
        assert_eq!(*calls.borrow(), [0, 1].repeat(TIMING_ROUNDS));
    }
}
