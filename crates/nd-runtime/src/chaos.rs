//! nd-chaos: a seeded, deterministic fault-injection harness for the
//! executor (compiled only with the `chaos` cargo feature).
//!
//! The robustness layer of this runtime claims that a run always completes
//! (or returns a typed [`RunError`](crate::fault::RunError)) however its
//! workers are scheduled.  This module exists to *attack* the scheduling
//! half of that claim on purpose: a [`FaultPlan`] names concrete pool
//! faults — delay worker `w` by `d` at its `s`-th unit, fail the `n`-th
//! deque-steal attempt — and the pool injects them at the same cfg-point
//! pattern the tracer uses, so the chaos property tests can sweep injected
//! perturbations across the worker matrix and prove the scheduler
//! invariants (exactly-once execution, no lost wakeup, eventual completion)
//! survive.  Strand panics need no pool hook and no feature: they are
//! injected per run by the [`PanicAt`](crate::fault::PanicAt) table wrapper.
//!
//! Determinism: a plan is plain data, each fault fires **at most once**
//! (one-shot consumption, so a recovery re-run on the same pool is clean
//! without reinstalling anything), and [`FaultPlan::seeded`] derives a plan
//! from a seed with a splitmix64 generator — the same seed always names the
//! same fault.  *When* a fault fires still depends on the actual
//! interleaving (the n-th steal attempt is whichever worker gets there), but
//! what is injected never does.
//!
//! Cost: with the feature compiled in but no plan armed, every injection
//! site is one relaxed atomic load (the same budget as a disabled tracer —
//! bounded in CI by the `sched_overhead` probe); building without the
//! feature removes the sites entirely.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A scheduled delay of one worker: before running its `at_step`-th unit
/// (0-based, counted per worker since the plan was armed), the worker sleeps
/// for `delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerDelay {
    /// The worker to delay.
    pub worker: usize,
    /// Which of the worker's units to delay (0 = its next unit).
    pub at_step: u64,
    /// How long to sleep.
    pub delay: Duration,
}

/// A deterministic set of faults for the pool to inject (see the module
/// docs).  Install with `ThreadPool::install_fault_plan`; every listed fault
/// fires at most once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Worker delays (scheduling perturbation; never an error).
    pub delays: Vec<WorkerDelay>,
    /// 1-based ordinals of deque-steal attempts to fail: the `n`-th time any
    /// worker tries to steal from a victim's deque, the attempt reports
    /// empty-handed instead of stealing.
    pub fail_steals: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a delay of `worker` by `delay` before its `at_step`-th unit.
    pub fn delay_worker(mut self, worker: usize, at_step: u64, delay: Duration) -> Self {
        self.delays.push(WorkerDelay {
            worker,
            at_step,
            delay,
        });
        self
    }

    /// Adds a failure of the `nth` (1-based) deque-steal attempt.
    pub fn fail_steal(mut self, nth: u64) -> Self {
        self.fail_steals.push(nth);
        self
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty() && self.fail_steals.is_empty()
    }

    /// Derives one deterministic fault for a pool of `num_workers` workers:
    /// seeds alternate between the two fault kinds, and the fault's
    /// coordinates (which worker/step, which steal ordinal) are drawn from
    /// splitmix64 — the same seed always produces the same plan.  The sweep
    /// tests iterate seeds to cover the fault space.
    pub fn seeded(seed: u64, num_workers: usize) -> Self {
        let mut s = SplitMix64::new(seed);
        match seed % 2 {
            0 => {
                let worker = (s.next() % num_workers.max(1) as u64) as usize;
                let at_step = s.next() % 8;
                let delay = Duration::from_micros(200 + s.next() % 800);
                FaultPlan::new().delay_worker(worker, at_step, delay)
            }
            _ => FaultPlan::new().fail_steal(1 + s.next() % 16),
        }
    }
}

/// Deterministic 64-bit generator used by [`FaultPlan::seeded`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Counts of faults the armed plan has actually injected so far (see
/// `ThreadPool::chaos_stats`); the sweep tests assert every planned fault
/// fired (or could not fire, e.g. a steal ordinal never reached on one
/// worker).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Worker delays injected.
    pub delays_injected: u64,
    /// Deque-steal attempts failed.
    pub steals_failed: u64,
    /// Total deque-steal attempts observed while the plan was armed.
    pub steal_attempts: u64,
}

/// The armed form of a [`FaultPlan`]: per-fault one-shot flags plus the
/// counters the injection sites consult.  Owned by the pool's shared state.
pub(crate) struct ChaosState {
    delays: Vec<(WorkerDelay, AtomicBool)>,
    fail_steals: Vec<(u64, AtomicBool)>,
    steal_attempts: AtomicU64,
    worker_steps: Vec<AtomicU64>,
    delays_injected: AtomicU64,
    steals_failed: AtomicU64,
}

impl ChaosState {
    pub(crate) fn new(plan: FaultPlan, num_workers: usize) -> Self {
        ChaosState {
            delays: plan
                .delays
                .into_iter()
                .map(|d| (d, AtomicBool::new(false)))
                .collect(),
            fail_steals: plan
                .fail_steals
                .into_iter()
                .map(|n| (n, AtomicBool::new(false)))
                .collect(),
            steal_attempts: AtomicU64::new(0),
            worker_steps: (0..num_workers).map(|_| AtomicU64::new(0)).collect(),
            delays_injected: AtomicU64::new(0),
            steals_failed: AtomicU64::new(0),
        }
    }

    /// Called by `worker` before running a unit; sleeps if a delay matches
    /// the worker's current step.
    pub(crate) fn on_unit(&self, worker: usize) {
        let step = self.worker_steps[worker].fetch_add(1, Ordering::Relaxed);
        for (d, consumed) in &self.delays {
            if d.worker == worker && d.at_step == step && !consumed.swap(true, Ordering::Relaxed) {
                self.delays_injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d.delay);
            }
        }
    }

    /// Called per deque-steal attempt; `true` if the attempt must report
    /// empty-handed.
    pub(crate) fn fail_next_steal(&self) -> bool {
        let ordinal = self.steal_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        for (n, consumed) in &self.fail_steals {
            if *n == ordinal && !consumed.swap(true, Ordering::Relaxed) {
                self.steals_failed.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    pub(crate) fn stats(&self) -> ChaosStats {
        ChaosStats {
            delays_injected: self.delays_injected.load(Ordering::Relaxed),
            steals_failed: self.steals_failed.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_cycle_kinds() {
        for seed in 0..12u64 {
            let a = FaultPlan::seeded(seed, 4);
            let b = FaultPlan::seeded(seed, 4);
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert!(!a.is_empty());
            match seed % 2 {
                0 => assert_eq!(a.delays.len(), 1),
                _ => assert_eq!(a.fail_steals.len(), 1),
            }
        }
    }

    #[test]
    fn steal_failures_hit_their_ordinal_exactly() {
        let state = ChaosState::new(FaultPlan::new().fail_steal(2), 1);
        assert!(!state.fail_next_steal()); // attempt 1
        assert!(state.fail_next_steal()); // attempt 2: the planned failure
        assert!(!state.fail_next_steal()); // attempt 3
        let s = state.stats();
        assert_eq!((s.steals_failed, s.steal_attempts), (1, 3));
    }

    #[test]
    fn delays_consume_on_the_named_step() {
        let state = ChaosState::new(
            FaultPlan::new().delay_worker(1, 1, Duration::from_millis(1)),
            2,
        );
        state.on_unit(0); // worker 0 step 0: no match
        state.on_unit(1); // worker 1 step 0: no match
        state.on_unit(1); // worker 1 step 1: sleeps
        assert_eq!(state.stats().delays_injected, 1);
    }
}
