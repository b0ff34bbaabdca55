//! Steal-distance sanity at 8 workers (the E21 scaling study's claim in test
//! form): on a synthesized two-level topology — two root clusters of two L1
//! pairs — the anchored executor's steals are **strictly more local** on
//! average than flat ring-order work stealing on the same machine, same
//! algorithm, same inputs.
//!
//! Both pools classify every successful steal by the machine's distance
//! matrix (`steals_by_distance`), so the comparison is a measured property of
//! the schedules, not an assumption.  Steal placement is nondeterministic —
//! counts are accumulated across repetitions until the flat baseline has
//! stolen enough to make the mean meaningful, and the whole experiment
//! retries a few times before declaring failure.

use nd_algorithms::common::Mode;
use nd_algorithms::mm::multiply_parallel;
use nd_exec::pool::flat_topology_with_distances;
use nd_exec::{HierarchicalPool, StealPolicy};
use nd_linalg::Matrix;
use nd_pmh::config::{CacheLevelSpec, PmhConfig};
use nd_pmh::machine::MachineTree;
use nd_runtime::ThreadPool;

/// Two root clusters × two L1 pairs × two cores = 8 workers, three steal
/// distance classes (same-L1 = 0, cross-L1 = 1, cross-cluster = 2).
fn eight_worker_machine() -> MachineTree {
    let machine = MachineTree::build(&PmhConfig::new(
        vec![
            CacheLevelSpec::new(1 << 10, 2, 4),
            CacheLevelSpec::new(1 << 14, 2, 16),
        ],
        2,
    ));
    assert_eq!(machine.processor_count(), 8);
    machine
}

fn accumulate(into: &mut Vec<u64>, delta: &[u64]) {
    if into.len() < delta.len() {
        into.resize(delta.len(), 0);
    }
    for (acc, d) in into.iter_mut().zip(delta) {
        *acc += d;
    }
}

fn total(h: &[u64]) -> u64 {
    h.iter().sum()
}

/// Count-weighted mean distance class of a steal histogram.
fn mean_distance(h: &[u64]) -> f64 {
    let n = total(h);
    assert!(n > 0, "mean distance of an empty histogram");
    h.iter()
        .enumerate()
        .map(|(d, &c)| d as f64 * c as f64)
        .sum::<f64>()
        / n as f64
}

#[test]
fn anchored_steals_are_more_local_than_flat_on_the_two_level_topology() {
    // 4096 leaf multiplies per run: long enough that parked workers get
    // scheduled and steal even on an oversubscribed host, fine-grained enough
    // that every worker touches many strands.
    let n = 256;
    let base = 16;
    let a = Matrix::random(n, n, 31);
    let b = Matrix::random(n, n, 32);
    let machine = eight_worker_machine();

    let mut last: Option<(Vec<u64>, Vec<u64>)> = None;
    for _attempt in 0..3 {
        let mut flat_hist: Vec<u64> = Vec::new();
        let mut anch_hist: Vec<u64> = Vec::new();

        // Fresh pools per attempt; accumulate until the flat baseline has
        // enough steals for a stable mean (cap the repetitions regardless).
        let flat_pool = ThreadPool::with_topology(flat_topology_with_distances(&machine));
        let anch_pool = HierarchicalPool::new(machine.clone(), StealPolicy::NearestFirst);
        let mut reps = 0;
        while reps < 60 {
            let before = flat_pool.steals_by_distance();
            let mut c = Matrix::zeros(n, n);
            multiply_parallel(&flat_pool, &a, &b, &mut c, Mode::Nd, base);
            let after = flat_pool.steals_by_distance();
            let delta: Vec<u64> = after.iter().zip(&before).map(|(x, y)| x - y).collect();
            accumulate(&mut flat_hist, &delta);

            let before = anch_pool.steals_by_distance();
            let mut c = Matrix::zeros(n, n);
            multiply_parallel(&anch_pool, &a, &b, &mut c, Mode::Nd, base);
            let after = anch_pool.steals_by_distance();
            let delta: Vec<u64> = after.iter().zip(&before).map(|(x, y)| x - y).collect();
            accumulate(&mut anch_hist, &delta);

            reps += 1;
            if reps >= 20 && total(&flat_hist) >= 300 {
                break;
            }
        }

        if total(&flat_hist) == 0 {
            // The host never left any worker idle long enough to steal —
            // nothing to compare this attempt.
            last = Some((flat_hist, anch_hist));
            continue;
        }
        let flat_mean = mean_distance(&flat_hist);
        // An anchored run with no steals at all is maximally local.
        let anch_mean = if total(&anch_hist) == 0 {
            0.0
        } else {
            mean_distance(&anch_hist)
        };
        if anch_mean < flat_mean {
            return; // the locality claim holds
        }
        last = Some((flat_hist, anch_hist));
    }
    panic!(
        "anchored steals were not more local than flat ring stealing: \
final histograms flat={:?} anchored={:?}",
        last.as_ref().map(|(f, _)| f),
        last.as_ref().map(|(_, a)| a)
    );
}
