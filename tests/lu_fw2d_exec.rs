//! Acceptance tests for the LU and 2-D Floyd–Warshall compiled drivers: flat
//! and anchored execution against the serial oracles, build-once /
//! execute-many reuse through the shared driver layer, and randomized-shape
//! property tests mirroring `tests/graph_reuse.rs`.

use nd_algorithms::common::{BuiltAlgorithm, Mode};
use nd_algorithms::driver::{self, execute_reuse_rounds, Executor};
use nd_algorithms::exec::ExecContext;
use nd_algorithms::fw2d::{apsp_parallel, build_fw2d};
use nd_algorithms::lu::{assemble_global_pivots, build_lu, lu_parallel};
use nd_exec::{compute_anchoring, AnchorConfig};
use nd_linalg::fw::{floyd_warshall_naive, random_digraph};
use nd_linalg::getrf::{getrf_naive, lu_residual};
use nd_linalg::Matrix;
use nd_pmh::config::PmhConfig;
use nd_pmh::machine::MachineTree;
use nd_runtime::{ExecStats, ThreadPool};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{anchored_executors, flat_executors, machine_layouts, NamedExecutor};

/// The executors every result must agree across, built lazily one at a
/// time: flat pools of 2 and 4 workers, then anchored pools on a one-worker
/// flat machine and on both two-level machines.
fn executors() -> impl Iterator<Item = NamedExecutor> {
    let mut machines = vec![MachineTree::build(&PmhConfig::flat(1, 1 << 14, 10))];
    machines.extend(machine_layouts());
    flat_executors(vec![2, 4]).chain(anchored_executors(machines))
}

/// The default `σ·M_i` anchoring of `built` pins a task at every cache level
/// of both two-level machines, so the anchored runs really are placed (bit
/// identity alone would also hold if every strand ran `Anywhere`).
fn assert_anchors_every_level(built: &BuiltAlgorithm) {
    for (i, machine) in machine_layouts().iter().enumerate() {
        let anchoring =
            compute_anchoring(&built.tree, &built.dag, machine, &AnchorConfig::default());
        assert!(
            anchoring.anchors_per_level.iter().all(|&x| x > 0),
            "{}: machine {i} leaves a cache level without an anchor: {:?}",
            built.label,
            anchoring.anchors_per_level
        );
    }
}

/// Runs `built` (an LU program) on a copy of `a` on `exec`; returns the
/// factors, the global pivots and the run's statistics.
fn lu_on(
    exec: &dyn Executor,
    built: &BuiltAlgorithm,
    a: &Matrix,
    base: usize,
) -> (Matrix, Vec<usize>, ExecStats) {
    let n = a.rows();
    let mut lu = a.clone();
    let ctx = ExecContext::with_pivots(&mut [&mut lu], n);
    let stats = driver::run_once(exec, built, &ctx).expect("run");
    // SAFETY: the execution above has completed; no writer holds the store.
    let piv = unsafe { assemble_global_pivots(&ctx.pivots, n, base) };
    (lu, piv, stats)
}

/// Flat pools of several sizes and anchored pools of several layouts all
/// produce the same LU bits (scheduling must not change results), and the
/// result factors `P·A` to rounding accuracy.
#[test]
fn lu_flat_and_anchored_agree_across_layouts() {
    let n = 64;
    let base = 8;
    let a = Matrix::random(n, n, 7);
    let mut reference = a.clone();
    let reference_piv = lu_parallel(&ThreadPool::new(1), &mut reference, Mode::Nd, base);
    assert!(lu_residual(&reference, &reference_piv, &a) < 1e-10);

    let built = build_lu(n, base, Mode::Nd);
    assert_anchors_every_level(&built);
    for (name, exec) in executors() {
        let (lu, piv, stats) = lu_on(&*exec, &built, &a, base);
        assert_eq!(piv, reference_piv, "{name}");
        assert_eq!(lu.max_abs_diff(&reference), 0.0, "{name}");
        assert_eq!(
            stats.tasks,
            stats.tasks_per_worker.iter().sum::<u64>() as usize,
            "{name}"
        );
    }
}

/// Same for the blocked APSP: every executor produces the 1-worker bits, and
/// those match the textbook Floyd–Warshall to rounding accuracy.
#[test]
fn apsp_flat_and_anchored_agree_across_layouts() {
    let n = 64;
    let base = 8;
    let d0 = random_digraph(n, 3, 11);
    let mut reference = d0.clone();
    apsp_parallel(&ThreadPool::new(1), &mut reference, Mode::Nd, base);
    let mut naive = d0.clone();
    floyd_warshall_naive(&mut naive);
    assert!(reference.max_abs_diff(&naive) < 1e-12);

    assert_anchors_every_level(&build_fw2d(n, base, Mode::Nd));
    for (name, exec) in executors() {
        let mut d = d0.clone();
        apsp_parallel(&*exec, &mut d, Mode::Nd, base);
        assert_eq!(d.max_abs_diff(&reference), 0.0, "{name}");
    }
}

/// One compiled LU graph, executed three times against the same buffers
/// (matrix restored in place between rounds): bit-identical results,
/// counters restored, pivots re-derived each round.
#[test]
fn compiled_lu_reuse_three_rounds() {
    let pool = ThreadPool::new(4);
    let n = 64;
    let base = 16;
    let a0 = Matrix::random(n, n, 21);
    let built = build_lu(n, base, Mode::Nd);
    let mut a = a0.clone();
    let ctx = ExecContext::with_pivots(&mut [&mut a], n);
    let pivots = Arc::clone(&ctx.pivots);
    let (lu, piv) = execute_reuse_rounds(
        &pool,
        &built,
        &ctx,
        &mut a,
        3,
        |a, _| a.as_mut_slice().copy_from_slice(a0.as_slice()),
        // SAFETY: capture runs between executions; no writer is in flight.
        |a, _| {
            (a.clone(), unsafe {
                assemble_global_pivots(&pivots, n, base)
            })
        },
    );
    let mut seq = a0.clone();
    let seq_piv = getrf_naive(&mut seq);
    assert_eq!(piv, seq_piv);
    assert!(lu.max_abs_diff(&seq) < 1e-9);
}

/// One compiled APSP graph, executed three times (distance matrix re-seeded
/// in place between rounds): bit-identical results, counters restored.
#[test]
fn compiled_fw2d_reuse_three_rounds() {
    let pool = ThreadPool::new(4);
    let n = 64;
    let d0 = random_digraph(n, 4, 23);
    let built = build_fw2d(n, 16, Mode::Nd);
    let mut d = d0.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut d]);
    let result = execute_reuse_rounds(
        &pool,
        &built,
        &ctx,
        &mut d,
        3,
        |d, _| d.as_mut_slice().copy_from_slice(d0.as_slice()),
        |d, _| d.clone(),
    );
    let mut naive = d0.clone();
    floyd_warshall_naive(&mut naive);
    assert!(result.max_abs_diff(&naive) < 1e-12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized shapes: for any power-of-two (n, base) pair, parallel LU
    /// reproduces the sequential pivoted factorization.
    #[test]
    fn randomized_shapes_lu_matches_naive(
        seed in 0u64..10_000,
        base_exp in 2u32..5,     // base in {4, 8, 16}
        ratio_exp in 1u32..4,    // n / base in {2, 4, 8}
        workers in 1usize..5,
    ) {
        let base = 1usize << base_exp;
        let n = base << ratio_exp;
        let a = Matrix::random(n, n, seed);
        let mut seq = a.clone();
        let seq_piv = getrf_naive(&mut seq);
        let pool = ThreadPool::new(workers);
        let mut par = a.clone();
        let par_piv = lu_parallel(&pool, &mut par, Mode::Nd, base);
        prop_assert_eq!(par_piv, seq_piv);
        prop_assert!(par.max_abs_diff(&seq) < 1e-9,
            "n={} base={} workers={}: diff {}", n, base, workers, par.max_abs_diff(&seq));
    }

    /// Randomized shapes: for any power-of-two (n, base) pair, parallel APSP
    /// reproduces the textbook Floyd–Warshall distances.
    #[test]
    fn randomized_shapes_apsp_matches_naive(
        seed in 0u64..10_000,
        base_exp in 2u32..5,
        ratio_exp in 1u32..4,
        workers in 1usize..5,
    ) {
        let base = 1usize << base_exp;
        let n = base << ratio_exp;
        let d0 = random_digraph(n, 3, seed);
        let mut naive = d0.clone();
        floyd_warshall_naive(&mut naive);
        let pool = ThreadPool::new(workers);
        let mut d = d0.clone();
        apsp_parallel(&pool, &mut d, Mode::Nd, base);
        prop_assert!(d.max_abs_diff(&naive) < 1e-12,
            "n={} base={} workers={}: diff {}", n, base, workers, d.max_abs_diff(&naive));
    }
}
