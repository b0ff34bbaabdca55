//! The fire-rule frontend versus the access-set oracle, end to end.
//!
//! Two independent constructions of every algorithm's dependency structure
//! must agree:
//!
//! * the **DRS DAG** — the fire-rule frontend unfolds the ND program and the
//!   DAG Rewriting System rewrites its fire arrows
//!   (`nd_algorithms::frontend::build_program`), and
//! * the **access DAG** — the very same recorded block operations replayed in
//!   program order through the read/write-set tracker
//!   (`nd_algorithms::access::access_oracle_dag`).
//!
//! The first suite asserts, for MM, TRS, 1-D Floyd–Warshall and LCS at
//! several block counts, that both DAGs induce the **same precedence
//! relation** over strands: leaves are matched by operation tag and the
//! strand-to-strand transitive closures compared in both directions — a
//! missing pair would be a race, an extra pair an artificial serialisation.
//!
//! The second suite drives the same four fire-rule programs through the three
//! execution paths (one-shot compile, compiled reuse, anchored under
//! `σ·M_i` placement on two machine layouts) and requires every result to be
//! bit-identical to the 1-worker execution of the same kernels.
//!
//! Pool sizes honour `ND_POOL_WORKERS` (the CI pool-size matrix); without it
//! the suite runs 1, 2 and 8 workers.

use nd_algorithms::access::access_oracle_dag;
use nd_algorithms::common::{BuiltAlgorithm, Mode};
use nd_algorithms::driver;
use nd_algorithms::exec::ExecContext;
use nd_algorithms::{fw1d, lcs, mm, trs};
use nd_core::dag::{AlgorithmDag, DagVertex};
use nd_exec::{compute_anchoring, AnchorConfig, HierarchicalPool, StealPolicy};
use nd_linalg::Matrix;
use nd_runtime::ThreadPool;
use std::collections::{BTreeMap, BTreeSet};

mod common;
use common::{machine_layouts, pool_sizes};

/// The strand-to-strand precedence relation of a DAG as a transitive closure,
/// keyed by operation tag (the leaf identity shared by both constructions).
fn strand_closure(dag: &AlgorithmDag) -> BTreeMap<u64, BTreeSet<u64>> {
    let n = dag.vertex_count();
    let tags: Vec<Option<u64>> = dag
        .vertex_ids()
        .map(|v| match dag.vertex(v) {
            DagVertex::Strand { op, .. } => *op,
            DagVertex::Barrier { .. } => None,
        })
        .collect();
    let mut closure = BTreeMap::new();
    for v in dag.vertex_ids() {
        let Some(tag) = tags[v.index()] else {
            continue;
        };
        let mut seen = vec![false; n];
        seen[v.index()] = true;
        let mut stack = vec![v];
        let mut reach = BTreeSet::new();
        while let Some(u) = stack.pop() {
            for s in dag.successors(u) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    if let Some(t) = tags[s.index()] {
                        reach.insert(t);
                    }
                    stack.push(s);
                }
            }
        }
        assert!(
            closure.insert(tag, reach).is_none(),
            "operation tag {tag} appears on two strands"
        );
    }
    closure
}

/// Asserts that the DRS DAG and the access-oracle DAG of one built algorithm
/// induce the same precedence relation over matched strands.
fn assert_drs_matches_access_oracle(built: &BuiltAlgorithm) {
    let oracle = access_oracle_dag(built);
    assert!(oracle.is_acyclic(), "{}: oracle must be a DAG", built.label);
    let drs = strand_closure(&built.dag);
    let acc = strand_closure(&oracle);
    assert_eq!(
        drs.keys().collect::<Vec<_>>(),
        acc.keys().collect::<Vec<_>>(),
        "{}: the two constructions must cover the same strands",
        built.label
    );
    for (tag, drs_reach) in &drs {
        let acc_reach = &acc[tag];
        let missing: Vec<_> = acc_reach.difference(drs_reach).collect();
        assert!(
            missing.is_empty(),
            "{}: strand {tag}: data dependencies MISSING from the DRS DAG \
(a race on real hardware): {missing:?}",
            built.label
        );
        let extra: Vec<_> = drs_reach.difference(acc_reach).collect();
        assert!(
            extra.is_empty(),
            "{}: strand {tag}: the DRS orders strands with no data dependency \
(artificial serialisation): {extra:?}",
            built.label
        );
    }
}

// ---------------------------------------------------------------------------
// Suite 1: precedence equivalence at several block counts.
// ---------------------------------------------------------------------------

#[test]
fn mm_drs_equals_access_oracle() {
    for (n, base) in [(16, 4), (32, 8), (32, 4)] {
        assert_drs_matches_access_oracle(&mm::build_mm(n, base, Mode::Nd, 1.0));
    }
}

#[test]
fn mms_drs_equals_access_oracle() {
    // The multiply-subtract variant TRS embeds.
    assert_drs_matches_access_oracle(&mm::build_mm(32, 8, Mode::Nd, -1.0));
}

#[test]
fn trs_drs_equals_access_oracle() {
    for (n, base) in [(16, 4), (32, 8), (32, 4)] {
        assert_drs_matches_access_oracle(&trs::build_trs(n, base, Mode::Nd));
    }
}

#[test]
fn fw1d_drs_equals_access_oracle() {
    for (n, base) in [(16, 4), (32, 8), (64, 8)] {
        assert_drs_matches_access_oracle(&fw1d::build_fw1d(n, base, Mode::Nd));
    }
}

#[test]
fn lcs_drs_equals_access_oracle() {
    for (n, base) in [(16, 4), (32, 8), (64, 8)] {
        assert_drs_matches_access_oracle(&lcs::build_lcs(n, base, Mode::Nd));
    }
}

// ---------------------------------------------------------------------------
// Suite 2: the same fire-rule programs through compile / reuse / anchored
// execution, bit-identical to the 1-worker execution of the same kernels.
// ---------------------------------------------------------------------------

/// Runs `built` once per pool size (compile path) plus three reuse rounds on
/// each pool, then once on the anchored executor of both machine layouts,
/// re-initialising the bound data in place between runs, and asserts every
/// captured snapshot equals the 1-worker reference.
fn assert_schedule_independent<D, S>(
    built: &BuiltAlgorithm,
    ctx: &ExecContext,
    data: &mut D,
    mut reinit: impl FnMut(&mut D, usize),
    mut capture: impl FnMut(&D, usize) -> S,
) -> S
where
    S: PartialEq + std::fmt::Debug + Clone,
{
    // 1-worker reference through the one-shot compile path.
    reinit(data, 0);
    driver::run_once(&ThreadPool::new(1), built, ctx).expect("run");
    let reference = capture(data, 0);

    for workers in pool_sizes() {
        let pool = ThreadPool::new(workers);
        reinit(data, 0);
        driver::run_once(&pool, built, ctx).expect("run");
        let got = capture(data, 0);
        assert_eq!(
            got, reference,
            "{}: one-shot run on {workers} workers diverged",
            built.label
        );
        // Compiled reuse: the driver harness asserts bit-identical rounds and
        // restored counters internally.
        let got =
            driver::execute_reuse_rounds(&pool, built, ctx, data, 3, &mut reinit, &mut capture);
        assert_eq!(
            got, reference,
            "{}: compiled reuse on {workers} workers diverged",
            built.label
        );
    }

    // Anchored execution on two machine layouts: the same program and
    // context, every strand pinned to its `σ·M_i` anchor subcluster.
    for machine in machine_layouts() {
        let anchoring =
            compute_anchoring(&built.tree, &built.dag, &machine, &AnchorConfig::default());
        assert!(
            anchoring.anchors_per_level.iter().all(|&x| x > 0),
            "{}: every cache level anchors a task",
            built.label
        );
        let pool = HierarchicalPool::new(machine, StealPolicy::NearestFirst);
        reinit(data, 0);
        driver::run_once(&pool, built, ctx).expect("run");
        assert_eq!(
            capture(data, 0),
            reference,
            "{}: anchored run diverged",
            built.label
        );
    }
    reference
}

#[test]
fn mm_fire_program_runs_all_three_paths() {
    let n = 64;
    let built = mm::build_mm(n, 8, Mode::Nd, 1.0);
    let a = Matrix::random(n, n, 21);
    let b = Matrix::random(n, n, 22);
    let mut c = Matrix::zeros(n, n);
    let (mut am, mut bm) = (a.clone(), b.clone());
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let reference = assert_schedule_independent(
        &built,
        &ctx,
        &mut c,
        |c, _| c.as_mut_slice().fill(0.0),
        |c, _| c.clone(),
    );
    let mut expected = Matrix::zeros(n, n);
    nd_linalg::gemm::gemm_naive(&mut expected, &a, &b, 1.0, 0.0);
    assert!(reference.max_abs_diff(&expected) < 1e-9);
}

#[test]
fn trs_fire_program_runs_all_three_paths() {
    let n = 64;
    let built = trs::build_trs(n, 8, Mode::Nd);
    let t = Matrix::random_lower_triangular(n, 23);
    let b0 = Matrix::random(n, n, 24);
    let mut tm = t.clone();
    let mut b = b0.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut tm, &mut b]);
    let reference = assert_schedule_independent(
        &built,
        &ctx,
        &mut b,
        |b, _| b.as_mut_slice().copy_from_slice(b0.as_slice()),
        |b, _| b.clone(),
    );
    let mut expected = b0.clone();
    nd_linalg::trsm::trsm_lower_naive(&t, &mut expected);
    assert!(reference.max_abs_diff(&expected) < 1e-8);
}

#[test]
fn fw1d_fire_program_runs_all_three_paths() {
    let n = 64;
    let built = fw1d::build_fw1d(n, 8, Mode::Nd);
    let initial: Vec<f64> = (0..=n).map(|i| ((i * 5) % 11) as f64).collect();
    let mut table = Matrix::zeros(n + 1, n + 1);
    let ctx = ExecContext::from_matrices(&mut [&mut table]);
    let reinit = |table: &mut Matrix, _round: usize| {
        table.as_mut_slice().fill(0.0);
        for i in 1..=n {
            table[(0, i)] = initial[i];
        }
    };
    let reference = assert_schedule_independent(&built, &ctx, &mut table, reinit, |t, _| t.clone());
    let expected = nd_linalg::fw::fw1d_naive(&initial);
    assert_eq!(reference.max_abs_diff(&expected), 0.0);
}

#[test]
fn lcs_fire_program_runs_all_three_paths() {
    let n = 64;
    let s = nd_linalg::lcs::random_sequence(n, 31);
    let t = nd_linalg::lcs::random_sequence(n, 32);
    let built = lcs::build_lcs(n, 8, Mode::Nd);
    let mut table = Matrix::zeros(n + 1, n + 1);
    let ctx = ExecContext::with_sequences(&mut [&mut table], s.clone(), t.clone());
    let reference = assert_schedule_independent(
        &built,
        &ctx,
        &mut table,
        |table, _| table.as_mut_slice().fill(0.0),
        |table, _| table.clone(),
    );
    assert_eq!(reference[(n, n)] as u64, nd_linalg::lcs::lcs_naive(&s, &t));
}
