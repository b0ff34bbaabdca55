//! Cross-crate integration tests: the full pipeline from an ND program through the
//! DAG Rewriting System to (a) the analysis metrics, (b) the simulated space-bounded
//! scheduler on a PMH, and (c) real parallel execution on the work-stealing runtime.

use nd_algorithms::cholesky::build_cholesky;
use nd_algorithms::common::Mode;
use nd_algorithms::lcs::build_lcs;
use nd_algorithms::mm::build_mm;
use nd_algorithms::trs::build_trs;
use nd_core::pcc::pcc;
use nd_core::work_span::WorkSpan;
use nd_pmh::config::PmhConfig;
use nd_pmh::machine::MachineTree;
use nd_sched::cost::MissModel;
use nd_sched::space_bounded::{simulate_space_bounded, SbConfig};
use nd_sched::work_stealing::simulate_work_stealing;

/// Every fire-rule algorithm produces an acyclic DAG whose ND span never exceeds the
/// NP span, with identical work and leaves (the model changes dependencies only).
#[test]
fn nd_never_worse_than_np_across_algorithms() {
    type Builder = Box<dyn Fn(Mode) -> nd_algorithms::BuiltAlgorithm>;
    let builders: Vec<(&str, Builder)> = vec![
        ("mm", Box::new(|m| build_mm(64, 8, m, 1.0))),
        ("trs", Box::new(|m| build_trs(64, 8, m))),
        ("cholesky", Box::new(|m| build_cholesky(64, 8, m))),
        ("lcs", Box::new(|m| build_lcs(64, 8, m))),
        (
            "fw1d",
            Box::new(|m| nd_algorithms::fw1d::build_fw1d(64, 8, m)),
        ),
    ];
    for (name, build) in builders {
        let np = build(Mode::Np);
        let nd = build(Mode::Nd);
        assert!(np.dag.is_acyclic(), "{name} NP DAG must be acyclic");
        assert!(nd.dag.is_acyclic(), "{name} ND DAG must be acyclic");
        assert_eq!(
            np.dag.strand_count(),
            nd.dag.strand_count(),
            "{name}: same leaves"
        );
        let ws_np = WorkSpan::of_dag(&np.dag);
        let ws_nd = WorkSpan::of_dag(&nd.dag);
        assert_eq!(ws_np.work, ws_nd.work, "{name}: same work");
        assert!(
            ws_nd.span <= ws_np.span,
            "{name}: ND span {} must not exceed NP span {}",
            ws_nd.span,
            ws_np.span
        );
    }
}

/// Theorem 1 (integration level): for every algorithm and every cache level of a
/// 3-level PMH, the misses charged by the space-bounded scheduler stay below the
/// parallel cache complexity Q*(t; σ·M_j).
#[test]
fn space_bounded_misses_respect_pcc_bound() {
    let config = PmhConfig::experiment_machine(2);
    let machine = MachineTree::build(&config);
    let sb_cfg = SbConfig::default();
    for (name, built) in [
        ("trs", build_trs(128, 8, Mode::Nd)),
        ("lcs", build_lcs(128, 8, Mode::Nd)),
        ("cholesky", build_cholesky(128, 8, Mode::Nd)),
    ] {
        let stats = simulate_space_bounded(&built.tree, &built.dag, &machine, &sb_cfg);
        assert_eq!(
            stats.strands,
            built.dag.strand_count(),
            "{name}: all strands run"
        );
        for (li, misses) in stats.misses_per_level.iter().enumerate() {
            let threshold = (sb_cfg.sigma * config.size(li + 1) as f64) as u64;
            let bound = pcc(&built.tree, built.tree.root(), threshold) as f64;
            assert!(
                *misses <= bound + 1e-6,
                "{name}: level {} misses {} exceed Q* {}",
                li + 1,
                misses,
                bound
            );
        }
    }
}

/// Theorem 3 (integration level, qualitative): on the same machine, the ND version
/// of TRS completes no later than the NP version under the space-bounded scheduler,
/// and the gap grows with the machine size.
#[test]
fn nd_scales_better_under_space_bounded_scheduling() {
    let sb_cfg = SbConfig::default();
    let np = build_trs(128, 8, Mode::Np);
    let nd = build_trs(128, 8, Mode::Nd);
    let mut ratios = Vec::new();
    for subclusters in [1usize, 4] {
        let config = PmhConfig::experiment_machine(subclusters);
        let machine = MachineTree::build(&config);
        let t_np = simulate_space_bounded(&np.tree, &np.dag, &machine, &sb_cfg);
        let t_nd = simulate_space_bounded(&nd.tree, &nd.dag, &machine, &sb_cfg);
        assert!(
            t_nd.completion_time <= t_np.completion_time * 1.05,
            "ND must not be meaningfully slower (p = {})",
            config.num_processors()
        );
        ratios.push(t_np.completion_time / t_nd.completion_time);
    }
    assert!(
        ratios[1] >= ratios[0] * 0.95,
        "the ND advantage should not shrink as the machine grows: {ratios:?}"
    );
}

/// The work-stealing baseline loses locality (PerStrand model) relative to the
/// space-bounded scheduler at every shared cache level.
#[test]
fn work_stealing_charges_more_misses_than_space_bounded() {
    let config = PmhConfig::experiment_machine(2);
    let machine = MachineTree::build(&config);
    let built = build_trs(128, 16, Mode::Nd);
    let sb = simulate_space_bounded(&built.tree, &built.dag, &machine, &SbConfig::default());
    let ws = simulate_work_stealing(
        &built.tree,
        &built.dag,
        &config,
        config.num_processors(),
        1.0 / 3.0,
        MissModel::PerStrand,
    );
    for l in 0..config.cache_levels() {
        assert!(
            ws.misses_per_level[l] >= sb.misses_per_level[l],
            "level {l}: ws {} < sb {}",
            ws.misses_per_level[l],
            sb.misses_per_level[l]
        );
    }
}

/// The hierarchy-aware executor end to end: factor and solve a linear system
/// with every kernel anchored to the subclusters of a two-layout machine sweep,
/// and check the anchored results agree bit-for-bit with the flat executor's
/// (both run the same deterministic DAG, so any divergence is a routing bug).
#[test]
fn anchored_executor_matches_flat_executor_across_layouts() {
    use nd_algorithms::cholesky::cholesky_parallel;
    use nd_algorithms::trs::solve_parallel;
    use nd_exec::{compute_anchoring, AnchorConfig, HierarchicalPool, StealPolicy};
    use nd_linalg::Matrix;
    use nd_runtime::ThreadPool;

    let n = 64;
    let a = Matrix::random_spd(n, 21);
    let b = Matrix::random(n, n, 22);

    // Flat reference run.
    let flat = ThreadPool::new(4);
    let mut l_flat = a.clone();
    cholesky_parallel(&flat, &mut l_flat, Mode::Nd, 8);
    let mut x_flat = b.clone();
    solve_parallel(&flat, &l_flat, &mut x_flat, Mode::Nd, 8);

    for subclusters in [1usize, 2] {
        let machine = MachineTree::build(&PmhConfig::experiment_machine(subclusters));
        let pool = HierarchicalPool::new(machine, StealPolicy::NearestFirst);
        let built = build_cholesky(n, 8, Mode::Nd);
        let anchoring = compute_anchoring(
            &built.tree,
            &built.dag,
            pool.machine(),
            &AnchorConfig::default(),
        );
        assert!(anchoring.anchors_per_level.iter().all(|&c| c > 0));
        let mut l = a.clone();
        cholesky_parallel(&pool, &mut l, Mode::Nd, 8);
        assert_eq!(
            l.max_abs_diff(&l_flat),
            0.0,
            "factor must match bit-for-bit"
        );
        let mut x = b.clone();
        solve_parallel(&pool, &l, &mut x, Mode::Nd, 8);
        assert_eq!(x.max_abs_diff(&x_flat), 0.0, "solve must match bit-for-bit");
    }
}

/// Full numerical pipeline on the real runtime: factor, solve and verify a linear
/// system end to end using only ND parallel kernels.
#[test]
fn real_runtime_cholesky_then_trs_solves_a_system() {
    use nd_algorithms::cholesky::cholesky_parallel;
    use nd_algorithms::trs::solve_parallel;
    use nd_linalg::Matrix;
    use nd_runtime::ThreadPool;

    let pool = ThreadPool::new(4);
    let n = 128;
    let a = Matrix::random_spd(n, 3);
    let x_true = Matrix::random(n, n, 4);
    let b = a.matmul(&x_true);

    // Factor A = L·Lᵀ with the ND Cholesky.
    let mut l = a.clone();
    cholesky_parallel(&pool, &mut l, Mode::Nd, 16);

    // Solve L·Y = B with the ND TRS, then Lᵀ·X = Y sequentially (upper solve).
    let mut y = b.clone();
    solve_parallel(&pool, &l, &mut y, Mode::Nd, 16);
    let lt = l.transpose();
    let mut x = y.clone();
    // Back substitution for the upper-triangular system.
    for j in 0..n {
        for i in (0..n).rev() {
            let mut acc = x[(i, j)];
            for k in (i + 1)..n {
                acc -= lt[(i, k)] * x[(k, j)];
            }
            x[(i, j)] = acc / lt[(i, i)];
        }
    }
    let rel = x.max_abs_diff(&x_true) / x_true.frobenius_norm();
    assert!(rel < 1e-6, "relative error {rel} too large");
}
