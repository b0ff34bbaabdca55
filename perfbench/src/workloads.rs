//! The batch workloads (`dense`, `anchored`) and the solve-phase
//! machinery `serve` reuses for its direct executions.
//!
//! A *solve* runs every problem of the workload once, from row-major inputs
//! to row-major outputs, on already compiled graphs; it is the unit
//! `solve_ms.p50` times and `error_rate` counts.  A run:
//!
//! 1. sets up `SETUP_REPS` times (pool start + build + bind + anchoring +
//!    compile) and reports the median as `setup_s`;
//! 2. computes the 1-worker reference of every problem (bit-identity oracle
//!    and the single-threaded baseline);
//! 3. solves back to back for `--seconds`, checking every output;
//! 4. traced runs only: splits step 3 into an untraced and a traced half
//!    (`nd_trace::TraceSession` around every execute), then measures the
//!    kernel rates and the empty-task cost, and derives per-layer metrics.

use crate::kernels::{self, KernelRates};
use crate::problems::{Executor, Inputs, Kind, Problem, ProblemSpec, SolveTimes};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, Rng};
use nd_algorithms::driver;
use nd_algorithms::exec::Layout;
use nd_runtime::dataflow::TaskTable;
use nd_runtime::ThreadPool;
use nd_trace::{TraceConfig, TraceSession};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Fewest timed solves a run makes, however long they take.
const MIN_SOLVES: usize = 3;

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Coarse-grained dense linear algebra and APSP on the flat executor.
    Dense,
    /// The same problems under `nd-exec`'s `σ·M_i` anchoring.
    Anchored,
    /// Open-loop two-tenant traffic into `nd-serve`.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Dense, Workload::Anchored, Workload::Serve];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dense => "dense",
            Workload::Anchored => "anchored",
            Workload::Serve => "serve",
        }
    }

    /// Parses a name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Tiny problem sizes for the self-tests.
    pub smoke: bool,
    /// Self-test hook: corrupt one output value after every solve or job
    /// check, which the oracle must count as a failure.
    pub plant_wrong_output: bool,
}

/// The problems of a batch workload.
pub fn batch_specs(w: Workload, smoke: bool) -> Vec<ProblemSpec> {
    use Kind::*;
    let t = Layout::Tiled;
    match (w, smoke) {
        (Workload::Dense | Workload::Anchored, false) => vec![
            ProblemSpec::new(Mm, 2048, 64, t),
            ProblemSpec::new(Lu, 2048, 64, t),
            ProblemSpec::new(Cholesky, 2048, 64, t),
            ProblemSpec::new(Fw2d, 1024, 64, t),
        ],
        (Workload::Dense | Workload::Anchored, true) => vec![
            ProblemSpec::new(Mm, 128, 32, t),
            ProblemSpec::new(Lu, 128, 32, t),
            ProblemSpec::new(Cholesky, 128, 32, t),
            ProblemSpec::new(Fw2d, 64, 16, t),
        ],
        (Workload::Serve, _) => unreachable!("serve has no batch problem list"),
    }
}

/// A seed for one input, derived from the run seed and a salt.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Worker count of every pool: the host's available parallelism.
pub fn workers() -> usize {
    nd_pmh::topology::available_threads()
}

/// An all-empty task table: executing a compiled graph through it times the
/// executor alone.
struct NopTable;

impl TaskTable for NopTable {
    fn run_task(&self, _task: u32) {}
}

/// One timed solve: every problem once.
pub struct SolveSample {
    /// Per-problem times, in problem order.
    pub per: Vec<SolveTimes>,
}

impl SolveSample {
    /// Row-major inputs to row-major outputs, summed over the problems.
    pub fn total_ns(&self) -> u64 {
        self.per.iter().map(SolveTimes::total_ns).sum()
    }
}

/// Totals over the traced executes of a phase.
#[derive(Default)]
pub struct TraceTotals {
    /// Executes traced.
    pub runs: u64,
    /// Σ trace windows (first to last event).
    pub wall_ns: u64,
    /// Σ executor wall time of those executes.
    pub exec_ns: u64,
    /// Σ per-worker busy, idle and stealing time.
    pub busy_ns: u64,
    /// See `busy_ns`.
    pub idle_ns: u64,
    /// See `busy_ns`.
    pub steal_ns: u64,
    /// Σ critical-path lengths by measured span durations.
    pub critical_ns: u64,
    /// Σ tasks.
    pub tasks: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Lowest per-worker busy share seen in any traced execute.
    pub min_worker_busy_share: f64,
}

/// What a phase of back-to-back solves measured.
pub struct Phase {
    /// Successful solves.
    pub samples: Vec<SolveSample>,
    /// Trace totals (empty when the phase ran untraced).
    pub traces: TraceTotals,
    /// Σ steals reported by the executor, and Σ tasks.
    pub steals: u64,
    /// See `steals`.
    pub tasks: u64,
    /// Σ tasks per worker.
    pub tasks_per_worker: Vec<u64>,
    /// Steals per distance class during the phase.
    pub steals_by_distance: Vec<u64>,
}

impl Phase {
    /// Median solve time, milliseconds.
    pub fn solve_ms_p50(&self) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.total_ns() as f64 / 1e6)
            .collect();
        median(&v)
    }

    /// Median over solves of `f` summed over problems, milliseconds.
    pub fn median_ms(&self, f: impl Fn(&SolveTimes) -> u64) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.per.iter().map(&f).sum::<u64>() as f64 / 1e6)
            .collect();
        median(&v)
    }

    /// Median total time of problem `i`, milliseconds.
    pub fn problem_ms(&self, i: usize) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.per[i].total_ns() as f64 / 1e6)
            .collect();
        median(&v)
    }
}

/// Solves back to back for `seconds` (at least `min` attempts), checking
/// every output.  Attempts and failures go into `report`.
#[allow(clippy::too_many_arguments)]
pub fn measure_solves(
    problems: &mut [Problem],
    pool: &ThreadPool,
    seconds: f64,
    min: usize,
    traced: bool,
    plant_wrong_output: bool,
    spans: &mut Spans,
    next_id: &mut u64,
    report: &mut Report,
) -> Phase {
    let max_tasks = problems
        .iter()
        .map(|p| p.compiled.task_count())
        .max()
        .unwrap_or(0);
    let trace_cfg = TraceConfig {
        capacity: (4 * max_tasks).max(nd_trace::DEFAULT_CAPACITY),
    };
    let mut phase = Phase {
        samples: Vec::new(),
        traces: TraceTotals {
            min_worker_busy_share: f64::INFINITY,
            ..TraceTotals::default()
        },
        steals: 0,
        tasks: 0,
        tasks_per_worker: vec![0; pool.num_threads()],
        steals_by_distance: Vec::new(),
    };
    let before = pool.stats();
    let start = Instant::now();
    let mut attempts = 0;
    while start.elapsed().as_secs_f64() < seconds || attempts < min {
        attempts += 1;
        *next_id += 1;
        let id = *next_id;
        spans.time("harness.restore", id, |_| {
            problems.iter_mut().for_each(Problem::restore)
        });
        let mut per = Vec::with_capacity(problems.len());
        for p in problems.iter_mut() {
            let session = traced.then(|| TraceSession::start(pool.tracer(), trace_cfg));
            let result = p.solve(pool, spans, id);
            if let Some(session) = session {
                let trace = spans.time("nd-trace.finish", id, |_| {
                    session.finish_with_meta(driver::trace_meta(&p.built, &p.compiled))
                });
                if let Ok(t) = &result {
                    let tt = &mut phase.traces;
                    let m = &trace.metrics;
                    tt.runs += 1;
                    tt.wall_ns += trace.wall_ns;
                    tt.exec_ns += t.exec_ns;
                    tt.critical_ns += m.critical_path_ns;
                    tt.tasks += t.stats.tasks as u64;
                    tt.dropped += trace.dropped;
                    for w in &m.per_worker {
                        tt.busy_ns += w.busy_ns;
                        tt.idle_ns += w.idle_ns;
                        tt.steal_ns += w.steal_ns;
                        let share = w.busy_ns as f64 / trace.wall_ns.max(1) as f64;
                        tt.min_worker_busy_share = tt.min_worker_busy_share.min(share);
                    }
                }
            }
            match result {
                Ok(t) => per.push(t),
                Err(e) => report.note(format!("solve {id}: {} failed: {e}", p.spec.kind.name())),
            }
        }
        if plant_wrong_output {
            let out = problems[0].mats[0].as_mut_slice();
            out[0] = f64::from_bits(out[0].to_bits() ^ 1);
        }
        let ok = spans.time("harness.verify", id, |_| {
            problems.iter().all(Problem::verify)
        });
        report.attempted += 1;
        if !ok || per.len() != problems.len() {
            report.failed += 1;
            if per.len() == problems.len() {
                report.note(format!("solve {id}: output check failed"));
            }
            continue;
        }
        for t in &per {
            phase.steals += t.stats.steals;
            phase.tasks += t.stats.tasks as u64;
            for (acc, n) in phase
                .tasks_per_worker
                .iter_mut()
                .zip(&t.stats.tasks_per_worker)
            {
                *acc += n;
            }
        }
        phase.samples.push(SolveSample { per });
    }
    phase.steals_by_distance = pool.stats().since(&before).steals_by_distance;
    phase
}

/// What the set-up steps measured.
pub struct SetupRecord {
    /// Total set-up time of each repetition, seconds.
    pub total_s: Vec<f64>,
    /// Σ build time of each repetition, ms.
    pub build_ms: Vec<f64>,
    /// Σ compile time of each repetition, ms.
    pub compile_ms: Vec<f64>,
    /// Σ anchoring time of each repetition, ms.
    pub anchoring_ms: Vec<f64>,
}

/// Computes every problem's 1-worker reference; returns the summed
/// single-threaded solve time in ms.
pub fn compute_references(problems: &mut [Problem], spans: &mut Spans, report: &mut Report) -> f64 {
    let pool1 = spans.time("nd-runtime.pool_start", 0, |_| ThreadPool::new(1));
    let mut p1_ns = 0;
    for p in problems.iter_mut() {
        match spans.time("harness.reference", 0, |s| p.compute_reference(&pool1, s)) {
            Ok(t) => {
                p1_ns += t.total_ns();
                if !p.verify() {
                    report.note(format!(
                        "{}: 1-worker reference fails its residual check",
                        p.spec.kind.name()
                    ));
                }
            }
            Err(e) => report.note(format!(
                "{}: 1-worker reference failed: {e}",
                p.spec.kind.name()
            )),
        }
    }
    p1_ns as f64 / 1e6
}

/// Per-layer metrics derived from solves (every workload has them: `serve`
/// takes them from direct executions of its job specs).
#[allow(clippy::too_many_arguments)]
pub fn solve_layer_metrics(
    report: &mut Report,
    problems: &[Problem],
    setup: &SetupRecord,
    untraced: &Phase,
    traced: &Phase,
    p1_ms: f64,
    rates: &KernelRates,
    empty_task_ns: f64,
    workers: usize,
) {
    let (flops, bytes) = problems
        .iter()
        .map(Problem::op_counts)
        .fold((0.0, 0.0), |(f, b), (pf, pb)| (f + pf, b + pb));
    report.set("nd-linalg.gemm_b64_gflops", rates.gemm_b64_gflops);
    report.set("nd-linalg.trsm_gflops", rates.trsm_gflops);
    report.set("nd-linalg.potrf_gflops", rates.potrf_gflops);
    report.set("nd-linalg.getrf_gflops", rates.getrf_gflops);
    report.set("nd-linalg.fw_gops", rates.fw_gops);
    report.set("nd-linalg.pack_gbs", rates.pack_gbs);
    report.set("nd-linalg.flop_count", flops);
    report.set("nd-linalg.bytes_computed", bytes);
    report.set("nd-linalg.flops_per_byte", flops / bytes.max(1.0));

    report.set("nd-algorithms.build_ms", median(&setup.build_ms));
    report.set("nd-algorithms.compile_ms", median(&setup.compile_ms));
    let tasks: usize = problems.iter().map(|p| p.compiled.task_count()).sum();
    let edges: usize = problems.iter().map(|p| p.compiled.edge_count()).sum();
    report.set("nd-algorithms.tasks", tasks as f64);
    report.set("nd-algorithms.edges", edges as f64);
    let solve_ms = untraced.solve_ms_p50();
    for (kind, ms_name, gflops_name) in [
        (
            Kind::Mm,
            "nd-algorithms.mm_ms",
            Some("nd-algorithms.mm_gflops"),
        ),
        (
            Kind::Lu,
            "nd-algorithms.lu_ms",
            Some("nd-algorithms.lu_gflops"),
        ),
        (
            Kind::Cholesky,
            "nd-algorithms.cholesky_ms",
            Some("nd-algorithms.cholesky_gflops"),
        ),
        (Kind::Fw2d, "nd-algorithms.fw2d_ms", None),
    ] {
        let idx: Vec<usize> = (0..problems.len())
            .filter(|&i| problems[i].spec.kind == kind)
            .collect();
        if idx.is_empty() {
            for name in std::iter::once(ms_name).chain(gflops_name) {
                report.unavailable(name, "the workload has no such problem");
            }
            continue;
        }
        let ms: f64 = idx.iter().map(|&i| untraced.problem_ms(i)).sum();
        report.set(ms_name, ms);
        if let Some(name) = gflops_name {
            let f: f64 = idx.iter().map(|&i| problems[i].op_counts().0).sum();
            report.set(name, f / (ms * 1e6));
        }
    }
    report.set(
        "nd-algorithms.kernel_efficiency",
        (flops / (solve_ms * 1e6)) / (workers as f64 * rates.gemm_b64_gflops),
    );
    report.set("nd-algorithms.bind_ms", untraced.median_ms(|t| t.bind_ns));
    report.set(
        "nd-algorithms.unpack_ms",
        untraced.median_ms(|t| t.unpack_ns),
    );
    report.set("nd-algorithms.p1_solve_ms", p1_ms);
    report.set("nd-algorithms.speedup_vs_p1", p1_ms / solve_ms);

    let exec_ms = untraced.median_ms(|t| t.exec_ns);
    report.set("nd-runtime.exec_ms", exec_ms);
    let tt = &traced.traces;
    if tt.runs == 0 {
        report.note("no traced execute completed".to_string());
    } else {
        let capacity = (workers as u64 * tt.wall_ns).max(1) as f64;
        report.set("nd-runtime.busy_share", tt.busy_ns as f64 / capacity);
        report.set("nd-runtime.idle_share", tt.idle_ns as f64 / capacity);
        report.set("nd-runtime.steal_share", tt.steal_ns as f64 / capacity);
        report.set(
            "nd-runtime.overhead_ns_per_task",
            (workers as f64 * tt.exec_ns as f64 - tt.busy_ns as f64) / tt.tasks.max(1) as f64,
        );
        report.set(
            "nd-runtime.critical_path_share",
            tt.critical_ns as f64 / tt.exec_ns.max(1) as f64,
        );
        if tt.dropped > 0 {
            report.note(format!(
                "nd-trace: {} events lost to ring wraparound; traced shares are partial",
                tt.dropped
            ));
        }
    }
    report.set("nd-runtime.empty_task_ns", empty_task_ns);
    report.set(
        "nd-runtime.steals_per_ktask",
        1000.0 * untraced.steals as f64 / untraced.tasks.max(1) as f64,
    );
    let tpw = &untraced.tasks_per_worker;
    let mean = tpw.iter().sum::<u64>() as f64 / tpw.len().max(1) as f64;
    report.set(
        "nd-runtime.worker_imbalance",
        tpw.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    report.set("nd-trace.overhead_ratio", traced.solve_ms_p50() / solve_ms);
}

/// Median per-task time of the problems' compiled graphs executed through
/// an empty task table, nanoseconds.
pub fn empty_task_ns(problems: &[Problem], pool: &ThreadPool, spans: &mut Spans) -> f64 {
    let table = Arc::new(NopTable);
    spans.time("nd-runtime.empty_task_execute", 0, |_| {
        let per_task: Vec<f64> = (0..3)
            .map(|_| {
                let (mut ns, mut tasks) = (0u128, 0usize);
                for p in problems {
                    let t = Instant::now();
                    // An empty table cannot panic, and no deadline is set.
                    let stats = p
                        .compiled
                        .graph()
                        .execute(pool, &table)
                        .expect("empty tasks");
                    ns += t.elapsed().as_nanos();
                    tasks += stats.tasks;
                }
                ns as f64 / tasks.max(1) as f64
            })
            .collect();
        median(&per_task)
    })
}

/// Runs a batch workload.
pub fn run_batch(cfg: &RunConfig) -> Report {
    let wall = Instant::now();
    let mut spans = Spans::new(cfg.trace);
    let mut report = Report::default();
    let specs = batch_specs(cfg.workload, cfg.smoke);
    let workers = workers();
    let anchored = cfg.workload == Workload::Anchored;

    let mut setup = SetupRecord {
        total_s: Vec::new(),
        build_ms: Vec::new(),
        compile_ms: Vec::new(),
        anchoring_ms: Vec::new(),
    };
    let mut state: Option<(Executor, Vec<Problem>)> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        // Every set-up binds freshly generated inputs, as a first run would.
        let inputs: Vec<Inputs> = spans.time("harness.inputs", 0, |_| {
            specs
                .iter()
                .enumerate()
                .map(|(i, s)| Inputs::generate(s, derive_seed(cfg.seed, i as u64 + 1)))
                .collect()
        });
        let t = Instant::now();
        let exec = spans.time("nd-runtime.pool_start", 0, |_| {
            if anchored {
                Executor::anchored()
            } else {
                Executor::flat(workers)
            }
        });
        let pool_ns = t.elapsed().as_nanos() as u64;
        let problems: Vec<Problem> = specs
            .iter()
            .zip(inputs)
            .enumerate()
            .map(|(i, (s, inp))| {
                Problem::setup(
                    *s,
                    inp,
                    exec.hier(),
                    derive_seed(cfg.seed, 100 + i as u64),
                    &mut spans,
                )
            })
            .collect();
        let sum = |f: fn(&Problem) -> u64| problems.iter().map(f).sum::<u64>() as f64;
        setup
            .total_s
            .push((pool_ns as f64 + sum(|p| p.setup.total_ns())) / 1e9);
        setup.build_ms.push(sum(|p| p.setup.build_ns) / 1e6);
        setup.compile_ms.push(sum(|p| p.setup.compile_ns) / 1e6);
        setup.anchoring_ms.push(sum(|p| p.setup.anchoring_ns) / 1e6);
        state = Some((exec, problems));
    }
    let (exec, mut problems) = state.expect("at least one set-up");
    let pool = exec.pool();

    // Warm-up: faults in the workspace and fills caches and per-worker
    // scratch, so neither the reference nor the timed solves pay for it.
    spans.time("harness.warmup", 0, |s| {
        for p in problems.iter_mut() {
            p.restore();
            let _ = p.solve(pool, s, 0);
        }
    });

    let p1_ms = compute_references(&mut problems, &mut spans, &mut report);

    let mut next_id = 0;
    let (secs, min) = if cfg.trace {
        (cfg.seconds / 2.0, 2)
    } else {
        (cfg.seconds, MIN_SOLVES)
    };
    let untraced = measure_solves(
        &mut problems,
        pool,
        secs,
        min,
        false,
        cfg.plant_wrong_output,
        &mut spans,
        &mut next_id,
        &mut report,
    );

    if !cfg.trace {
        report.set("solve_ms.p50", untraced.solve_ms_p50());
        report.set("setup_s", median(&setup.total_s));
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        return report;
    }

    let traced = measure_solves(
        &mut problems,
        pool,
        secs,
        min,
        true,
        cfg.plant_wrong_output,
        &mut spans,
        &mut next_id,
        &mut report,
    );
    let rates = spans.time("nd-linalg.kernel_rates", 0, |_| kernels::measure());
    let empty_ns = empty_task_ns(&problems, pool, &mut spans);
    solve_layer_metrics(
        &mut report,
        &problems,
        &setup,
        &untraced,
        &traced,
        p1_ms,
        &rates,
        empty_ns,
        workers,
    );

    match exec.hier() {
        Some(_) => {
            report.set("nd-exec.anchoring_ms", median(&setup.anchoring_ms));
            let levels: Vec<u64> =
                problems
                    .iter()
                    .filter_map(|p| p.anchor.as_ref())
                    .fold(Vec::new(), |mut acc, a| {
                        acc.resize(acc.len().max(a.anchors_per_level.len()), 0);
                        for (x, y) in acc.iter_mut().zip(&a.anchors_per_level) {
                            *x += y;
                        }
                        acc
                    });
            let overflow: u64 = problems
                .iter()
                .filter_map(|p| p.anchor.as_ref())
                .map(|a| a.overflow_events)
                .sum();
            report.set("nd-exec.overflow_events", overflow as f64);
            report.set(
                "nd-exec.anchors_l1",
                levels.first().copied().unwrap_or(0) as f64,
            );
            match levels.get(1) {
                Some(&l2) => report.set("nd-exec.anchors_l2", l2 as f64),
                None => {
                    report.unavailable("nd-exec.anchors_l2", "the host tree has one cache level")
                }
            }
            let cross: u64 = untraced.steals_by_distance.iter().skip(1).sum();
            report.set("nd-exec.cross_cluster_steals", cross as f64);
            report.set(
                "nd-exec.min_worker_busy_share",
                traced.traces.min_worker_busy_share,
            );
        }
        None => report.unavailable_all(
            "nd-exec.",
            "nd-exec anchoring runs only on the anchored workload",
        ),
    }
    report.unavailable_all("nd-serve.", "nd-serve runs only on the serve workload");
    report.unavailable_all(
        "harness.gen_late_ms",
        "no load generator: solves run back to back",
    );
    report.set(
        "harness.samples",
        (untraced.samples.len() + traced.samples.len()) as f64,
    );
    finish_spans(&spans, &mut report, cfg, wall);
    report
}

/// Records span coverage and writes the spans out (traced runs).
pub fn finish_spans(spans: &Spans, report: &mut Report, cfg: &RunConfig, wall: Instant) {
    let wall_ns = wall.elapsed().as_nanos() as u64;
    report.set("harness.span_coverage", spans.coverage(wall_ns));
    if cfg.smoke {
        return;
    }
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/{}-seed{}.spans.tsv",
        cfg.workload.name(),
        cfg.seed
    ));
    if let Err(e) = spans.write_tsv(&path) {
        report.note(format!("could not write {}: {e}", path.display()));
    }
    let mut self_times: Vec<(&str, u64)> = spans.self_times().into_iter().collect();
    self_times.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (name, ns) in self_times {
        report.note(format!(
            "span self time {name}: {:.1} ms ({:.1}% of wall)",
            ns as f64 / 1e6,
            100.0 * ns as f64 / wall_ns.max(1) as f64
        ));
    }
}

/// Sleeps until `deadline` (no-op if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}
