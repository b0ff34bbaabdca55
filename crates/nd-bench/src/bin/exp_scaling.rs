//! E21: the multicore scaling study — strong and weak scaling of MM, LU and
//! 2-D Floyd–Warshall at 1, 2 and 8 workers, flat work stealing versus the
//! `σ·M_i`-anchored executor, with per-configuration steal-distance histograms
//! and busy/steal/idle breakdowns from one traced repetition — plus the
//! SIMD microkernel section: the packed GEMM base case timed in-process with
//! the scalar oracle and the AVX2+FMA kernel (the `simd` section), and the
//! host CPU feature metadata the numbers were produced under (`cpu`).
//!
//! Worker counts come from *synthesized* two-level PMH machines, not host
//! detection, so the study is reproducible anywhere: p = 1 (one core under
//! one cache path), p = 2 (two cores sharing an L1-level cache), p = 8 (two
//! root clusters of two L1 pairs — three steal-distance classes).  On hosts
//! with fewer physical cores than p the runs are oversubscribed; the
//! `host_parallelism` / `oversubscribed` fields record this so the scaling
//! curves are read honestly.
//!
//! * **strong** scaling holds the problem at `n × n` while p grows;
//! * **weak** scaling grows the problem as `n_p = n₁ · p^{1/3}` (cubic-work
//!   algorithms: the work per worker stays constant, the ideal curve is a
//!   flat wall-clock line).
//!
//! Timing repetitions run untraced (tracing off is the measured
//! configuration); one extra traced repetition per configuration yields the
//! steal-distance histogram and the per-worker busy/steal/idle split.  The
//! three sections are spliced into `BENCH_exec.json` after `exp_exec`'s
//! sections (run `exp_exec` first; this binary preserves its output and
//! replaces only the `scaling` / `simd` / `cpu` tail).
//!
//! Usage: `cargo run --release --bin exp_scaling -- [n] [reps]`
//! (default 256, 3).

use nd_algorithms::common::{BuiltAlgorithm, Mode};
use nd_algorithms::driver::{self, Executor};
use nd_algorithms::exec::ExecContext;
use nd_algorithms::fw2d::{apsp_parallel, build_fw2d};
use nd_algorithms::lu::{build_lu, lu_parallel};
use nd_algorithms::mm::{build_mm, multiply_parallel};
use nd_bench::EXECUTORS;
use nd_linalg::fw::random_digraph;
use nd_linalg::gemm::{gemm_block_packed, gemm_pack_len};
use nd_linalg::simd;
use nd_linalg::Matrix;
use nd_pmh::config::{CacheLevelSpec, PmhConfig};
use nd_pmh::machine::MachineTree;
use nd_runtime::pool::with_pack_scratch;
use nd_trace::Trace;
use std::fmt::Write as _;
use std::time::Instant;

/// The worker counts of the study (fixed by the synthesized machines below).
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A synthesized two-level PMH with exactly `p` processors.  All three
/// machines share the same level sizes, so the anchoring decomposition sees
/// the same cache capacities and only the parallelism changes:
///
/// * `p = 1` — one core, one cache path (the serial baseline);
/// * `p = 2` — two cores under one shared L1-level cache;
/// * `p = 8` — two root clusters × two L1 pairs × two cores: steals have
///   three distance classes (same-L1, cross-L1, cross-cluster).
fn scaling_machine(p: usize) -> MachineTree {
    let cfg = match p {
        1 => PmhConfig::new(
            vec![
                CacheLevelSpec::new(1 << 10, 1, 4),
                CacheLevelSpec::new(1 << 14, 1, 16),
            ],
            1,
        ),
        2 => PmhConfig::new(
            vec![
                CacheLevelSpec::new(1 << 10, 2, 4),
                CacheLevelSpec::new(1 << 14, 1, 16),
            ],
            1,
        ),
        8 => PmhConfig::new(
            vec![
                CacheLevelSpec::new(1 << 10, 2, 4),
                CacheLevelSpec::new(1 << 14, 2, 16),
            ],
            2,
        ),
        _ => panic!("no synthesized machine for p = {p}"),
    };
    let machine = MachineTree::build(&cfg);
    assert_eq!(machine.processor_count(), p);
    machine
}

/// Weak-scaling problem size: `n₁ · p^{1/3}` rounded to a multiple of 16
/// (cubic-work algorithms — constant work per worker; the rounding keeps
/// enough factors of two for [`base_for`] to find a power-of-two split).
fn weak_n(n1: usize, p: usize) -> usize {
    let raw = (n1 as f64) * (p as f64).cbrt();
    ((raw / 16.0).round() as usize).max(1) * 16
}

/// Base-case size for a problem of size `n`: halve until ≤ 32 (the recursive
/// builders require `n / base` to be a power of two).
fn base_for(n: usize) -> usize {
    let mut b = n;
    while b > 32 && b.is_multiple_of(2) {
        b /= 2;
    }
    b
}

fn time_reps(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        let dt = start.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    (best, total / reps as f64)
}

fn u64_list(values: impl Iterator<Item = u64>) -> String {
    let mut out = String::from("[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// The compact per-configuration trace summary: where the workers' time went
/// and how far their steals travelled.
fn trace_summary_json(trace: &Trace) -> String {
    let m = &trace.metrics;
    let busy: u64 = m.per_worker.iter().map(|w| w.busy_ns).sum();
    let steal: u64 = m.per_worker.iter().map(|w| w.steal_ns).sum();
    let idle: u64 = m.per_worker.iter().map(|w| w.idle_ns).sum();
    format!(
        "{{\"steals\":{},\"steal_distance_histogram\":{},\"busy_ns\":{},\
\"steal_ns\":{},\"idle_ns\":{}}}",
        m.steals,
        u64_list(m.steal_distance_histogram.iter().copied()),
        busy,
        steal,
        idle
    )
}

/// Steals that crossed a level-1 cluster boundary (distance class ≥ 1).
fn cross_steals(by_distance: &[u64]) -> u64 {
    by_distance.iter().skip(1).sum()
}

struct ScalingEntry {
    mode: &'static str,
    algorithm: &'static str,
    executor: &'static str,
    workers: usize,
    n: usize,
    best_seconds: f64,
    mean_seconds: f64,
    total_steals: u64,
    cross_cluster_steals: u64,
    /// `best_seconds(p = 1) / best_seconds(p)` within the same
    /// (mode, algorithm, executor) series.  For strong scaling this is the
    /// speedup (ideal: p); for weak scaling it is the scaled efficiency
    /// (ideal: 1.0) because the work grows with p.
    rel_vs_p1: f64,
    trace_json: String,
}

impl ScalingEntry {
    fn json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"algorithm\":\"{}\",\"executor\":\"{}\",\
\"workers\":{},\"n\":{},\"best_seconds\":{:.6},\"mean_seconds\":{:.6},\
\"rel_vs_p1\":{:.3},\"total_steals\":{},\"cross_cluster_steals\":{},\
\"trace\":{}}}",
            self.mode,
            self.algorithm,
            self.executor,
            self.workers,
            self.n,
            self.best_seconds,
            self.mean_seconds,
            self.rel_vs_p1,
            self.total_steals,
            self.cross_cluster_steals,
            self.trace_json
        )
    }
}

/// The three algorithms of the study and everything needed to run and trace
/// them at one problem size.
#[derive(Clone, Copy)]
enum Alg {
    Mm,
    Lu,
    Fw2d,
}

impl Alg {
    fn name(self) -> &'static str {
        match self {
            Alg::Mm => "mm",
            Alg::Lu => "lu",
            Alg::Fw2d => "fw2d",
        }
    }

    fn build(self, n: usize, base: usize) -> BuiltAlgorithm {
        match self {
            Alg::Mm => build_mm(n, base, Mode::Nd, 1.0),
            Alg::Lu => build_lu(n, base, Mode::Nd),
            Alg::Fw2d => build_fw2d(n, base, Mode::Nd),
        }
    }
}

/// The per-size input set (regenerated for every weak-scaling size; the
/// seeds match `exp_exec` so strong-scaling numbers are comparable).
struct Inputs {
    a: Matrix,
    b: Matrix,
    lua: Matrix,
    d0: Matrix,
}

impl Inputs {
    fn generate(n: usize) -> Self {
        Inputs {
            a: Matrix::random(n, n, 1),
            b: Matrix::random(n, n, 2),
            lua: Matrix::random(n, n, 5),
            d0: random_digraph(n, 4, 6),
        }
    }
}

/// One configuration measured on one executor: `reps` timed untraced
/// repetitions, then one traced repetition for the histogram and the
/// busy/steal/idle split.  A failed traced run aborts the study rather than
/// publishing the trace of a half-executed graph.
fn measure(
    exec: &dyn Executor,
    alg: Alg,
    inputs: &Inputs,
    n: usize,
    base: usize,
    reps: usize,
) -> (f64, f64, u64, u64, String) {
    let before = exec.pool().steals_by_distance();
    let (best, mean) = time_reps(reps, || match alg {
        Alg::Mm => {
            let mut c = Matrix::zeros(n, n);
            multiply_parallel(exec, &inputs.a, &inputs.b, &mut c, Mode::Nd, base);
            std::hint::black_box(&c);
        }
        Alg::Lu => {
            let mut a = inputs.lua.clone();
            lu_parallel(exec, &mut a, Mode::Nd, base);
            std::hint::black_box(&a);
        }
        Alg::Fw2d => {
            let mut d = inputs.d0.clone();
            apsp_parallel(exec, &mut d, Mode::Nd, base);
            std::hint::black_box(&d);
        }
    });
    let after = exec.pool().steals_by_distance();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();

    let built = alg.build(n, base);
    let traced = |ctx: &ExecContext| {
        let (stats, trace) = driver::run_once_traced(exec, &built, ctx);
        if let Err(e) = stats {
            panic!("traced {} run failed: {e}", alg.name());
        }
        trace
    };
    let trace = match alg {
        Alg::Mm => {
            let mut c = Matrix::zeros(n, n);
            let mut am = inputs.a.clone();
            let mut bm = inputs.b.clone();
            traced(&ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]))
        }
        Alg::Lu => {
            let mut a = inputs.lua.clone();
            traced(&ExecContext::with_pivots(&mut [&mut a], n))
        }
        Alg::Fw2d => {
            let mut d = inputs.d0.clone();
            traced(&ExecContext::from_matrices(&mut [&mut d]))
        }
    };
    (
        best,
        mean,
        delta.iter().sum(),
        cross_steals(&delta),
        trace_summary_json(&trace),
    )
}

/// The `simd` section: the packed GEMM base case timed in-process under the
/// scalar oracle (`force_scalar(true)`) and under the ambient dispatch
/// (`force_scalar(false)` — the AVX2+FMA kernel where detected, unless
/// `ND_FORCE_SCALAR` pins the process to scalar).  Same sweep, same packing,
/// same op order on both sides; interleaved warm-up so neither side pays the
/// cold caches.
struct SimdGemmBench {
    b: usize,
    sweep_n: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
    speedup: f64,
}

impl SimdGemmBench {
    fn json(&self) -> String {
        format!(
            "{{\"b\":{},\"sweep_n\":{},\"scalar_gflops\":{:.2},\
\"simd_gflops\":{:.2},\"speedup\":{:.3}}}",
            self.b, self.sweep_n, self.scalar_gflops, self.simd_gflops, self.speedup
        )
    }
}

fn bench_simd_gemm(b: usize, reps: usize) -> SimdGemmBench {
    let reps = reps.max(3);
    let sweep_n = 8 * b;
    let g = sweep_n / b;
    let a = Matrix::random(sweep_n, sweep_n, 91);
    let bm = Matrix::random(sweep_n, sweep_n, 92);
    let mut am = a.clone();
    let mut bmm = bm.clone();
    let mut c = Matrix::zeros(sweep_n, sweep_n);
    let flops = 2.0 * (sweep_n as f64).powi(3);

    let mut sweep = || {
        let (cv, av, bv) = (c.as_ptr_view(), am.as_ptr_view(), bmm.as_ptr_view());
        with_pack_scratch(gemm_pack_len(b, b, b), |scratch| {
            for bi in 0..g {
                for bj in 0..g {
                    for bk in 0..g {
                        // SAFETY: single-threaded sweep on disjoint C tiles;
                        // scratch is this thread's arena.
                        unsafe {
                            gemm_block_packed(
                                cv.block(bi * b, bj * b, b, b),
                                av.block(bi * b, bk * b, b, b),
                                bv.block(bk * b, bj * b, b, b),
                                1.0,
                                scratch,
                            );
                        }
                    }
                }
            }
        });
    };

    // Scalar oracle first, ambient dispatch second, one warm-up sweep each.
    simd::force_scalar(true);
    sweep();
    let (scalar_best, _) = time_reps(reps, &mut sweep);
    simd::force_scalar(false);
    sweep();
    let (simd_best, _) = time_reps(reps, &mut sweep);
    std::hint::black_box(&c);

    SimdGemmBench {
        b,
        sweep_n,
        scalar_gflops: flops / scalar_best / 1e9,
        simd_gflops: flops / simd_best / 1e9,
        speedup: scalar_best / simd_best,
    }
}

/// The `cpu` metadata section: what the numbers in this file were produced
/// on and which kernel path the process resolved.
fn cpu_json() -> String {
    let line =
        std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(64);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"arch\":\"{}\",\"avx2_fma\":{},\"cache_line_bytes\":{},\"cores\":{},\
\"kernel\":\"{}\",\"simd_active\":{},\"forced_scalar_env\":{}}}",
        std::env::consts::ARCH,
        simd::detected_avx2_fma(),
        line,
        cores,
        simd::kernel_name(),
        simd::simd_active(),
        std::env::var("ND_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    )
}

/// Splices the `scaling` / `simd` / `cpu` sections onto `exp_exec`'s
/// `BENCH_exec.json` (or a fresh skeleton when it does not exist), replacing
/// any previous run of this binary.
fn splice_sections(scaling: &str, simd_sec: &str, cpu: &str) {
    let base = std::fs::read_to_string("BENCH_exec.json")
        .unwrap_or_else(|_| String::from("{\n  \"experiment\": \"exp_exec\"\n}\n"));
    let head = match base.find(",\n  \"scaling\":") {
        Some(i) => base[..i].to_string(),
        None => {
            let t = base.trim_end();
            let t = t
                .strip_suffix('}')
                .expect("BENCH_exec.json is not a JSON object");
            t.trim_end().to_string()
        }
    };
    let file = format!(
        "{head},\n  \"scaling\": {scaling},\n  \"simd\": {simd_sec},\n  \"cpu\": {cpu}\n}}\n"
    );
    std::fs::write("BENCH_exec.json", &file).expect("failed to write BENCH_exec.json");
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let host_parallelism = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let oversubscribed = host_parallelism < *WORKER_COUNTS.iter().max().unwrap();
    eprintln!(
        "exp_scaling: n = {n}, reps = {reps}, workers {WORKER_COUNTS:?}, \
host parallelism {host_parallelism} (oversubscribed: {oversubscribed}), \
kernel {}",
        simd::kernel_name()
    );

    // ------------------------------------------------- SIMD section ----
    // Runs first and restores ambient dispatch, so every scaling run below
    // uses the process's resolved kernel path.
    let mut simd_rows = Vec::new();
    for b in [32usize, 64] {
        let bench = bench_simd_gemm(b, reps);
        eprintln!(
            "exp_scaling: simd gemm b={b}: scalar {:.2} GFLOP/s, simd {:.2} GFLOP/s ({:.2}x)",
            bench.scalar_gflops, bench.simd_gflops, bench.speedup
        );
        simd_rows.push(bench.json());
    }
    let simd_section = format!(
        "{{\n    \"kernel\": \"{}\",\n    \"active\": {},\n    \"gemm\": [\n      {}\n    ]\n  }}",
        simd::kernel_name(),
        simd::simd_active(),
        simd_rows.join(",\n      ")
    );
    for row in &simd_rows {
        println!("{{\"experiment\":\"exp_scaling\",\"section\":\"simd\",\"bench\":{row}}}");
    }

    // ---------------------------------------------- scaling study ----
    let n1_weak = weak_n(n / 2, 1);
    let weak_sizes: Vec<usize> = WORKER_COUNTS.iter().map(|&p| weak_n(n / 2, p)).collect();
    let mut entries: Vec<ScalingEntry> = Vec::new();
    for (mi, mode) in ["strong", "weak"].into_iter().enumerate() {
        for (pi, &p) in WORKER_COUNTS.iter().enumerate() {
            let n_run = if mi == 0 { n } else { weak_sizes[pi] };
            let base = base_for(n_run);
            let machine = scaling_machine(p);
            let inputs = Inputs::generate(n_run);
            for alg in [Alg::Mm, Alg::Lu, Alg::Fw2d] {
                eprintln!(
                    "exp_scaling: {mode} {} p={p} n={n_run} (base {base})",
                    alg.name()
                );
                for (executor, make) in EXECUTORS {
                    let exec = make(&machine);
                    let (best, mean, steals, cross, trace) =
                        measure(&*exec, alg, &inputs, n_run, base, reps);
                    entries.push(ScalingEntry {
                        mode,
                        algorithm: alg.name(),
                        executor,
                        workers: p,
                        n: n_run,
                        best_seconds: best,
                        mean_seconds: mean,
                        total_steals: steals,
                        cross_cluster_steals: cross,
                        rel_vs_p1: 1.0,
                        trace_json: trace,
                    });
                }
            }
        }
    }

    // Fill `rel_vs_p1` from each (mode, algorithm, executor) series' p = 1 run.
    let baselines: Vec<(&str, &str, &str, f64)> = entries
        .iter()
        .filter(|e| e.workers == 1)
        .map(|e| (e.mode, e.algorithm, e.executor, e.best_seconds))
        .collect();
    for e in &mut entries {
        if let Some(&(_, _, _, t1)) = baselines
            .iter()
            .find(|(m, a, x, _)| *m == e.mode && *a == e.algorithm && *x == e.executor)
        {
            e.rel_vs_p1 = t1 / e.best_seconds;
        }
    }

    let entry_rows: Vec<String> = entries.iter().map(|e| e.json()).collect();
    for row in &entry_rows {
        println!("{{\"experiment\":\"exp_scaling\",\"section\":\"scaling\",\"bench\":{row}}}");
    }
    let scaling_section = format!(
        "{{\n    \"workers\": {},\n    \"strong_n\": {n},\n    \"weak_n1\": {n1_weak},\n    \
\"weak_ns\": {},\n    \"host_parallelism\": {host_parallelism},\n    \
\"oversubscribed\": {oversubscribed},\n    \"entries\": [\n      {}\n    ]\n  }}",
        u64_list(WORKER_COUNTS.iter().map(|&p| p as u64)),
        u64_list(weak_sizes.iter().map(|&x| x as u64)),
        entry_rows.join(",\n      ")
    );

    splice_sections(&scaling_section, &simd_section, &cpu_json());
    eprintln!("exp_scaling: spliced scaling/simd/cpu sections into BENCH_exec.json");
}
