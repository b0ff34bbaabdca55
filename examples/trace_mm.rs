//! Tracing quickstart: run one anchored matrix multiplication under a trace
//! session, print a per-worker summary table, and write the full
//! Chrome-trace JSON (open it in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! Run with `cargo run --release --example trace_mm -- [n] [base] [out.json]`
//! (defaults: 256, 16, `target/trace.json` — never the working directory).
//! `ND_TRACE_CAPACITY` sets the per-worker event-ring capacity (default
//! 65536 events).

use nested_dataflow::algorithms::common::Mode;
use nested_dataflow::algorithms::driver::run_once_traced;
use nested_dataflow::algorithms::exec::ExecContext;
use nested_dataflow::algorithms::mm::build_mm;
use nested_dataflow::exec::{HierarchicalPool, StealPolicy};
use nested_dataflow::linalg::Matrix;
use nested_dataflow::pmh::topology::detect_host;
use nested_dataflow::trace::{chrome_trace_json, metrics_summary_json};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let base: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
        .min(n);
    let out = std::env::args()
        .nth(3)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new("target").join("trace.json"));

    let host = detect_host();
    let pool = HierarchicalPool::new(host.machine(), StealPolicy::NearestFirst);
    let workers = pool.pool().num_threads();
    println!("tracing anchored MM: n = {n}, base = {base}, {workers} workers");

    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let mut am = a.clone();
    let mut bm = b.clone();
    let ctx = ExecContext::from_matrices(&mut [&mut c, &mut am, &mut bm]);
    let built = build_mm(n, base, Mode::Nd, 1.0);

    // The anchored pool is the executor: the trace carries each strand's
    // anchor group and level next to the flat columns.
    let (stats, trace) = run_once_traced(&pool, &built, &ctx);
    let stats = stats.expect("algorithm strand panicked");

    println!(
        "executed {} tasks in {:.3} ms wall ({} events collected, {} dropped)",
        stats.tasks,
        trace.wall_ns as f64 / 1e6,
        trace.events.len(),
        trace.dropped,
    );
    println!(
        "critical path {:.3} ms over {} tasks; {} steals ({} cross-cluster)",
        trace.metrics.critical_path_ns as f64 / 1e6,
        trace.metrics.critical_path_tasks,
        trace.metrics.steals,
        pool.cross_cluster_steals(), // the fresh pool has run nothing else
    );

    println!("\nworker  tasks  inline   busy_ms  steal_ms   idle_ms  steals");
    for (w, s) in trace.metrics.per_worker.iter().enumerate() {
        println!(
            "{:>6}  {:>5}  {:>6}  {:>8.3}  {:>8.3}  {:>8.3}  {:>6}",
            w,
            s.tasks,
            s.inline_execs,
            s.busy_ns as f64 / 1e6,
            s.steal_ns as f64 / 1e6,
            s.idle_ns as f64 / 1e6,
            s.steals,
        );
    }

    println!("\nop kind latencies (hottest first):");
    for op in &trace.metrics.op_latency {
        println!(
            "  {:<18} count {:>6}  p50 {:>8} ns  p99 {:>8} ns  total {:>9.3} ms",
            op.op_kind,
            op.count,
            op.p50_ns,
            op.p99_ns,
            op.total_ns as f64 / 1e6,
        );
    }

    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("failed to create trace output directory");
    }
    std::fs::write(&out, chrome_trace_json(&trace))
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", out.display()));
    println!(
        "\nwrote {} (chrome://tracing / ui.perfetto.dev)",
        out.display()
    );
    println!("metrics summary: {}", metrics_summary_json(&trace));
}
