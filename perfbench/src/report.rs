//! The metric catalog and the result line.
//!
//! The catalog is the single list of metric names and units; `BENCHMARK.json`
//! repeats it (a self-test checks they agree).  An untraced run prints every
//! end-to-end metric, a traced run every per-layer metric.  A per-layer
//! metric a workload does not exercise prints as 0 and the run says why on
//! stderr.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nd-linalg.gemm_b64_gflops", "Gflop/s"),
    ("nd-linalg.trsm_gflops", "Gflop/s"),
    ("nd-linalg.potrf_gflops", "Gflop/s"),
    ("nd-linalg.getrf_gflops", "Gflop/s"),
    ("nd-linalg.fw_gops", "Gop/s"),
    ("nd-linalg.pack_gbs", "GB/s"),
    ("nd-linalg.flop_count", "flop"),
    ("nd-linalg.bytes_computed", "B"),
    ("nd-linalg.flops_per_byte", "flop/B"),
    ("nd-algorithms.build_ms", "ms"),
    ("nd-algorithms.compile_ms", "ms"),
    ("nd-algorithms.tasks", "count"),
    ("nd-algorithms.edges", "count"),
    ("nd-algorithms.mm_ms", "ms"),
    ("nd-algorithms.lu_ms", "ms"),
    ("nd-algorithms.cholesky_ms", "ms"),
    ("nd-algorithms.fw2d_ms", "ms"),
    ("nd-algorithms.mm_gflops", "Gflop/s"),
    ("nd-algorithms.lu_gflops", "Gflop/s"),
    ("nd-algorithms.cholesky_gflops", "Gflop/s"),
    ("nd-algorithms.kernel_efficiency", "ratio"),
    ("nd-algorithms.bind_ms", "ms"),
    ("nd-algorithms.unpack_ms", "ms"),
    ("nd-algorithms.p1_solve_ms", "ms"),
    ("nd-algorithms.speedup_vs_p1", "ratio"),
    ("nd-runtime.exec_ms", "ms"),
    ("nd-runtime.busy_share", "ratio"),
    ("nd-runtime.idle_share", "ratio"),
    ("nd-runtime.steal_share", "ratio"),
    ("nd-runtime.overhead_ns_per_task", "ns"),
    ("nd-runtime.empty_task_ns", "ns"),
    ("nd-runtime.steals_per_ktask", "1/ktask"),
    ("nd-runtime.worker_imbalance", "ratio"),
    ("nd-runtime.critical_path_share", "ratio"),
    ("nd-exec.anchoring_ms", "ms"),
    ("nd-exec.overflow_events", "count"),
    ("nd-exec.anchors_l1", "count"),
    ("nd-exec.anchors_l2", "count"),
    ("nd-exec.cross_cluster_steals", "count"),
    ("nd-exec.min_worker_busy_share", "ratio"),
    ("nd-serve.job_ms.p50", "ms"),
    ("nd-serve.job_ms.p99", "ms"),
    ("nd-serve.batch_job_ms.p50", "ms"),
    ("nd-serve.max_rate_jps", "jobs/s"),
    ("nd-serve.submit_us.p50", "us"),
    ("nd-serve.submit_us.p99", "us"),
    ("nd-serve.accept_to_done_ms.p50", "ms"),
    ("nd-serve.compute_floor_ms", "ms"),
    ("nd-serve.overhead_share", "ratio"),
    ("nd-serve.low_rate_p50_ms", "ms"),
    ("nd-serve.backlog_max", "count"),
    ("nd-serve.cache_hits", "count"),
    ("nd-serve.compiles", "count"),
    ("nd-serve.retries", "count"),
    ("nd-serve.rejected", "count"),
    ("nd-serve.shed", "count"),
    ("nd-trace.overhead_ratio", "ratio"),
    ("harness.gen_late_ms.p99", "ms"),
    ("harness.gen_late_ms.max", "ms"),
    ("harness.samples", "count"),
    ("harness.span_coverage", "ratio"),
];

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (solves, or jobs scheduled).
    pub attempted: u64,
    /// Of those, failed (oracle mismatch, `RunError`, rejected, shed,
    /// poisoned, digest mismatch).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Report {
    /// Records a metric value.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        if value.is_finite() {
            self.values.insert(name, value);
        } else {
            self.unavailable(name, "measured value was not finite");
        }
    }

    /// Records a metric this run cannot measure: printed as 0, with `why`.
    pub fn unavailable(&mut self, name: &'static str, why: &str) {
        self.values.insert(name, 0.0);
        self.notes
            .push(format!("{name}: unavailable on this workload ({why})"));
    }

    /// Records every per-layer metric whose name starts with `prefix` as
    /// unavailable, with `why`.
    pub fn unavailable_all(&mut self, prefix: &str, why: &str) {
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
            self.unavailable(name, why);
        }
    }

    /// Records a failure note (printed on stderr).
    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    /// Notes collected during the run.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The catalog section this run prints.
    pub fn catalog(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// the section (`trace` selects per-layer).  A catalog metric the run
    /// never recorded prints as 0 with a note.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in Report::catalog(trace) {
            if !self.values.contains_key(name) {
                self.unavailable(name, "not measured by this workload");
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.values[name]
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}
