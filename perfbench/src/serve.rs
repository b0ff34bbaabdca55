//! The `serve` workload: two tenants' jobs into `nd-serve` (default
//! `ServeConfig`, no chaos, real clock) on a pool of `nproc` workers.
//!
//! * `interactive` (High priority): MM and Cholesky at n = 64, b = 16, both
//!   layouts.
//! * `batch` (Low priority): MM at n = 256, b = 64, tiled.
//!
//! The timed run is closed-loop: bursts of [`BURST_JOBS`] interactive jobs
//! submitted at once, each burst timed from its first submission to its last
//! outcome.  Open-loop latency at a fixed rate is the better serving metric,
//! but on a small shared host it swings by an order of magnitude between
//! runs, with idle wake-up delays, while a burst's makespan moves with the
//! host's speed, as the batch workloads' solves do.
//!
//! The traced run drives the open loop.  One generator thread, the
//! benchmark's main thread, walks a seeded, precomputed arrival schedule
//! (two merged Poisson processes: interactive at a nominal 1500 jobs/s,
//! batch at 20 jobs/s) and never waits for replies.  A job's latency is
//! timed from its due time: how late the generator submitted it, plus the
//! server's acceptance-to-completion latency (`JobOutcome::Done.latency_ns`).
//!
//! Every `Done` digest is checked against a digest precomputed per
//! (spec, seed) by executing the same compiled form directly.

use crate::kernels;
use crate::problems::{Inputs, Kind, Problem, ProblemSpec};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{digest_f64, max, median, percentile, Rng};
use crate::workloads::{
    compute_references, derive_seed, empty_task_ns, finish_spans, measure_solves, sleep_until,
    solve_layer_metrics, workers, RunConfig, SetupRecord,
};
use nd_algorithms::exec::Layout;
use nd_linalg::Matrix;
use nd_runtime::{Priority, ThreadPool};
use nd_serve::{AlgoKind, JobOutcome, JobSpec, ServeConfig, Server, TenantConfig};
use nd_trace::{TraceConfig, TraceSession};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interactive jobs per second at the nominal operating point.
pub const NOMINAL_JPS: f64 = 1500.0;
/// Batch jobs per second.
pub const BATCH_JPS: f64 = 20.0;
/// The low rate that exposes idle wake-up cost.
pub const LOW_JPS: f64 = 300.0;
/// The latency limit on interactive p99 that `max_rate_jps` must meet.
pub const P99_LIMIT_MS: f64 = 2.0;
/// Ladder rung `k` is `NOMINAL_JPS · LADDER_STEP^(k − LADDER_NOMINAL)`.
const LADDER_STEP: f64 = 1.05;
const LADDER_NOMINAL: i32 = 33;
const LADDER_RUNGS: i32 = 81;
/// Interactive jobs per ladder probe: p99 then has ten samples beyond it.
const PROBE_JOBS: f64 = 1000.0;
/// Probe size of the self-tests' tiny runs.
const SMOKE_PROBE_JOBS: f64 = 50.0;
/// Server set-ups per timed run, one before each of as many equal slices of
/// the run.  A set-up takes milliseconds, so made back to back they sample
/// the host's speed at one moment; spread over the run, their median follows
/// the host as the burst makespans do.
const SERVE_SETUP_REPS: usize = 21;
/// Interactive jobs per closed-loop burst: eight of each spec.
const BURST_JOBS: usize = 32;
/// Distinct input seeds per spec (jobs cycle through them).
const SEEDS_PER_SPEC: usize = 32;

fn specs(smoke: bool) -> Vec<ProblemSpec> {
    let (n, b, bn, bb) = if smoke {
        (32, 16, 64, 32)
    } else {
        (64, 16, 256, 64)
    };
    vec![
        ProblemSpec::new(Kind::Mm, n, b, Layout::RowMajor),
        ProblemSpec::new(Kind::Mm, n, b, Layout::Tiled),
        ProblemSpec::new(Kind::Cholesky, n, b, Layout::RowMajor),
        ProblemSpec::new(Kind::Cholesky, n, b, Layout::Tiled),
        ProblemSpec::new(Kind::Mm, bn, bb, Layout::Tiled),
    ]
}

/// Index of the batch tenant's spec in [`specs`].
const BATCH_SPEC: usize = 4;

fn tenant(spec: usize) -> &'static str {
    if spec == BATCH_SPEC {
        "batch"
    } else {
        "interactive"
    }
}

fn job_spec(ps: &ProblemSpec, seed: u64) -> JobSpec {
    let algo = match ps.kind {
        Kind::Mm => AlgoKind::Mm,
        Kind::Cholesky => AlgoKind::Cholesky,
        other => unreachable!("nd-serve does not run {other:?}"),
    };
    JobSpec::new(algo, ps.n, ps.b, ps.layout, seed)
}

/// The inputs `nd-serve` regenerates for a job of `ps` with `seed`.
fn serve_inputs(ps: &ProblemSpec, seed: u64) -> Inputs {
    match ps.kind {
        Kind::Cholesky => Inputs {
            mats: vec![Matrix::random_spd(ps.n, seed)],
        },
        _ => Inputs::generate(ps, seed),
    }
}

/// One scheduled job.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    due_ns: u64,
    spec: usize,
    seed: usize,
}

/// Two merged Poisson processes over `duration` seconds.
fn schedule(rng: &mut Rng, rate: f64, duration: f64, n_interactive: usize) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (r, batch) in [(rate, false), (BATCH_JPS, true)] {
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / r;
            if t >= duration {
                break;
            }
            out.push(Arrival {
                due_ns: (t * 1e9) as u64,
                spec: if batch {
                    BATCH_SPEC
                } else {
                    rng.below(n_interactive)
                },
                seed: rng.below(SEEDS_PER_SPEC),
            });
        }
    }
    out.sort_by_key(|a| a.due_ns);
    out
}

/// What one open-loop phase measured.
#[derive(Default)]
struct PhaseOut {
    /// Interactive latency from due time, ms.
    lat_ms: Vec<f64>,
    /// Batch latency from due time, ms.
    batch_lat_ms: Vec<f64>,
    /// Interactive acceptance-to-done latency, ms.
    accept_ms: Vec<f64>,
    /// `Server::submit` call time, µs.
    submit_us: Vec<f64>,
    /// Generator lateness, ms.
    late_ms: Vec<f64>,
    /// Backlog (accepted − terminal) samples.
    backlog: Vec<u64>,
    rejected: u64,
    failed: u64,
}

impl PhaseOut {
    /// Whether the backlog grew: the last quarter's mean above twice the
    /// first quarter's (plus a small allowance for Poisson bursts).
    fn backlog_grew(&self) -> bool {
        let q = self.backlog.len() / 4;
        if q == 0 {
            return false;
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        mean(&self.backlog[self.backlog.len() - q..]) > 2.0 * mean(&self.backlog[..q]) + 4.0
    }

    /// The ladder's pass rule at this phase's rate.
    fn meets_limit(&self) -> bool {
        self.rejected == 0
            && self.failed == 0
            && percentile(&self.lat_ms, 99.0) <= P99_LIMIT_MS
            && !self.backlog_grew()
    }
}

struct Harness<'a> {
    server: &'a Server,
    specs: &'a [ProblemSpec],
    seeds: &'a [u64],
    expected: &'a [Vec<u64>],
    plant_wrong_output: bool,
    next_job: u64,
}

impl Harness<'_> {
    /// Runs one open-loop phase over `arrivals`, then collects every outcome.
    fn phase(&mut self, arrivals: &[Arrival], spans: &mut Spans, report: &mut Report) -> PhaseOut {
        let mut out = PhaseOut::default();
        let mut pending = Vec::with_capacity(arrivals.len());
        let start = Instant::now() + Duration::from_millis(2);
        for (j, a) in arrivals.iter().enumerate() {
            let due = start + Duration::from_nanos(a.due_ns);
            if Instant::now() < due {
                spans.time("harness.generator_sleep", 0, |_| sleep_until(due));
            }
            self.next_job += 1;
            let id = self.next_job;
            let t_call = Instant::now();
            let late = t_call.saturating_duration_since(due);
            let spec = job_spec(&self.specs[a.spec], self.seeds[a.seed]);
            let result = spans.time("nd-serve.submit", id, |_| {
                self.server.submit(tenant(a.spec), spec)
            });
            out.submit_us.push(t_call.elapsed().as_nanos() as f64 / 1e3);
            out.late_ms.push(late.as_nanos() as f64 / 1e6);
            match result {
                Ok(ticket) => pending.push((id, *a, ticket, late)),
                Err(e) => {
                    out.rejected += 1;
                    report.note(format!("job {id} rejected: {e}"));
                }
            }
            if j % 16 == 0 {
                let h = spans.time("nd-serve.health", id, |_| self.server.health());
                out.backlog.push(h.accepted - h.terminal);
            }
        }
        report.attempted += arrivals.len() as u64;
        report.failed += out.rejected;
        for (id, a, ticket, late) in pending {
            let outcome = spans.time("nd-serve.wait", id, |_| ticket.wait());
            match self.check(id, &a, outcome, report) {
                Some(latency_ns) => {
                    let ms = (late.as_nanos() as f64 + latency_ns as f64) / 1e6;
                    if a.spec == BATCH_SPEC {
                        out.batch_lat_ms.push(ms);
                    } else {
                        out.lat_ms.push(ms);
                        out.accept_ms.push(latency_ns as f64 / 1e6);
                    }
                }
                None => out.failed += 1,
            }
        }
        report.failed += out.failed;
        out
    }

    /// Checks a job's outcome against the directly computed digest; returns
    /// its acceptance-to-done latency if it is a correct `Done`.
    fn check(&self, id: u64, a: &Arrival, outcome: JobOutcome, report: &mut Report) -> Option<u64> {
        match outcome {
            JobOutcome::Done {
                digest, latency_ns, ..
            } => {
                let digest = if self.plant_wrong_output {
                    digest ^ 1
                } else {
                    digest
                };
                if digest == self.expected[a.spec][a.seed] {
                    Some(latency_ns)
                } else {
                    report.note(format!("job {id}: digest does not match direct execution"));
                    None
                }
            }
            other => {
                report.note(format!("job {id}: {other:?}"));
                None
            }
        }
    }

    /// Closed-loop bursts for `seconds` (at least three): each burst submits
    /// [`BURST_JOBS`] interactive jobs at once, cycling through the specs and
    /// input seeds, and waits for all of them.  Returns each burst's makespan
    /// (first submit to last outcome), ms.
    fn bursts(&mut self, seconds: f64, spans: &mut Spans, report: &mut Report) -> Vec<f64> {
        let mut makespans = Vec::new();
        let start = Instant::now();
        let mut next = 0usize;
        while start.elapsed().as_secs_f64() < seconds || makespans.len() < 3 {
            let t = Instant::now();
            let mut pending = Vec::with_capacity(BURST_JOBS);
            for _ in 0..BURST_JOBS {
                let a = Arrival {
                    due_ns: 0,
                    spec: next % BATCH_SPEC,
                    seed: (next / BATCH_SPEC) % SEEDS_PER_SPEC,
                };
                next += 1;
                self.next_job += 1;
                let id = self.next_job;
                let spec = job_spec(&self.specs[a.spec], self.seeds[a.seed]);
                match spans.time("nd-serve.submit", id, |_| {
                    self.server.submit(tenant(a.spec), spec)
                }) {
                    Ok(ticket) => pending.push((id, a, ticket)),
                    Err(e) => report.note(format!("job {id} rejected: {e}")),
                }
            }
            let mut ok = pending.len();
            for (id, a, ticket) in pending {
                let outcome = spans.time("nd-serve.wait", id, |_| ticket.wait());
                if self.check(id, &a, outcome, report).is_none() {
                    ok -= 1;
                }
            }
            makespans.push(t.elapsed().as_nanos() as f64 / 1e6);
            report.attempted += BURST_JOBS as u64;
            report.failed += (BURST_JOBS - ok) as u64;
        }
        makespans
    }
}

/// Starts a pool and a server, registers both tenants and compiles every
/// graph key with one warm-up job each; returns them with the warm-up
/// outcomes and the set-up time.
fn start_server(
    specs: &[ProblemSpec],
    warm_seed: u64,
    spans: &mut Spans,
) -> (Arc<ThreadPool>, Server, Vec<JobOutcome>, f64) {
    let t = Instant::now();
    let pool = spans.time("nd-runtime.pool_start", 0, |_| {
        Arc::new(ThreadPool::new(workers()))
    });
    let server = spans.time("nd-serve.server_new", 0, |_| {
        Server::new(Arc::clone(&pool), ServeConfig::default())
    });
    server.register_tenant("interactive", TenantConfig::default());
    server.register_tenant(
        "batch",
        TenantConfig {
            priority: Priority::Low,
            ..TenantConfig::default()
        },
    );
    let outcomes = spans.time("nd-serve.warmup_compile", 0, |_| {
        specs
            .iter()
            .enumerate()
            .map(
                |(i, ps)| match server.submit(tenant(i), job_spec(ps, warm_seed)) {
                    Ok(ticket) => ticket.wait(),
                    Err(e) => JobOutcome::Poisoned {
                        attempts: 0,
                        error: e.to_string(),
                    },
                },
            )
            .collect()
    });
    let setup_s = t.elapsed().as_secs_f64();
    (pool, server, outcomes, setup_s)
}

/// Runs the serve workload.
pub fn run(cfg: &RunConfig) -> Report {
    let wall = Instant::now();
    let mut spans = Spans::new(cfg.trace);
    let mut report = Report::default();
    let specs = specs(cfg.smoke);
    let n_interactive = BATCH_SPEC;
    let seeds: Vec<u64> = (0..SEEDS_PER_SPEC)
        .map(|s| derive_seed(cfg.seed, 1000 + s as u64))
        .collect();

    let (pool, mut server, warm, s) = start_server(&specs, seeds[0], &mut spans);
    let mut setup_s = vec![s];

    // Direct executions of every spec: the digest oracle, the compute floor
    // and the solve-level per-layer metrics.
    let mut problems: Vec<Problem> = specs
        .iter()
        .enumerate()
        .map(|(i, ps)| {
            let inputs = serve_inputs(ps, seeds[0]);
            Problem::setup(
                *ps,
                inputs,
                None,
                derive_seed(cfg.seed, 100 + i as u64),
                &mut spans,
            )
        })
        .collect();
    let expected: Vec<Vec<u64>> = spans.time("harness.expected_digests", 0, |s| {
        problems
            .iter_mut()
            .map(|p| {
                seeds
                    .iter()
                    .map(|&seed| {
                        p.load_inputs(&serve_inputs(&p.spec, seed));
                        p.restore();
                        match p.solve(&pool, s, 0) {
                            Ok(_) => digest_f64(p.mats[0].as_slice()),
                            Err(_) => 0,
                        }
                    })
                    .collect()
            })
            .collect()
    });
    for p in problems.iter_mut() {
        p.load_inputs(&serve_inputs(&p.spec, seeds[0]));
    }
    let check_warm = |warm: &[JobOutcome], report: &mut Report| {
        for (i, outcome) in warm.iter().enumerate() {
            report.attempted += 1;
            let ok =
                matches!(outcome, JobOutcome::Done { digest, .. } if *digest == expected[i][0]);
            if !ok {
                report.failed += 1;
                report.note(format!("warm-up job for {:?}: {outcome:?}", specs[i]));
            }
        }
    };
    check_warm(&warm, &mut report);

    if !cfg.trace {
        // Each slice's server brings its own pool; an idle one would still
        // wake its workers on their park timeouts.
        drop(pool);
        let mut makespans = Vec::new();
        let mut next_job = 0;
        for rep in 0..SERVE_SETUP_REPS {
            if rep > 0 {
                spans.time("nd-serve.shutdown", 0, |_| drop_server(server));
                let (_, next, warm, s) = start_server(&specs, seeds[0], &mut spans);
                check_warm(&warm, &mut report);
                setup_s.push(s);
                server = next;
            }
            let mut h = Harness {
                server: &server,
                specs: &specs,
                seeds: &seeds,
                expected: &expected,
                plant_wrong_output: cfg.plant_wrong_output,
                next_job,
            };
            let slice = cfg.seconds / SERVE_SETUP_REPS as f64;
            makespans.extend(h.bursts(slice, &mut spans, &mut report));
            next_job = h.next_job;
        }
        report.set("solve_ms.p50", median(&makespans));
        report.set("setup_s", median(&setup_s));
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        drop_server(server);
        return report;
    }

    let mut rng = Rng::new(derive_seed(cfg.seed, 7));
    let mut h = Harness {
        server: &server,
        specs: &specs,
        seeds: &seeds,
        expected: &expected,
        plant_wrong_output: cfg.plant_wrong_output,
        next_job: 0,
    };

    // Traced run: low rate, nominal untraced, nominal under a trace session,
    // the rate ladder, then direct solves of every spec.
    let s = cfg.seconds;
    let low = h.phase(
        &schedule(&mut rng, LOW_JPS, 0.15 * s, n_interactive),
        &mut spans,
        &mut report,
    );
    let nominal = h.phase(
        &schedule(&mut rng, NOMINAL_JPS, 0.25 * s, n_interactive),
        &mut spans,
        &mut report,
    );
    let session = TraceSession::start(pool.tracer(), TraceConfig { capacity: 1 << 20 });
    let traced = h.phase(
        &schedule(&mut rng, NOMINAL_JPS, 0.15 * s, n_interactive),
        &mut spans,
        &mut report,
    );
    spans.time("nd-trace.finish", 0, |_| drop(session.finish()));

    let rung = |k: i32| NOMINAL_JPS * LADDER_STEP.powi(k - LADDER_NOMINAL);
    let (mut lo, mut hi) = if nominal.meets_limit() {
        (LADDER_NOMINAL, LADDER_RUNGS)
    } else {
        (-1, LADDER_NOMINAL)
    };
    let mut probes = 0;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = rung(mid);
        let jobs = if cfg.smoke {
            SMOKE_PROBE_JOBS
        } else {
            PROBE_JOBS
        };
        let arrivals = schedule(&mut rng, rate, jobs / rate, n_interactive);
        let probe = h.phase(&arrivals, &mut spans, &mut report);
        probes += 1;
        report.note(format!(
            "rate ladder: rung {mid} ({rate:.0} jobs/s): p99 {:.3} ms, backlog grew: {}",
            percentile(&probe.lat_ms, 99.0),
            probe.backlog_grew()
        ));
        if probe.meets_limit() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    report.note(format!(
        "rate ladder: {probes} probes, highest passing rung {lo}"
    ));
    if lo >= 0 {
        report.set("nd-serve.max_rate_jps", rung(lo));
    } else {
        report.unavailable("nd-serve.max_rate_jps", "no rung met the p99 limit");
    }

    let health = server.health();
    drop_server(server);

    let mut setup = SetupRecord {
        total_s: setup_s,
        build_ms: Vec::new(),
        compile_ms: Vec::new(),
        anchoring_ms: Vec::new(),
    };
    let sum = |f: fn(&Problem) -> u64| problems.iter().map(f).sum::<u64>() as f64 / 1e6;
    setup.build_ms.push(sum(|p| p.setup.build_ns));
    setup.compile_ms.push(sum(|p| p.setup.compile_ns));
    let p1_ms = compute_references(&mut problems, &mut spans, &mut report);
    let mut next_id = 1 << 40;
    let direct = measure_solves(
        &mut problems,
        &pool,
        0.5,
        3,
        false,
        false,
        &mut spans,
        &mut next_id,
        &mut report,
    );
    let direct_traced = measure_solves(
        &mut problems,
        &pool,
        0.5,
        3,
        true,
        false,
        &mut spans,
        &mut next_id,
        &mut report,
    );
    let rates = spans.time("nd-linalg.kernel_rates", 0, |_| kernels::measure());
    let empty_ns = empty_task_ns(&problems, &pool, &mut spans);
    solve_layer_metrics(
        &mut report,
        &problems,
        &setup,
        &direct,
        &direct_traced,
        p1_ms,
        &rates,
        empty_ns,
        workers(),
    );
    report.unavailable_all(
        "nd-exec.",
        "nd-exec anchoring runs only on the anchored workload",
    );

    let job_p50 = median(&nominal.lat_ms);
    let floor = (0..n_interactive)
        .map(|i| direct.problem_ms(i))
        .sum::<f64>()
        / n_interactive as f64;
    report.set("nd-serve.job_ms.p50", job_p50);
    report.set("nd-serve.job_ms.p99", percentile(&nominal.lat_ms, 99.0));
    let batch: Vec<f64> = [&low, &nominal, &traced]
        .iter()
        .flat_map(|p| p.batch_lat_ms.iter().copied())
        .collect();
    report.set("nd-serve.batch_job_ms.p50", median(&batch));
    report.set("nd-serve.submit_us.p50", median(&nominal.submit_us));
    report.set(
        "nd-serve.submit_us.p99",
        percentile(&nominal.submit_us, 99.0),
    );
    report.set("nd-serve.accept_to_done_ms.p50", median(&nominal.accept_ms));
    report.set("nd-serve.compute_floor_ms", floor);
    report.set("nd-serve.overhead_share", 1.0 - floor / job_p50);
    report.set("nd-serve.low_rate_p50_ms", median(&low.lat_ms));
    let backlog_max = [&low, &nominal, &traced]
        .iter()
        .flat_map(|p| p.backlog.iter().copied())
        .max()
        .unwrap_or(0);
    report.set("nd-serve.backlog_max", backlog_max as f64);
    report.set("nd-serve.cache_hits", health.cache.hits as f64);
    report.set("nd-serve.compiles", health.cache.compiles as f64);
    report.set("nd-serve.retries", health.retries as f64);
    report.set(
        "nd-serve.rejected",
        (health.breaker_fast_rejects + low.rejected + nominal.rejected + traced.rejected) as f64,
    );
    report.set("nd-serve.shed", health.shed as f64);
    report.set("nd-trace.overhead_ratio", median(&traced.lat_ms) / job_p50);
    let late: Vec<f64> = nominal
        .late_ms
        .iter()
        .chain(&traced.late_ms)
        .copied()
        .collect();
    report.set("harness.gen_late_ms.p99", percentile(&late, 99.0));
    report.set("harness.gen_late_ms.max", max(&late));
    report.set("harness.samples", nominal.lat_ms.len() as f64);
    finish_spans(&spans, &mut report, cfg, wall);
    report
}

/// Drains and stops a server (every accepted job is terminal on return).
fn drop_server(server: Server) {
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.completed, "server drain did not complete");
}
