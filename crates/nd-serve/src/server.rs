//! The server: tenants submit [`JobSpec`]s through a channel façade, a
//! small crew of dedicated runner threads executes them on one shared
//! [`ThreadPool`], and every accepted job is driven to exactly one terminal
//! [`JobOutcome`] through the full robustness stack — graph cache, QoS
//! envelope, retry/backoff, circuit breaker, graceful drain.
//!
//! Runner threads are *not* pool workers: a graph execution parks on its
//! completion latch, which would deadlock a pool worker, so execution is
//! multiplexed from outside the pool exactly the way an external caller
//! would.  The channel façade (a ticket with an mpsc receiver per job)
//! keeps the whole service testable without sockets; a wire front end is a
//! thin loop over [`Server::submit`].

use crate::breaker::{Breaker, BreakerConfig, BreakerState, Gate};
use crate::cache::{CacheSnapshot, GraphCache};
use crate::clock::ServeClock;
use crate::error::ServeError;
use crate::job::{GraphKey, InjectSpec, JobOutcome, JobSpec, ShedReason};
use crate::qos::{TenantConfig, TenantSnapshot, TenantState};
use crate::retry::{RetryPolicy, SplitMix64};
use nd_runtime::fault::RunBudget;
use nd_runtime::{PoolStats, Priority, ThreadPool};
use nd_trace::{EventKind, TraceEvent, NO_TASK};
use parking_lot::{Condvar, Mutex};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

/// The server's lifecycle state, as reported by health snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerState {
    /// Admitting and executing.
    Running,
    /// Not admitting; running out accepted work.
    Draining,
    /// Shut down.
    Stopped,
}

/// Server tuning.  The defaults are reasonable for tests; benches and
/// services override per deployment.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Dedicated runner threads multiplexing graph executions onto the
    /// pool.  `0` is legal (nothing executes — useful for queueing tests).
    pub runners: usize,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning (per graph key).
    pub breaker: BreakerConfig,
    /// Consecutive faulted runs on one cache entry before it is
    /// quarantined (dropped and recompiled on next use).
    pub quarantine_after: u32,
    /// How many times an accepted job defers to an open breaker before it
    /// is shed.
    pub max_breaker_defers: u32,
    /// Optional per-run wall-clock deadline (the executor's `RunBudget`).
    pub run_deadline: Option<Duration>,
    /// Seeded chaos: panic roughly one attempt in `k` (on the production
    /// fault path).  `None` disables.
    pub chaos_panic_1_in: Option<u64>,
    /// Seed for every jitter/chaos decision — same seed, same replay.
    pub seed: u64,
    /// Use a virtual clock the runners advance when idle: deterministic,
    /// real-time-free backoffs and cooldowns.
    pub virtual_clock: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            runners: 2,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            quarantine_after: 6,
            max_breaker_defers: 3,
            run_deadline: None,
            chaos_panic_1_in: None,
            seed: 0,
            virtual_clock: false,
        }
    }
}

/// The ticket a successful submission returns: a handle on the job's
/// exactly-once terminal outcome.
#[derive(Debug)]
pub struct JobTicket {
    /// Server-assigned job id (monotonic per server).
    pub id: u64,
    rx: Receiver<JobOutcome>,
}

impl JobTicket {
    /// Blocks until the job's terminal outcome arrives.
    ///
    /// # Panics
    /// Panics if the server was dropped without delivering an outcome —
    /// which the drain/shutdown contract rules out.
    pub fn wait(&self) -> JobOutcome {
        self.rx
            .recv()
            .expect("server dropped a job without a terminal outcome")
    }

    /// Non-blocking poll for the outcome.
    pub fn try_wait(&self) -> Option<JobOutcome> {
        self.rx.try_recv().ok()
    }
}

/// What [`Server::drain`] reports.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// `true` when every accepted job reached its terminal outcome before
    /// the deadline (nothing had to be shed).
    pub completed: bool,
    /// Jobs shed with [`ShedReason::DrainDeadline`] at deadline expiry.
    pub shed: u64,
    /// Wall time the drain took.
    pub elapsed: Duration,
}

/// Point-in-time health/readiness snapshot.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Lifecycle state.
    pub state: ServerState,
    /// Jobs queued ready to run.
    pub ready_jobs: usize,
    /// Jobs parked on a backoff/cooldown wake-up.
    pub delayed_jobs: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Accepted jobs (ever).
    pub accepted: u64,
    /// Terminal outcomes delivered (ever).  `accepted == terminal` once
    /// drained: nothing lost.
    pub terminal: u64,
    /// Terminal `Done` count.
    pub done: u64,
    /// Terminal `Shed` count.
    pub shed: u64,
    /// Terminal `Poisoned` count.
    pub poisoned: u64,
    /// Retry re-queues.
    pub retries: u64,
    /// Execution attempts.
    pub attempts: u64,
    /// Attempts with an injected fault.
    pub injected_faults: u64,
    /// Breaker trips (Closed→Open).
    pub breaker_trips: u64,
    /// Submissions fast-rejected by an open breaker.
    pub breaker_fast_rejects: u64,
    /// Graph-cache counters.
    pub cache: CacheSnapshot,
    /// Per-key breaker states.
    pub breakers: Vec<(GraphKey, BreakerState)>,
    /// Per-tenant views.
    pub tenants: Vec<TenantSnapshot>,
    /// The shared pool's counters.
    pub pool: PoolStats,
}

#[derive(Debug, Default)]
struct ServerCounters {
    accepted: AtomicU64,
    terminal: AtomicU64,
    done: AtomicU64,
    shed: AtomicU64,
    poisoned: AtomicU64,
    retries: AtomicU64,
    attempts: AtomicU64,
    injected_faults: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_rejects: AtomicU64,
}

struct Job {
    tenant: Arc<TenantState>,
    spec: JobSpec,
    key: GraphKey,
    attempts: u32,
    breaker_defers: u32,
    rng: SplitMix64,
    accepted_ns: u64,
    tx: Sender<JobOutcome>,
}

struct Delayed {
    wake_ns: u64,
    seq: u64,
    job: Job,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.wake_ns == other.wake_ns && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    // Reversed: BinaryHeap is a max-heap, we want the earliest wake first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .wake_ns
            .cmp(&self.wake_ns)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct Sched {
    ready_high: VecDeque<Job>,
    ready_low: VecDeque<Job>,
    delayed: BinaryHeap<Delayed>,
    in_flight: usize,
}

impl Sched {
    fn push_ready(&mut self, job: Job) {
        match job.tenant.cfg.priority {
            Priority::High => self.ready_high.push_back(job),
            Priority::Low => self.ready_low.push_back(job),
        }
    }

    fn pop_ready(&mut self) -> Option<Job> {
        self.ready_high
            .pop_front()
            .or_else(|| self.ready_low.pop_front())
    }

    fn queued(&self) -> usize {
        self.ready_high.len() + self.ready_low.len()
    }

    fn idle(&self) -> bool {
        self.queued() == 0 && self.delayed.is_empty() && self.in_flight == 0
    }
}

struct ServerInner {
    pool: Arc<ThreadPool>,
    cfg: ServeConfig,
    clock: ServeClock,
    cache: GraphCache,
    state: AtomicU8,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    idle_cv: Condvar,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    breakers: Mutex<HashMap<GraphKey, Arc<Mutex<Breaker>>>>,
    inject_counts: Mutex<HashMap<GraphKey, u64>>,
    counters: ServerCounters,
    next_id: AtomicU64,
    next_seq: AtomicU64,
}

impl ServerInner {
    fn trace_instant(&self, kind: EventKind, a: u16, b: u32) {
        let tr = self.pool.tracer();
        if tr.is_enabled() {
            let ring = tr.external_ring();
            let t = tr.now_ns();
            tr.record(
                ring,
                &TraceEvent {
                    kind,
                    worker: ring as u32,
                    task: NO_TASK,
                    t0_ns: t,
                    t1_ns: t,
                    a,
                    b,
                },
            );
        }
    }

    fn breaker_for(&self, key: GraphKey) -> Arc<Mutex<Breaker>> {
        Arc::clone(
            self.breakers
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(Breaker::new(self.cfg.breaker)))),
        )
    }

    fn trace_breaker_transition(&self, key: &GraphKey, state: BreakerState) {
        if state == BreakerState::Open {
            self.counters.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
        self.trace_instant(EventKind::Breaker, state.wire(), key.hash32());
    }

    /// Picks the injected-panic task for this attempt, or `None` for a
    /// clean attempt.  Deterministic: spec-level injection is a per-key
    /// counter, chaos draws from the job's seeded RNG.
    fn decide_inject(&self, job: &mut Job, task_count: usize) -> Option<u32> {
        if task_count == 0 {
            return None;
        }
        match job.spec.inject {
            InjectSpec::Always => Some(task_count as u32 / 2),
            InjectSpec::FirstK(k) => {
                let mut counts = self.inject_counts.lock();
                let c = counts.entry(job.key).or_insert(0);
                if *c < u64::from(k) {
                    *c += 1;
                    Some(task_count as u32 / 2)
                } else {
                    None
                }
            }
            InjectSpec::None => match self.cfg.chaos_panic_1_in {
                Some(rate) if rate > 0 => {
                    if job.rng.next_u64().is_multiple_of(rate) {
                        Some((job.rng.next_u64() % task_count as u64) as u32)
                    } else {
                        None
                    }
                }
                _ => None,
            },
        }
    }

    /// Delivers a terminal outcome for a job that is counted in-flight.
    fn finish_running(&self, job: Job, outcome: JobOutcome) {
        self.deliver(job, outcome);
        let mut s = self.sched.lock();
        s.in_flight -= 1;
        drop(s);
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
    }

    /// Delivers a terminal outcome for a job that was never dequeued
    /// (drain-deadline shedding).
    fn finish_queued(&self, job: Job, outcome: JobOutcome) {
        self.deliver(job, outcome);
        self.idle_cv.notify_all();
    }

    fn deliver(&self, job: Job, outcome: JobOutcome) {
        let tc = &job.tenant.counters;
        match &outcome {
            JobOutcome::Done { .. } => {
                self.counters.done.fetch_add(1, Ordering::Relaxed);
                tc.done.fetch_add(1, Ordering::Relaxed);
            }
            JobOutcome::Shed { .. } => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                tc.shed.fetch_add(1, Ordering::Relaxed);
            }
            JobOutcome::Poisoned { .. } => {
                self.counters.poisoned.fetch_add(1, Ordering::Relaxed);
                tc.poisoned.fetch_add(1, Ordering::Relaxed);
            }
        }
        job.tenant.release();
        self.counters.terminal.fetch_add(1, Ordering::Relaxed);
        // The submitter may have dropped its ticket; that is its right.
        let _ = job.tx.send(outcome);
    }

    /// Parks a job (counted in-flight) back onto the delayed queue.
    fn requeue_delayed(&self, job: Job, wake_ns: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut s = self.sched.lock();
        s.in_flight -= 1;
        s.delayed.push(Delayed { wake_ns, seq, job });
        drop(s);
        self.work_cv.notify_all();
    }

    /// One full attempt on a dequeued job: breaker gate, injection
    /// decision, execution, classification.
    fn run_job(self: &Arc<Self>, mut job: Job) {
        let now = self.clock.now_ns();
        let breaker = self.breaker_for(job.key);
        let gate = {
            let mut b = breaker.lock();
            let before = b.state();
            let gate = b.allow(now);
            let after = b.state();
            drop(b);
            if after != before {
                self.trace_breaker_transition(&job.key, after);
            }
            gate
        };
        if let Gate::Defer { until_ns } = gate {
            job.breaker_defers += 1;
            if job.breaker_defers > self.cfg.max_breaker_defers {
                let attempts = job.attempts;
                self.finish_running(
                    job,
                    JobOutcome::Shed {
                        reason: ShedReason::BreakerOpen,
                        attempts,
                    },
                );
            } else {
                self.requeue_delayed(job, until_ns.max(now + 1));
            }
            return;
        }

        let entry = self.cache.get_or_compile(job.key);
        let inject = self.decide_inject(&mut job, entry.task_count());
        job.attempts += 1;
        self.counters.attempts.fetch_add(1, Ordering::Relaxed);
        if inject.is_some() {
            self.counters
                .injected_faults
                .fetch_add(1, Ordering::Relaxed);
        }
        let budget = match self.cfg.run_deadline {
            Some(d) => RunBudget::with_deadline(d),
            None => RunBudget::UNBOUNDED,
        };
        let result = entry.run(&self.pool, &job.spec, inject, &budget);
        let now = self.clock.now_ns();
        match result {
            Ok(digest) => {
                entry.consecutive_faults.store(0, Ordering::Relaxed);
                if let Some(state) = breaker.lock().on_success() {
                    self.trace_breaker_transition(&job.key, state);
                }
                let attempts = job.attempts;
                let latency_ns = now.saturating_sub(job.accepted_ns);
                self.finish_running(
                    job,
                    JobOutcome::Done {
                        digest,
                        attempts,
                        latency_ns,
                    },
                );
            }
            Err(err) => {
                let faults = entry.consecutive_faults.fetch_add(1, Ordering::Relaxed) + 1;
                if faults >= self.cfg.quarantine_after {
                    self.cache.quarantine(&job.key);
                }
                self.trace_instant(EventKind::Fault, err.kind_wire(), job.key.hash32());
                if let Some(state) = breaker.lock().on_failure(now) {
                    self.trace_breaker_transition(&job.key, state);
                }
                if job.attempts >= self.cfg.retry.max_attempts {
                    let attempts = job.attempts;
                    self.finish_running(
                        job,
                        JobOutcome::Poisoned {
                            attempts,
                            error: err.to_string(),
                        },
                    );
                } else {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    job.tenant.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.cfg.retry.backoff_ns(job.attempts, &mut job.rng);
                    self.trace_instant(
                        EventKind::Retry,
                        job.attempts.min(u16::MAX as u32) as u16,
                        (backoff / 1_000).min(u32::MAX as u64) as u32,
                    );
                    // Draining: skip the backoff so the drain deadline is
                    // spent running, not sleeping.
                    let wake_ns = if self.state.load(Ordering::Acquire) >= STATE_DRAINING {
                        now
                    } else {
                        now + backoff
                    };
                    self.requeue_delayed(job, wake_ns);
                }
            }
        }
    }
}

fn runner_loop(inner: Arc<ServerInner>) {
    loop {
        let job = {
            let mut s = inner.sched.lock();
            loop {
                let state = inner.state.load(Ordering::Acquire);
                let now = inner.clock.now_ns();
                // Promote due delayed jobs (all of them once draining — the
                // remaining backoff is a luxury a drain cannot afford).
                while let Some(head) = s.delayed.peek() {
                    if head.wake_ns <= now || state >= STATE_DRAINING {
                        let d = s.delayed.pop().expect("peeked");
                        s.push_ready(d.job);
                    } else {
                        break;
                    }
                }
                if let Some(job) = s.pop_ready() {
                    s.in_flight += 1;
                    break Some(job);
                }
                if s.idle() {
                    inner.idle_cv.notify_all();
                    if state == STATE_STOPPED {
                        break None;
                    }
                }
                if let Some(head) = s.delayed.peek() {
                    if inner.clock.is_virtual() && s.in_flight == 0 {
                        // Nothing can create earlier work: jump the virtual
                        // clock to the next wake-up.
                        inner.clock.advance_to(head.wake_ns);
                        continue;
                    }
                    let wait_ns = head.wake_ns.saturating_sub(now).clamp(10_000, 1_000_000);
                    inner
                        .work_cv
                        .wait_for(&mut s, Duration::from_nanos(wait_ns));
                } else {
                    inner.work_cv.wait_for(&mut s, Duration::from_millis(1));
                }
            }
        };
        match job {
            Some(job) => inner.run_job(job),
            None => return,
        }
    }
}

/// The multi-tenant serving front door.  See the crate docs for the full
/// lifecycle; the short version:
///
/// 1. [`Server::register_tenant`] each tenant with its QoS envelope.
/// 2. [`Server::submit`] jobs; each acceptance returns a [`JobTicket`].
/// 3. [`JobTicket::wait`] for the exactly-once terminal [`JobOutcome`].
/// 4. [`Server::drain`] + [`Server::shutdown`] to stop without losing
///    anything.
pub struct Server {
    inner: Arc<ServerInner>,
    runners: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds a server multiplexing onto `pool` and starts its runners.
    pub fn new(pool: Arc<ThreadPool>, cfg: ServeConfig) -> Self {
        let clock = if cfg.virtual_clock {
            ServeClock::virtual_at(1)
        } else {
            ServeClock::wall()
        };
        let inner = Arc::new(ServerInner {
            pool,
            cfg,
            clock,
            cache: GraphCache::new(),
            state: AtomicU8::new(STATE_RUNNING),
            sched: Mutex::new(Sched::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            tenants: Mutex::new(HashMap::new()),
            breakers: Mutex::new(HashMap::new()),
            inject_counts: Mutex::new(HashMap::new()),
            counters: ServerCounters::default(),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
        });
        let runners = (0..cfg.runners)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nd-serve-runner-{i}"))
                    .spawn(move || runner_loop(inner))
                    .expect("failed to spawn runner thread")
            })
            .collect();
        Server { inner, runners }
    }

    /// Registers (or replaces) a tenant's QoS envelope.
    pub fn register_tenant(&self, name: &str, cfg: TenantConfig) {
        let now = self.inner.clock.now_ns();
        self.inner
            .tenants
            .lock()
            .insert(name.to_string(), Arc::new(TenantState::new(name, cfg, now)));
    }

    /// Submits a job for `tenant`.  A returned ticket means the job is
    /// **accepted** and will reach exactly one terminal outcome; an error
    /// means it was rejected up front and consumed nothing.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<JobTicket, ServeError> {
        let inner = &self.inner;
        if inner.state.load(Ordering::Acquire) != STATE_RUNNING {
            return Err(ServeError::Draining);
        }
        if !spec.is_valid() {
            return Err(ServeError::InvalidSpec);
        }
        let t = inner
            .tenants
            .lock()
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        t.counters.submitted.fetch_add(1, Ordering::Relaxed);
        t.try_admit(&inner.clock)?;
        let key = spec.key();
        let now = inner.clock.now_ns();
        let breaker_admits = inner
            .breakers
            .lock()
            .get(&key)
            .map(|b| b.lock().check_admit(now))
            .unwrap_or(true);
        if !breaker_admits {
            t.release();
            inner
                .counters
                .breaker_fast_rejects
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::BreakerOpen { key });
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        t.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let job = Job {
            tenant: Arc::clone(&t),
            spec,
            key,
            attempts: 0,
            breaker_defers: 0,
            rng: SplitMix64::new(
                inner.cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ spec.seed.rotate_left(17),
            ),
            accepted_ns: now,
            tx,
        };
        let mut s = inner.sched.lock();
        s.push_ready(job);
        drop(s);
        inner.work_cv.notify_one();
        Ok(JobTicket { id, rx })
    }

    /// Advances a virtual clock by `delta` and wakes the runners (no-op on a
    /// wall clock): the test/bench hook for fast-forwarding past backoffs
    /// and breaker cooldowns that no delayed job would otherwise reach.
    pub fn advance_clock(&self, delta: Duration) {
        self.inner.clock.advance(delta.as_nanos() as u64);
        self.inner.work_cv.notify_all();
    }

    /// `true` while the server admits new work.
    pub fn is_ready(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) == STATE_RUNNING
    }

    /// Graceful drain: stop admitting, run out every accepted job, and —
    /// only if `deadline` expires first — shed what is still queued with a
    /// terminal [`ShedReason::DrainDeadline`] outcome.  Either way every
    /// accepted job is terminal when this returns.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let inner = &self.inner;
        inner.state.fetch_max(STATE_DRAINING, Ordering::AcqRel);
        let pending = {
            let s = inner.sched.lock();
            (s.queued() + s.delayed.len() + s.in_flight) as u32
        };
        inner.trace_instant(EventKind::Drain, 0, pending);
        inner.work_cv.notify_all();
        let start = Instant::now();
        let mut shed = 0u64;
        let mut expired = false;
        loop {
            let mut s = inner.sched.lock();
            if s.idle() {
                break;
            }
            if start.elapsed() >= deadline {
                expired = true;
                // Deadline blown: everything still queued is shed with a
                // terminal outcome; in-flight runs are waited out (they are
                // bounded by the run deadline and the retry budget).
                let mut doomed: Vec<Job> = Vec::new();
                doomed.extend(s.ready_high.drain(..));
                doomed.extend(s.ready_low.drain(..));
                doomed.extend(s.delayed.drain().map(|d| d.job));
                drop(s);
                for job in doomed {
                    shed += 1;
                    let attempts = job.attempts;
                    inner.finish_queued(
                        job,
                        JobOutcome::Shed {
                            reason: ShedReason::DrainDeadline,
                            attempts,
                        },
                    );
                }
                loop {
                    let mut s = inner.sched.lock();
                    if s.idle() {
                        break;
                    }
                    inner.idle_cv.wait_for(&mut s, Duration::from_millis(1));
                }
                break;
            }
            inner.idle_cv.wait_for(&mut s, Duration::from_millis(1));
        }
        inner.trace_instant(EventKind::Drain, if expired { 2 } else { 1 }, 0);
        DrainReport {
            completed: !expired,
            shed,
            elapsed: start.elapsed(),
        }
    }

    /// Drains (with `deadline`), stops the runners, and joins them.
    pub fn shutdown(mut self, deadline: Duration) -> DrainReport {
        let report = self.drain(deadline);
        self.inner.state.store(STATE_STOPPED, Ordering::Release);
        self.inner.work_cv.notify_all();
        for handle in self.runners.drain(..) {
            handle.join().expect("serve runner panicked");
        }
        report
    }

    /// Health/readiness snapshot: queue depths, outcome counters, breaker
    /// states, per-tenant stats, pool counters.
    pub fn health(&self) -> HealthSnapshot {
        let inner = &self.inner;
        let (ready_jobs, delayed_jobs, in_flight) = {
            let s = inner.sched.lock();
            (s.queued(), s.delayed.len(), s.in_flight)
        };
        let c = &inner.counters;
        HealthSnapshot {
            state: match inner.state.load(Ordering::Acquire) {
                STATE_RUNNING => ServerState::Running,
                STATE_DRAINING => ServerState::Draining,
                _ => ServerState::Stopped,
            },
            ready_jobs,
            delayed_jobs,
            in_flight,
            accepted: c.accepted.load(Ordering::Relaxed),
            terminal: c.terminal.load(Ordering::Relaxed),
            done: c.done.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            poisoned: c.poisoned.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            attempts: c.attempts.load(Ordering::Relaxed),
            injected_faults: c.injected_faults.load(Ordering::Relaxed),
            breaker_trips: c.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_rejects: c.breaker_fast_rejects.load(Ordering::Relaxed),
            cache: inner.cache.snapshot(),
            breakers: inner
                .breakers
                .lock()
                .iter()
                .map(|(k, b)| (*k, b.lock().state()))
                .collect(),
            tenants: inner
                .tenants
                .lock()
                .values()
                .map(|t| t.snapshot())
                .collect(),
            pool: inner.pool.stats(),
        }
    }
}

impl Drop for Server {
    /// A dropped server still runs out its accepted work (runners execute
    /// everything queued before exiting), so no ticket is ever left without
    /// an outcome.  Use [`Server::shutdown`] for a bounded, reported stop.
    fn drop(&mut self) {
        self.inner.state.fetch_max(STATE_STOPPED, Ordering::AcqRel);
        self.inner.work_cv.notify_all();
        for handle in self.runners.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AlgoKind;
    use nd_algorithms::exec::Layout;

    fn spec(seed: u64) -> JobSpec {
        JobSpec::new(AlgoKind::Mm, 16, 8, Layout::RowMajor, seed)
    }

    fn test_server(cfg: ServeConfig) -> Server {
        let pool = Arc::new(ThreadPool::new(2));
        let server = Server::new(pool, cfg);
        server.register_tenant("t", TenantConfig::default());
        server
    }

    #[test]
    fn happy_path_jobs_complete_with_matching_digests() {
        let server = test_server(ServeConfig {
            virtual_clock: true,
            ..ServeConfig::default()
        });
        let t1 = server.submit("t", spec(1)).unwrap();
        let t2 = server.submit("t", spec(1)).unwrap();
        let t3 = server.submit("t", spec(2)).unwrap();
        let (o1, o2, o3) = (t1.wait(), t2.wait(), t3.wait());
        let digest = |o: &JobOutcome| match o {
            JobOutcome::Done { digest, .. } => *digest,
            other => panic!("expected Done, got {other:?}"),
        };
        assert_eq!(digest(&o1), digest(&o2), "same seed, same digest");
        assert_ne!(digest(&o1), digest(&o3));
        let report = server.shutdown(Duration::from_secs(10));
        assert!(report.completed && report.shed == 0);
    }

    #[test]
    fn submission_rejections_are_typed() {
        let server = test_server(ServeConfig::default());
        assert!(matches!(
            server.submit("nobody", spec(0)),
            Err(ServeError::UnknownTenant(_))
        ));
        let bad = JobSpec::new(AlgoKind::Mm, 48, 8, Layout::RowMajor, 0);
        assert!(matches!(
            server.submit("t", bad),
            Err(ServeError::InvalidSpec)
        ));
        let report = server.shutdown(Duration::from_secs(5));
        assert!(report.completed);
        // terminal accounting holds even for an idle server
        let _ = report;
    }

    #[test]
    fn drain_deadline_sheds_queued_jobs_with_terminal_outcomes() {
        // No runners: accepted jobs can only terminate via the drain path.
        let server = test_server(ServeConfig {
            runners: 0,
            ..ServeConfig::default()
        });
        let t1 = server.submit("t", spec(1)).unwrap();
        let t2 = server.submit("t", spec(2)).unwrap();
        assert!(server.is_ready());
        let report = server.drain(Duration::from_millis(30));
        assert!(!server.is_ready());
        assert!(!report.completed);
        assert_eq!(report.shed, 2);
        for t in [t1, t2] {
            match t.wait() {
                JobOutcome::Shed {
                    reason: ShedReason::DrainDeadline,
                    ..
                } => {}
                other => panic!("expected drain shed, got {other:?}"),
            }
        }
        let h = server.health();
        assert_eq!(h.accepted, h.terminal, "nothing may be lost");
        assert!(matches!(
            server.submit("t", spec(3)),
            Err(ServeError::Draining)
        ));
        server.shutdown(Duration::from_millis(10));
    }

    #[test]
    fn chaos_faults_retry_to_done_with_clean_digests() {
        // Heavy chaos (1 in 3 attempts panics) still converges: the retry
        // budget is deep enough that every job lands Done, and digests are
        // bit-identical to the clean run.
        let clean = test_server(ServeConfig {
            virtual_clock: true,
            ..ServeConfig::default()
        });
        let reference = match clean.submit("t", spec(9)).unwrap().wait() {
            JobOutcome::Done { digest, .. } => digest,
            other => panic!("clean run failed: {other:?}"),
        };
        clean.shutdown(Duration::from_secs(5));

        let server = test_server(ServeConfig {
            virtual_clock: true,
            chaos_panic_1_in: Some(3),
            retry: RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            // Chaos this dense trips breakers by design; keep them lenient
            // so the availability claim stays about retries.
            breaker: BreakerConfig {
                failure_threshold: 50,
                cooldown: Duration::from_millis(1),
            },
            seed: 42,
            ..ServeConfig::default()
        });
        let tickets: Vec<_> = (0..24)
            .map(|_| server.submit("t", spec(9)).unwrap())
            .collect();
        let mut retried = 0u64;
        for t in tickets {
            match t.wait() {
                JobOutcome::Done {
                    digest, attempts, ..
                } => {
                    assert_eq!(digest, reference, "retried run must be bit-identical");
                    retried += u64::from(attempts - 1);
                }
                other => panic!("expected Done under retry, got {other:?}"),
            }
        }
        let h = server.health();
        assert!(h.injected_faults > 0, "chaos must have fired");
        assert_eq!(h.retries, retried);
        assert_eq!(h.accepted, h.terminal);
        let report = server.shutdown(Duration::from_secs(10));
        assert!(report.completed);
    }
}
