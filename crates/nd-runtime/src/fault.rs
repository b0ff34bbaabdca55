//! nd-fault: the executor's failure story — typed run errors, run budgets,
//! and overload-shedding admission policies.
//!
//! Until this module existed the runtime had no way to *report* failure: a
//! panicking strand unwound through the worker loop and silently killed that
//! worker, `execute` could only return statistics or hang, and nothing
//! bounded queue growth under load.  The three pieces here close those holes:
//!
//! * [`RunError`] — what a graph execution returns instead of hanging or
//!   aborting: the panicked strand (task index, operation kind, payload), or
//!   the blown [`RunBudget`] deadline.  On error the run is *cancelled*:
//!   workers stop claiming work for it and the remaining tasks drain to the
//!   completion latch without executing, so the submitting thread always gets
//!   its `Err` back.  Recovery is `reset()` + re-execute (bit-identical to an
//!   unfaulted run; see `CompiledGraph::reset`).
//! * [`RunBudget`] — a per-run wall-clock deadline checked at claim
//!   boundaries (the same exactly-once point the dependency counters
//!   guarantee), so a runaway run degrades into a fast structural drain
//!   rather than unbounded occupancy.
//! * [`AdmissionConfig`] / [`OverloadPolicy`] — a bounded-injection admission
//!   layer on the pool's external submission path: a configurable high-water
//!   mark on outstanding jobs, enforced by [`OverloadPolicy::Block`] (the
//!   submitter waits), [`OverloadPolicy::Shed`] (the job is refused and
//!   counted), or [`OverloadPolicy::Degrade`] (low-[`Priority`] submissions
//!   are serialised through an overflow queue, trickling in one per
//!   completion — the rt-drl-style criticality switch: high-priority work is
//!   always admitted, low-priority work degrades first).
//!
//! The module is plain data + policy; the enforcement lives at the pool's
//! submission path (`ThreadPool::submit`) and the dataflow executor's claim
//! sites.

use std::fmt;
use std::time::Duration;

/// Operation-kind label carried by [`RunError::Panicked`] when the task table
/// does not override [`TaskTable::task_label`](crate::dataflow::TaskTable::task_label).
pub const GENERIC_TASK_LABEL: &str = "task";

/// Why a graph execution failed.
///
/// Returned by every `execute` entry point (`CompiledGraph::execute`,
/// `PersistentRun::execute` and everything layered on them).  The run is fully drained before the error is returned: every
/// task was claimed exactly once (executed or skipped), the dependency
/// counters are back at their initial values, and the pool is fully usable.
/// Call `reset()` on the graph before re-executing — it re-asserts the
/// counters and clears the in-flight guard — and re-initialise the runtime
/// data the faulted run may have half-written; the re-run is then
/// bit-identical to an unfaulted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A strand panicked.  The unwind was caught at the execution site, the
    /// worker survived, and the rest of the run was cancelled.
    Panicked {
        /// Graph index of the panicked task.
        task: u32,
        /// Operation kind of the panicked task (from
        /// [`TaskTable::task_label`](crate::dataflow::TaskTable::task_label);
        /// [`GENERIC_TASK_LABEL`] when the table carries no kinds).
        op_kind: &'static str,
        /// The panic payload, rendered to a string (`"<non-string panic
        /// payload>"` when the payload was not a string).
        payload: String,
    },
    /// The run's wall-clock [`RunBudget`] deadline passed before every task
    /// had been claimed.  Tasks claimed after the deadline are skipped, so
    /// the run drains structurally instead of finishing its work.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Wall-clock time from run start to the claim that noticed the
        /// overrun.
        elapsed: Duration,
    },
}

impl RunError {
    /// Renders a caught panic payload the way [`RunError::Panicked`] carries
    /// it: `&str` and `String` payloads verbatim, anything else as a fixed
    /// marker.
    pub fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    }

    /// The graph task this error concerns ([`RunError::Panicked`] only).
    pub fn task(&self) -> Option<u32> {
        match self {
            RunError::Panicked { task, .. } => Some(*task),
            RunError::DeadlineExceeded { .. } => None,
        }
    }

    /// Stable wire discriminant, recorded in trace `Fault` events.
    pub fn kind_wire(&self) -> u16 {
        match self {
            RunError::Panicked { .. } => 0,
            RunError::DeadlineExceeded { .. } => 1,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked {
                task,
                op_kind,
                payload,
            } => {
                write!(f, "task {task} ({op_kind}) panicked: {payload}")
            }
            RunError::DeadlineExceeded { deadline, elapsed } => {
                write!(f, "run deadline of {deadline:?} exceeded after {elapsed:?}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Per-run resource limits, checked at claim boundaries.
///
/// The default budget is unbounded — `execute` without a budget behaves
/// exactly as before.  A deadline turns a run that overstays its wall-clock
/// allowance into [`RunError::DeadlineExceeded`]: the first claim past the
/// deadline cancels the run, and the remaining tasks drain to the latch
/// without executing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock allowance from run start; `None` = unbounded.
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// The unbounded budget (no deadline).
    pub const UNBOUNDED: RunBudget = RunBudget { deadline: None };

    /// A budget with the given wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        RunBudget {
            deadline: Some(deadline),
        }
    }
}

/// What the pool does with an external submission that would push the number
/// of outstanding admitted jobs past the configured high-water mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// The submitting thread blocks until the pool drains below the mark.
    /// Backpressure: nothing is lost, submission rate is clamped to
    /// completion rate.
    Block,
    /// The submission is refused ([`SubmitOutcome::Shed`]) and counted in
    /// [`PoolStats::jobs_shed`](crate::pool::PoolStats::jobs_shed).  The
    /// caller keeps the job (see `ThreadPool::try_submit`) and decides
    /// whether to retry, redirect, or drop.
    Shed,
    /// The rt-drl-style criticality switch: [`Priority::High`] submissions
    /// are always admitted (the mark may be exceeded by critical work), while
    /// [`Priority::Low`] submissions past the mark are *serialised* — parked
    /// in a FIFO overflow queue and injected one per completed job, so
    /// low-priority load trickles through without ever growing the queues.
    Degrade,
}

impl OverloadPolicy {
    /// Stable wire discriminant, recorded in trace `Shed` events.
    pub fn kind_wire(self) -> u16 {
        match self {
            OverloadPolicy::Block => 0,
            OverloadPolicy::Shed => 1,
            OverloadPolicy::Degrade => 2,
        }
    }
}

/// Criticality of an external submission, consulted by
/// [`OverloadPolicy::Degrade`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Critical work: always admitted, even past the high-water mark.
    High,
    /// Degradable work: serialised through the overflow queue under
    /// [`OverloadPolicy::Degrade`].
    Low,
}

/// The bounded-injection admission layer's configuration (see
/// `ThreadPool::with_admission`).
///
/// `high_water` bounds the number of *outstanding* admitted external jobs —
/// submitted and not yet finished executing.  Only the external submission
/// path (`ThreadPool::spawn` / `submit` / `try_submit`) is admission
/// controlled; work spawned by running jobs and compiled-graph strands is
/// bounded by its graph and bypasses the layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum outstanding admitted external jobs.
    pub high_water: usize,
    /// What to do with submissions past the mark.
    pub policy: OverloadPolicy,
}

impl AdmissionConfig {
    /// An admission layer bounding outstanding jobs at `high_water` under the
    /// given policy.
    ///
    /// # Panics
    /// Panics if `high_water` is zero (no job could ever be admitted).
    pub fn new(high_water: usize, policy: OverloadPolicy) -> Self {
        assert!(high_water > 0, "admission high-water mark must be positive");
        AdmissionConfig { high_water, policy }
    }
}

/// What happened to an external submission (see `ThreadPool::submit`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was injected and counts against the high-water mark until it
    /// finishes (possibly after blocking, under [`OverloadPolicy::Block`]).
    Admitted,
    /// The job was refused under [`OverloadPolicy::Shed`] and will not run.
    Shed,
    /// The job was parked in the overflow queue under
    /// [`OverloadPolicy::Degrade`]; it runs later, serialised behind the
    /// currently outstanding work.
    Degraded,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_error_renders_both_variants() {
        let p = RunError::Panicked {
            task: 7,
            op_kind: "gemm",
            payload: "boom".into(),
        };
        assert_eq!(p.to_string(), "task 7 (gemm) panicked: boom");
        assert_eq!(p.task(), Some(7));
        assert_eq!(p.kind_wire(), 0);
        let d = RunError::DeadlineExceeded {
            deadline: Duration::from_millis(5),
            elapsed: Duration::from_millis(9),
        };
        assert!(d.to_string().contains("deadline"));
        assert_eq!(d.task(), None);
        assert_eq!(d.kind_wire(), 1);
    }

    #[test]
    fn payload_string_handles_the_three_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(RunError::payload_string(&*s), "static");
        let o: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(RunError::payload_string(&*o), "owned");
        let n: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(RunError::payload_string(&*n), "<non-string panic payload>");
    }

    /// `RunError` must cross service/API boundaries: boxable into
    /// `Box<dyn Error + Send + Sync>` (the `anyhow`-style erased type) with
    /// the `Display` rendering intact, and convertible through `?`.
    #[test]
    fn run_error_crosses_an_erased_error_boundary() {
        fn serve() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
            Err(RunError::Panicked {
                task: 3,
                op_kind: "trsm",
                payload: "boundary".into(),
            })?; // `?` must auto-box via From<RunError>
            Ok(())
        }
        let boxed = serve().unwrap_err();
        assert_eq!(boxed.to_string(), "task 3 (trsm) panicked: boundary");
        // Downcast back to the typed error on the far side of the boundary.
        let typed = boxed.downcast::<RunError>().expect("downcasts back");
        assert_eq!(typed.task(), Some(3));
        // And the plain single-threaded erased form works too.
        let d: Box<dyn std::error::Error> = Box::new(RunError::DeadlineExceeded {
            deadline: Duration::from_millis(1),
            elapsed: Duration::from_millis(2),
        });
        assert!(d.to_string().contains("deadline"));
        assert!(d.source().is_none());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_high_water_is_rejected() {
        let _ = AdmissionConfig::new(0, OverloadPolicy::Block);
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(RunBudget::default(), RunBudget::UNBOUNDED);
        assert_eq!(
            RunBudget::with_deadline(Duration::from_secs(1)).deadline,
            Some(Duration::from_secs(1))
        );
    }
}
