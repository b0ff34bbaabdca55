//! The conformance loop: schedules sampled from the model replay through the
//! *real* executor, proving the model and the implementation agree.
//!
//! A sampled schedule is one maximal path through the model — a seeded random
//! walk over the exact transition system the checker explores.  Its claim
//! order is then driven through [`nd_runtime::ScheduleDriver`], which
//! executes a real [`CompiledGraph`] one claim at a time on this thread using
//! the production protocol code (`claim_restore`, `finish_successors`, a real
//! `CountLatch` and fault cell).  The checks:
//!
//! 1. **Every model claim is accepted.**  The driver refuses double claims
//!    and claims of unready tasks, so acceptance of the whole order — and a
//!    bit-identical `claim_order()` — means the model only predicts schedules
//!    the implementation can take.
//! 2. **Fault partitions agree.**  For a panic fault the executed/drained
//!    split matches exactly on single-worker schedules; on multi-worker
//!    schedules the driver serializes the claims, so a task the model ran
//!    concurrently with the panic may drain in the replay — the agreement is
//!    the envelope `driver-executed ⊆ model-executed` and `model-drained ⊆
//!    driver-drained`.  For a deadline trip the split matches exactly at any
//!    worker count (cancellation happens *at a claim* in both).
//! 3. **The final verdict matches**: same `RunError` variant (and panicking
//!    task), and the graph's counters are bit-restored afterwards.

use crate::dag::Dag;
use crate::model::{Action, Config, Fault, Model, Mutation};
use nd_runtime::{CompiledGraph, PanicAt, RunError, ScheduleDriver, StepOutcome, TaskTable};
use std::sync::Arc;
use std::time::Duration;

/// One maximal path through the model, projected to what the executor can
/// observe.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub dag: Dag,
    pub workers: usize,
    pub fault: Fault,
    /// Tasks in model claim order.
    pub claim_order: Vec<u8>,
    /// Bitmask of tasks whose work ran in the model.
    pub executed: u8,
    /// Bitmask of tasks the model drained.
    pub drained: u8,
    /// For [`Fault::DeadlineAnytime`] walks that tripped: the position in
    /// `claim_order` at which the deadline was observed blown.
    pub deadline_trip_at: Option<usize>,
}

/// Samples one schedule: a uniformly-random maximal path through `config`'s
/// transition system (xorshift64* seeded with `seed`, so samples are
/// reproducible).  `config.runs` should be 1 — the driver replays a single
/// execution.
pub fn sample_schedule(config: &Config, seed: u64) -> Schedule {
    assert_eq!(config.runs, 1, "replay covers a single run");
    assert_eq!(
        config.mutation,
        Mutation::None,
        "replay needs the faithful model"
    );
    let model = Model::new(*config);
    let mut rng = seed.wrapping_mul(2).wrapping_add(1); // any odd nonzero seed
    let mut state = model.initial_state();
    let mut claim_order = Vec::new();
    let mut deadline_trip_at = None;
    loop {
        let succs = model.successors(&state);
        if succs.is_empty() {
            break;
        }
        let (action, next) = &succs[next_index(&mut rng, succs.len())];
        if let Action::Claim {
            task,
            deadline_trips,
            ..
        } = *action
        {
            if deadline_trips {
                deadline_trip_at = Some(claim_order.len());
            }
            claim_order.push(task);
        }
        state = next
            .as_ref()
            .expect("faithful model has no violations")
            .clone();
    }
    Schedule {
        dag: config.dag,
        workers: config.workers,
        fault: config.fault,
        claim_order,
        executed: state.executed,
        drained: state.drained,
        deadline_trip_at,
    }
}

fn next_index(rng: &mut u64, len: usize) -> usize {
    // xorshift64* — plain Rust, no `rand` needed for a test-space sampler.
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    (rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % len as u64) as usize
}

/// The replayed strands carry no work: the executor's observables are its
/// claim order and fault protocol, not data.
struct ReplayTable;

impl TaskTable for ReplayTable {
    fn run_task(&self, _task: u32) {}
    fn task_label(&self, _task: u32) -> &'static str {
        "model-replay"
    }
}

/// Replays `schedule` through the real executor and cross-checks every
/// observable against the model's prediction.  Returns a human-readable
/// description of the first disagreement, if any.
pub fn replay_through_executor(schedule: &Schedule) -> Result<(), String> {
    let graph = Arc::new(CompiledGraph::from_edges(
        schedule.dag.task_count(),
        &schedule.dag.edges(),
        Vec::new(),
    ));
    let table = Arc::new(ReplayTable);
    match schedule.fault {
        Fault::PanicAt(t) => replay_on(
            schedule,
            &graph,
            &Arc::new(PanicAt::new(table, u32::from(t))),
        ),
        _ => replay_on(schedule, &graph, &table),
    }
}

/// [`replay_through_executor`] with the table (plain or fault-wrapped)
/// chosen.
fn replay_on<T: TaskTable>(
    schedule: &Schedule,
    graph: &Arc<CompiledGraph>,
    table: &Arc<T>,
) -> Result<(), String> {
    let mut driver = ScheduleDriver::new(graph, table);

    let mut driver_executed = 0u8;
    let mut driver_drained = 0u8;
    let mut driver_panicked = None;
    for (i, &task) in schedule.claim_order.iter().enumerate() {
        if schedule.deadline_trip_at == Some(i) {
            // The model observed the armed deadline blown at this claim; the
            // driver's budget is wall-clock, so the trip is mirrored through
            // the same first-fault-wins path a worker would take.
            driver.cancel(RunError::DeadlineExceeded {
                deadline: Duration::from_millis(1),
                elapsed: Duration::from_millis(2),
            });
        }
        match driver.step(task as u32) {
            Ok(StepOutcome::Executed) => driver_executed |= 1 << task,
            Ok(StepOutcome::Drained) => driver_drained |= 1 << task,
            Ok(StepOutcome::Panicked) => driver_panicked = Some(task),
            Err(e) => {
                return Err(format!(
                    "executor rejected model claim #{i} of t{task}: {e} \
                     (model order {:?})",
                    schedule.claim_order
                ))
            }
        }
    }

    let driver_order: Vec<u8> = driver.claim_order().iter().map(|&t| t as u8).collect();
    if driver_order != schedule.claim_order {
        return Err(format!(
            "claim order diverged: model {:?}, executor {:?}",
            schedule.claim_order, driver_order
        ));
    }

    // Partition agreement (see module docs for why multi-worker panic
    // schedules get an envelope rather than equality).
    let exact =
        schedule.workers == 1 || matches!(schedule.fault, Fault::None | Fault::DeadlineAnytime);
    if exact {
        if driver_executed != schedule.executed || driver_drained != schedule.drained {
            return Err(format!(
                "partition diverged: model executed {:#08b} drained {:#08b}, \
                 executor executed {driver_executed:#08b} drained {driver_drained:#08b}",
                schedule.executed, schedule.drained
            ));
        }
    } else {
        if driver_executed & !schedule.executed != 0 {
            return Err(format!(
                "executor executed tasks the model did not: {:#08b} ⊄ {:#08b}",
                driver_executed, schedule.executed
            ));
        }
        if schedule.drained & !driver_drained != 0 {
            return Err(format!(
                "model drained tasks the executor did not: {:#08b} ⊄ {:#08b}",
                schedule.drained, driver_drained
            ));
        }
    }
    if let Fault::PanicAt(k) = schedule.fault {
        if driver_panicked != Some(k) {
            return Err(format!(
                "expected the replay to panic at t{k}, got {driver_panicked:?}"
            ));
        }
    }

    let verdict = driver.finish();
    match (schedule.fault, schedule.deadline_trip_at, verdict) {
        (Fault::None, _, Ok(())) => {}
        (Fault::DeadlineAnytime, None, Ok(())) => {}
        (Fault::PanicAt(k), _, Err(RunError::Panicked { task, .. })) if task == k as u32 => {}
        (Fault::DeadlineAnytime, Some(_), Err(RunError::DeadlineExceeded { .. })) => {}
        (fault, trip, verdict) => {
            return Err(format!(
                "final verdict diverged: fault {fault:?}, trip {trip:?}, executor said {verdict:?}"
            ))
        }
    }
    if !graph.counters_are_reset() {
        return Err("graph counters not restored after replay".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::enumerate_dags;

    fn single_run(dag: Dag, workers: usize, fault: Fault) -> Config {
        let mut c = Config::new(dag, workers, fault);
        c.runs = 1;
        c
    }

    #[test]
    fn sampled_schedules_replay_bit_identically() {
        // ≥ 50 schedules across DAG shapes, worker counts and faults — the
        // acceptance bar for model/executor agreement.
        let mut replayed = 0usize;
        for (i, dag) in enumerate_dags(4).into_iter().enumerate() {
            for workers in 1..=3usize {
                let faults = [
                    Fault::None,
                    Fault::PanicAt((i % dag.task_count()) as u8),
                    Fault::DeadlineAnytime,
                ];
                for (f, fault) in faults.into_iter().enumerate() {
                    let seed = (i as u64) << 8 | (workers as u64) << 4 | f as u64;
                    let schedule = sample_schedule(&single_run(dag, workers, fault), seed ^ 0xDEAD);
                    assert_eq!(schedule.claim_order.len(), dag.task_count());
                    replay_through_executor(&schedule).unwrap();
                    replayed += 1;
                }
            }
        }
        assert!(replayed >= 50, "only {replayed} schedules replayed");
    }

    #[test]
    fn distinct_seeds_reach_distinct_interleavings() {
        let fork = Dag::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let orders: std::collections::HashSet<Vec<u8>> = (0..32)
            .map(|seed| sample_schedule(&single_run(fork, 2, Fault::None), seed).claim_order)
            .collect();
        assert!(orders.len() > 1, "sampler is degenerate");
        for order in &orders {
            assert_eq!(order[0], 0, "root must be claimed first");
        }
    }

    #[test]
    fn a_corrupted_schedule_is_rejected_by_the_executor() {
        // Flip a dependency-ordered pair: the driver must refuse it.  This is
        // the negative control for check #1 — acceptance is meaningful
        // because rejection is possible.
        let chain = Dag::from_edges(3, &[(0, 1), (1, 2)]);
        let mut schedule = sample_schedule(&single_run(chain, 1, Fault::None), 7);
        assert_eq!(schedule.claim_order, vec![0, 1, 2]);
        schedule.claim_order.swap(1, 2);
        let err = replay_through_executor(&schedule).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
    }
}
