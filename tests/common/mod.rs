//! Helpers shared by the workspace integration-test binaries.

// Not every test binary that includes `common` uses every helper.
#![allow(dead_code)]

/// Worker counts the executor suites exercise.  `ND_POOL_WORKERS` (set by the
/// CI pool-size matrix) pins a single count; without it the suites run 1, 2
/// and 8 workers.
pub fn pool_sizes() -> Vec<usize> {
    match std::env::var("ND_POOL_WORKERS") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("ND_POOL_WORKERS must be a worker count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// A boxed-closure task table: task `t` runs the `t`-th closure.
pub struct BoxedTasks(pub Vec<Box<dyn Fn() + Send + Sync>>);

impl nd_runtime::TaskTable for BoxedTasks {
    fn run_task(&self, task: u32) {
        (self.0[task as usize])()
    }
}

/// The two cache-hierarchy machines the anchored suites run on: one socket of
/// 2×2 workers and two sockets of 2×2 workers (1 KiB L1s under 16 KiB L2s).
pub fn machine_layouts() -> Vec<nd_pmh::machine::MachineTree> {
    use nd_pmh::config::{CacheLevelSpec, PmhConfig};
    [1, 2]
        .into_iter()
        .map(|sockets| {
            nd_pmh::machine::MachineTree::build(&PmhConfig::new(
                vec![
                    CacheLevelSpec::new(1 << 10, 2, 10),
                    CacheLevelSpec::new(1 << 14, 2, 100),
                ],
                sockets,
            ))
        })
        .collect()
}

/// A labelled executor, as the driver entry points take it.
pub type NamedExecutor = (String, Box<dyn nd_algorithms::driver::Executor>);

/// Flat work-stealing pools of the given sizes, built lazily one at a time.
pub fn flat_executors(sizes: Vec<usize>) -> impl Iterator<Item = NamedExecutor> {
    sizes.into_iter().map(|workers| {
        let exec: Box<dyn nd_algorithms::driver::Executor> =
            Box::new(nd_runtime::ThreadPool::new(workers));
        (format!("flat, {workers} workers"), exec)
    })
}

/// Anchored pools (nearest-first stealing) on the given machines, built
/// lazily one at a time.
pub fn anchored_executors(
    machines: Vec<nd_pmh::machine::MachineTree>,
) -> impl Iterator<Item = NamedExecutor> {
    machines.into_iter().enumerate().map(|(i, machine)| {
        let exec: Box<dyn nd_algorithms::driver::Executor> = Box::new(
            nd_exec::HierarchicalPool::new(machine, nd_exec::StealPolicy::NearestFirst),
        );
        (format!("anchored, machine {i}"), exec)
    })
}
