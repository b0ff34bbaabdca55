//! Helpers shared by the workspace integration-test binaries.

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
#[allow(dead_code)] // not every test binary that includes `common` uses it
pub struct BoxedTasks(pub Vec<Box<dyn Fn() + Send + Sync>>);

impl nd_runtime::TaskTable for BoxedTasks {
    fn run_task(&self, task: u32) {
        (self.0[task as usize])()
    }
}
