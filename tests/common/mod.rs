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

/// Deterministic random predecessor lists: task `j` depends on each task in a
/// window of the 24 earlier tasks with probability `density_percent`%.
/// (Edges always point forward, so the graph is acyclic by construction.)
pub fn random_preds(n: usize, density_percent: u64, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, p) in preds.iter_mut().enumerate().skip(1) {
        let window = 24.min(j);
        for i in (j - window)..j {
            if next() % 100 < density_percent {
                p.push(i);
            }
        }
    }
    preds
}

/// The `(from, to)` edge list of predecessor lists.
pub fn edges_of(preds: &[Vec<usize>]) -> Vec<(u32, u32)> {
    preds
        .iter()
        .enumerate()
        .flat_map(|(j, ps)| ps.iter().map(move |&i| (i as u32, j as u32)))
        .collect()
}

/// A deterministic dataflow computation: task `j` writes
/// `out[j] = 1 + Σ out[preds(j)]` (wrapping) and bumps its run counter —
/// a pure function of the DAG, so any two complete runs agree bit-for-bit.
pub struct SumTable {
    pub preds: Vec<Vec<usize>>,
    pub out: Vec<std::sync::atomic::AtomicU64>,
    pub runs: Vec<std::sync::atomic::AtomicU64>,
}

impl SumTable {
    pub fn new(preds: Vec<Vec<usize>>) -> Self {
        use std::sync::atomic::AtomicU64;
        let n = preds.len();
        SumTable {
            preds,
            out: (0..n).map(|_| AtomicU64::new(0)).collect(),
            runs: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The current outputs.
    pub fn snapshot(&self) -> Vec<u64> {
        use std::sync::atomic::Ordering;
        self.out.iter().map(|v| v.load(Ordering::SeqCst)).collect()
    }
}

impl nd_runtime::TaskTable for SumTable {
    fn run_task(&self, task: u32) {
        use std::sync::atomic::Ordering;
        let j = task as usize;
        let sum = self.preds[j].iter().fold(0u64, |acc, &p| {
            acc.wrapping_add(self.out[p].load(Ordering::SeqCst))
        });
        self.out[j].store(sum.wrapping_add(1), Ordering::SeqCst);
        self.runs[j].fetch_add(1, Ordering::SeqCst);
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
