//! `nd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run fingerprint, then (last line) one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.  Notes — failures and
//! metrics a workload cannot measure — go to stderr.

use nd_perfbench::workloads::{workers, RunConfig, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: nd-perfbench --workload <dense|anchored|serve> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

/// Limits glibc's malloc to one arena.  By default a thread that finds its
/// arena locked gets a new one, so which arenas the pool, runner and
/// generator threads touch depends on timing, and `peak_rss_mb` moved by
/// 3 MiB (20% of `serve`'s) between runs of the same code.  With one arena
/// the peak follows what the program allocates.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets a tunable, and no other thread exists yet.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
        plant_wrong_output: false,
    };
    println!(
        "{{\"fingerprint\": {}}}",
        nd_perfbench::fingerprint::fingerprint_json(workload.name(), seed, trace, workers())
    );
    let mut report = nd_perfbench::run(&cfg);
    let line = report.result_line(trace);
    for note in report.notes() {
        eprintln!("note: {note}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
