//! The run fingerprint printed with every result: host, kernel path, build
//! and the `ND_*` environment, so numbers from different machines or builds
//! are never compared unknowingly.

use std::process::Command;

/// Runs `cmd args…` and returns its trimmed stdout, or `"unknown"`.  Git
/// may not look above the working directory, so a checkout that is not a
/// repository reports `unknown` rather than an enclosing repository's SHA.
fn command_output(cmd: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The fingerprint as one JSON object.  `workers` is the pool size `p` the
/// workload ran with.
pub fn fingerprint_json(workload: &str, seed: u64, trace: bool, workers: usize) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let host = nd_pmh::topology::detect_host();
    let caches: Vec<String> = host
        .config
        .levels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            format!(
                "{{\"level\":{},\"bytes\":{},\"fanout\":{}}}",
                i + 1,
                l.size * 8,
                l.fanout
            )
        })
        .collect();
    let mut nd_env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ND_"))
        .collect();
    nd_env.sort();
    let env: Vec<String> = nd_env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"workers\":{},\"nproc\":{},\
\"cpu_model\":{},\"topology_source\":{},\"caches\":[{}],\"kernel\":{},\
\"git_sha\":{},\"rustc\":{},\"nd_env\":{{{}}}}}",
        json_str(workload),
        seed,
        trace,
        workers,
        nd_pmh::topology::available_threads(),
        json_str(&cpu_model),
        json_str(&format!("{:?}", host.source)),
        caches.join(","),
        json_str(nd_linalg::simd::kernel_name()),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
        json_str(&command_output("rustc", &["--version"])),
        env.join(",")
    )
}
