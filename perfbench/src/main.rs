//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and the metrics
//! (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`).
//! Exits 1 if any correctness gate failed, 2 on bad arguments.

use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let trace = trace == 1;
    let start = std::time::Instant::now();
    let Some(out) = perfbench::run(&workload, seed, seconds, trace) else {
        return usage(&format!("unknown workload {workload}"));
    };
    eprintln!(
        "perfbench: {workload} seed {seed} trace {} took {:.1} s, peak RSS {} MiB",
        u8::from(trace),
        start.elapsed().as_secs_f64(),
        perfbench::sys::peak_rss_bytes() >> 20
    );
    for w in &out.warnings {
        eprintln!("perfbench: warning: {w}");
    }
    for v in &out.violations {
        eprintln!("perfbench: correctness gate failed: {v}");
    }
    println!("{}", out.to_json(trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
