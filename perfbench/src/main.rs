//! Command line of the benchmark:
//!
//! ```sh
//! env MALLOC_MMAP_THRESHOLD_=131072 cargo run --release \
//!     --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot_pvfs|serve_scan|serve_hot> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable context, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero on
//! a wrong answer, a broken ledger identity, a run that cannot start, or
//! one still unfinished `seconds + 120` s after it began.

use std::path::PathBuf;
use std::time::Duration;

use parblast_perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <oneshot_pvfs|serve_scan|serve_hot> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == key)
            .map(|i| match args.get(i + 1) {
                Some(v) => v.as_str(),
                None => usage(&format!("{key} needs a value")),
            })
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Workload::parse(workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !seconds.is_finite() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace takes 0 or 1, not {other}")),
    };
    Config {
        workload,
        seed,
        seconds,
        trace,
        tiny: false,
        // Inside the checkout the benchmark runs from; removed afterwards.
        work_dir: PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    }
}

/// End the process with an error once a run has gone on far longer than
/// it can take: a query or batch that never completes must fail the run,
/// not hang it. The thread is left detached on purpose: the process exit
/// at the end of `main` ends it, or it ends the process.
fn start_watchdog(cfg: &Config) {
    let limit = Duration::from_secs_f64(cfg.seconds + 120.0);
    let work_dir = cfg.work_dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "benchmark failed: no result after {} s; a query or batch never completed",
            limit.as_secs()
        );
        // Best effort: the run is failing anyway.
        let _ = std::fs::remove_dir_all(&work_dir);
        std::process::exit(3);
    });
}

fn main() {
    let cfg = parse_args();
    start_watchdog(&cfg);
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let set: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in set {
        println!("{name:<36} {:>14.4} {unit}", report.get(name));
    }
    for e in &report.errors {
        println!("# WRONG: {e}");
    }
    println!("{}", report.json(cfg.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
