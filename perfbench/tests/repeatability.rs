//! Every workload at a tiny size, twice with one seed: each run must check
//! out, the deterministic counts of `oneshot_pvfs` must repeat exactly, and
//! another seed must change the inputs.

use std::path::PathBuf;

use parblast_perfbench::{data, run, Config, Report, Workload};

fn tiny_run(workload: Workload, seed: u64, tag: &str) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 1.0,
        trace: true,
        tiny: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-{tag}-{}",
            workload.name(),
            std::process::id()
        )),
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{} did not run: {e}", workload.name()));
    assert!(
        report.correct(),
        "{} seed {seed}: {:?}",
        workload.name(),
        report.errors
    );
    assert_eq!(report.failed, 0, "{} seed {seed}", workload.name());
    report
}

const COUNTS: [&str; 4] = [
    "mpiblast.kernel_passes_per_query",
    "pio.server_requests_per_query",
    "pio.bytes_per_query",
    "blast.hits_per_query",
];

#[test]
fn oneshot_counts_repeat_exactly_and_follow_the_seed() {
    let a = tiny_run(Workload::OneshotPvfs, 7, "a");
    let b = tiny_run(Workload::OneshotPvfs, 7, "b");
    for name in COUNTS {
        assert!(a.get(name) > 0.0, "{name} was not measured");
        assert_eq!(a.get(name), b.get(name), "{name} differs between runs");
    }
    let other = tiny_run(Workload::OneshotPvfs, 8, "c");
    assert_ne!(
        a.get("pio.bytes_per_query"),
        other.get("pio.bytes_per_query"),
        "another seed staged the same database"
    );
}

#[test]
fn served_workloads_check_out_twice() {
    for w in [Workload::ServeScan, Workload::ServeHot] {
        let a = tiny_run(w, 7, "a");
        let b = tiny_run(w, 7, "b");
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
        assert!(a.get("trace.latency_p50_ms") > 0.0, "{}", w.name());
        assert_eq!(a.get("trace.parts_max_error_ns"), 0.0, "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    let a = data::background(1, 50_000);
    let b = data::background(1, 50_000);
    let c = data::background(2, 50_000);
    assert_eq!(a.seqs, b.seqs);
    assert_ne!(a.seqs, c.seqs);
    assert_eq!(data::unrelated_queries(1, 4), data::unrelated_queries(1, 4));
    assert_ne!(data::unrelated_queries(1, 4), data::unrelated_queries(2, 4));
    assert_ne!(data::self_queries(&a, 1, 4), data::self_queries(&c, 2, 4));
}
