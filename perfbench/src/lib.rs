//! # parblast-perfbench
//!
//! The end-to-end benchmark of the `parblast` search path. One command
//! stages a seeded database, drives one workload through the real
//! `mpiblast` → `pio` path (and, for the served workloads, the real `net`
//! daemon), checks every answer, and reports metrics by name and unit.
//!
//! * [`oneshot`] — `oneshot_pvfs`: closed-loop `ParallelBlast::run` over a
//!   PVFS-striped store whose servers are paced like 2003 disks.
//! * [`serve`] — `serve_scan` and `serve_hot`: an open-loop generator
//!   against the in-process `NetServer` + `BlastRunner`.
//!
//! With tracing off a run reports the end-to-end metrics; with tracing on
//! it splits its time into an untraced and a traced phase and reports
//! the per-layer metrics, all taken at public boundaries of the layers:
//! outcome structs, store counters, the `Tracer`, and a `BatchRunner`
//! wrapper. No tracing lives inside the library.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parblast_mpiblast::{IoKind, Scheme, Tracer};

pub mod data;
mod oneshot;
mod serve;
mod stats;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop one-shot search over paced PVFS servers.
    OneshotPvfs,
    /// Open-loop serving of unrelated queries: the seed scan dominates.
    ServeScan,
    /// Open-loop serving of hot planted families: extension dominates.
    ServeHot,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::OneshotPvfs,
        Workload::ServeScan,
        Workload::ServeHot,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotPvfs => "oneshot_pvfs",
            Workload::ServeScan => "serve_scan",
            Workload::ServeHot => "serve_hot",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured time of the run (split in two halves when traced).
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Shrink every input to a size a unit test can run in seconds.
    pub tiny: bool,
    /// Scratch directory for staged data; removed after the run.
    pub work_dir: PathBuf,
}

impl Config {
    /// Length of one timed phase: a traced run spends half its time
    /// untraced and half traced, so its tracing overhead is measured in
    /// the same process.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with tracing on: `(name, unit)`. A layer
/// that a workload does not run through reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("net.request_bytes", "B"),
    ("net.response_bytes", "B"),
    ("net.return_ms_p50", "ms"),
    ("net.shed_frac", "fraction"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_size_mean", "queries"),
    ("serve.exec_busy_frac", "fraction"),
    ("mpiblast.exec_ms_p50", "ms"),
    ("mpiblast.io_fetch_ms", "ms"),
    ("mpiblast.io_stall_ms", "ms"),
    ("mpiblast.io_hidden_frac", "fraction"),
    ("mpiblast.kernel_passes_per_query", "count"),
    ("mpiblast.passes_saved_per_query", "count"),
    ("blast.search_ms_per_query", "ms"),
    ("blast.scan_bases_per_s", "1/s"),
    ("blast.hits_per_query", "count"),
    ("blast.fragment_search_ms_p50", "ms"),
    ("pio.server_requests_per_query", "count"),
    ("pio.bytes_per_query", "B"),
    ("pio.read_ops_per_query", "count"),
    ("pio.read_size_mean", "B"),
    ("pio.fetch_ms_per_fragment", "ms"),
    ("pio.ceft_skips", "count"),
    ("seqdb.decode_ms_per_fragment", "ms"),
    ("host.calib_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.untraced_latency_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.parts_max_error_ns", "ns"),
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Queries offered during the timed phases.
    pub attempted: u64,
    /// Queries that were shed, failed, or never answered.
    pub failed: u64,
    /// Wrong answers, broken ledger identities, or timings that do not
    /// add up; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable context (sample counts, percentiles, ledgers).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Value of a recorded metric (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Record that the run produced a wrong result.
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// True when every answer and identity checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: one JSON object with the metrics of the set the
    /// run reports, in the order of [`END_TO_END`] / [`PER_LAYER`].
    pub fn json(&self, trace: bool) -> String {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Worker count for the runner: one per available core.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Milliseconds a fixed loop takes: integer work plus a dependent walk
/// over a 16 MiB table (the size of a blastn seed table), probing the
/// host's current CPU and memory speed. Reported beside timings to explain
/// noise, never as a claim.
pub(crate) fn calibrate() -> f64 {
    const CELLS: usize = 1 << 22;
    let mut table = vec![0u32; CELLS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for cell in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *cell = (x % CELLS as u64) as u32;
    }
    let t0 = Instant::now();
    for i in 0..std::hint::black_box(5_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    let mut at = (x % CELLS as u64) as usize;
    for _ in 0..std::hint::black_box(200_000) {
        at = table[at] as usize;
    }
    std::hint::black_box((x, at));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set in MiB (`VmHWM`), 0 if unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Milliseconds in a duration.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Stage `reps` times from scratch and keep the last staging; returns it
/// with the median set-up time.
pub(crate) fn setup_median<T>(
    reps: usize,
    work: &Path,
    mut stage: impl FnMut(&Path) -> io::Result<T>,
) -> io::Result<(T, f64, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        if last.take().is_some() {
            std::fs::remove_dir_all(work.join(format!("setup{}", rep - 1)))?;
        }
        let dir = work.join(format!("setup{rep}"));
        let t0 = Instant::now();
        last = Some(stage(&dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::Sorted::new(times.clone()).pct(50.0);
    Ok((last.expect("at least one set-up"), median, times))
}

/// Server requests a PVFS or CEFT store has issued so far.
pub(crate) fn server_requests(scheme: &Scheme) -> u64 {
    match scheme {
        Scheme::Pvfs(st) => st.server_requests(),
        Scheme::Ceft(st) => st.server_requests(),
        Scheme::Local { .. } => 0,
    }
}

/// Read events recorded after the first `from`: `(ops, bytes)`.
pub(crate) fn reads_since(tracer: &Tracer, from: usize) -> (u64, u64) {
    tracer.events()[from..]
        .iter()
        .filter(|e| e.kind == IoKind::Read)
        .fold((0, 0), |(n, b), e| (n + 1, b + e.bytes))
}

/// Mean milliseconds `PackedVolume::read_from` takes per fragment through
/// the store's public reader.
pub(crate) fn decode_ms_per_fragment(scheme: &Scheme, fragments: &[String]) -> io::Result<f64> {
    let mut total = Duration::ZERO;
    for f in fragments {
        let t0 = Instant::now();
        let (reader, _) = scheme.open_for_worker(0, f)?;
        let mut src = parblast_mpiblast::TracedSource::new(reader, Tracer::disabled(), 0);
        std::hint::black_box(parblast_seqdb::PackedVolume::read_from(&mut src)?);
        total += t0.elapsed();
    }
    Ok(ms(total) / fragments.len().max(1) as f64)
}

/// Run one workload end to end, including the host probe around it.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let calib_start = calibrate();
    let result = match cfg.workload {
        Workload::OneshotPvfs => oneshot::run(cfg),
        Workload::ServeScan | Workload::ServeHot => serve::run(cfg),
    };
    let calib_end = calibrate();
    // Best effort: a leftover scratch directory is not a measurement error.
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut report = result.map_err(|e| format!("{}: {e}", cfg.workload.name()))?;
    report.set("host.calib_ms", (calib_start + calib_end) / 2.0);
    report.set("peak_rss_mb", peak_rss_mb());
    report.notes.push(format!(
        "host calibration loop: {calib_start:.2} ms at start, {calib_end:.2} ms at end"
    ));
    Ok(report)
}
