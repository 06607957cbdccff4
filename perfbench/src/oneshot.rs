//! `oneshot_pvfs`: the paper's path, and the path `pb-blastall` takes
//! without `--daemon`. One query in flight (closed loop), each a full
//! `ParallelBlast::run` over fragments striped across PVFS servers that
//! are paced like 2003 disks, so fetching dominates wall time and the
//! timings hold steady while the host's CPU speed drifts.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use parblast_blast::{tabular, DbStats, Program, SearchParams};
use parblast_mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};

use crate::data;
use crate::stats::Sorted;
use crate::{
    decode_ms_per_fragment, ms, nproc, reads_since, server_requests, setup_median, Config, Report,
};

/// Input sizes and store shape.
struct Params {
    residues: u64,
    fragments: u32,
    servers: usize,
    stripe: u64,
    /// Per-server disk rate in bytes/s.
    disk_bps: u64,
    /// Distinct queries, sent round-robin.
    pool: usize,
    setup_reps: usize,
}

impl Params {
    fn new(tiny: bool) -> Params {
        if tiny {
            Params {
                residues: 200_000,
                fragments: 4,
                servers: 4,
                stripe: 16 << 10,
                disk_bps: 20_000_000,
                // One query, so per-query means repeat whatever number of
                // queries a timed phase completes.
                pool: 1,
                setup_reps: 1,
            }
        } else {
            Params {
                residues: 8_000_000,
                fragments: 8,
                servers: 4,
                stripe: 64 << 10,
                disk_bps: 2_000_000,
                pool: 16,
                setup_reps: 3,
            }
        }
    }
}

/// A staged database, ready for the first timed query.
struct Staged {
    scheme: Scheme,
    fragments: Vec<String>,
    db: DbStats,
    queries: Vec<Vec<u8>>,
}

impl Staged {
    /// The job `pb-blastall` builds without `--daemon` (prefetch on,
    /// list I/O off), with one worker per core.
    fn job(&self, tracer: Tracer) -> ParallelBlast {
        ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db: self.db,
            fragments: self.fragments.clone(),
            workers: nproc(),
            scheme: self.scheme.clone(),
            tracer,
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        }
    }
}

fn setup(cfg: &Config, p: &Params, dir: &Path) -> io::Result<Staged> {
    let db = data::background(cfg.seed, p.residues);
    let scheme = Scheme::pvfs_at(&dir.join("pvfs"), p.servers, p.stripe)?;
    let (fragments, _) = data::format_and_stage(&db, dir, p.fragments, &scheme)?;
    scheme.set_io_throttle(p.disk_bps);
    let staged = Staged {
        scheme,
        fragments,
        db: db.stats,
        queries: data::self_queries(&db, cfg.seed, p.pool),
    };
    // Warm-up: one full search, so code, allocator and page cache are in
    // their steady state before the first timed query.
    staged.job(Tracer::disabled()).run(&staged.queries[0])?;
    Ok(staged)
}

/// One closed-loop timed phase.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Rendered answer of every completed query, by pool index.
    answers: Vec<(usize, String)>,
    failed: u64,
    elapsed: Duration,
    exec_ms: Vec<f64>,
    fetch_s: f64,
    stall_s: f64,
    fragment_ms: Vec<f64>,
    hits: u64,
    requests: u64,
    reads: (u64, u64),
}

fn timed_phase(staged: &Staged, job: &ParallelBlast, seconds: f64) -> Phase {
    let requests0 = server_requests(&staged.scheme);
    let events0 = job.tracer.events().len();
    let mut ph = Phase::default();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let q = i % staged.queries.len();
        i += 1;
        let sent = Instant::now();
        match job.run(&staged.queries[q]) {
            Ok(out) => {
                ph.latencies_ms.push(ms(sent.elapsed()));
                ph.answers.push((q, tabular("query", &out.hits)));
                ph.exec_ms.push(out.wall_s * 1e3);
                ph.fetch_s += out.io_fetch_s;
                ph.stall_s += out.io_stall_s;
                ph.fragment_ms
                    .extend(out.per_fragment.iter().map(|&(_, s)| s * 1e3));
                ph.hits += out.hits.len() as u64;
            }
            Err(e) => {
                eprintln!("query {q}: {e}");
                ph.failed += 1;
            }
        }
    }
    ph.elapsed = t0.elapsed();
    ph.requests = server_requests(&staged.scheme) - requests0;
    ph.reads = reads_since(&job.tracer, events0);
    ph
}

/// Run `oneshot_pvfs`.
pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let p = Params::new(cfg.tiny);
    let (staged, setup_s, setup_times) =
        setup_median(p.setup_reps, &cfg.work_dir, |dir| setup(cfg, &p, dir))
            .map_err(|e| format!("set-up: {e}"))?;
    let mut r = Report::default();
    r.set("setup_s", setup_s);
    r.notes.push(format!("set-up runs (s): {setup_times:?}"));

    let untraced = timed_phase(
        &staged,
        &staged.job(Tracer::disabled()),
        cfg.phase_seconds(),
    );
    let mut phases = vec![untraced];
    if cfg.trace {
        phases.push(timed_phase(
            &staged,
            &staged.job(Tracer::new()),
            cfg.phase_seconds(),
        ));
    }

    // References outside the timed phases: the in-process batch path,
    // unpaced, rendered the way the daemon renders.
    staged.scheme.set_io_throttle(0);
    let reference = staged
        .job(Tracer::disabled())
        .run_batch(&staged.queries)
        .map_err(|e| format!("reference batch: {e}"))?;
    let expected: Vec<String> = reference
        .per_query
        .iter()
        .map(|hits| tabular("query", hits))
        .collect();
    for ph in &phases {
        r.attempted += ph.latencies_ms.len() as u64 + ph.failed;
        r.failed += ph.failed;
        for (q, got) in &ph.answers {
            if *got != expected[*q] {
                r.error(format!(
                    "query {q}: one-shot answer differs from the batch reference"
                ));
            }
        }
    }
    let hit_free = expected.iter().filter(|t| t.is_empty()).count();
    if hit_free > 0 {
        r.error(format!(
            "{hit_free} queries found not even their source subject"
        ));
    }

    let main = &phases[0];
    let lat = Sorted::new(main.latencies_ms.clone());
    let (tail_pct, tail) = lat.tail();
    r.set("latency_p50_ms", lat.pct(50.0));
    r.set("latency_tail_ms", tail);
    r.set(
        "throughput_qps",
        lat.len() as f64 / main.elapsed.as_secs_f64(),
    );
    r.notes.push(format!(
        "latency: p50 {:.2} ms, tail p{tail_pct:.1} {tail:.2} ms over {} queries (closed loop, 1 in flight)",
        lat.pct(50.0),
        lat.len()
    ));

    if let Some(traced) = phases.get(1) {
        per_layer(&mut r, &staged, traced, lat.pct(50.0))?;
    }
    Ok(r)
}

fn per_layer(r: &mut Report, staged: &Staged, ph: &Phase, untraced_p50: f64) -> Result<(), String> {
    let n = ph.latencies_ms.len().max(1) as f64;
    let runs = ph.exec_ms.len().max(1) as f64;
    let fragments = ph.fragment_ms.len().max(1) as f64;
    let traced_p50 = Sorted::new(ph.latencies_ms.clone()).pct(50.0);
    // Engine time is the search threads' per-fragment time: with two
    // workers the stall clock sums over threads and can exceed the wall.
    let search_s: f64 = ph.fragment_ms.iter().sum::<f64>() / 1e3;
    r.set(
        "mpiblast.exec_ms_p50",
        Sorted::new(ph.exec_ms.clone()).pct(50.0),
    );
    r.set("mpiblast.io_fetch_ms", ph.fetch_s * 1e3 / runs);
    r.set("mpiblast.io_stall_ms", ph.stall_s * 1e3 / runs);
    r.set("mpiblast.io_hidden_frac", 1.0 - ph.stall_s / ph.fetch_s);
    r.set("mpiblast.kernel_passes_per_query", fragments / n);
    r.set("blast.search_ms_per_query", search_s * 1e3 / n);
    r.set(
        "blast.scan_bases_per_s",
        staged.db.residues as f64 * runs / search_s,
    );
    r.set("blast.hits_per_query", ph.hits as f64 / n);
    r.set(
        "blast.fragment_search_ms_p50",
        Sorted::new(ph.fragment_ms.clone()).pct(50.0),
    );
    r.set("pio.server_requests_per_query", ph.requests as f64 / n);
    r.set("pio.read_ops_per_query", ph.reads.0 as f64 / n);
    r.set("pio.bytes_per_query", ph.reads.1 as f64 / n);
    r.set(
        "pio.read_size_mean",
        ph.reads.1 as f64 / ph.reads.0.max(1) as f64,
    );
    r.set("pio.fetch_ms_per_fragment", ph.fetch_s * 1e3 / fragments);
    r.set(
        "seqdb.decode_ms_per_fragment",
        decode_ms_per_fragment(&staged.scheme, &staged.fragments)
            .map_err(|e| format!("decode timing: {e}"))?,
    );
    r.set("trace.latency_p50_ms", traced_p50);
    r.set("trace.untraced_latency_p50_ms", untraced_p50);
    r.set("trace.overhead_ms", traced_p50 - untraced_p50);
    Ok(())
}
