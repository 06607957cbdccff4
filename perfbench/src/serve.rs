//! `serve_scan` and `serve_hot`: the in-process `NetServer` daemon with a
//! `BlastRunner` over a CEFT-mirrored store whose servers are paced like
//! 2003 disks, driven open loop.
//!
//! * `serve_scan` — many users with unrelated queries: nearly every
//!   subject misses, so the fused seed scan and batch forming are the
//!   compute and extension does almost nothing.
//! * `serve_hot` — the same store plus planted families; each query is a
//!   freshly mutated window of a hot family and hits every member, so
//!   extension, rendering and larger `Result` frames add to every pass.
//!
//! Paced fetches take most of each pass, so latencies hold steady while
//! the host's CPU and memory speed drift; compute adds the rest, which is
//! what an engine change moves.
//!
//! The load generator is one process with two threads on one connection
//! (a send thread and a receive thread over `proto`), never more than the
//! host's two cores. Arrival times are a Poisson process conditioned on
//! its count: `rate × seconds` uniform times, sorted, so every seed
//! offers exactly the same number of queries over the same span. Latency
//! runs from each query's scheduled send time.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parblast_blast::{tabular, DbStats, Program, SearchParams};
use parblast_mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
use parblast_net::{
    encode_frame, BatchRunner, BlastRunner, Frame, FrameReader, NetServer, ResultStatus,
    RunnerError, RunnerOutput, ServerConfig, ServerHandle, StatsSnapshot,
};
use parblast_serve::Priority;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::data::{self, Families};
use crate::stats::Sorted;
use crate::{
    decode_ms_per_fragment, ms, nproc, reads_since, server_requests, setup_median, Config, Report,
    Workload,
};

/// Planted-family shape for `serve_hot`.
struct FamilyPlan {
    families: usize,
    len: usize,
    copies: usize,
    divergence: f64,
    /// Families the queries are drawn from.
    hot: usize,
}

/// Servers in each of the store's two groups (primary and mirror).
const SERVERS_PER_GROUP: usize = 2;

/// Latency limit on the tail percentile, as `BENCHMARK.json` states it.
const LIMIT_MS: f64 = 400.0;

/// Input sizes and offered load.
struct Params {
    residues: u64,
    fragments: u32,
    /// Per-server disk rate in bytes/s.
    disk_bps: u64,
    families: Option<FamilyPlan>,
    rate_qps: f64,
    /// Queries whose answers are compared with the in-process reference.
    sample: usize,
    setup_reps: usize,
}

impl Params {
    fn new(workload: Workload, tiny: bool) -> Params {
        let hot = workload == Workload::ServeHot;
        let families = hot.then_some(FamilyPlan {
            families: if tiny { 4 } else { 8 },
            len: 1500,
            copies: if tiny { 3 } else { 15 },
            divergence: 0.04,
            hot: if tiny { 2 } else { 4 },
        });
        Params {
            residues: if tiny { 200_000 } else { 1_000_000 },
            // One fragment per worker keeps each paced read large: every
            // paced request pays the host's wake-up latency once.
            fragments: if tiny { 4 } else { 2 },
            disk_bps: if tiny { 20_000_000 } else { 2_000_000 },
            families,
            rate_qps: if tiny { 20.0 } else { 3.0 },
            sample: if tiny { 4 } else { 32 },
            setup_reps: if tiny { 1 } else { 5 },
        }
    }
}

/// What every daemon of one run serves.
struct Staged {
    scheme: Scheme,
    fragments: Vec<String>,
    fragment_bytes: u64,
    db: DbStats,
    queries: Vec<Vec<u8>>,
    /// Planted family of each query (`serve_hot` only).
    family: Option<(Vec<usize>, usize)>,
    /// Offsets of each query's send time from the schedule start.
    due: Vec<Duration>,
}

impl Staged {
    /// The job `pb-blastall --daemon` builds, with one worker per core.
    fn runner(&self, tracer: Tracer) -> Arc<BlastRunner> {
        let job = ParallelBlast {
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
        };
        Arc::new(BlastRunner::new(job, self.fragment_bytes))
    }
}

/// `n` sorted uniform arrival offsets in `[0, seconds)`.
fn schedule(seed: u64, n: usize, seconds: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA441_7A15);
    let mut t: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

fn setup(cfg: &Config, p: &Params, dir: &Path) -> io::Result<(Staged, Daemon)> {
    let mut db = data::background(cfg.seed, p.residues);
    let n = (p.rate_qps * cfg.phase_seconds()).round().max(1.0) as usize;
    let (queries, family) = match &p.families {
        Some(f) => {
            let fams =
                data::plant_families(&mut db, cfg.seed, f.families, f.len, f.copies, f.divergence);
            let (q, fam) = data::family_queries(&fams, cfg.seed, f.hot, n);
            (q, Some((fam, fams.members)))
        }
        None => (data::unrelated_queries(cfg.seed, n), None),
    };
    let scheme = Scheme::ceft_at(&dir.join("ceft"), SERVERS_PER_GROUP, 64 << 10)?;
    let (fragments, fragment_bytes) = data::format_and_stage(&db, dir, p.fragments, &scheme)?;
    scheme.set_io_throttle(p.disk_bps);
    let staged = Staged {
        scheme,
        fragments,
        fragment_bytes,
        db: db.stats,
        queries,
        family,
        due: schedule(cfg.seed, n, cfg.phase_seconds()),
    };
    let daemon = Daemon::start(&staged, false)?;
    // Warm-up: two batches through the daemon's runner, so code, allocator
    // and page cache are in their steady state before the first query.
    let warm = &staged.queries[..ServerConfig::default().max_batch.min(staged.queries.len())];
    for _ in 0..2 {
        daemon
            .runner
            .run_batch(warm)
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok((staged, daemon))
}

/// A running daemon and the runners behind it. Dropping it drains the
/// daemon and joins its threads.
struct Daemon {
    handle: Option<ServerHandle>,
    runner: Arc<BlastRunner>,
    traced: Option<Arc<TracedRunner>>,
}

impl Daemon {
    /// Start the daemon over `staged`; `traced` serves through the
    /// [`TracedRunner`] wrapper with the job's `Tracer` on.
    fn start(staged: &Staged, traced: bool) -> io::Result<Daemon> {
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let runner = staged.runner(tracer);
        let traced = traced.then(|| {
            Arc::new(TracedRunner {
                inner: Arc::clone(&runner),
                index: staged
                    .queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| (q.clone(), i))
                    .collect(),
                log: Mutex::new(Vec::new()),
            })
        });
        let served_by: Arc<dyn BatchRunner> = match &traced {
            Some(t) => t.clone(),
            None => runner.clone(),
        };
        // The daemon `pb-blastall --daemon` starts, on one shard.
        let config = ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        };
        Ok(Daemon {
            handle: Some(NetServer::start("127.0.0.1:0", config, served_by)?),
            runner,
            traced,
        })
    }

    /// Drain, join, and return the final counters.
    fn finish(&mut self) -> StatsSnapshot {
        let handle = self.handle.take().expect("daemon finished once");
        handle.drain();
        handle.join()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.finish();
        }
    }
}

/// One executed batch, seen at the runner boundary.
struct BatchRecord {
    entry: Instant,
    exit: Instant,
    queries: Vec<usize>,
    /// The batch's `BatchOutcome` clocks and counts; `None` if it failed.
    outcome: Option<BatchClocks>,
}

/// What `BatchOutcome` reports about one batch besides its hits.
struct BatchClocks {
    wall_s: f64,
    fetch_s: f64,
    stall_s: f64,
    kernel_passes: u64,
    passes_saved: u64,
}

/// The traced runner: times each batch at the runner boundary and notes
/// which queries it carried (identified by their bytes, which the
/// generator keeps unique). It runs the `BlastRunner`'s own job and renders
/// each query exactly as `BlastRunner::run_batch` does, because
/// `RunnerOutput` folds the stall clock into `search_s` (clamped at 0,
/// which paced fetches reach); `BatchOutcome` keeps it. Served answers of
/// both phases are checked against the same references.
struct TracedRunner {
    inner: Arc<BlastRunner>,
    index: HashMap<Vec<u8>, usize>,
    log: Mutex<Vec<BatchRecord>>,
}

impl BatchRunner for TracedRunner {
    fn run_batch(&self, queries: &[Vec<u8>]) -> Result<RunnerOutput, RunnerError> {
        let entry = Instant::now();
        let result = self.inner.job.run_batch(queries);
        let out = result
            .as_ref()
            .map(|o| RunnerOutput {
                per_query: o
                    .per_query
                    .iter()
                    .map(|hits| tabular("query", hits).into_bytes())
                    .collect(),
                scan_s: o.io_fetch_s,
                search_s: (o.wall_s - o.io_stall_s).max(0.0),
                bytes_read: self.inner.bytes_per_pass,
                kernel_passes: o.kernel_passes,
                passes_saved: o.passes_saved,
            })
            .map_err(|e| RunnerError::Other(e.to_string()));
        let exit = Instant::now();
        let ids = queries
            .iter()
            .map(|q| self.index.get(q).copied().unwrap_or(usize::MAX))
            .collect();
        self.log.lock().expect("batch log lock").push(BatchRecord {
            entry,
            exit,
            queries: ids,
            outcome: result.ok().map(|o| BatchClocks {
                wall_s: o.wall_s,
                fetch_s: o.io_fetch_s,
                stall_s: o.io_stall_s,
                kernel_passes: o.kernel_passes,
                passes_saved: o.passes_saved,
            }),
        });
        out
    }
}

/// One answer as the generator received it.
enum Answer {
    Ok(Vec<u8>),
    Failed(String),
    Shed(String),
}

/// What the generator saw in one timed phase.
struct Drive {
    start: Instant,
    sent: Vec<Instant>,
    /// Receipt time and answer of every query, by id.
    answers: Vec<(Instant, Answer)>,
    bytes_out: u64,
    bytes_in: u64,
}

/// Open-loop generator: a send thread paces pre-encoded Submit frames to
/// their scheduled times while a receive thread decodes answers off the
/// same socket.
fn drive(addr: SocketAddr, frames: &[Vec<u8>], due: &[Duration]) -> io::Result<Drive> {
    let n = frames.len();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = stream.try_clone()?;
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<Vec<Instant>> {
            let mut w = &stream;
            let mut sent = Vec::with_capacity(n);
            for (frame, d) in frames.iter().zip(due) {
                let at = start + *d;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                w.write_all(frame)?;
                sent.push(Instant::now());
            }
            Ok(sent)
        });
        let receiver = s.spawn(move || -> io::Result<(Vec<(Instant, Answer)>, u64)> {
            let mut answers: Vec<Option<(Instant, Answer)>> = (0..n).map(|_| None).collect();
            let mut fr = FrameReader::new();
            let mut buf = vec![0u8; 1 << 16];
            let mut bytes_in = 0u64;
            let mut done = 0usize;
            while done < n {
                let k = reader.read(&mut buf)?;
                if k == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("daemon closed the connection after {done} of {n} answers"),
                    ));
                }
                let now = Instant::now();
                bytes_in += k as u64;
                fr.feed(&buf[..k]);
                while let Some(frame) = fr.next_frame().map_err(io::Error::other)? {
                    let (id, answer) = match frame {
                        Frame::Result {
                            id,
                            status,
                            payload,
                        } => match status {
                            ResultStatus::Ok => (id, Answer::Ok(payload)),
                            other => (
                                id,
                                Answer::Failed(format!(
                                    "{other:?}: {}",
                                    String::from_utf8_lossy(&payload)
                                )),
                            ),
                        },
                        Frame::Shed { id, reason, .. } => (id, Answer::Shed(reason.to_string())),
                        other => {
                            return Err(io::Error::other(format!("unexpected frame {other:?}")))
                        }
                    };
                    let slot = usize::try_from(id)
                        .ok()
                        .filter(|&i| i < n && answers[i].is_none())
                        .ok_or_else(|| io::Error::other(format!("answer for unknown id {id}")))?;
                    answers[slot] = Some((now, answer));
                    done += 1;
                }
            }
            // `done == n` answers, each for a distinct id: every slot is set.
            let answers = answers.into_iter().map(|a| a.expect("answered")).collect();
            Ok((answers, bytes_in))
        });
        let sent = sender.join().expect("send thread panicked")?;
        let (answers, bytes_in) = receiver.join().expect("receive thread panicked")?;
        Ok(Drive {
            start,
            sent,
            answers,
            bytes_out: frames.iter().map(|f| f.len() as u64).sum(),
            bytes_in,
        })
    })
}

/// One served timed phase: start a daemon, drive the schedule, drain,
/// and check the ledger identities.
struct Phase {
    drive: Drive,
    stats: StatsSnapshot,
    latencies_ms: Vec<f64>,
    ok: u64,
    elapsed: Duration,
    batches: Vec<BatchRecord>,
    requests: u64,
    reads: (u64, u64),
}

fn timed_phase(staged: &Staged, mut daemon: Daemon) -> io::Result<Phase> {
    let frames: Vec<Vec<u8>> = staged
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            encode_frame(&Frame::Submit {
                id: i as u64,
                tenant: 0,
                priority: Priority::Normal,
                deadline_us: 0,
                query: q.clone(),
            })
        })
        .collect();
    let tracer = daemon.runner.job.tracer.clone();
    let requests0 = server_requests(&staged.scheme);
    let events0 = tracer.events().len();
    let addr = daemon.handle.as_ref().expect("daemon running").addr();
    let drive = drive(addr, &frames, &staged.due);
    let stats = daemon.finish();
    let drive = drive?;
    let requests = server_requests(&staged.scheme) - requests0;
    let reads = reads_since(&tracer, events0);

    let mut latencies_ms = Vec::new();
    let mut last = drive.start;
    for (i, (rx, answer)) in drive.answers.iter().enumerate() {
        if let Answer::Ok(_) = answer {
            latencies_ms.push(ms(*rx - (drive.start + staged.due[i])));
            last = last.max(*rx);
        }
    }
    let batches = match &daemon.traced {
        Some(t) => std::mem::take(&mut *t.log.lock().expect("batch log lock")),
        None => Vec::new(),
    };
    Ok(Phase {
        ok: latencies_ms.len() as u64,
        latencies_ms,
        elapsed: last - drive.start,
        drive,
        stats,
        batches,
        requests,
        reads,
    })
}

/// Check one phase's answers and ledger; returns the failure count.
fn check(r: &mut Report, staged: &Staged, ph: &Phase, expected: &[(usize, Vec<u8>)]) -> u64 {
    let s = &ph.stats;
    let sheds = s.shed_queue_full + s.shed_quota + s.shed_draining;
    if s.submits != s.accepted + sheds {
        r.error(format!(
            "ledger: submits {} != accepted {} + sheds {sheds}",
            s.submits, s.accepted
        ));
    }
    if s.accepted != s.served + s.expired + s.cancelled {
        r.error(format!(
            "ledger: accepted {} != served {} + expired {} + cancelled {}",
            s.accepted, s.served, s.expired, s.cancelled
        ));
    }
    if ph.ok != s.served {
        r.error(format!(
            "ledger: client saw {} OK answers, daemon served {}",
            ph.ok, s.served
        ));
    }
    r.notes.push(format!(
        "ledger: submits {} accepted {} served {} sheds {sheds} expired {} cancelled {} batches {}",
        s.submits, s.accepted, s.served, s.expired, s.cancelled, s.batches
    ));
    let mut failed = 0u64;
    for (i, (_, a)) in ph.drive.answers.iter().enumerate() {
        match a {
            Answer::Ok(payload) => {
                if let Some((fams, members)) = &staged.family {
                    let text = String::from_utf8_lossy(payload);
                    for k in 0..*members {
                        let id = Families::subject_id(fams[i], k);
                        if !text
                            .lines()
                            .any(|l| l.split('\t').nth(1) == Some(id.as_str()))
                        {
                            r.error(format!("query {i}: planted member {id} missing"));
                        }
                    }
                }
            }
            Answer::Failed(why) | Answer::Shed(why) => {
                eprintln!("query {i}: {why}");
                failed += 1;
            }
        }
    }
    for (i, want) in expected {
        if let (_, Answer::Ok(got)) = &ph.drive.answers[*i] {
            if got != want {
                r.error(format!(
                    "query {i}: served answer differs from the batch reference"
                ));
            }
        }
    }
    failed
}

/// Run `serve_scan` or `serve_hot`.
pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let p = Params::new(cfg.workload, cfg.tiny);
    let ((staged, daemon), setup_s, setup_times) =
        setup_median(p.setup_reps, &cfg.work_dir, |dir| setup(cfg, &p, dir))
            .map_err(|e| format!("set-up: {e}"))?;
    let mut seen = HashSet::new();
    if !staged.queries.iter().all(|q| seen.insert(q)) {
        return Err("generated queries are not unique".into());
    }
    let mut r = Report::default();
    r.set("setup_s", setup_s);
    r.notes.push(format!("set-up runs (s): {setup_times:?}"));

    let mut phases = vec![timed_phase(&staged, daemon).map_err(|e| e.to_string())?];
    if cfg.trace {
        let traced = Daemon::start(&staged, true).map_err(|e| e.to_string())?;
        phases.push(timed_phase(&staged, traced).map_err(|e| e.to_string())?);
    }

    // References outside the timed phases: the in-process batch path,
    // unpaced, on a fixed sample of queries, rendered the way
    // `BlastRunner` renders.
    staged.scheme.set_io_throttle(0);
    let n = staged.queries.len();
    let stride = n.div_ceil(p.sample.max(1)).max(1);
    let sample: Vec<usize> = (0..n).step_by(stride).collect();
    let sample_queries: Vec<Vec<u8>> = sample.iter().map(|&i| staged.queries[i].clone()).collect();
    let reference = staged
        .runner(Tracer::disabled())
        .job
        .run_batch(&sample_queries)
        .map_err(|e| format!("reference batch: {e}"))?;
    let expected: Vec<(usize, Vec<u8>)> = sample
        .iter()
        .zip(&reference.per_query)
        .map(|(&i, hits)| (i, tabular("query", hits).into_bytes()))
        .collect();
    for ph in &phases {
        r.attempted += ph.drive.answers.len() as u64;
        r.failed += check(&mut r, &staged, ph, &expected);
    }

    let main = &phases[0];
    let lat = Sorted::new(main.latencies_ms.clone());
    let (tail_pct, tail) = lat.tail();
    r.set("latency_p50_ms", lat.pct(50.0));
    r.set("latency_tail_ms", tail);
    r.set(
        "throughput_qps",
        main.ok as f64 / main.elapsed.as_secs_f64(),
    );
    r.notes.push(format!(
        "latency: p50 {:.2} ms, tail p{tail_pct:.1} {tail:.2} ms over {} OK answers \
         (open loop, {} qps offered over {} s)",
        lat.pct(50.0),
        lat.len(),
        p.rate_qps,
        cfg.phase_seconds()
    ));
    // Every failure also misses the limit.
    let over = main.latencies_ms.iter().filter(|&&l| l > LIMIT_MS).count();
    r.notes.push(format!(
        "latency limit {} ms: {} of {} queries missed it",
        LIMIT_MS,
        over as u64 + main.drive.answers.len() as u64 - main.ok,
        main.drive.answers.len()
    ));
    if let Some(traced) = phases.get(1) {
        per_layer(&mut r, &staged, traced, lat.pct(50.0))?;
    }
    Ok(r)
}

fn per_layer(r: &mut Report, staged: &Staged, ph: &Phase, untraced_p50: f64) -> Result<(), String> {
    let d = &ph.drive;
    let n = d.answers.len();
    let served = ph.ok.max(1) as f64;
    // Per query: scheduled send → run_batch entry → exit → client
    // receipt. The three parts add up to the client latency exactly.
    let mut entry = vec![None; n];
    for b in &ph.batches {
        for &q in &b.queries {
            if q < n {
                entry[q] = Some((b.entry, b.exit));
            }
        }
    }
    let mut wait = Vec::new();
    let mut ret = Vec::new();
    let mut max_err_ns = 0u128;
    for (i, (rx, answer)) in d.answers.iter().enumerate() {
        let Answer::Ok(_) = answer else { continue };
        let Some((b_in, b_out)) = entry[i] else {
            r.error(format!(
                "query {i}: answered without passing the traced runner"
            ));
            continue;
        };
        let rx = *rx;
        let scheduled = d.start + staged.due[i];
        let parts = [
            b_in.checked_duration_since(scheduled),
            b_out.checked_duration_since(b_in),
            rx.checked_duration_since(b_out),
        ];
        let [Some(q), Some(x), Some(t)] = parts else {
            r.error(format!("query {i}: layer boundaries out of order"));
            continue;
        };
        let total = rx - scheduled;
        max_err_ns = max_err_ns.max((q + x + t).as_nanos().abs_diff(total.as_nanos()));
        wait.push(ms(q));
        ret.push(ms(t));
    }
    if max_err_ns != 0 {
        r.error(format!(
            "per-query parts miss the client latency by {max_err_ns} ns"
        ));
    }
    let late: Vec<f64> = d
        .sent
        .iter()
        .zip(&staged.due)
        .map(|(s, due)| ms(s.saturating_duration_since(d.start + *due)))
        .collect();

    let outs: Vec<&BatchClocks> = ph
        .batches
        .iter()
        .filter_map(|b| b.outcome.as_ref())
        .collect();
    let batches = outs.len().max(1) as f64;
    let exec: Vec<f64> = ph.batches.iter().map(|b| ms(b.exit - b.entry)).collect();
    let fetch_s: f64 = outs.iter().map(|o| o.fetch_s).sum();
    let stall_s: f64 = outs.iter().map(|o| o.stall_s).sum();
    // Search-thread time not spent waiting for fragment data, counting
    // each worker's search thread alive for the batch's whole wall time
    // (a thread that runs out of fragments early adds its idle tail).
    let search_s: f64 = outs
        .iter()
        .map(|o| nproc() as f64 * o.wall_s - o.stall_s)
        .sum();
    let passes: u64 = outs.iter().map(|o| o.kernel_passes).sum();
    let saved: u64 = outs.iter().map(|o| o.passes_saved).sum();
    let fragments = staged.fragments.len() as f64;
    let hits: usize = d
        .answers
        .iter()
        .map(|(_, a)| match a {
            Answer::Ok(p) => distinct_subjects(p),
            _ => 0,
        })
        .sum();
    let s = &ph.stats;
    let traced_p50 = Sorted::new(ph.latencies_ms.clone()).pct(50.0);

    r.set("net.request_bytes", d.bytes_out as f64 / n.max(1) as f64);
    r.set("net.response_bytes", d.bytes_in as f64 / n.max(1) as f64);
    r.set("net.return_ms_p50", Sorted::new(ret).pct(50.0));
    r.set(
        "net.shed_frac",
        (s.shed_queue_full + s.shed_quota + s.shed_draining) as f64 / s.submits.max(1) as f64,
    );
    let wait = Sorted::new(wait);
    r.set("serve.queue_wait_ms_p50", wait.pct(50.0));
    r.set("serve.queue_wait_ms_p99", wait.pct(99.0));
    r.set(
        "serve.batch_size_mean",
        s.served as f64 / s.batches.max(1) as f64,
    );
    r.set(
        "serve.exec_busy_frac",
        exec.iter().sum::<f64>() / ms(ph.elapsed),
    );
    r.set("mpiblast.exec_ms_p50", Sorted::new(exec).pct(50.0));
    r.set("mpiblast.io_fetch_ms", fetch_s * 1e3 / batches);
    r.set("mpiblast.io_stall_ms", stall_s * 1e3 / batches);
    r.set("mpiblast.io_hidden_frac", 1.0 - stall_s / fetch_s);
    r.set("mpiblast.kernel_passes_per_query", passes as f64 / served);
    r.set("mpiblast.passes_saved_per_query", saved as f64 / served);
    r.set("blast.search_ms_per_query", search_s * 1e3 / served);
    r.set(
        "blast.scan_bases_per_s",
        staged.db.residues as f64 * passes as f64 / fragments / search_s,
    );
    r.set("blast.hits_per_query", hits as f64 / served);
    r.set("pio.server_requests_per_query", ph.requests as f64 / served);
    r.set("pio.read_ops_per_query", ph.reads.0 as f64 / served);
    r.set("pio.bytes_per_query", ph.reads.1 as f64 / served);
    r.set(
        "pio.read_size_mean",
        ph.reads.1 as f64 / ph.reads.0.max(1) as f64,
    );
    r.set(
        "pio.fetch_ms_per_fragment",
        fetch_s * 1e3 / (batches * fragments),
    );
    if let Scheme::Ceft(st) = &staged.scheme {
        r.set("pio.ceft_skips", st.monitor().skips().len() as f64);
    }
    r.set(
        "seqdb.decode_ms_per_fragment",
        decode_ms_per_fragment(&staged.scheme, &staged.fragments)
            .map_err(|e| format!("decode timing: {e}"))?,
    );
    r.set("gen.late_ms_p99", Sorted::new(late).pct(99.0));
    r.set("trace.latency_p50_ms", traced_p50);
    r.set("trace.untraced_latency_p50_ms", untraced_p50);
    r.set("trace.overhead_ms", traced_p50 - untraced_p50);
    r.set("trace.parts_max_error_ns", max_err_ns as f64);
    r.notes.push(format!(
        "traced parts: {} of {} queries split into queue wait + exec + return",
        wait.len(),
        n
    ));
    Ok(())
}

/// Distinct subject ids in a rendered tabular report.
fn distinct_subjects(payload: &[u8]) -> usize {
    let text = String::from_utf8_lossy(payload);
    let mut ids: Vec<&str> = text.lines().filter_map(|l| l.split('\t').nth(1)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}
