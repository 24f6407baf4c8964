//! The untraced run: set-up, warm-up, the measured phase, the SLO ladder,
//! reloads, and the end-to-end metrics. Answers are checked after all
//! timing is done.

use std::error::Error;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::artifact::{self, Artifact};
use crate::loadgen::{self, now_ns, Client, Reply, Sample};
use crate::report::{Metrics, Provenance};
use crate::serve::Server;
use crate::stats::{self, median, percentile};
use crate::verify::{self, Checker};
use crate::workload::{self, Kind, Op, Pacing, Request, Spec, Workload};

/// Warm-up before the measured phase: lets the result cache fill and lazy
/// start-up finish. Its operations are checked but not timed.
pub const WARMUP_NS: u64 = 500_000_000;
/// Bare `/reload`s after the measured phase on workloads that do not
/// reload under load. Successive quiet reloads alternate between two costs
/// (about 12.5 and 17 ms on `point-zipf`: every second one finds the
/// memory the one before it freed), so the count is even: the median then
/// falls between the two levels instead of on whichever has one more.
pub const QUIET_RELOADS: usize = 40;
/// Exact-distance checks per artifact.
pub const EXACT_SAMPLES: usize = 32;
/// Parts the measured phase is cut into, each followed by one attempt of
/// every ladder rate.
pub const SEGMENTS: usize = 3;
/// Schedule tags: warm-up, measured phase, ladder attempts from `RUNG` up.
const TAG_WARMUP: u64 = 1;
const TAG_MAIN: u64 = 2;
const TAG_RUNG: u64 = 16;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// What one invocation runs against.
pub struct Ctx {
    pub root: PathBuf,
    pub serve_bin: PathBuf,
    /// Scratch directory of this run (artifacts, manifests, server logs).
    pub work: PathBuf,
    pub workload: Workload,
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    pub fn manifest(&self) -> PathBuf {
        self.work.join("serve.toml")
    }
}

/// A served workload: the live server, the artifact(s), and the requests.
pub struct Setup {
    pub server: Server,
    pub a: Artifact,
    /// The second generation `sharded-reload` flips to (graph seed + 1).
    pub b: Option<Artifact>,
    pub requests: Vec<Request>,
    /// Each set-up's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// Each set-up's spawn-to-healthy time, seconds.
    pub ready_s: Vec<f64>,
}

/// Builds and serves the workload `spec.setup_reps` times from scratch,
/// keeping the last server: graph generation, `DirectBuilder` build,
/// snapshot or shard write, manifest, and `cc-serve` spawn until the
/// first `/healthz` 200.
pub fn setup(ctx: &Ctx) -> Res<Setup> {
    let (mut setup_s, mut ready_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..ctx.spec.setup_reps {
        drop(kept.take());
        let t = now_ns();
        let a = artifact::build(&ctx.spec, ctx.seed, &ctx.work, "a")?;
        artifact::write_manifest(&ctx.manifest(), &a.files)?;
        let log = ctx.work.join(format!("cc-serve-{rep}.log"));
        let server = Server::spawn(&ctx.serve_bin, &ctx.manifest(), &log)?;
        setup_s.push((now_ns() - t) as f64 / 1e9);
        ready_s.push(server.ready_s);
        kept = Some((server, a));
    }
    let (server, a) = kept.expect("setup_reps > 0");
    let b = match ctx.workload {
        Workload::ShardedReload => Some(artifact::build(&ctx.spec, ctx.seed + 1, &ctx.work, "b")?),
        _ => None,
    };
    let requests = workload::population(ctx.workload, ctx.seed);
    Ok(Setup { server, a, b, requests, setup_s, ready_s })
}

/// One timed phase: its schedule and what each operation got.
pub struct Phase {
    pub ops: Vec<Op>,
    pub samples: Vec<Sample>,
    pub start_ns: u64,
}

impl Phase {
    /// Wall time from the phase start to the last answer, seconds.
    pub fn span_s(&self) -> f64 {
        let end = self.samples.iter().map(|s| s.done_ns).max().unwrap_or(self.start_ns);
        (end - self.start_ns) as f64 / 1e9
    }
}

/// A socket round trip a traced phase recorded: operation, start, end.
pub type RoundTrip = (u64, u64, u64);

/// Runs `ops` against `addr`: open-loop on `conns` connections, or for a
/// closed loop, the ops cycled on one connection for `closed_ns`. With a
/// `roundtrips` sink, each socket round trip is also recorded there.
pub fn run_phase(
    addr: SocketAddr,
    requests: &[Request],
    ops: Vec<Op>,
    pacing: Pacing,
    conns: usize,
    closed_ns: u64,
    roundtrips: Option<&Mutex<Vec<RoundTrip>>>,
) -> Res<Phase> {
    let connect = || Client::connect(addr);
    let cycle = ops.len();
    let exec = |c: &mut Client, i: usize| {
        let req = &requests[ops[i % cycle].req as usize];
        let Some(sink) = roundtrips else { return send(c, req) };
        let start = now_ns();
        let reply = send(c, req);
        sink.lock().expect("round-trip sink poisoned").push((i as u64, start, now_ns()));
        reply
    };
    match pacing {
        Pacing::Open { .. } => {
            let due: Vec<u64> = ops.iter().map(|op| op.due_ns).collect();
            let start_ns = now_ns() + 20_000_000;
            let samples = loadgen::open_loop(start_ns, &due, conns, &connect, &exec)?;
            Ok(Phase { ops, samples, start_ns })
        }
        Pacing::Closed => {
            let start_ns = now_ns();
            let samples = loadgen::closed_loop(start_ns + closed_ns, &connect, &exec)?;
            let ops = (0..samples.len()).map(|i| ops[i % cycle]).collect();
            Ok(Phase { ops, samples, start_ns })
        }
    }
}

fn send(client: &mut Client, req: &Request) -> Reply {
    client.exchange(&req.bytes, req.kind != Kind::Binary)
}

/// One client-observed `POST /reload`.
#[derive(Debug, Clone)]
pub struct ReloadSample {
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl ReloadSample {
    pub fn ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// Every `every_ms` until `stop`: points the manifest at the other set
/// (atomic rename) and posts a bare `/reload`, from one extra thread.
pub fn reloader(
    addr: SocketAddr,
    manifest: &Path,
    sets: [&[PathBuf]; 2],
    every_ms: u64,
    stop: &AtomicBool,
) -> Vec<ReloadSample> {
    crate::sys::tight_timer_slack();
    let mut out = Vec::new();
    let Ok(mut client) = Client::connect(addr) else { return out };
    let request = b"POST /reload HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
    let mut next = now_ns() + every_ms * 1_000_000;
    let mut target = 1;
    while !stop.load(Ordering::Acquire) {
        if now_ns() < next {
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        }
        next += every_ms * 1_000_000;
        if artifact::write_manifest(manifest, sets[target]).is_err() {
            out.push(ReloadSample { sent_ns: now_ns(), done_ns: now_ns(), ok: false });
            continue;
        }
        let sent_ns = now_ns();
        let reply = client.exchange(request, true);
        out.push(ReloadSample { sent_ns, done_ns: now_ns(), ok: reply.ok() });
        target = 1 - target;
    }
    out
}

/// One rate of the SLO ladder, over all its attempts.
pub struct Rung {
    pub rate: f64,
    pub attempts: Vec<Phase>,
    /// The SLO percentile, median over the windows of every attempt.
    pub tail_us: Option<f64>,
    /// Median over attempts of each attempt's last-quarter median latency:
    /// above the limit, the backlog grew.
    pub last_quarter_p50_us: f64,
    pub passed: bool,
    /// Operations per second actually completed across the attempts.
    pub achieved: f64,
}

impl Rung {
    fn judge(rate: f64, attempts: Vec<Phase>, slo: workload::Slo) -> Rung {
        let tail_us = windowed_tail_us(&attempts, slo.q);
        let quarters: Vec<f64> = attempts
            .iter()
            .map(|a| {
                let tail = &a.samples[a.samples.len() - a.samples.len() / 4..];
                median(&tail.iter().map(Sample::latency_us).collect::<Vec<_>>())
                    .unwrap_or(f64::INFINITY)
            })
            .collect();
        let last_quarter_p50_us = median(&quarters).unwrap_or(f64::INFINITY);
        let all_ok = attempts.iter().flat_map(|a| &a.samples).all(|smp| smp.reply.ok());
        let passed = all_ok
            && tail_us.is_some_and(|t| t <= slo.limit_us)
            && last_quarter_p50_us <= slo.limit_us;
        let ops: usize = attempts.iter().map(|a| a.samples.len()).sum();
        let span: f64 = attempts.iter().map(Phase::span_s).sum();
        Rung { rate, attempts, tail_us, last_quarter_p50_us, passed, achieved: ops as f64 / span }
    }
}

/// The `q` tail of every [`workload::WINDOW_MS`] window of due times of
/// every phase, median over the windows with enough samples for it.
pub fn windowed_tail_us(phases: &[Phase], q: f64) -> Option<f64> {
    let window_ns = workload::WINDOW_MS * 1_000_000;
    let mut tails = Vec::new();
    for p in phases {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for smp in &p.samples {
            let w = (smp.due_ns.saturating_sub(p.start_ns) / window_ns) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(smp.latency_us());
        }
        tails.extend(windows.into_iter().filter_map(|w| percentile(&stats::sorted(w), q)));
    }
    median(&tails)
}

/// The client tail: open loop, the median of per-window p99s
/// ([`windowed_tail_us`]); closed loop, the p99 of the phase.
pub fn client_p99_us(phases: &[Phase], pacing: Pacing) -> f64 {
    let tail = match pacing {
        Pacing::Open { .. } => windowed_tail_us(phases, 0.99),
        Pacing::Closed => percentile(
            &stats::sorted(
                phases.iter().flat_map(|p| &p.samples).map(Sample::latency_us).collect(),
            ),
            0.99,
        ),
    };
    tail.unwrap_or(f64::NAN)
}

/// What one run produced: its metrics, operation counts and report lines.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
}

/// The measured phase's length: `--seconds` less the ladder's attempts.
pub fn main_phase_ns(ctx: &Ctx) -> u64 {
    let ladder_ms = (ctx.spec.ladder.len() * SEGMENTS) as u64 * workload::RUNG_MS;
    ((ctx.seconds - ladder_ms as f64 / 1e3).max(1.0) * 1e9) as u64
}

/// The measured phase's schedule (also replayed by the traced run).
pub fn main_schedule(ctx: &Ctx) -> Vec<Op> {
    match ctx.spec.pacing {
        Pacing::Open { rate } => {
            workload::open_schedule(ctx.workload, ctx.seed, TAG_MAIN, rate, main_phase_ns(ctx))
        }
        Pacing::Closed => workload::closed_schedule(workload::BINARY_BATCHES),
    }
}

/// Part `part` of `parts` of a schedule lasting `total_ns`: the open-loop
/// operations due in that slice, re-based to its start (a closed loop
/// cycles the whole list in every part).
pub fn schedule_part(
    schedule: &[Op],
    pacing: Pacing,
    total_ns: u64,
    part: usize,
    parts: usize,
) -> Vec<Op> {
    match pacing {
        Pacing::Open { .. } => {
            let slice = total_ns / parts as u64;
            let (lo, hi) = (part as u64 * slice, (part as u64 + 1) * slice);
            schedule
                .iter()
                .filter(|op| (lo..hi).contains(&op.due_ns))
                .map(|op| Op { due_ns: op.due_ns - lo, req: op.req })
                .collect()
        }
        Pacing::Closed => schedule.to_vec(),
    }
}

pub fn warmup(ctx: &Ctx, s: &Setup) -> Res<Phase> {
    let ops = match ctx.spec.pacing {
        Pacing::Open { rate } => {
            workload::open_schedule(ctx.workload, ctx.seed, TAG_WARMUP, rate, WARMUP_NS)
        }
        Pacing::Closed => workload::closed_schedule(workload::BINARY_BATCHES),
    };
    run_phase(s.server.addr, &s.requests, ops, ctx.spec.pacing, ctx.spec.conns, WARMUP_NS, None)
}

/// The measured phase in [`SEGMENTS`] parts, each followed by one attempt
/// of every ladder rate, so a slow spell of the shared machine cannot
/// decide a whole rung. Returns the parts and the attempts per rate.
fn measured(ctx: &Ctx, s: &Setup) -> Res<(Vec<Phase>, Vec<Vec<Phase>>)> {
    let spec = ctx.spec;
    let total_ns = main_phase_ns(ctx);
    let schedule = main_schedule(ctx);
    let mut parts = Vec::new();
    let mut attempts: Vec<Vec<Phase>> = spec.ladder.iter().map(|_| Vec::new()).collect();
    for seg in 0..SEGMENTS {
        let ops = schedule_part(&schedule, spec.pacing, total_ns, seg, SEGMENTS);
        let part_ns = total_ns / SEGMENTS as u64;
        parts.push(run_phase(
            s.server.addr,
            &s.requests,
            ops,
            spec.pacing,
            spec.conns,
            part_ns,
            None,
        )?);
        for (i, &rate) in spec.ladder.iter().enumerate() {
            let tag = TAG_RUNG + (i * SEGMENTS + seg) as u64;
            let ops = workload::open_schedule(
                ctx.workload,
                ctx.seed,
                tag,
                rate,
                workload::RUNG_MS * 1_000_000,
            );
            let open = Pacing::Open { rate };
            attempts[i].push(run_phase(
                s.server.addr,
                &s.requests,
                ops,
                open,
                spec.conns,
                0,
                None,
            )?);
        }
    }
    Ok((parts, attempts))
}

/// Records how the server under test runs: its transport as `/stats`
/// reports it, and its worker count (`/stats` does not report one, so the
/// worker threads are counted by name in `/proc`).
pub fn server_provenance(server: &Server, prov: &mut Provenance) {
    let stats = server.get("/stats").map(|(_, b)| b).unwrap_or_default();
    prov.push("server_transport", crate::serve::json_str(&stats, "transport").unwrap_or_default());
    prov.push(
        "server_workers",
        crate::sys::threads_named(server.pid(), "cc-serve-worker").to_string(),
    );
}

pub fn run(ctx: &Ctx, prov: &mut Provenance) -> Res<Outcome> {
    let mut s = setup(ctx)?;
    server_provenance(&s.server, prov);
    let spec = ctx.spec;
    let addr = s.server.addr;
    let warm = warmup(ctx, &s)?;

    // Reloads under load run beside both the measured phase and the ladder.
    let stop = AtomicBool::new(false);
    let (parts, attempts, reloads) = std::thread::scope(|scope| -> Res<_> {
        let reload_thread = match (spec.reload_every_ms, &s.b) {
            (Some(every), Some(b)) => {
                let (manifest, stop) = (ctx.manifest(), &stop);
                let sets = [s.a.files.as_slice(), b.files.as_slice()];
                Some(scope.spawn(move || reloader(addr, &manifest, sets, every, stop)))
            }
            _ => None,
        };
        let outcome = measured(ctx, &s);
        stop.store(true, Ordering::Release);
        let reloads =
            reload_thread.map(|t| t.join().expect("reloader panicked")).unwrap_or_default();
        let (parts, attempts) = outcome?;
        Ok((parts, attempts, reloads))
    })?;

    // Workloads without reloads under load time a few quiet ones instead.
    let reloads = if reloads.is_empty() {
        (0..QUIET_RELOADS)
            .map(|_| {
                let sent_ns = now_ns();
                let ok = s.server.post("/reload").is_ok_and(|(status, _)| status == 200);
                ReloadSample { sent_ns, done_ns: now_ns(), ok }
            })
            .collect()
    } else {
        reloads
    };
    let rss = s.server.peak_rss_mib();
    let stats_body = s.server.get("/stats").map(|(_, b)| b).unwrap_or_default();
    s.server.stop();

    // Everything below runs after the timed phases.
    let mut notes = Vec::new();
    let oracles: Vec<_> =
        std::iter::once(&s.a.oracle).chain(s.b.as_ref().map(|b| &b.oracle)).collect();
    let mut checker = Checker::new(&s.requests, oracles);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for phase in std::iter::once(&warm).chain(&parts).chain(attempts.iter().flatten()) {
        attempted += phase.samples.len() as u64;
        failed += checker.check_all(&phase.samples, |op| phase.ops[op].req as usize) as u64;
    }
    attempted += reloads.len() as u64;
    failed += reloads.iter().filter(|r| !r.ok).count() as u64;
    let mut unsound = 0;
    for art in std::iter::once(&s.a).chain(s.b.as_ref()) {
        let ex =
            verify::exact_sample(&art.graph, &art.oracle, &s.requests, ctx.seed, EXACT_SAMPLES);
        notes.push(format!(
            "exact check: {} pairs, {} unsound, {} over the reported {:.2} stretch bound \
             (worst ratio {:.3}; capped-landmark artifacts promise soundness only)",
            ex.pairs,
            ex.unsound,
            ex.over_stretch,
            art.oracle.stretch_bound(),
            ex.worst_ratio
        ));
        unsound += ex.unsound;
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&s.setup_s).unwrap_or(f64::NAN), "s");
    let samples: Vec<&Sample> = parts.iter().flat_map(|p| &p.samples).collect();
    let kind_latencies = |phases: &[Phase], kind: Kind| {
        stats::sorted(
            phases
                .iter()
                .flat_map(|p| p.samples.iter().map(move |smp| (p, smp)))
                .filter(|(p, smp)| s.requests[p.ops[smp.op].req as usize].kind == kind)
                .map(|(_, smp)| smp.latency_us())
                .collect(),
        )
    };
    let timed = kind_latencies(&parts, spec.timed);
    let per_part: Vec<String> = parts
        .iter()
        .map(|p| kind_latencies(std::slice::from_ref(p), spec.timed))
        .map(|part| format!("{:.1}", percentile(&part, 0.5).unwrap_or(f64::NAN)))
        .collect();
    notes.push(format!("lat_p50_us per part: {} us", per_part.join(", ")));
    m.set("lat_p50_us", percentile(&timed, 0.5).unwrap_or(f64::NAN), "us");
    let lat = stats::sorted(samples.iter().map(|smp| smp.latency_us()).collect());
    // Reported, not gated: on a shared host the tail follows the host's
    // load from run to run (see perfbench/README.md).
    notes.push(format!(
        "lat_p50_us over {} {:?} samples; lat_p99_us {:.1} us over all {} (not gated)",
        timed.len(),
        spec.timed,
        client_p99_us(&parts, spec.pacing),
        lat.len()
    ));
    if ctx.workload == Workload::ShardedReload {
        notes.push(format!(
            "not gated: Get p50 {:.1} us, p50 of the whole mix {:.1} us",
            percentile(&kind_latencies(&parts, Kind::Get), 0.5).unwrap_or(f64::NAN),
            percentile(&lat, 0.5).unwrap_or(f64::NAN)
        ));
    }
    let pairs: usize = parts
        .iter()
        .flat_map(|p| p.samples.iter().filter(|smp| smp.reply.ok()).map(move |smp| (p, smp)))
        .map(|(p, smp)| s.requests[p.ops[smp.op].req as usize].pairs.len())
        .sum();
    let span_s: f64 = parts.iter().map(Phase::span_s).sum();
    m.set("pairs_per_s", pairs as f64 / span_s, "pairs/s");
    let rungs: Vec<Rung> = spec
        .ladder
        .iter()
        .zip(attempts)
        .map(|(&rate, attempts)| Rung::judge(rate, attempts, spec.slo))
        .collect();
    let slo = match spec.pacing {
        Pacing::Open { .. } => {
            rungs.iter().filter(|r| r.passed).map(|r| r.achieved).fold(0.0, f64::max)
        }
        Pacing::Closed => match percentile(&lat, spec.slo.q) {
            Some(t) if t <= spec.slo.limit_us => samples.len() as f64 / span_s,
            _ => 0.0,
        },
    };
    // Reported, not gated: its rungs are judged on a p99 (see
    // perfbench/README.md).
    notes.push(format!("slo_rps {slo:.1} req/s (not gated)"));
    let reload_ms: Vec<f64> = reloads.iter().map(ReloadSample::ms).collect();
    m.set("reload_p50_ms", median(&reload_ms).unwrap_or(f64::NAN), "ms");
    m.set("rss_peak_mib", rss, "MiB");

    let tail99 = |f: fn(&Sample) -> f64| {
        percentile(&stats::sorted(samples.iter().map(|smp| f(smp)).collect()), 0.99)
            .unwrap_or(f64::NAN)
    };
    let lag = tail99(Sample::lag_us);
    notes.push(format!(
        "measured phase: {} ops in {} parts, {:.2} s; generator lag p99 {lag:.1} us{}, \
         wait for a free connection p99 {:.1} us",
        samples.len(),
        parts.len(),
        span_s,
        if lag > loadgen::LAG_LIMIT_US { " -- GENERATOR FELL BEHIND: run invalid" } else { "" },
        tail99(Sample::queued_us),
    ));
    for r in &rungs {
        notes.push(format!(
            "ladder {:>8.0}/s x{}: p{:.0} {} us (limit {:.0}), last-quarter p50 {:.1} us, \
             achieved {:.1}/s -> {}",
            r.rate,
            r.attempts.len(),
            spec.slo.q * 100.0,
            r.tail_us.map_or("refused (too few samples)".to_owned(), |t| format!("{t:.1}")),
            spec.slo.limit_us,
            r.last_quarter_p50_us,
            r.achieved,
            if r.passed { "pass" } else { "fail" }
        ));
    }
    notes.push(format!(
        "reloads: {} ({} ok); failed_ratio {}/{} = {:.6}",
        reloads.len(),
        reloads.iter().filter(|r| r.ok).count(),
        failed,
        attempted,
        failed as f64 / attempted.max(1) as f64
    ));
    let a = &s.a;
    notes.push(format!(
        "last set-up: graph {:.1} ms, build {:.1} ms, partition {:.1} ms, encode {:.1} ms, \
         write {:.1} ms ({} bytes), spawn to healthy {:.1} ms",
        a.graph_ms,
        a.build_ms,
        a.partition_ms,
        a.encode_ms,
        a.write_ms,
        a.bytes,
        s.ready_s.last().copied().unwrap_or(f64::NAN) * 1e3
    ));
    if ctx.workload != Workload::BatchUniform {
        notes.push(format!(
            "Zipf({}) traffic: the {} hottest of {} pairs carry {:.3} of the GETs (analytic)",
            workload::ZIPF_S,
            workload::CACHE_CAPACITY,
            workload::PAIR_POOL,
            workload::Zipf::new(workload::PAIR_POOL, workload::ZIPF_S)
                .top_share(workload::CACHE_CAPACITY)
        ));
    }
    notes.push(format!("server /stats: {stats_body}"));
    let measured_ok = m.0.iter().all(|(_, v, _)| v.is_finite());
    if !measured_ok {
        notes.push("a metric could not be measured (NaN): run longer".to_owned());
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        correct: failed == 0 && unsound == 0 && measured_ok,
        notes,
    })
}
