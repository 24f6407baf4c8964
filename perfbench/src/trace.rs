//! The traced run: the per-layer metrics, attributed from outside the
//! program. Spans are recorded by the benchmark around calls into each
//! layer's public functions — around the socket round trip in a live run,
//! and around `http::read_request`, `AppState::handle` and
//! `http::write_response` (the order `serve_one` calls them) in a
//! single-threaded in-process replay of the same seeded stream. The program
//! itself carries no tracing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use cc_oracle::{serde, DistanceOracle, QueryBackend, ShardedArtifact};
use cc_server::http::{read_request, write_response};
use cc_server::{frame, source, AppState, BackendSpec, Generation, ServerConfig, WARM_KEYS};

use crate::artifact;
use crate::e2e::{self, Ctx, Outcome, Phase, ReloadSample, Res, Setup};
use crate::loadgen::{self, now_ns, Reply, Sample};
use crate::report::{Metrics, Provenance};
use crate::stats::{self, median, percentile, quartiles};
use crate::verify::{self, Checker};
use crate::workload::{self, Kind, Op, Pacing, Request, Workload, CACHE_CAPACITY};

/// Live sub-phases, alternating untraced and traced, so the tracing
/// overhead is measured against interleaved untraced rounds.
const LIVE_ROUNDS: usize = 6;
/// Operations the in-process replay runs: a prefix of the measured
/// phase's schedule.
const REPLAY_OPS: usize = 10_000;
/// Binary frames the replay runs on `batch-uniform`.
const REPLAY_BATCHES: usize = 64;
/// Interleaved telemetry on/off rounds, and operations per round.
const TELEMETRY_ROUNDS: usize = 20;
const TELEMETRY_OPS: usize = 5000;
const TELEMETRY_BATCHES: usize = 8;
/// In-process reloads timed.
const RELOADS: usize = 4;
/// Shards the router comparison cuts on every workload.
const ROUTER_SHARDS: usize = 3;
/// Reads due this long after a `/reload` was sent count as "during" it.
const RELOAD_WINDOW_NS: u64 = 50_000_000;
/// Parent of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory and written out when the run ends.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        self.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, op });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, op);
        let out = f();
        self.close(span);
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// The time each span's children cover (children of one span never
    /// overlap here: the replay is single-threaded). A span's self time
    /// is its duration minus this.
    pub fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.parent != ROOT) {
            covered[s.parent as usize] += s.ns();
        }
        covered
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        std::fs::write(path, out)
    }
}

fn usize_pairs(req: &Request) -> Vec<(usize, usize)> {
    req.pairs.iter().map(|&(u, v)| (u as usize, v as usize)).collect()
}

/// One operation's pairs through any backend, the way the handlers call
/// it: `try_query` for a point lookup, `try_query_batch` for a batch.
fn query(backend: &dyn QueryBackend, kind: Kind, pairs: &[(usize, usize)]) -> usize {
    match kind {
        Kind::Get => usize::from(backend.try_query(pairs[0].0, pairs[0].1).is_ok()),
        _ => backend.try_query_batch(pairs).map_or(0, |d| d.len()),
    }
}

/// The replayed operations: the measured phase's schedule prefix.
fn replay_ops(ctx: &Ctx) -> Vec<Op> {
    let ops = e2e::main_schedule(ctx);
    let take = match ctx.spec.pacing {
        Pacing::Closed => REPLAY_BATCHES,
        Pacing::Open { .. } => REPLAY_OPS,
    };
    ops.into_iter().cycle().take(take).collect()
}

/// The live part: the measured phase's schedule split into
/// [`LIVE_ROUNDS`] sub-phases, odd ones traced (a span around each socket
/// round trip). Returns (untraced, traced) phases and the reloads.
fn live(
    ctx: &Ctx,
    s: &Setup,
    tracer: &mut Tracer,
) -> Res<(Vec<Phase>, Vec<Phase>, Vec<ReloadSample>)> {
    let spec = ctx.spec;
    let total_ns = e2e::main_phase_ns(ctx);
    let round_ns = total_ns / LIVE_ROUNDS as u64;
    let schedule = e2e::main_schedule(ctx);
    let roundtrips = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let addr = s.server.addr;
    let (plain, traced, reloads) = std::thread::scope(|scope| -> Res<_> {
        let reload_thread = match (spec.reload_every_ms, &s.b) {
            (Some(every), Some(b)) => {
                let (manifest, stop) = (ctx.manifest(), &stop);
                let sets = [s.a.files.as_slice(), b.files.as_slice()];
                Some(scope.spawn(move || e2e::reloader(addr, &manifest, sets, every, stop)))
            }
            _ => None,
        };
        let run = (|| -> Res<_> {
            let (mut plain, mut traced) = (Vec::new(), Vec::new());
            for round in 0..LIVE_ROUNDS {
                let is_traced = round % 2 == 1;
                let ops = e2e::schedule_part(&schedule, spec.pacing, total_ns, round, LIVE_ROUNDS);
                let sink = is_traced.then_some(&roundtrips);
                let phase = e2e::run_phase(
                    addr,
                    &s.requests,
                    ops,
                    spec.pacing,
                    spec.conns,
                    round_ns,
                    sink,
                )?;
                if is_traced {
                    traced.push(phase)
                } else {
                    plain.push(phase)
                }
            }
            Ok((plain, traced))
        })();
        stop.store(true, Ordering::Release);
        let reloads =
            reload_thread.map(|t| t.join().expect("reloader panicked")).unwrap_or_default();
        let (plain, traced) = run?;
        Ok((plain, traced, reloads))
    })?;
    let roundtrips = roundtrips.into_inner().expect("round-trip sink poisoned");
    tracer.spans.extend(roundtrips.into_iter().map(|(op, start_ns, end_ns)| Span {
        name: "socket.roundtrip",
        start_ns,
        end_ns,
        parent: ROOT,
        op,
    }));
    Ok((plain, traced, reloads))
}

fn p50(samples: &[&Sample]) -> f64 {
    median(&samples.iter().map(|s| s.latency_us()).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn ms_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e6
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// What the stages of a traced run accumulate.
struct Report {
    m: Metrics,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

pub fn run(ctx: &Ctx, prov: &mut Provenance) -> Res<Outcome> {
    let mut s = e2e::setup(ctx)?;
    e2e::server_provenance(&s.server, prov);
    let mut tr = Tracer::default();
    let mut r =
        Report { m: Metrics::default(), notes: Vec::new(), attempted: 0, failed: 0, correct: true };

    let (client_p50, traced_p50, plain_p50) = live_layers(ctx, &s, &mut tr, &mut r)?;
    s.server.stop();

    // In process, on the workload's files with the manifest back on set A.
    let manifest = ctx.manifest();
    artifact::write_manifest(&manifest, &s.a.files)?;
    let state = AppState::from_spec(BackendSpec::from_manifest(&manifest)?, CACHE_CAPACITY)?;
    let ops = replay_ops(ctx);
    let reqs: Vec<&Request> = ops.iter().map(|op| &s.requests[op.req as usize]).collect();
    let in_process_p50 = replay_layers(ctx, &s, &state, &ops, &mut tr, &mut r);
    let (cached, backend) = query_layers(&s, &state, &manifest, &reqs, &mut tr, &mut r)?;
    frame_layer(ctx, &s, &reqs, &mut tr, &mut r)?;
    telemetry_layer(ctx, &state, &manifest, &reqs, &mut r)?;
    setup_layers(ctx, &s, &mut tr, &mut r)?;
    reload_layers(&s, &state, &manifest, &mut r)?;

    // Reconciliation: the client p50 against what the layers account for.
    let (read, handle, write) = (
        med(&tr.durations("http.read_request")),
        med(&tr.durations("handlers.handle")),
        med(&tr.durations("http.write_response")),
    );
    let residual = client_p50 - in_process_p50 / 1e3;
    r.m.set("server.residual_p50_us", residual, "us");
    let lag = r.m.get("loadgen.lag_p99_us").unwrap_or(f64::NAN);
    let rows = [
        ("client p50 (traced)", client_p50),
        ("http.read_request", read / 1e3),
        ("handlers self (handle - cached)", (handle - cached) / 1e3),
        ("cache self (cached - backend)", (cached - backend) / 1e3),
        ("backend (kernel or router)", backend / 1e3),
        ("http.write_response", write / 1e3),
        ("unattributed residual", residual),
    ];
    r.notes.push(format!(
        "layer attribution for {} (medians per operation, us; the client p50 and the \
         residual over its {:?} operations, as lat_p50_us, the layers over every one):",
        ctx.workload.name(),
        ctx.spec.timed
    ));
    r.notes.extend(rows.iter().map(|(name, us)| format!("  {name:<32} {us:>12.2}")));
    r.notes.push("  (the residual is socket, epoll, pool hand-off and client time)".to_owned());
    if residual < 0.0 {
        r.notes
            .push("TRACE ERROR: the in-process layers sum to more than the client p50".to_owned());
    }
    r.notes.push(format!(
        "trace.overhead_pct {:.2} (traced p50 {traced_p50:.2} us vs interleaved untraced \
         {plain_p50:.2} us, every operation); loadgen.lag_p99_us {lag:.1}{}",
        r.m.get("trace.overhead_pct").unwrap_or(f64::NAN),
        if lag > loadgen::LAG_LIMIT_US { " -- GENERATOR FELL BEHIND: run invalid" } else { "" }
    ));

    let traces = ctx.root.join(".perfbench").join("traces");
    std::fs::create_dir_all(&traces)?;
    let path = traces.join(format!("{}.jsonl", ctx.workload.name()));
    tr.write(&path)?;
    r.notes.push(format!("{} spans written to {}", tr.spans.len(), path.display()));

    let measured_ok = r.m.0.iter().all(|(_, v, _)| v.is_finite());
    if !measured_ok {
        r.notes.push("a per-layer metric could not be measured (NaN)".to_owned());
    }
    Ok(Outcome {
        correct: r.correct && r.failed == 0 && measured_ok,
        metrics: r.m,
        attempted: r.attempted,
        failed: r.failed,
        notes: r.notes,
    })
}

/// The live layers: counters scraped around the interleaved rounds, the
/// tracing overhead, generator lag, reads near reloads, and every answer.
/// Returns the traced client p50 of the workload's timed operations (those
/// `lat_p50_us` is taken over), and the traced and untraced p50s of every
/// operation.
fn live_layers(ctx: &Ctx, s: &Setup, tr: &mut Tracer, r: &mut Report) -> Res<(f64, f64, f64)> {
    const COUNTERS: [&str; 2] = ["cc_requests_total", "cc_load_shed_total"];
    let warm = e2e::warmup(ctx, s)?;
    let before = s.server.counters(&COUNTERS)?;
    let (plain, traced, reloads) = live(ctx, s, tr)?;
    let after = s.server.counters(&COUNTERS)?;
    let sent = plain.iter().chain(&traced).map(|p| p.samples.len()).sum::<usize>() + reloads.len();
    // The scrape after the phase counts itself.
    let counted = after[0].saturating_sub(before[0] + 1);
    r.m.set("server.requests_counted", counted as f64, "count");
    r.m.set("server.requests_sent", sent as f64, "count");
    r.m.set("pool.shed", after[1].saturating_sub(before[1]) as f64, "count");
    if counted != sent as u64 {
        r.correct = false;
        r.notes.push(format!(
            "COUNTER MISMATCH: cc_requests_total moved by {counted}, {sent} requests were sent"
        ));
    }
    r.m.set("server.ready_s", med(&s.ready_s), "s");

    let plain_s: Vec<&Sample> = plain.iter().flat_map(|p| &p.samples).collect();
    let traced_s: Vec<&Sample> = traced.iter().flat_map(|p| &p.samples).collect();
    let (traced_p50, plain_p50) = (p50(&traced_s), p50(&plain_s));
    r.m.set("trace.overhead_pct", (traced_p50 - plain_p50) / plain_p50 * 100.0, "%");
    let timed: Vec<&Sample> = traced
        .iter()
        .flat_map(|p| p.samples.iter().map(move |smp| (p, smp)))
        .filter(|(p, smp)| s.requests[p.ops[smp.op].req as usize].kind == ctx.spec.timed)
        .map(|(_, smp)| smp)
        .collect();
    let client_p50 = p50(&timed);
    r.m.set("client.lat_p99_us", e2e::client_p99_us(&plain, ctx.spec.pacing), "us");
    let all: Vec<&Sample> = plain_s.iter().chain(&traced_s).copied().collect();
    let lags = stats::sorted(all.iter().map(|s| s.lag_us()).collect());
    r.m.set("loadgen.lag_p99_us", percentile(&lags, 0.99).unwrap_or(f64::NAN), "us");

    let during = |s: &&&Sample| {
        reloads.iter().any(|x| (x.sent_ns..x.sent_ns + RELOAD_WINDOW_NS).contains(&s.due_ns))
    };
    let inside = stats::sorted(all.iter().filter(during).map(|s| s.latency_us()).collect());
    let outside =
        stats::sorted(all.iter().filter(|s| !during(s)).map(|s| s.latency_us()).collect());
    let delta = match (percentile(&inside, 0.99), percentile(&outside, 0.99)) {
        (Some(i), Some(o)) => i - o,
        _ => {
            r.notes.push(
                "reload.read_p99_delta_us: no reloads under load, or too few reads near them \
                 (reported as 0)"
                    .to_owned(),
            );
            0.0
        }
    };
    r.m.set("reload.read_p99_delta_us", delta, "us");

    let oracles: Vec<&DistanceOracle> =
        std::iter::once(&s.a.oracle).chain(s.b.as_ref().map(|b| &b.oracle)).collect();
    let mut checker = Checker::new(&s.requests, oracles);
    for phase in std::iter::once(&warm).chain(&plain).chain(&traced) {
        r.attempted += phase.samples.len() as u64;
        r.failed += checker.check_all(&phase.samples, |op| phase.ops[op].req as usize) as u64;
    }
    r.attempted += reloads.len() as u64;
    r.failed += reloads.iter().filter(|x| !x.ok).count() as u64;
    Ok((client_p50, traced_p50, plain_p50))
}

/// Replays `ops` through `state` the way `serve_one` does — read the
/// request, handle it, write the response — with a span around each call,
/// and checks every answer. Returns the median time the three cover on the
/// workload's timed operations.
fn replay_layers(
    ctx: &Ctx,
    s: &Setup,
    state: &AppState,
    ops: &[Op],
    tr: &mut Tracer,
    r: &mut Report,
) -> f64 {
    let max_body = ServerConfig::default().max_body_bytes;
    let mut checker = Checker::new(&s.requests, vec![&s.a.oracle]);
    let mut mismatched = 0;
    let replay = tr.open("replay", ROOT, 0);
    for (i, op) in ops.iter().enumerate() {
        let (id, req) = (i as u64, &s.requests[op.req as usize]);
        let root = tr.open("replay.op", replay, id);
        let parsed =
            tr.time("http.read_request", root, id, || read_request(&mut &req.bytes[..], max_body));
        let Ok(parsed) = parsed else {
            mismatched += 1;
            tr.close(root);
            continue;
        };
        let resp = tr.time("handlers.handle", root, id, || state.handle(&parsed));
        let wire = tr.time("http.write_response", root, id, || {
            let mut out = Vec::with_capacity(resp.body.len() + 128);
            write_response(&mut out, &resp, parsed.keep_alive, false).map(|()| out)
        });
        tr.close(root);
        let reply = match req.kind {
            Kind::Binary => Reply {
                status: resp.status,
                digest: loadgen::digest(&resp.body),
                ..Reply::default()
            },
            _ => Reply { status: resp.status, body: resp.body, digest: 0 },
        };
        if wire.is_err() || !checker.check(op.req as usize, &reply) {
            mismatched += 1;
        }
    }
    tr.close(replay);
    r.attempted += ops.len() as u64;
    r.failed += mismatched;
    if mismatched > 0 {
        r.notes.push(format!("REPLAY MISMATCH: {mismatched} in-process answers are wrong"));
    }
    r.m.set("http.read_request_ns", med(&tr.durations("http.read_request")), "ns");
    r.m.set("handlers.handle_ns", med(&tr.durations("handlers.handle")), "ns");
    r.m.set("http.write_response_ns", med(&tr.durations("http.write_response")), "ns");
    let covered = tr.children_ns();
    let timed = |span: &Span| s.requests[ops[span.op as usize].req as usize].kind == ctx.spec.timed;
    let in_process: Vec<f64> = (0..tr.spans.len())
        .filter(|&i| tr.spans[i].name == "replay.op" && timed(&tr.spans[i]))
        .map(|i| covered[i] as f64)
        .collect();
    med(&in_process)
}

/// Each query layer alone on the replayed pairs: a fresh
/// `Generation::cached()` of the same capacity, the backend behind it, the
/// monolithic oracle, and a shard router over the same artifact. Returns
/// the cached and backend medians per operation.
fn query_layers(
    s: &Setup,
    state: &AppState,
    manifest: &Path,
    reqs: &[&Request],
    tr: &mut Tracer,
    r: &mut Report,
) -> Res<(f64, f64)> {
    let pairs: Vec<Vec<(usize, usize)>> = reqs.iter().map(|q| usize_pairs(q)).collect();
    let total_pairs: usize = pairs.iter().map(Vec::len).sum();
    let pass = |tr: &mut Tracer, name: &'static str, backend: &dyn QueryBackend| {
        let root = tr.open("pass", ROOT, 0);
        for (i, (req, p)) in reqs.iter().zip(&pairs).enumerate() {
            tr.time(name, root, i as u64, || query(backend, req.kind, p));
        }
        tr.close(root);
    };
    let fresh =
        Generation::from_loaded(BackendSpec::from_manifest(manifest)?.load()?, CACHE_CAPACITY);
    let before = fresh.cached().stats();
    pass(tr, "generation.cached", fresh.cached());
    let after = fresh.cached().stats();
    pass(tr, "generation.backend", fresh.backend().as_ref());
    pass(tr, "oracle.query", &s.a.oracle);
    let t = now_ns();
    let sharded = ShardedArtifact::partition(&s.a.oracle, ROUTER_SHARDS)?;
    r.m.set("shard.partition_ms", ms_since(t), "ms");
    pass(tr, "shard.router", &sharded.into_router()?);

    let cached = med(&tr.durations("generation.cached"));
    let handle = r.m.get("handlers.handle_ns").unwrap_or(f64::NAN);
    r.m.set("handlers.self_ns", handle - cached, "ns");
    let per_pair = |name: &str| tr.total_ns(name) / total_pairs as f64;
    let cache_self = per_pair("generation.cached") - per_pair("generation.backend");
    r.m.set("cache.self_ns_per_pair", cache_self, "ns");
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hit_ratio = (after.hits - before.hits) as f64 / lookups.max(1) as f64;
    r.m.set("cache.hit_ratio", hit_ratio, "ratio");
    r.m.set("cache.lookups", lookups as f64, "count");
    let (oracle, router) = (per_pair("oracle.query"), per_pair("shard.router"));
    r.m.set("oracle.query_ns_per_pair", oracle, "ns");
    let bytes = state.generation().descriptor().artifact_bytes as f64;
    r.m.set("oracle.artifact_bytes", bytes, "bytes");
    r.m.set("shard.router_ns_per_pair", router, "ns");
    r.m.set("shard.router_over_mono", router / oracle, "ratio");
    Ok((cached, med(&tr.durations("generation.backend"))))
}

/// The binary frame codec on this stream's pairs: the workload's own frames
/// on `batch-uniform`, elsewhere the pairs cut into frames (there the codec
/// is not on the serving path, and should not move).
fn frame_layer(
    ctx: &Ctx,
    s: &Setup,
    reqs: &[&Request],
    tr: &mut Tracer,
    r: &mut Report,
) -> Res<()> {
    let frames: Vec<Vec<u8>> = match ctx.workload {
        Workload::BatchUniform => reqs.iter().map(|q| workload::encode_frame(&q.pairs)).collect(),
        _ => {
            let flat: Vec<(u32, u32)> = reqs.iter().flat_map(|q| q.pairs.iter().copied()).collect();
            flat.chunks(workload::BINARY_BATCH_PAIRS).map(workload::encode_frame).collect()
        }
    };
    let root = tr.open("pass", ROOT, 1);
    let mut framed = 0usize;
    for (i, body) in frames.iter().enumerate() {
        let id = i as u64;
        let decoded = tr.time("frame.decode_request", root, id, || frame::decode_request(body))?;
        framed += decoded.len();
        let values = verify::expected(&s.a.oracle, &decoded);
        let encoded = tr.time("frame.encode_response", root, id, || {
            frame::encode_response_from(values.iter().copied())
        });
        if encoded != verify::response_frame(&values) {
            r.failed += 1;
            r.notes.push("FRAME MISMATCH: encode_response_from disagrees with CCBR".to_owned());
        }
    }
    tr.close(root);
    let per_pair = |name: &str| tr.total_ns(name) / framed as f64;
    r.m.set("frame.decode_ns_per_pair", per_pair("frame.decode_request"), "ns");
    r.m.set("frame.encode_ns_per_pair", per_pair("frame.encode_response"), "ns");
    Ok(())
}

/// Telemetry on against off: the replay through `state` and through a
/// twin after `disable_telemetry()`, in interleaved rounds alternating
/// which goes first; the median overhead and its interquartile range.
fn telemetry_layer(
    ctx: &Ctx,
    state: &AppState,
    manifest: &Path,
    reqs: &[&Request],
    r: &mut Report,
) -> Res<()> {
    let mut quiet = AppState::from_spec(BackendSpec::from_manifest(manifest)?, CACHE_CAPACITY)?;
    quiet.disable_telemetry();
    let max_body = ServerConfig::default().max_body_bytes;
    let serve_all = |state: &AppState, slice: &[&Request]| -> u64 {
        let t = now_ns();
        for req in slice {
            if let Ok(parsed) = read_request(&mut &req.bytes[..], max_body) {
                let resp = state.handle(&parsed);
                let mut out = Vec::with_capacity(resp.body.len() + 128);
                let _ = write_response(&mut out, &resp, parsed.keep_alive, false);
                std::hint::black_box(out);
            }
        }
        now_ns() - t
    };
    // One untimed pass each, so both caches start the rounds warm.
    serve_all(state, reqs);
    serve_all(&quiet, reqs);
    let chunk = match ctx.spec.pacing {
        Pacing::Closed => TELEMETRY_BATCHES,
        Pacing::Open { .. } => TELEMETRY_OPS,
    };
    let mut overheads = Vec::new();
    for round in 0..TELEMETRY_ROUNDS {
        let at = (round * chunk) % reqs.len();
        let slice = &reqs[at..(at + chunk).min(reqs.len())];
        let (on, off) = if round % 2 == 0 {
            let on = serve_all(state, slice);
            (on, serve_all(&quiet, slice))
        } else {
            let off = serve_all(&quiet, slice);
            (serve_all(state, slice), off)
        };
        overheads.push((on as f64 - off as f64) / off as f64 * 100.0);
    }
    let (q1, q2, q3) = quartiles(&overheads).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    r.m.set("telemetry.overhead_pct", q2, "%");
    r.m.set("telemetry.overhead_iqr_pct", q3 - q1, "%");
    r.notes.push(format!(
        "telemetry overhead per round (%): {}",
        overheads.iter().map(|o| format!("{o:.1}")).collect::<Vec<_>>().join(" ")
    ));
    Ok(())
}

/// The set-up layers on the workload's own artifact and files: snapshot
/// encoding, loading, and the build's phases.
fn setup_layers(ctx: &Ctx, s: &Setup, tr: &mut Tracer, r: &mut Report) -> Res<()> {
    let root = tr.open("pass", ROOT, 2);
    let bytes: usize = if ctx.spec.shards == 0 {
        tr.time("serde.encode", root, 0, || serde::to_bytes(&s.a.oracle)).len()
    } else {
        let sharded = ShardedArtifact::partition(&s.a.oracle, ctx.spec.shards)?;
        let mut total = 0;
        for (i, shard) in sharded.shards().iter().enumerate() {
            total += tr.time("serde.encode", root, i as u64, || serde::to_shard_bytes(shard)).len();
        }
        total
    };
    tr.close(root);
    r.m.set("serde.encode_ms", tr.total_ns("serde.encode") / 1e6, "ms");
    r.m.set("serde.snapshot_bytes", bytes as f64, "bytes");
    let mut loads = Vec::new();
    for _ in 0..3 {
        let t = now_ns();
        let ok = if ctx.spec.shards == 0 {
            source::load_snapshot(&s.a.files[0]).is_ok()
        } else {
            source::load_shard_set(&s.a.files).is_ok()
        };
        loads.push(ms_since(t));
        r.correct &= ok;
    }
    r.m.set("source.load_ms", med(&loads), "ms");
    let phase_s = |name: &str| s.a.trace.span(name).map_or(f64::NAN, |p| p.wall_ns as f64 / 1e9);
    r.m.set("direct.build_s", s.a.build_ms / 1e3, "s");
    r.m.set("direct.k_nearest_balls_s", phase_s("k_nearest_balls"), "s");
    r.m.set("direct.landmark_selection_s", phase_s("landmark_selection"), "s");
    r.m.set("direct.exact_columns_s", phase_s("exact_columns"), "s");
    Ok(())
}

/// A reload in process: `AppState::reload_manifest` flipping between the
/// workload's two sets (the one set, for a monolith), and the load and
/// cache-warm parts it spends its time in.
fn reload_layers(s: &Setup, state: &AppState, manifest: &Path, r: &mut Report) -> Res<()> {
    let sets: [&[PathBuf]; 2] = [&s.a.files, s.b.as_ref().map_or(&s.a.files, |b| &b.files)];
    let (mut swap, mut load, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..RELOADS {
        artifact::write_manifest(manifest, sets[(i + 1) % 2])?;
        let t = now_ns();
        let next =
            Generation::from_loaded(BackendSpec::from_manifest(manifest)?.load()?, CACHE_CAPACITY);
        load.push(ms_since(t));
        let current = state.generation();
        let t = now_ns();
        drop(next.warmed_from(&current, WARM_KEYS));
        warm.push(ms_since(t));
        drop(current);
        let t = now_ns();
        r.correct &= state.reload_manifest(manifest).is_ok();
        swap.push(ms_since(t));
    }
    artifact::write_manifest(manifest, &s.a.files)?;
    let (swap, load, warm) = (med(&swap), med(&load), med(&warm));
    r.m.set("reload.swap_ms", swap, "ms");
    r.m.set("reload.warm_ms", warm, "ms");
    r.m.set("reload.self_ms", swap - load - warm, "ms");
    Ok(())
}
