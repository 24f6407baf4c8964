//! The three workloads: what each serves, what traffic it sends, and the
//! seeded generators that turn `--seed` into byte-identical requests.
//!
//! Every rate, length and ladder step below is a fixed constant: the
//! parent and a change run exactly the same traffic.

use std::collections::HashSet;

use crate::rng::Rng;

/// Accuracy parameter of every build.
pub const EPSILON: f64 = 0.25;
/// Zipf exponent of the point-lookup popularity.
pub const ZIPF_S: f64 = 1.1;
/// Distinct pairs the Zipf traffic draws from.
pub const PAIR_POOL: usize = 100_000;
/// The server's default result-cache capacity (`cc-serve --cache`).
pub const CACHE_CAPACITY: usize = 4096;
/// Pairs per binary `/batch` frame on `batch-uniform`.
pub const BINARY_BATCH_PAIRS: usize = 8192;
/// Distinct binary frames `batch-uniform` cycles through: 1M distinct
/// pairs, far more than the cache holds, so the LRU never hits.
pub const BINARY_BATCHES: usize = 128;
/// Pairs per text `/batch` body on `sharded-reload`.
pub const TEXT_BATCH_PAIRS: usize = 256;
/// Distinct text bodies `sharded-reload` draws from.
pub const TEXT_BATCHES: usize = 256;
/// Share of `sharded-reload` operations that are text batches.
pub const TEXT_SHARE: f64 = 0.2;

/// Sub-stream tags for [`Rng::new`].
const TAG_POOL: u64 = 1;
const TAG_BATCH: u64 = 2;
const TAG_ARRIVALS: u64 = 3;
const TAG_PICK: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointZipf,
    BatchUniform,
    ShardedReload,
}

/// How the load generator paces a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Poisson arrivals at `rate` operations per second, timed from each
    /// operation's intended send time.
    Open { rate: f64 },
    /// One caller that sends its next operation when the previous answer
    /// arrives.
    Closed,
}

/// The latency limit `slo_rps` is judged against: a percentile and its
/// ceiling in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub q: f64,
    pub limit_us: f64,
}

/// Length of one attempt at one SLO-ladder rate.
pub const RUNG_MS: u64 = 500;
/// Span of due times one tail percentile is taken over. An open-loop
/// phase reports the median of its windows' tails, so one stall of the
/// shared machine does not decide the figure. It equals the reload period
/// of `sharded-reload`, so there every window holds one reload. In a
/// measured phase a window holds at least 3000 operations (30 beyond a
/// p99); a ladder attempt is one window of at least 1000 (10 beyond).
pub const WINDOW_MS: u64 = 1000;

/// Everything fixed about one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub n: usize,
    pub k: usize,
    pub landmarks: usize,
    /// Shard count; 0 serves a monolithic snapshot.
    pub shards: usize,
    pub pacing: Pacing,
    /// Client connections (and generator threads) of the measured phase.
    pub conns: usize,
    pub slo: Slo,
    /// Offered rates of the open-loop SLO ladder, ascending; empty for a
    /// closed loop, whose `slo_rps` is its own rate when it meets the SLO.
    pub ladder: &'static [f64],
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Interval between manifest flips + bare `/reload`s during the
    /// measured phase; `None` reloads only after it, without load.
    pub reload_every_ms: Option<u64>,
    /// The operations `lat_p50_us` is the median of. On `sharded-reload`
    /// that is the text batches: the median of its 80/20 mix falls where
    /// the GET and batch latencies meet, and moved more from run to run
    /// with the shared host's speed than either kind's own median did.
    pub timed: Kind,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PointZipf, Workload::BatchUniform, Workload::ShardedReload];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointZipf => "point-zipf",
            Workload::BatchUniform => "batch-uniform",
            Workload::ShardedReload => "sharded-reload",
        }
    }

    pub fn spec(self) -> Spec {
        let conns = generator_threads();
        match self {
            Workload::PointZipf => Spec {
                n: 10_000,
                k: 16,
                landmarks: 32,
                shards: 0,
                pacing: Pacing::Open { rate: 8000.0 },
                conns,
                slo: Slo { q: 0.99, limit_us: 1000.0 },
                ladder: &[8000.0, 12000.0, 16000.0],
                setup_reps: 5,
                reload_every_ms: None,
                timed: Kind::Get,
            },
            Workload::BatchUniform => Spec {
                n: 100_000,
                k: 8,
                landmarks: 32,
                shards: 0,
                pacing: Pacing::Closed,
                conns: 1,
                slo: Slo { q: 0.99, limit_us: 25_000.0 },
                ladder: &[],
                setup_reps: 3,
                reload_every_ms: None,
                timed: Kind::Binary,
            },
            Workload::ShardedReload => Spec {
                n: 10_000,
                k: 16,
                landmarks: 32,
                shards: 3,
                pacing: Pacing::Open { rate: 3000.0 },
                conns,
                slo: Slo { q: 0.99, limit_us: 5000.0 },
                ladder: &[2000.0, 3000.0, 4000.0],
                setup_reps: 5,
                reload_every_ms: Some(1000),
                timed: Kind::Text,
            },
        }
    }
}

/// Generator threads and connections: `nproc`, the most this load
/// generator ever uses.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Binary,
    Text,
}

/// One distinct request: its pairs and the exact bytes sent on the wire.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub pairs: Vec<(u32, u32)>,
    pub bytes: Vec<u8>,
}

/// One scheduled operation: when it is due (nanoseconds from the phase
/// start; 0 in a closed loop) and which request it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub due_ns: u64,
    pub req: u32,
}

/// Every distinct request a workload can send under `seed`.
pub fn population(w: Workload, seed: u64) -> Vec<Request> {
    let n = w.spec().n as u64;
    let mut batch_rng = Rng::new(seed, TAG_BATCH);
    let mut uniform = |len: usize| -> Vec<(u32, u32)> {
        (0..len).map(|_| (batch_rng.below(n) as u32, batch_rng.below(n) as u32)).collect()
    };
    match w {
        Workload::PointZipf => pair_pool(n, seed).into_iter().map(get_request).collect(),
        Workload::BatchUniform => {
            (0..BINARY_BATCHES).map(|_| binary_request(uniform(BINARY_BATCH_PAIRS))).collect()
        }
        Workload::ShardedReload => {
            let mut reqs: Vec<Request> = pair_pool(n, seed).into_iter().map(get_request).collect();
            reqs.extend((0..TEXT_BATCHES).map(|_| text_request(uniform(TEXT_BATCH_PAIRS))));
            reqs
        }
    }
}

/// [`PAIR_POOL`] distinct unordered pairs `u != v`, in random order: the
/// Zipf rank of a pair is its position.
fn pair_pool(n: u64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, TAG_POOL);
    let mut seen = HashSet::with_capacity(PAIR_POOL);
    let mut pool = Vec::with_capacity(PAIR_POOL);
    while pool.len() < PAIR_POOL {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            pool.push((u, v));
        }
    }
    pool
}

fn get_request((u, v): (u32, u32)) -> Request {
    let bytes = format!("GET /distance?u={u}&v={v} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes();
    Request { kind: Kind::Get, pairs: vec![(u, v)], bytes }
}

/// The `CCBQ` request frame: magic, little-endian `u32` count, then
/// little-endian `u32` id pairs.
pub fn encode_frame(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * pairs.len());
    out.extend_from_slice(b"CCBQ");
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(u, v) in pairs {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn binary_request(pairs: Vec<(u32, u32)>) -> Request {
    let body = encode_frame(&pairs);
    let mut bytes = format!(
        "POST /batch HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-cc-batch\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(&body);
    Request { kind: Kind::Binary, pairs, bytes }
}

fn text_request(pairs: Vec<(u32, u32)>) -> Request {
    let body: String = pairs.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let mut bytes =
        format!("POST /batch HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    Request { kind: Kind::Text, pairs, bytes }
}

/// Inverse-CDF sampler of Zipf(`s`) ranks over `0..len`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(len: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=len)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c <= x).min(self.cdf.len() - 1)
    }

    /// Probability mass of the `top` most popular ranks.
    pub fn top_share(&self, top: usize) -> f64 {
        self.cdf[top.clamp(1, self.cdf.len()) - 1]
    }
}

/// The open-loop schedule of one phase: Poisson arrivals at `rate` over
/// `duration_ns` (as `rate · duration` arrivals placed uniformly at random
/// and sorted, i.e. a Poisson process conditioned on its count), each
/// picking a request by the workload's mix. `tag` separates phases.
pub fn open_schedule(w: Workload, seed: u64, tag: u64, rate: f64, duration_ns: u64) -> Vec<Op> {
    let count = (rate * duration_ns as f64 / 1e9).round() as usize;
    let mut arrivals = Rng::new(seed, TAG_ARRIVALS ^ (tag << 8));
    let mut due: Vec<u64> =
        (0..count).map(|_| (arrivals.unit() * duration_ns as f64) as u64).collect();
    due.sort_unstable();
    let mut pick = Rng::new(seed, TAG_PICK ^ (tag << 8));
    let zipf = Zipf::new(PAIR_POOL, ZIPF_S);
    due.into_iter()
        .map(|due_ns| {
            let req = match w {
                Workload::ShardedReload if pick.unit() < TEXT_SHARE => {
                    PAIR_POOL + pick.below(TEXT_BATCHES as u64) as usize
                }
                Workload::BatchUniform => pick.below(BINARY_BATCHES as u64) as usize,
                _ => zipf.sample(&mut pick),
            };
            Op { due_ns, req: req as u32 }
        })
        .collect()
}

/// The closed-loop order: the distinct frames, cycled.
pub fn closed_schedule(len: usize) -> Vec<Op> {
    (0..len).map(|i| Op { due_ns: 0, req: (i % BINARY_BATCHES) as u32 }).collect()
}

/// A byte serialization of a schedule plus the requests it sends, for the
/// determinism self-test.
#[cfg(test)]
fn stream_bytes(requests: &[Request], ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        out.extend_from_slice(&op.due_ns.to_le_bytes());
        out.extend_from_slice(&requests[op.req as usize].bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analytic share of the `top` most popular of `len` Zipf(`s`) ranks:
    /// `H(top, s) / H(len, s)`.
    fn analytic_top_share(top: usize, len: usize, s: f64) -> f64 {
        let h = |m: usize| (1..=m).map(|r| (r as f64).powf(-s)).sum::<f64>();
        h(top) / h(len)
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let stream = |seed: u64| {
                let reqs = population(w, seed);
                let ops = open_schedule(w, seed, 0, 2000.0, 200_000_000);
                stream_bytes(&reqs, &ops)
            };
            let a = stream(11);
            assert!(!a.is_empty());
            assert_eq!(a, stream(11), "{}: same seed must give identical bytes", w.name());
            assert_ne!(a, stream(12), "{}: another seed must give another stream", w.name());
        }
    }

    #[test]
    fn zipf_top_4096_share_matches_the_analytic_value() {
        let zipf = Zipf::new(PAIR_POOL, ZIPF_S);
        let want = analytic_top_share(4096, PAIR_POOL, ZIPF_S);
        assert!((zipf.top_share(4096) - want).abs() < 1e-9);
        let mut rng = Rng::new(5, 99);
        let draws = 200_000;
        let hot = (0..draws).filter(|_| zipf.sample(&mut rng) < 4096).count();
        let got = hot as f64 / draws as f64;
        // Binomial standard error at 200k draws is about 0.001.
        assert!((got - want).abs() < 0.005, "top-4096 share {got:.4} vs analytic {want:.4}");
    }

    #[test]
    fn pair_pool_is_distinct_and_in_range() {
        let pool = pair_pool(10_000, 3);
        let keys: HashSet<_> = pool.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        assert_eq!(keys.len(), PAIR_POOL);
        assert!(pool.iter().all(|&(u, v)| u != v && u < 10_000 && v < 10_000));
    }

    #[test]
    fn open_schedules_hold_rate_times_duration_sorted_arrivals() {
        let ops = open_schedule(Workload::PointZipf, 1, 0, 8000.0, 1_000_000_000);
        assert_eq!(ops.len(), 8000);
        assert!(ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(ops.iter().all(|op| (op.req as usize) < PAIR_POOL));
    }
}
