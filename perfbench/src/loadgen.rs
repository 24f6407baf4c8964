//! The load generator: an open-loop engine that times every operation from
//! its intended send time (so a stall is charged to everything queued
//! behind it), a closed-loop engine, and the raw HTTP/1.1 client both use.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process: every timestamp the
/// benchmark records shares this one monotonic origin.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until `deadline_ns` (on the [`now_ns`] clock); returns at once
/// when it has passed.
pub fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

/// Generator lag (p99) above which a run's timings are marked invalid: the
/// generator, not the server, set them.
pub const LAG_LIMIT_US: f64 = 1000.0;

/// What one operation got back. `status` 0 is a transport error.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: u16,
    /// The body, for the small text and JSON answers.
    pub body: Vec<u8>,
    /// A digest of the body, for binary frames too large to keep.
    pub digest: u64,
}

impl Reply {
    pub fn failed() -> Reply {
        Reply::default()
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the operation in its schedule.
    pub op: usize,
    pub due_ns: u64,
    /// When a generator thread took the operation: after `due_ns` when
    /// every connection was busy at its due time.
    pub picked_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub reply: Reply,
}

impl Sample {
    /// Latency from the intended send time.
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    /// How late the generator itself sent: past the due time, or past
    /// the moment a busy connection freed up, whichever is later. Waiting
    /// for a free connection is the server's doing and is not lag.
    pub fn lag_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns.max(self.picked_ns)) as f64 / 1e3
    }

    /// How long the operation waited for a free connection.
    pub fn queued_us(&self) -> f64 {
        self.picked_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Runs `due_ns.len()` operations open-loop on `conns` connections, one
/// generator thread each. Operation `i` is due at `start_ns + due_ns[i]`;
/// whichever connection is free takes the next due operation, so when
/// every connection is busy the operation waits and its wait counts in its
/// latency. Returns the samples in schedule order.
///
/// # Errors
///
/// A connection that cannot be opened.
pub fn open_loop<C>(
    start_ns: u64,
    due_ns: &[u64],
    conns: usize,
    connect: &(dyn Fn() -> io::Result<C> + Sync),
    exec: &(dyn Fn(&mut C, usize) -> Reply + Sync),
) -> io::Result<Vec<Sample>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(due_ns.len()));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                scope.spawn(|| -> io::Result<()> {
                    crate::sys::tight_timer_slack();
                    let mut conn = connect()?;
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= due_ns.len() {
                            break;
                        }
                        let due = start_ns + due_ns[i];
                        let picked_ns = now_ns();
                        sleep_until(due);
                        let sent_ns = now_ns();
                        let reply = exec(&mut conn, i);
                        let done_ns = now_ns();
                        mine.push(Sample {
                            op: i,
                            due_ns: due,
                            picked_ns,
                            sent_ns,
                            done_ns,
                            reply,
                        });
                    }
                    out.lock().expect("sample sink poisoned").extend(mine);
                    Ok(())
                })
            })
            .collect();
        workers.into_iter().try_for_each(|w| w.join().expect("generator thread panicked"))
    })?;
    let mut samples = out.into_inner().expect("sample sink poisoned");
    samples.sort_by_key(|s| s.op);
    Ok(samples)
}

/// Runs operations `0, 1, 2, ...` back to back on one connection until
/// `end_ns`; each is due when it is sent.
///
/// # Errors
///
/// A connection that cannot be opened.
pub fn closed_loop<C>(
    end_ns: u64,
    connect: &dyn Fn() -> io::Result<C>,
    exec: &dyn Fn(&mut C, usize) -> Reply,
) -> io::Result<Vec<Sample>> {
    let mut conn = connect()?;
    let mut samples = Vec::new();
    while now_ns() < end_ns {
        let op = samples.len();
        let sent_ns = now_ns();
        let reply = exec(&mut conn, op);
        let done_ns = now_ns();
        samples.push(Sample { op, due_ns: sent_ns, picked_ns: sent_ns, sent_ns, done_ns, reply });
    }
    Ok(samples)
}

/// A keep-alive HTTP/1.1 connection that sends pre-rendered request bytes
/// and reads `Content-Length`-framed responses.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    body: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let reader = BufReader::with_capacity(128 * 1024, stream.try_clone()?);
        Ok(Client { reader, writer: stream, line: String::new(), body: Vec::new() })
    }

    /// Sends `request` and reads the answer. `keep_body` keeps the body;
    /// otherwise only its digest is kept.
    pub fn exchange(&mut self, request: &[u8], keep_body: bool) -> Reply {
        self.try_exchange(request, keep_body).unwrap_or_else(|_| Reply::failed())
    }

    fn try_exchange(&mut self, request: &[u8], keep_body: bool) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(if keep_body {
            Reply { status, body: self.body.clone(), digest: 0 }
        } else {
            Reply { status, body: Vec::new(), digest: digest(&self.body) }
        })
    }
}

/// A 64-bit digest of `bytes` (FNV-1a over little-endian words).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 ms stall on one connection must raise the measured latency of
    /// every operation due while it lasts: each is charged from its own
    /// due time, not from when the stalled generator got round to it.
    #[test]
    fn open_loop_charges_a_stall_to_every_operation_due_during_it() {
        let gap_ns = 200_000; // one operation every 200 µs
        let due: Vec<u64> = (0..200).map(|i| i * gap_ns).collect();
        let stalled = 50;
        let stall = Duration::from_millis(10);
        let start = now_ns() + 2_000_000;
        let samples = open_loop(start, &due, 1, &|| Ok(()), &|(), i| {
            if i == stalled {
                std::thread::sleep(stall);
            }
            Reply { status: 200, ..Reply::default() }
        })
        .unwrap();
        let stall_end = samples[stalled].done_ns;
        let caught = samples
            .iter()
            .filter(|s| s.op > stalled && s.due_ns < stall_end)
            .inspect(|s| {
                let owed = (stall_end - s.due_ns) as f64 / 1e3;
                assert!(
                    s.latency_us() >= owed,
                    "op {} due {owed:.0} µs before the stall ended reports {:.0} µs",
                    s.op,
                    s.latency_us()
                );
            })
            .count();
        assert!(caught >= 40, "a 10 ms stall at 5k/s queues about 50 operations, saw {caught}");
        // Coordinated omission would report these as ~0 µs: the first one
        // behind the stall owes nearly the whole 10 ms.
        assert!(samples[stalled + 1].latency_us() > 9_000.0);
    }

    #[test]
    fn closed_loop_runs_until_the_deadline() {
        let end = now_ns() + 5_000_000;
        let samples = closed_loop(end, &|| Ok(()), &|(), _| {
            std::thread::sleep(Duration::from_micros(200));
            Reply { status: 200, ..Reply::default() }
        })
        .unwrap();
        assert!(samples.len() >= 5);
        assert!(samples.iter().all(|s| s.due_ns == s.sent_ns));
    }
}
