//! The `cc-serve` process under test: spawn from a manifest, wait for
//! `/healthz`, scrape `/stats` and `/metrics`, read its peak RSS, and stop
//! it (always killed and reaped, also when the benchmark unwinds).

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen::Client;

/// How long a server may take from spawn to its first `/healthz` 200.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Server {
    child: Child,
    /// Held open: `cc-serve` prints to stdout, and a closed pipe would
    /// make a later print fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn until the first `/healthz` 200, seconds.
    pub ready_s: f64,
}

impl Server {
    /// Spawns `bin --manifest manifest` on an ephemeral loopback port with
    /// every other setting at its default, and waits until it is healthy.
    /// The server's stderr goes to `log`.
    pub fn spawn(bin: &Path, manifest: &Path, log: &Path) -> io::Result<Server> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--manifest")
            .arg(manifest)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        // "cc-serve listening on http://ADDR (...)" is the first line.
        let mut line = String::new();
        server._stdout.read_line(&mut line)?;
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!(
                    "cc-serve did not announce its address (got {line:?}); see {}",
                    log.display()
                ))
            })?;
        while !server.get("/healthz").is_ok_and(|(s, _)| s == 200) {
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("cc-serve never answered /healthz"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.ready_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn exchange(&self, request: &str) -> io::Result<(u16, String)> {
        let reply = Client::connect(self.addr)?.exchange(request.as_bytes(), true);
        match reply.status {
            0 => Err(io::Error::other(format!(
                "no answer to {}",
                request.lines().next().unwrap_or("")
            ))),
            s => Ok((s, String::from_utf8_lossy(&reply.body).into_owned())),
        }
    }

    /// One `GET path` on a fresh connection.
    pub fn get(&self, path: &str) -> io::Result<(u16, String)> {
        self.exchange(&format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
    }

    /// One empty-bodied `POST path` on a fresh connection.
    pub fn post(&self, path: &str) -> io::Result<(u16, String)> {
        self.exchange(&format!("POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"))
    }

    /// Unlabelled counter families from one `/metrics` scrape (the scrape
    /// itself counts as a request).
    pub fn counters(&self, families: &[&str]) -> io::Result<Vec<u64>> {
        let (_, text) = self.get("/metrics")?;
        families
            .iter()
            .map(|family| {
                text.lines()
                    .find_map(|l| {
                        l.strip_prefix(family)?.strip_prefix(' ')?.trim().parse::<f64>().ok()
                    })
                    .map(|v| v as u64)
                    .ok_or_else(|| io::Error::other(format!("/metrics has no {family}")))
            })
            .collect()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        crate::sys::proc_status_kib(self.pid(), "VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
    }

    /// Stops the server and waits until it has exited.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A string field of a flat JSON object (`"key":"value"`).
pub fn json_str(text: &str, key: &str) -> Option<String> {
    let at = text.find(&format!("\"{key}\":\""))? + key.len() + 4;
    Some(text[at..].split('"').next()?.to_owned())
}
