//! The result line and the provenance that rides with every result.

use std::fmt::Write as _;
use std::path::Path;

use crate::sys;

/// Metrics in the order they were measured: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON, with every digit Rust's shortest round-trip form
/// gives; a non-finite value (a measurement bug) becomes `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The last line of standard output, as the benchmark contract defines it.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where and on what a result was measured.
#[derive(Debug, Default)]
pub struct Provenance(pub Vec<(&'static str, String)>);

impl Provenance {
    /// Git sha and dirty flag (when the checkout is a git repository), a
    /// digest of the sources either way, `nproc`, CPU model and rustc.
    pub fn gather(root: &Path) -> Provenance {
        let mut p = Provenance::default();
        // Only the checkout's own repository: git would otherwise report an
        // enclosing one.
        let sha = root
            .join(".git")
            .exists()
            .then(|| sys::command_output("git", &["rev-parse", "HEAD"], root))
            .flatten();
        let dirty = sha.as_ref().and_then(|_| {
            sys::command_output("git", &["status", "--porcelain", "--untracked-files=no"], root)
        });
        p.push("git_sha", sha.unwrap_or_else(|| "unavailable (not a git checkout)".to_owned()));
        p.push(
            "git_dirty",
            dirty.map_or_else(|| "unknown".to_owned(), |d| (!d.is_empty()).to_string()),
        );
        p.push("source_digest", format!("{:016x}", source_digest(root)));
        p.push("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string());
        p.push("cpu_model", sys::cpu_model());
        p.push(
            "rustc",
            sys::command_output("rustc", &["--version"], root)
                .unwrap_or_else(|| "unknown".to_owned()),
        );
        p
    }

    pub fn push(&mut self, key: &'static str, value: impl Into<String>) {
        self.0.push((key, value.into()));
    }

    pub fn json(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))).collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

/// A digest of every file under `crates/` and `src/` plus the root
/// manifest, in path order: identifies the code measured when no git
/// metadata is available.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.filter_map(Result::ok) {
            let path = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    crate::loadgen::digest(&bytes)
}
