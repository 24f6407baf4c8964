//! Building what a workload serves: graph from the seed, `DirectBuilder`
//! build, snapshot or shard files, and the manifest `cc-serve` loads.

use std::error::Error;
use std::path::{Path, PathBuf};

use cc_graph::Graph;
use cc_oracle::{serde, DirectBuilder, DistanceOracle, ShardedArtifact};
use cc_telemetry::BuildTrace;

use crate::loadgen::now_ns;
use crate::workload::{Spec, EPSILON};

/// One built artifact and the files it was written to.
pub struct Artifact {
    pub graph: Graph,
    pub oracle: DistanceOracle,
    pub trace: BuildTrace,
    /// Snapshot (mono) or shard files, in slot order.
    pub files: Vec<PathBuf>,
    /// Bytes written across `files`.
    pub bytes: usize,
    /// Wall time of each step, milliseconds.
    pub graph_ms: f64,
    pub build_ms: f64,
    pub partition_ms: f64,
    pub encode_ms: f64,
    pub write_ms: f64,
}

fn ms_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e6
}

/// Generates the road-like graph of `spec.n` nodes from `seed`, builds it
/// with [`DirectBuilder`] (capped landmarks), and writes it to `dir` under
/// `label`: one snapshot, or `spec.shards` shard snapshots.
pub fn build(spec: &Spec, seed: u64, dir: &Path, label: &str) -> Result<Artifact, Box<dyn Error>> {
    let t = now_ns();
    let graph = cc_server::source::direct_demo_graph(spec.n, seed)?;
    let graph_ms = ms_since(t);

    let t = now_ns();
    let (oracle, trace) = DirectBuilder::new()
        .k(spec.k)
        .epsilon(EPSILON)
        .seed(seed)
        .max_landmarks(spec.landmarks)
        .build_traced(&graph)?;
    let build_ms = ms_since(t);

    let (mut partition_ms, mut encode_ms, mut write_ms) = (0.0, 0.0, 0.0);
    let mut files = Vec::new();
    let mut bytes = 0;
    let mut write = |name: String, data: Vec<u8>| -> std::io::Result<()> {
        let t = now_ns();
        let path = dir.join(name);
        bytes += data.len();
        std::fs::write(&path, data)?;
        write_ms += ms_since(t);
        files.push(path);
        Ok(())
    };
    if spec.shards == 0 {
        let t = now_ns();
        let data = serde::to_bytes(&oracle);
        encode_ms = ms_since(t);
        write(format!("{label}.snap"), data)?;
    } else {
        let t = now_ns();
        let sharded = ShardedArtifact::partition(&oracle, spec.shards)?;
        partition_ms = ms_since(t);
        for shard in sharded.shards() {
            let t = now_ns();
            let data = serde::to_shard_bytes(shard);
            encode_ms += ms_since(t);
            write(format!("{label}-shard-{}.snap", shard.index()), data)?;
        }
    }
    Ok(Artifact {
        graph,
        oracle,
        trace,
        files,
        bytes,
        graph_ms,
        build_ms,
        partition_ms,
        encode_ms,
        write_ms,
    })
}

/// Points the manifest at `files` with an atomic rename, so a concurrent
/// reload reads the old manifest or the new one, never a torn one.
pub fn write_manifest(manifest: &Path, files: &[PathBuf]) -> std::io::Result<()> {
    let name = |p: &PathBuf| {
        p.file_name().expect("artifact files have names").to_string_lossy().into_owned()
    };
    let text = match files {
        [one] if !name(one).contains("-shard-") => {
            format!("mode = \"mono\"\nsnapshot = \"{}\"\n", name(one))
        }
        _ => {
            let list: Vec<String> =
                files.iter().map(|p| format!("    \"{}\",\n", name(p))).collect();
            format!("mode = \"sharded\"\nshards = [\n{}]\n", list.concat())
        }
    };
    let tmp = manifest.with_extension("toml.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, manifest)
}
