//! `cc-perfbench`: the open-loop, layer-attributed serving benchmark.
//!
//! ```text
//! cc-perfbench --workload point-zipf|batch-uniform|sharded-reload
//!              --seed N --seconds S --trace 0|1
//!              --root CHECKOUT --serve-bin PATH/TO/cc-serve
//! ```
//!
//! `--trace 0` drives a real `cc-serve` and prints the end-to-end metrics;
//! `--trace 1` is a separate run that attributes time to the program's
//! layers with spans the benchmark records around calls into each layer.
//! The last line of standard output is the JSON result; the lines before
//! it are the human report and the provenance. `perfbench/run.sh` builds
//! both programs and supplies `--root` and `--serve-bin`.

mod artifact;
mod e2e;
mod loadgen;
mod report;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use e2e::Ctx;
use report::Provenance;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut root, mut serve_bin) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => trace = Some(value == "1"),
            "--root" => root = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        root: root.unwrap_or_else(|| PathBuf::from(".")),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

/// This checkout's run counter, kept beside the results: the run index
/// of the provenance.
fn next_run_index(dir: &std::path::Path) -> u64 {
    let path = dir.join("run-index");
    let next = std::fs::read_to_string(&path).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0);
    let _ = std::fs::write(&path, (next + 1).to_string());
    next
}

/// Removes the run's scratch directory (multi-MB artifacts) on every exit.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let state = args.root.join(".perfbench");
    let work =
        state.join(format!("work-{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cc-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = WorkDir(work.clone());
    let run_index = next_run_index(&state);
    let ctx = Ctx {
        root: args.root.clone(),
        serve_bin: args.serve_bin.clone(),
        work,
        workload: args.workload,
        spec: args.workload.spec(),
        seed: args.seed,
        seconds: args.seconds,
    };

    let mut prov = Provenance::gather(&ctx.root);
    prov.push("workload", ctx.workload.name());
    prov.push("seed", ctx.seed.to_string());
    prov.push("run_index", run_index.to_string());
    prov.push("seconds", ctx.seconds.to_string());
    prov.push("trace", u8::from(args.trace).to_string());

    let outcome = if args.trace { trace::run(&ctx, &mut prov) } else { e2e::run(&ctx, &mut prov) };
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cc-perfbench: {} failed: {e}", ctx.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let mut report: Vec<String> = result.notes.iter().map(|note| format!("# {note}")).collect();
    report.extend(
        result.metrics.0.iter().map(|(name, v, unit)| format!("# {name:<32} {v:>16.4} {unit}")),
    );
    report.push(prov.json());
    report.push(report::result_line(
        result.correct,
        result.attempted,
        result.failed,
        &result.metrics,
    ));
    let report = report.join("\n");
    let results = state.join("results");
    let _ = std::fs::create_dir_all(&results);
    let name = format!(
        "{}-seed{}-run{run_index}-trace{}.txt",
        ctx.workload.name(),
        ctx.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(results.join(name), format!("{report}\n"));
    println!("{report}");
    ExitCode::SUCCESS
}
