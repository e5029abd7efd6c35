//! The repository benchmark: the paper's closed loop (propose → mix, image
//! and detect → publish) measured end to end and layer by layer, through
//! public functions only, timed from outside each call.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_bayes|remote_random|pool_matrix|portal_reads> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The seed generates every input; the
//! program sees only the generated inputs. `--trace 0` measures for
//! `--seconds` and prints the end-to-end metrics; `--trace 1` measures for
//! `--seconds` with every layer boundary timed and prints the per-layer
//! rows, `loop.unattributed_ms` and `trace.overhead_frac`. Every run checks the
//! program's outputs (see each workload's module) and exits non-zero on a
//! mismatch. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod host;
mod metrics;
mod pool;
mod portal;
mod probes;
mod session;
mod stats;

use metrics::{Values, END_TO_END, PER_LAYER};
use sdl_conf::{to_json, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// W1: the ask/submit/tell loop on an in-process sim backend.
    SimBayes,
    /// W2: the same loop over a remote backend on a loopback worker.
    RemoteRandom,
    /// W3: a scheduled scenario matrix over two loopback workers.
    PoolMatrix,
    /// W4: closed-loop portal readers.
    PortalReads,
}

impl Workload {
    /// Every workload `--workload` accepts.
    pub const ALL: [Workload; 4] =
        [Workload::SimBayes, Workload::RemoteRandom, Workload::PoolMatrix, Workload::PortalReads];

    /// The workloads `BENCHMARK.json` lists, in its order.
    /// `remote_random` and `portal_reads` run by hand only: on a shared
    /// 2-vCPU host their throughput and median latency spread past the 0.25
    /// bound within one set of runs, so no bound on them could hold. A
    /// traced `pool_matrix` run ends with a short `portal_reads` phase for
    /// the portal layer rows.
    pub const BENCHMARKED: [Workload; 2] = [Workload::SimBayes, Workload::PoolMatrix];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBayes => "sim_bayes",
            Workload::RemoteRandom => "remote_random",
            Workload::PoolMatrix => "pool_matrix",
            Workload::PortalReads => "portal_reads",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let valid: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (valid: {})", valid.join(", "))
        })
    }

    /// A digest of the inputs `seed` generates.
    pub fn inputs(self, seed: u64) -> String {
        match self {
            Workload::SimBayes => session::inputs(session::Kind::SimBayes, seed),
            Workload::RemoteRandom => session::inputs(session::Kind::RemoteRandom, seed),
            Workload::PoolMatrix => pool::inputs(seed),
            Workload::PortalReads => portal::inputs(seed),
        }
    }
}

/// Server handler threads and client connections: one per core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Scratch directory for event logs, inside the checkout.
    pub dir: PathBuf,
}

/// What a workload measured and what its checks found.
#[derive(Debug, Default)]
pub struct Report {
    /// Check failures; empty when every output was correct.
    pub problems: Vec<String>,
    /// Operations attempted (batches, scenarios or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, resent or retried.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed '{value}'"))?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = Workload::parse(&workload.ok_or("--workload is required")?)?;
    let dir =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dir,
    })
}

/// Run one workload in its scratch directory.
pub fn execute(run: &Run) -> Result<Report, String> {
    std::fs::create_dir_all(&run.dir).map_err(|e| format!("{}: {e}", run.dir.display()))?;
    let result = match run.workload {
        Workload::SimBayes => session::run(session::Kind::SimBayes, run),
        Workload::RemoteRandom => session::run(session::Kind::RemoteRandom, run),
        Workload::PoolMatrix => pool::run(run),
        Workload::PortalReads => portal::run(run),
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    result
}

/// The metrics a run prints: every end-to-end metric, or with `trace`
/// every per-layer metric (a layer the workload never calls reads 0).
pub fn result_line(report: &Report, trace: bool) -> (String, Vec<String>) {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut problems = report.problems.clone();
    let mut metrics = Value::map();
    for m in catalogue {
        let value = match report.values.get(m.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                problems.push(format!("{} is {v}", m.name));
                0.0
            }
            None if trace => 0.0,
            None => {
                problems.push(format!("{} was not measured", m.name));
                0.0
            }
        };
        let mut entry = Value::map();
        entry.set("value", value);
        entry.set("unit", m.unit);
        metrics.set(m.name, entry);
    }
    let mut out = Value::map();
    out.set("correct", problems.is_empty());
    out.set("attempted", report.attempted.max(1) as i64);
    out.set("failed", report.failed as i64);
    out.set("metrics", metrics);
    (to_json(&out), problems)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = format!("{:016x}", stats::fnv64(run.workload.inputs(run.seed).as_bytes()));
    println!("{}", host::block(run.workload.name(), run.seed, &inputs));
    let report = match execute(&run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", run.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if run.trace { PER_LAYER } else { END_TO_END };
    for m in catalogue {
        let value = report.values.get(m.name).unwrap_or(0.0);
        println!(
            "{:<30} {:>16.3} {:<6} ({} is better) {}",
            m.name, value, m.unit, m.better, m.note
        );
    }
    let (line, problems) = result_line(&report, run.trace);
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{line}");
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
