//! The scanft benchmark: the paper's pipeline as users run it, one-shot
//! and served, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload oneshot|serve_paper|serve_regress|all \
//!     --seed N|held-out --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload and prints its metrics, one per line
//! with unit and sample count, then a JSON summary as the last line.
//! `--trace 0` gives the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced and gives the per-layer metrics and
//! the tracing overhead, writing the spans to `.bench_out/`. `--workload
//! all` runs the three workloads, each in a process of its own. See
//! `benchmark/README.md` for the workloads and the metric definitions.

mod calib;
mod cpu;
mod events;
mod inputs;
mod layers;
mod oneshot;
mod rss;
mod served;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Latency percentiles need this many samples (p90 with ten beyond it).
pub const MIN_SAMPLES: usize = 100;

const WORKLOADS: &[&str] = &["oneshot", "serve_paper", "serve_regress"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// Workload seed (inputs are a pure function of it).
    pub seed: u64,
    /// Length of a traffic phase.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|p| argv.get(p + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        })
    };
    let workload = value("--workload").unwrap_or("all").to_owned();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (oneshot, serve_paper, serve_regress, all)"
        ));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, got `{other}`")),
    };
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: match value("--seed") {
            Some("held-out") => inputs::HELD_OUT_SEED,
            _ => number("--seed", inputs::DEFAULT_SEED)?,
        },
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    /// A metric measured over `samples` observations.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }

    /// A latency percentile in ms.
    ///
    /// # Errors
    ///
    /// When the sample cannot support the percentile (too few samples
    /// beyond it).
    pub fn percentile(name: &'static str, samples_ms: &[f64], q: f64) -> Result<Self, String> {
        let value = stats::percentile(samples_ms, q)
            .ok_or_else(|| format!("{name}: {} samples cannot support it", samples_ms.len()))?;
        Ok(Metric::new(name, value, "ms", samples_ms.len()))
    }
}

/// A workload run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Every job's output matched its reference.
    pub correct: bool,
    /// Jobs (`oneshot`: commands) attempted.
    pub attempted: u64,
    /// Jobs refused, failed, or with a result that differs from the
    /// reference.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                if i > 0 { "," } else { "" },
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON (full precision; non-finite values as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// A scratch directory under `.bench_work/`, removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>/` under the working directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn create(name: &str) -> Result<Self, String> {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        // A previous run killed mid-way may have left it behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Writes the traced run's spans to `.bench_out/` and prints the self-time
/// table and the metrics read as 0 because they cannot be measured on this
/// workload from outside the program.
///
/// # Errors
///
/// When the span file cannot be written.
pub fn write_trace(
    args: &Args,
    tracer: &trace::Tracer,
    unmeasured: &[(&str, &str)],
) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    println!(
        "{:<12} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in tracer.self_times() {
        println!("{name:<12} {count:>7} {total:>12.1} {own:>12.1}");
    }
    for (metric, reason) in unmeasured {
        println!("note {metric}: {reason}");
    }
    Ok(())
}

/// Runs every workload, each in a child process, relaying their reports;
/// the last line gathers their summaries under the workload names.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut summaries = Vec::new();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        if !output.status.success() {
            return Err(format!("{workload} failed ({})", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (report, summary) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
        println!("== {workload}\n{report}");
        summaries.push(format!("\"{workload}\":{summary}"));
    }
    Ok(format!("{{{}}}", summaries.join(",")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("usage error: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("benchmark error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "oneshot" => oneshot::run(&args),
        "serve_paper" => served::run(&served::SERVE_PAPER, &args),
        _ => served::run(&served::SERVE_REGRESS, &args),
    };
    match outcome {
        Ok(outcome) => {
            println!(
                "workload {} seed {} ({}): {} attempted, {} failed",
                args.workload,
                args.seed,
                if args.trace { "traced" } else { "end to end" },
                outcome.attempted,
                outcome.failed
            );
            for m in &outcome.metrics {
                println!(
                    "metric {:<30} {:>16.6} {:<10} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("benchmark error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_summary_line_has_the_contract_shape() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s", 5),
                Metric::new("jobs_per_s", 10.5, "jobs/s", 100),
            ],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\"jobs_per_s\":{\"value\":10.5,\"unit\":\"jobs/s\"}}}"
        );
    }
}
