//! The repository benchmark: one seeded workload per invocation, its
//! output checks, and its metrics as one JSON line.
//!
//! ```text
//! adq-perfbench --workload <train_deploy|serve_steady|serve_burst>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line carries the end-to-end metrics, measured
//! with tracing off. With `--trace 1` it carries the per-layer metrics of
//! a traced run, plus the tracing overhead against an untraced pass of
//! the same workload. The lines before it are diagnostics: the workload's
//! named metrics, the output checks, and the machine stamp. See
//! `perfbench/README.md` for what each metric means and which layer
//! should move it.

mod layers;
mod schedule;
mod serve;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::Duration;

/// Worker threads for training and every fan-out in the program: the
/// box the benchmark was sized on exposes two cores.
pub const THREADS: usize = 2;

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued (requests, training runs, inference calls).
    pub attempted: u64,
    /// Operations that went wrong: error responses and responses that
    /// never arrived. Admission-control sheds are typed, expected
    /// outcomes and are measured by `ok_frac` instead.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The workload's own named metrics, printed as diagnostics.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds: `{value}` must be positive"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0|1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> serde_json::Value {
    serde_json::Value::Map(
        metrics
            .iter()
            .map(|m| {
                let entry = serde_json::json!({ "value": m.value, "unit": m.unit });
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// Target features the binary was compiled with and the CPU offers.
fn machine_stamp() -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f) = (false, false);
    serde_json::json!({
        "nproc": nproc,
        "threads": THREADS,
        "cpu_avx2": avx2,
        "cpu_avx512f": avx512f,
        "compiled_avx2": cfg!(target_feature = "avx2"),
        "compiled_avx512f": cfg!(target_feature = "avx512f"),
    })
}

fn print_json(value: &serde_json::Value) {
    println!(
        "{}",
        serde_json::to_string(value).expect("content serializes")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("adq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    rayon::set_thread_override(Some(THREADS));
    let mut report = match args.workload.as_str() {
        "train_deploy" => train::run(&args),
        "serve_steady" => serve::steady(&args),
        "serve_burst" => serve::burst(&args),
        other => {
            eprintln!("adq-perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    let metrics = if args.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    for m in metrics.iter().chain(&report.detail) {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    for problem in &report.problems {
        eprintln!("adq-perfbench: check failed: {problem}");
    }
    print_json(&serde_json::json!({
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine_stamp(),
            "detail": json_metrics(&report.detail),
            "checks_failed": report.problems,
    }));
    print_json(&serde_json::json!({
            "correct": report.problems.is_empty(),
            "attempted": report.attempted.max(1),
            "failed": report.failed,
            "metrics": json_metrics(metrics),
    }));
    ExitCode::SUCCESS
}
