//! `adq-report --serving` reads its stage values from a log file, so it
//! must survive any `u64` there: huge values neither panic the report
//! (debug builds check arithmetic) nor wrap its sums into wrong numbers.

use std::path::PathBuf;
use std::process::Command;

use adq_telemetry::lifecycle::{RequestRecord, OUTCOME_OK};

const HUGE_NS: u64 = 10_000_000_000_000_000_000;

fn ok_record(trace_id: u64, queue_wait_ns: u64, exec_ns: u64) -> RequestRecord {
    RequestRecord {
        trace_id,
        conn_id: 1,
        replica: Some(0),
        batch_size: Some(1),
        outcome: OUTCOME_OK.to_string(),
        admit_ns: 0,
        queue_wait_ns,
        batch_wait_ns: 0,
        exec_ns,
        write_ns: 0,
        total_ns: exec_ns,
        queue_depth: 0,
        queue_cap: 1,
        ts_ns: trace_id,
    }
}

/// Writes `records` as an access log, runs `adq-report --serving` on it
/// and returns the report; panics unless the report exits 0.
fn serving_report(name: &str, records: &[RequestRecord]) -> String {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "adq_report_serving_{name}_{}.jsonl",
        std::process::id()
    ));
    let lines: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_adq-report"))
        .arg("--serving")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "adq-report --serving failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn row<'a>(report: &'a str, stage: &str) -> &'a str {
    report
        .lines()
        .find(|line| line.starts_with(&format!("| {stage} |")))
        .unwrap_or_else(|| panic!("no `{stage}` row in:\n{report}"))
}

#[test]
fn stage_mean_does_not_wrap_on_huge_values() {
    let report = serving_report(
        "mean",
        &[ok_record(1, 0, HUGE_NS), ok_record(2, 0, HUGE_NS)],
    );
    // p50, p90, p99 and mean are all 1e19 ns = 1e13 ms
    for stage in ["exec", "**total**"] {
        let cells = row(&report, stage).matches("| 10000000000000.000 ").count();
        assert_eq!(cells, 4, "{}", row(&report, stage));
    }
}

#[test]
fn stage_sums_saturate_on_huge_values() {
    let report = serving_report("sum", &[ok_record(1, HUGE_NS, HUGE_NS)]);
    // queue-wait + exec exceeds u64: both the per-record stage sum and the
    // sum of stage medians stop at u64::MAX ns
    assert!(
        row(&report, "**stage sum**").contains("| 18446744073709.551 "),
        "{report}"
    );
    assert!(
        report.contains("stage p50s sum to 18446744073709.551 ms"),
        "{report}"
    );
}
