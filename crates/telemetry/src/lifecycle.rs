//! Request-lifecycle records and the serving access log.
//!
//! The serving stack stamps monotonic timestamps at each lifecycle stage
//! of a request (frame-read → admit → dequeue → batch-formed →
//! replica-exec → response-written) and condenses them into one
//! [`RequestRecord`] per request — trace id, connection id, replica,
//! batch size, per-stage nanosecond deltas, and a typed outcome
//! (`ok` / `shed` / `error` / `goodbye-refused`). This module owns that
//! record type plus the machinery around it:
//!
//! * [`AccessLog`] — a structured JSONL access log (one record per
//!   line). Records are handed off through a bounded channel to a
//!   dedicated writer thread, so the serving hot path never blocks on
//!   disk: when the channel is full the record is *dropped* and counted
//!   (`serve.access_log.dropped`), never queued unboundedly. Written
//!   records and write failures are counted too
//!   (`serve.access_log.records` / `serve.access_log.write_errors`).
//!   Closing the log appends one [`LogSummary`] line with the final
//!   counts and the tail exemplars, then flushes.
//! * [`TailExemplars`] — a bounded buffer retaining the K slowest
//!   requests seen (by `total_ns`) with their full stage waterfalls;
//!   the summary line carries them so `adq-report --serving` can render
//!   tail-latency attribution without re-scanning for the tail.
//! * [`read_records`] / [`parse_line`] — the parsing half, shared by
//!   `adq-report --serving` and `adq-watch --access-log`.
//!
//! Logging is observation-only by contract: a server with an access log
//! attached must produce byte-identical responses to one without
//! (`crates/infer/tests/access_log.rs` enforces this).

use std::io::{self, BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

use crate::metrics;

/// Outcome label: the request was answered with logits.
pub const OUTCOME_OK: &str = "ok";
/// Outcome label: admission control shed the request.
pub const OUTCOME_SHED: &str = "shed";
/// Outcome label: the request was refused with a typed error frame.
pub const OUTCOME_ERROR: &str = "error";
/// Outcome label: the request arrived during shutdown drain and was
/// refused because the queue had already closed.
pub const OUTCOME_GOODBYE_REFUSED: &str = "goodbye-refused";

/// Records buffered between the serving threads and the writer thread;
/// beyond this the hot path drops records instead of blocking.
const CHANNEL_CAP: usize = 4096;

/// Default number of tail exemplars retained in the summary.
pub const DEFAULT_EXEMPLARS: usize = 8;

/// One request's lifecycle, condensed: identity, placement, per-stage
/// wall-time deltas (nanoseconds), and the typed outcome. Stage deltas
/// cover frame-read→admit (`admit_ns`), admit→executor-claim
/// (`queue_wait_ns`), claim→batch-formed (`batch_wait_ns`),
/// batch-formed→logits-ready (`exec_ns`, includes requantization), and
/// the response write (`write_ns`); `total_ns` spans frame-read to
/// response-written. For non-`ok` outcomes the stages that never
/// happened are zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Server-assigned trace id (echoed to tracing clients).
    pub trace_id: u64,
    /// Connection the request arrived on (accept-order id).
    pub conn_id: u64,
    /// Replica executor that ran the batch (`ok` outcomes only).
    #[serde(default)]
    pub replica: Option<u64>,
    /// Size of the coalesced batch the request rode in (`ok` only).
    #[serde(default)]
    pub batch_size: Option<u64>,
    /// `ok` / `shed` / `error` / `goodbye-refused`.
    pub outcome: String,
    /// Frame fully read → admission decision.
    pub admit_ns: u64,
    /// Admitted → an executor claimed the queue front.
    pub queue_wait_ns: u64,
    /// Executor claim → batch formed (waiting for company).
    pub batch_wait_ns: u64,
    /// Batch formed → logits ready (tensor assembly, integer GEMMs,
    /// requantization).
    pub exec_ns: u64,
    /// Response frame encode + socket write.
    pub write_ns: u64,
    /// Frame read → response written (end-to-end).
    pub total_ns: u64,
    /// Queue depth observed at the recording site.
    pub queue_depth: u64,
    /// The queue bound in force.
    pub queue_cap: u64,
    /// Nanoseconds since the server started (record ordering).
    pub ts_ns: u64,
}

impl RequestRecord {
    /// Sum of the per-stage deltas — per request this tracks
    /// [`RequestRecord::total_ns`] minus only the time spent waiting for
    /// batch-mates' responses to be written ahead of this one.
    /// Saturates at `u64::MAX` rather than wrapping on corrupt values.
    pub fn stage_sum_ns(&self) -> u64 {
        self.admit_ns
            .saturating_add(self.queue_wait_ns)
            .saturating_add(self.batch_wait_ns)
            .saturating_add(self.exec_ns)
            .saturating_add(self.write_ns)
    }
}

/// Final line of a closed access log: record/drop/error accounting,
/// per-outcome counts, and the K slowest requests with full waterfalls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogSummary {
    /// Records successfully written (excludes this summary line).
    pub records: u64,
    /// Records dropped because the hand-off channel was full.
    pub dropped: u64,
    /// Records lost to I/O errors on the log file.
    pub write_errors: u64,
    /// `ok` records written.
    pub ok: u64,
    /// `shed` records written.
    pub shed: u64,
    /// `error` records written.
    pub errors: u64,
    /// `goodbye-refused` records written.
    pub goodbye_refused: u64,
    /// The slowest requests by `total_ns`, slowest first.
    pub exemplars: Vec<RequestRecord>,
}

/// Wrapper that gives the summary line its distinguishing shape:
/// `{"summary": {...}}` against records' flat objects.
#[derive(Debug, Serialize, Deserialize)]
struct SummaryLine {
    summary: LogSummary,
}

// ---- tail exemplars -----------------------------------------------------

/// Bounded buffer of the K slowest requests seen, by `total_ns`,
/// kept sorted slowest-first. Pure and unit-testable; the access-log
/// writer thread feeds it and the closing summary carries its contents.
#[derive(Debug, Clone)]
pub struct TailExemplars {
    k: usize,
    items: Vec<RequestRecord>,
}

impl TailExemplars {
    /// A buffer retaining the `k` slowest requests (`k == 0` keeps none).
    pub fn new(k: usize) -> Self {
        TailExemplars {
            k,
            items: Vec::with_capacity(k.min(64)),
        }
    }

    /// Offers one record; it is retained only while it ranks among the
    /// K slowest seen so far.
    pub fn offer(&mut self, record: &RequestRecord) {
        if self.k == 0 {
            return;
        }
        if self.items.len() == self.k
            && record.total_ns <= self.items.last().map_or(0, |r| r.total_ns)
        {
            return;
        }
        let at = self
            .items
            .partition_point(|r| r.total_ns >= record.total_ns);
        self.items.insert(at, record.clone());
        self.items.truncate(self.k);
    }

    /// The retained records, slowest first.
    pub fn slowest(&self) -> &[RequestRecord] {
        &self.items
    }
}

// ---- access log ---------------------------------------------------------

enum LogMsg {
    Record(RequestRecord),
    Close,
}

struct LogShared {
    dropped: AtomicU64,
}

/// Cheap, cloneable producer half of an [`AccessLog`]: serving threads
/// call [`AccessLogHandle::record`] on the hot path. Never blocks — a
/// full channel drops the record and bumps `serve.access_log.dropped`.
#[derive(Clone)]
pub struct AccessLogHandle {
    sender: SyncSender<LogMsg>,
    shared: Arc<LogShared>,
}

impl AccessLogHandle {
    /// Hands one record to the writer thread (drop-on-full, non-blocking).
    pub fn record(&self, record: RequestRecord) {
        match self.sender.try_send(LogMsg::Record(record)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                metrics::global().counter("serve.access_log.dropped").inc();
            }
        }
    }
}

/// A structured JSONL access log with a dedicated writer thread.
/// Create with [`AccessLog::create`], pass [`AccessLog::handle`] clones
/// to the producers, and [`AccessLog::close`] (or drop) to drain, append
/// the [`LogSummary`] line, flush and join the writer.
pub struct AccessLog {
    handle: AccessLogHandle,
    writer: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl AccessLog {
    /// Creates (truncates) `path` and starts the writer thread; the
    /// closing summary retains the `exemplars` slowest requests.
    ///
    /// # Errors
    ///
    /// Returns file-creation and thread-spawn errors.
    pub fn create(path: impl AsRef<Path>, exemplars: usize) -> io::Result<AccessLog> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        let (sender, receiver) = sync_channel(CHANNEL_CAP);
        let shared = Arc::new(LogShared {
            dropped: AtomicU64::new(0),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("adq-access-log".into())
            .spawn(move || writer_loop(file, &receiver, &writer_shared, exemplars))?;
        Ok(AccessLog {
            handle: AccessLogHandle { sender, shared },
            writer: Some(writer),
            path,
        })
    }

    /// A producer handle for the serving threads.
    pub fn handle(&self) -> AccessLogHandle {
        self.handle.clone()
    }

    /// Where the log is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Drains queued records, appends the summary line, flushes, and
    /// joins the writer thread. Records offered after close are dropped
    /// (and counted) — producers never block on a closed log.
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(writer) = self.writer.take() {
            // Ordered behind every record already in the channel, so the
            // writer drains them all before summarising.
            let _ = self.handle.sender.send(LogMsg::Close);
            let _ = writer.join();
        }
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        self.finish();
    }
}

fn writer_loop(
    file: std::fs::File,
    receiver: &Receiver<LogMsg>,
    shared: &Arc<LogShared>,
    exemplar_cap: usize,
) {
    let records_counter = metrics::global().counter("serve.access_log.records");
    let errors_counter = metrics::global().counter("serve.access_log.write_errors");
    let mut out = BufWriter::new(file);
    let mut exemplars = TailExemplars::new(exemplar_cap);
    let (mut written, mut write_errors) = (0u64, 0u64);
    let (mut ok, mut shed, mut errors, mut goodbye) = (0u64, 0u64, 0u64, 0u64);
    while let Ok(msg) = receiver.recv() {
        let record = match msg {
            LogMsg::Record(record) => record,
            LogMsg::Close => break,
        };
        let line = match serde_json::to_string(&record) {
            Ok(line) => line,
            Err(_) => {
                write_errors += 1;
                errors_counter.inc();
                continue;
            }
        };
        match writeln!(out, "{line}") {
            Ok(()) => {
                written += 1;
                records_counter.inc();
                exemplars.offer(&record);
                match record.outcome.as_str() {
                    OUTCOME_OK => ok += 1,
                    OUTCOME_SHED => shed += 1,
                    OUTCOME_GOODBYE_REFUSED => goodbye += 1,
                    _ => errors += 1,
                }
            }
            Err(_) => {
                write_errors += 1;
                errors_counter.inc();
            }
        }
    }
    let summary = SummaryLine {
        summary: LogSummary {
            records: written,
            dropped: shared.dropped.load(Ordering::Relaxed),
            write_errors,
            ok,
            shed,
            errors,
            goodbye_refused: goodbye,
            exemplars: exemplars.slowest().to_vec(),
        },
    };
    if let Ok(line) = serde_json::to_string(&summary) {
        let _ = writeln!(out, "{line}");
    }
    let _ = out.flush();
}

// ---- parsing ------------------------------------------------------------

/// One parsed access-log line.
#[derive(Debug, Clone, PartialEq)]
pub enum LogLine {
    /// A per-request record.
    Record(RequestRecord),
    /// The closing summary.
    Summary(LogSummary),
}

/// Parses one access-log line; `None` for blank or malformed lines
/// (a live tailer can catch a line mid-write).
pub fn parse_line(line: &str) -> Option<LogLine> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    if let Ok(record) = serde_json::from_str::<RequestRecord>(line) {
        return Some(LogLine::Record(record));
    }
    serde_json::from_str::<SummaryLine>(line)
        .ok()
        .map(|wrapper| LogLine::Summary(wrapper.summary))
}

/// A fully parsed access log.
#[derive(Debug, Default)]
pub struct AccessLogView {
    /// Per-request records, in file order.
    pub records: Vec<RequestRecord>,
    /// The closing summary, when the log was closed cleanly.
    pub summary: Option<LogSummary>,
    /// Lines that parsed as neither record nor summary.
    pub malformed: u64,
}

/// Reads a whole access log from disk.
///
/// # Errors
///
/// Returns file I/O errors; malformed lines are counted, not fatal.
pub fn read_records(path: impl AsRef<Path>) -> io::Result<AccessLogView> {
    let file = std::fs::File::open(path)?;
    let mut view = AccessLogView::default();
    for line in io::BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Some(LogLine::Record(record)) => view.records.push(record),
            Some(LogLine::Summary(summary)) => view.summary = Some(summary),
            None => view.malformed += 1,
        }
    }
    Ok(view)
}

/// Exact quantile over an unsorted sample (nearest-rank): `q` in
/// `[0, 1]`, `0` on an empty sample.
pub fn exact_quantile_ns(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace_id: u64, total_ns: u64, outcome: &str) -> RequestRecord {
        RequestRecord {
            trace_id,
            conn_id: 1,
            replica: Some(0),
            batch_size: Some(2),
            outcome: outcome.to_string(),
            admit_ns: 10,
            queue_wait_ns: 100,
            batch_wait_ns: 200,
            exec_ns: total_ns.saturating_sub(330),
            write_ns: 20,
            total_ns,
            queue_depth: 1,
            queue_cap: 256,
            ts_ns: trace_id * 1000,
        }
    }

    #[test]
    fn record_roundtrips_through_jsonl() {
        let original = record(42, 5_000, OUTCOME_OK);
        let line = serde_json::to_string(&original).unwrap();
        assert!(!line.contains('\n'));
        match parse_line(&line) {
            Some(LogLine::Record(parsed)) => assert_eq!(parsed, original),
            other => panic!("expected record, got {other:?}"),
        }
        assert_eq!(original.stage_sum_ns(), 5_000);
    }

    #[test]
    fn stage_sum_saturates_instead_of_wrapping() {
        let mut huge = record(1, 10_000_000_000_000_000_000, OUTCOME_OK);
        huge.queue_wait_ns = huge.total_ns;
        assert_eq!(huge.stage_sum_ns(), u64::MAX);
    }

    #[test]
    fn summary_line_is_distinguishable_from_records() {
        let summary = LogSummary {
            records: 3,
            dropped: 1,
            write_errors: 0,
            ok: 2,
            shed: 1,
            errors: 0,
            goodbye_refused: 0,
            exemplars: vec![record(9, 9_000, OUTCOME_OK)],
        };
        let line = serde_json::to_string(&SummaryLine {
            summary: summary.clone(),
        })
        .unwrap();
        match parse_line(&line) {
            Some(LogLine::Summary(parsed)) => assert_eq!(parsed, summary),
            other => panic!("expected summary, got {other:?}"),
        }
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("{\"trace_id\": tru"), None);
    }

    #[test]
    fn tail_exemplars_keep_the_k_slowest_sorted() {
        let mut tail = TailExemplars::new(3);
        for (id, total) in [(1u64, 500u64), (2, 9_000), (3, 700), (4, 8_000), (5, 100)] {
            tail.offer(&record(id, total, OUTCOME_OK));
        }
        let totals: Vec<u64> = tail.slowest().iter().map(|r| r.total_ns).collect();
        assert_eq!(totals, vec![9_000, 8_000, 700]);
        // zero-capacity buffer stays empty
        let mut none = TailExemplars::new(0);
        none.offer(&record(1, 1, OUTCOME_OK));
        assert!(none.slowest().is_empty());
    }

    #[test]
    fn access_log_writes_records_and_a_closing_summary() {
        let path = std::env::temp_dir().join(format!("adq_access_{}.jsonl", std::process::id()));
        let log = AccessLog::create(&path, 2).unwrap();
        let handle = log.handle();
        handle.record(record(1, 4_000, OUTCOME_OK));
        handle.record(record(2, 9_000, OUTCOME_SHED));
        handle.record(record(3, 1_000, OUTCOME_OK));
        handle.record(record(4, 2_000, OUTCOME_GOODBYE_REFUSED));
        log.close();

        let view = read_records(&path).unwrap();
        assert_eq!(view.records.len(), 4);
        assert_eq!(view.malformed, 0);
        let summary = view.summary.expect("closed log has a summary");
        assert_eq!(summary.records, 4);
        assert_eq!(summary.dropped, 0);
        assert_eq!(summary.write_errors, 0);
        assert_eq!(
            (summary.ok, summary.shed, summary.goodbye_refused),
            (2, 1, 1)
        );
        // exemplars: the 2 slowest, slowest first
        let totals: Vec<u64> = summary.exemplars.iter().map(|r| r.total_ns).collect();
        assert_eq!(totals, vec![9_000, 4_000]);

        // records offered after close are dropped, not a panic
        handle.record(record(5, 1, OUTCOME_OK));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exact_quantiles_use_nearest_rank() {
        let mut sample = vec![900u64, 100, 500, 300, 700];
        assert_eq!(exact_quantile_ns(&mut sample, 0.5), 500);
        assert_eq!(exact_quantile_ns(&mut sample, 0.99), 900);
        assert_eq!(exact_quantile_ns(&mut [][..], 0.5), 0);
    }
}
