//! A std-only live metrics surface: Prometheus text exposition over TCP.
//!
//! [`MetricsEndpoint`] binds a [`TcpListener`] and serves a snapshot of
//! one or more [`MetricsRegistry`]s — counters, gauges, histograms (with
//! cumulative buckets) — plus the process resource totals from
//! [`crate::alloc`] on every HTTP GET, in Prometheus text exposition
//! format 0.0.4. No HTTP library, no new dependencies: requests are read
//! until the blank line and answered with a fixed `200 OK` whatever the
//! path, which is all a Prometheus scraper (or `adq-watch --scrape`)
//! needs.
//!
//! The endpoint is observation-only: it snapshots atomics on scrape and
//! never blocks the instrumented run (the serving thread owns the
//! listener; scrapes touch the registry through the same lock-free
//! instrument handles the hot paths use).
//!
//! One page can carry several registries — the process-wide one plus,
//! say, a server's own — whose metric names must be disjoint.
//!
//! Bind to port 0 to let the OS pick (`local_addr` reports the choice);
//! [`bind_from_env`] wires this to `ADQ_METRICS_ADDR` and optionally
//! writes the bound address to `ADQ_METRICS_PORT_FILE` so CI can find it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alloc;
use crate::metrics::MetricsRegistry;

/// Prefix every exported series carries, so scraped metrics from several
/// jobs can coexist in one Prometheus instance.
const METRIC_PREFIX: &str = "adq_";

/// Sanitizes a registry metric name (`tensor.matmul`) into a Prometheus
/// metric name (`adq_tensor_matmul`): `[a-zA-Z0-9_:]` pass through,
/// everything else becomes `_`, and a leading digit gains a `_` guard.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + name.len());
    out.push_str(METRIC_PREFIX);
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    out
}

/// Formats a float the exposition format accepts (`NaN`, `+Inf`, `-Inf`
/// for non-finite values).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

/// Renders `registries`, in order (and, when resource tracking is on,
/// the process resource totals once), as Prometheus text exposition
/// format 0.0.4.
pub fn prometheus_text(registries: &[Arc<MetricsRegistry>]) -> String {
    let mut out = String::new();
    for registry in registries {
        for (name, value) in registry.counter_values() {
            let name = sanitize_metric_name(&name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in registry.gauge_values() {
            let name = sanitize_metric_name(&name);
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n",
                fmt_value(value)
            ));
        }
        for (name, histogram) in registry.histogram_handles() {
            let name = sanitize_metric_name(&name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in histogram.buckets() {
                cumulative += count;
                let le = if bound == u64::MAX {
                    "+Inf".to_string()
                } else {
                    bound.to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", histogram.sum()));
            out.push_str(&format!("{name}_count {}\n", histogram.count()));
        }
    }
    if alloc::tracking() {
        let totals = alloc::global_totals();
        for (name, value) in [
            ("resource_alloc_bytes_total", totals.alloc_bytes),
            ("resource_freed_bytes_total", totals.freed_bytes),
            ("resource_allocs_total", totals.allocs),
            ("resource_flops_total", totals.flops),
            ("resource_bytes_moved_total", totals.bytes_moved),
        ] {
            let name = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in [
            ("resource_heap_current_bytes", totals.heap_current_bytes),
            ("resource_heap_peak_bytes", totals.heap_peak_bytes),
        ] {
            let name = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
    }
    out
}

/// Validates Prometheus text exposition format: every comment line is a
/// well-formed `# HELP`/`# TYPE`, no family is declared twice, every
/// sample line parses as `name[{labels}] value`, every histogram family
/// has a `+Inf` bucket, and at least one sample is present. Returns the
/// sample count.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let valid_name = |name: &str| {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut samples = 0usize;
    let mut families: Vec<String> = Vec::new();
    let mut histogram_families: Vec<String> = Vec::new();
    let mut inf_buckets: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    let name = parts.next().unwrap_or("");
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: bad HELP metric name {name:?}"));
                    }
                }
                "TYPE" => {
                    let name = parts.next().unwrap_or("");
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: bad TYPE metric name {name:?}"));
                    }
                    if families.iter().any(|f| f == name) {
                        return Err(format!("line {lineno}: {name} is declared twice"));
                    }
                    families.push(name.to_string());
                    let kind = parts.next().unwrap_or("").trim();
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                    }
                    if kind == "histogram" {
                        histogram_families.push(name.to_string());
                    }
                }
                // Free-form comments are legal.
                _ => {}
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find('{') {
            Some(open) => {
                let close = line[open..]
                    .find('}')
                    .map(|i| open + i)
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                if line[open + 1..close].contains('{') {
                    return Err(format!("line {lineno}: nested '{{' in label set"));
                }
                if line[open..close].matches("le=\"+Inf\"").count() == 1 {
                    if let Some(family) = line[..open].trim().strip_suffix("_bucket") {
                        inf_buckets.push(family.to_string());
                    }
                }
                (line[..open].trim(), line[close + 1..].trim())
            }
            None => {
                let mut parts = line.splitn(2, ' ');
                (
                    parts.next().unwrap_or(""),
                    parts.next().unwrap_or("").trim(),
                )
            }
        };
        if !valid_name(name_part) {
            return Err(format!(
                "line {lineno}: bad sample metric name {name_part:?}"
            ));
        }
        let value = rest.split_whitespace().next().unwrap_or("");
        if value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: unparsable sample value {value:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    for family in &histogram_families {
        if !inf_buckets.contains(family) {
            return Err(format!("histogram {family} has no +Inf bucket"));
        }
    }
    Ok(samples)
}

/// A background TCP server exposing registries in Prometheus text format.
///
/// Serving starts on [`bind`](MetricsEndpoint::bind) and stops when the
/// endpoint is dropped (or [`shutdown`](MetricsEndpoint::shutdown) is
/// called). Every scrape increments the first registry's
/// `telemetry.endpoint.scrapes` counter.
pub struct MetricsEndpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsEndpoint {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `registries`
    /// on one page.
    pub fn bind(addr: &str, registries: Vec<Arc<MetricsRegistry>>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("adq-metrics".to_string())
            .spawn(move || serve(listener, &registries, &flag))?;
        Ok(MetricsEndpoint {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the OS's pick).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(listener: TcpListener, registries: &[Arc<MetricsRegistry>], stop: &AtomicBool) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if let Some(first) = registries.first() {
            first.counter("telemetry.endpoint.scrapes").inc();
        }
        let _ = answer(stream, registries);
    }
}

/// Reads one HTTP request (headers only) and answers with the metrics
/// body; any I/O error just drops the connection.
fn answer(mut stream: TcpStream, registries: &[Arc<MetricsRegistry>]) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut request = Vec::new();
    let mut chunk = [0u8; 1024];
    while !request.windows(4).any(|w| w == b"\r\n\r\n") && request.len() < 16 * 1024 {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&chunk[..n]);
    }
    let body = prometheus_text(registries);
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Binds a [`MetricsEndpoint`] over `registries` when `ADQ_METRICS_ADDR`
/// is set (port `0` lets the OS pick), prints the bound address and
/// writes it to `ADQ_METRICS_PORT_FILE` when that names a path. Failures
/// only warn: live observability is best-effort, the run goes on.
pub fn bind_from_env(registries: Vec<Arc<MetricsRegistry>>) -> Option<MetricsEndpoint> {
    let addr = std::env::var("ADQ_METRICS_ADDR").ok()?;
    let endpoint = MetricsEndpoint::bind(&addr, registries)
        .map_err(|err| eprintln!("warning: cannot bind metrics endpoint on {addr}: {err}"))
        .ok()?;
    let bound = endpoint.local_addr();
    println!("(metrics endpoint listening on {bound})");
    if let Ok(port_file) = std::env::var("ADQ_METRICS_PORT_FILE") {
        if let Err(err) = std::fs::write(&port_file, bound.to_string()) {
            eprintln!("warning: cannot write {port_file}: {err}");
        }
    }
    Some(endpoint)
}

/// Scrapes `addr` with a minimal HTTP GET and returns the response body.
/// The small std TCP client `adq-watch --scrape` and the CI smoke use.
pub fn scrape_text(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((headers, body)) if headers.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        Some((headers, _)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "non-200 scrape response: {}",
                headers.lines().next().unwrap_or("")
            ),
        )),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "scrape response had no header/body separator",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_maps_registry_names_to_prometheus_names() {
        assert_eq!(sanitize_metric_name("tensor.matmul"), "adq_tensor_matmul");
        assert_eq!(
            sanitize_metric_name("telemetry.sink.write_errors"),
            "adq_telemetry_sink_write_errors"
        );
        assert_eq!(sanitize_metric_name("8bit count"), "adq__8bit_count");
    }

    #[test]
    fn exposition_renders_all_instrument_kinds_and_validates() {
        let registry = MetricsRegistry::new();
        registry.counter("core.train_batches").add(7);
        registry.gauge("run.loss").set(0.125);
        let h = registry.histogram_with_bounds("tensor.matmul", &[100, 1000]);
        h.record(50);
        h.record(5000);
        let text = prometheus_text(&[Arc::new(registry)]);
        assert!(text.contains("# TYPE adq_core_train_batches counter\n"));
        assert!(text.contains("adq_core_train_batches 7\n"));
        assert!(text.contains("adq_run_loss 0.125\n"));
        // Buckets are cumulative and end at +Inf.
        assert!(text.contains("adq_tensor_matmul_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("adq_tensor_matmul_bucket{le=\"1000\"} 1\n"));
        assert!(text.contains("adq_tensor_matmul_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("adq_tensor_matmul_count 2\n"));
        let samples = validate_prometheus_text(&text).expect("valid exposition");
        assert!(samples >= 7, "expected >= 7 samples, got {samples}");
    }

    #[test]
    fn non_finite_gauges_use_exposition_spellings() {
        let registry = MetricsRegistry::new();
        registry.gauge("run.loss").set(f64::NAN);
        registry.gauge("run.hi").set(f64::INFINITY);
        let text = prometheus_text(&[Arc::new(registry)]);
        assert!(text.contains("adq_run_loss NaN\n"));
        assert!(text.contains("adq_run_hi +Inf\n"));
        validate_prometheus_text(&text).expect("non-finite values are legal");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus_text("").is_err());
        assert!(validate_prometheus_text("no newline at end").is_err());
        assert!(validate_prometheus_text("metric not_a_number\n").is_err());
        assert!(validate_prometheus_text("9starts_with_digit 1\n").is_err());
        assert!(validate_prometheus_text("# TYPE x flumph\nx 1\n").is_err());
        assert!(validate_prometheus_text("unterminated{le=\"1\" 3\n").is_err());
        // A histogram family must expose a +Inf bucket.
        let err = validate_prometheus_text(
            "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n",
        )
        .unwrap_err();
        assert!(err.contains("+Inf"), "unexpected error: {err}");
        // Comment-only expositions carry no samples.
        assert!(validate_prometheus_text("# TYPE x counter\n").is_err());
        // Two registries exporting one name collide on a page.
        let err =
            validate_prometheus_text("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n").unwrap_err();
        assert!(err.contains("declared twice"), "unexpected error: {err}");
    }

    #[test]
    fn endpoint_serves_valid_exposition_over_tcp() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("smoke.events").add(3);
        registry.gauge("smoke.level").set(2.5);
        let instance = Arc::new(MetricsRegistry::new());
        instance.counter("serve.requests").add(5);
        let mut endpoint =
            MetricsEndpoint::bind("127.0.0.1:0", vec![Arc::clone(&registry), instance])
                .expect("bind");
        let addr = endpoint.local_addr().to_string();
        let body = scrape_text(&addr).expect("scrape");
        validate_prometheus_text(&body).expect("valid exposition");
        // Both registries share the page.
        assert!(body.contains("adq_smoke_events 3\n"));
        assert!(body.contains("adq_serve_requests 5\n"));
        // Scrapes count in the first registry, before the page renders.
        let body = scrape_text(&addr).expect("second scrape");
        assert!(body.contains("adq_telemetry_endpoint_scrapes 2\n"));
        assert_eq!(registry.counter("telemetry.endpoint.scrapes").get(), 2);
        endpoint.shutdown();
        // After shutdown the listener is gone (connect may succeed briefly
        // on backlog, but a fresh bind to the same port must be possible).
        drop(endpoint);
    }
}
