//! Serving workloads: an in-process `adq-serve` front end (`Server`)
//! driven open loop over one pipelined TCP connection by two generator
//! threads — a sender that writes each request when it falls due and a
//! receiver that checks every response against in-process inference.
//!
//! * `serve_steady`: Poisson arrivals at 150 and 400 rps, then a rate
//!   ladder above 400 rps that finds the highest rate meeting the SLO.
//! * `serve_burst`: 48 requests back to back every 100 ms against a
//!   queue capped at 32 under the Reject policy.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adq_core::builders::network_spec_from_stats;
use adq_datasets::SyntheticSpec;
use adq_energy::EnergyModel;
use adq_infer::{CompileOptions, CompiledVgg, OverloadPolicy, ServeConfig, ServeModel, Server};
use adq_nn::{QuantModel, Vgg};
use adq_quant::BitWidth;
use adq_telemetry::lifecycle::{read_records, OUTCOME_OK, OUTCOME_SHED};
use adq_telemetry::AccessLog;
use adq_tensor::{init, Tensor};

use crate::schedule::{bursts, poisson, SplitMix64};
use crate::stats::{mean, median, quantile, windowed_quantile};
use crate::{layers, metric, train, Args, Metric, Report};

const KIND_INFER: u8 = 1;
const FLAG_TRACED: u8 = 0x80;
const STATUS_OK: u8 = 0;
const STATUS_SHED: u8 = 2;

/// Construction seed of the served demo model (the `adq-serve` default).
const DEMO_MODEL_SEED: u64 = 0;
/// Bit-width of every demo-model layer: the u8 container.
const DEMO_BITS: u32 = 8;
/// Distinct request payloads per run.
const POOL: usize = 260;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests of the warm-up that ends each set-up.
const WARMUP: usize = 64;
/// How long after its last due instant a phase waits for responses.
const DRAIN: Duration = Duration::from_secs(2);
/// Windows behind each reported tail quantile.
const TAIL_WINDOWS: usize = 4;

/// The latency limit: p99 of a rate's requests, timed from when each was
/// due, with sheds, errors and missing responses counted as misses.
pub const SLO_P99_MS: f64 = 10.0;
/// Fixed rates of `serve_steady`.
const RATES: [f64; 2] = [150.0, 400.0];
/// Ladder step above 400 rps (at most 10%).
const LADDER_STEP: f64 = 1.08;
/// Burst shape of `serve_burst`.
const BURST: usize = 48;
const BURST_PERIOD: Duration = Duration::from_millis(100);
const BURST_QUEUE_CAP: usize = 32;

/// The served model and what a client needs to check its answers.
pub struct Demo {
    pub vgg: Vgg,
    pub compiled: Arc<CompiledVgg>,
    pub compile_ms: f64,
}

/// The 8-bit `Vgg::small` demo model, calibrated on a seeded normal
/// batch as `adq-serve` does.
pub fn demo(seed: u64) -> Demo {
    let mut vgg = Vgg::small(3, 16, 10, DEMO_MODEL_SEED);
    let bits = BitWidth::new(DEMO_BITS).expect("valid bit-width");
    for index in 0..vgg.layer_stats().len() {
        vgg.set_bits_of(index, Some(bits));
    }
    let mut rng = init::rng(seed ^ 0xCA11_B8A7E);
    let calibration = init::normal(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    let started = Instant::now();
    let compiled = CompiledVgg::compile(&vgg, &calibration, CompileOptions::default())
        .expect("the demo model lowers");
    Demo {
        vgg,
        compiled: Arc::new(compiled),
        compile_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// MAC-energy reduction of a model's bit-widths against the same
/// network at 16 bits, under the Table I energy model.
pub fn mac_reduction(model: &Vgg) -> f64 {
    let energy = EnergyModel::paper_45nm();
    let stats = model.layer_stats();
    let own = network_spec_from_stats("own", &stats, BitWidth::SIXTEEN).energy_pj(&energy);
    let mut base = stats.clone();
    for s in &mut base {
        s.bits = Some(BitWidth::SIXTEEN);
    }
    let base = network_spec_from_stats("base", &base, BitWidth::SIXTEEN).energy_pj(&energy);
    base / own
}

/// Request payloads (seeded synthetic images) with the logits in-process
/// inference gives for each, as the little-endian bytes a response must
/// carry.
pub struct Pool {
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl Pool {
    fn new(seed: u64, compiled: &CompiledVgg) -> Self {
        let (_, images) = SyntheticSpec::cifar10_like()
            .with_seed(seed ^ 0x5E4E_0001)
            .with_samples(1, POOL / 10)
            .generate();
        let len = compiled.input_len();
        let mut bodies = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        for i in 0..images.len() {
            let image = &images.images.data()[i * len..(i + 1) * len];
            let mut body = Vec::with_capacity(4 + 4 * len);
            body.extend_from_slice(&(len as u32).to_le_bytes());
            for v in image {
                body.extend_from_slice(&v.to_le_bytes());
            }
            bodies.push(body);
            let one = Tensor::from_vec(image.to_vec(), &[1, 3, 16, 16]).expect("one image");
            let logits = compiled.run(&one);
            expected.push(logits.data().iter().flat_map(|v| v.to_le_bytes()).collect());
        }
        Self { bodies, expected }
    }
}

/// A `ServeModel` that times every batch the server runs — used only in
/// traced runs.
struct TimedModel {
    inner: Arc<CompiledVgg>,
    runs: Mutex<Vec<(f64, usize)>>,
}

impl ServeModel for TimedModel {
    fn input_shape(&self) -> (usize, usize) {
        self.inner.input_shape()
    }

    fn classes(&self) -> usize {
        self.inner.classes()
    }

    fn run(&self, images: &Tensor) -> Tensor {
        let started = Instant::now();
        let out = self.inner.run(images);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.runs
            .lock()
            .expect("timing lock")
            .push((ms, images.dims()[0]));
        out
    }
}

/// What one request went through, as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    due: Instant,
    sent: Option<Instant>,
    recv: Option<Instant>,
    status: Option<u8>,
    trace_id: Option<u64>,
}

/// Client-side accounting of one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub missing: u64,
    /// OK latencies from the due instant, in due order.
    pub latency_ms: Vec<f64>,
    /// How late the sender wrote each request.
    pub late_ms: Vec<f64>,
    /// `(trace id, client round trip from the write)` per OK response of
    /// a traced connection.
    pub traced: Vec<(u64, f64)>,
    /// Trace ids of every response of a traced connection.
    pub trace_ids: Vec<u64>,
}

impl PhaseStats {
    fn failed(&self) -> u64 {
        self.errors + self.missing
    }

    fn not_ok(&self) -> u64 {
        self.shed + self.errors + self.missing
    }

    fn p25(&self) -> f64 {
        quantile(&self.latency_ms, 0.25)
    }

    fn p50(&self) -> f64 {
        median(&self.latency_ms)
    }

    fn p99(&self) -> f64 {
        windowed_quantile(&self.latency_ms, 0.99, TAIL_WINDOWS)
    }

    /// True when requests late in the phase waited clearly longer than
    /// early ones: the queue grew instead of holding steady.
    fn backlog_growing(&self) -> bool {
        let third = self.latency_ms.len() / 3;
        if third < 10 {
            return false;
        }
        let first = median(&self.latency_ms[..third]);
        let last = median(&self.latency_ms[self.latency_ms.len() - third..]);
        last > 2.0 * first + 1.0
    }

    fn meets_slo(&self) -> bool {
        self.not_ok() == 0 && self.p99() <= SLO_P99_MS && !self.backlog_growing()
    }

    fn absorb(&mut self, other: &PhaseStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.missing += other.missing;
        self.latency_ms.extend_from_slice(&other.latency_ms);
        self.late_ms.extend_from_slice(&other.late_ms);
        self.traced.extend_from_slice(&other.traced);
        self.trace_ids.extend_from_slice(&other.trace_ids);
    }
}

/// One pipelined client connection.
struct Conn {
    writer: TcpStream,
    reader: TcpStream,
    /// Bytes read past the last complete frame.
    pending: Vec<u8>,
    next_id: u64,
    traced: bool,
}

impl Conn {
    fn connect(server: &Server, traced: bool) -> io::Result<Self> {
        let writer = TcpStream::connect(server.local_addr())?;
        writer.set_nodelay(true)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(Self {
            writer,
            reader,
            pending: Vec::new(),
            next_id: 0,
            traced,
        })
    }

    /// [`Conn::run`], summarized as one phase.
    fn run_phase(
        &mut self,
        due: &[Duration],
        picks: &[usize],
        pool: &Pool,
        report: &mut Report,
    ) -> PhaseStats {
        summarize(&self.run(due, picks, pool, report))
    }

    /// Sends one request per `due` offset (payload `picks[i]`) when it
    /// falls due, and collects and checks the responses until all are in
    /// or `DRAIN` after the last due instant.
    fn run(
        &mut self,
        due: &[Duration],
        picks: &[usize],
        pool: &Pool,
        report: &mut Report,
    ) -> Vec<Sample> {
        let n = due.len();
        let base = self.next_id + 1;
        self.next_id += n as u64;
        let start = Instant::now() + Duration::from_millis(1);
        let mut samples: Vec<Sample> = due
            .iter()
            .map(|&d| Sample {
                due: start + d,
                sent: None,
                recv: None,
                status: None,
                trace_id: None,
            })
            .collect();
        let deadline = start + due.last().copied().unwrap_or_default() + DRAIN;
        let kind = if self.traced {
            KIND_INFER | FLAG_TRACED
        } else {
            KIND_INFER
        };
        let dues: Vec<Instant> = samples.iter().map(|s| s.due).collect();
        let writer = &mut self.writer;
        let sent = std::thread::scope(|scope| {
            let sender = scope.spawn(move || send_all(writer, &dues, picks, pool, base, kind));
            receive(
                &mut self.reader,
                &mut self.pending,
                &mut samples,
                picks,
                pool,
                base,
                self.traced,
                deadline,
                report,
            );
            sender.join().expect("sender thread")
        });
        match sent {
            Ok(times) => {
                for (s, t) in samples.iter_mut().zip(times) {
                    s.sent = Some(t);
                }
            }
            Err(e) => report
                .problems
                .push(format!("sending requests failed: {e}")),
        }
        samples
    }
}

/// The sender: sleeps until the next request falls due, then writes every
/// request due by now in one write. Returns the instant each request's
/// write began.
fn send_all(
    stream: &mut TcpStream,
    dues: &[Instant],
    picks: &[usize],
    pool: &Pool,
    base: u64,
    kind: u8,
) -> io::Result<Vec<Instant>> {
    let mut sent = Vec::with_capacity(dues.len());
    let mut buf = Vec::new();
    let mut i = 0;
    while i < dues.len() {
        let now = Instant::now();
        if dues[i] > now {
            std::thread::sleep(dues[i] - now);
        }
        let now = Instant::now();
        buf.clear();
        let first = i;
        while i < dues.len() && dues[i] <= now {
            let body = &pool.bodies[picks[i]];
            buf.extend_from_slice(&((9 + body.len()) as u32).to_le_bytes());
            buf.push(kind);
            buf.extend_from_slice(&(base + i as u64).to_le_bytes());
            buf.extend_from_slice(body);
            i += 1;
        }
        stream.write_all(&buf)?;
        sent.extend(std::iter::repeat_n(now, i - first));
    }
    Ok(sent)
}

/// The receiver: parses response frames, matches each to its request by
/// id, and checks OK logits byte for byte against in-process inference.
#[allow(clippy::too_many_arguments)]
fn receive(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    samples: &mut [Sample],
    picks: &[usize],
    pool: &Pool,
    base: u64,
    traced: bool,
    deadline: Instant,
    report: &mut Report,
) {
    let n = samples.len();
    let mut received = 0;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let mut consumed = 0;
        while pending.len() - consumed >= 4 {
            let len =
                u32::from_le_bytes(pending[consumed..consumed + 4].try_into().expect("4 bytes"))
                    as usize;
            if pending.len() - consumed < 4 + len {
                break;
            }
            let frame = &pending[consumed + 4..consumed + 4 + len];
            consumed += 4 + len;
            let now = Instant::now();
            if frame.len() < 13 {
                report
                    .problems
                    .push(format!("short response frame of {} bytes", frame.len()));
                continue;
            }
            let status = frame[0];
            let id = u64::from_le_bytes(frame[1..9].try_into().expect("8 bytes"));
            if id < base {
                // a straggler of an earlier phase, already counted missing
                continue;
            }
            let index = (id - base) as usize;
            if index >= n || samples[index].recv.is_some() {
                report
                    .problems
                    .push(format!("response id {id} matches no outstanding request"));
                continue;
            }
            let (body, trace_id) = if traced && frame.len() >= 21 {
                let split = frame.len() - 8;
                let trace = u64::from_le_bytes(frame[split..].try_into().expect("8 bytes"));
                (&frame[13..split], Some(trace))
            } else {
                (&frame[13..], None)
            };
            if status == STATUS_OK && body != pool.expected[picks[index]].as_slice() {
                report.problems.push(format!(
                    "logits of request {id} differ from in-process inference on the same input"
                ));
            }
            let sample = &mut samples[index];
            sample.recv = Some(now);
            sample.status = Some(status);
            sample.trace_id = trace_id;
            received += 1;
        }
        pending.drain(..consumed);
        if received == n || Instant::now() >= deadline {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                report.problems.push("server closed the connection".into());
                return;
            }
            Ok(k) => pending.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                report
                    .problems
                    .push(format!("reading responses failed: {e}"));
                return;
            }
        }
    }
}

fn summarize<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> PhaseStats {
    let mut stats = PhaseStats::default();
    for s in samples {
        let Some(sent) = s.sent else { continue };
        stats.sent += 1;
        stats
            .late_ms
            .push(sent.saturating_duration_since(s.due).as_secs_f64() * 1e3);
        stats.trace_ids.extend(s.trace_id);
        match (s.status, s.recv) {
            (Some(STATUS_OK), Some(recv)) => {
                stats.ok += 1;
                stats
                    .latency_ms
                    .push(recv.saturating_duration_since(s.due).as_secs_f64() * 1e3);
                if let Some(id) = s.trace_id {
                    stats
                        .traced
                        .push((id, recv.saturating_duration_since(sent).as_secs_f64() * 1e3));
                }
            }
            (Some(STATUS_SHED), _) => stats.shed += 1,
            (Some(_), _) => stats.errors += 1,
            (None, _) => stats.missing += 1,
        }
    }
    stats
}

/// A running server with its client connection.
struct Rig {
    server: Server,
    conn: Conn,
    timed: Option<Arc<TimedModel>>,
    log: Option<PathBuf>,
}

impl Rig {
    /// Binds a server on the demo model, connects, and warms both up with
    /// a paced run whose answers are checked. A traced rig attaches the
    /// access log and the timing wrapper.
    fn start(
        demo: &Demo,
        config: ServeConfig,
        traced: bool,
        pool: &Pool,
        report: &mut Report,
    ) -> Rig {
        let (model, timed, log): (Arc<dyn ServeModel>, _, _) = if traced {
            let timed = Arc::new(TimedModel {
                inner: Arc::clone(&demo.compiled),
                runs: Mutex::new(Vec::new()),
            });
            let path = out_dir().join(format!("access-{}.jsonl", std::process::id()));
            (
                timed.clone() as Arc<dyn ServeModel>,
                Some(timed),
                Some(path),
            )
        } else {
            (demo.compiled.clone() as Arc<dyn ServeModel>, None, None)
        };
        let access_log = log
            .as_ref()
            .map(|p| AccessLog::create(p, 8).expect("create the access log"));
        let server = Server::bind_logged("127.0.0.1:0", model, config, access_log)
            .expect("bind a loopback port");
        let conn = Conn::connect(&server, traced).expect("connect to the server");
        let mut rig = Rig {
            server,
            conn,
            timed,
            log,
        };
        // warm-up: rounds of one full batch each, well inside any queue cap
        let batch = config.max_batch.max(1);
        let mut ok = 0;
        for round in 0..WARMUP.div_ceil(batch) {
            let picks: Vec<usize> = (0..batch).map(|i| (round * batch + i) % POOL).collect();
            ok += rig
                .conn
                .run_phase(&vec![Duration::ZERO; batch], &picks, pool, report)
                .ok;
        }
        let sent = WARMUP.div_ceil(batch) * batch;
        report.check(ok == sent as u64, || {
            format!("warm-up got {ok} of {sent} responses OK")
        });
        if let Some(t) = &rig.timed {
            t.runs.lock().expect("timing lock").clear();
        }
        rig
    }

    /// Shuts the server down, draining admitted work, and returns the
    /// access-log path of a traced rig (the log is closed by then).
    fn stop(self) -> Option<PathBuf> {
        let Rig {
            mut server,
            conn,
            log,
            ..
        } = self;
        drop(conn);
        server.shutdown();
        log
    }
}

/// Where traced runs write the server's access log: the build directory
/// of the checkout unless `PERFBENCH_OUT` names another.
fn out_dir() -> PathBuf {
    let dir = std::env::var_os("PERFBENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-out"));
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

fn burst_config() -> ServeConfig {
    ServeConfig {
        queue_cap: BURST_QUEUE_CAP,
        overload: OverloadPolicy::Reject,
        ..ServeConfig::default()
    }
}

/// The payload pool (untimed: it runs in-process inference to know every
/// expected answer), then `SETUPS` timed set-ups — demo model, compile,
/// bind, connect, warm-up. The last rig stays up.
fn timed_setups(
    seed: u64,
    config: ServeConfig,
    report: &mut Report,
) -> (Demo, Pool, Rig, Vec<f64>) {
    let pool = Pool::new(seed, &demo(seed).compiled);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Demo, Rig)> = None;
    for _ in 0..SETUPS {
        if let Some((_, rig)) = kept.take() {
            rig.stop();
        }
        let started = Instant::now();
        let d = demo(seed);
        let rig = Rig::start(&d, config, false, &pool, report);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((d, rig));
    }
    let (d, rig) = kept.expect("SETUPS > 0");
    (d, pool, rig, setup_s)
}

/// A seeded Poisson phase: due offsets and payload picks.
fn poisson_phase(rate: f64, span: Duration, rng: &mut SplitMix64) -> (Vec<Duration>, Vec<usize>) {
    let due = poisson(rate, span, rng);
    let picks = (0..due.len()).map(|_| rng.below(POOL)).collect();
    (due, picks)
}

/// The steady schedule repeats a cycle, so each part samples the whole
/// run rather than one stretch of it: `RATES[0]` then `RATES[1]` for
/// `CYCLE_PART` each, then `SATURATE_RATE` for `SATURATE_SPAN` (more than
/// the server can take, so it runs flat out), then `CYCLE_GAP` with no
/// arrivals for the queue to drain.
const CYCLE_PART: Duration = Duration::from_millis(1000);
const SATURATE_RATE: f64 = 2400.0;
const SATURATE_SPAN: Duration = Duration::from_millis(250);
const CYCLE_GAP: Duration = Duration::from_millis(400);
/// Share of the steady budget spent in cycles; the SLO ladder gets the
/// rest.
const CYCLE_SHARE: f64 = 0.9;
/// Length of one ladder step.
const LADDER_STEP_SPAN: Duration = Duration::from_millis(600);

/// The part of a steady cycle a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Light,
    Loaded,
    Saturate,
}

/// Results of the steady workload.
struct Steady {
    r150: PhaseStats,
    r400: PhaseStats,
    saturate: PhaseStats,
    /// Median over saturated stretches of OK responses per second.
    saturated_rps: f64,
    /// `(rate, stats)` per ladder step, in order.
    ladder: Vec<(f64, PhaseStats)>,
    /// Highest rate meeting the SLO (0 when 400 rps already misses it).
    max_rps_slo: f64,
}

impl Steady {
    fn all(&self) -> PhaseStats {
        let mut total = PhaseStats::default();
        for p in [&self.r150, &self.r400, &self.saturate]
            .into_iter()
            .chain(self.ladder.iter().map(|(_, p)| p))
        {
            total.absorb(p);
        }
        total
    }

    /// OK share of the two fixed rates (saturation sheds by design).
    fn fixed_ok_frac(&self) -> f64 {
        (self.r150.ok + self.r400.ok) as f64 / (self.r150.sent + self.r400.sent).max(1) as f64
    }
}

/// Runs the steady schedule. Without `saturate` the cycles hold only the
/// two fixed rates and no ladder follows: traced runs use that, so the
/// per-layer serving numbers describe the fixed rates alone.
fn run_steady(
    conn: &mut Conn,
    seed: u64,
    budget: Duration,
    saturate: bool,
    pool: &Pool,
    report: &mut Report,
) -> Steady {
    let mut rng = SplitMix64::new(seed ^ 0x0057_EAD1);
    let started = Instant::now();
    let cycle = if saturate {
        2 * CYCLE_PART + SATURATE_SPAN + CYCLE_GAP
    } else {
        2 * CYCLE_PART
    };
    let cycles = (budget.mul_f64(CYCLE_SHARE).as_secs_f64() / cycle.as_secs_f64()).max(1.0) as u32;
    let mut due = Vec::new();
    // the cycle part and cycle number of every request
    let mut parts = Vec::new();
    for c in 0..cycles {
        let mut t = cycle * c;
        let all = [
            (RATES[0], CYCLE_PART, Part::Light),
            (RATES[1], CYCLE_PART, Part::Loaded),
            (SATURATE_RATE, SATURATE_SPAN, Part::Saturate),
        ];
        for &(rate, span, part) in &all[..if saturate { 3 } else { 2 }] {
            for d in poisson(rate, span, &mut rng) {
                due.push(t + d);
                parts.push((part, c));
            }
            t += span;
        }
    }
    let picks: Vec<usize> = (0..due.len()).map(|_| rng.below(POOL)).collect();
    let samples = conn.run(&due, &picks, pool, report);
    let of = |want: Part| {
        summarize(
            samples
                .iter()
                .zip(&parts)
                .filter(|(_, p)| p.0 == want)
                .map(|(s, _)| s),
        )
    };

    // A saturated stretch lasts from its start until its last answer. The
    // median over stretches shrugs off the few the host slows down.
    let origin = samples[0].due - due[0];
    let mut stretch_rps = Vec::new();
    for c in 0..cycles {
        let begin = origin + cycle * c + 2 * CYCLE_PART;
        let ok: Vec<Instant> = samples
            .iter()
            .zip(&parts)
            .filter(|(s, p)| **p == (Part::Saturate, c) && s.status == Some(STATUS_OK))
            .filter_map(|(s, _)| s.recv)
            .collect();
        if let Some(last) = ok.iter().max() {
            stretch_rps.push(ok.len() as f64 / last.saturating_duration_since(begin).as_secs_f64());
        }
    }

    let mut out = Steady {
        r150: of(Part::Light),
        r400: of(Part::Loaded),
        saturate: of(Part::Saturate),
        saturated_rps: if stretch_rps.is_empty() {
            0.0
        } else {
            median(&stretch_rps)
        },
        ladder: Vec::new(),
        max_rps_slo: 0.0,
    };
    if out.r400.meets_slo() {
        out.max_rps_slo = RATES[1];
    }
    let mut rate = RATES[1];
    while saturate && out.max_rps_slo == rate && started.elapsed() + LADDER_STEP_SPAN < budget {
        rate *= LADDER_STEP;
        let (due, picks) = poisson_phase(rate, LADDER_STEP_SPAN, &mut rng);
        let stats = conn.run_phase(&due, &picks, pool, report);
        if stats.meets_slo() {
            out.max_rps_slo = rate;
        }
        out.ladder.push((rate, stats));
    }
    out
}

/// Diagnostics of one phase: what was sent and how it ended, and how
/// late the generator sent it.
fn accounting(phase: &str, p: &PhaseStats) -> Vec<Metric> {
    if p.sent == 0 {
        return Vec::new();
    }
    vec![
        metric(format!("{phase}.sent"), p.sent as f64, "count"),
        metric(format!("{phase}.ok"), p.ok as f64, "count"),
        metric(format!("{phase}.shed"), p.shed as f64, "count"),
        metric(format!("{phase}.errors"), p.errors as f64, "count"),
        metric(format!("{phase}.missing"), p.missing as f64, "count"),
        metric(
            format!("{phase}.late_ms_p99"),
            quantile(&p.late_ms, 0.99),
            "ms",
        ),
        metric(
            format!("{phase}.late_ms_max"),
            quantile(&p.late_ms, 1.0),
            "ms",
        ),
    ]
}

/// Runs bursts for `budget`; returns their stats and the seconds they
/// spanned.
fn run_burst(
    conn: &mut Conn,
    seed: u64,
    budget: Duration,
    pool: &Pool,
    report: &mut Report,
) -> (PhaseStats, f64) {
    let mut rng = SplitMix64::new(seed ^ 0x00B0_0057);
    let count = (budget.as_secs_f64() / BURST_PERIOD.as_secs_f64()).max(1.0) as usize;
    let due = bursts(BURST, BURST_PERIOD, count);
    let picks: Vec<usize> = (0..due.len()).map(|_| rng.below(POOL)).collect();
    let stats = conn.run_phase(&due, &picks, pool, report);
    (stats, count as f64 * BURST_PERIOD.as_secs_f64())
}

/// Per-layer serving metrics of a traced rig's measured phases: batch
/// execution from the timing wrapper, stage waits from the access log,
/// and the wire time the two leave over.
fn serve_layers(
    stats: &PhaseStats,
    timed: &TimedModel,
    log: &std::path::Path,
    report: &mut Report,
) -> Vec<Metric> {
    let runs = timed.runs.lock().expect("timing lock").clone();
    let exec_ms: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let batch: Vec<f64> = runs.iter().map(|r| r.1 as f64).collect();
    let view = read_records(log).expect("read the access log");
    let measured: std::collections::HashSet<u64> = stats.trace_ids.iter().copied().collect();
    let records: std::collections::HashMap<u64, _> = view
        .records
        .iter()
        .filter(|r| measured.contains(&r.trace_id))
        .map(|r| (r.trace_id, r))
        .collect();
    let ok: Vec<_> = records
        .values()
        .filter(|r| r.outcome == OUTCOME_OK)
        .collect();
    let shed = records
        .values()
        .filter(|r| r.outcome == OUTCOME_SHED)
        .count() as u64;
    let dropped = view.summary.as_ref().map_or(0, |s| s.dropped);
    if dropped == 0 {
        report.check(ok.len() as u64 == stats.ok && shed == stats.shed, || {
            format!(
                "access log counts {} ok / {shed} shed, the client saw {} / {}",
                ok.len(),
                stats.ok,
                stats.shed
            )
        });
    }
    let ms = |f: &dyn Fn(&adq_telemetry::RequestRecord) -> u64| -> Vec<f64> {
        ok.iter().map(|r| f(r) as f64 / 1e6).collect()
    };
    let queue_wait = ms(&|r| r.queue_wait_ns);
    let wire: Vec<f64> = stats
        .traced
        .iter()
        .filter_map(|(id, client_ms)| records.get(id).map(|r| client_ms - r.total_ns as f64 / 1e6))
        .collect();
    vec![
        metric("serve.exec_ms_p50", median(&exec_ms), "ms"),
        metric("serve.exec_ms_p99", quantile(&exec_ms, 0.99), "ms"),
        metric("serve.batch_size_mean", mean(&batch), "count"),
        metric("serve.queue_wait_ms_p50", median(&queue_wait), "ms"),
        metric("serve.queue_wait_ms_p99", quantile(&queue_wait, 0.99), "ms"),
        metric(
            "serve.batch_wait_ms_p50",
            median(&ms(&|r| r.batch_wait_ns)),
            "ms",
        ),
        metric("serve.write_ms_p50", median(&ms(&|r| r.write_ns)), "ms"),
        metric("serve.wire_ms_p50", median(&wire), "ms"),
        metric("serve.shed", shed as f64, "count"),
        metric("serve.admitted", ok.len() as f64, "count"),
        metric("loadgen.late_ms_p99", quantile(&stats.late_ms, 0.99), "ms"),
        metric("loadgen.late_ms_max", quantile(&stats.late_ms, 1.0), "ms"),
    ]
}

/// The integer-kernel rows of the demo model: batch 1 (what a request
/// alone costs) and batch 8 (a full serving batch).
fn demo_qgemm(demo: &Demo) -> Vec<Metric> {
    let mut rows = layers::qgemm_rows(&demo.vgg, &demo.compiled, 1);
    rows.extend(layers::qgemm_rows(&demo.vgg, &demo.compiled, 8));
    rows
}

/// Serving-layer metrics for a workload that drives no server: the
/// steady workload for `span` against a traced default server.
pub struct ServingReference {
    pub metrics: Vec<Metric>,
    pub demo_qgemm: Vec<Metric>,
}

pub fn reference_layers(seed: u64, span: Duration, report: &mut Report) -> ServingReference {
    let d = demo(seed);
    let pool = Pool::new(seed, &d.compiled);
    let mut rig = Rig::start(&d, ServeConfig::default(), true, &pool, report);
    let stats = run_steady(&mut rig.conn, seed, span, false, &pool, report).all();
    let timed = rig.timed.clone().expect("traced rig");
    let log = rig.stop().expect("traced rig");
    let metrics = serve_layers(&stats, &timed, &log, report);
    let _ = std::fs::remove_file(&log);
    ServingReference {
        metrics,
        demo_qgemm: demo_qgemm(&d),
    }
}

/// Training-layer metrics for a workload that trains nothing: one traced
/// Algorithm-1 run of the `train_deploy` inputs on the same seed, its
/// lowering, and batch-32 inference.
fn training_reference(seed: u64, report: &mut Report) -> TrainingReference {
    let inputs = train::inputs(seed);
    let traced = layers::traced_training(&inputs, seed);
    let (mut model, _, _) = train::train_once(&inputs, seed);
    let (compiled, _) = train::compile_timed(&model, &inputs.calibration);
    let run_ms = train::run_batches(
        &compiled,
        &train::batches(&inputs.test),
        Duration::from_millis(500),
    );
    TrainingReference {
        metrics: traced.metrics,
        run_ms: median(&run_ms),
        int_agreement: train::check_deployment(&mut model, &compiled, &inputs.test, report),
        qgemm: layers::qgemm_rows(&model, &compiled, train::BATCH),
    }
}

struct TrainingReference {
    metrics: Vec<Metric>,
    run_ms: f64,
    int_agreement: f64,
    qgemm: Vec<Metric>,
}

/// The traced half of a serving workload: a traced rig runs `body`,
/// then every per-layer metric is assembled.
fn traced_serving(
    seed: u64,
    config: ServeConfig,
    untraced_latency: f64,
    report: &mut Report,
    body: impl FnOnce(&mut Conn, &Pool, &mut Report) -> (PhaseStats, f64),
) -> Vec<Metric> {
    let d = demo(seed);
    let pool = Pool::new(seed, &d.compiled);
    let mut rig = Rig::start(&d, config, true, &pool, report);
    let (stats, traced_latency) = body(&mut rig.conn, &pool, report);
    let timed = rig.timed.clone().expect("traced rig");
    let log = rig.stop().expect("traced rig");
    let serving = serve_layers(&stats, &timed, &log, report);
    let _ = std::fs::remove_file(&log);
    let reference = training_reference(seed, report);
    layers::assemble(layers::Parts {
        training: reference.metrics,
        compile_ms: d.compile_ms,
        trained_run_ms: reference.run_ms,
        int_agreement: reference.int_agreement,
        trained_qgemm: reference.qgemm,
        demo_qgemm: demo_qgemm(&d),
        serving,
        trace_overhead_frac: traced_latency / untraced_latency - 1.0,
    })
}

fn budget(args: &Args) -> Duration {
    if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    }
}

pub fn steady(args: &Args) -> Report {
    let mut report = Report::default();
    let (d, pool, mut rig, setup_s) = timed_setups(args.seed, ServeConfig::default(), &mut report);
    let run = run_steady(
        &mut rig.conn,
        args.seed,
        budget(args),
        true,
        &pool,
        &mut report,
    );
    rig.stop();
    let all = run.all();
    report.attempted = all.sent;
    report.failed = all.failed();
    report.detail = vec![
        metric("r150.p25_ms", run.r150.p25(), "ms"),
        metric("r150.p50_ms", run.r150.p50(), "ms"),
        metric("r150.p99_ms", run.r150.p99(), "ms"),
        metric("r400.p50_ms", run.r400.p50(), "ms"),
        metric("r400.p99_ms", run.r400.p99(), "ms"),
        metric("saturated_rps", run.saturated_rps, "1/s"),
        metric("max_rps_slo", run.max_rps_slo, "1/s"),
        metric("ladder_steps", run.ladder.len() as f64, "count"),
        metric("failed_frac", 1.0 - run.fixed_ok_frac(), "share"),
        metric("infer.compile_ms", d.compile_ms, "ms"),
    ];
    for (rate, p) in &run.ladder {
        report
            .detail
            .push(metric(format!("ladder.r{rate:.0}.p99_ms"), p.p99(), "ms"));
    }
    let mut ladder = PhaseStats::default();
    for (_, p) in &run.ladder {
        ladder.absorb(p);
    }
    for (phase, p) in [
        ("r150", &run.r150),
        ("r400", &run.r400),
        ("saturate", &run.saturate),
        ("ladder", &ladder),
        ("loadgen", &all),
    ] {
        report.detail.extend(accounting(phase, p));
    }
    report.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        // p25, not p50: at 150 rps a quarter of requests queue behind
        // another, and how many do shifts with the host's speed, which
        // moves the median by 10-15% from run to run; p25 is the
        // uncontended request (batch wait + one image + wire) and moves
        // about half as much.
        metric("latency_ms", run.r150.p25(), "ms"),
        metric("throughput_per_s", run.saturated_rps, "1/s"),
        metric("ok_frac", run.fixed_ok_frac(), "share"),
        metric("mac_reduction", mac_reduction(&d.vgg), "x"),
    ];
    if args.trace {
        let untraced = run.r150.p25();
        report.layers = traced_serving(
            args.seed,
            ServeConfig::default(),
            untraced,
            &mut report,
            |conn, pool, report| {
                let run = run_steady(conn, args.seed, budget(args), false, pool, report);
                (run.all(), run.r150.p25())
            },
        );
    }
    report
}

pub fn burst(args: &Args) -> Report {
    let mut report = Report::default();
    let (d, pool, mut rig, setup_s) = timed_setups(args.seed, burst_config(), &mut report);
    let (stats, span_s) = run_burst(&mut rig.conn, args.seed, budget(args), &pool, &mut report);
    rig.stop();
    report.attempted = stats.sent;
    report.failed = stats.failed();
    let ok_frac = stats.ok as f64 / stats.sent.max(1) as f64;
    let goodput = stats.ok as f64 / span_s;
    report.detail = vec![
        metric("p50_ms", stats.p50(), "ms"),
        metric("mean_ms", mean(&stats.latency_ms), "ms"),
        metric("p99_ms", stats.p99(), "ms"),
        metric("failed_frac", 1.0 - ok_frac, "share"),
        metric("goodput_per_s", goodput, "1/s"),
        metric("infer.compile_ms", d.compile_ms, "ms"),
    ];
    report.detail.extend(accounting("burst", &stats));
    report.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        // The mean, not the median: requests finish in batches of 8, and
        // the median jumps a whole batch time when it crosses a batch edge.
        metric("latency_ms", mean(&stats.latency_ms), "ms"),
        metric("throughput_per_s", goodput, "1/s"),
        metric("ok_frac", ok_frac, "share"),
        metric("mac_reduction", mac_reduction(&d.vgg), "x"),
    ];
    if args.trace {
        let untraced = mean(&stats.latency_ms);
        report.layers = traced_serving(
            args.seed,
            burst_config(),
            untraced,
            &mut report,
            |conn, pool, report| {
                let (stats, _) = run_burst(conn, args.seed, budget(args), pool, report);
                let latency = mean(&stats.latency_ms);
                (stats, latency)
            },
        );
    }
    report
}
