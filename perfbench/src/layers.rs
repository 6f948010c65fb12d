//! Per-layer metrics, measured from outside the program: the training
//! stack through the spans it already emits (collected in a
//! `MemorySink`), the integer kernels by calling `qgemm` directly at each
//! compiled layer's shape.

use std::collections::HashMap;
use std::time::Instant;

use adq_infer::{qgemm::qgemm, CompiledVgg, Container, PackedMatrix};
use adq_nn::{LayerKind, QuantModel, Vgg};
use adq_telemetry::trace::{child_time_ns, spans_from_events, TraceSpan};
use adq_telemetry::{alloc, metrics, span, MemorySink};

use crate::schedule::SplitMix64;
use crate::stats::{median, sum};
use crate::train::{self, Fingerprint, Inputs};
use crate::{metric, Metric, THREADS};

/// The result of one traced Algorithm-1 run.
pub struct TracedTraining {
    pub fingerprint: Fingerprint,
    pub train_s: f64,
    pub metrics: Vec<Metric>,
}

/// Runs Algorithm 1 once at trace level 2 (phases, batches, every GEMM,
/// im2col and fake-quantize pass) with resource tracking on, so matmul
/// spans carry their `flops`, and reduces the spans to per-layer metrics.
pub fn traced_training(inputs: &Inputs, seed: u64) -> TracedTraining {
    let sink = MemorySink::new();
    let ad_meter = metrics::global().histogram("ad.meter");
    let ad_before = ad_meter.sum();
    span::drain();
    span::take_dropped();
    span::set_level(span::LEVEL_VERBOSE);
    alloc::set_tracking(true);
    let mut model = train::fresh_model(seed);
    let started = Instant::now();
    let outcome =
        train::quantizer(seed).run_with_sink(&mut model, &inputs.train, &inputs.test, &sink);
    let train_s = started.elapsed().as_secs_f64();
    span::set_level(0);
    alloc::set_tracking(false);
    span::drain_into(&sink);
    let dropped = span::take_dropped();
    let ad_meter_s = (ad_meter.sum() - ad_before) as f64 / 1e9;
    let spans = spans_from_events(&sink.take());
    let record = outcome.final_record();

    let mut m = training_metrics(&spans, ad_meter_s);
    m.push(metric("core.test_accuracy", record.test_accuracy, "share"));
    m.push(metric("core.mac_reduction", record.mac_reduction, "x"));
    m.push(metric(
        "core.training_complexity",
        outcome.training_complexity,
        "x",
    ));
    m.push(metric("trace.dropped_spans", dropped as f64, "count"));
    TracedTraining {
        fingerprint: Fingerprint::of(&outcome),
        train_s,
        metrics: m,
    }
}

fn training_metrics(spans: &[TraceSpan], ad_meter_s: f64) -> Vec<Metric> {
    let children = child_time_ns(spans);
    let mut total: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut self_s: HashMap<&str, f64> = HashMap::new();
    let mut plans: HashMap<String, u64> = HashMap::new();
    let mut matmul_flops = 0.0;
    for s in spans {
        let secs = s.duration_ns() as f64 / 1e9;
        total.entry(s.name.as_str()).or_default().push(secs);
        let own = s
            .duration_ns()
            .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
        *self_s.entry(s.name.as_str()).or_default() += own as f64 / 1e9;
        if s.name == "tensor.matmul" {
            // The span's `flops` attr reads 0: the matmul counts its flops
            // just before it opens the span. 2·m·n·k is the same count.
            let dim = |k| s.arg_f64(k).unwrap_or(0.0);
            let flops = match s.arg_f64("flops") {
                Some(f) if f > 0.0 => f,
                _ => 2.0 * dim("m") * dim("n") * dim("k"),
            };
            matmul_flops += flops;
            if let Some(plan) = s.args.get("tensor.dispatch.plan").and_then(|v| v.as_str()) {
                *plans.entry(plan.to_string()).or_default() += 1;
            }
        }
    }
    let all = |name: &str| total.get(name).cloned().unwrap_or_default();
    let seconds = |name: &str| sum(&all(name));
    let batch_s = all("nn.batch");
    let matmul_wall = seconds("tensor.matmul");
    vec![
        metric("core.phase_train_s", seconds("adq.phase.train"), "s"),
        metric(
            "core.phase_ad_measure_s",
            seconds("adq.phase.ad_measure"),
            "s",
        ),
        metric("core.phase_evaluate_s", seconds("adq.phase.evaluate"), "s"),
        metric(
            "core.phase_energy_eval_s",
            seconds("adq.phase.energy_eval"),
            "s",
        ),
        metric(
            "core.phase_bitwidth_update_s",
            seconds("adq.phase.bitwidth_update"),
            "s",
        ),
        metric("core.epochs", all("adq.epoch").len() as f64, "count"),
        metric("nn.batch_ms_p50", median(&batch_s) * 1e3, "ms"),
        metric("nn.batches", batch_s.len() as f64, "count"),
        metric("nn.reduce_s", seconds("nn.reduce"), "s"),
        metric(
            "nn.microbatch_busy_frac",
            seconds("nn.microbatch") / (THREADS as f64 * sum(&batch_s)),
            "share",
        ),
        metric(
            "tensor.matmul_s",
            self_s.get("tensor.matmul").copied().unwrap_or(0.0),
            "s",
        ),
        metric("tensor.matmul_wall_s", matmul_wall, "s"),
        metric(
            "tensor.matmul_calls",
            all("tensor.matmul").len() as f64,
            "count",
        ),
        metric(
            "tensor.matmul_gflops",
            matmul_flops / matmul_wall / 1e9,
            "GFLOP/s",
        ),
        metric("tensor.im2col_s", seconds("tensor.im2col"), "s"),
        metric("tensor.col2im_s", seconds("tensor.col2im"), "s"),
        metric("tensor.plan_naive", plan_count(&plans, "naive"), "count"),
        metric(
            "tensor.plan_blocked",
            plan_count(&plans, "blocked"),
            "count",
        ),
        metric(
            "tensor.plan_tuned",
            plan_count(&plans, "blocked_tuned"),
            "count",
        ),
        metric("quant.fake_quantize_s", seconds("quant.fake_quantize"), "s"),
        metric("ad.meter_s", ad_meter_s, "s"),
    ]
}

fn plan_count(plans: &HashMap<String, u64>, label: &str) -> f64 {
    plans.get(label).copied().unwrap_or(0) as f64
}

/// Shape of one compiled layer's integer GEMM at a batch size.
#[derive(Debug, Clone, Copy)]
struct GemmShape {
    m: usize,
    k: usize,
    n: usize,
    container: Container,
}

/// `(layer name, GEMM shape)` per compiled layer, convs then the head:
/// a conv's activation rows are its output pixels, `k` its fan-in.
fn gemm_shapes(model: &Vgg, compiled: &CompiledVgg, batch: usize) -> Vec<(String, GemmShape)> {
    let containers = compiled.containers();
    model
        .layer_stats()
        .iter()
        .zip(containers)
        .map(|(stat, container)| {
            let shape = match stat.kind {
                LayerKind::Linear => GemmShape {
                    m: batch,
                    k: stat.in_features,
                    n: stat.out_channels,
                    container,
                },
                _ => {
                    let g = stat.geom.expect("conv layers carry geometry");
                    let side = g.output_size(stat.input_hw);
                    GemmShape {
                        m: batch * side * side,
                        k: g.in_channels * g.kernel * g.kernel,
                        n: g.out_channels,
                        container,
                    }
                }
            };
            (stat.name.clone(), shape)
        })
        .collect()
}

fn random_codes(len: usize, container: Container, rng: &mut SplitMix64) -> Vec<u16> {
    let max = match container {
        Container::Nib => 0xF,
        Container::U8 => 0xFF,
        Container::U16 => 0xFFFF,
    };
    (0..len)
        .map(|_| (rng.next_u64() % (max + 1)) as u16)
        .collect()
}

/// Minimum time and call count behind one `qgemm` row.
const QGEMM_MIN_MS: f64 = 25.0;
const QGEMM_MIN_CALLS: usize = 5;

/// `infer.qgemm.<layer>.b<batch>_us` (median per call) and `..._gmacs`
/// per compiled layer, timing `qgemm` on random codes packed with
/// `PackedMatrix::from_codes` at the layer's shape and container.
pub fn qgemm_rows(model: &Vgg, compiled: &CompiledVgg, batch: usize) -> Vec<Metric> {
    let mut rng = SplitMix64::new(0x9E44 ^ batch as u64);
    let mut out = Vec::new();
    for (name, s) in gemm_shapes(model, compiled, batch) {
        let acts = PackedMatrix::from_codes(
            &random_codes(s.m * s.k, s.container, &mut rng),
            s.m,
            s.k,
            s.container,
        );
        let weights = PackedMatrix::from_codes(
            &random_codes(s.n * s.k, s.container, &mut rng),
            s.n,
            s.k,
            s.container,
        );
        let mut times = Vec::new();
        let started = Instant::now();
        while times.len() < QGEMM_MIN_CALLS || started.elapsed().as_secs_f64() * 1e3 < QGEMM_MIN_MS
        {
            let t = Instant::now();
            let mut acc = 0i64;
            qgemm(&acts, &weights, |m, o, v| {
                acc = acc.wrapping_add(v ^ (m + o) as i64);
            });
            times.push(t.elapsed().as_secs_f64());
            std::hint::black_box(acc);
        }
        let per_call = median(&times);
        let macs = (s.m * s.k * s.n) as f64;
        out.push(metric(
            format!("infer.qgemm.{name}.b{batch}_us"),
            per_call * 1e6,
            "us",
        ));
        out.push(metric(
            format!("infer.qgemm.{name}.b{batch}_gmacs"),
            macs / per_call / 1e9,
            "GMAC/s",
        ));
    }
    out
}

/// The pieces of a traced run's per-layer report. Workloads that do not
/// drive a layer fill its part from a reference pass (see README).
pub struct Parts {
    pub training: Vec<Metric>,
    pub compile_ms: f64,
    pub trained_run_ms: f64,
    pub int_agreement: f64,
    pub trained_qgemm: Vec<Metric>,
    pub demo_qgemm: Vec<Metric>,
    pub serving: Vec<Metric>,
    pub trace_overhead_frac: f64,
}

/// Every per-layer metric, in one fixed order for every workload.
pub fn assemble(parts: Parts) -> Vec<Metric> {
    let mut out = parts.training;
    out.push(metric("infer.compile_ms", parts.compile_ms, "ms"));
    out.push(metric("infer.run_ms", parts.trained_run_ms, "ms"));
    out.push(metric("infer.int_agreement", parts.int_agreement, "share"));
    out.extend(parts.trained_qgemm);
    out.extend(parts.demo_qgemm);
    out.extend(parts.serving);
    out.push(metric(
        "trace_overhead_frac",
        parts.trace_overhead_frac,
        "share",
    ));
    out
}
