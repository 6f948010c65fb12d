//! `train_deploy`: the paper's pipeline from training to deployment, on
//! socket-free code only — a seeded Algorithm-1 run on `Vgg::small`, the
//! integer lowering of the trained mixed-precision model, and batch-32
//! integer inference over the held-out set.

use std::time::{Duration, Instant};

use adq_core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq_datasets::SyntheticSpec;
use adq_infer::{CompileOptions, CompiledVgg};
use adq_nn::train::Dataset;
use adq_nn::{QuantModel, Vgg};
use adq_tensor::Tensor;

use crate::schedule::SplitMix64;
use crate::stats::{median, quantile, trimmed_mean};
use crate::{layers, metric, Args, Report};

/// Images per integer-engine call.
pub const BATCH: usize = 32;
/// Microbatch of the data-parallel trainer.
const MICROBATCH: usize = 8;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Compilations timed per run; `infer.compile_ms` is their median.
const COMPILES: usize = 5;
/// Share of the run spent training; the rest runs the integer engine.
const TRAIN_SHARE: f64 = 0.75;

/// The workload's inputs, all derived from the seed.
pub struct Inputs {
    pub train: Dataset,
    pub test: Dataset,
    /// Post-training calibration batch: a seeded draw of training images.
    pub calibration: Tensor,
}

/// A synthetic task hard enough that test accuracy stays well below 1.0
/// (the `cifar10_like` default saturates and would hide a numeric
/// regression). 10 × 16 held-out images make five batches of 32.
pub fn inputs(seed: u64) -> Inputs {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_seed(seed ^ 0x7EA1_DA7A)
        .with_samples(32, 16)
        .with_noise(2.5)
        .generate();
    let mut rng = SplitMix64::new(seed ^ 0xCA11_B8A7);
    let picks: Vec<usize> = (0..BATCH).map(|_| rng.below(train.len())).collect();
    let (calibration, _) = train.batch(&picks);
    Inputs {
        train,
        test,
        calibration,
    }
}

pub fn fresh_model(seed: u64) -> Vgg {
    Vgg::small(3, 16, 10, seed)
}

pub fn quantizer(seed: u64) -> AdQuantizer {
    AdQuantizer::new(AdqConfig {
        seed,
        ..AdqConfig::fast()
    })
    .with_parallelism(MICROBATCH)
}

/// What a training run must reproduce exactly on the same seed, traced
/// or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub bits: Vec<Option<u32>>,
    pub epochs: usize,
    /// Bit patterns, so the comparison is exact.
    pub mac_reduction: u64,
    pub training_complexity: u64,
    pub test_accuracy: u64,
}

impl Fingerprint {
    pub fn of(outcome: &AdqOutcome) -> Self {
        Self {
            bits: outcome
                .final_bits()
                .iter()
                .map(|b| b.map(|b| b.get()))
                .collect(),
            epochs: outcome.total_epochs(),
            mac_reduction: outcome.final_record().mac_reduction.to_bits(),
            training_complexity: outcome.training_complexity.to_bits(),
            test_accuracy: outcome.final_record().test_accuracy.to_bits(),
        }
    }
}

/// One untraced Algorithm-1 run from a fresh model; returns the trained
/// model, its outcome and the wall time in seconds.
pub fn train_once(inputs: &Inputs, seed: u64) -> (Vgg, AdqOutcome, f64) {
    let mut model = fresh_model(seed);
    let started = Instant::now();
    let outcome = quantizer(seed).run(&mut model, &inputs.train, &inputs.test);
    (model, outcome, started.elapsed().as_secs_f64())
}

/// The held-out set as batch-32 tensors.
pub fn batches(test: &Dataset) -> Vec<Tensor> {
    let n = test.len() / BATCH;
    (0..n)
        .map(|b| {
            let idx: Vec<usize> = (b * BATCH..(b + 1) * BATCH).collect();
            test.batch(&idx).0
        })
        .collect()
}

/// Compiles `model` `COMPILES` times; returns the last lowering and the
/// per-compile milliseconds.
pub fn compile_timed(model: &Vgg, calibration: &Tensor) -> (CompiledVgg, Vec<f64>) {
    let mut times = Vec::with_capacity(COMPILES);
    let mut compiled = None;
    for _ in 0..COMPILES {
        let started = Instant::now();
        let c = CompiledVgg::compile(model, calibration, CompileOptions::default())
            .expect("a trained model lowers");
        times.push(started.elapsed().as_secs_f64() * 1e3);
        compiled = Some(c);
    }
    (compiled.expect("COMPILES > 0"), times)
}

/// Runs batch-32 inference over the held-out batches, round robin, until
/// `budget` is spent (at least one pass); per-call milliseconds.
pub fn run_batches(compiled: &CompiledVgg, batches: &[Tensor], budget: Duration) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut i = 0;
    while i < batches.len() || started.elapsed() < budget {
        let t = Instant::now();
        let logits = compiled.run(&batches[i % batches.len()]);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(logits);
        i += 1;
    }
    times
}

fn argmaxes(logits: &Tensor) -> Vec<usize> {
    let n = logits.dims()[0];
    (0..n).map(|i| logits.index_axis0(i).argmax()).collect()
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Output checks of the deployed model: batch-32 logits equal batch-1
/// logits bit for bit. Returns the integer engine's argmax agreement with
/// the float (fake-quantized) model over the held-out set.
pub fn check_deployment(
    model: &mut Vgg,
    compiled: &CompiledVgg,
    test: &Dataset,
    report: &mut Report,
) -> f64 {
    let float = argmaxes(&model.forward(&test.images, false));
    let held_out = batches(test);
    let mut agree = 0usize;
    for (b, batch) in held_out.iter().enumerate() {
        let logits = compiled.run(batch);
        for i in 0..BATCH {
            let image = batch
                .index_axis0(i)
                .reshaped(&[1, 3, 16, 16])
                .expect("one image");
            let row = logits.index_axis0(i);
            report.check(bits_of(&compiled.run(&image)) == bits_of(&row), || {
                format!(
                    "integer logits of held-out image {} differ between batch 32 and batch 1",
                    b * BATCH + i
                )
            });
            agree += usize::from(row.argmax() == float[b * BATCH + i]);
        }
    }
    agree as f64 / (held_out.len() * BATCH) as f64
}

/// Trim of the run-level means (see `stats::trimmed_mean`).
const TRIM: f64 = 0.05;

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let seed = args.seed;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = (self::inputs(seed), fresh_model(seed));
        setup_s.push(started.elapsed().as_secs_f64());
        inputs = Some(built.0);
    }
    let inputs = inputs.expect("SETUPS > 0");
    let held_out = batches(&inputs.test);

    // Training runs alternate with slices of integer inference on the
    // first run's model, so both sample the whole run. A traced run
    // spends half its budget here (the overhead baseline) and half traced.
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut runs: Vec<(f64, Fingerprint)> = Vec::new();
    let mut deployed: Option<(Vgg, AdqOutcome, CompiledVgg, Vec<f64>)> = None;
    let mut run_ms = Vec::new();
    while runs.len() < 2 || started.elapsed() < budget {
        let (model, outcome, secs) = train_once(&inputs, seed);
        runs.push((secs, Fingerprint::of(&outcome)));
        if deployed.is_none() {
            let (compiled, compile_ms) = compile_timed(&model, &inputs.calibration);
            deployed = Some((model, outcome, compiled, compile_ms));
        }
        let slice = Duration::from_secs_f64(secs * (1.0 - TRAIN_SHARE) / TRAIN_SHARE);
        let compiled = &deployed.as_ref().expect("deployed above").2;
        run_ms.extend(run_batches(compiled, &held_out, slice));
    }
    let (mut model, outcome, compiled, compile_ms) = deployed.expect("at least one run");
    let fingerprint = Fingerprint::of(&outcome);
    for (i, (_, f)) in runs.iter().enumerate() {
        report.check(*f == fingerprint, || {
            format!(
                "Algorithm-1 run {i} on the same seed gave {f:?}, the first gave {fingerprint:?}"
            )
        });
    }
    let train_s: Vec<f64> = runs.iter().map(|(s, _)| *s).collect();
    let epochs = outcome.total_epochs();
    // The median run: a run the host slows down does not move it.
    let epoch_ms = median(&train_s) * 1e3 / epochs as f64;
    let agreement = check_deployment(&mut model, &compiled, &inputs.test, &mut report);
    let images_per_s = BATCH as f64 * 1e3 / trimmed_mean(&run_ms, TRIM);
    let record = outcome.final_record();

    report.attempted = (runs.len() + run_ms.len()) as u64;
    report.detail = vec![
        metric("train_s", median(&train_s), "s"),
        metric("epoch_ms", epoch_ms, "ms"),
        metric("core.epochs", epochs as f64, "count"),
        metric("test_accuracy", record.test_accuracy, "share"),
        metric("mac_reduction", record.mac_reduction, "x"),
        metric("training_complexity", outcome.training_complexity, "x"),
        metric("int_agreement", agreement, "share"),
        metric("images_per_s", images_per_s, "1/s"),
        metric("infer.compile_ms", median(&compile_ms), "ms"),
        metric("infer.run_ms", median(&run_ms), "ms"),
        metric("infer.run_ms_p99", quantile(&run_ms, 0.99), "ms"),
        metric("training_runs", runs.len() as f64, "count"),
        metric("failed_frac", 0.0, "share"),
    ];
    let setup = median(&setup_s) + median(&compile_ms) / 1e3;
    report.end_to_end = vec![
        metric("setup_s", setup, "s"),
        metric("latency_ms", epoch_ms, "ms"),
        metric("throughput_per_s", images_per_s, "1/s"),
        metric("ok_frac", 1.0, "share"),
        metric("mac_reduction", record.mac_reduction, "x"),
    ];

    if args.trace {
        let traced = layers::traced_training(&inputs, seed);
        report.check(traced.fingerprint == fingerprint, || {
            format!(
                "traced Algorithm-1 run gave {:?}, untraced gave {fingerprint:?}",
                traced.fingerprint
            )
        });
        let overhead = traced.train_s / median(&train_s) - 1.0;
        let serving = crate::serve::reference_layers(seed, args.seconds / 4, &mut report);
        report.layers = layers::assemble(layers::Parts {
            training: traced.metrics,
            compile_ms: median(&compile_ms),
            trained_run_ms: median(&run_ms),
            int_agreement: agreement,
            trained_qgemm: layers::qgemm_rows(&model, &compiled, BATCH),
            demo_qgemm: serving.demo_qgemm,
            serving: serving.metrics,
            trace_overhead_frac: overhead,
        });
    }
    report
}
