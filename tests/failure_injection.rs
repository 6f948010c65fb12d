//! Failure injection: degenerate and adversarial inputs must produce
//! defined behaviour (errors or documented fallbacks), never silent
//! corruption.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use adq::core::checkpoint::CheckpointManager;
use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::nn::train::Dataset;
use adq::nn::{QuantModel, Vgg};
use adq::quant::{BitWidth, QuantRange, Quantizer};
use adq::telemetry::NullSink;
use adq::tensor::Tensor;

#[test]
fn all_zero_images_train_without_nan() {
    // constant inputs make BN variance zero and all activations identical
    let images = Tensor::zeros(&[8, 3, 8, 8]);
    let labels = vec![0usize, 1, 2, 3, 0, 1, 2, 3];
    let data = Dataset::new(images, labels);
    let mut model = Vgg::tiny(3, 8, 4, 1);
    let cfg = AdqConfig {
        max_iterations: 2,
        max_epochs_per_iteration: 2,
        min_epochs_per_iteration: 2,
        batch_size: 4,
        ..AdqConfig::fast()
    };
    let outcome = AdQuantizer::new(cfg).run(&mut model, &data, &data);
    for record in &outcome.iterations {
        assert!(record.densities.iter().all(|d| d.is_finite()));
    }
    let logits = model.forward(&data.images, false);
    assert!(logits.data().iter().all(|v| v.is_finite()));
}

#[test]
fn constant_activation_tensor_quantizes_to_itself() {
    // degenerate range: every value identical
    let q = Quantizer::fit(BitWidth::new(4).expect("valid"), &[2.5; 64]).expect("finite");
    assert_eq!(q.fake_quantize(2.5), 2.5);
    assert_eq!(q.fake_quantize(99.0), 2.5); // clamps into the point range
}

#[test]
fn non_finite_weights_are_rejected_not_propagated() {
    assert!(Quantizer::fit(BitWidth::new(4).expect("valid"), &[1.0, f32::NAN]).is_err());
    assert!(Quantizer::fit(BitWidth::new(4).expect("valid"), &[f32::INFINITY]).is_err());
    assert!(QuantRange::new(0.0, f32::NAN).is_err());
}

#[test]
fn single_class_dataset_trains() {
    let (mut train, _) = SyntheticSpec::cifar10_like()
        .with_classes(1)
        .with_resolution(8)
        .with_samples(8, 2)
        .generate();
    // classifier still needs >= 2 outputs for a meaningful softmax; use 2
    let mut model = Vgg::tiny(3, 8, 2, 2);
    train.labels.iter_mut().for_each(|l| *l = 0);
    let cfg = AdqConfig {
        max_iterations: 1,
        max_epochs_per_iteration: 2,
        min_epochs_per_iteration: 2,
        batch_size: 4,
        ..AdqConfig::fast()
    };
    let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &train);
    assert!(outcome.final_record().test_accuracy >= 0.99);
}

#[test]
fn tiny_batch_sizes_work() {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(2)
        .with_resolution(8)
        .with_samples(3, 1)
        .generate();
    let mut model = Vgg::tiny(3, 8, 2, 3);
    let cfg = AdqConfig {
        max_iterations: 1,
        max_epochs_per_iteration: 1,
        min_epochs_per_iteration: 1,
        batch_size: 1,
        ..AdqConfig::fast()
    };
    let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &test);
    assert_eq!(outcome.iterations.len(), 1);
}

#[test]
fn one_bit_everything_still_runs() {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(2)
        .with_resolution(8)
        .with_samples(4, 2)
        .generate();
    let mut model = Vgg::tiny(3, 8, 2, 4);
    for i in 0..model.layer_count() {
        model.set_bits_of(i, Some(BitWidth::ONE));
    }
    let eval_logits = model.forward(&test.images, false);
    assert!(eval_logits.data().iter().all(|v| v.is_finite()));
    // gradient flow survives binarisation (straight-through); backward
    // needs a training-mode forward for the batch-norm cache
    let logits = model.forward(&test.images, true);
    let out = adq::nn::softmax_cross_entropy(&logits, &test.labels);
    model.zero_grad();
    model.backward(&out.grad);
    let mut any_grad = false;
    model.visit_params(&mut |_, p| {
        any_grad |= p.grad.data().iter().any(|&g| g != 0.0);
    });
    assert!(any_grad);
    let _ = train;
}

#[test]
fn extreme_pruning_respects_floor() {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(2)
        .with_resolution(8)
        .with_samples(6, 2)
        .generate();
    let mut model = Vgg::tiny(3, 8, 2, 5);
    let mut cfg = AdqConfig {
        max_iterations: 4,
        max_epochs_per_iteration: 2,
        min_epochs_per_iteration: 2,
        batch_size: 6,
        ..AdqConfig::fast()
    }
    .with_pruning();
    // force aggressive pruning pressure by pretending AD is tiny:
    // run multiple iterations on a barely-trained model
    cfg.saturation = adq::ad::SaturationDetector::new(2, 1.0); // always saturated
    let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &test);
    for record in &outcome.iterations {
        for (idx, &c) in record.channels.iter().enumerate() {
            assert!(c >= 1, "layer {idx} pruned to zero channels");
        }
    }
    // the model still produces valid output
    let logits = model.forward(&test.images, false);
    assert!(logits.data().iter().all(|v| v.is_finite()));
}

/// A real checkpoint from a two-iteration run (the first iteration's
/// state is saved because the run continues), written under `target/`.
fn trained_checkpoint(name: &str) -> (PathBuf, Vec<u8>) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/failure-injection")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manager = CheckpointManager::new(&dir).unwrap();
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(8, 4)
        .generate();
    let config = AdqConfig {
        max_iterations: 2,
        ..AdqConfig::fast()
    };
    AdQuantizer::new(config)
        .run_checkpointed(
            &mut Vgg::tiny(3, 8, 4, 3),
            &train,
            &test,
            &NullSink,
            &manager,
        )
        .unwrap();
    let path = manager
        .latest()
        .unwrap()
        .expect("the run wrote a checkpoint");
    let bytes = std::fs::read(&path).unwrap();
    (dir, bytes)
}

/// `adq-serve serve --checkpoint` on a corrupt file must fail loudly with
/// the typed checkpoint error, before it binds or publishes a port.
#[test]
fn serving_refuses_truncated_and_bit_flipped_checkpoints() {
    let (dir, bytes) = trained_checkpoint("serve-corrupt");
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut flipped = bytes.clone();
    flipped[header_len + (bytes.len() - header_len) / 2] ^= 0x10;
    let cases = [
        (
            "truncated-header",
            bytes[..header_len / 2].to_vec(),
            "missing ADQCKPT header",
        ),
        (
            "truncated-payload",
            bytes[..(header_len + bytes.len()) / 2].to_vec(),
            "checkpoint payload corrupted",
        ),
        ("bit-flipped", flipped, "checkpoint payload corrupted"),
    ];
    for (name, corrupt, expected) in cases {
        let ckpt = dir.join(format!("{name}.ckpt"));
        let port_file = dir.join(format!("{name}.port"));
        std::fs::write(&ckpt, corrupt).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_adq-serve"))
            .arg("serve")
            .arg("--checkpoint")
            .arg(&ckpt)
            .args(["--arch", "tiny", "--resolution", "8", "--classes", "4"])
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // a server that accepted the file would never exit on its own
        let deadline = Instant::now() + Duration::from_secs(60);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{name}: adq-serve kept serving a corrupt checkpoint");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{name}: adq-serve served a corrupt checkpoint"
        );
        assert!(
            stderr.contains("cannot load checkpoint") && stderr.contains(expected),
            "{name}: stderr lacks the typed checkpoint error `{expected}`: {stderr}"
        );
        assert!(!port_file.exists(), "{name}: adq-serve published a port");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
