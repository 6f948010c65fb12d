//! Golden equivalence between a trained model's eval-mode fake-quantized
//! forward pass (`model.forward(x, false)`, what training simulates) and
//! its lowering onto `adq-infer`'s bit-packed integer engine
//! (`CompiledVgg` / `CompiledResNet`).
//!
//! The two are deliberately not bit-identical — the integer engine
//! freezes activation ranges at compile time (a server cannot re-fit
//! ranges per request batch), folds batch-norm before quantizing weights,
//! and pads convolutions with the zero point — but on a trained network
//! they must agree where it matters: the predicted class of every
//! evaluation sample. At 16 bits the quantization grid is fine enough
//! that the logits themselves must match.

use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::infer::{CompileOptions, CompiledResNet, CompiledVgg};
use adq::nn::train::Dataset;
use adq::nn::{QuantModel, ResNet, Vgg};
use adq::quant::{BitWidth, HwPrecision};
use adq::tensor::Tensor;

fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let [n, classes] = [logits.dims()[0], logits.dims()[1]];
    (0..n)
        .map(|i| {
            let row = &logits.data()[i * classes..(i + 1) * classes];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .expect("non-empty row")
        })
        .collect()
}

fn trained_task() -> (Vgg, Dataset, Dataset) {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(24, 16)
        .with_seed(77)
        .generate();
    let config = AdqConfig {
        max_iterations: 2,
        max_epochs_per_iteration: 4,
        min_epochs_per_iteration: 2,
        batch_size: 12,
        baseline_epochs: 6,
        ..AdqConfig::paper_default()
    };
    let mut model = Vgg::tiny(3, 8, 4, 21);
    AdQuantizer::new(config).run(&mut model, &train, &test);
    (model, train, test)
}

/// A smaller task trained with the fast schedule, for any model family.
fn fast_trained<M: QuantModel>(mut model: M) -> (M, Dataset) {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(12, 6)
        .generate();
    let config = AdqConfig {
        max_iterations: 2,
        max_epochs_per_iteration: 4,
        min_epochs_per_iteration: 2,
        batch_size: 12,
        ..AdqConfig::fast()
    };
    AdQuantizer::new(config).run(&mut model, &train, &test);
    (model, test)
}

/// The integer engine's logits must pick the same class as the trained
/// model's fake-quantized forward pass for every sample of the full eval
/// batch.
#[test]
fn compiled_model_matches_float_lowering_argmax_for_argmax() {
    let (mut model, train, test) = trained_task();

    let compiled = CompiledVgg::compile(&model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let float_logits = model.forward(&test.images, false);
    let int_logits = compiled.run(&test.images);
    assert_eq!(float_logits.dims(), int_logits.dims());
    assert!(int_logits.data().iter().all(|v| v.is_finite()));

    let want = argmax_rows(&float_logits);
    let got = argmax_rows(&int_logits);
    let agree = want.iter().zip(&got).filter(|(a, b)| a == b).count();
    assert_eq!(
        agree,
        test.len(),
        "integer engine disagreed with the float forward on {} of {} eval samples \
         (float {want:?} vs int {got:?})",
        test.len() - agree,
        test.len()
    );
}

/// The compiled layers must execute at the legalized hardware precision
/// of the bit-widths the model was trained at, in MAC-table order.
#[test]
fn lowerings_agree_on_hardware_precisions() {
    let (model, train, _) = trained_task();
    let compiled = CompiledVgg::compile(&model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let trained: Vec<HwPrecision> = model
        .layer_stats()
        .iter()
        .map(|s| HwPrecision::legalize(s.bits.unwrap_or(BitWidth::SIXTEEN)))
        .collect();
    assert_eq!(compiled.precisions(), trained);
}

/// At 16 bits the quantization grid is ~4 decimal digits finer than the
/// logit magnitudes, so the BN-folded integer datapath must reproduce the
/// float fake-quantized forward elementwise — a larger gap means the
/// lowering itself (folding, weight quantization, calibration) is wrong,
/// not rounding.
#[test]
fn sixteen_bit_compiled_logits_match_the_float_forward() {
    let (mut model, test) = fast_trained(Vgg::tiny(3, 8, 4, 3));
    for i in 0..model.layer_count() {
        model.set_bits_of(i, Some(BitWidth::SIXTEEN));
    }
    let float_logits = model.forward(&test.images, false);
    let compiled = CompiledVgg::compile(&model, &test.images, CompileOptions::default())
        .expect("trained model lowers");
    let logits = compiled.run(&test.images);
    assert_eq!(logits.dims(), float_logits.dims());
    let scale = float_logits
        .data()
        .iter()
        .fold(1.0f32, |m, &v| m.max(v.abs()));
    for (i, (&got, &want)) in logits.data().iter().zip(float_logits.data()).enumerate() {
        assert!(
            (got - want).abs() <= 0.02 * scale,
            "logit {i}: integer {got} vs float {want} (scale {scale})"
        );
    }
}

/// A trained ResNet compiled by the same engine — residual junctions with
/// the skip branch quantized at the destination precision (Fig 2) — must
/// classify like its float forward on most eval samples.
#[test]
fn compiled_resnet_agrees_with_float_forward() {
    let (mut model, test) = fast_trained(ResNet::tiny(3, 8, 4, 5));
    let float_logits = model.forward(&test.images, false);
    let compiled = CompiledResNet::compile(&model, &test.images, CompileOptions::default())
        .expect("trained model lowers");
    let logits = compiled.run(&test.images);
    assert_eq!(logits.dims(), float_logits.dims());
    assert!(compiled.mac_table().iter().all(|&(_, macs)| macs > 0));
    let (want, got) = (argmax_rows(&float_logits), argmax_rows(&logits));
    let agree = want.iter().zip(&got).filter(|(a, b)| a == b).count() as f64 / test.len() as f64;
    assert!(agree >= 0.6, "integer/float agreement only {agree}");
}
