//! Deployment: compile an AD-quantized model onto the integer engine (BN
//! folding + weight quantization + frozen activation calibration + integer
//! MACs), verify it agrees with the floating-point training-time
//! simulation, and price its MAC table on the PIM accelerator (Table IV).
//!
//! Run with: `cargo run --release --example integer_deployment`

use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::infer::{CompileOptions, CompiledVgg};
use adq::nn::{accuracy, QuantModel, Vgg};
use adq::pim::PimEnergyModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(24, 10)
        .with_noise(0.7)
        .generate();

    // train with in-training AD quantization
    let mut model = Vgg::small(3, 16, 10, 33);
    let outcome = AdQuantizer::new(AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 6,
        min_epochs_per_iteration: 3,
        batch_size: 24,
        ..AdqConfig::paper_default()
    })
    .run(&mut model, &train, &test);
    println!(
        "trained mixed-precision model: bits {:?}",
        outcome
            .final_bits()
            .iter()
            .map(|b| b.map_or(32, |b| b.get()))
            .collect::<Vec<_>>()
    );

    // float (fake-quantized) reference
    let float_logits = model.forward(&test.images, false);
    let float_acc = accuracy(&float_logits, &test.labels);

    // integer deployment, calibrated on the training set
    let compiled = CompiledVgg::compile(&model, &train.images, CompileOptions::default())?;
    let int_logits = compiled.run(&test.images);
    let int_acc = accuracy(&int_logits, &test.labels);
    let agreement = (0..test.len())
        .filter(|&i| int_logits.index_axis0(i).argmax() == float_logits.index_axis0(i).argmax())
        .count() as f64
        / test.len() as f64;

    // price the per-image MAC table for the test-set pass: each k-bit MAC
    // is k² 1-bit cell ops on the array, and k² − 1 shift-adds merge them
    let pim = PimEnergyModel::paper_table4();
    let (mut macs, mut cell_ops, mut energy_uj) = (0u64, 0u64, 0.0);
    for &(precision, per_image) in compiled.mac_table() {
        let layer_macs = per_image * test.len() as u64;
        let k = u64::from(precision.bits());
        macs += layer_macs;
        cell_ops += layer_macs * k * k;
        energy_uj += pim.macs_uj(layer_macs, precision);
    }
    let shift_adds = cell_ops - macs;

    println!("\nfloat (fake-quant) accuracy : {:.1}%", 100.0 * float_acc);
    println!("integer (deployed) accuracy : {:.1}%", 100.0 * int_acc);
    println!("classification agreement    : {:.1}%", 100.0 * agreement);
    println!(
        "\naccelerator cost of the test-set pass ({} images):",
        test.len()
    );
    println!("  MACs          : {macs}");
    println!("  1-bit cell ops: {cell_ops}");
    println!("  shift-adds    : {shift_adds}");
    println!("  energy        : {energy_uj:.4} uJ (Table IV model)");
    println!(
        "  per-layer precisions: {:?}",
        compiled
            .precisions()
            .iter()
            .map(|p| p.bits())
            .collect::<Vec<_>>()
    );
    Ok(())
}
