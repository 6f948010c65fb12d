//! Integration tests of the energy pipeline: paper presets → analytical
//! (Table I) and PIM (Table IV) models, cross-checked.

use adq::core::builders::{network_spec_from_stats, pim_mappings_from_spec};
use adq::core::paper;
use adq::energy::EnergyModel;
use adq::infer::{CompileOptions, CompiledVgg};
use adq::nn::{QuantModel, Vgg};
use adq::pim::{NetworkEnergyReport, PimEnergyModel};
use adq::quant::BitWidth;
use adq::tensor::init;

#[test]
fn table5_baseline_energies_reproduce() {
    let model = PimEnergyModel::paper_table4();
    // VGG19 baseline: paper prints 110.154 uJ
    let vgg = paper::vgg19_baseline(32, 10, 16);
    let vgg_report = NetworkEnergyReport::new("vgg", pim_mappings_from_spec(&vgg), &model);
    assert!(
        (vgg_report.total_uj() - 110.154).abs() < 0.2,
        "VGG19 baseline {} uJ",
        vgg_report.total_uj()
    );
    // ResNet18 baseline: paper prints 159.501 uJ; our exact CIFAR geometry
    // gives 153.7 uJ (3.7% below — the paper's stem/head variant is not
    // fully specified)
    let resnet = paper::resnet18_baseline(32, 100, 16);
    let resnet_report = NetworkEnergyReport::new("resnet", pim_mappings_from_spec(&resnet), &model);
    assert!(
        (resnet_report.total_uj() - 159.501).abs() < 10.0,
        "ResNet18 baseline {} uJ",
        resnet_report.total_uj()
    );
}

#[test]
fn quantization_only_orderings_hold_on_both_models() {
    // baseline > quantized on both hardware models, for both networks
    let analytical = EnergyModel::paper_45nm();
    let pim = PimEnergyModel::paper_table4();

    let cases = [
        (
            paper::vgg19_baseline(32, 10, 16),
            paper::vgg19_spec(
                "vgg-q",
                32,
                10,
                &paper::TABLE2A_ITER2_BITS,
                &paper::VGG19_CHANNELS,
                &[],
            ),
        ),
        (
            paper::resnet18_baseline(32, 100, 16),
            paper::resnet18_spec(
                "resnet-q",
                32,
                100,
                &paper::TABLE2B_ITER3_BITS,
                &paper::RESNET18_CHANNELS,
            ),
        ),
    ];
    for (base, quant) in &cases {
        assert!(quant.efficiency_vs(base, &analytical) > 1.0);
        let base_r = NetworkEnergyReport::new("b", pim_mappings_from_spec(base), &pim);
        let quant_r = NetworkEnergyReport::new("q", pim_mappings_from_spec(quant), &pim);
        assert!(quant_r.reduction_vs(&base_r) > 1.0);
    }
}

#[test]
fn pruning_beats_quantization_only_by_an_order_of_magnitude() {
    // the central Table III vs Table II comparison
    let analytical = EnergyModel::paper_45nm();
    let base = paper::vgg19_baseline(32, 10, 16);
    let quant_only = paper::vgg19_spec(
        "q",
        32,
        10,
        &paper::TABLE2A_ITER2_BITS,
        &paper::VGG19_CHANNELS,
        &[],
    );
    let pruned = paper::vgg19_spec(
        "pq",
        32,
        10,
        &paper::TABLE3A_ITER2_BITS,
        &paper::TABLE3A_ITER2_CHANNELS,
        &[],
    );
    let eff_q = quant_only.efficiency_vs(&base, &analytical);
    let eff_pq = pruned.efficiency_vs(&base, &analytical);
    assert!(
        eff_pq > 10.0 * eff_q,
        "pruning should add an order of magnitude: {eff_q}x vs {eff_pq}x"
    );
}

#[test]
fn tinyimagenet_iterations_monotonically_improve() {
    // Table II (c): efficiency rises 2.73x -> 4.14x -> 4.50x across iters
    let analytical = EnergyModel::paper_45nm();
    let base = paper::resnet18_baseline(64, 200, 32);
    let effs: Vec<f64> = [
        &paper::TABLE2C_ITER2_BITS,
        &paper::TABLE2C_ITER3_BITS,
        &paper::TABLE2C_ITER4_BITS,
    ]
    .iter()
    .map(|bits| {
        paper::resnet18_spec("it", 64, 200, *bits, &paper::RESNET18_CHANNELS)
            .efficiency_vs(&base, &analytical)
    })
    .collect();
    assert!(
        effs.windows(2).all(|w| w[1] >= w[0] * 0.99),
        "efficiencies not monotone: {effs:?}"
    );
}

#[test]
fn dynamic_model_specs_agree_with_direct_construction() {
    // a live model costed via layer_stats must match an equivalent
    // hand-built spec
    let mut model = Vgg::tiny(3, 8, 4, 1);
    for i in 0..model.layer_count() {
        model.set_bits_of(i, Some(BitWidth::new(8).expect("valid")));
    }
    let spec = network_spec_from_stats("vgg-tiny", &model.layer_stats(), BitWidth::SIXTEEN);
    // 3 convs + fc
    assert_eq!(spec.layers().len(), 4);
    let stats = model.layer_stats();
    for (layer, stat) in spec.layers().iter().zip(&stats) {
        assert_eq!(layer.bits(), stat.bits.expect("all set"));
    }
    // MAC counts are consistent with the conv geometry
    let first = &spec.layers()[0];
    assert_eq!(first.mac_count(), 8 * 8 * 3 * 9 * 8);
}

#[test]
fn analytical_vs_pim_efficiency_gap_is_reported() {
    // §V-B: the two models disagree on *how much* quantization helps;
    // both must agree on the direction, and the gap must be material
    let analytical = EnergyModel::paper_45nm();
    let pim = PimEnergyModel::paper_table4();
    let base = paper::vgg19_baseline(32, 10, 16);
    let quant = paper::vgg19_spec(
        "q",
        32,
        10,
        &paper::TABLE2A_ITER2_BITS,
        &paper::VGG19_CHANNELS,
        &[],
    );
    let eff_analytical = quant.efficiency_vs(&base, &analytical);
    let base_r = NetworkEnergyReport::new("b", pim_mappings_from_spec(&base), &pim);
    let quant_r = NetworkEnergyReport::new("q", pim_mappings_from_spec(&quant), &pim);
    let eff_pim = quant_r.reduction_vs(&base_r);
    assert!(eff_analytical > 1.0 && eff_pim > 1.0);
    let gap = (eff_analytical / eff_pim).max(eff_pim / eff_analytical);
    assert!(gap > 1.5, "models should disagree materially, gap {gap}");
}

/// Priced on Table IV, a compiled all-2-bit model costs less energy than
/// the same geometry compiled at 16 bits, with identical MAC counts.
#[test]
fn lower_precision_deployment_costs_less_energy() {
    let pim = PimEnergyModel::paper_table4();
    let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut init::rng(3));
    let price = |bits: u32| {
        let mut model = Vgg::tiny(3, 8, 4, 3);
        for i in 0..model.layer_count() {
            model.set_bits_of(i, Some(BitWidth::new(bits).expect("valid width")));
        }
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default())
            .expect("finite fresh weights");
        let table = compiled.mac_table();
        let macs: u64 = table.iter().map(|&(_, m)| m).sum();
        let energy_uj: f64 = table.iter().map(|&(p, m)| pim.macs_uj(m, p)).sum();
        (macs, energy_uj)
    };
    let (wide_macs, wide_uj) = price(16);
    let (narrow_macs, narrow_uj) = price(2);
    assert_eq!(narrow_macs, wide_macs);
    assert!(
        narrow_uj < wide_uj,
        "2-bit {narrow_uj} uJ vs 16-bit {wide_uj} uJ"
    );
}
