//! The lenient lowering's `infer.compile.unquantized_fallback` counter.
//!
//! The counter is process-global and every lenient compile of an
//! unquantized model moves it, so this test lives alone in its own test
//! binary: no sibling test can bump the counter between the two reads.

use adq_infer::{CompileOptions, CompiledVgg};
use adq_nn::Vgg;
use adq_quant::HwPrecision;
use adq_tensor::init;

#[test]
fn lenient_mode_counts_fallbacks() {
    let model = Vgg::tiny(3, 8, 4, 8); // no bits assigned
    let mut r = init::rng(3);
    let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
    let counter = adq_telemetry::metrics::global().counter("infer.compile.unquantized_fallback");
    let before = counter.get();
    let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
    // 3 convs + head all fell back
    assert_eq!(counter.get() - before, 4);
    assert!(compiled.precisions().iter().all(|&p| p == HwPrecision::B16));
}
