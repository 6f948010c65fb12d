//! Lowering a trained [`Vgg`] or [`ResNet`] into a self-contained
//! [`CompiledVgg`] / [`CompiledResNet`]: BN-folded weights quantized at
//! each layer's trained bit-width, packed into the bit-width's storage
//! container, plus the frozen requantization parameters the integer
//! kernels need between layers.
//!
//! This is the one integer lowering of the repository: every layer runs
//! the datapath of the paper's PIM accelerator (§V) as real integer
//! arithmetic through [`crate::qgemm`]. For uniform affine quantizers
//! `x = x_min + c·s`,
//!
//! ```text
//! Σ fq(w)·fq(a) = s_w·s_a·Σ c_w·c_a
//!               + w_min·s_a·Σ c_a + a_min·s_w·Σ c_w + n·w_min·a_min
//! ```
//!
//! so each output needs one wide integer dot product (the GEMM) plus the
//! cheap per-row code sums [`PackedMatrix`] precomputes. Convolution
//! padding is quantized like any other activation (its code is
//! `quantize(0.0)`, the zero point), so `n` is the full fan-in — the
//! convention of real integer engines, which pad the code matrix with the
//! zero point rather than skipping taps.
//!
//! ResNet junctions run on dequantized values (the accelerator's
//! shift-accumulator outputs): per Fig 2 of the paper the skip branch
//! passes through a frozen quantizer at the junction bit-width, and the
//! ReLU'd sum is encoded into the next layer's code space.
//!
//! Activation quantizers are **calibrated post-training**: compilation
//! runs a calibration batch through the integer engine itself, fits each
//! layer's input range at the carried precision, and freezes it. This
//! replaces the per-batch range fitting the training-time simulation uses
//! — a server cannot re-fit ranges per request batch without making
//! results batch-composition-dependent.
//!
//! Each compiled model also carries a per-image MAC table: one
//! `(HwPrecision, MACs)` entry per datapath layer, counting valid
//! (non-padding) taps, computed once from the geometry. `adq-pim`'s
//! `PimEnergyModel::macs_uj` prices it into accelerator energy.

use adq_nn::{ConvBlock, GlobalAvgPool, LinearHead, MaxPool2d, QuantModel, ResNet, Vgg};
use adq_quant::{BitWidth, Encoder, HwPrecision, QuantError, Quantizer};
use adq_telemetry::metrics;
use adq_tensor::{Conv2dGeom, Tensor};

use crate::qgemm::{qgemm, Container, PackedMatrix};

/// Why a model could not be lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A layer has no trained bit-width and [`CompileOptions`] forbids the
    /// 16-bit fallback.
    Unquantized {
        /// Name of the offending layer.
        layer: String,
    },
    /// Weight or activation quantization failed (empty / non-finite data).
    Quant(QuantError),
    /// The calibration batch does not match the model's input shape.
    Shape(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unquantized { layer } => {
                write!(f, "layer '{layer}' has no trained bit-width")
            }
            CompileError::Quant(e) => write!(f, "quantization failed: {e}"),
            CompileError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<QuantError> for CompileError {
    fn from(e: QuantError) -> Self {
        CompileError::Quant(e)
    }
}

/// Lowering policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// When `true` (the default), layers without a trained bit-width fall
    /// back to 16-bit, the accelerator's widest mode, and bump the
    /// `infer.compile.unquantized_fallback` counter; when `false` they
    /// fail with [`CompileError::Unquantized`].
    pub allow_unquantized: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            allow_unquantized: true,
        }
    }
}

fn layer_bits(
    name: &str,
    bits: Option<BitWidth>,
    options: CompileOptions,
) -> Result<BitWidth, CompileError> {
    match bits {
        Some(b) => Ok(b),
        None if options.allow_unquantized => {
            metrics::global()
                .counter("infer.compile.unquantized_fallback")
                .inc();
            Ok(BitWidth::SIXTEEN)
        }
        None => Err(CompileError::Unquantized {
            layer: name.to_string(),
        }),
    }
}

/// A frozen activation quantizer at a carried precision; degenerate
/// calibration data falls back to the point range.
fn frozen_act_quantizer(bits: BitWidth, data: &[f32]) -> Quantizer {
    Quantizer::fit(bits, data).unwrap_or_else(|_| Quantizer::new(bits, Default::default()))
}

/// Rejects a calibration batch that is not `[N, channels, hw, hw]`.
fn check_input(calibration: &Tensor, channels: usize, hw: usize) -> Result<(), CompileError> {
    if calibration.rank() == 4 && calibration.dims()[1..] == [channels, hw, hw] {
        return Ok(());
    }
    Err(CompileError::Shape(format!(
        "calibration batch {:?} does not match model input [N, {channels}, {hw}, {hw}]",
        calibration.dims()
    )))
}

fn dims4(t: &Tensor) -> [usize; 4] {
    assert_eq!(t.rank(), 4, "input must be NCHW");
    let d = t.dims();
    [d[0], d[1], d[2], d[3]]
}

/// One lowered convolution layer: packed BN-folded weight codes plus the
/// requantization constants of the affine expansion.
#[derive(Debug, Clone)]
pub struct CompiledConv {
    geom: Conv2dGeom,
    /// Packed weight codes, `[O, I·p·p]`.
    weights: PackedMatrix,
    weight_q: Quantizer,
    /// Frozen quantizer for this layer's *input* activations.
    act_q: Quantizer,
    bias: Vec<f32>,
    container: Container,
    /// Whether the output is ReLU-clamped (a ResNet `conv2` or projection
    /// defers its ReLU to the junction).
    relu: bool,
    /// Whether a 2×2 max-pool follows.
    pool: bool,
}

/// The lowered classifier head.
#[derive(Debug, Clone)]
pub struct CompiledLinear {
    in_features: usize,
    out_features: usize,
    weights: PackedMatrix,
    weight_q: Quantizer,
    act_q: Quantizer,
    bias: Vec<f32>,
    container: Container,
}

/// The container both operands of a layer share.
fn container_for(weight_q: &Quantizer, act_q: &Quantizer) -> Container {
    Container::for_max_code(weight_q.bits().max_code())
        .join(Container::for_max_code(act_q.bits().max_code()))
}

/// Valid (non-padding) kernel taps along one spatial axis of `size`
/// inputs, summed over that axis's output positions.
fn valid_taps(geom: &Conv2dGeom, size: usize) -> u64 {
    (0..geom.output_size(size))
        .map(|o| {
            (0..geom.kernel)
                .filter(|&k| (o * geom.stride + k).wrapping_sub(geom.padding) < size)
                .count() as u64
        })
        .sum()
}

/// One compile pass: the lowering policy plus the per-image MAC table
/// the lowered layers append to, in datapath order.
struct Lowering {
    options: CompileOptions,
    mac_table: Vec<(HwPrecision, u64)>,
}

impl Lowering {
    /// Lowers a trained conv block reading inputs of `dims`: folds its
    /// batch-norm, quantizes at the block's bit-width, and attaches the
    /// frozen input quantizer `act_q`.
    fn conv(
        &mut self,
        block: &ConvBlock,
        act_q: Quantizer,
        dims: [usize; 4],
        relu: bool,
        pool: bool,
    ) -> Result<(CompiledConv, BitWidth), CompileError> {
        let bits = layer_bits(block.name(), block.bits(), self.options)?;
        let (weight, bias) = block.folded_weight_bias();
        let conv = CompiledConv::new(block.geom(), &weight, bias, bits, act_q, relu, pool)?;
        self.mac_table
            .push((HwPrecision::legalize(bits), conv.macs(dims)));
        Ok((conv, bits))
    }

    /// Lowers a classifier head whose input is carried at `carry_bits`,
    /// calibrating its input quantizer on `x`.
    fn head(
        &mut self,
        head: &LinearHead,
        carry_bits: BitWidth,
        x: &Tensor,
    ) -> Result<CompiledLinear, CompileError> {
        let bits = layer_bits(head.name(), head.bits(), self.options)?;
        let linear = head.linear();
        let layer = CompiledLinear::new(
            &linear.weight.value,
            linear.bias.value.data().to_vec(),
            bits,
            frozen_act_quantizer(carry_bits, x.data()),
        )?;
        let macs = (layer.in_features * layer.out_features) as u64;
        self.mac_table.push((HwPrecision::legalize(bits), macs));
        Ok(layer)
    }
}

/// A trained [`Vgg`] lowered to bit-packed integer inference — weights
/// folded, quantized, and packed; activation ranges calibrated and frozen.
/// Self-contained: holds no reference to the training model and is `Send +
/// Sync`, so a server can share it behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledVgg {
    convs: Vec<CompiledConv>,
    head: CompiledLinear,
    mac_table: Vec<(HwPrecision, u64)>,
    classes: usize,
    in_channels: usize,
    input_hw: usize,
}

impl CompiledVgg {
    /// Lowers `model`, calibrating activation ranges on `calibration`
    /// (shape `[N, C, H, W]` matching the model input).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on unquantized layers (strict mode only),
    /// non-finite weights, or a calibration shape mismatch.
    pub fn compile(
        model: &Vgg,
        calibration: &Tensor,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        let in_channels = model.conv_blocks()[0].geom().in_channels;
        let input_hw = model.layer_stats()[0].input_hw;
        check_input(calibration, in_channels, input_hw)?;

        let mut lower = Lowering {
            options,
            mac_table: Vec::new(),
        };
        let mut convs = Vec::new();
        let mut x = calibration.clone();
        // network input is carried at the accelerator's full width
        let mut carry_bits = BitWidth::SIXTEEN;
        for (index, block) in model.conv_blocks().iter().enumerate() {
            let act_q = frozen_act_quantizer(carry_bits, x.data());
            let dims = dims4(&x);
            let (conv, bits) = lower.conv(block, act_q, dims, true, model.pool_after(index))?;
            // calibrate the next layer on this layer's integer output;
            // encoding through the layer's own quantizer is exactly what
            // the serving chain feeds it
            x = conv.run_float(&encode_all(x.data(), &conv.act_q), dims);
            carry_bits = bits;
            convs.push(conv);
        }
        let head = lower.head(model.head(), carry_bits, &x)?;

        Ok(Self {
            convs,
            head,
            mac_table: lower.mac_table,
            classes: model.classes(),
            in_channels,
            input_hw,
        })
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Expected input shape as `(channels, height/width)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.in_channels, self.input_hw)
    }

    /// Flattened input length of one image.
    pub fn input_len(&self) -> usize {
        self.in_channels * self.input_hw * self.input_hw
    }

    /// Per-image MACs of each layer at the precision it executes at,
    /// convs then classifier.
    pub fn mac_table(&self) -> &[(HwPrecision, u64)] {
        &self.mac_table
    }

    /// Hardware precisions the layers execute at, convs then classifier.
    pub fn precisions(&self) -> Vec<HwPrecision> {
        self.mac_table.iter().map(|&(p, _)| p).collect()
    }

    /// Storage containers per layer (diagnostics / size accounting).
    pub fn containers(&self) -> Vec<Container> {
        let mut out: Vec<Container> = self.convs.iter().map(|c| c.container).collect();
        out.push(self.head.container);
        out
    }

    /// Total packed weight bytes across all layers.
    pub fn packed_weight_bytes(&self) -> usize {
        self.convs
            .iter()
            .map(|c| c.weights.packed_bytes())
            .sum::<usize>()
            + self.head.weights.packed_bytes()
    }

    /// Integer-only inference: logits `[N, classes]`.
    ///
    /// The whole network runs as a fused requantization chain — the input
    /// is encoded once, every conv consumes and emits integer codes in
    /// the next layer's code space, and only the head's logits come back
    /// as floats.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[N, C, H, W]` matching the model.
    pub fn run(&self, images: &Tensor) -> Tensor {
        let mut dims = dims4(images);
        let mut codes = encode_all(images.data(), &self.convs[0].act_q);
        for (i, conv) in self.convs.iter().enumerate() {
            let next_q = match self.convs.get(i + 1) {
                Some(next) => &next.act_q,
                None => &self.head.act_q,
            };
            (codes, dims) = conv.run_codes(&codes, dims, &next_q.encoder());
        }
        let [n, c, h, w] = dims;
        self.head.run_codes(&codes, n, c * h * w)
    }
}

/// One lowered residual basic block.
#[derive(Debug, Clone)]
struct CompiledBlock {
    /// Reads the block input at the carried precision.
    conv1: CompiledConv,
    /// Reads `conv1`'s output at `conv1`'s precision; no ReLU.
    conv2: CompiledConv,
    /// 1×1 projection shortcut, reading the same input codes as `conv1`.
    proj: Option<CompiledConv>,
    /// Frozen skip-branch quantizer at the junction bit-width (Fig 2).
    skip_q: Quantizer,
}

/// The skip branch on a block's input codes: the projection, or the
/// input itself dequantized.
fn skip_branch(
    proj: Option<&CompiledConv>,
    in_q: &Quantizer,
    codes: &[u16],
    dims: [usize; 4],
) -> Tensor {
    match proj {
        Some(p) => p.run_float(codes, dims),
        None => {
            let values = codes.iter().map(|&c| in_q.dequantize(c.into())).collect();
            Tensor::from_vec(values, &dims).expect("codes match dims")
        }
    }
}

/// The Fig 2 junction: quantize the skip branch at the destination
/// precision, add it to the main branch, ReLU.
fn junction(skip_q: &Quantizer, mut main: Tensor, mut skip: Tensor) -> Tensor {
    skip_q.fake_quantize_tensor_inplace(&mut skip);
    for (m, &s) in main.data_mut().iter_mut().zip(skip.data()) {
        *m = (*m + s).max(0.0);
    }
    main
}

impl CompiledBlock {
    fn run(&self, x: &Tensor) -> Tensor {
        let dims = dims4(x);
        let codes = encode_all(x.data(), &self.conv1.act_q);
        let (mid, mid_dims) = self
            .conv1
            .run_codes(&codes, dims, &self.conv2.act_q.encoder());
        let main = self.conv2.run_float(&mid, mid_dims);
        let skip = skip_branch(self.proj.as_ref(), &self.conv1.act_q, &codes, dims);
        junction(&self.skip_q, main, skip)
    }
}

/// A trained [`ResNet`] lowered onto the same integer engine as
/// [`CompiledVgg`]. Convolutions consume integer codes; the residual add
/// and ReLU run on dequantized values with the skip branch quantized at
/// the junction bit-width (Fig 2).
#[derive(Debug, Clone)]
pub struct CompiledResNet {
    stem: CompiledConv,
    blocks: Vec<CompiledBlock>,
    head: CompiledLinear,
    mac_table: Vec<(HwPrecision, u64)>,
    classes: usize,
}

impl CompiledResNet {
    /// Lowers `model`, calibrating activation ranges on `calibration`
    /// (shape `[N, C, H, W]` matching the model input). Layers without a
    /// trained bit-width, junctions included, follow
    /// [`CompileOptions::allow_unquantized`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on unquantized layers (strict mode only),
    /// non-finite weights, or a calibration shape mismatch.
    pub fn compile(
        model: &ResNet,
        calibration: &Tensor,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        check_input(
            calibration,
            model.stem().geom().in_channels,
            model.layer_stats()[0].input_hw,
        )?;
        let mut lower = Lowering {
            options,
            mac_table: Vec::new(),
        };
        let dims = dims4(calibration);
        let act_q = frozen_act_quantizer(BitWidth::SIXTEEN, calibration.data());
        let (stem, mut carry_bits) = lower.conv(model.stem(), act_q, dims, true, false)?;
        let mut x = stem.run_float(&encode_all(calibration.data(), &stem.act_q), dims);

        let mut blocks = Vec::new();
        for index in 0..model.block_count() {
            let view = model.block_view(index);
            let dims = dims4(&x);
            let in_q = frozen_act_quantizer(carry_bits, x.data());
            let codes = encode_all(x.data(), &in_q);
            let (conv1, conv1_bits) = lower.conv(view.conv1, in_q, dims, true, false)?;
            let mid = conv1.run_float(&codes, dims);
            let mid_q = frozen_act_quantizer(conv1_bits, mid.data());
            let (conv2, _) = lower.conv(view.conv2, mid_q, dims4(&mid), false, false)?;
            let proj = view.proj.map(|p| lower.conv(p, in_q, dims, false, false));
            let proj = proj.transpose()?.map(|(conv, _)| conv);
            let junction_name = view.conv2.name().replace(".conv2", ".junction");
            let junction_bits = layer_bits(&junction_name, view.junction_bits, options)?;

            let main = conv2.run_float(&encode_all(mid.data(), &conv2.act_q), dims4(&mid));
            let skip = skip_branch(proj.as_ref(), &in_q, &codes, dims);
            let skip_q = frozen_act_quantizer(junction_bits, skip.data());
            x = junction(&skip_q, main, skip);
            carry_bits = junction_bits;
            blocks.push(CompiledBlock {
                conv1,
                conv2,
                proj,
                skip_q,
            });
        }
        let pooled = GlobalAvgPool::new().forward(&x);
        let head = lower.head(model.head(), carry_bits, &pooled)?;

        Ok(Self {
            stem,
            blocks,
            head,
            mac_table: lower.mac_table,
            classes: model.classes(),
        })
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-image MACs of each datapath layer at the precision it executes
    /// at: stem, then per block conv1, conv2 and the projection if any,
    /// then the classifier.
    pub fn mac_table(&self) -> &[(HwPrecision, u64)] {
        &self.mac_table
    }

    /// Hardware precisions of the datapath layers, in
    /// [`CompiledResNet::mac_table`] order.
    pub fn precisions(&self) -> Vec<HwPrecision> {
        self.mac_table.iter().map(|&(p, _)| p).collect()
    }

    /// Integer inference: logits `[N, classes]`.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[N, C, H, W]` matching the model.
    pub fn run(&self, images: &Tensor) -> Tensor {
        let dims = dims4(images);
        let mut x = self
            .stem
            .run_float(&encode_all(images.data(), &self.stem.act_q), dims);
        for block in &self.blocks {
            x = block.run(&x);
        }
        let pooled = GlobalAvgPool::new().forward(&x);
        let (n, c) = (pooled.dims()[0], pooled.dims()[1]);
        self.head
            .run_codes(&encode_all(pooled.data(), &self.head.act_q), n, c)
    }
}

/// Encodes a float slice into a `u16` code buffer — the entry into the
/// fused code chain (network input, or calibration activations).
fn encode_all(values: &[f32], quantizer: &Quantizer) -> Vec<u16> {
    let enc = quantizer.encoder();
    values.iter().map(|&v| enc.encode(v) as u16).collect()
}

/// 2×2 stride-2 max-pool on a code tensor. Quantization codes are
/// monotone in the values they represent, so pooling codes is exactly
/// pooling values followed by encoding.
fn maxpool2_codes(codes: &[u16], dims: [usize; 4]) -> (Vec<u16>, [usize; 4]) {
    let [n, c, h, w] = dims;
    assert!(
        h % 2 == 0 && w % 2 == 0,
        "spatial dims {h}x{w} not divisible by pool window 2"
    );
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![0u16; n * c * oh * ow];
    for plane in 0..n * c {
        let src = &codes[plane * h * w..(plane + 1) * h * w];
        let dst = &mut out[plane * oh * ow..(plane + 1) * oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let i0 = (oy * 2) * w + ox * 2;
                dst[oy * ow + ox] = src[i0]
                    .max(src[i0 + 1])
                    .max(src[i0 + w])
                    .max(src[i0 + w + 1]);
            }
        }
    }
    (out, [n, c, oh, ow])
}

impl CompiledConv {
    /// Quantizes a BN-folded weight matrix `[O, I·p·p]` at `bits` and
    /// packs it next to the frozen input quantizer `act_q`. Fails on empty or
    /// non-finite weights.
    fn new(
        geom: Conv2dGeom,
        weight: &Tensor,
        bias: Vec<f32>,
        bits: BitWidth,
        act_q: Quantizer,
        relu: bool,
        pool: bool,
    ) -> Result<Self, QuantError> {
        let weight_q = Quantizer::fit(bits, weight.data())?;
        let container = container_for(&weight_q, &act_q);
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        Ok(Self {
            geom,
            weights: PackedMatrix::pack_rows(
                weight.data(),
                geom.out_channels,
                fan_in,
                &weight_q,
                container,
            ),
            weight_q,
            act_q,
            bias,
            container,
            relu,
            pool,
        })
    }

    /// Per-image MACs on an input of `dims`: one per valid (non-padding)
    /// tap of every output, the work the PIM array executes.
    fn macs(&self, dims: [usize; 4]) -> u64 {
        let g = &self.geom;
        let channels = (g.in_channels * g.out_channels) as u64;
        channels * valid_taps(g, dims[2]) * valid_taps(g, dims[3])
    }

    /// Gathers the transposed `[M, fan_in]` code matrix straight from the
    /// NCHW input codes — integer im2col. Out-of-bounds taps get the
    /// activation quantizer's zero-point code (`quantize(0.0)`), matching
    /// what quantizing a zero-padded float buffer would produce.
    fn gather_cols(&self, codes: &[u16], dims: [usize; 4]) -> PackedMatrix {
        let [n, c, h, w] = dims;
        assert_eq!(
            c, self.geom.in_channels,
            "channel mismatch: input {dims:?} vs geom {:?}",
            self.geom
        );
        let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
        let p = self.geom.kernel;
        let stride = self.geom.stride;
        let padding = self.geom.padding;
        let fan_in = c * p * p;
        let m = n * oh * ow;
        let pad_code = self.act_q.quantize(0.0) as u16;
        let mut staged = vec![0u16; m * fan_in];
        let mut idx = 0;
        for ni in 0..n {
            for ohi in 0..oh {
                for owi in 0..ow {
                    for ci in 0..c {
                        let in_base = (ni * c + ci) * h * w;
                        for kh in 0..p {
                            // underflow wraps far past `h`, folding both
                            // padding sides into one bounds check
                            let ih = (ohi * stride + kh).wrapping_sub(padding);
                            if ih >= h {
                                staged[idx..idx + p].fill(pad_code);
                                idx += p;
                                continue;
                            }
                            let row = in_base + ih * w;
                            for kw in 0..p {
                                let iw = (owi * stride + kw).wrapping_sub(padding);
                                staged[idx] = if iw < w { codes[row + iw] } else { pad_code };
                                idx += 1;
                            }
                        }
                    }
                }
            }
        }
        PackedMatrix::from_codes(&staged, m, fan_in, self.container)
    }

    /// Shared GEMM + requantization core: computes every pre-pool output
    /// as a bias-added (and, for a ReLU layer, clamped) float and hands it
    /// to `sink` with its NCHW index.
    fn forward_into(
        &self,
        codes: &[u16],
        dims: [usize; 4],
        mut sink: impl FnMut(usize, f32),
    ) -> [usize; 4] {
        let [n, _, h, w] = dims;
        let acts = self.gather_cols(codes, dims);
        let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
        let spatial = oh * ow;
        let oc = self.geom.out_channels;
        let fan_in = acts.k();
        // requantization constants of the affine expansion
        let s_w = f64::from(self.weight_q.step());
        let s_a = f64::from(self.act_q.step());
        let w_min = f64::from(self.weight_q.range().min());
        let a_min = f64::from(self.act_q.range().min());
        let taps = fan_in as f64;
        let sum_ca = acts.row_sums();
        let sum_cw = self.weights.row_sums();
        let floor = if self.relu { 0.0 } else { f32::NEG_INFINITY };
        qgemm(&acts, &self.weights, |mi, oi, acc| {
            let value = s_w * s_a * acc as f64
                + w_min * s_a * sum_ca[mi] as f64
                + a_min * s_w * sum_cw[oi] as f64
                + taps * w_min * a_min
                + f64::from(self.bias[oi]);
            let (ni, s) = (mi / spatial, mi % spatial);
            // fused ReLU, delivered in NCHW order
            sink((ni * oc + oi) * spatial + s, (value as f32).max(floor));
        });
        [n, oc, oh, ow]
    }

    /// Serving path: consumes input codes, emits the *next* layer's input
    /// codes directly (fused requantization chain — no float tensor
    /// materializes between layers). Max-pooling runs on codes.
    fn run_codes(
        &self,
        codes: &[u16],
        dims: [usize; 4],
        next_enc: &Encoder,
    ) -> (Vec<u16>, [usize; 4]) {
        let mut out = Vec::new();
        let out_dims = {
            let [n, _, h, w] = dims;
            let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
            out.resize(n * self.geom.out_channels * oh * ow, 0u16);
            self.forward_into(codes, dims, |i, v| out[i] = next_enc.encode(v) as u16)
        };
        if self.pool {
            maxpool2_codes(&out, out_dims)
        } else {
            (out, out_dims)
        }
    }

    /// Float-output path: same integer datapath, but the requantized
    /// activations are kept as floats — so calibration can fit the *next*
    /// layer's quantizer on them before its encoder exists, and a ResNet
    /// junction can add them to its skip branch.
    fn run_float(&self, codes: &[u16], dims: [usize; 4]) -> Tensor {
        let mut staged = Vec::new();
        let out_dims = {
            let [n, _, h, w] = dims;
            let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
            staged.resize(n * self.geom.out_channels * oh * ow, 0f32);
            self.forward_into(codes, dims, |i, v| staged[i] = v)
        };
        let mut out = Tensor::from_vec(staged, &out_dims).expect("sized above");
        if self.pool {
            let mut pool = MaxPool2d::new(2);
            out = pool.forward(&out);
        }
        out
    }
}

impl CompiledLinear {
    /// Quantizes a weight matrix `[out, in]` at `bits` and packs it next
    /// to the frozen input quantizer `act_q`. Fails on empty or
    /// non-finite weights.
    fn new(
        weight: &Tensor,
        bias: Vec<f32>,
        bits: BitWidth,
        act_q: Quantizer,
    ) -> Result<Self, QuantError> {
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        let weight_q = Quantizer::fit(bits, weight.data())?;
        let container = container_for(&weight_q, &act_q);
        Ok(Self {
            in_features,
            out_features,
            weights: PackedMatrix::pack_rows(
                weight.data(),
                out_features,
                in_features,
                &weight_q,
                container,
            ),
            weight_q,
            act_q,
            bias,
            container,
        })
    }

    /// Runs the head on flattened `[N, in]` input codes, producing float
    /// logits — the only float tensor the serving chain materializes.
    fn run_codes(&self, codes: &[u16], n: usize, features: usize) -> Tensor {
        assert_eq!(features, self.in_features, "feature mismatch");
        let acts = PackedMatrix::from_codes(codes, n, self.in_features, self.container);
        let s_w = f64::from(self.weight_q.step());
        let s_a = f64::from(self.act_q.step());
        let w_min = f64::from(self.weight_q.range().min());
        let a_min = f64::from(self.act_q.range().min());
        let taps = self.in_features as f64;
        let sum_ca = acts.row_sums();
        let sum_cw = self.weights.row_sums();
        let mut out = Tensor::zeros(&[n, self.out_features]);
        {
            let o = self.out_features;
            let dst = out.data_mut();
            qgemm(&acts, &self.weights, |ni, oi, acc| {
                dst[ni * o + oi] = (s_w * s_a * acc as f64
                    + w_min * s_a * sum_ca[ni] as f64
                    + a_min * s_w * sum_cw[oi] as f64
                    + taps * w_min * a_min
                    + f64::from(self.bias[oi])) as f32;
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_nn::{Param, QuantModel};
    use adq_tensor::init;

    fn bw(bits: u32) -> BitWidth {
        BitWidth::new(bits).unwrap()
    }

    fn quantized_tiny(bits: &[u32]) -> Vgg {
        let mut model = Vgg::tiny(3, 8, 4, 42);
        for (i, &b) in bits.iter().enumerate() {
            model.set_bits_of(i, Some(bw(b)));
        }
        model
    }

    fn quantized_resnet(bits: u32, seed: u64) -> ResNet {
        let mut model = ResNet::tiny(3, 8, 4, seed);
        for i in 0..model.layer_count() {
            model.set_bits_of(i, Some(bw(bits)));
        }
        model
    }

    #[test]
    fn compile_and_run_shapes() {
        let model = quantized_tiny(&[8, 4, 2, 8]);
        let mut r = init::rng(1);
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        let logits = compiled.run(&images);
        assert_eq!(logits.dims(), &[3, 4]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
        assert_eq!(compiled.precisions().len(), 4);
        assert_eq!(compiled.input_shape(), (3, 8));
        assert_eq!(compiled.input_len(), 3 * 8 * 8);
    }

    #[test]
    fn containers_snap_to_the_hw_grid() {
        let model = quantized_tiny(&[2, 4, 8, 16]);
        let mut r = init::rng(2);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        // first conv reads SIXTEEN-bit network input, so its container is
        // U16 regardless of its 2-bit weights; conv2 reads 2-bit codes
        // with 4-bit weights (Nib); conv3 reads 4-bit with 8-bit (U8);
        // the head reads 8-bit with 16-bit weights (U16)
        use Container::{Nib, U16, U8};
        use HwPrecision::{B16, B2, B4, B8};
        assert_eq!(compiled.containers(), vec![U16, Nib, U8, U16]);
        assert_eq!(compiled.precisions(), vec![B2, B4, B8, B16]);
        assert!(compiled.packed_weight_bytes() > 0);

        // 3-bit layers legalize to 4-bit hardware and 3-bit codes ride
        // the nibble container
        let model = quantized_tiny(&[3, 3, 3, 3]);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        assert_eq!(compiled.precisions(), vec![B4; 4]);
        assert_eq!(compiled.containers(), vec![U16, Nib, Nib, Nib]);
    }

    #[test]
    fn strict_mode_rejects_unquantized_layers() {
        let strict = CompileOptions {
            allow_unquantized: false,
        };
        let model = Vgg::tiny(3, 8, 4, 7); // no bits assigned
        let images = Tensor::zeros(&[1, 3, 8, 8]);
        match CompiledVgg::compile(&model, &images, strict) {
            Err(CompileError::Unquantized { layer }) => assert_eq!(layer, "conv1"),
            other => panic!("expected Unquantized error, got {other:?}"),
        }
        let resnet = ResNet::tiny(3, 8, 4, 31);
        match CompiledResNet::compile(&resnet, &images, strict) {
            Err(CompileError::Unquantized { layer }) => assert_eq!(layer, "stem"),
            other => panic!("expected Unquantized error, got {other:?}"),
        }
        // fully quantized models pass strict mode
        assert!(CompiledVgg::compile(&quantized_tiny(&[4; 4]), &images, strict).is_ok());
        assert!(CompiledResNet::compile(&quantized_resnet(4, 31), &images, strict).is_ok());
    }

    #[test]
    fn non_finite_weights_are_a_typed_error() {
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut init::rng(9));
        let options = CompileOptions::default();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // poison the first layer's weights alone, then every parameter
            for every_param in [false, true] {
                let poison = |model: &mut dyn QuantModel| {
                    model.visit_params(&mut |slot: usize, p: &mut Param| {
                        if every_param || slot == 0 {
                            *p.value.data_mut().last_mut().unwrap() = bad;
                        }
                    })
                };
                let mut vgg = quantized_tiny(&[8, 4, 4, 8]);
                let mut resnet = quantized_resnet(4, 11);
                poison(&mut vgg);
                poison(&mut resnet);
                let vgg = CompiledVgg::compile(&vgg, &images, options);
                let resnet = CompiledResNet::compile(&resnet, &images, options);
                assert!(matches!(vgg, Err(CompileError::Quant(_))), "VGG, {bad}");
                assert!(
                    matches!(resnet, Err(CompileError::Quant(_))),
                    "ResNet, {bad}"
                );
            }
        }
    }

    #[test]
    fn calibration_shape_mismatch_is_a_typed_error() {
        let model = quantized_tiny(&[8, 8, 8, 8]);
        let images = Tensor::zeros(&[1, 3, 16, 16]);
        assert!(matches!(
            CompiledVgg::compile(&model, &images, CompileOptions::default()),
            Err(CompileError::Shape(_))
        ));
        assert!(matches!(
            CompiledResNet::compile(&quantized_resnet(8, 1), &images, CompileOptions::default()),
            Err(CompileError::Shape(_))
        ));
    }

    #[test]
    fn inference_is_deterministic_across_runs() {
        let model = quantized_tiny(&[8, 4, 8, 8]);
        let mut r = init::rng(4);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        let a = compiled.run(&images);
        let b = compiled.run(&images);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_of_one_matches_row_of_batch() {
        // dynamic batching must not change results: running an image alone
        // and inside a batch must produce identical logits, because the
        // quantizers are frozen (not per-batch)
        let model = quantized_tiny(&[8, 4, 2, 8]);
        let resnet = quantized_resnet(4, 5);
        let mut r = init::rng(5);
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        let compiled_resnet =
            CompiledResNet::compile(&resnet, &images, CompileOptions::default()).unwrap();
        let batched = [compiled.run(&images), compiled_resnet.run(&images)];
        for i in 0..3 {
            let one = images.index_axis0(i).reshaped(&[1, 3, 8, 8]).unwrap();
            let solo = [compiled.run(&one), compiled_resnet.run(&one)];
            for (solo, batched) in solo.iter().zip(&batched) {
                assert_eq!(
                    solo.data(),
                    &batched.data()[i * 4..(i + 1) * 4],
                    "image {i}"
                );
            }
        }
    }

    /// f64 reference: fake-quantized weights times fake-quantized input
    /// activations plus bias, out-of-bounds taps padded with `fq(0.0)`,
    /// the zero point; outputs in NCHW order.
    fn reference_conv(conv: &CompiledConv, weight: &Tensor, input: &Tensor) -> Vec<f64> {
        let (g, [n, c, h, w]) = (conv.geom, dims4(input));
        let (oc, oh, ow, p) = (g.out_channels, g.output_size(h), g.output_size(w), g.kernel);
        let act = |ni, ci, iy: usize, ix: usize| {
            let v = if iy < h && ix < w {
                input.at4(ni, ci, iy, ix)
            } else {
                0.0
            };
            f64::from(conv.act_q.fake_quantize(v))
        };
        let wq = |oi, i| f64::from(conv.weight_q.fake_quantize(weight.at2(oi, i)));
        (0..n * oc * oh * ow)
            .map(|idx| {
                let (ni, oi) = (idx / (oc * oh * ow), idx / (oh * ow) % oc);
                let (oy, ox) = (idx / ow % oh, idx % ow);
                let mut acc = f64::from(conv.bias[oi]);
                for (ci, ky, kx) in (0..c * p * p).map(|t| (t / (p * p), t / p % p, t % p)) {
                    let iy = (oy * g.stride + ky).wrapping_sub(g.padding);
                    let ix = (ox * g.stride + kx).wrapping_sub(g.padding);
                    acc += act(ni, ci, iy, ix) * wq(oi, (ci * p + ky) * p + kx);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn conv_layers_match_the_fake_quantized_reference() {
        let mut rng = init::rng(1);
        // padded 3×3, strided padded 3×3, and the strided 1×1 projection
        let geoms = [
            Conv2dGeom::new(2, 3, 3, 1, 1),
            Conv2dGeom::new(2, 3, 3, 2, 1),
            Conv2dGeom::new(2, 3, 1, 2, 0),
        ];
        for bits in [2u32, 4, 8] {
            for geom in geoms {
                let fan_in = geom.in_channels * geom.kernel * geom.kernel;
                let weight = init::normal(&[3, fan_in], 0.0, 0.5, &mut rng);
                let input = init::normal(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
                let act_q = Quantizer::fit(bw(bits), input.data()).unwrap();
                let bias = vec![0.1, -0.2, 0.3];
                let conv =
                    CompiledConv::new(geom, &weight, bias, bw(bits), act_q, false, false).unwrap();
                let got = conv.run_float(&encode_all(input.data(), &act_q), dims4(&input));
                let want = reference_conv(&conv, &weight, &input);
                assert_eq!(got.len(), want.len());
                for (&a, &b) in got.data().iter().zip(&want) {
                    assert!(
                        (f64::from(a) - b).abs() < 1e-3,
                        "bits={bits} {geom:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_layer_matches_the_fake_quantized_reference() {
        let mut rng = init::rng(3);
        for bits in [2u32, 4, 8] {
            let weight = init::normal(&[3, 8], 0.0, 0.5, &mut rng);
            let input = init::normal(&[4, 8], 0.0, 1.0, &mut rng);
            let act_q = Quantizer::fit(bw(bits), input.data()).unwrap();
            let bias = vec![0.5, -0.5, 0.0];
            let layer = CompiledLinear::new(&weight, bias.clone(), bw(bits), act_q).unwrap();
            let got = layer.run_codes(&encode_all(input.data(), &act_q), 4, 8);
            for ni in 0..4 {
                for (oi, &b) in bias.iter().enumerate() {
                    let want: f64 = (0..8)
                        .map(|i| {
                            f64::from(act_q.fake_quantize(input.at2(ni, i)))
                                * f64::from(layer.weight_q.fake_quantize(weight.at2(oi, i)))
                        })
                        .sum::<f64>()
                        + f64::from(b);
                    let got = f64::from(got.at2(ni, oi));
                    assert!((got - want).abs() < 1e-3, "bits={bits}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn mac_table_counts_valid_taps() {
        let model = quantized_tiny(&[8, 4, 4, 8]);
        let images = Tensor::zeros(&[1, 3, 8, 8]);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        // brute force over the first (padded 3×3) layer's output windows
        let geom = model.conv_blocks()[0].geom();
        let (p, size) = (geom.kernel as isize, 8isize);
        let mut taps = 0u64;
        for oy in 0..geom.output_size(8) as isize {
            for ox in 0..geom.output_size(8) as isize {
                for ky in 0..p {
                    for kx in 0..p {
                        let iy = oy * geom.stride as isize + ky - geom.padding as isize;
                        let ix = ox * geom.stride as isize + kx - geom.padding as isize;
                        taps += u64::from((0..size).contains(&iy) && (0..size).contains(&ix));
                    }
                }
            }
        }
        let per_tap = (geom.in_channels * geom.out_channels) as u64;
        assert_eq!(compiled.mac_table()[0], (HwPrecision::B8, taps * per_tap));
        // padding loses taps: fewer than the full 3×3 window everywhere
        assert!(taps < 8 * 8 * 9);
        let head = model.head();
        assert_eq!(
            compiled.mac_table()[3].1,
            (head.in_features() * head.out_features()) as u64
        );
    }

    #[test]
    fn mac_table_is_per_image() {
        // the table is a property of the geometry: calibrating on one image
        // or three gives the same per-image counts, so a batch of N costs
        // exactly N times the table
        let model = quantized_tiny(&[8, 4, 2, 8]);
        let mut r = init::rng(6);
        let one = init::normal(&[1, 3, 8, 8], 0.0, 1.0, &mut r);
        let three = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let a = CompiledVgg::compile(&model, &one, CompileOptions::default()).unwrap();
        let b = CompiledVgg::compile(&model, &three, CompileOptions::default()).unwrap();
        assert_eq!(a.mac_table(), b.mac_table());
        let resnet = quantized_resnet(4, 6);
        let a = CompiledResNet::compile(&resnet, &one, CompileOptions::default()).unwrap();
        let b = CompiledResNet::compile(&resnet, &three, CompileOptions::default()).unwrap();
        assert_eq!(a.mac_table(), b.mac_table());
    }

    #[test]
    fn resnet_lowers_every_datapath_layer() {
        let model = ResNet::tiny(3, 8, 4, 6);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut init::rng(7));
        let compiled = CompiledResNet::compile(&model, &images, CompileOptions::default()).unwrap();
        // stem + block0 (2 convs, identity) + block1 (2 convs + proj) + head
        assert_eq!(compiled.precisions().len(), 1 + 2 + 3 + 1);
        let logits = compiled.run(&images);
        assert_eq!(logits.dims(), &[2, compiled.classes()]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }
}
