//! Dense `f32` tensors for the `adq` workspace.
//!
//! This crate is the lowest substrate of the reproduction of *"Activation
//! Density based Mixed-Precision Quantization for Energy Efficient Neural
//! Networks"* (DATE 2021). It provides exactly what the neural-network,
//! quantization and hardware-model layers above it need:
//!
//! * [`Tensor`] — an owned, row-major, arbitrary-rank `f32` tensor with
//!   shape-checked constructors and NCHW convenience accessors,
//! * [`matmul`] — a matrix multiply that routes large products through a
//!   cache-blocked, panel-packed GEMM kernel (the training hot loop),
//! * [`im2col`]/[`col2im`] — lowering of 2-D convolutions to matrix
//!   multiplies and the matching gradient scatter,
//! * [`init`] — deterministic, seedable weight initialisers.
//!
//! # Example
//!
//! ```
//! use adq_tensor::Tensor;
//!
//! # fn main() -> Result<(), adq_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = adq_tensor::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

mod gemm;
mod im2col;
mod matmul;
mod ops;
mod shape;
mod simd;
mod tensor;

pub mod dispatch;
pub mod init;
pub mod plan;

pub use gemm::{gemm_nn, gemm_nt, gemm_tn, KC, MC, MR, NC, NR};
pub use im2col::{col2im, im2col, Conv2dGeom};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b, matmul_at_b_naive, matmul_naive,
};
pub use shape::ShapeError;
pub use tensor::Tensor;
