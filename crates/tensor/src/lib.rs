//! # actcomp-tensor
//!
//! A small, dense, row-major `f32` tensor library — the numerical substrate
//! of the `actcomp` workspace (a reproduction of *"Does Compressing
//! Activations Help Model Parallel Training?"*, MLSys 2024).
//!
//! The paper's accuracy experiments require a real training stack: forward
//! and backward passes through Transformer encoders with compression
//! operators spliced into the model-parallel boundaries. This crate provides
//! exactly the operations that stack needs:
//!
//! - [`Tensor`]: contiguous storage, elementwise algebra, reductions,
//!   slicing/concatenation along rows and columns (the tensor-parallel
//!   sharding primitives),
//! - blocked, register-tiled matmul kernels ([`kernels`]) including
//!   transpose-free `AᵀB` / `ABᵀ` variants ([`Tensor::matmul_tn`],
//!   [`Tensor::matmul_nt`]) for backprop, threaded via [`pool`]
//!   (`ACTCOMP_THREADS`) and fed scratch by a reusable [`Workspace`],
//! - [`ops`]: softmax / GELU / layer-norm statistics with derivatives,
//! - [`attention`]: multi-head attention forward and backward over head
//!   windows of the Q/K/V activations, on the GEMM micro-kernels,
//! - [`graph`] / [`fuse`] / [`plan`]: a small op-graph IR with
//!   GEMM-epilogue fusion and automatic workspace planning — layers emit
//!   graph segments and execute [`plan::CompiledPlan`]s instead of
//!   hand-threading scratch buffers,
//! - [`linalg`]: a Jacobi SVD for the paper's Figure 2 low-rank analysis,
//! - [`init`]: seeded initializers so every experiment is reproducible.
//!
//! # Example
//!
//! ```
//! use actcomp_tensor::{Tensor, init};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let x = init::randn(&mut rng, [4, 16], 1.0);
//! let w = init::xavier_uniform(&mut rng, 16, 8);
//! let y = x.matmul(&w).gelu();
//! assert_eq!(y.dims(), &[4, 8]);
//! ```

#![warn(missing_docs)]

mod shape;
mod tensor;

pub mod attention;
pub mod fuse;
pub mod graph;
pub mod init;
pub mod kernels;
pub mod linalg;
pub mod ops;
pub mod plan;
pub mod pool;
pub mod workspace;

mod matmul;

pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;
