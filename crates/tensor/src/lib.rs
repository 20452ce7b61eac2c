//! # genie-tensor — CPU tensor substrate
//!
//! Dense f32 tensors with real kernels (matmul, attention, layer norm,
//! convolution, embedding gathers, …) executed on the CPU. This is Genie's
//! *functional* execution plane: it lets the test suite prove that lazy
//! capture, semantics-aware remote execution, and lineage replay produce
//! numerically identical results to plain eager evaluation — the property
//! the paper's architecture depends on but cannot demonstrate without a
//! concrete executor.
//!
//! Paper-scale models (GPT-J at 12 GB of weights) never materialize data
//! through this crate; they run on the cost-model-driven simulation plane
//! (`genie-netsim` + `genie-backend::sim`). Both planes consume the same
//! SRG.
//!
//! ```
//! use genie_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]);
//! assert_eq!(ops::matmul(&a, &b), a);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: three kinds of place carry a documented
// `#[allow(unsafe_code)]`, everything else stays unsafe-free.
// (1) `pool::Scope::spawn` erases a job's borrow lifetime to queue it:
// sound because `pool::scope` neither returns nor unwinds before every
// job it spawned has run (the join barrier). (2) `simd::on` and
// `simd::rows_on` call the `#[target_feature]` trampolines that
// instantiate the `tanh` and `exp` lanes and the matmul row worker per
// ISA, safe `fn`s that are `unsafe` to call from code compiled without
// the features: sound because each call is behind
// `is_x86_feature_detected!` for every feature it is compiled with.
// (3) `bytes::bytes_of`, on little-endian targets only, reads an f32 or
// i64 slice as its bytes, so a tensor is sent from its own storage:
// sound because neither type has padding, `u8` has alignment 1, and the
// view borrows storage whose `Arc` it holds, which is written only while
// unique (copy-on-write). None is machine-checked (no Miri); `pool_stress.rs`,
// `simd`, `activation` and `bytes` tests exercise them. Nor is any target but
// x86-64 built, in CI or locally:
// the `not(target_arch = "x86_64")` arm of `simd`, where only the
// baseline instantiation exists, and the big-endian arm of `bytes` are
// built and tested by flipping the `cfg`s in a scratch copy (the verify
// skill has the recipe).
#![deny(unsafe_code)]

pub mod arena;
pub mod bytes;
pub mod init;
pub mod ops;
mod par;
pub mod pool;
pub mod quant;
pub mod shape;
mod simd;
pub mod stats;
pub mod tensor;

pub use bytes::LeBytes;
pub use shape::Shape;
pub use tensor::{IndexTensor, Tensor};
