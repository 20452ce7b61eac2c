//! Real CPU kernels for the functional execution plane.

pub mod activation;
pub mod attention;
pub mod collective;
pub mod conv;
pub mod elementwise;
pub mod embedding;
pub mod linalg;
pub mod norm;
pub mod reduce;
pub mod shape_ops;

pub use activation::{gelu, relu, sigmoid, silu, softmax_lastdim};
pub use attention::{
    attention, multi_head_attention, multi_head_attention_on, ATTENTION_PAR_MIN_FLOPS,
};
pub use collective::{all_gather, all_reduce_sum};
pub use conv::{
    conv2d, conv2d_on, global_avg_pool, pool2d, PoolMode, CONV_PAR_MIN_MACS, CONV_SIMD_MIN_MACS,
};
pub use elementwise::{add, add_bias, mul, scale, sub};
pub use embedding::{gather_rows, gather_sum};
pub use linalg::{
    matmul, matmul_acc, matmul_on, matmul_scalar, tier_for_flops, transpose2d,
    MATMUL_BLOCK_MIN_FLOPS, MATMUL_PAR_MIN_FLOPS,
};
pub use norm::{batch_norm_2d, layer_norm, rms_norm};
pub use reduce::{argmax_lastdim, max_lastdim, mean_lastdim, sum_lastdim};
pub use shape_ops::{concat, narrow, select};
