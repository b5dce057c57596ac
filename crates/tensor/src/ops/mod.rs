//! Tensor kernels: matmul, direct 3×3 convolution, elementwise arithmetic,
//! reductions, conv geometry.

pub mod conv3x3;
pub mod elementwise;
pub mod gemm;
pub mod im2col;
pub mod matmul;
pub mod reduce;

pub use elementwise::{add, add_assign, axpy, hadamard, scale, sub};
pub use gemm::{Epilogue, GemmStats, GemmWorkspace, KernelTier, Layout};
pub use im2col::{col2im_into, im2col_into, Conv2dGeom};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_with, matmul_at_b, matmul_at_b_into, matmul_at_b_with,
    matmul_bias, matmul_bias_with, matmul_with,
};
pub use reduce::{argmax_rows, col_sums, max, mean, row_sums, sum};
