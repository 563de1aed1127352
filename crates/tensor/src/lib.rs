//! # etalumis-tensor
//!
//! The dense f32 tensor substrate underneath the etalumis-rs neural network
//! stack — the from-scratch stand-in for the PyTorch + MKL-DNN layer the
//! paper optimizes in §4.4.2.
//!
//! * [`Tensor`] — row-major dense tensors with elementwise ops.
//! * [`gemm`] — blocked matrix products (forward, `A·Bᵀ`, `Aᵀ·B`) on the
//!   dispatched micro-kernels, split over the resident [`pool`] threads
//!   above a size threshold, plus pre-packed weight panels
//!   ([`gemm::pack_weights`]) for batch-1 inference. They power the LSTM and
//!   dense layers.
//! * [`conv`] — direct 3D convolution in two flavours: plain NCDHW
//!   ([`conv::conv3d_naive`]) and the channel-blocked NCDHW8c layout with an
//!   8×8 micro-kernel ([`conv::conv3d_blocked`]) that reproduces the
//!   MKL-DNN vectorization strategy (the paper's 8× Conv3D kernel win),
//!   plus max pooling and all backward kernels.
//! * [`activations`] — ReLU/sigmoid/tanh/softmax/softplus with derivatives.
//! * [`simd`] — the runtime-dispatched micro-kernel backend: AVX2+FMA via
//!   `std::arch` with a bit-identical 8-lane scalar fallback.
//! * [`pool`] — resident kernel threads with deterministic fixed chunking
//!   (parallel results are a pure function of shape, never thread count).
//! * [`flops`] — analytic flop accounting used to report Gflop/s in the
//!   Table 2 reproduction.

pub mod activations;
pub mod conv;
pub mod flops;
pub mod gemm;
pub mod pool;
pub mod simd;
pub mod tensor;

pub use conv::Conv3dSpec;
pub use tensor::Tensor;
