//! End-to-end model simulations for the paper's evaluation (§5.1–§5.2).
//!
//! Six models (Switch Transformer, Swin-MoE, OPT, BERT, Longformer,
//! Museformer) are executed analytically — layer by layer, operator by
//! operator — under each framework's execution strategy:
//!
//! | Framework | strategy modelled |
//! |---|---|
//! | PyTorch | padded batches, sequential per-expert MoE loop |
//! | PyTorch-S | best sparse backend (cuSPARSE/Sputnik/Triton) + per-batch format conversion |
//! | Tutel | GShard-style einsum dispatch, capacity = max expert load |
//! | DeepSpeed | fused inference kernels, scatter dispatch, capacity = max expert load |
//! | MegaBlocks | block-sparse grouped expert GEMM (fp16), token regrouping |
//! | TurboTransformers | length-bucketed re-batching, fused kernels |
//! | Longformer-S | pattern-specialised banded attention with data rearrangement |
//! | TVM | ahead-of-time tuned dense kernels (no dynamic-shape reuse) |
//! | PIT | padding-free token GEMMs, fused sparse MoE, micro-tile sparse attention, activation-sparse FFN |
//!
//! Latency comes from the shared `pit-gpusim` cost model; memory from its
//! tracker; numeric correctness of the underlying kernels is validated in
//! `pit-core` (the layers here never invent math of their own — every
//! operator maps onto a kernel-cost function exercised by real-compute
//! tests at small scale).

pub mod configs;
pub mod decode;
pub mod engine;
pub mod inference;
pub mod moe;
pub mod training;

pub use configs::{AttnKind, ModelConfig, MoeConfig};
pub use decode::{run_pass, run_step, DecodeSlot, KvWrite, StepShape, KV_MICROTILE_ROWS};
pub use engine::{categorize_label, CostCategory, CostTally, Engine, Framework};
pub use inference::{run_inference, RunResult};
