//! Training simulation: OPT fine-tuning (Figure 14) and iterative-pruning
//! sparse training (Figure 15).

use crate::configs::ModelConfig;
use crate::engine::{Engine, Framework};
use crate::inference::RunResult;
use pit_gpusim::{DeviceSpec, KernelStats};
use pit_kernels::baselines::blocksparse;
use pit_tensor::DType;
use pit_workloads::Batch;

/// Expected fraction of `block` tiles that contain at least one non-zero
/// granule, for random `gran`-granular sparsity at the given density.
///
/// When the granule is at least as large as the block the block inherits
/// the granule's state (`p = density`); otherwise `n` independent granules
/// intersect the block and `p = 1 - (1-d)^n`.
pub fn block_coverage(density: f64, gran: (usize, usize), block: (usize, usize)) -> f64 {
    let n = block.0.div_ceil(gran.0) * block.1.div_ceil(gran.1);
    1.0 - (1.0 - density).powi(n.max(1) as i32)
}

/// One forward+backward training step of `cfg` on the given batch.
///
/// The backward pass is modelled as 2× the forward GEMM time (dgrad +
/// wgrad) plus one extra elementwise sweep, the standard 1:2 fwd:bwd FLOP
/// ratio of transformer training. Optimizer state and stored activations
/// are charged to memory.
pub fn run_training_step(
    cfg: &ModelConfig,
    lens: &[usize],
    device: DeviceSpec,
    dtype: DType,
    framework: Framework,
    _seed: u64,
) -> RunResult {
    let mut eng = Engine::new(device, dtype, framework);
    let elem = eng.elem();
    let batch = Batch::padded_to_longest(lens.to_vec());
    let tokens = if framework.is_pit() {
        batch.real_tokens()
    } else if framework == Framework::PyTorchS {
        batch.lens.iter().map(|&l| l.div_ceil(32) * 32).sum()
    } else {
        batch.padded_tokens()
    };

    // Persistent training state: weights + grads (dtype) + fp32 Adam m/v.
    let params = cfg.num_params();
    eng.alloc_persistent(params * elem * 2 + params * 8);

    // Forward (reuse the inference layer structure without the ReLU
    // exploitation — training keeps dense activations for backward).
    forward_layers(&mut eng, cfg, tokens, &batch);

    // Stored activations for backward: per layer, the attention and FFN
    // inputs plus intermediates. DeepSpeed cannot fuse these away during
    // training (§5.2).
    let act_per_layer = 6 * tokens * cfg.hidden * elem;
    eng.alloc_retained(act_per_layer * cfg.layers);

    // Backward: dgrad + wgrad GEMMs (2x forward GEMM time) + one
    // elementwise sweep over activations.
    let bwd = 2.0 * eng.gemm_time_s;
    eng.record(
        "backward.gemms",
        KernelStats {
            latency_s: bwd,
            ..Default::default()
        },
    );
    eng.elementwise("backward.elementwise", cfg.layers * tokens * cfg.hidden, 2);

    // PyTorch-S rebuilds sparse indices for every layer in backward too.
    if framework == Framework::PyTorchS {
        let convert = eng.ctx().latency_of_s("convert");
        eng.host_overhead("backward.convert", convert);
    }

    // Optimizer step: reads grads + m + v, writes weights + m + v.
    eng.elementwise("adam", params, 3);

    let latency_ms = eng.latency_ms();
    let convert_ms = (eng.ctx().latency_of_s("convert") * 1e3).max(0.0);
    RunResult {
        framework: framework.name().to_string(),
        model: cfg.name.clone(),
        latency_ms,
        convert_ms,
        peak_gib: eng.ctx().memory().peak_bytes() as f64 / (1u64 << 30) as f64,
        oom: eng.ctx().memory().oom(),
    }
}

/// The forward layers shared by the training step (dense FFN path).
fn forward_layers(eng: &mut Engine, cfg: &ModelConfig, tokens: usize, batch: &Batch) {
    let elem = eng.elem();
    let sum_sq: f64 = if eng.framework.is_pit() {
        batch.sum_sq_real() as f64
    } else {
        batch.sum_sq_padded() as f64
    };
    eng.elementwise("embed", tokens * cfg.hidden, 1);
    for layer in 0..cfg.layers {
        let p = format!("l{layer}");
        eng.gemm(&format!("{p}.attn.qkv"), tokens, cfg.hidden, 3 * cfg.hidden);
        let score_flops = 2.0 * sum_sq * cfg.hidden as f64;
        eng.gemm_flops(
            &format!("{p}.attn.scores"),
            score_flops,
            sum_sq * cfg.heads as f64 * elem as f64,
        );
        eng.softmax(
            &format!("{p}.attn.softmax"),
            (sum_sq * cfg.heads as f64 / 64.0) as usize,
            64,
        );
        eng.gemm_flops(
            &format!("{p}.attn.context"),
            score_flops,
            sum_sq * cfg.heads as f64 * elem as f64,
        );
        eng.gemm(&format!("{p}.attn.out"), tokens, cfg.hidden, cfg.hidden);
        eng.layernorm(&format!("{p}.ln1"), tokens, cfg.hidden);
        eng.gemm(&format!("{p}.ffn.fc1"), tokens, cfg.hidden, cfg.ffn);
        eng.elementwise(&format!("{p}.ffn.act"), tokens * cfg.ffn, 1);
        eng.gemm(&format!("{p}.ffn.fc2"), tokens, cfg.ffn, cfg.hidden);
        eng.layernorm(&format!("{p}.ln2"), tokens, cfg.hidden);
        // PyTorch-S pays per-layer sparse-format construction.
        if eng.framework == Framework::PyTorchS {
            let rows = batch.padded_tokens();
            let cost = blocksparse::layout_cost(
                eng.cost(),
                rows,
                cfg.hidden,
                32,
                rows.div_ceil(32),
                eng.dtype,
            );
            eng.host_overhead(&format!("{p}.convert"), cost);
        }
        eng.transient_peak(2.0_f64.mul_add(sum_sq, 0.0) as usize * eng.elem());
    }
}

/// One iterative-pruning training step (Figure 15): BERT whose six weight
/// matrices per layer are masked at `sparsity` with `gran` granularity; the
/// mask changes every step, so per-pattern preprocessing cannot amortise.
pub fn run_pruning_step(
    gran: (usize, usize),
    sparsity: f64,
    lens: &[usize],
    device: DeviceSpec,
    framework: Framework,
) -> RunResult {
    let cfg = ModelConfig::bert_base();
    let dtype = DType::F32;
    let mut eng = Engine::new(device, dtype, framework);
    let elem = eng.elem();
    let batch = Batch::padded_to_longest(lens.to_vec());
    let tokens = if framework.is_pit() {
        batch.real_tokens()
    } else {
        batch.padded_tokens()
    };
    let density = 1.0 - sparsity;

    // Fraction of weight-GEMM work each framework actually executes:
    // PyTorch computes densely; PyTorch-S covers the mask with Triton's
    // 32x32 blocks; PIT covers it with (32,1) micro-tiles.
    let work_frac = match framework {
        Framework::PyTorch => 1.0,
        Framework::PyTorchS => block_coverage(density, gran, (32, 32)),
        f if f.is_pit() => block_coverage(density, gran, (32, 1)),
        other => unreachable!("{:?} not part of Figure 15", other),
    };

    // Persistent state: dense weights + grads + Adam (pruning keeps dense
    // copies; only the compute is masked, §5.2).
    let params = cfg.num_params();
    eng.alloc_persistent(params * elem * 2 + params * 8);

    let sum_sq = if framework.is_pit() {
        batch.sum_sq_real() as f64
    } else {
        batch.sum_sq_padded() as f64
    };
    eng.elementwise("embed", tokens * cfg.hidden, 1);
    for layer in 0..cfg.layers {
        let p = format!("l{layer}");
        // Mask regeneration (magnitude threshold) once per step per layer.
        eng.elementwise(&format!("{p}.mask_calc"), cfg.hidden * cfg.ffn, 1);
        // Six masked weight GEMMs: qkv (3), out, fc1, fc2.
        for (name, k, n) in [
            ("qkv", cfg.hidden, 3 * cfg.hidden),
            ("out", cfg.hidden, cfg.hidden),
            ("fc1", cfg.hidden, cfg.ffn),
            ("fc2", cfg.ffn, cfg.hidden),
        ] {
            eng.gemm_k_covered(&format!("{p}.{name}"), tokens, k, n, work_frac);
        }
        eng.gemm_flops(
            &format!("{p}.attn.scores"),
            4.0 * sum_sq * cfg.hidden as f64,
            sum_sq * cfg.heads as f64 * elem as f64,
        );
        eng.softmax(
            &format!("{p}.softmax"),
            (sum_sq * cfg.heads as f64 / 64.0) as usize,
            64,
        );
        eng.layernorm(&format!("{p}.ln"), tokens, cfg.hidden);
        // Index/format construction per layer, every step (the mask moved):
        match framework {
            Framework::PyTorchS => {
                let cost = blocksparse::layout_cost(
                    eng.cost(),
                    cfg.hidden,
                    cfg.ffn,
                    32,
                    ((cfg.hidden / 32) * (cfg.ffn / 32)) / 2,
                    dtype,
                );
                // One layout rebuild per masked weight matrix.
                eng.host_overhead(&format!("{p}.convert"), 4.0 * cost);
            }
            f if f.is_pit() => {
                let scan = eng.cost().scan_pass((cfg.hidden * cfg.ffn / 8) as f64)
                    + eng.cost().index_append(cfg.hidden * cfg.ffn / 32);
                eng.host_overhead(&format!("{p}.pit_index"), 4.0 * scan);
            }
            _ => {}
        }
    }
    // Stored activations + backward at 2x forward GEMM time.
    eng.alloc_retained(4 * tokens * cfg.hidden * elem * cfg.layers);
    let bwd = 2.0 * eng.gemm_time_s;
    eng.record(
        "backward.gemms",
        KernelStats {
            latency_s: bwd,
            ..Default::default()
        },
    );
    if framework == Framework::PyTorchS {
        let convert = eng.ctx().latency_of_s("convert");
        eng.host_overhead("backward.convert", convert);
    }
    eng.elementwise("adam", params, 3);

    RunResult {
        framework: framework.name().to_string(),
        model: format!("BERT-prune-{}x{}", gran.0, gran.1),
        latency_ms: eng.latency_ms(),
        convert_ms: ((eng.ctx().latency_of_s("convert") + eng.ctx().latency_of_s("pit_index"))
            * 1e3)
            .max(0.0),
        peak_gib: eng.ctx().memory().peak_bytes() as f64 / (1u64 << 30) as f64,
        oom: eng.ctx().memory().oom(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_workloads::DatasetSpec;

    #[test]
    fn block_coverage_limits() {
        // Granule == block: coverage equals density.
        assert!((block_coverage(0.1, (32, 32), (32, 32)) - 0.1).abs() < 1e-12);
        // Granule larger than block: still density.
        assert!((block_coverage(0.1, (32, 64), (32, 32)) - 0.1).abs() < 1e-12);
        // Fine granules: coverage approaches 1.
        assert!(block_coverage(0.1, (1, 1), (32, 32)) > 0.99);
        // (32,1) granules in a (32,1) block: exact.
        assert!((block_coverage(0.05, (32, 1), (32, 1)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn opt_training_ordering_matches_figure14() {
        let cfg = ModelConfig::opt("350M");
        let lens = DatasetSpec::alpaca().sample_lengths(8, 1);
        let run = |fw| run_training_step(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F32, fw, 1);
        let pit = run(Framework::Pit);
        let pts = run(Framework::PyTorchS);
        let pt = run(Framework::PyTorch);
        let ds = run(Framework::DeepSpeed);
        assert!(pit.latency_ms < pts.latency_ms);
        assert!(pts.latency_ms < pt.latency_ms);
        // Paper: 1.9-2.4x over PyTorch, 1.6-1.8x over PyTorch-S, 1.8-2.2x
        // over DeepSpeed — PIT leads all three.
        assert!(pit.latency_ms < ds.latency_ms);
        let speedup = pt.latency_ms / pit.latency_ms;
        assert!(speedup > 1.3, "speedup over PyTorch {speedup}");
    }

    #[test]
    fn training_memory_pit_smallest() {
        let cfg = ModelConfig::opt("125M");
        let lens = DatasetSpec::alpaca().sample_lengths(8, 2);
        let pit = run_training_step(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::Pit,
            2,
        );
        let pt = run_training_step(
            &cfg,
            &lens,
            DeviceSpec::a100_80gb(),
            DType::F32,
            Framework::PyTorch,
            2,
        );
        assert!(pit.peak_gib < pt.peak_gib);
    }

    #[test]
    fn pruning_pit_insensitive_to_granularity() {
        // §5.2: PIT at 32x1 runs almost as fast as at 32x64 because the
        // (32,1) micro-tile covers both exactly.
        let lens = DatasetSpec::mnli().sample_lengths(32, 3);
        let coarse = run_pruning_step(
            (32, 64),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::Pit,
        );
        let fine = run_pruning_step((32, 1), 0.9, &lens, DeviceSpec::v100_32gb(), Framework::Pit);
        let ratio = fine.latency_ms / coarse.latency_ms;
        assert!(ratio < 1.15, "PIT 32x1 vs 32x64 ratio {ratio}");
    }

    #[test]
    fn pruning_pytorch_s_degrades_at_fine_granularity() {
        let lens = DatasetSpec::mnli().sample_lengths(32, 3);
        let coarse = run_pruning_step(
            (32, 64),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorchS,
        );
        let fine = run_pruning_step(
            (32, 1),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorchS,
        );
        assert!(fine.latency_ms > 1.3 * coarse.latency_ms);
    }

    #[test]
    fn pruning_latency_drops_with_sparsity_for_pit_not_pytorch() {
        let lens = DatasetSpec::mnli().sample_lengths(32, 4);
        let pit_50 = run_pruning_step(
            (32, 64),
            0.5,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::Pit,
        );
        let pit_98 = run_pruning_step(
            (32, 64),
            0.98,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::Pit,
        );
        assert!(pit_98.latency_ms < pit_50.latency_ms);
        let pt_50 = run_pruning_step(
            (32, 64),
            0.5,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorch,
        );
        let pt_98 = run_pruning_step(
            (32, 64),
            0.98,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorch,
        );
        let drift = (pt_50.latency_ms - pt_98.latency_ms).abs() / pt_50.latency_ms;
        assert!(drift < 0.05, "dense baseline should be flat, drift {drift}");
    }

    #[test]
    fn pruning_pit_beats_baselines() {
        let lens = DatasetSpec::mnli().sample_lengths(32, 5);
        let pit = run_pruning_step((32, 1), 0.9, &lens, DeviceSpec::v100_32gb(), Framework::Pit);
        let pts = run_pruning_step(
            (32, 1),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorchS,
        );
        let pt = run_pruning_step(
            (32, 1),
            0.9,
            &lens,
            DeviceSpec::v100_32gb(),
            Framework::PyTorch,
        );
        assert!(pit.latency_ms < pts.latency_ms);
        assert!(pit.latency_ms < pt.latency_ms);
    }
}
