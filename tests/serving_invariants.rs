//! Property-based tests (proptest) for the batching and serving
//! invariants: padding accounting, token conservation under splitting,
//! the continuous-batching packer's budget/ordering guarantees, and the
//! prefill runtime's step pricing against its former per-layer stack.

use pit::core::jit::JitCache;
use pit::models::Engine;
use pit::serve::{batch_step_sample, BatchPolicy, FormedBatch, ServeConfig};
use pit::tensor::DType;
use pit::trace::StepSample;
use pit::workloads::{Batch, DatasetSpec};
use proptest::prelude::*;

/// Pseudo-random pending lengths derived from a seed (1..=max_len each).
fn lens_from_seed(n: usize, max_len: usize, seed: u64) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let h = (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            (h as usize % max_len) + 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Padding accounting: for any batch, real tokens never exceed padded
    /// tokens and the waste ratio is a valid fraction.
    #[test]
    fn padding_accounting_is_sane(
        n in 0usize..64,
        max_len in 1usize..256,
        seed in 0u64..10_000,
    ) {
        let lens = lens_from_seed(n, max_len, seed);
        let longest = Batch::padded_to_longest(lens.clone());
        prop_assert!(longest.real_tokens() <= longest.padded_tokens());
        prop_assert!((0.0..=1.0).contains(&longest.padding_waste()));
        let split = Batch::padded_to(lens, max_len);
        prop_assert!(split.batch.real_tokens() <= split.batch.padded_tokens());
        prop_assert!((0.0..=1.0).contains(&split.batch.padding_waste()));
    }

    /// `padded_to` never drops tokens: batch + overflow account for every
    /// input token, and `split_to` reassembles them all across follow-ups.
    #[test]
    fn truncation_conserves_tokens(
        n in 1usize..48,
        max_len in 1usize..128,
        scale in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let lens = lens_from_seed(n, max_len * scale, seed);
        let total: usize = lens.iter().sum();
        let split = Batch::padded_to(lens.clone(), max_len);
        prop_assert_eq!(split.batch.real_tokens() + split.overflow_tokens(), total);
        prop_assert!(split.batch.lens.iter().all(|&l| l <= max_len));
        let batches = Batch::split_to(lens, max_len);
        let reassembled: usize = batches.iter().map(Batch::real_tokens).sum();
        prop_assert_eq!(reassembled, total);
        prop_assert!(batches.iter().all(|b| b.max_len <= max_len));
    }

    /// The padding-free packer never exceeds its token budget (except for
    /// a single oversized request, which must still make progress) and
    /// always takes a non-empty FIFO prefix.
    #[test]
    fn packer_respects_token_budget(
        n in 1usize..64,
        budget in 16usize..4096,
        max_len in 1usize..512,
        seed in 0u64..10_000,
    ) {
        let pending = lens_from_seed(n, max_len, seed);
        let policy = BatchPolicy::PaddingFree { token_budget: budget };
        let take = policy.take_count(&pending);
        prop_assert!(take >= 1 && take <= pending.len());
        let packed: usize = pending[..take].iter().sum();
        prop_assert!(packed <= budget || take == 1,
            "packed {packed} tokens over budget {budget} with take {take}");
        // Progress: leftover pending forms further batches until drained.
        let mut rest = pending;
        let mut drained = 0usize;
        while !rest.is_empty() {
            let t = policy.take_count(&rest);
            prop_assert!(t >= 1);
            drained += rest.drain(..t).sum::<usize>();
        }
        prop_assert_eq!(drained, lens_from_seed(n, max_len, seed).iter().sum::<usize>());
    }

    /// No policy reorders tokens within a request or across the FIFO
    /// prefix: the formed batch's `lens` are exactly the taken requests in
    /// admission order, each contributing one intact length entry, and the
    /// processed view never shrinks a request below its real length.
    #[test]
    fn packer_preserves_request_order_and_integrity(
        n in 1usize..48,
        seed in 0u64..10_000,
        budget in 64usize..2048,
        max_batch in 1usize..32,
        buckets in 1usize..8,
    ) {
        let pending = DatasetSpec::mnli().sample_lengths(n, seed);
        for policy in [
            BatchPolicy::PaddingFree { token_budget: budget },
            BatchPolicy::PaddedToLongest { max_batch },
            BatchPolicy::Bucketed { max_batch, buckets },
        ] {
            let take = policy.take_count(&pending);
            let formed = policy.form(pending[..take].to_vec());
            prop_assert_eq!(formed.lens.as_slice(), &pending[..take]);
            prop_assert_eq!(formed.real_tokens,
                pending[..take].iter().sum::<usize>());
            prop_assert!(formed.padded_tokens >= formed.real_tokens);
            prop_assert!((0.0..=1.0).contains(&formed.padding_waste()));
            // Every request is processed whole: the effective layout holds
            // at least its real tokens.
            prop_assert_eq!(formed.effective_lens.len(), formed.lens.len());
            prop_assert!(formed.effective_lens.iter().sum::<usize>() >= formed.real_tokens);
        }
    }

    /// Waste ordering across policies on identical prefixes: padding-free
    /// is exactly zero-waste; bucketing never wastes more than padding to
    /// the longest.
    #[test]
    fn policy_waste_ordering(
        n in 2usize..48,
        seed in 0u64..10_000,
        buckets in 1usize..8,
    ) {
        let lens = DatasetSpec::mnli().sample_lengths(n, seed);
        let free = BatchPolicy::PaddingFree { token_budget: usize::MAX }.form(lens.clone());
        let padded = BatchPolicy::PaddedToLongest { max_batch: n }.form(lens.clone());
        let bucketed = BatchPolicy::Bucketed { max_batch: n, buckets }.form(lens);
        prop_assert_eq!(free.padding_waste(), 0.0);
        prop_assert!(bucketed.padded_tokens <= padded.padded_tokens);
        prop_assert!(free.padded_tokens <= bucketed.padded_tokens);
    }

    /// Pricing a formed batch through `run_pass` reproduces the prefill
    /// runtime's former per-layer stack bit for bit under every batching
    /// policy's framework: PIT, padded PyTorch, and bucketed
    /// TurboTransformer with its fused elementwise kernels.
    #[test]
    fn batch_step_sample_matches_the_reference_stack(
        policy in 0usize..3,
        n in 1usize..24,
        max_len in 1usize..400,
        f16 in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let policy = [
            BatchPolicy::PaddingFree { token_budget: usize::MAX },
            BatchPolicy::PaddedToLongest { max_batch: n },
            BatchPolicy::Bucketed { max_batch: n, buckets: 3 },
        ][policy];
        let mut cfg = ServeConfig::new(policy);
        cfg.dtype = if f16 == 1 { DType::F16 } else { DType::F32 };
        let formed = policy.form(lens_from_seed(n, max_len, seed));
        let sample = batch_step_sample(&cfg, &formed, &JitCache::new());
        prop_assert_eq!(
            sample_bits(&sample),
            sample_bits(&reference_batch_step_sample(&cfg, &formed, &sample))
        );
    }
}

/// The prefill runtime's former hand-written transformer stack, kept as
/// the oracle `batch_step_sample` must reproduce. The per-shape JIT-search
/// and PIT-index charges come first and are single charges, so they are
/// re-charged from `sample` itself; everything after them is the stack.
fn reference_batch_step_sample(
    cfg: &ServeConfig,
    formed: &FormedBatch,
    sample: &StepSample,
) -> StepSample {
    let framework = cfg.policy.framework();
    let mut eng = Engine::new(cfg.device.clone(), cfg.dtype, framework);
    let m = &cfg.model;
    let tokens = formed.padded_tokens;
    if sample.jit_searches == 1 {
        eng.host_overhead("jit.search", sample.jit_search_s);
    }
    if framework.is_pit() {
        eng.host_overhead("pit.index", sample.sparse_conversion_s);
    }
    let sum_sq: f64 = formed.sum_sq_effective() as f64;
    let elem = eng.elem() as f64;
    eng.elementwise("embed", tokens * m.hidden, 1);
    for layer in 0..m.layers {
        let p = format!("l{layer}");
        eng.gemm(&format!("{p}.qkv"), tokens, m.hidden, 3 * m.hidden);
        let score_flops = 2.0 * sum_sq * m.hidden as f64;
        let score_bytes = sum_sq * m.heads as f64 * elem;
        eng.gemm_flops(&format!("{p}.scores"), score_flops, score_bytes);
        eng.softmax(
            &format!("{p}.softmax"),
            (sum_sq * m.heads as f64 / 64.0).ceil() as usize,
            64,
        );
        eng.gemm_flops(&format!("{p}.context"), score_flops, score_bytes);
        eng.gemm(&format!("{p}.out"), tokens, m.hidden, m.hidden);
        eng.layernorm(&format!("{p}.attn_ln"), tokens, m.hidden);
        eng.gemm(&format!("{p}.fc1"), tokens, m.hidden, m.ffn);
        eng.elementwise(&format!("{p}.act"), tokens * m.ffn, 1);
        eng.gemm(&format!("{p}.fc2"), tokens, m.ffn, m.hidden);
        eng.layernorm(&format!("{p}.ffn_ln"), tokens, m.hidden);
        eng.elementwise(&format!("{p}.residual"), tokens * m.hidden, 2);
    }
    eng.gemm("head", tokens, m.hidden, m.vocab.min(4096));
    let tally = eng.cost_tally();
    StepSample {
        gpu_s: eng.latency_ms() / 1e3,
        prefill_attention_s: tally.attention_s,
        decode_attention_s: 0.0,
        sparse_conversion_s: tally.sparse_conversion_s,
        jit_search_s: tally.jit_search_s,
        flops_useful: tally.flops_useful,
        flops_executed: tally.flops_executed,
        jit_searches: sample.jit_searches,
        jit_search_measured_s: sample.jit_search_measured_s,
    }
}

/// Every modelled field of a step sample as raw bits (the measured search
/// wall time is an annotation and left out).
fn sample_bits(s: &StepSample) -> [u64; 8] {
    [
        s.gpu_s.to_bits(),
        s.prefill_attention_s.to_bits(),
        s.decode_attention_s.to_bits(),
        s.sparse_conversion_s.to_bits(),
        s.jit_search_s.to_bits(),
        s.flops_useful.to_bits(),
        s.flops_executed.to_bits(),
        s.jit_searches,
    ]
}
