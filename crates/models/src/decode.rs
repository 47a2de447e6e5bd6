//! The decode-step engine path: one autoregressive serving iteration.
//!
//! Prefill and decode stress opposite ends of the device. Prefill is the
//! encoder-style pass the rest of this crate models — GEMMs at
//! `m = Σ prompt tokens`, attention quadratic in each sequence's length.
//! A decode step instead contributes *one* query token per live request:
//! its GEMMs run at `m = 1` per request (so a batch of `b` requests is an
//! `m = b` GEMM only if the runtime packs them — exactly the
//! padding-free-vs-rectangle argument again), and its attention reads the
//! cached context it *attends*, linear in that length and memory-bound on
//! the K/V stream.
//!
//! Under a dynamic KV-sparsity policy (StreamingLLM/H2O-style retention in
//! `pit_serve`) the attended set is a ragged per-sequence subset of the
//! cache, so each decode slot carries an `(attended, cached)` pair
//! ([`DecodeSlot`]). A PIT runtime packs the sparse K/V row set
//! permutation-invariantly into dense `(32, 1)` micro-tiles (Algorithm 1),
//! so the streamed volume is the attended rows rounded up per slot to
//! [`KV_MICROTILE_ROWS`] — never the full cached context a padded layout
//! would read.
//!
//! [`StepShape`] describes one mixed iteration — which prompt lengths are
//! being prefilled and which cached context lengths are being decoded —
//! and [`run_step`] charges the full layer stack for it on an [`Engine`],
//! pricing one layer and charging it once per layer (shapes repeat across
//! layers the way §5.6 observes they repeat across batches).
//! The serving runtime (`pit_serve`) decides *what* goes into each step;
//! this module only prices it.

use crate::configs::ModelConfig;
use crate::engine::{CostCategory, Engine};

/// Rows of the K/V micro-tile PIT packs sparse attention reads into: the
/// `(32, 1)` micro-tile of the paper's Table 3 (see
/// `pit_core::microtile::PitRule`). A slot attending `a` cached tokens
/// streams `ceil(a / 32) · 32` K/V rows — at most 31 rows of slack,
/// independent of how large the *cached* context is.
pub const KV_MICROTILE_ROWS: usize = 32;

/// One decode slot's attention extent: `attended` is the cached tokens the
/// slot's query actually reads this step (its policy-retained set),
/// `cached` the tokens resident in its KV allocation. Dense decoding has
/// `attended == cached`; a sparsity policy keeps `attended <= cached`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeSlot {
    /// Cached tokens this slot's query token attends.
    pub attended: usize,
    /// Tokens resident in this slot's KV-cache allocation.
    pub cached: usize,
}

impl DecodeSlot {
    /// A dense slot attending its whole cached context.
    pub fn dense(ctx: usize) -> Self {
        DecodeSlot {
            attended: ctx,
            cached: ctx,
        }
    }

    /// A sparse slot attending `attended` of `cached` resident tokens.
    ///
    /// # Panics
    /// When `attended > cached` — a slot cannot attend rows it no longer
    /// caches.
    pub fn sparse(attended: usize, cached: usize) -> Self {
        assert!(
            attended <= cached,
            "attended ({attended}) exceeds cached ({cached})"
        );
        DecodeSlot { attended, cached }
    }

    /// Attended rows rounded up to whole `(tile, 1)` micro-tiles — the
    /// K/V rows a PIT gather actually streams for this slot.
    pub fn packed_rows(&self, tile: usize) -> usize {
        if self.attended == 0 {
            0
        } else {
            self.attended.div_ceil(tile) * tile
        }
    }
}

/// Work of one serving iteration: prefill sequences entering the batch
/// plus decode slots continuing it. Lengths are *effective* (what the GPU
/// processes): a padding-free runtime passes real lengths, a padded one
/// passes the rectangle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepShape {
    /// Per-sequence processed prompt lengths prefilled whole this step.
    pub prefill_lens: Vec<usize>,
    /// Chunked-prefill pieces as `(chunk_rows, context_after_chunk)`:
    /// `chunk_rows` new prompt tokens attending the `context_after_chunk`
    /// tokens cached once the chunk lands (Sarathi-style chunked prefill —
    /// how a long prompt shares iterations with decode without stalling
    /// inter-token latency). A fresh whole prompt of length `l` is the
    /// chunk `(l, l)`.
    pub chunks: Vec<(usize, usize)>,
    /// Per-slot attention extents for this step's decode tokens (one query
    /// token per slot; a padded runtime keeps finished requests' slots in
    /// here at the rectangle's context length).
    pub decode: Vec<DecodeSlot>,
}

impl StepShape {
    /// A pure-prefill step.
    pub fn prefill(lens: Vec<usize>) -> Self {
        StepShape {
            prefill_lens: lens,
            chunks: Vec::new(),
            decode: Vec::new(),
        }
    }

    /// A pure-decode step of dense slots (each attends its whole context).
    pub fn decode(ctx: Vec<usize>) -> Self {
        Self::decode_sparse(ctx.into_iter().map(DecodeSlot::dense).collect())
    }

    /// A pure-decode step over explicit `(attended, cached)` slots.
    pub fn decode_sparse(slots: Vec<DecodeSlot>) -> Self {
        StepShape {
            prefill_lens: Vec::new(),
            chunks: Vec::new(),
            decode: slots,
        }
    }

    /// Rows of the step's token-granular GEMMs: every prefill and chunk
    /// token plus one query token per decode slot.
    pub fn rows(&self) -> usize {
        self.prefill_tokens() + self.chunk_tokens() + self.decode.len()
    }

    /// Tokens prefilled whole this step.
    pub fn prefill_tokens(&self) -> usize {
        self.prefill_lens.iter().sum()
    }

    /// Prompt tokens landed through chunks this step.
    pub fn chunk_tokens(&self) -> usize {
        self.chunks.iter().map(|&(c, _)| c).sum()
    }

    /// Decode slots (= decode query tokens) this step.
    pub fn decode_slots(&self) -> usize {
        self.decode.len()
    }

    /// Cached tokens this step's decode slots attend (`Σ attended`).
    pub fn attended_tokens(&self) -> usize {
        self.decode.iter().map(|s| s.attended).sum()
    }

    /// Tokens resident in this step's decode-slot KV allocations
    /// (`Σ cached`) — what a padded layout would stream.
    pub fn cached_tokens(&self) -> usize {
        self.decode.iter().map(|s| s.cached).sum()
    }

    /// Micro-tile-packed decode K/V rows: each slot's attended set rounded
    /// up to whole `(tile, 1)` micro-tiles (PIT Algorithm-1 packing of the
    /// ragged retained row sets).
    pub fn packed_decode_tokens(&self, tile: usize) -> usize {
        self.decode.iter().map(|s| s.packed_rows(tile)).sum()
    }

    /// Micro-tiles the packed decode gather touches — the SRead index
    /// entries a PIT runtime builds per step.
    pub fn decode_microtiles(&self, tile: usize) -> usize {
        self.decode.iter().map(|s| s.attended.div_ceil(tile)).sum()
    }

    /// True when the step carries no work.
    pub fn is_empty(&self) -> bool {
        self.prefill_lens.is_empty() && self.chunks.is_empty() && self.decode.is_empty()
    }

    /// Attention-score elements this step computes: `Σ l²` over whole
    /// prefills, `Σ chunk·ctx` over chunks, `Σ attended` over decode slots
    /// (scores are only computed against attended keys).
    pub fn score_elems(&self) -> f64 {
        let prefill: f64 = self.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
        let chunked: f64 = self.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
        prefill + chunked + self.attended_tokens() as f64
    }

    /// Cached tokens this step streams from the KV cache: every decode
    /// slot reads the context it attends; every chunk reads the tokens
    /// cached *before* it (its own rows are still in registers/SMEM).
    pub fn kv_read_tokens(&self) -> usize {
        let chunked: usize = self.chunks.iter().map(|&(c, ctx)| ctx - c).sum();
        self.attended_tokens() + chunked
    }

    /// New tokens whose K/V rows this step appends to the cache.
    pub fn kv_write_tokens(&self) -> usize {
        self.prefill_tokens() + self.chunk_tokens() + self.decode_slots()
    }

    /// Fraction of this step's attention work attributable to prefill
    /// (whole prompts plus chunk landings), mirroring [`run_step`]'s score
    /// weighting exactly: decode slots contribute their *streamed* K/V
    /// rows — micro-tile-packed attended rows under PIT, whole cached
    /// contexts under padded layouts. A pure-decode step returns 0, a
    /// pure-prefill step 1, an empty step 0.
    pub fn prefill_attention_fraction(&self, pit: bool) -> f64 {
        let decode_kv = if pit {
            self.packed_decode_tokens(KV_MICROTILE_ROWS)
        } else {
            self.cached_tokens()
        };
        let prefill_sq: f64 = self.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
        let chunk_sc: f64 = self.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
        let total = prefill_sq + chunk_sc + decode_kv as f64;
        if total <= 0.0 {
            0.0
        } else {
            (prefill_sq + chunk_sc) / total
        }
    }
}

/// Whether a priced pass appends its landed tokens' K/V rows to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvWrite {
    /// Every prefill, chunk and decode token writes its K/V rows each
    /// layer (`kv_append`): a decode-serving iteration.
    Append,
    /// Nothing is appended: a stateless forward pass, such as the
    /// prefill-only serving runtime's, which keeps no KV cache.
    Skip,
}

/// Charges one serving iteration of `cfg` — embeddings, every layer's
/// attention + FFN over the step's mixed prefill/decode shape, and the LM
/// head — to `eng`: [`run_pass`] with [`KvWrite::Append`].
///
/// Decode attention is priced per slot as two `1 × a` GEMV-like products
/// (scores and context, `a` = the slot's attended extent) whose arithmetic
/// is `2 · a · hidden` FLOPs each but whose latency is dominated by
/// streaming the attended K and V rows from HBM; `gemm_flops`' memory
/// bound models exactly that, which is why inter-token latency grows with
/// (attended) context length even though per-token FLOPs are tiny.
///
/// The streamed decode volume depends on the engine's framework: a PIT
/// variant gathers the attended rows micro-tile-packed
/// ([`StepShape::packed_decode_tokens`] — cost scales with *attended*
/// tokens, slack ≤ 31 rows per slot), while a padded layout has no gather
/// and must stream each slot's whole *cached* context.
pub fn run_step(eng: &mut Engine, cfg: &ModelConfig, shape: &StepShape) {
    run_pass(eng, cfg, shape, KvWrite::Append);
}

/// Charges one forward pass of `cfg` over `shape` to `eng`, appending K/V
/// rows or not as `kv` says (see [`run_step`] for the pricing).
///
/// Every layer has the same shape, so the pass prices one layer's ordered
/// operators (qkv, scores, softmax, context, out, attn_ln, fc1, act, fc2,
/// ffn_ln, residual, kv_append) once and charges that list `cfg.layers`
/// times. Charge order is the f64 summation order, so the engine's
/// latency, [`crate::Engine::cost_tally`] and `gemm_time_s` equal those of
/// charging every layer separately, bit for bit. The charges carry their
/// ledger categories and leave no labelled records.
pub fn run_pass(eng: &mut Engine, cfg: &ModelConfig, shape: &StepShape, kv: KvWrite) {
    use CostCategory::{Attention, DenseGemm};
    let rows = shape.rows();
    if rows == 0 {
        return;
    }
    let elem = eng.elem() as f64;
    // Decode K/V rows actually streamed: packed-attended under PIT,
    // whole-cached under padded layouts.
    let decode_kv = if eng.framework.is_pit() {
        shape.packed_decode_tokens(KV_MICROTILE_ROWS)
    } else {
        shape.cached_tokens()
    };
    let chunk_reads: usize = shape.chunks.iter().map(|&(c, ctx)| ctx - c).sum();
    let kv_tokens = decode_kv + chunk_reads;
    let prefill_sq: f64 = shape.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
    let chunk_sc: f64 = shape.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
    let score_elems = prefill_sq + chunk_sc + decode_kv as f64;
    // Scores + context: quadratic for prefill sequences, linear in the
    // attended (PIT) or cached (padded) context for decode slots.
    let score_flops = 2.0 * score_elems * cfg.hidden as f64;
    // Prefill reads its score tile per head; decode additionally streams
    // the K (scores) or V (context) cache rows it attends.
    let score_bytes =
        score_elems * cfg.heads as f64 * elem + (kv_tokens * cfg.hidden) as f64 * elem;
    let softmax_rows = (score_elems * cfg.heads as f64 / 64.0).ceil() as usize;
    // Each decode slot appends its new K/V row; prefills and chunks write
    // every landed token's rows.
    let kv_append = match kv {
        KvWrite::Append => {
            eng.price_elementwise(DenseGemm, shape.kv_write_tokens() * 2 * cfg.hidden, 1)
        }
        KvWrite::Skip => None,
    };
    let layer = [
        eng.price_gemm(DenseGemm, rows, cfg.hidden, 3 * cfg.hidden),
        eng.price_gemm_flops(Attention, score_flops, score_bytes),
        eng.price_softmax(Attention, softmax_rows, 64),
        eng.price_gemm_flops(Attention, score_flops, score_bytes),
        eng.price_gemm(DenseGemm, rows, cfg.hidden, cfg.hidden),
        eng.price_layernorm(DenseGemm, rows, cfg.hidden),
        eng.price_gemm(DenseGemm, rows, cfg.hidden, cfg.ffn),
        eng.price_elementwise(DenseGemm, rows * cfg.ffn, 1),
        eng.price_gemm(DenseGemm, rows, cfg.ffn, cfg.hidden),
        eng.price_layernorm(DenseGemm, rows, cfg.hidden),
        eng.price_elementwise(DenseGemm, rows * cfg.hidden, 2),
        kv_append,
    ];
    if let Some(embed) = eng.price_elementwise(DenseGemm, rows * cfg.hidden, 1) {
        eng.charge(embed);
    }
    for _ in 0..cfg.layers {
        for &op in layer.iter().flatten() {
            eng.charge(op);
        }
    }
    if let Some(head) = eng.price_gemm(DenseGemm, rows, cfg.hidden, cfg.vocab.min(4096)) {
        eng.charge(head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{categorize_label, CostTally, Framework};
    use pit_gpusim::DeviceSpec;
    use pit_tensor::DType;
    use proptest::prelude::*;

    /// `run_step` as a record-by-record loop over every layer, each
    /// operator charged through a labelled helper: the oracle the folded
    /// pricing must reproduce bit for bit.
    fn reference_step(eng: &mut Engine, cfg: &ModelConfig, shape: &StepShape) {
        let rows = shape.rows();
        if rows == 0 {
            return;
        }
        let elem = eng.elem() as f64;
        let decode_kv = if eng.framework.is_pit() {
            shape.packed_decode_tokens(KV_MICROTILE_ROWS)
        } else {
            shape.cached_tokens()
        };
        let chunk_reads: usize = shape.chunks.iter().map(|&(c, ctx)| ctx - c).sum();
        let kv_tokens = decode_kv + chunk_reads;
        let prefill_sq: f64 = shape.prefill_lens.iter().map(|&l| (l * l) as f64).sum();
        let chunk_sc: f64 = shape.chunks.iter().map(|&(c, ctx)| (c * ctx) as f64).sum();
        let score_elems = prefill_sq + chunk_sc + decode_kv as f64;
        eng.elementwise("embed", rows * cfg.hidden, 1);
        for layer in 0..cfg.layers {
            let p = format!("l{layer}");
            eng.gemm(&format!("{p}.qkv"), rows, cfg.hidden, 3 * cfg.hidden);
            let score_flops = 2.0 * score_elems * cfg.hidden as f64;
            let score_bytes =
                score_elems * cfg.heads as f64 * elem + (kv_tokens * cfg.hidden) as f64 * elem;
            eng.gemm_flops(&format!("{p}.scores"), score_flops, score_bytes);
            eng.softmax(
                &format!("{p}.softmax"),
                (score_elems * cfg.heads as f64 / 64.0).ceil() as usize,
                64,
            );
            eng.gemm_flops(&format!("{p}.context"), score_flops, score_bytes);
            eng.gemm(&format!("{p}.out"), rows, cfg.hidden, cfg.hidden);
            eng.layernorm(&format!("{p}.attn_ln"), rows, cfg.hidden);
            eng.gemm(&format!("{p}.fc1"), rows, cfg.hidden, cfg.ffn);
            eng.elementwise(&format!("{p}.act"), rows * cfg.ffn, 1);
            eng.gemm(&format!("{p}.fc2"), rows, cfg.ffn, cfg.hidden);
            eng.layernorm(&format!("{p}.ffn_ln"), rows, cfg.hidden);
            eng.elementwise(&format!("{p}.residual"), rows * cfg.hidden, 2);
            eng.elementwise(
                &format!("{p}.kv_append"),
                shape.kv_write_tokens() * 2 * cfg.hidden,
                1,
            );
        }
        eng.gemm("head", rows, cfg.hidden, cfg.vocab.min(4096));
    }

    /// Category totals classified back out of an engine's labelled
    /// records, one pass in record order.
    fn tally_of_records(eng: &Engine) -> CostTally {
        let mut tally = CostTally::default();
        for rec in eng.ctx().records() {
            let latency = rec.stats.latency_s;
            match categorize_label(&rec.name) {
                CostCategory::Attention => tally.attention_s += latency,
                CostCategory::SparseConversion => tally.sparse_conversion_s += latency,
                CostCategory::JitSearch => tally.jit_search_s += latency,
                CostCategory::DenseGemm => tally.dense_s += latency,
            }
            tally.flops_useful += rec.stats.flops_useful;
            tally.flops_executed += rec.stats.flops_executed;
        }
        tally
    }

    fn tally_bits(t: &CostTally) -> [u64; 6] {
        [
            t.attention_s.to_bits(),
            t.sparse_conversion_s.to_bits(),
            t.jit_search_s.to_bits(),
            t.dense_s.to_bits(),
            t.flops_useful.to_bits(),
            t.flops_executed.to_bits(),
        ]
    }

    /// Deterministic pseudo-random draw in `1..=max` (splitmix64 of
    /// `seed`, `i`).
    fn draw(seed: u64, i: u64, max: usize) -> usize {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % max + 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Folding one priced layer `layers` times reproduces charging
        /// every layer's operators record by record, bit for bit, on the
        /// latency, every tally field and the GEMM time — for mixed
        /// prefill/chunk/sparse-decode shapes (empty ones included), PIT
        /// and padded frameworks, both precisions, one A100 or eight
        /// V100s, and engines already carrying JIT-search and PIT-index
        /// charges. The oracle's running totals in turn equal the sums
        /// over its labelled records.
        #[test]
        fn folded_step_matches_record_by_record_pricing(
            framework in vec![Framework::Pit, Framework::PyTorch, Framework::DeepSpeed],
            dtype in vec![DType::F16, DType::F32],
            multi_gpu in 0usize..2,
            prior_charges in 0usize..4,
            prefills in 0usize..3,
            chunks in 0usize..3,
            slots in 0usize..24,
            sparse in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let cfg = ModelConfig::opt("1.3B");
            let mut i = 0u64;
            let mut next = |max: usize| {
                i += 1;
                draw(seed, i, max)
            };
            let shape = StepShape {
                prefill_lens: (0..prefills).map(|_| next(512)).collect(),
                chunks: (0..chunks)
                    .map(|_| {
                        let c = next(256);
                        (c, c + next(1024) - 1)
                    })
                    .collect(),
                decode: (0..slots)
                    .map(|_| {
                        let cached = next(2048);
                        if sparse == 1 {
                            DecodeSlot::sparse(next(cached + 1) - 1, cached)
                        } else {
                            DecodeSlot::dense(cached)
                        }
                    })
                    .collect(),
            };
            let engine = || {
                let mut e = if multi_gpu == 1 {
                    Engine::new(DeviceSpec::v100_32gb(), dtype, framework).with_devices(8)
                } else {
                    Engine::new(DeviceSpec::a100_80gb(), dtype, framework)
                };
                if prior_charges & 1 == 1 {
                    e.host_overhead("jit.search", 37.5e-6);
                }
                if prior_charges & 2 == 2 {
                    e.host_overhead("pit.index", 1.25e-6);
                }
                e
            };
            let mut folded = engine();
            run_step(&mut folded, &cfg, &shape);
            let mut reference = engine();
            reference_step(&mut reference, &cfg, &shape);

            prop_assert_eq!(folded.latency_ms().to_bits(), reference.latency_ms().to_bits());
            prop_assert_eq!(
                tally_bits(&folded.cost_tally()),
                tally_bits(&reference.cost_tally())
            );
            prop_assert_eq!(folded.gemm_time_s.to_bits(), reference.gemm_time_s.to_bits());
            // `Iterator::sum` starts from -0.0 and the running total from
            // +0.0; adding +0.0 equates the two on an empty record stream
            // and changes nothing else.
            prop_assert_eq!(
                (reference.ctx().total_latency_ms() + 0.0).to_bits(),
                reference.latency_ms().to_bits()
            );
            prop_assert_eq!(
                tally_bits(&tally_of_records(&reference)),
                tally_bits(&reference.cost_tally())
            );
            // The fold leaves only the prior labelled charges behind.
            prop_assert_eq!(folded.ctx().records().len(), prior_charges.count_ones() as usize);
        }
    }

    fn cfg() -> ModelConfig {
        let mut m = ModelConfig::bert_base();
        m.layers = 2;
        m
    }

    fn eng() -> Engine {
        Engine::new(DeviceSpec::a100_80gb(), DType::F32, Framework::Pit)
    }

    fn step_ms(shape: &StepShape) -> f64 {
        let mut e = eng();
        run_step(&mut e, &cfg(), shape);
        e.latency_ms()
    }

    #[test]
    fn shape_accounting() {
        let s = StepShape {
            prefill_lens: vec![30, 10],
            chunks: vec![(16, 80)],
            decode: vec![100, 7, 64]
                .into_iter()
                .map(DecodeSlot::dense)
                .collect(),
        };
        assert_eq!(s.rows(), 40 + 16 + 3);
        assert_eq!(s.prefill_tokens(), 40);
        assert_eq!(s.chunk_tokens(), 16);
        assert_eq!(s.decode_slots(), 3);
        assert_eq!(s.attended_tokens(), 171);
        assert_eq!(s.cached_tokens(), 171);
        // Decode reads whole contexts; the chunk reads its 64 prior rows.
        assert_eq!(s.kv_read_tokens(), 171 + 64);
        assert_eq!(s.kv_write_tokens(), 40 + 16 + 3);
        assert_eq!(
            s.score_elems(),
            (900 + 100) as f64 + (16 * 80) as f64 + 171.0
        );
        assert!(StepShape::default().is_empty());
    }

    #[test]
    fn sparse_slot_accounting() {
        let s = StepShape::decode_sparse(vec![
            DecodeSlot::sparse(96, 1024),
            DecodeSlot::sparse(33, 512),
            DecodeSlot::dense(64),
        ]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.attended_tokens(), 96 + 33 + 64);
        assert_eq!(s.cached_tokens(), 1024 + 512 + 64);
        // Packing rounds each slot up to whole (32, 1) micro-tiles.
        assert_eq!(s.packed_decode_tokens(32), 96 + 64 + 64);
        assert_eq!(s.decode_microtiles(32), 3 + 2 + 2);
        // Score elements follow attended, not cached.
        assert_eq!(s.score_elems(), (96 + 33 + 64) as f64);
        assert_eq!(s.kv_read_tokens(), 96 + 33 + 64);
        // One append per slot regardless of sparsity.
        assert_eq!(s.kv_write_tokens(), 3);
    }

    #[test]
    #[should_panic(expected = "attended")]
    fn sparse_slot_rejects_attended_beyond_cached() {
        DecodeSlot::sparse(65, 64);
    }

    #[test]
    fn prefill_attention_fraction_matches_score_weighting() {
        assert_eq!(StepShape::default().prefill_attention_fraction(true), 0.0);
        assert_eq!(
            StepShape::decode(vec![512; 4]).prefill_attention_fraction(true),
            0.0
        );
        assert_eq!(
            StepShape::prefill(vec![128]).prefill_attention_fraction(false),
            1.0
        );
        let mixed = StepShape {
            prefill_lens: vec![64],
            chunks: vec![(16, 80)],
            decode: vec![DecodeSlot::sparse(100, 1000)],
        };
        // PIT streams packed attended rows (ceil(100/32)*32 = 128); a
        // padded layout streams all 1000 cached rows — so the prefill
        // share is higher under PIT.
        let prefill_work = (64.0f64 * 64.0) + (16.0 * 80.0);
        let pit = mixed.prefill_attention_fraction(true);
        let padded = mixed.prefill_attention_fraction(false);
        assert!((pit - prefill_work / (prefill_work + 128.0)).abs() < 1e-12);
        assert!((padded - prefill_work / (prefill_work + 1000.0)).abs() < 1e-12);
        assert!(pit > padded);
    }

    #[test]
    fn chunked_prefill_sums_to_roughly_whole_prefill_attention() {
        // Four 64-token chunks of a 256-token prompt cover more score
        // elements than the causal triangle but stay within 2x of the
        // whole-prompt square (the model uses full squares for whole
        // prefills too).
        let whole = StepShape::prefill(vec![256]).score_elems();
        let chunked: f64 = (1..=4)
            .map(|i| {
                StepShape {
                    prefill_lens: vec![],
                    chunks: vec![(64, 64 * i)],
                    decode: vec![],
                }
                .score_elems()
            })
            .sum();
        assert!(chunked <= whole);
        assert!(chunked >= whole * 0.5);
    }

    #[test]
    fn empty_step_costs_nothing() {
        assert_eq!(step_ms(&StepShape::default()), 0.0);
    }

    #[test]
    fn decode_cost_grows_with_context_length() {
        // Same rows, longer cached context -> more K/V streaming.
        let short = step_ms(&StepShape::decode(vec![64; 8]));
        let long = step_ms(&StepShape::decode(vec![2048; 8]));
        assert!(long > short, "long {long} vs short {short}");
    }

    #[test]
    fn sparse_decode_cost_scales_with_attended_not_cached() {
        // 8 slots each caching 16k tokens but attending only 256: the
        // micro-tile-packed gather streams the attended rows, so the step
        // prices exactly like a dense 256-context step and far below the
        // dense 16k-context one.
        let sparse = step_ms(&StepShape::decode_sparse(vec![
            DecodeSlot::sparse(
                256, 16384
            );
            8
        ]));
        let dense_short = step_ms(&StepShape::decode(vec![256; 8]));
        let dense_long = step_ms(&StepShape::decode(vec![16384; 8]));
        assert_eq!(sparse, dense_short, "packed gather prices attended rows");
        assert!(sparse < dense_long * 0.5, "sparse {sparse} vs {dense_long}");
    }

    #[test]
    fn padded_framework_pays_cached_context() {
        // Without PIT's gather the same sparse shape streams the whole
        // cached context — sparsity saves nothing under a padded layout.
        let shape = StepShape::decode_sparse(vec![DecodeSlot::sparse(256, 2048); 8]);
        let dense = StepShape::decode(vec![2048; 8]);
        let mut p1 = Engine::new(DeviceSpec::a100_80gb(), DType::F32, Framework::PyTorch);
        run_step(&mut p1, &cfg(), &shape);
        let mut p2 = Engine::new(DeviceSpec::a100_80gb(), DType::F32, Framework::PyTorch);
        run_step(&mut p2, &cfg(), &dense);
        assert_eq!(p1.latency_ms(), p2.latency_ms());
    }

    #[test]
    fn decode_step_is_cheaper_than_prefilling_the_context() {
        // One decode token over a 512-token cache is far cheaper than
        // re-prefilling all 512 tokens (the point of caching KV at all).
        let decode = step_ms(&StepShape::decode(vec![512]));
        let prefill = step_ms(&StepShape::prefill(vec![512]));
        assert!(decode * 3.0 < prefill, "decode {decode} prefill {prefill}");
    }

    #[test]
    fn batched_decode_amortises_fixed_costs() {
        // 16 requests in one packed step beat 16 singleton steps: the win
        // continuous batching exists to harvest.
        let packed = step_ms(&StepShape::decode(vec![256; 16]));
        let singleton = step_ms(&StepShape::decode(vec![256]));
        assert!(
            packed < 16.0 * singleton * 0.5,
            "packed {packed} vs 16x singleton {}",
            16.0 * singleton
        );
    }

    #[test]
    fn mixed_step_costs_more_than_either_phase_alone() {
        let prefill = StepShape::prefill(vec![128, 96]);
        let decode = StepShape::decode(vec![300; 4]);
        let mixed = StepShape {
            prefill_lens: prefill.prefill_lens.clone(),
            chunks: Vec::new(),
            decode: decode.decode.clone(),
        };
        let m = step_ms(&mixed);
        assert!(m > step_ms(&prefill));
        assert!(m > step_ms(&decode));
        // But less than running the phases as separate launches.
        assert!(m < step_ms(&prefill) + step_ms(&decode));
    }
}
