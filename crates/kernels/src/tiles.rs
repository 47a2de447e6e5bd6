//! The dense computation-tile database.
//!
//! The paper's implementation generates ~1,500 sparse kernels from over 500
//! dense computation kernels and stores their profiled performance in a
//! look-up table used by the online micro-tile selector (§4). This module is
//! that database: a fixed set of dense tile shapes per device, each with a
//! per-pass cost "profiled" once from the analytical cost model (playing the
//! role of the paper's offline profiling run, which is model- and
//! sparsity-agnostic by design, §3.2).

use pit_gpusim::cost::TileDims;
use pit_gpusim::CostModel;

/// One profiled dense computation tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledTile {
    /// Tile dimensions `[m,k]×[k,n]`.
    pub dims: TileDims,
    /// Whether the tile runs on the Tensor-Core path (fp16).
    pub tensor_core: bool,
    /// Profiled cost of one k-pass of one tile on one SM (seconds).
    pub pass_cost_s: f64,
    /// Profiled fixed cost per tile (write-back of a unit-depth reduction
    /// plus scheduling), in seconds.
    pub fixed_cost_s: f64,
}

impl ProfiledTile {
    /// Profiled cost of one tile reducing over `k_total` (seconds).
    pub fn tile_cost(&self, k_total: usize) -> f64 {
        let passes = k_total.div_ceil(self.dims.k).max(1);
        passes as f64 * self.pass_cost_s + self.fixed_cost_s
    }
}

/// The per-device tile database.
#[derive(Debug, Clone)]
pub struct TileDb {
    tiles: Vec<ProfiledTile>,
}

/// Dense CUDA-core tile shapes shipped in the database. The set spans the
/// shapes the paper's figures exercise (8×8 … 32×32 in Figure 3a, the
/// `[16,32]×[32,128]` / `[8,32]×[32,128]` / `[32,64]×[64,32]` kernels of
/// Table 3) plus the large tiles a cuBLAS-class dense GEMM would pick.
pub const CUDA_CORE_TILES: &[TileDims] = &[
    TileDims::new(8, 8, 8),
    TileDims::new(16, 16, 16),
    TileDims::new(32, 32, 32),
    TileDims::new(8, 32, 128),
    TileDims::new(16, 32, 128),
    TileDims::new(32, 64, 32),
    TileDims::new(32, 32, 64),
    TileDims::new(64, 32, 64),
    TileDims::new(64, 64, 64),
    TileDims::new(128, 32, 64),
    TileDims::new(128, 32, 128),
];

/// Tensor-Core (wmma) fragment shapes supported in half precision — the
/// hardware constraint quoted in §5.3: `[16,16]×[16,16]`, `[32,8]×[8,16]`
/// and `[8,32]×[32,16]`.
pub const WMMA_FRAGMENTS: &[TileDims] = &[
    TileDims::new(16, 16, 16),
    TileDims::new(32, 8, 16),
    TileDims::new(8, 32, 16),
];

/// Tensor-Core *tiles* built by a kernel from wmma fragments (a thread
/// block composes several fragments; shapes follow common wmma GEMMs).
pub const WMMA_TILES: &[TileDims] = &[
    TileDims::new(16, 16, 16),
    TileDims::new(32, 16, 32),
    TileDims::new(32, 64, 32),
    TileDims::new(64, 16, 64),
    TileDims::new(64, 32, 64),
    TileDims::new(128, 32, 64),
];

impl TileDb {
    /// Builds ("profiles") the database for one device.
    pub fn profile(cost: &CostModel) -> Self {
        let mut tiles = Vec::new();
        for &dims in CUDA_CORE_TILES {
            tiles.push(ProfiledTile {
                dims,
                tensor_core: false,
                pass_cost_s: cost.tile_pass_cost(dims, 4, false),
                fixed_cost_s: cost.tile_cost(dims, dims.k, 4, false)
                    - cost.tile_pass_cost(dims, 4, false),
            });
        }
        for &dims in WMMA_TILES {
            tiles.push(ProfiledTile {
                dims,
                tensor_core: true,
                pass_cost_s: cost.tile_pass_cost(dims, 2, true),
                fixed_cost_s: cost.tile_cost(dims, dims.k, 2, true)
                    - cost.tile_pass_cost(dims, 2, true),
            });
        }
        TileDb { tiles }
    }

    /// All tiles for the given execution path.
    pub fn tiles(&self, tensor_core: bool) -> impl Iterator<Item = &ProfiledTile> {
        self.tiles
            .iter()
            .filter(move |t| t.tensor_core == tensor_core)
    }

    /// All tiles regardless of path.
    pub fn all(&self) -> &[ProfiledTile] {
        &self.tiles
    }

    /// The profiled tile with the given dims, if present.
    pub fn get(&self, dims: TileDims, tensor_core: bool) -> Option<&ProfiledTile> {
        self.tiles
            .iter()
            .find(|t| t.dims == dims && t.tensor_core == tensor_core)
    }

    /// The tile minimising full-GEMM latency for a dense `[m,k]×[k,n]`
    /// problem — what a cuBLAS-style heuristic would select. Each tile's
    /// latency is evaluated once; among tied tiles the first one wins.
    pub fn best_dense_tile(
        &self,
        cost: &CostModel,
        m: usize,
        k: usize,
        n: usize,
        tensor_core: bool,
    ) -> &ProfiledTile {
        let elem = if tensor_core { 2 } else { 4 };
        self.tiles(tensor_core)
            .map(|t| {
                (
                    t,
                    cost.dense_gemm_latency(m, k, n, t.dims, elem, tensor_core),
                )
            })
            .min_by(|(_, la), (_, lb)| la.partial_cmp(lb).expect("finite latencies"))
            .expect("tile database is never empty")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;

    fn db() -> (TileDb, CostModel) {
        let cost = CostModel::new(DeviceSpec::a100_80gb());
        (TileDb::profile(&cost), cost)
    }

    #[test]
    fn database_contains_paper_tiles() {
        let (db, _) = db();
        assert!(db.get(TileDims::new(16, 32, 128), false).is_some());
        assert!(db.get(TileDims::new(8, 32, 128), false).is_some());
        assert!(db.get(TileDims::new(32, 64, 32), false).is_some());
    }

    #[test]
    fn pass_costs_are_positive_and_scale_with_area() {
        let (db, _) = db();
        let small = db.get(TileDims::new(8, 8, 8), false).unwrap();
        let big = db.get(TileDims::new(128, 32, 128), false).unwrap();
        assert!(small.pass_cost_s > 0.0);
        assert!(big.pass_cost_s > small.pass_cost_s);
        // ...but the big tile is cheaper *per element*.
        let per_elem_small = small.pass_cost_s / small.dims.macs_per_pass() as f64;
        let per_elem_big = big.pass_cost_s / big.dims.macs_per_pass() as f64;
        assert!(per_elem_big < per_elem_small);
    }

    #[test]
    fn best_dense_tile_prefers_large_tiles_for_large_gemm() {
        let (db, cost) = db();
        let best = db.best_dense_tile(&cost, 4096, 4096, 4096, false);
        assert!(best.dims.area() >= 64 * 64, "picked {:?}", best.dims);
    }

    #[test]
    fn best_dense_tile_adapts_to_skinny_gemm() {
        let (db, cost) = db();
        // A 32-row GEMM cannot fill 128-row tiles.
        let best = db.best_dense_tile(&cost, 32, 4096, 4096, false);
        assert!(best.dims.m <= 64, "picked {:?}", best.dims);
    }

    #[test]
    fn best_dense_tile_keeps_the_first_of_tied_tiles() {
        let (_, cost) = db();
        // Latency depends on the dims only, so two tiles with equal dims
        // tie; the marker in `fixed_cost_s` tells them apart.
        let tile = |marker: f64| ProfiledTile {
            dims: TileDims::new(32, 32, 32),
            tensor_core: false,
            pass_cost_s: 1.0,
            fixed_cost_s: marker,
        };
        for (first, second) in [(1.0, 2.0), (2.0, 1.0)] {
            let db = TileDb {
                tiles: vec![tile(first), tile(second)],
            };
            let best = db.best_dense_tile(&cost, 512, 512, 512, false);
            assert_eq!(best.fixed_cost_s, first);
        }
    }

    #[test]
    fn tile_cost_monotone_in_k() {
        let (db, _) = db();
        let t = db.get(TileDims::new(32, 32, 32), false).unwrap();
        assert!(t.tile_cost(4096) > t.tile_cost(32));
        assert_eq!(t.tile_cost(0), t.tile_cost(1));
    }

    #[test]
    fn wmma_tiles_only_on_tensor_core_path() {
        let (db, _) = db();
        assert!(db.tiles(true).count() >= WMMA_TILES.len());
        assert!(db.tiles(false).all(|t| CUDA_CORE_TILES.contains(&t.dims)));
    }
}
