//! The seven parallel workloads of Table 5, as per-tile operation streams.
//!
//! Each builder reproduces the benchmark's *communication signature* (see
//! DESIGN.md §4): what matters to the NoC is the mix of streaming vs
//! dependent accesses, the burstiness, the locality (neighbor scratchpad vs
//! LLC), the load balance across tiles, and serialization points — not the
//! arithmetic itself, which is abstracted into `Compute` cycles.
//!
//! Datasets are scaled ~4–100× from Table 5 (uniformly across all network
//! configurations, so relative speedups are preserved).

use crate::core_model::Op;
use crate::graph::{Csr, GraphId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruche_noc::geometry::Dims;

/// Address-space bases per logical array (word addresses; IPOLY spreads
/// them across banks).
mod base {
    pub const MATRIX_A: u64 = 0x0100_0000;
    pub const MATRIX_B: u64 = 0x0200_0000;
    pub const MATRIX_C: u64 = 0x0300_0000;
    pub const FFT_DATA: u64 = 0x0400_0000;
    pub const TREE: u64 = 0x0500_0000;
    pub const VISITED: u64 = 0x0600_0000;
    pub const RANK: u64 = 0x0700_0000;
    pub const RANK_NEW: u64 = 0x0800_0000;
    pub const COLS: u64 = 0x0900_0000;
    /// The SpGEMM dynamic-allocator variable — a single shared word, the
    /// paper's noted hotspot (§4.6).
    pub const ALLOC: u64 = 0x0A00_0000;
}

/// The paper's benchmarks (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// 3-D stencil over neighbor scratchpads.
    Jacobi,
    /// Blocked dense matrix multiply, LLC streaming.
    Sgemm,
    /// 2-D FFT with transpose phases.
    Fft,
    /// Barnes-Hut N-body tree walks (dependent loads).
    BarnesHut,
    /// Breadth-first search (frontier bursts, per-level barriers).
    Bfs,
    /// PageRank edge streaming.
    PageRank,
    /// Sparse GEMM: linked-list pointer chasing plus an atomic-allocator
    /// hotspot.
    SpGemm,
}

impl Benchmark {
    /// All benchmarks, Table 5 order.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Jacobi,
        Benchmark::Sgemm,
        Benchmark::Fft,
        Benchmark::BarnesHut,
        Benchmark::Bfs,
        Benchmark::PageRank,
        Benchmark::SpGemm,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Jacobi => "jacobi",
            Benchmark::Sgemm => "sgemm",
            Benchmark::Fft => "fft",
            Benchmark::BarnesHut => "bh",
            Benchmark::Bfs => "bfs",
            Benchmark::PageRank => "pr",
            Benchmark::SpGemm => "spgemm",
        }
    }

    /// The Table 5 datasets for this benchmark (scaled).
    pub fn datasets(self) -> Vec<DatasetId> {
        match self {
            Benchmark::Jacobi | Benchmark::Sgemm => vec![DatasetId::Default],
            Benchmark::Fft => vec![DatasetId::Fft16K, DatasetId::Fft32K],
            Benchmark::BarnesHut => {
                vec![DatasetId::Bh16K, DatasetId::Bh32K, DatasetId::Bh64K]
            }
            Benchmark::Bfs => [
                GraphId::Os,
                GraphId::Ca,
                GraphId::Lj,
                GraphId::Hw,
                GraphId::Pk,
            ]
            .map(DatasetId::Graph)
            .to_vec(),
            Benchmark::PageRank => [GraphId::Os, GraphId::Lj, GraphId::Hw, GraphId::Pk]
                .map(DatasetId::Graph)
                .to_vec(),
            Benchmark::SpGemm => [GraphId::Ca, GraphId::Rc, GraphId::Us]
                .map(DatasetId::Graph)
                .to_vec(),
        }
    }
}

/// A dataset selector (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// The benchmark's single dataset (Jacobi grid / SGEMM matrices).
    Default,
    /// 16K-point FFT.
    Fft16K,
    /// 32K-point FFT.
    Fft32K,
    /// 16K bodies (scaled to 4K).
    Bh16K,
    /// 32K bodies (scaled to 8K).
    Bh32K,
    /// 64K bodies (scaled to 16K).
    Bh64K,
    /// A Table 5 graph.
    Graph(GraphId),
}

impl DatasetId {
    /// Report label.
    pub fn label(self) -> String {
        match self {
            DatasetId::Default => String::new(),
            DatasetId::Fft16K => "16K".into(),
            DatasetId::Fft32K => "32K".into(),
            DatasetId::Bh16K => "16K".into(),
            DatasetId::Bh32K => "32K".into(),
            DatasetId::Bh64K => "64K".into(),
            DatasetId::Graph(g) => g.label().into(),
        }
    }
}

/// A built workload: one operation stream per tile (row-major tile order).
#[derive(Debug, Clone)]
pub struct Workload {
    /// `bench(dataset)` label.
    pub name: String,
    /// Per-tile streams, indexed row-major.
    pub programs: Vec<Vec<Op>>,
}

impl Workload {
    /// The `bench(dataset)` label a build would produce, without building.
    pub fn build_name(bench: Benchmark, ds: DatasetId) -> String {
        let label = ds.label();
        if label.is_empty() {
            bench.name().to_string()
        } else {
            format!("{}({})", bench.name(), label)
        }
    }

    /// Builds the workload for a benchmark/dataset on a tile array.
    ///
    /// # Panics
    ///
    /// Panics if the dataset does not belong to the benchmark.
    pub fn build(bench: Benchmark, ds: DatasetId, dims: Dims) -> Workload {
        let programs = match (bench, ds) {
            (Benchmark::Jacobi, DatasetId::Default) => jacobi(dims),
            (Benchmark::Sgemm, DatasetId::Default) => sgemm(dims),
            (Benchmark::Fft, DatasetId::Fft16K) => fft(dims, 16 * 1024),
            (Benchmark::Fft, DatasetId::Fft32K) => fft(dims, 32 * 1024),
            (Benchmark::BarnesHut, DatasetId::Bh16K) => barnes_hut(dims, 4 * 1024),
            (Benchmark::BarnesHut, DatasetId::Bh32K) => barnes_hut(dims, 8 * 1024),
            (Benchmark::BarnesHut, DatasetId::Bh64K) => barnes_hut(dims, 16 * 1024),
            (Benchmark::Bfs, DatasetId::Graph(g)) => bfs(dims, &g.build(), g),
            (Benchmark::PageRank, DatasetId::Graph(g)) => pagerank(dims, &g.build()),
            (Benchmark::SpGemm, DatasetId::Graph(g)) => spgemm(dims, &g.build()),
            (b, d) => panic!("dataset {d:?} does not belong to benchmark {b:?}"),
        };
        Workload {
            name: Self::build_name(bench, ds),
            programs,
        }
    }

    /// Total operations across all tiles.
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }
}

fn owner(v: u32, n_tiles: usize) -> usize {
    v as usize % n_tiles
}

/// Appends a barrier to every tile's stream.
fn barrier_all(programs: &mut [Vec<Op>]) {
    for p in programs.iter_mut() {
        p.push(Op::Barrier);
    }
}

/// Jacobi 3-D stencil (paper: 512×512×64 FP32, scaled). The grid is
/// block-partitioned onto the tile array; each iteration exchanges halo
/// words with the four *physically adjacent* tiles' scratchpads — the
/// access that makes folded torus pathological (§4.6) — then relaxes the
/// interior.
fn jacobi(dims: Dims) -> Vec<Vec<Op>> {
    // Fixed global grid (scaled from the paper's 512×512×64), block-
    // partitioned over however many tiles the array has — so Figure 11's
    // scalability measures strong scaling, as in the paper.
    let (nx, ny, nz) = (64u32, 32u32, 8u32);
    let bx = (nx / dims.cols as u32).max(1);
    let by = (ny / dims.rows as u32).max(1);
    let bz = nz;
    let cells = (bx * by * bz) as u64;
    let iterations = 4;
    let mut programs = vec![Vec::new(); dims.count()];
    for it in 0..iterations {
        for c in dims.iter() {
            let t = dims.index(c) as u64;
            let p = &mut programs[dims.index(c)];
            // The full grid does not fit in scratchpads (512×512×64 in the
            // paper): stream this iteration's block slab in from the LLC.
            for w in 0..cells / 2 {
                p.push(Op::Load(
                    base::FFT_DATA + t * cells + (it as u64 % 2) * cells / 2 + w,
                ));
                if w % 4 == 3 {
                    p.push(Op::Compute(1));
                }
            }
            // Halo exchange: one word per boundary cell per face, read from
            // the physically adjacent tile's scratchpad.
            for (dx, dy, words) in [
                (1i32, 0i32, by * bz),
                (-1, 0, by * bz),
                (0, 1, bx * bz),
                (0, -1, bx * bz),
            ] {
                if let Some(nb) = c.offset(dx, dy, dims) {
                    for w in 0..words {
                        p.push(Op::LoadTile(nb));
                        if w % 4 == 3 {
                            p.push(Op::Compute(1)); // overlap a little work
                        }
                    }
                }
            }
            p.push(Op::WaitAll);
            // Interior relaxation: ~1 cycle/cell, then write the slab back.
            p.push(Op::Compute(bx * by * bz));
            for w in 0..cells / 4 {
                p.push(Op::Store(base::FFT_DATA + t * cells + w));
            }
            p.push(Op::WaitAll);
        }
        barrier_all(&mut programs);
    }
    programs
}

/// Blocked SGEMM (paper: 512³ FP32, scaled to 128³ fixed across array
/// sizes so scalability is measured on the same problem). A and B panels
/// stream from the LLC; C accumulates locally.
fn sgemm(dims: Dims) -> Vec<Vec<Op>> {
    let n = 128u64;
    let kb = 4u64; // k-block
    let br = (n / dims.cols as u64).max(1); // C-block rows per tile
    let bc = (n / dims.rows as u64).max(1); // C-block cols per tile
    let mut programs = vec![Vec::new(); dims.count()];
    for c in dims.iter() {
        let p = &mut programs[dims.index(c)];
        let row0 = c.x as u64 * br;
        let col0 = c.y as u64 * bc;
        for k0 in (0..n).step_by(kb as usize) {
            // Stream the A and B panels for this k-block.
            for r in 0..br {
                for k in 0..kb {
                    p.push(Op::Load(base::MATRIX_A + (row0 + r) * n + k0 + k));
                }
            }
            for k in 0..kb {
                for cc in 0..bc {
                    p.push(Op::Load(base::MATRIX_B + (k0 + k) * n + col0 + cc));
                }
            }
            p.push(Op::WaitAll);
            // 2·br·bc·kb flops at ~2 flops/cycle.
            p.push(Op::Compute((br * bc * kb) as u32));
        }
        // Write back the C block.
        for r in 0..br {
            for cc in 0..bc {
                p.push(Op::Store(base::MATRIX_C + (row0 + r) * n + col0 + cc));
            }
        }
        p.push(Op::WaitAll);
    }
    barrier_all(&mut programs);
    programs
}

/// 2-D FFT (paper: 16K/32K points). Four phases of whole-array streaming
/// (row FFTs, transpose write/read, column FFTs) separated by barriers —
/// the sequential-stream workload that suffers most from bisection
/// congestion in 2-D mesh (Figure 12).
fn fft(dims: Dims, points: u64) -> Vec<Vec<Op>> {
    let n_tiles = dims.count() as u64;
    let per_tile = (points / n_tiles).max(1);
    let log_n = 64 - u64::leading_zeros(points.next_power_of_two()) as u64;
    let mut programs = vec![Vec::new(); dims.count()];
    for phase in 0..2u64 {
        for c in dims.iter() {
            let t = dims.index(c) as u64;
            let p = &mut programs[dims.index(c)];
            for w in 0..per_tile {
                // Phase 0 reads contiguous rows; phase 1 reads the
                // transpose (stride = per_tile · tiles / per_tile = tiles).
                let addr = if phase == 0 {
                    t * per_tile + w
                } else {
                    w * n_tiles + t
                };
                p.push(Op::Load(base::FFT_DATA + addr));
                if w % 2 == 1 {
                    p.push(Op::Compute(1));
                }
            }
            p.push(Op::WaitAll);
            // Butterflies: ~(points/tile) · log2(N) / 4 cycles.
            p.push(Op::Compute((per_tile * log_n / 4).max(1) as u32));
            for w in 0..per_tile {
                let addr = if phase == 0 {
                    t * per_tile + w
                } else {
                    w * n_tiles + t
                };
                p.push(Op::Store(base::FFT_DATA + addr));
            }
            p.push(Op::WaitAll);
        }
        barrier_all(&mut programs);
    }
    programs
}

/// Barnes-Hut (paper: 16K/32K/64K bodies, scaled 4×). Each body performs a
/// tree walk: a chain of *dependent* LLC loads — the latency-bound pattern
/// that benefits from intrinsic-latency reduction.
fn barnes_hut(dims: Dims, bodies: u64) -> Vec<Vec<Op>> {
    let n_tiles = dims.count() as u64;
    let per_tile = (bodies / n_tiles).max(1);
    let depth = 8;
    let tree_words = bodies * 2;
    let mut programs = vec![Vec::new(); dims.count()];
    for c in dims.iter() {
        let t = dims.index(c) as u64;
        let mut rng = SmallRng::seed_from_u64(0xB0D1E5 ^ t);
        let p = &mut programs[dims.index(c)];
        for _ in 0..per_tile {
            for _ in 0..depth {
                let node = rng.gen_range(0..tree_words);
                p.push(Op::Load(base::TREE + node));
                p.push(Op::WaitAll);
                p.push(Op::Compute(2));
            }
            p.push(Op::Compute(8)); // force accumulation
        }
    }
    barrier_all(&mut programs);
    programs
}

/// BFS. The real frontier schedule of the (synthetic) graph drives the
/// trace: per level, each vertex's owner scans its edges with a burst of
/// irregular LLC loads; a barrier separates levels. Social graphs give few
/// levels with huge, imbalanced frontiers; road graphs give hundreds of
/// tiny ones.
fn bfs(dims: Dims, g: &Csr, id: GraphId) -> Vec<Vec<Op>> {
    let n_tiles = dims.count();
    // Social graphs start at a hub (as Graph500 does); road graphs at a
    // central vertex. Fall back to the hub if the first pick lands in a
    // small disconnected island of the synthetic graph.
    let hub = (0..g.vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0);
    let root = if id.category() == "Social" {
        hub
    } else {
        (g.vertices() / 2) as u32
    };
    let mut levels = g.bfs_levels(root);
    let reached: usize = levels.iter().map(Vec::len).sum();
    if reached < g.vertices() / 2 {
        levels = g.bfs_levels(hub);
    }
    let mut programs = vec![Vec::new(); n_tiles];
    for level in levels {
        for &v in &level {
            let p = &mut programs[owner(v, n_tiles)];
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                p.push(Op::Load(base::VISITED + u as u64));
                if i % 4 == 3 {
                    p.push(Op::Compute(1));
                }
            }
        }
        barrier_all(&mut programs);
    }
    programs
}

/// PageRank: one full iteration of edge streaming — every owner loads the
/// rank of each in-neighbor. The highest sustained irregular injection of
/// the suite on social graphs.
fn pagerank(dims: Dims, g: &Csr) -> Vec<Vec<Op>> {
    let n_tiles = dims.count();
    let mut programs = vec![Vec::new(); n_tiles];
    for v in 0..g.vertices() as u32 {
        let p = &mut programs[owner(v, n_tiles)];
        for &u in g.neighbors(v) {
            p.push(Op::Load(base::RANK + u as u64));
        }
        if g.degree(v) > 0 {
            p.push(Op::Compute(2));
            p.push(Op::Store(base::RANK_NEW + v as u64));
        }
    }
    barrier_all(&mut programs);
    programs
}

/// SpGEMM (linked-list formulation): pointer-chasing chains of dependent
/// loads per row-pair, plus a shared atomic allocator counter for output
/// node allocation — the hotspot that caps 32×16 US/RC speedups (§4.6).
/// Rows are sampled 4× to keep the latency-bound runtime tractable; the
/// sampling is uniform so every tile and network sees the same share.
fn spgemm(dims: Dims, g: &Csr) -> Vec<Vec<Op>> {
    let n_tiles = dims.count();
    let mut programs = vec![Vec::new(); n_tiles];
    for v in (0..g.vertices() as u32).step_by(4) {
        let p = &mut programs[owner(v, n_tiles)];
        let mut outputs = 0;
        for &k in g.neighbors(v).iter().take(4) {
            // Chase row k's linked list.
            for &u in g.neighbors(k).iter().take(6) {
                p.push(Op::Load(base::COLS + u as u64));
                p.push(Op::WaitAll);
                p.push(Op::Compute(1));
                outputs += 1;
            }
        }
        // Allocate output nodes from the shared free list.
        if outputs > 0 {
            p.push(Op::Amo(base::ALLOC));
            p.push(Op::WaitAll);
        }
    }
    barrier_all(&mut programs);
    programs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Dims {
        Dims::new(8, 4)
    }

    #[test]
    fn every_benchmark_builds() {
        for b in Benchmark::ALL {
            let ds = b.datasets()[0];
            let w = Workload::build(b, ds, dims());
            assert_eq!(w.programs.len(), 32);
            assert!(w.total_ops() > 0, "{}", w.name);
        }
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn mismatched_dataset_panics() {
        Workload::build(Benchmark::Jacobi, DatasetId::Fft16K, dims());
    }

    #[test]
    fn jacobi_uses_adjacent_tiles_only() {
        let w = Workload::build(Benchmark::Jacobi, DatasetId::Default, dims());
        for (i, p) in w.programs.iter().enumerate() {
            let c = dims().coord(i);
            for op in p {
                if let Op::LoadTile(t) = op {
                    assert_eq!(c.manhattan(*t), 1, "tile {c} loads from {t}");
                }
            }
        }
    }

    #[test]
    fn sgemm_streams_from_llc() {
        let w = Workload::build(Benchmark::Sgemm, DatasetId::Default, dims());
        let loads = w.programs[0]
            .iter()
            .filter(|o| matches!(o, Op::Load(_)))
            .count();
        let stores = w.programs[0]
            .iter()
            .filter(|o| matches!(o, Op::Store(_)))
            .count();
        assert!(loads > 500, "streaming loads: {loads}");
        assert!(stores > 0);
    }

    #[test]
    fn bh_is_dependent_chains() {
        let w = Workload::build(Benchmark::BarnesHut, DatasetId::Bh16K, dims());
        let p = &w.programs[0];
        let loads = p.iter().filter(|o| matches!(o, Op::Load(_))).count();
        let waits = p.iter().filter(|o| matches!(o, Op::WaitAll)).count();
        assert!(waits >= loads, "every tree load is a dependence point");
    }

    #[test]
    fn bfs_has_balanced_barriers_and_real_imbalance() {
        let g = GraphId::Ca.build();
        let programs = bfs(dims(), &g, GraphId::Ca);
        let barrier_counts: Vec<usize> = programs
            .iter()
            .map(|p| p.iter().filter(|o| matches!(o, Op::Barrier)).count())
            .collect();
        assert!(barrier_counts.windows(2).all(|w| w[0] == w[1]));
        assert!(barrier_counts[0] > 50, "road graph has many levels");
    }

    #[test]
    fn spgemm_has_the_atomic_hotspot() {
        let w = Workload::build(Benchmark::SpGemm, DatasetId::Graph(GraphId::Ca), dims());
        let mut amo_addrs: Vec<u64> = w
            .programs
            .iter()
            .flatten()
            .filter_map(|o| match o {
                Op::Amo(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert!(!amo_addrs.is_empty());
        amo_addrs.dedup();
        assert_eq!(amo_addrs.len(), 1, "all atomics hit one shared address");
    }

    #[test]
    fn fft_sizes_scale_ops() {
        let small = Workload::build(Benchmark::Fft, DatasetId::Fft16K, dims());
        let large = Workload::build(Benchmark::Fft, DatasetId::Fft32K, dims());
        assert!(large.total_ops() > small.total_ops());
    }

    #[test]
    fn workload_names_include_dataset() {
        let w = Workload::build(Benchmark::Bfs, DatasetId::Graph(GraphId::Os), dims());
        assert_eq!(w.name, "bfs(OS)");
        let j = Workload::build(Benchmark::Jacobi, DatasetId::Default, dims());
        assert_eq!(j.name, "jacobi");
    }

    #[test]
    fn datasets_match_table5() {
        assert_eq!(Benchmark::Fft.datasets().len(), 2);
        assert_eq!(Benchmark::BarnesHut.datasets().len(), 3);
        assert_eq!(Benchmark::Bfs.datasets().len(), 5);
        assert_eq!(Benchmark::SpGemm.datasets().len(), 3);
    }
}
