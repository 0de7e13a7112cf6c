//! Synthetic graph generation and CSR storage.
//!
//! Substitutes for the UF Sparse Matrix Collection inputs of the paper's
//! Table 5 (see DESIGN.md §1): R-MAT power-law graphs stand in for the
//! social networks (LJ, HW, PK), perturbed 2-D lattices for the road
//! networks (CA, RC, US), and a 3-D finite-element mesh for `offshore`.
//! Sizes are scaled down ~100× uniformly; degree distribution, diameter
//! class, and locality structure — the properties that drive BFS/PageRank/
//! SpGEMM network behaviour — are preserved.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A directed graph in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list over `n` vertices; parallel edges
    /// and self-loops are kept (they exist in the real datasets too).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(s, d) in edges {
            assert!((s as usize) < n && (d as usize) < n, "edge out of range");
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; edges.len()];
        for &(s, d) in edges {
            targets[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Breadth-first levels from `root`: `levels[i]` is the frontier at
    /// depth `i`. Unreached vertices appear in no level.
    pub fn bfs_levels(&self, root: u32) -> Vec<Vec<u32>> {
        let n = self.vertices();
        let mut seen = vec![false; n];
        let mut levels = Vec::new();
        let mut frontier = vec![root];
        seen[root as usize] = true;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in self.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        next.push(u);
                    }
                }
            }
            levels.push(std::mem::take(&mut frontier));
            frontier = next;
        }
        levels
    }
}

/// R-MAT generator (power-law "social network" graphs), symmetrized.
pub fn rmat(n_log2: u32, edges: usize, seed: u64) -> Csr {
    let n = 1usize << n_log2;
    let (a, b, c) = (0.57, 0.19, 0.19); // classic Graph500 parameters
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut list = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let (mut x, mut y) = (0usize, 0usize);
        for bit in (0..n_log2).rev() {
            let r: f64 = rng.gen();
            let (dx, dy) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            x |= dx << bit;
            y |= dy << bit;
        }
        list.push((x as u32, y as u32));
        list.push((y as u32, x as u32));
    }
    Csr::from_edges(n, &list)
}

/// Road-network generator: a `w × h` lattice with 8-neighbor shortcuts
/// removed at random, yielding a low-degree, high-diameter, near-planar
/// graph like roadNet-CA / road-central / road-usa.
pub fn road(w: usize, h: usize, seed: u64) -> Csr {
    let n = w * h;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut list = Vec::with_capacity(n * 3);
    let id = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            // Grid edges, each kept with high probability (broken roads).
            if x + 1 < w && rng.gen_bool(0.92) {
                list.push((id(x, y), id(x + 1, y)));
                list.push((id(x + 1, y), id(x, y)));
            }
            if y + 1 < h && rng.gen_bool(0.92) {
                list.push((id(x, y), id(x, y + 1)));
                list.push((id(x, y + 1), id(x, y)));
            }
            // Occasional diagonal (intersections/ramps).
            if x + 1 < w && y + 1 < h && rng.gen_bool(0.08) {
                list.push((id(x, y), id(x + 1, y + 1)));
                list.push((id(x + 1, y + 1), id(x, y)));
            }
        }
    }
    Csr::from_edges(n, &list)
}

/// Finite-element mesh generator (`offshore`-like): a 3-D structured grid
/// where each interior cell connects to its 3-D stencil neighborhood,
/// giving a uniform degree around 16.
pub fn fem(nx: usize, ny: usize, nz: usize, seed: u64) -> Csr {
    let n = nx * ny * nz;
    let mut rng = SmallRng::seed_from_u64(seed);
    let id = |x: usize, y: usize, z: usize| (z * ny * nx + y * nx + x) as u32;
    let mut list = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                for (dx, dy, dz) in [
                    (1, 0, 0),
                    (0, 1, 0),
                    (0, 0, 1),
                    (1, 1, 0),
                    (1, 0, 1),
                    (0, 1, 1),
                    (1, 1, 1),
                    (1, -1i64, 0),
                ] {
                    let (x2, y2, z2) = (x as i64 + dx as i64, y as i64 + dy, z as i64 + dz as i64);
                    if x2 < 0 || y2 < 0 || z2 < 0 {
                        continue;
                    }
                    let (x2, y2, z2) = (x2 as usize, y2 as usize, z2 as usize);
                    if x2 >= nx || y2 >= ny || z2 >= nz {
                        continue;
                    }
                    if rng.gen_bool(0.95) {
                        list.push((id(x, y, z), id(x2, y2, z2)));
                        list.push((id(x2, y2, z2), id(x, y, z)));
                    }
                }
            }
        }
    }
    Csr::from_edges(n, &list)
}

/// The graph datasets of Table 5 (scaled ~100×; see DESIGN.md §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphId {
    /// `offshore` — scientific FEM mesh.
    Os,
    /// `roadNet-CA`.
    Ca,
    /// `road-central`.
    Rc,
    /// `road-usa`.
    Us,
    /// `ljournal-2008`.
    Lj,
    /// `hollywood-2009`.
    Hw,
    /// `soc-Pokec`.
    Pk,
}

impl GraphId {
    /// All graphs in Table 5 order.
    pub const ALL: [GraphId; 7] = [
        GraphId::Os,
        GraphId::Ca,
        GraphId::Rc,
        GraphId::Us,
        GraphId::Lj,
        GraphId::Hw,
        GraphId::Pk,
    ];

    /// The paper's two-letter label.
    pub fn label(self) -> &'static str {
        match self {
            GraphId::Os => "OS",
            GraphId::Ca => "CA",
            GraphId::Rc => "RC",
            GraphId::Us => "US",
            GraphId::Lj => "LJ",
            GraphId::Hw => "HW",
            GraphId::Pk => "PK",
        }
    }

    /// Dataset category (drives the generator used).
    pub fn category(self) -> &'static str {
        match self {
            GraphId::Os => "Scientific",
            GraphId::Ca | GraphId::Rc | GraphId::Us => "Road",
            GraphId::Lj | GraphId::Hw | GraphId::Pk => "Social",
        }
    }

    /// Generates the (scaled) graph.
    pub fn build(self) -> Csr {
        match self {
            // offshore: 260K/4.2M → 2.7K nodes, ~40K edges, degree ~16.
            GraphId::Os => fem(15, 15, 12, 11),
            // roadNet-CA: 1.9M/5.5M → 19K nodes, ~55K edges.
            GraphId::Ca => road(160, 120, 12),
            // road-central: 14.1M/33.8M → 141K nodes, ~340K edges.
            GraphId::Rc => road(430, 330, 13),
            // road-usa: 23.9M/57.7M → 239K nodes, ~580K edges.
            GraphId::Us => road(560, 430, 14),
            // ljournal-2008: 5.3M/79M → 64K nodes, ~790K edges.
            GraphId::Lj => rmat(16, 395_000, 15),
            // hollywood-2009: 1.1M/113.9M → 16K nodes, ~1.14M edges (dense).
            GraphId::Hw => rmat(14, 570_000, 16),
            // soc-Pokec: 1.6M/30.6M → 16K nodes, ~306K edges.
            GraphId::Pk => rmat(14, 153_000, 17),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (3, 0)]);
        assert_eq!(g.vertices(), 4);
        assert_eq!(g.edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let levels = g.bfs_levels(0);
        assert_eq!(levels, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn rmat_is_power_law_ish() {
        let g = rmat(12, 40_000, 1);
        assert_eq!(g.vertices(), 4096);
        assert_eq!(g.edges(), 80_000);
        // Heavy-tailed: max degree far above the mean.
        let mean = g.edges() as f64 / g.vertices() as f64;
        assert!(
            g.max_degree() as f64 > 10.0 * mean,
            "max {}",
            g.max_degree()
        );
        // And BFS from a hub reaches most of the graph in few levels.
        let hub = (0..4096u32).max_by_key(|&v| g.degree(v)).unwrap();
        let levels = g.bfs_levels(hub);
        assert!(levels.len() < 10, "social diameter small: {}", levels.len());
    }

    #[test]
    fn road_is_low_degree_high_diameter() {
        let g = road(60, 40, 2);
        assert_eq!(g.vertices(), 2400);
        let mean = g.edges() as f64 / g.vertices() as f64;
        assert!(mean < 5.0, "mean degree {mean}");
        assert!(g.max_degree() <= 10);
        let levels = g.bfs_levels(0);
        assert!(levels.len() > 50, "road diameter large: {}", levels.len());
    }

    #[test]
    fn fem_degree_is_uniform_mid_teens() {
        let g = fem(10, 10, 8, 3);
        let mean = g.edges() as f64 / g.vertices() as f64;
        assert!((10.0..18.0).contains(&mean), "mean degree {mean}");
        assert!(g.max_degree() <= 16);
    }

    #[test]
    fn table5_registry_builds_and_categorizes() {
        for id in GraphId::ALL {
            match id.category() {
                "Road" => {
                    let g = id.build();
                    assert!(g.edges() as f64 / g.vertices() as f64 <= 5.0, "{:?}", id);
                }
                "Social" => {
                    // Social graphs are generated lazily in other tests
                    // (they are the big ones); here just check labels.
                    assert!(matches!(id.label(), "LJ" | "HW" | "PK"));
                }
                "Scientific" => {
                    let g = id.build();
                    assert!(g.edges() as f64 / g.vertices() as f64 >= 10.0);
                }
                other => panic!("unknown category {other}"),
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(rmat(10, 1000, 7), rmat(10, 1000, 7));
        assert_eq!(road(20, 20, 7), road(20, 20, 7));
        assert_eq!(fem(5, 5, 5, 7), fem(5, 5, 5, 7));
    }
}
