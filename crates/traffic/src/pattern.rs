//! Synthetic traffic patterns (§4.1, §4.5).

use rand::Rng;
use ruche_noc::geometry::{Coord, Dims};
use ruche_noc::routing::Dest;

/// A synthetic destination-selection pattern.
///
/// Patterns map a source tile to a destination; permutation patterns are
/// deterministic, random patterns draw from the given RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly random destination tile (≠ source). The paper's
    /// *uniform random* and manycore *tile-to-tile* patterns.
    UniformRandom,
    /// `(x, y) → (X-1-x, Y-1-y)` — worst-case for DOR bisections.
    BitComplement,
    /// `(x, y) → (y, x)` — requires a square array.
    Transpose,
    /// `(x, y) → ((x + ⌈X/2⌉ - 1) mod X, (y + ⌈Y/2⌉ - 1) mod Y)` —
    /// adversarial for rings and meshes.
    Tornado,
    /// All traffic to a single tile.
    Hotspot(Coord),
    /// Uniformly random north/south edge memory endpoint — the paper's
    /// all-to-edge *tile-to-memory* pattern (§4.5). Requires a network
    /// built with edge memory ports.
    TileToMemory,
    /// Uniformly random physically adjacent tile — the communication
    /// signature that exposes the folded-torus neighbor pathology.
    Neighbor,
}

/// Errors from [`Pattern::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// Transpose needs `cols == rows`.
    NeedsSquareArray,
    /// The hotspot target lies outside the array.
    HotspotOutOfBounds(Coord),
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::NeedsSquareArray => write!(f, "transpose requires a square array"),
            PatternError::HotspotOutOfBounds(c) => write!(f, "hotspot target {c} out of bounds"),
        }
    }
}

impl std::error::Error for PatternError {}

impl Pattern {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::UniformRandom => "uniform-random",
            Pattern::BitComplement => "bit-complement",
            Pattern::Transpose => "transpose",
            Pattern::Tornado => "tornado",
            Pattern::Hotspot(_) => "hotspot",
            Pattern::TileToMemory => "tile-to-memory",
            Pattern::Neighbor => "neighbor",
        }
    }

    /// Whether this pattern targets edge memory endpoints.
    pub fn needs_edge_ports(&self) -> bool {
        matches!(self, Pattern::TileToMemory)
    }

    /// Checks applicability to the given array.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] if the pattern cannot run on `dims`.
    pub fn validate(&self, dims: Dims) -> Result<(), PatternError> {
        match self {
            Pattern::Transpose if dims.cols != dims.rows => Err(PatternError::NeedsSquareArray),
            Pattern::Hotspot(c) if !dims.contains(*c) => Err(PatternError::HotspotOutOfBounds(*c)),
            _ => Ok(()),
        }
    }

    /// Picks a destination for a packet from `src`, or `None` if the
    /// pattern maps `src` to itself (such sources stay silent).
    pub fn dest<R: Rng + ?Sized>(&self, src: Coord, dims: Dims, rng: &mut R) -> Option<Dest> {
        match self {
            Pattern::UniformRandom => {
                if dims.count() < 2 {
                    return None;
                }
                loop {
                    let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
                    if d != src {
                        return Some(Dest::tile(d));
                    }
                }
            }
            Pattern::BitComplement => {
                let d = Coord::new(dims.cols - 1 - src.x, dims.rows - 1 - src.y);
                (d != src).then_some(Dest::tile(d))
            }
            Pattern::Transpose => {
                let d = Coord::new(src.y, src.x);
                (d != src).then_some(Dest::tile(d))
            }
            Pattern::Tornado => {
                let dx = (src.x + dims.cols.div_ceil(2) - 1) % dims.cols;
                let dy = (src.y + dims.rows.div_ceil(2) - 1) % dims.rows;
                let d = Coord::new(dx, dy);
                (d != src).then_some(Dest::tile(d))
            }
            Pattern::Hotspot(target) => (*target != src).then_some(Dest::tile(*target)),
            Pattern::TileToMemory => {
                let col = rng.gen_range(0..dims.cols);
                Some(if rng.gen_bool(0.5) {
                    Dest::north_edge(col)
                } else {
                    Dest::south_edge(col, dims.rows)
                })
            }
            Pattern::Neighbor => {
                let candidates: Vec<Coord> = [(1, 0), (-1, 0), (0, 1), (0, -1)]
                    .iter()
                    .filter_map(|&(dx, dy)| src.offset(dx, dy, dims))
                    .collect();
                candidates
                    .get(rng.gen_range(0..candidates.len()))
                    .copied()
                    .map(Dest::tile)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn uniform_random_never_self() {
        let dims = Dims::new(4, 4);
        let mut r = rng();
        for _ in 0..200 {
            let src = Coord::new(2, 2);
            let d = Pattern::UniformRandom.dest(src, dims, &mut r).unwrap();
            assert_ne!(d.coord, src);
            assert!(d.edge.is_none());
        }
    }

    #[test]
    fn bit_complement_mapping() {
        let dims = Dims::new(8, 8);
        let d = Pattern::BitComplement
            .dest(Coord::new(1, 2), dims, &mut rng())
            .unwrap();
        assert_eq!(d.coord, Coord::new(6, 5));
        // Centre of an odd array maps to itself -> silent.
        let dims = Dims::new(5, 5);
        assert!(Pattern::BitComplement
            .dest(Coord::new(2, 2), dims, &mut rng())
            .is_none());
    }

    #[test]
    fn transpose_mapping_and_validation() {
        let dims = Dims::new(8, 8);
        let d = Pattern::Transpose
            .dest(Coord::new(3, 5), dims, &mut rng())
            .unwrap();
        assert_eq!(d.coord, Coord::new(5, 3));
        assert!(Pattern::Transpose
            .dest(Coord::new(4, 4), dims, &mut rng())
            .is_none());
        assert_eq!(
            Pattern::Transpose.validate(Dims::new(8, 4)),
            Err(PatternError::NeedsSquareArray)
        );
        assert!(Pattern::Transpose.validate(dims).is_ok());
    }

    #[test]
    fn tornado_mapping() {
        let dims = Dims::new(8, 8);
        let d = Pattern::Tornado
            .dest(Coord::new(0, 0), dims, &mut rng())
            .unwrap();
        assert_eq!(d.coord, Coord::new(3, 3));
        let d = Pattern::Tornado
            .dest(Coord::new(6, 6), dims, &mut rng())
            .unwrap();
        assert_eq!(d.coord, Coord::new(1, 1));
    }

    #[test]
    fn hotspot_validation() {
        assert!(matches!(
            Pattern::Hotspot(Coord::new(9, 0)).validate(Dims::new(4, 4)),
            Err(PatternError::HotspotOutOfBounds(_))
        ));
        let d = Pattern::Hotspot(Coord::new(1, 1))
            .dest(Coord::new(0, 0), Dims::new(4, 4), &mut rng())
            .unwrap();
        assert_eq!(d.coord, Coord::new(1, 1));
    }

    #[test]
    fn tile_to_memory_targets_edges() {
        let dims = Dims::new(16, 8);
        let mut r = rng();
        let mut north = 0;
        let mut south = 0;
        for _ in 0..200 {
            let d = Pattern::TileToMemory
                .dest(Coord::new(5, 4), dims, &mut r)
                .unwrap();
            match d.edge {
                Some(ruche_noc::routing::EdgePort::North) => {
                    north += 1;
                    assert_eq!(d.coord.y, 0);
                }
                Some(ruche_noc::routing::EdgePort::South) => {
                    south += 1;
                    assert_eq!(d.coord.y, 7);
                }
                None => panic!("tile destination from TileToMemory"),
            }
        }
        assert!(north > 50 && south > 50, "both edges used: {north}/{south}");
        assert!(Pattern::TileToMemory.needs_edge_ports());
    }

    #[test]
    fn neighbor_is_adjacent() {
        let dims = Dims::new(4, 4);
        let mut r = rng();
        for _ in 0..100 {
            let src = Coord::new(0, 0);
            let d = Pattern::Neighbor.dest(src, dims, &mut r).unwrap();
            assert_eq!(src.manhattan(d.coord), 1);
        }
    }
}
