//! Property-based tests of the traffic patterns: destinations stay in
//! bounds, permutation patterns are involutions/bijections, and the
//! testbench conserves packets at any load.

// Full testbench property sweeps are too slow at interpreter speed.
#![cfg(not(miri))]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ruche_noc::prelude::*;
use ruche_traffic::{run, Pattern, Testbench};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pattern produces in-bounds destinations (tile destinations
    /// inside the array; edge destinations on the edge rows).
    #[test]
    fn destinations_in_bounds(
        cols in 2u16..=20,
        rows in 2u16..=20,
        sx in 0u16..20,
        sy in 0u16..20,
        seed in any::<u64>(),
    ) {
        let dims = Dims::new(cols, rows);
        let src = Coord::new(sx % cols, sy % rows);
        let mut rng = SmallRng::seed_from_u64(seed);
        for pattern in [
            Pattern::UniformRandom,
            Pattern::BitComplement,
            Pattern::Tornado,
            Pattern::TileToMemory,
            Pattern::Neighbor,
            Pattern::Hotspot(Coord::new(0, 0)),
        ] {
            if let Some(d) = pattern.dest(src, dims, &mut rng) {
                prop_assert!(dims.contains(d.coord), "{pattern:?} -> {d}");
                match d.edge {
                    Some(ruche_noc::routing::EdgePort::North) => prop_assert_eq!(d.coord.y, 0),
                    Some(ruche_noc::routing::EdgePort::South) => {
                        prop_assert_eq!(d.coord.y, rows - 1)
                    }
                    None => {}
                }
            }
        }
    }

    /// Bit complement is an involution; transpose (square arrays) is too;
    /// tornado is a bijection.
    #[test]
    fn permutation_patterns_are_well_formed(k in 2u16..=16, seed in any::<u64>()) {
        let dims = Dims::new(k, k);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tornado_dests = std::collections::HashSet::new();
        for src in dims.iter() {
            if let Some(d) = Pattern::BitComplement.dest(src, dims, &mut rng) {
                let back = Pattern::BitComplement.dest(d.coord, dims, &mut rng).unwrap();
                prop_assert_eq!(back.coord, src, "bit complement is an involution");
            }
            if let Some(d) = Pattern::Transpose.dest(src, dims, &mut rng) {
                let back = Pattern::Transpose.dest(d.coord, dims, &mut rng).unwrap();
                prop_assert_eq!(back.coord, src, "transpose is an involution");
            }
            if let Some(d) = Pattern::Tornado.dest(src, dims, &mut rng) {
                prop_assert!(tornado_dests.insert(d.coord), "tornado is injective");
            }
        }
    }

    /// The testbench conserves packets at any rate: delivered + lost
    /// equals the measured-window population, and accepted throughput
    /// never exceeds offered by more than the drained backlog allows.
    #[test]
    fn testbench_accounting(rate in 1u32..=100, seed in any::<u64>()) {
        let cfg = NetworkConfig::mesh(Dims::new(6, 6));
        let tb = Testbench::builder(Pattern::UniformRandom, rate as f64 / 100.0)
            .quick()
            .seed(seed)
            .build()
            .unwrap();
        let res = run(&cfg, &tb).unwrap();
        prop_assert!(res.delivered + res.lost > 0 || rate < 2);
        prop_assert!(res.accepted <= 1.0 + 1e-9);
        if rate <= 10 {
            prop_assert_eq!(res.lost, 0, "low load always drains");
            prop_assert!(!res.saturated);
        }
    }
}
