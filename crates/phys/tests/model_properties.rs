//! Property-based tests of the physical models: monotonicity, scaling
//! laws, and internal consistency across randomized configurations.

// Randomized sweeps are too slow at interpreter speed.
#![cfg(not(miri))]

use proptest::prelude::*;
use ruche_noc::geometry::{Dims, Dir};
use ruche_noc::prelude::*;
use ruche_phys::{
    area_at, min_cycle_time_fo4, router_area, tile_area_increase, EnergyModel, RouterParams, Tech,
};

fn arb_config() -> impl Strategy<Value = NetworkConfig> {
    (0u8..=5, 2u16..=4, any::<bool>()).prop_map(|(kind, rf, pop)| {
        let dims = Dims::new(12, 12);
        let scheme = if pop {
            CrossbarScheme::FullyPopulated
        } else {
            CrossbarScheme::Depopulated
        };
        match kind {
            0 => NetworkConfig::mesh(dims),
            1 => NetworkConfig::multi_mesh(dims),
            2 => NetworkConfig::torus(dims),
            3 => NetworkConfig::half_torus(dims),
            4 => NetworkConfig::full_ruche(dims, rf, scheme),
            _ => NetworkConfig::half_ruche(dims, rf, scheme),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Area is positive, finite, and strictly increasing in channel width.
    #[test]
    fn area_monotone_in_width(cfg in arb_config()) {
        let tech = Tech::n12();
        let mut prev = 0.0;
        for bits in [32u32, 64, 128, 256] {
            let mut c = cfg.clone();
            c.channel_width_bits = bits;
            let a = router_area(&RouterParams::of(&c), &tech).total();
            prop_assert!(a.is_finite() && a > prev, "width {bits}: {a} > {prev}");
            prev = a;
        }
    }

    /// Tighter timing targets never decrease area; below minimum is a
    /// violation; far above minimum converges to the relaxed area.
    #[test]
    fn area_vs_timing_shape(cfg in arb_config()) {
        let tech = Tech::n12();
        let p = RouterParams::of(&cfg);
        let t_min = min_cycle_time_fo4(&p, &tech);
        prop_assert!(t_min > 5.0 && t_min < 60.0, "plausible FO4: {t_min}");
        prop_assert!(area_at(&p, &tech, t_min - 0.5).is_none());
        let mut prev = f64::INFINITY;
        for t in [t_min + 1.0, t_min + 4.0, t_min * 2.0, 200.0] {
            let a = area_at(&p, &tech, t).expect("feasible").total();
            prop_assert!(a <= prev + 1e-9, "monotone: {a} <= {prev} at {t}");
            prev = a;
        }
        let relaxed = router_area(&p, &tech).total();
        let far = area_at(&p, &tech, 400.0).unwrap().total();
        prop_assert!((far - relaxed) / relaxed < 0.1, "converges to relaxed");
    }

    /// Per-hop energies are positive and increase with the output's mux
    /// size within one router.
    #[test]
    fn energy_sanity(cfg in arb_config()) {
        let model = EnergyModel::new(&cfg, Tech::n12());
        let conn = ruche_noc::crossbar::Connectivity::of(&cfg);
        let mut by_mux: Vec<(usize, f64)> = cfg
            .ports()
            .into_iter()
            .filter(|&d| d != Dir::P)
            .map(|d| (conn.mux_inputs(d), model.router_energy_pj(d)))
            .collect();
        by_mux.sort_by_key(|&(k, _)| k);
        for w in by_mux.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 - 1e-9, "bigger mux, more energy: {by_mux:?}");
        }
    }

    /// Tile area increase is ≥ 1 for every topology, exactly 1 for mesh,
    /// and bounded (< 1.25) for all evaluated configurations.
    #[test]
    fn tile_area_bounds(cfg in arb_config()) {
        let inc = tile_area_increase(&cfg, &Tech::n12());
        prop_assert!(inc >= 1.0 - 1e-12);
        prop_assert!(inc < 1.25, "{}: {inc}", cfg.label());
        if matches!(cfg.topology, TopologyKind::Mesh) {
            prop_assert!((inc - 1.0).abs() < 1e-12);
        }
    }

    /// Wormhole routers always reach lower minimum cycle time than the VC
    /// torus router at the same width.
    #[test]
    fn wormhole_beats_vc_cycle_time(rf in 2u16..=4, pop in any::<bool>()) {
        let dims = Dims::new(12, 12);
        let tech = Tech::n12();
        let scheme = if pop { CrossbarScheme::FullyPopulated } else { CrossbarScheme::Depopulated };
        let ruche = min_cycle_time_fo4(
            &RouterParams::of(&NetworkConfig::full_ruche(dims, rf, scheme)),
            &tech,
        );
        let torus = min_cycle_time_fo4(&RouterParams::of(&NetworkConfig::torus(dims)), &tech);
        prop_assert!(ruche < torus);
    }
}
