//! Figure 6: Full Ruche synthetic-traffic analysis on 8×8 and 16×16.

use super::curves::CurveFigure;
use crate::opts::Opts;
use crate::out::banner;
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_traffic::Pattern;

/// The Figure 6 network set, paper order.
pub fn configs(dims: Dims) -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::multi_mesh(dims),
        NetworkConfig::torus(dims),
        NetworkConfig::ruche_one(dims),
        NetworkConfig::full_ruche(dims, 2, FullyPopulated),
        NetworkConfig::full_ruche(dims, 2, Depopulated),
        NetworkConfig::full_ruche(dims, 3, FullyPopulated),
        NetworkConfig::full_ruche(dims, 3, Depopulated),
    ]
}

fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::UniformRandom,
        Pattern::BitComplement,
        Pattern::Transpose,
        Pattern::Tornado,
    ]
}

/// Prints the Figure 6 reproduction and writes per-(size, pattern) curves.
pub fn run(opts: Opts) {
    banner(
        "Figure 6",
        "synthetic traffic: mesh / torus / multi-mesh / Full Ruche (single-flit, 2-deep FIFOs)",
    );
    CurveFigure {
        sizes: if opts.quick {
            vec![Dims::new(8, 8)]
        } else {
            vec![Dims::new(8, 8), Dims::new(16, 16)]
        },
        rates: if opts.quick {
            vec![0.02, 0.10, 0.20, 0.30, 0.45]
        } else {
            (1..=25).map(|i| 0.02 * i as f64).collect()
        },
        patterns: patterns().into_iter().map(|p| (p, p.name())).collect(),
        configs,
        plotted: Pattern::UniformRandom,
        artifact: "fig6_synthetic_curves.csv",
    }
    .run(opts);
    println!("paper shape to check: UR saturation mesh ≈ 0.28 / torus ≈ 0.42 /");
    println!("ruche1-pop ≈ 0.48 on 8x8; on 16x16 the torus VC-router handicap widens");
    println!("(mesh ≈ 0.15, torus ≈ 0.19, ruche1-pop ≈ 0.28, multi-mesh ≈ ruche1).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_config_set_matches_paper() {
        let cfgs = configs(Dims::new(8, 8));
        let labels: Vec<String> = cfgs.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "mesh",
                "multi-mesh",
                "torus",
                "ruche1-pop",
                "ruche2-pop",
                "ruche2-depop",
                "ruche3-pop",
                "ruche3-depop"
            ]
        );
        for c in cfgs {
            c.validate().unwrap();
        }
    }

    #[test]
    fn figure6_patterns_match_paper() {
        let names: Vec<&str> = patterns().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["uniform-random", "bit-complement", "transpose", "tornado"]
        );
    }
}
