//! Figure 9: Half Ruche synthetic traffic on 16×8, 32×16, and 64×8.

use super::curves::CurveFigure;
use crate::opts::Opts;
use crate::out::banner;
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_traffic::Pattern;

/// The Figure 9 network set for one array size (adds Ruche-4 on 64×8 as
/// the paper does).
pub fn configs(dims: Dims) -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    let mut v = vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::half_torus(dims),
        NetworkConfig::half_ruche(dims, 2, Depopulated),
        NetworkConfig::half_ruche(dims, 2, FullyPopulated),
        NetworkConfig::half_ruche(dims, 3, Depopulated),
        NetworkConfig::half_ruche(dims, 3, FullyPopulated),
    ];
    if dims.cols == 64 {
        v.push(NetworkConfig::half_ruche(dims, 4, Depopulated));
        v.push(NetworkConfig::half_ruche(dims, 4, FullyPopulated));
    }
    v
}

/// Prints the Figure 9 reproduction and writes the curves.
pub fn run(opts: Opts) {
    banner(
        "Figure 9",
        "Half Ruche synthetic traffic: tile-to-tile and tile-to-memory",
    );
    CurveFigure {
        sizes: if opts.quick {
            vec![Dims::new(16, 8)]
        } else {
            vec![Dims::new(16, 8), Dims::new(32, 16), Dims::new(64, 8)]
        },
        rates: if opts.quick {
            vec![0.02, 0.08, 0.16, 0.30]
        } else {
            (1..=20).map(|i| 0.02 * i as f64).collect()
        },
        patterns: vec![
            (Pattern::UniformRandom, "tile-to-tile"),
            (Pattern::TileToMemory, "tile-to-memory"),
        ],
        configs: |dims| {
            let mut cfgs = configs(dims);
            for cfg in &mut cfgs {
                cfg.edge_memory_ports = true;
            }
            cfgs
        },
        plotted: Pattern::TileToMemory,
        artifact: "fig9_half_ruche_curves.csv",
    }
    .run(opts);
    println!("paper shape: Half Ruche roughly doubles tile-to-tile saturation over mesh;");
    println!("tile-to-memory approaches the compute:memory bound (~21% on 16x8, ~11% on");
    println!("32x16); half-torus lands between mesh and ruche2; ruche4 keeps scaling 64x8.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ruche4_only_on_the_wide_array() {
        assert_eq!(configs(Dims::new(16, 8)).len(), 6);
        assert_eq!(configs(Dims::new(32, 16)).len(), 6);
        let wide = configs(Dims::new(64, 8));
        assert_eq!(wide.len(), 8);
        assert!(wide.iter().any(|c| c.label() == "half-ruche4-depop"));
        for mut c in wide {
            c.edge_memory_ports = true;
            c.validate().unwrap();
        }
    }
}
