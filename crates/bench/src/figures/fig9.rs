//! Figure 9: Half Ruche synthetic traffic on 16×8, 32×16, and 64×8.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::sweep::{self, SweepRunner};
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_stats::{fmt_f, Csv, Table};
use ruche_traffic::{CurvePoint, Pattern, Testbench};

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
    let sizes = if opts.quick {
        vec![Dims::new(16, 8)]
    } else {
        vec![Dims::new(16, 8), Dims::new(32, 16), Dims::new(64, 8)]
    };
    let rates: Vec<f64> = if opts.quick {
        vec![0.02, 0.08, 0.16, 0.30]
    } else {
        (1..=20).map(|i| 0.02 * i as f64).collect()
    };
    // Same fan-out-then-replay structure as Figure 6.
    let mut jobs = Vec::new();
    for &dims in &sizes {
        for pattern in [Pattern::UniformRandom, Pattern::TileToMemory] {
            for mut cfg in configs(dims) {
                cfg.edge_memory_ports = true;
                // The proto's own rate is never run — curve_jobs replaces
                // it with each sweep rate.
                let b = Testbench::builder(pattern, 1.0);
                let proto = if opts.quick { b.quick() } else { b }
                    .build()
                    .expect("figure testbench is valid");
                jobs.extend(sweep::curve_jobs(&cfg, &proto, &rates));
                jobs.push(sweep::saturation_job(&cfg, pattern, 3));
            }
        }
    }
    let mut runner = SweepRunner::new(opts);
    let results = runner.run_all(&jobs);
    let mut next = results.iter();

    let mut csv = Csv::new();
    csv.row([
        "size",
        "pattern",
        "config",
        "offered",
        "accepted",
        "avg_latency",
    ]);
    for &dims in &sizes {
        for pattern in [Pattern::UniformRandom, Pattern::TileToMemory] {
            let pname = if pattern == Pattern::UniformRandom {
                "tile-to-tile"
            } else {
                "tile-to-memory"
            };
            let mut t = Table::new(vec!["config", "zero-load lat", "saturation thpt"]);
            let mut plot = ruche_stats::AsciiPlot::new(
                &format!("{dims} {pname}"),
                "offered load (packets/tile/cycle)",
                "avg latency (cycles)",
            );
            for mut cfg in configs(dims) {
                cfg.edge_memory_ports = true;
                let curve: Vec<CurvePoint> = rates
                    .iter()
                    .map(|_| sweep::curve_point(next.next().expect("curve result")))
                    .collect();
                for pt in &curve {
                    csv.row([
                        format!("{dims}"),
                        pname.into(),
                        cfg.label(),
                        fmt_f(pt.offered, 3),
                        fmt_f(pt.accepted, 4),
                        fmt_f(pt.avg_latency, 2),
                    ]);
                }
                let pts: Vec<(f64, f64)> = curve
                    .iter()
                    .filter(|p| !p.saturated)
                    .map(|p| (p.offered, p.avg_latency))
                    .collect();
                plot.series(&cfg.label(), &pts);
                let sat = next.next().expect("saturation result").accepted;
                t.row(vec![
                    cfg.label(),
                    fmt_f(curve[0].avg_latency, 1),
                    fmt_f(sat, 3),
                ]);
            }
            println!("--- {dims}, {pname} ---");
            println!("{}", t.render());
            if pattern == Pattern::TileToMemory {
                println!("{}", plot.render());
            }
        }
    }
    write_artifact(opts.quick, "fig9_half_ruche_curves.csv", csv.as_str());
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
