//! Figure 6: Full Ruche synthetic-traffic analysis on 8×8 and 16×16.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::sweep::{self, SweepRunner};
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_stats::{fmt_f, Csv, Table};
use ruche_traffic::{CurvePoint, Pattern, Testbench};

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
    let sizes = if opts.quick {
        vec![Dims::new(8, 8)]
    } else {
        vec![Dims::new(8, 8), Dims::new(16, 16)]
    };
    let rates: Vec<f64> = if opts.quick {
        vec![0.02, 0.10, 0.20, 0.30, 0.45]
    } else {
        (1..=25).map(|i| 0.02 * i as f64).collect()
    };
    // Every (size, pattern, config) point is an independent job; build the
    // whole figure's job list, fan it out once, then replay the loop nest
    // consuming results in the exact same order.
    let mut jobs = Vec::new();
    for &dims in &sizes {
        for pattern in patterns() {
            for cfg in configs(dims) {
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
        for pattern in patterns() {
            let mut t = Table::new(vec!["config", "zero-load lat", "saturation thpt"]);
            let mut plot = ruche_stats::AsciiPlot::new(
                &format!("{dims} {}", pattern.name()),
                "offered load (packets/tile/cycle)",
                "avg latency (cycles)",
            );
            for cfg in configs(dims) {
                let curve: Vec<CurvePoint> = rates
                    .iter()
                    .map(|_| sweep::curve_point(next.next().expect("curve result")))
                    .collect();
                for pt in &curve {
                    csv.row([
                        format!("{dims}"),
                        pattern.name().into(),
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
            println!("--- {dims}, {} ---", pattern.name());
            println!("{}", t.render());
            if pattern == Pattern::UniformRandom {
                println!("{}", plot.render());
            }
        }
    }
    write_artifact(opts.quick, "fig6_synthetic_curves.csv", csv.as_str());
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
