//! Figure 8: per-tile average-latency fairness on 16×16 uniform random at
//! low load.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::sweep::{SweepJob, SweepRunner};
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_stats::{fmt_f, Accum, Csv, Table};
use ruche_traffic::{Pattern, Testbench};

/// The Figure 8 network set for one array size.
pub fn configs(dims: Dims) -> Vec<NetworkConfig> {
    use CrossbarScheme::FullyPopulated;
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::torus(dims),
        NetworkConfig::full_ruche(dims, 2, FullyPopulated),
        NetworkConfig::full_ruche(dims, 3, FullyPopulated),
    ]
}

/// Prints the Figure 8 reproduction and writes the per-tile distribution.
pub fn run(opts: Opts) {
    banner(
        "Figure 8",
        "fairness: distribution of per-tile mean latency, 16x16 uniform random, low load",
    );
    let dims = Dims::new(16, 16);
    let b = Testbench::builder(Pattern::UniformRandom, 0.02);
    let tb = if opts.quick {
        b.quick()
    } else {
        b.warmup(1_000).measure(8_000).drain(2_000)
    }
    .build()
    .expect("figure testbench is valid");
    // Per-tile jobs bypass the sweep cache (it stores scalar aggregates)
    // but still fan out across the worker pool.
    let jobs: Vec<SweepJob> = configs(dims)
        .into_iter()
        .map(|cfg| SweepJob::new(cfg, tb.clone()).with_per_tile())
        .collect();
    let results = SweepRunner::new(opts).run_all(&jobs);

    let mut csv = Csv::new();
    csv.row(["config", "tile_x", "tile_y", "mean_latency"]);
    let mut t = Table::new(vec!["config", "mean", "stdev", "min", "max", "stdev/mesh"]);
    let mut mesh_stdev = None;
    let mut torus_mean = None;
    for (cfg, res) in configs(dims).into_iter().zip(&results) {
        let mut dist = Accum::new();
        for (i, a) in res.per_tile_latency.iter().enumerate() {
            if a.count() > 0 {
                dist.add(a.mean());
                let c = dims.coord(i);
                csv.row([
                    cfg.label(),
                    c.x.to_string(),
                    c.y.to_string(),
                    fmt_f(a.mean(), 3),
                ]);
            }
        }
        if cfg.label() == "mesh" {
            mesh_stdev = Some(dist.stdev());
        }
        if cfg.label() == "torus" {
            torus_mean = Some(dist.mean());
        }
        t.row(vec![
            cfg.label(),
            fmt_f(dist.mean(), 2),
            fmt_f(dist.stdev(), 2),
            fmt_f(dist.min().unwrap_or(0.0), 2),
            fmt_f(dist.max().unwrap_or(0.0), 2),
            mesh_stdev
                .map(|m| fmt_f(m / dist.stdev().max(1e-9), 2))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
    if let Some(tm) = torus_mean {
        println!("(torus mean = {tm:.2}; the paper's ruche2/ruche3 land 1.18x/1.34x below it)");
    }
    println!("paper: mesh mu=10.6 sigma=1.67; ruche2/ruche3 cut sigma 2.0x/2.9x vs mesh;");
    println!("torus is perfectly symmetric but ruche means drop below the torus mean.");
    write_artifact(opts.quick, "fig8_fairness.csv", csv.as_str());
}
