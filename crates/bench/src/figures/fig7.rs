//! Figure 7: router cell area vs target cycle time (FO4).

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_phys::{area_sweep, min_cycle_time_fo4, RouterParams, Tech};
use ruche_stats::{fmt_f, Csv, Table};

fn configs(dims: Dims) -> Vec<NetworkConfig> {
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::multi_mesh(dims),
        NetworkConfig::full_ruche(dims, 3, CrossbarScheme::Depopulated),
        NetworkConfig::full_ruche(dims, 3, CrossbarScheme::FullyPopulated),
        NetworkConfig::torus(dims),
    ]
}

/// Prints the Figure 7 reproduction and writes `fig7_area_vs_cycle.csv`.
pub fn run(opts: Opts) {
    banner(
        "Figure 7",
        "area vs cycle time: mesh / multi-mesh / Full Ruche / torus (128-bit, X-Y DOR)",
    );
    let tech = Tech::n12();
    let step = if opts.quick { 8.0 } else { 2.0 };
    let mut csv = Csv::new();
    csv.row(["router", "target_fo4", "area_um2"]);
    let mut t = Table::new(vec![
        "router",
        "min cycle (FO4)",
        "area @98 FO4",
        "area @min+2",
    ]);
    for cfg in configs(Dims::new(8, 8)) {
        let p = RouterParams::of(&cfg);
        let t_min = min_cycle_time_fo4(&p, &tech);
        let sweep = area_sweep(&p, &tech, 98.0, step);
        for pt in &sweep {
            if let Some(a) = pt.area_um2 {
                csv.row([cfg.label(), fmt_f(pt.target_fo4, 1), fmt_f(a, 0)]);
            }
        }
        let relaxed = sweep.first().and_then(|p| p.area_um2).unwrap_or(0.0);
        let tight = ruche_phys::area_at(&p, &tech, t_min + 2.0)
            .map(|a| a.total())
            .unwrap_or(0.0);
        t.row(vec![
            cfg.label(),
            fmt_f(t_min, 1),
            fmt_f(relaxed, 0),
            fmt_f(tight, 0),
        ]);
    }
    println!("{}", t.render());
    println!("paper shape: ruche pop/depop reach ~mesh-class minimum cycle time without");
    println!("pipelining; the torus wavefront allocator hits its timing wall far earlier.");
    write_artifact(opts.quick, "fig7_area_vs_cycle.csv", csv.as_str());
}
