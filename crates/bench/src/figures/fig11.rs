//! Figure 11: scalability — speedup of 32×16 and 64×8 over the 16×8 mesh
//! (ideal = 4× with 4× the cores).

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::suite::{half_ruche_configs, workload_list, Suite};
use ruche_manycore::prelude::Workload;
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_stats::{fmt_f, geomean, Csv, Table};

/// Prints the Figure 11 reproduction and writes `fig11_scalability.csv`.
pub fn run(opts: Opts) {
    banner(
        "Figure 11",
        "scalability: speedup of 32x16 and 64x8 over the 16x8 mesh (ideal 4x)",
    );
    let mut suite = Suite::load();
    let base_dims = Dims::new(16, 8);
    let base_cfg = NetworkConfig::mesh(base_dims);
    let mut csv = Csv::new();
    csv.row(["size", "workload", "config", "scalability_vs_16x8_mesh"]);
    let sizes = if opts.quick {
        vec![Dims::new(32, 16)]
    } else {
        vec![Dims::new(32, 16), Dims::new(64, 8)]
    };
    for &dims in &sizes {
        let configs = half_ruche_configs(dims);
        let mut header = vec!["workload".to_string()];
        header.extend(configs.iter().map(|c| c.label()));
        let mut t = Table::new(header.iter().map(String::as_str).collect());
        let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
        for (bench, ds) in workload_list(opts) {
            let base = suite.get_or_run(base_dims, &base_cfg, bench, ds);
            let mut row = vec![Workload::build_name(bench, ds)];
            for (i, cfg) in configs.iter().enumerate() {
                let e = suite.get_or_run(dims, cfg, bench, ds);
                let s = base.cycles as f64 / e.cycles as f64;
                per_cfg[i].push(s);
                row.push(fmt_f(s, 2));
                csv.row([format!("{dims}"), row[0].clone(), cfg.label(), fmt_f(s, 3)]);
            }
            t.row(row);
        }
        let mut geo = vec!["GEOMEAN".to_string()];
        for s in &per_cfg {
            geo.push(fmt_f(geomean(s.iter().copied()), 2));
        }
        t.row(geo);
        println!("--- {dims} vs 16x8 mesh ---");
        println!("{}", t.render());
    }
    write_artifact(opts.quick, "fig11_scalability.csv", csv.as_str());
    println!("paper shape: ruche lifts scalability everywhere; 64x8 mesh collapses on");
    println!("its bisection; at ruche3 the 64x8 array overtakes 32x16 by exploiting its");
    println!("higher compute:memory ratio; half-torus scales worst of the augmented nets.");
}
