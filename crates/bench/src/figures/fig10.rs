//! Figure 10: parallel-benchmark speedup over 2-D mesh on 16×8 and 32×16.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::suite::{half_ruche_configs, workload_list, Suite};
use ruche_noc::geometry::Dims;
use ruche_stats::{fmt_f, geomean, Csv, Table};

/// Prints the Figure 10 reproduction and writes `fig10_speedup.csv`.
pub fn run(opts: Opts) {
    banner(
        "Figure 10",
        "benchmark speedup over 2-D mesh (execution-driven manycore)",
    );
    let mut suite = Suite::load();
    let mut csv = Csv::new();
    csv.row(["size", "workload", "config", "cycles", "speedup_vs_mesh"]);
    let sizes = if opts.quick {
        vec![Dims::new(16, 8)]
    } else {
        vec![Dims::new(16, 8), Dims::new(32, 16)]
    };
    for &dims in &sizes {
        let configs = half_ruche_configs(dims);
        let labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        let mut header = vec!["workload".to_string()];
        header.extend(labels.iter().skip(1).cloned());
        let mut t = Table::new(header.iter().map(String::as_str).collect());
        let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
        for (bench, ds) in workload_list(opts) {
            let mesh = suite.get_or_run(dims, &configs[0], bench, ds);
            let mut row = vec![ruche_manycore::prelude::Workload::build_name(bench, ds)];
            csv.row([
                format!("{dims}"),
                row[0].clone(),
                "mesh".into(),
                mesh.cycles.to_string(),
                "1.000".into(),
            ]);
            per_cfg[0].push(1.0);
            for (i, cfg) in configs.iter().enumerate().skip(1) {
                let e = suite.get_or_run(dims, cfg, bench, ds);
                let speedup = mesh.cycles as f64 / e.cycles as f64;
                per_cfg[i].push(speedup);
                row.push(fmt_f(speedup, 2));
                csv.row([
                    format!("{dims}"),
                    row[0].clone(),
                    cfg.label(),
                    e.cycles.to_string(),
                    fmt_f(speedup, 3),
                ]);
            }
            t.row(row);
        }
        let mut geo = vec!["GEOMEAN".to_string()];
        for speeds in per_cfg.iter().skip(1) {
            geo.push(fmt_f(geomean(speeds.iter().copied()), 2));
        }
        t.row(geo);
        println!("--- {dims}: speedup over mesh ---");
        println!("{}", t.render());
    }
    write_artifact(opts.quick, "fig10_speedup.csv", csv.as_str());
    println!("paper shape: consistent ruche speedups, most of the gain already at");
    println!("ruche2-depop; ruche3-pop best; half-torus trails every ruche config and");
    println!("loses outright on Jacobi (folded-torus neighbor pathology); 32x16 gains");
    println!("exceed 16x8 gains.");
}
