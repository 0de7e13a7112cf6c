//! Figure 13: total energy breakdown on 32×16, normalized to 2-D mesh.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::suite::{half_ruche_configs, workload_list, Suite};
use ruche_manycore::prelude::Workload;
use ruche_noc::geometry::Dims;
use ruche_stats::{fmt_f, Csv, Table};

/// Prints the Figure 13 reproduction and writes `fig13_energy.csv`.
pub fn run(opts: Opts) {
    banner(
        "Figure 13",
        "total energy breakdown (core/stall/router/wire) normalized to mesh, 32x16",
    );
    let mut suite = Suite::load();
    let dims = if opts.quick {
        Dims::new(16, 8)
    } else {
        Dims::new(32, 16)
    };
    if opts.quick {
        println!("(quick mode: using 16x8 instead of 32x16)");
    }
    let configs = half_ruche_configs(dims);
    let mut csv = Csv::new();
    csv.row([
        "workload",
        "config",
        "core",
        "stall",
        "router",
        "wire",
        "total_vs_mesh",
    ]);
    let mut header = vec!["workload".to_string()];
    header.extend(configs.iter().map(|c| c.label()));
    let mut t = Table::new(header.iter().map(String::as_str).collect());
    for (bench, ds) in workload_list(opts) {
        let mesh = suite.get_or_run(dims, &configs[0], bench, ds);
        let mesh_total = mesh.total_pj();
        let mut row = vec![Workload::build_name(bench, ds)];
        for cfg in &configs {
            let e = suite.get_or_run(dims, cfg, bench, ds);
            row.push(fmt_f(e.total_pj() / mesh_total, 2));
            csv.row([
                row[0].clone(),
                cfg.label(),
                fmt_f(e.core_pj / mesh_total, 4),
                fmt_f(e.stall_pj / mesh_total, 4),
                fmt_f(e.router_pj / mesh_total, 4),
                fmt_f(e.wire_pj / mesh_total, 4),
                fmt_f(e.total_pj() / mesh_total, 4),
            ]);
        }
        t.row(row);
    }
    println!("{}", t.render());
    write_artifact(opts.quick, "fig13_energy.csv", csv.as_str());
    println!("paper shape: core energy constant across networks; ruche cuts router");
    println!("energy (fewer hops) and stall energy (lower load latency); wire energy");
    println!("stays a small slice; half-torus *increases* total energy over mesh.");
}
