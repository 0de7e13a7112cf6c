//! Figure 12: average remote-load latency on 32×16, split into intrinsic
//! and congestion-induced components.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::suite::{half_ruche_configs, workload_list, Suite};
use ruche_manycore::prelude::Workload;
use ruche_noc::geometry::Dims;
use ruche_stats::{fmt_f, Csv, Table};

/// Prints the Figure 12 reproduction and writes `fig12_load_latency.csv`.
pub fn run(opts: Opts) {
    banner(
        "Figure 12",
        "remote-load latency split (intrinsic + congestion), 32x16",
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
    csv.row(["workload", "config", "intrinsic", "congestion", "total"]);
    let mut header = vec!["workload".to_string()];
    header.extend(configs.iter().map(|c| format!("{} (i+c)", c.label())));
    let mut t = Table::new(header.iter().map(String::as_str).collect());
    for (bench, ds) in workload_list(opts) {
        let mut row = vec![Workload::build_name(bench, ds)];
        for cfg in &configs {
            let e = suite.get_or_run(dims, cfg, bench, ds);
            row.push(format!(
                "{}+{}",
                fmt_f(e.lat_intrinsic, 1),
                fmt_f(e.lat_congestion, 1)
            ));
            csv.row([
                row[0].clone(),
                cfg.label(),
                fmt_f(e.lat_intrinsic, 2),
                fmt_f(e.lat_congestion, 2),
                fmt_f(e.lat_total, 2),
            ]);
        }
        t.row(row);
    }
    println!("{}", t.render());
    write_artifact(opts.quick, "fig12_load_latency.csv", csv.as_str());
    println!("paper shape: intrinsic latency is workload-independent (IPOLY balances");
    println!("banks); ruche2-depop already cuts intrinsic ~27%; congestion is largest");
    println!("for streaming workloads (FFT/SGEMM/PR-social) and never grows with ruche.");
}
