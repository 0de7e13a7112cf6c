//! Table 6: geomean summary of the Half Ruche evaluation.

use crate::opts::Opts;
use crate::out::{banner, write_artifact};
use crate::suite::{half_ruche_configs, workload_list, Suite};
use ruche_noc::geometry::Dims;
use ruche_phys::{tile_area_increase, Tech};
use ruche_stats::{fmt_f, geomean, Csv, Table};

/// Prints the Table 6 reproduction and writes `table6_summary.csv`.
pub fn run(opts: Opts) {
    banner("Table 6", "Half Ruche evaluation summary (geomean scores)");
    let mut suite = Suite::load();
    let (small, large) = if opts.quick {
        (Dims::new(8, 4), Dims::new(16, 8))
    } else {
        (Dims::new(16, 8), Dims::new(32, 16))
    };
    let wide = Dims::new(64, 8);
    let tech = Tech::n12();
    let workloads = workload_list(opts);
    let configs_large = half_ruche_configs(large);
    let labels: Vec<String> = configs_large.iter().map(|c| c.label()).collect();

    // Collect per-config metric vectors (geomeans over workloads).
    let n = configs_large.len();
    let mut speed_small = vec![vec![]; n];
    let mut speed_large = vec![vec![]; n];
    let mut scal_large = vec![vec![]; n];
    let mut scal_wide = vec![vec![]; n];
    let mut lat_intr = vec![vec![]; n];
    let mut lat_cong = vec![vec![]; n];
    let mut lat_total = vec![vec![]; n];
    let mut eff_compute = vec![vec![]; n];
    let mut eff_noc = vec![vec![]; n];
    let mut eff_total = vec![vec![]; n];

    for &(bench, ds) in &workloads {
        let mesh_small = suite.get_or_run(small, &half_ruche_configs(small)[0], bench, ds);
        let mesh_large = suite.get_or_run(large, &configs_large[0], bench, ds);
        for (i, cfg_l) in configs_large.iter().enumerate() {
            let e_small = suite.get_or_run(small, &half_ruche_configs(small)[i], bench, ds);
            let e_large = suite.get_or_run(large, cfg_l, bench, ds);
            speed_small[i].push(mesh_small.cycles as f64 / e_small.cycles as f64);
            speed_large[i].push(mesh_large.cycles as f64 / e_large.cycles as f64);
            scal_large[i].push(mesh_small.cycles as f64 / e_large.cycles as f64);
            if !opts.quick {
                let e_wide = suite.get_or_run(wide, &half_ruche_configs(wide)[i], bench, ds);
                scal_wide[i].push(mesh_small.cycles as f64 / e_wide.cycles as f64);
            }
            lat_intr[i].push(mesh_large.lat_intrinsic / e_large.lat_intrinsic.max(1e-9));
            lat_cong[i].push((mesh_large.lat_congestion + 1.0) / (e_large.lat_congestion + 1.0));
            lat_total[i].push(mesh_large.lat_total / e_large.lat_total.max(1e-9));
            eff_compute[i].push(mesh_large.compute_pj() / e_large.compute_pj());
            eff_noc[i].push(mesh_large.noc_pj() / e_large.noc_pj());
            eff_total[i].push(mesh_large.total_pj() / e_large.total_pj());
        }
    }

    let tile_area: Vec<f64> = configs_large
        .iter()
        .map(|c| tile_area_increase(c, &tech))
        .collect();

    let g = |v: &Vec<f64>| geomean(v.iter().copied());
    let metrics: Vec<(String, Vec<f64>)> = vec![
        (
            format!("{small} speedup vs mesh"),
            speed_small.iter().map(g).collect(),
        ),
        (
            format!("{large} speedup vs mesh"),
            speed_large.iter().map(g).collect(),
        ),
        (
            format!("{large} scalability (vs {small} mesh)"),
            scal_large.iter().map(g).collect(),
        ),
        (
            format!("{wide} scalability (vs {small} mesh)"),
            if opts.quick {
                vec![f64::NAN; n]
            } else {
                scal_wide.iter().map(g).collect()
            },
        ),
        (
            "load latency reduction (intrinsic)".into(),
            lat_intr.iter().map(g).collect(),
        ),
        (
            "load latency reduction (congestion)".into(),
            lat_cong.iter().map(g).collect(),
        ),
        (
            "load latency reduction (total)".into(),
            lat_total.iter().map(g).collect(),
        ),
        (
            "energy efficiency (compute)".into(),
            eff_compute.iter().map(g).collect(),
        ),
        (
            "energy efficiency (NoC)".into(),
            eff_noc.iter().map(g).collect(),
        ),
        (
            "energy efficiency (total)".into(),
            eff_total.iter().map(g).collect(),
        ),
        ("tile area increase".into(), tile_area.clone()),
        (
            format!("{large} speedup vs mesh (area normalized)"),
            speed_large
                .iter()
                .map(g)
                .zip(&tile_area)
                .map(|(s, a)| s / a)
                .collect(),
        ),
    ];

    let mut header = vec!["metric".to_string()];
    header.extend(labels.iter().cloned());
    let mut t = Table::new(header.iter().map(String::as_str).collect());
    let mut csv = Csv::new();
    let mut csv_head = vec!["metric".to_string()];
    csv_head.extend(labels.iter().cloned());
    csv.row(csv_head);
    for (name, values) in &metrics {
        let mut row = vec![name.clone()];
        row.extend(values.iter().map(|v| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{}x", fmt_f(*v, 3))
            }
        }));
        csv.row(row.clone());
        t.row(row);
    }
    println!("{}", t.render());
    write_artifact(opts.quick, "table6_summary.csv", csv.as_str());
    println!("paper anchors (32x16): ruche2-depop 1.17x speedup / ruche3-pop 1.24x;");
    println!("half-torus 1.08x with ~1.01x area-normalized gain; NoC energy efficiency");
    println!("1.28-1.35x for ruche vs 0.75x for half-torus; tile area +5.8%..+9.0%.");
}
