//! The load–latency figure shared by Figures 6 and 9: for every (size,
//! pattern, config), a rate sweep plus a saturation run, reported as CSV
//! rows, a zero-load/saturation table and an ASCII plot.

use crate::opts::Opts;
use crate::out::write_artifact;
use crate::sweep::{self, SweepRunner};
use ruche_noc::geometry::Dims;
use ruche_noc::prelude::*;
use ruche_stats::{fmt_f, AsciiPlot, Csv, Table};
use ruche_traffic::{CurvePoint, Pattern, Testbench};

/// What one curve figure sweeps and how it reports.
pub(crate) struct CurveFigure {
    /// Array sizes, in report order.
    pub sizes: Vec<Dims>,
    /// The offered loads of every curve.
    pub rates: Vec<f64>,
    /// Each pattern with the name its rows, tables and plots print.
    pub patterns: Vec<(Pattern, &'static str)>,
    /// The network set for one array size.
    pub configs: fn(Dims) -> Vec<NetworkConfig>,
    /// The pattern whose ASCII plot is printed.
    pub plotted: Pattern,
    /// The CSV artifact the curves are written to.
    pub artifact: &'static str,
}

impl CurveFigure {
    /// Runs every point of the figure as one batch, then replays the
    /// results in job order into the tables, the plot and the CSV.
    pub fn run(&self, opts: Opts) {
        let nets: Vec<(Dims, Vec<NetworkConfig>)> =
            self.sizes.iter().map(|&d| (d, (self.configs)(d))).collect();
        let mut jobs = Vec::new();
        for (_, cfgs) in &nets {
            for &(pattern, _) in &self.patterns {
                // The proto's own rate is never run — curve_jobs replaces
                // it with each sweep rate.
                let b = Testbench::builder(pattern, 1.0);
                let proto = if opts.quick { b.quick() } else { b }
                    .build()
                    .expect("figure testbench is valid");
                for cfg in cfgs {
                    jobs.extend(sweep::curve_jobs(cfg, &proto, &self.rates));
                    jobs.push(sweep::saturation_job(cfg, pattern, 3));
                }
            }
        }
        let results = SweepRunner::new(opts).run_all(&jobs);
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
        for (dims, cfgs) in &nets {
            for &(pattern, pname) in &self.patterns {
                let mut t = Table::new(vec!["config", "zero-load lat", "saturation thpt"]);
                let mut plot = AsciiPlot::new(
                    &format!("{dims} {pname}"),
                    "offered load (packets/tile/cycle)",
                    "avg latency (cycles)",
                );
                for cfg in cfgs {
                    let curve: Vec<CurvePoint> = self
                        .rates
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
                if pattern == self.plotted {
                    println!("{}", plot.render());
                }
            }
        }
        write_artifact(opts.quick, self.artifact, csv.as_str());
    }
}
