//! The parallel sweep engine is deterministic: a figure sweep renders
//! byte-identical CSV rows whether it runs on one worker or many.

use ruche_bench::figures::fig6;
use ruche_bench::sweep::{self, SweepRunner};
use ruche_noc::geometry::Dims;
use ruche_stats::fmt_f;
use ruche_traffic::{Pattern, Testbench};

/// Renders the Figure 6 quick curve rows for one pattern at the given
/// worker-pool width, exactly as `figures::fig6` formats them.
fn fig6_quick_rows(threads: usize) -> String {
    let dims = Dims::new(8, 8);
    let rates = [0.02, 0.10, 0.20, 0.30, 0.45];
    let pattern = Pattern::UniformRandom;
    let mut jobs = Vec::new();
    for cfg in fig6::configs(dims) {
        // The proto's rate is never run — curve_jobs replaces it.
        let proto = Testbench::builder(pattern, 1.0)
            .quick()
            .build()
            .expect("smoke testbench is valid");
        jobs.extend(sweep::curve_jobs(&cfg, &proto, &rates));
    }
    let results = SweepRunner::uncached(threads).run_all(&jobs);
    let mut out = String::new();
    for (job, res) in jobs.iter().zip(&results) {
        let pt = sweep::curve_point(res);
        out.push_str(&format!(
            "{dims},{},{},{},{},{}\n",
            pattern.name(),
            job.cfg.label(),
            fmt_f(pt.offered, 3),
            fmt_f(pt.accepted, 4),
            fmt_f(pt.avg_latency, 2),
        ));
    }
    out
}

#[test]
fn parallel_fig6_sweep_is_byte_identical_to_serial() {
    let serial = fig6_quick_rows(1);
    let parallel = fig6_quick_rows(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "CSV rows must not depend on thread count");
}
