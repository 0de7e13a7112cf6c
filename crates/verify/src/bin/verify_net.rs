//! Statically verifies every configuration in the paper grid, plus a
//! faulted-grid sample (random link kills and a dead router over the
//! degradation sweep's topologies, checked with the up*/down* table).
//!
//! ```text
//! verify_net [FILTER] [--strict]
//! ```
//!
//! Prints one summary row per configuration (channel-dependency-graph
//! size, largest SCC, finding counts) followed by the full findings of
//! any configuration that is not clean. Exits non-zero if any
//! configuration has an error finding (`--strict`: or a warning). An
//! optional `FILTER` substring restricts the run to matching labels.

use ruche_verify::{grid, verify, verify_faulted, Severity};

fn main() {
    let mut filter: Option<String> = None;
    let mut strict = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strict" => strict = true,
            "--help" | "-h" => {
                println!("usage: verify_net [FILTER] [--strict]");
                return;
            }
            other => filter = Some(other.to_string()),
        }
    }

    let configs: Vec<_> = grid::paper_grid()
        .into_iter()
        .filter(|cfg| filter.as_deref().is_none_or(|f| cfg.label().contains(f)))
        .collect();

    let mut table = ruche_stats::Table::new(vec![
        "config", "dims", "dor", "edge-mem", "channels", "deps", "scc", "errors", "warnings",
    ]);
    let mut dirty = Vec::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for cfg in &configs {
        let report = verify(cfg);
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        table.row(vec![
            report.label.clone(),
            report.dims.clone(),
            format!("{:?}", cfg.dor),
            match (cfg.edge_memory_ports, cfg.edge_bidirectional) {
                (_, true) => "both".into(),
                (true, _) => "yes".into(),
                (false, _) => "-".into(),
            },
            report.stats.channels.to_string(),
            report.stats.dependencies.to_string(),
            report.stats.largest_scc.to_string(),
            report.count(Severity::Error).to_string(),
            report.count(Severity::Warning).to_string(),
        ]);
        if !report.is_clean() {
            dirty.push(report);
        }
    }

    let faulted = grid::faulted_sample();
    let mut n_faulted = 0usize;
    for (cfg, faults) in &faulted {
        if filter.as_deref().is_some_and(|f| !cfg.label().contains(f)) {
            continue;
        }
        n_faulted += 1;
        let report = verify_faulted(cfg, faults);
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        table.row(vec![
            report.label.clone(),
            report.dims.clone(),
            format!("{:?}", cfg.dor),
            format!(
                "{}L/{}R",
                faults.dead_links().len(),
                faults.dead_routers().len()
            ),
            report.stats.channels.to_string(),
            report.stats.dependencies.to_string(),
            report.stats.largest_scc.to_string(),
            report.count(Severity::Error).to_string(),
            report.count(Severity::Warning).to_string(),
        ]);
        if !report.is_clean() {
            dirty.push(report);
        }
    }

    println!(
        "static verification of {} configuration(s) + {n_faulted} faulted sample(s)\n",
        configs.len()
    );
    println!("{}", table.render());
    for report in &dirty {
        println!("{report}");
    }
    if errors > 0 || (strict && warnings > 0) {
        println!("FAIL: {errors} error(s), {warnings} warning(s)");
        std::process::exit(1);
    }
    println!("OK: all configurations deadlock-free ({warnings} warning(s))");
}
