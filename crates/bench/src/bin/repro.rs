//! Regenerates the paper's evaluation:
//! `cargo run --release -p ruche-bench --bin repro [-- [--quick] [word …]]`.
//!
//! Each word names one harness of [`HARNESSES`]. The named harnesses run
//! in the table's order, once each; with no word, every harness but
//! `telemetry` and `degradation` runs.

use ruche_bench::opts::usage_error;
use ruche_bench::{degradation, figures as f, preflight, telemetry, Opts};

/// A harness: its selector word, its entry point, and whether it
/// simulates a network (analytic models need no deadlock proof).
type Harness = (&'static str, fn(Opts), bool);

/// Every harness in paper order; the paper's evaluation plus this repo's
/// ablations, then the two opt-in extras.
const HARNESSES: [Harness; 16] = [
    ("table1", f::table1::run, false),
    ("fig6", f::fig6::run, true),
    ("fig7", f::fig7::run, false),
    ("table2", f::table2::run, false),
    ("table3", f::table3::run, false),
    ("fig8", f::fig8::run, true),
    ("fig9", f::fig9::run, true),
    ("table4", f::table4::run, false),
    ("fig10", f::fig10::run, true),
    ("fig11", f::fig11::run, true),
    ("fig12", f::fig12::run, true),
    ("fig13", f::fig13::run, true),
    ("table6", f::table6::run, true),
    ("ablations", f::ablations::run, true),
    ("telemetry", telemetry::run, true),
    ("degradation", degradation::run, true),
];

/// How many leading [`HARNESSES`] a bare `repro` runs.
const DEFAULT_RUN: usize = 14;

fn main() {
    let (opts, words) = Opts::from_args();
    if let Some(bad) = words.iter().find(|w| HARNESSES.iter().all(|h| h.0 != *w)) {
        let valid: Vec<&str> = HARNESSES.iter().map(|h| h.0).collect();
        usage_error(&format!(
            "unknown harness {bad:?}; valid: {}",
            valid.join(" ")
        ));
    }
    let selected: Vec<&Harness> = if words.is_empty() {
        HARNESSES[..DEFAULT_RUN].iter().collect()
    } else {
        HARNESSES
            .iter()
            .filter(|h| words.iter().any(|w| w == h.0))
            .collect()
    };
    println!(
        "Reproducing 'Evaluating Ruche Networks' (ISCA '25){}",
        if opts.quick { " [quick sweep]" } else { "" }
    );
    // Prove every configuration deadlock-free before simulating any of
    // them (the `verify_net` bin runs this check on its own).
    if selected.iter().any(|h| h.2) && !preflight::verify_paper_grid() {
        std::process::exit(1);
    }
    for (_, run, _) in selected {
        run(opts);
    }
}
