//! Regenerates the paper's full evaluation in order:
//! `cargo run --release -p ruche-bench --bin repro [-- --quick]`.

use ruche_bench::{figures, preflight, Opts};

fn main() {
    let opts = Opts::from_env();
    println!(
        "Reproducing 'Evaluating Ruche Networks' (ISCA '25){}",
        if opts.quick { " [quick sweep]" } else { "" }
    );
    // Prove every configuration deadlock-free before simulating any of
    // them (the `verify_net` bin runs this check on its own).
    if !preflight::verify_paper_grid() {
        std::process::exit(1);
    }
    // The degradation sweep is its own mode: fault tolerance is orthogonal
    // to the paper's figures, and CI runs it as a separate job.
    if opts.degradation {
        ruche_bench::degradation::run(opts);
        return;
    }
    figures::table1::run(opts);
    figures::fig6::run(opts);
    figures::fig7::run(opts);
    figures::table2::run(opts);
    figures::table3::run(opts);
    figures::fig8::run(opts);
    figures::fig9::run(opts);
    figures::table4::run(opts);
    figures::fig10::run(opts);
    figures::fig11::run(opts);
    figures::fig12::run(opts);
    figures::fig13::run(opts);
    figures::table6::run(opts);
    figures::ablations::run(opts);
    if opts.telemetry {
        ruche_bench::telemetry::run(opts);
    }
}
