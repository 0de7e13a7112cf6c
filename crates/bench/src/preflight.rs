//! Static pre-flight verification of everything the harness sweeps.
//!
//! Before any cycle is simulated, every configuration in the paper grid
//! is proven deadlock-free and routing-sound by `ruche-verify` (the
//! channel-dependency-graph check plus the routing-lint battery). A
//! broken configuration therefore fails in milliseconds with a concrete
//! witness instead of hanging a multi-minute sweep — and the debug-build
//! verification hook is installed so every `Network::new` in a debug
//! sweep re-checks its configuration automatically.

use ruche_verify::{grid, install_debug_hook, verify, Severity};

/// Verifies the full paper grid, printing a one-line summary (plus full
/// reports for any configuration that is not error-free). Returns
/// whether all configurations are free of error findings.
pub fn verify_paper_grid() -> bool {
    install_debug_hook();
    let configs = grid::paper_grid();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for cfg in &configs {
        let report = verify(cfg);
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        if report.has_errors() {
            eprintln!("{report}");
        }
    }
    if errors > 0 {
        eprintln!(
            "pre-flight: FAILED — {errors} error finding(s) across {} configuration(s)",
            configs.len()
        );
        false
    } else {
        println!(
            "pre-flight: {} configurations statically verified deadlock-free \
             ({warnings} warning(s))",
            configs.len()
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preflight_passes_on_the_shipped_grid() {
        // Debug-build cost is dominated by the largest arrays; still well
        // under test-suite budget, and this is the check that gates every
        // sweep.
        assert!(verify_paper_grid());
    }
}
