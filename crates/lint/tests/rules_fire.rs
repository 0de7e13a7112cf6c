//! Negative-control tests for every lint rule: each fixture under
//! `tests/fixtures/` contains a deliberate violation and the rule must
//! fire on it: a checker that cannot fail proves nothing. The final test
//! pins the real workspace at zero findings, which is what makes the
//! rules part of every `cargo test`.

use ruche_lint::{lint_source, lint_workspace, workspace_root, Finding};

/// Findings of `rule` when `contents` is linted as if at `rel`.
fn fire(rel: &str, contents: &str, rule: &str) -> Vec<Finding> {
    lint_source(rel, contents)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn no_unwrap_fires_in_core_scope_only() {
    let src = include_str!("fixtures/unwrap.rs");
    let hits = fire("crates/noc/src/fixture.rs", src, "no-unwrap");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 3);
    // The same code outside the simulator core is not this rule's business.
    assert!(fire("crates/bench/src/fixture.rs", src, "no-unwrap").is_empty());
}

#[test]
fn wall_clock_fires_everywhere_but_bench_binaries() {
    let src = include_str!("fixtures/wall_clock.rs");
    let hits = fire("crates/traffic/src/fixture.rs", src, "wall-clock");
    assert!(hits.len() >= 3, "Instant use + now + SystemTime: {hits:?}");
    assert!(
        fire("crates/bench/src/bin/fixture.rs", src, "wall-clock").is_empty(),
        "bench binaries measure wall time by design"
    );
}

#[test]
fn hash_order_fires_on_unjustified_imports() {
    let src = include_str!("fixtures/hash_order.rs");
    let hits = fire("crates/stats/src/fixture.rs", src, "hash-order");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 2, "the `use` line is the anchor");
}

#[test]
fn every_escape_hatch_silences_its_rule() {
    // The clean fixture uses all of them: a justified lint:allow for
    // hash-order and no-unwrap, strings and comments containing rule
    // patterns, and a cfg(test) module using Instant.
    let src = include_str!("fixtures/clean.rs");
    let hits = lint_source("crates/noc/src/clean.rs", src);
    assert!(hits.is_empty(), "expected clean, got: {hits:?}");
}

#[test]
fn bare_allow_markers_do_not_count() {
    let src = "// lint:allow(no-unwrap)\npub(crate) fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let hits = fire("crates/noc/src/fixture.rs", src, "no-unwrap");
    assert_eq!(hits.len(), 1, "an allow without a reason is not an allow");
}

#[test]
fn the_workspace_is_clean() {
    // THE enforcement test: zero findings across the real workspace. A
    // rule violation anywhere in crates/*/src fails `cargo test`.
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.files_scanned > 50, "scan saw the whole workspace");
    assert!(
        report.is_clean(),
        "ruche-lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
