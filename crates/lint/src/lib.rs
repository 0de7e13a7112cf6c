//! `ruche-lint` — a dependency-free, token/line-level workspace linter
//! enforcing the repo's determinism invariants (`cargo test -p ruche-lint`).
//!
//! The compiler already enforces documentation (`deny(missing_docs)`) and
//! `unsafe` hygiene (workspace `unsafe_code = "deny"`, clippy's
//! `undocumented_unsafe_blocks`); this linter checks the
//! *project-specific* contracts that keep artifacts byte-identical —
//! things no generic linter knows about:
//!
//! * no `.unwrap()` in the simulator core ([`rules`]: `no-unwrap`);
//! * no wall-clock reads outside the bench binaries (`wall-clock`);
//! * every hash-container import justifies why its iteration order cannot
//!   leak into an artifact (`hash-order`).
//!
//! Findings can be suppressed per site with a justified marker:
//! `// lint:allow(<rule>): <reason>` within three lines above the match —
//! the reason is mandatory, an unexplained allow does not count.
//!
//! The scanner ([`scan`]) strips comments and string/char literals and
//! tracks `#[cfg(test)]` regions, so rules match real code tokens only.
//! Everything is plain `std`; `tests/rules_fire.rs::the_workspace_is_clean`
//! runs the linter over the workspace on every `cargo test`.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl Finding {
    /// Builds a finding; normalizes the path separator.
    pub fn new(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.replace('\\', "/"),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a set of files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// No findings?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints one file's contents as if it lived at workspace-relative `rel`.
/// The entry point the fixture tests use; [`lint_workspace`] calls it per
/// file.
pub fn lint_source(rel: &str, contents: &str) -> Vec<Finding> {
    rules::lint_lines(rel, &scan::scan(contents))
}

/// The workspace root, derived from this crate's manifest dir at compile
/// time (`crates/lint` → two levels up). Valid wherever the repo checkout
/// runs, which is all the linter supports.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Lints the whole workspace under `root`: every `.rs` file in
/// `crates/*/src` and the root package's `src/`, skipping `vendor/`
/// (third-party stubs are not held to project rules). Findings come back
/// sorted by (file, line, rule) so output is stable.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut src_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path().join("src")))
        .filter(|p| p.is_dir())
        .collect();
    src_dirs.sort();
    // The root facade package.
    if root.join("src").is_dir() {
        src_dirs.push(root.join("src"));
    }

    for src in src_dirs {
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let contents = std::fs::read_to_string(&path)?;
            report.findings.extend(lint_source(&rel, &contents));
            report.files_scanned += 1;
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_the_cargo_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }
}
