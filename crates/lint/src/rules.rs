//! The lint rules. Each rule is a pure function from scanned lines (plus
//! the workspace-relative path) to findings; rule scoping by path prefix
//! and the `lint:allow(<rule>)` escape hatch live here too.
//!
//! Rules exist because each guards a determinism invariant the repo's
//! artifacts depend on and the compiler cannot check
//! (`docs/SOUNDNESS.md` has the full rationale table):
//!
//! | rule | invariant |
//! |---|---|
//! | `no-unwrap` | the simulator core reports errors, it never aborts |
//! | `wall-clock` | artifacts are functions of inputs, never of time |
//! | `hash-order` | nothing iterates a hash container into an artifact |

use crate::scan::Line;
use crate::Finding;

/// How many lines above a match the `lint:allow(<rule>)` marker may sit.
const ALLOW_WINDOW: usize = 3;

/// All rule ids.
pub const RULE_IDS: [&str; 3] = ["no-unwrap", "wall-clock", "hash-order"];

/// Is a finding of `rule` at line index `idx` suppressed by a nearby
/// `lint:allow(<rule>): reason` marker? The marker must carry a reason
/// (the colon is mandatory) — an unexplained allow is itself a finding.
fn allowed(lines: &[Line], idx: usize, rule: &str) -> bool {
    let lo = idx.saturating_sub(ALLOW_WINDOW);
    let marker = format!("lint:allow({rule})");
    lines[lo..=idx].iter().any(|l| {
        l.comment
            .find(&marker)
            .is_some_and(|p| l.comment[p + marker.len()..].trim_start().starts_with(':'))
    })
}

/// Runs every rule that applies to `rel` (workspace-relative, `/`-separated)
/// over the scanned `lines`.
pub fn lint_lines(rel: &str, lines: &[Line]) -> Vec<Finding> {
    let mut out = Vec::new();
    if rel.starts_with("crates/noc/src") {
        no_unwrap(rel, lines, &mut out);
    }
    if !rel.starts_with("crates/bench/src/bin") {
        wall_clock(rel, lines, &mut out);
    }
    hash_order(rel, lines, &mut out);
    out
}

/// `no-unwrap`: the simulator core (`crates/noc/src`) must never
/// `.unwrap()` outside tests — a malformed config or a protocol bug must
/// surface as an error or an `expect` with an invariant message, not as a
/// bare panic with no context.
fn no_unwrap(rel: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        if l.in_test || !l.code.contains(".unwrap()") {
            continue;
        }
        if allowed(lines, i, "no-unwrap") {
            continue;
        }
        out.push(Finding::new(
            "no-unwrap",
            rel,
            i + 1,
            "`.unwrap()` in the simulator core: return an error or use \
             `expect(\"<invariant>\")` so a panic names what broke",
        ));
    }
}

/// `wall-clock`: nothing outside the benchmark binaries may read the wall
/// clock (`Instant`, `SystemTime`). Artifacts must be pure functions of
/// config + seed; a timestamp smuggled into a result breaks byte-identical
/// reproduction.
fn wall_clock(rel: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let hit = ["Instant", "SystemTime"]
            .iter()
            .find(|t| contains_token(&l.code, t));
        let Some(tok) = hit else { continue };
        if allowed(lines, i, "wall-clock") {
            continue;
        }
        out.push(Finding::new(
            "wall-clock",
            rel,
            i + 1,
            format!(
                "`{tok}` outside the bench binaries: artifacts must be \
                 functions of (config, seed), never of time"
            ),
        ));
    }
}

/// `hash-order`: importing `HashMap`/`HashSet` requires a justification
/// marker (`lint:allow(hash-order): <why iteration order cannot leak>`).
/// Hash iteration order is nondeterministic across std versions and
/// platforms; one `for (k, v) in map` feeding a results file silently
/// breaks byte-identical artifacts.
fn hash_order(rel: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let t = l.code.trim_start();
        if !t.starts_with("use ") || !(t.contains("HashMap") || t.contains("HashSet")) {
            continue;
        }
        if allowed(lines, i, "hash-order") {
            continue;
        }
        out.push(Finding::new(
            "hash-order",
            rel,
            i + 1,
            "hash container imported without a `lint:allow(hash-order): \
             <reason>` marker stating why its iteration order cannot reach \
             an artifact (or switch to BTreeMap/BTreeSet)",
        ));
    }
}

/// Whole-word match: `pat` in `code` not embedded in a longer identifier.
fn contains_token(code: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(p) = code[start..].find(pat) {
        let at = start + p;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + pat.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + pat.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn allow_markers_require_a_reason() {
        let src = "// lint:allow(no-unwrap)\nlet x = y.unwrap();\n";
        let lines = scan(src);
        assert!(
            !allowed(&lines, 1, "no-unwrap"),
            "bare allow must not count"
        );
        let src = "// lint:allow(no-unwrap): startup only, config is static\nlet x = y.unwrap();\n";
        let lines = scan(src);
        assert!(allowed(&lines, 1, "no-unwrap"));
    }

    #[test]
    fn token_matching_is_word_bounded() {
        assert!(contains_token("let t = Instant::now();", "Instant"));
        assert!(!contains_token("let instantaneous = 3;", "Instant"));
        assert!(!contains_token("struct FakeInstant;", "Instant"));
        assert!(!contains_token("type Instant_ns = u64;", "Instant"));
        assert!(contains_token("(Instant, u64)", "Instant"));
    }
}
