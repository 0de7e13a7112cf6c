//! The full `repro --quick` artifact set is pinned end to end: it must
//! match the committed golden digests byte for byte — the end-to-end form
//! of the determinism guarantees in `docs/EVENTS.md`. The cheap tests
//! below pin where a quick run writes and how `repro` rejects a bad word.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Golden digests of the quick artifact set (see the file's header).
const GOLDEN: &str = include_str!("repro_quick_golden.txt");

/// Every harness a bare `repro` runs, plus the telemetry capture.
const WORDS: &str = "table1 fig6 fig7 table2 table3 fig8 fig9 table4 \
                     fig10 fig11 fig12 fig13 table6 ablations telemetry";

/// Runs the real `repro --quick` binary on every harness and the
/// telemetry capture, redirecting artifacts into `dir` and bypassing the
/// run cache so every point is actually simulated.
fn run_repro(dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--no-cache", "--threads", "2"])
        .args(WORDS.split_whitespace())
        .env("RUCHE_RESULTS_DIR", dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("repro binary runs");
    assert!(status.success(), "repro --quick failed");
}

/// A temp dir holding only a workspace manifest: `repro` run there
/// resolves `results/` inside it, as it does in the repository.
fn scratch_workspace(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruche_repro_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch workspace");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    dir
}

/// Runs `repro` with `args` in `dir`, with no results-dir override.
fn repro_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .env_remove("RUCHE_RESULTS_DIR")
        .output()
        .expect("repro binary runs")
}

#[test]
fn quick_artifacts_land_in_results_quick_not_beside_the_committed_ones() {
    let ws = scratch_workspace("quick");
    let out = repro_in(&ws, &["--quick", "fig7"]);
    assert!(out.status.success(), "{out:?}");
    assert!(ws.join("results/quick/fig7_area_vs_cycle.csv").is_file());
    let csvs = std::fs::read_dir(ws.join("results")).expect("results/ exists");
    assert!(csvs
        .flatten()
        .all(|e| e.path().extension() != Some("csv".as_ref())));
    std::fs::remove_dir_all(&ws).ok();
}

#[test]
fn an_unknown_harness_word_exits_2_and_names_it() {
    let ws = scratch_workspace("unknown");
    let out = repro_in(&ws, &["nosuchfig"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"nosuchfig\""), "{err}");
    assert!(
        err.contains("table1") && err.contains("degradation"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    assert!(!ws.join("results").exists());
    std::fs::remove_dir_all(&ws).ok();
}

/// Collects every artifact in `dir` keyed by file name. Cache files
/// (`*.tsv`) are skipped: they are keyed stores, not rendered artifacts,
/// and their append order may legitimately differ between runs.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        if name.ends_with(".tsv") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).expect("read artifact"));
    }
    out
}

/// 64-bit FNV-1a: tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
#[ignore = "runs a full quick repro sweep (~minutes); exercised by the dedicated CI step"]
fn quick_repro_artifacts_match_the_golden_digests() {
    let dir = std::env::temp_dir().join(format!("ruche_golden_artifacts_{}", std::process::id()));
    run_repro(&dir);
    let actual: String = artifacts(&dir)
        .iter()
        .map(|(name, bytes)| format!("{:016x}  {name}\n", fnv1a64(bytes)))
        .collect();
    let expected: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "quick repro artifacts drifted from tests/repro_quick_golden.txt; \
         the digests of this run are:\n{actual}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
