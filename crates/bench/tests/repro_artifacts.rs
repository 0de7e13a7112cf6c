//! The full `repro --quick` artifact set is pinned end to end: it must
//! match the committed golden digests byte for byte, and it must be
//! byte-identical whether the clock advances cycle by cycle or through the
//! event wheel — the end-to-end form of the determinism guarantees in
//! `docs/EVENTS.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Golden digests of the quick artifact set (see the file's header).
const GOLDEN: &str = include_str!("repro_quick_golden.txt");

/// Runs the real `repro` binary with the given extra CLI arguments,
/// redirecting artifacts into `dir` and bypassing the run cache so every
/// point is actually simulated.
fn run_repro(args: &[&str], dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--telemetry"])
        .args(args)
        .env("RUCHE_RESULTS_DIR", dir)
        .env("RUCHE_NO_CACHE", "1")
        .env("RUCHE_THREADS", "2")
        .stdout(std::process::Stdio::null())
        .status()
        .expect("repro binary runs");
    assert!(status.success(), "repro --quick {args:?} failed");
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
    run_repro(&[], &dir);
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

#[test]
#[ignore = "runs two full quick repro sweeps (~minutes); exercised by the dedicated CI step"]
fn quick_repro_artifacts_are_byte_identical_across_step_modes() {
    let base = std::env::temp_dir().join(format!("ruche_mode_artifacts_{}", std::process::id()));
    let cycle_dir: PathBuf = base.join("cycle");
    let event_dir: PathBuf = base.join("event");
    run_repro(&["--step-mode", "cycle"], &cycle_dir);
    run_repro(&["--step-mode", "event"], &event_dir);

    let cycle = artifacts(&cycle_dir);
    let event = artifacts(&event_dir);
    assert!(
        cycle.contains_key("fig6_synthetic_curves.csv"),
        "missing fig6 artifact"
    );
    assert_eq!(
        cycle.keys().collect::<Vec<_>>(),
        event.keys().collect::<Vec<_>>(),
        "the two step modes must write the same artifact set"
    );
    for (name, bytes) in &cycle {
        assert_eq!(
            Some(bytes),
            event.get(name),
            "artifact {name} differs between --step-mode cycle and --step-mode event"
        );
    }

    std::fs::remove_dir_all(&base).ok();
}
