//! Output helpers: the `results/` directory and experiment banners.

use std::path::{Path, PathBuf};

/// `RUCHE_RESULTS_DIR` if set (flagged `true`), else the `results/` of
/// the workspace around the working directory.
fn locate() -> (PathBuf, bool) {
    match std::env::var_os("RUCHE_RESULTS_DIR") {
        Some(d) => (PathBuf::from(d), true),
        None => (
            workspace_root(&std::env::current_dir().expect("cwd")).join("results"),
            false,
        ),
    }
}

/// The nearest of `start` and its three closest ancestors that holds a
/// `Cargo.toml` with a `[workspace]`; `start` itself when none does.
fn workspace_root(start: &Path) -> PathBuf {
    let is_root = |d: &&Path| {
        std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]"))
    };
    start
        .ancestors()
        .take(4)
        .find(is_root)
        .unwrap_or(start)
        .to_path_buf()
}

/// The results directory holding the caches (`sweep_store/`,
/// `cache.tsv`), created on demand; quick and full runs share it.
///
/// `RUCHE_RESULTS_DIR` redirects every artifact and cache file, letting
/// tests and scripted comparisons run the bench binaries against isolated
/// output directories.
pub fn results_dir() -> PathBuf {
    let dir = locate().0;
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a result artifact and reports its path. A quick run's
/// artifacts go to `results/quick/`, so they never replace the committed
/// full-run ones; a `RUCHE_RESULTS_DIR` takes every file flat.
pub fn write_artifact(quick: bool, name: &str, contents: &str) {
    let (mut dir, from_env) = locate();
    if quick && !from_env {
        dir.push("quick");
    }
    write_into(&dir, name, contents);
}

fn write_into(dir: &Path, name: &str, contents: &str) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write artifact");
    println!("[wrote {}]", path.display());
}

/// Prints an experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory under the system temp dir, unique per test.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ruche_out_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn workspace_root_stops_at_the_manifest_or_stays_at_the_start() {
        let tmp = scratch("root");
        let member = tmp.join("ws/crates/bench");
        std::fs::create_dir_all(&member).unwrap();
        std::fs::write(tmp.join("ws/Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(member.join("Cargo.toml"), "[package]\n").unwrap();
        assert_eq!(workspace_root(&member), tmp.join("ws"));
        // No workspace manifest within reach: stay put rather than
        // writing into some ancestor's `results/`.
        let bare = tmp.join("bare/a/b/c");
        std::fs::create_dir_all(&bare).unwrap();
        assert_eq!(workspace_root(&bare), bare);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn results_dir_exists_after_call() {
        let tmp = scratch("exists");
        let d = workspace_root(&tmp).join("results");
        write_into(&d, "a.txt", "");
        assert!(d.is_dir());
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn artifacts_roundtrip() {
        let tmp = scratch("roundtrip");
        write_into(&tmp, "test_artifact.txt", "hello");
        let p = tmp.join("test_artifact.txt");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
