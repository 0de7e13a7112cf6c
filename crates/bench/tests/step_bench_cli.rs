//! `step_bench` builds its networks directly, with no sweep pool or store:
//! the harness flags that only configure those are errors, not no-ops.

use std::process::Command;

#[test]
fn step_bench_rejects_threads_and_no_cache_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("ruche_step_bench_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (args, flag) in [
        (&["--threads", "1"][..], "--threads"),
        (&["--quick", "--threads=2"], "--threads=2"),
        (&["--no-cache", "--quick"], "--no-cache"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_step_bench"))
            .args(args)
            .current_dir(&dir)
            .env("RUCHE_RESULTS_DIR", &dir)
            .output()
            .expect("step_bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag:?}")), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} started the bench");
    }
    std::fs::remove_dir_all(&dir).ok();
}
