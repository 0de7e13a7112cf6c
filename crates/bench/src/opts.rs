//! Harness options.

/// Options shared by all figure harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Reduced sweeps for smoke runs (`--quick` or `RUCHE_QUICK=1`).
    pub quick: bool,
    /// Worker-pool width for the sweep engine (`--threads N`,
    /// `--threads=N`, or `RUCHE_THREADS=N`; defaults to the machine's
    /// available parallelism).
    pub threads: usize,
    /// Skip the on-disk sweep cache (`--no-cache` or `RUCHE_NO_CACHE=1`).
    pub no_cache: bool,
    /// Run the static pre-flight verification and exit without sweeping
    /// (`--verify-only` or `RUCHE_VERIFY_ONLY=1`).
    pub verify_only: bool,
    /// Run the `ruche-lint` invariant scan and exit without sweeping
    /// (`--lint-only` or `RUCHE_LINT_ONLY=1`).
    pub lint_only: bool,
    /// Capture per-link telemetry for one representative configuration per
    /// synthetic-traffic figure and write the JSON blobs under `results/`
    /// (`--telemetry` or `RUCHE_TELEMETRY=1`).
    pub telemetry: bool,
    /// Run the graceful-degradation fault sweep instead of the figure
    /// suite, writing `results/BENCH_degradation.json` (`--degradation` or
    /// `RUCHE_DEGRADATION=1`).
    pub degradation: bool,
}

/// The on/off flags [`Opts::parse`] accepts. `--bench` is what `cargo
/// bench` passes to `harness = false` targets; it selects nothing.
const SWITCHES: [&str; 7] = [
    "--quick",
    "--no-cache",
    "--verify-only",
    "--lint-only",
    "--telemetry",
    "--degradation",
    "--bench",
];

/// The machine's available parallelism (1 if it can't be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Opts {
    /// Parses from the process arguments and environment. An unknown flag
    /// or a malformed value prints the offending argument and exits with
    /// status 2 rather than starting a sweep the caller did not ask for.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args, |k| std::env::var(k).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses from explicit arguments (`args[0]` is the program name) and
    /// an environment lookup (the testable core of [`Self::from_env`]).
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, or the `--threads` value
    /// that is not a positive integer.
    pub fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut threads = None;
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            let value = match a.strip_prefix("--threads=") {
                Some(v) => v,
                None if a == "--threads" => it.next().ok_or("--threads needs a value")?,
                None if SWITCHES.contains(&a.as_str()) => continue,
                None => return Err(format!("unknown flag {a:?}")),
            };
            let n = value.parse().ok().filter(|&n: &usize| n > 0);
            threads = Some(n.ok_or(format!("--threads needs a positive integer, got {value:?}"))?);
        }
        let flag = |name: &str, var: &str| {
            args.iter().any(|a| a == name) || env(var).as_deref() == Some("1")
        };
        let threads = threads
            .or_else(|| env("RUCHE_THREADS").and_then(|v| v.parse().ok()))
            .filter(|&n| n > 0)
            .unwrap_or_else(default_threads);
        Ok(Opts {
            quick: flag("--quick", "RUCHE_QUICK"),
            threads,
            no_cache: flag("--no-cache", "RUCHE_NO_CACHE"),
            verify_only: flag("--verify-only", "RUCHE_VERIFY_ONLY"),
            lint_only: flag("--lint-only", "RUCHE_LINT_ONLY"),
            telemetry: flag("--telemetry", "RUCHE_TELEMETRY"),
            degradation: flag("--degradation", "RUCHE_DEGRADATION"),
        })
    }

    /// Full-sweep options.
    pub fn full() -> Self {
        Opts {
            quick: false,
            threads: default_threads(),
            no_cache: false,
            verify_only: false,
            lint_only: false,
            telemetry: false,
            degradation: false,
        }
    }

    /// Quick-sweep options.
    pub fn quick() -> Self {
        Opts {
            quick: true,
            ..Self::full()
        }
    }

    /// Overrides the worker-pool width.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Disables the on-disk sweep cache.
    pub fn without_cache(mut self) -> Self {
        self.no_cache = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const NO_ENV: fn(&str) -> Option<String> = |_| None;

    fn ok(args: &[String], env: impl Fn(&str) -> Option<String>) -> Opts {
        Opts::parse(args, env).expect("valid arguments")
    }

    #[test]
    fn constructors() {
        assert!(Opts::quick().quick);
        assert!(!Opts::full().quick);
        assert!(Opts::full().threads >= 1);
        assert!(!Opts::full().no_cache);
        assert_eq!(Opts::full().with_threads(3).threads, 3);
        assert!(Opts::full().without_cache().no_cache);
    }

    #[test]
    fn parses_threads_flag_both_forms() {
        let o = ok(&strs(&["bench", "--threads", "7"]), NO_ENV);
        assert_eq!(o.threads, 7);
        let o = ok(&strs(&["bench", "--threads=5", "--quick"]), NO_ENV);
        assert_eq!(o.threads, 5);
        assert!(o.quick);
    }

    #[test]
    fn parses_threads_env_and_flag_precedence() {
        let env = |k: &str| (k == "RUCHE_THREADS").then(|| "3".to_string());
        assert_eq!(ok(&strs(&["bench"]), env).threads, 3);
        // An explicit flag beats the environment.
        assert_eq!(ok(&strs(&["bench", "--threads=2"]), env).threads, 2);
    }

    #[test]
    fn rejects_zero_and_garbage_thread_counts() {
        for bad in [
            &["bench", "--threads", "0"][..],
            &["bench", "--threads=abc"],
        ] {
            let err = Opts::parse(&strs(bad), NO_ENV).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = Opts::parse(&strs(&["bench", "--threads", "abc"]), NO_ENV).unwrap_err();
        assert_eq!(err, "--threads needs a positive integer, got \"abc\"");
        let err = Opts::parse(&strs(&["bench", "--threads"]), NO_ENV).unwrap_err();
        assert_eq!(err, "--threads needs a value");
        // A garbage environment value still falls back to the default.
        let env = |k: &str| (k == "RUCHE_THREADS").then(|| "lots".to_string());
        assert_eq!(ok(&strs(&["bench"]), env).threads, default_threads());
    }

    #[test]
    fn unknown_flags_are_errors() {
        // A typo must not silently start the 20-minute full sweep, and a
        // removed flag must not be accepted as a no-op.
        for (flag, value) in [("--quik", None), ("--step-threads", Some("2"))] {
            let mut args = vec!["repro", flag];
            args.extend(value);
            let err = Opts::parse(&strs(&args), NO_ENV).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag:?}"));
        }
    }

    #[test]
    fn accepts_the_cargo_bench_argument() {
        // `cargo bench` passes `--bench` to `harness = false` targets.
        let o = ok(&strs(&["fig6", "--bench"]), NO_ENV);
        assert_eq!(o, Opts::parse(&strs(&["fig6"]), NO_ENV).unwrap());
    }

    #[test]
    fn parses_no_cache() {
        assert!(ok(&strs(&["bench", "--no-cache"]), NO_ENV).no_cache);
        let env = |k: &str| (k == "RUCHE_NO_CACHE").then(|| "1".to_string());
        assert!(ok(&strs(&["bench"]), env).no_cache);
        assert!(!ok(&strs(&["bench"]), NO_ENV).no_cache);
    }

    #[test]
    fn parses_telemetry() {
        assert!(ok(&strs(&["bench", "--telemetry"]), NO_ENV).telemetry);
        let env = |k: &str| (k == "RUCHE_TELEMETRY").then(|| "1".to_string());
        assert!(ok(&strs(&["bench"]), env).telemetry);
        assert!(!ok(&strs(&["bench"]), NO_ENV).telemetry);
        assert!(!Opts::full().telemetry);
    }

    #[test]
    fn parses_degradation() {
        assert!(ok(&strs(&["bench", "--degradation"]), NO_ENV).degradation);
        let env = |k: &str| (k == "RUCHE_DEGRADATION").then(|| "1".to_string());
        assert!(ok(&strs(&["bench"]), env).degradation);
        assert!(!ok(&strs(&["bench"]), NO_ENV).degradation);
        assert!(!Opts::full().degradation);
    }

    #[test]
    fn parses_lint_only() {
        assert!(ok(&strs(&["bench", "--lint-only"]), NO_ENV).lint_only);
        let env = |k: &str| (k == "RUCHE_LINT_ONLY").then(|| "1".to_string());
        assert!(ok(&strs(&["bench"]), env).lint_only);
        assert!(!ok(&strs(&["bench"]), NO_ENV).lint_only);
        assert!(!Opts::full().lint_only);
    }

    #[test]
    fn parses_verify_only() {
        assert!(ok(&strs(&["bench", "--verify-only"]), NO_ENV).verify_only);
        let env = |k: &str| (k == "RUCHE_VERIFY_ONLY").then(|| "1".to_string());
        assert!(ok(&strs(&["bench"]), env).verify_only);
        assert!(!ok(&strs(&["bench"]), NO_ENV).verify_only);
        assert!(!Opts::full().verify_only);
    }
}
