//! Harness options.

use ruche_noc::topology::StepMode;

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
    /// Clock-advance mode applied to every simulated network
    /// (`--step-mode cycle|event`, `--step-mode=..`, or
    /// `RUCHE_STEP_MODE=..`; `None` lets each network resolve the
    /// environment itself). Results are byte-identical in either mode —
    /// event mode only fast-forwards provably-empty spans.
    pub step_mode: Option<StepMode>,
}

/// The machine's available parallelism (1 if it can't be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Opts {
    /// Parses from the process arguments and environment.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args, |k| std::env::var(k).ok())
    }

    /// Parses from explicit arguments and an environment lookup (the
    /// testable core of [`Self::from_env`]).
    pub fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Self {
        let flag = |name: &str, var: &str| {
            args.iter().any(|a| a == name) || env(var).as_deref() == Some("1")
        };
        let mut threads = None;
        let mut step_mode = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--threads" {
                threads = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--threads=") {
                threads = v.parse().ok();
            } else if a == "--step-mode" {
                step_mode = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--step-mode=") {
                step_mode = v.parse().ok();
            }
        }
        let threads = threads
            .or_else(|| env("RUCHE_THREADS").and_then(|v| v.parse().ok()))
            .filter(|&n| n > 0)
            .unwrap_or_else(default_threads);
        let step_mode = step_mode.or_else(|| env("RUCHE_STEP_MODE").and_then(|v| v.parse().ok()));
        Opts {
            quick: flag("--quick", "RUCHE_QUICK"),
            threads,
            no_cache: flag("--no-cache", "RUCHE_NO_CACHE"),
            verify_only: flag("--verify-only", "RUCHE_VERIFY_ONLY"),
            lint_only: flag("--lint-only", "RUCHE_LINT_ONLY"),
            telemetry: flag("--telemetry", "RUCHE_TELEMETRY"),
            degradation: flag("--degradation", "RUCHE_DEGRADATION"),
            step_mode,
        }
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
            step_mode: None,
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

    /// Overrides the clock-advance mode applied to simulated networks.
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = Some(mode);
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
        let o = Opts::parse(&strs(&["bench", "--threads", "7"]), NO_ENV);
        assert_eq!(o.threads, 7);
        let o = Opts::parse(&strs(&["bench", "--threads=5", "--quick"]), NO_ENV);
        assert_eq!(o.threads, 5);
        assert!(o.quick);
    }

    #[test]
    fn parses_threads_env_and_flag_precedence() {
        let env = |k: &str| (k == "RUCHE_THREADS").then(|| "3".to_string());
        assert_eq!(Opts::parse(&strs(&["bench"]), env).threads, 3);
        // An explicit flag beats the environment.
        assert_eq!(
            Opts::parse(&strs(&["bench", "--threads=2"]), env).threads,
            2
        );
    }

    #[test]
    fn rejects_zero_and_garbage_thread_counts() {
        let o = Opts::parse(&strs(&["bench", "--threads", "0"]), NO_ENV);
        assert!(o.threads >= 1);
        let o = Opts::parse(&strs(&["bench", "--threads", "lots"]), NO_ENV);
        assert_eq!(o.threads, default_threads());
    }

    #[test]
    fn parses_no_cache() {
        assert!(Opts::parse(&strs(&["bench", "--no-cache"]), NO_ENV).no_cache);
        let env = |k: &str| (k == "RUCHE_NO_CACHE").then(|| "1".to_string());
        assert!(Opts::parse(&strs(&["bench"]), env).no_cache);
        assert!(!Opts::parse(&strs(&["bench"]), NO_ENV).no_cache);
    }

    #[test]
    fn parses_telemetry() {
        assert!(Opts::parse(&strs(&["bench", "--telemetry"]), NO_ENV).telemetry);
        let env = |k: &str| (k == "RUCHE_TELEMETRY").then(|| "1".to_string());
        assert!(Opts::parse(&strs(&["bench"]), env).telemetry);
        assert!(!Opts::parse(&strs(&["bench"]), NO_ENV).telemetry);
        assert!(!Opts::full().telemetry);
    }

    #[test]
    fn parses_degradation() {
        assert!(Opts::parse(&strs(&["bench", "--degradation"]), NO_ENV).degradation);
        let env = |k: &str| (k == "RUCHE_DEGRADATION").then(|| "1".to_string());
        assert!(Opts::parse(&strs(&["bench"]), env).degradation);
        assert!(!Opts::parse(&strs(&["bench"]), NO_ENV).degradation);
        assert!(!Opts::full().degradation);
    }

    #[test]
    fn parses_step_mode_flag_env_and_default() {
        assert_eq!(Opts::parse(&strs(&["bench"]), NO_ENV).step_mode, None);
        let o = Opts::parse(&strs(&["bench", "--step-mode", "event"]), NO_ENV);
        assert_eq!(o.step_mode, Some(StepMode::EventDriven));
        let o = Opts::parse(&strs(&["bench", "--step-mode=cycle"]), NO_ENV);
        assert_eq!(o.step_mode, Some(StepMode::CycleAccurate));
        let env = |k: &str| (k == "RUCHE_STEP_MODE").then(|| "cycle".to_string());
        assert_eq!(
            Opts::parse(&strs(&["bench"]), env).step_mode,
            Some(StepMode::CycleAccurate)
        );
        // An explicit flag beats the environment.
        assert_eq!(
            Opts::parse(&strs(&["bench", "--step-mode=event"]), env).step_mode,
            Some(StepMode::EventDriven)
        );
        // Garbage spellings fall back to unset rather than aborting.
        for garbage in ["wheel", "auto"] {
            assert_eq!(
                Opts::parse(&strs(&["bench", "--step-mode", garbage]), NO_ENV).step_mode,
                None
            );
        }
        assert_eq!(
            Opts::full().with_step_mode(StepMode::EventDriven).step_mode,
            Some(StepMode::EventDriven)
        );
    }

    #[test]
    fn parses_lint_only() {
        assert!(Opts::parse(&strs(&["bench", "--lint-only"]), NO_ENV).lint_only);
        let env = |k: &str| (k == "RUCHE_LINT_ONLY").then(|| "1".to_string());
        assert!(Opts::parse(&strs(&["bench"]), env).lint_only);
        assert!(!Opts::parse(&strs(&["bench"]), NO_ENV).lint_only);
        assert!(!Opts::full().lint_only);
    }

    #[test]
    fn parses_verify_only() {
        assert!(Opts::parse(&strs(&["bench", "--verify-only"]), NO_ENV).verify_only);
        let env = |k: &str| (k == "RUCHE_VERIFY_ONLY").then(|| "1".to_string());
        assert!(Opts::parse(&strs(&["bench"]), env).verify_only);
        assert!(!Opts::parse(&strs(&["bench"]), NO_ENV).verify_only);
        assert!(!Opts::full().verify_only);
    }
}
