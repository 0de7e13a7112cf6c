//! Harness options.

/// Options shared by all figure harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Reduced sweeps for smoke runs (`--quick`). Their artifacts go to
    /// `results/quick/`, apart from the committed full-run ones.
    pub quick: bool,
    /// Worker-pool width for the sweep engine (`--threads N` or
    /// `--threads=N`; defaults to the machine's available parallelism).
    pub threads: usize,
    /// Skip the on-disk sweep cache (`--no-cache`).
    pub no_cache: bool,
}

/// The machine's available parallelism (1 if it can't be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Prints a command-line error and exits with status 2: a bad argument
/// must not start a sweep the caller did not ask for.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

impl Opts {
    /// Parses the process arguments: the options, then the positional
    /// words in order. Exits through [`usage_error`] on a bad flag.
    pub fn from_args() -> (Self, Vec<String>) {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses explicit arguments (`args[0]` is the program name; the
    /// testable core of [`Self::from_args`]). An argument that does not
    /// start with `-` is a positional word, returned in order.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, or the `--threads` value
    /// that is not a positive integer.
    pub fn parse(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut opts = Self::full();
        let mut words = Vec::new();
        let threads = |v: &str| {
            let n = v.parse().ok().filter(|&n: &usize| n > 0);
            n.ok_or(format!("--threads needs a positive integer, got {v:?}"))
        };
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--no-cache" => opts.no_cache = true,
                "--threads" => opts.threads = threads(it.next().ok_or("--threads needs a value")?)?,
                w if !w.starts_with('-') => words.push(a.clone()),
                _ => match a.strip_prefix("--threads=") {
                    Some(v) => opts.threads = threads(v)?,
                    None => return Err(format!("unknown flag {a:?}")),
                },
            }
        }
        Ok((opts, words))
    }

    /// Full-sweep options.
    pub fn full() -> Self {
        Opts {
            quick: false,
            threads: default_threads(),
            no_cache: false,
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

    fn ok(args: &[&str]) -> Opts {
        let (opts, words) = Opts::parse(&strs(args)).expect("valid arguments");
        assert!(words.is_empty(), "{words:?}");
        opts
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
        let o = ok(&["bench", "--threads", "7"]);
        assert_eq!(o.threads, 7);
        let o = ok(&["bench", "--threads=5", "--quick"]);
        assert_eq!(o.threads, 5);
        assert!(o.quick);
    }

    #[test]
    fn parses_threads_env_and_flag_precedence() {
        assert_eq!(ok(&["bench"]).threads, default_threads());
        // The last `--threads` wins.
        assert_eq!(ok(&["bench", "--threads", "3", "--threads=2"]).threads, 2);
    }

    #[test]
    fn rejects_zero_and_garbage_thread_counts() {
        for bad in [
            &["bench", "--threads", "0"][..],
            &["bench", "--threads=abc"],
        ] {
            let err = Opts::parse(&strs(bad)).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = Opts::parse(&strs(&["bench", "--threads", "abc"])).unwrap_err();
        assert_eq!(err, "--threads needs a positive integer, got \"abc\"");
        let err = Opts::parse(&strs(&["bench", "--threads"])).unwrap_err();
        assert_eq!(err, "--threads needs a value");
    }

    #[test]
    fn unknown_flags_are_errors() {
        // A typo must not silently start the 20-minute full sweep, and a
        // removed flag must not be accepted as a no-op.
        for (flag, value) in [
            ("--quik", None),
            ("--step-threads", Some("2")),
            ("--lint-only", None),
            ("--verify-only", None),
            ("--telemetry", None),
            ("--degradation", None),
            ("--bench", None),
        ] {
            let mut args = vec!["repro", flag];
            args.extend(value);
            let err = Opts::parse(&strs(&args)).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag:?}"));
        }
    }

    #[test]
    fn parses_no_cache() {
        assert!(ok(&["bench", "--no-cache"]).no_cache);
        assert!(!ok(&["bench"]).no_cache);
    }

    #[test]
    fn words_come_back_in_order_between_flags() {
        let (o, words) = Opts::parse(&strs(&[
            "repro",
            "fig7",
            "--threads",
            "2",
            "table1",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(words, ["fig7", "table1"]);
        assert_eq!((o.threads, o.quick), (2, true));
    }
}
