//! Option parsing for the `serve`, `submit`, and `eval` subcommands.
//!
//! The same flat `--flag value` style as the simulator CLI. Engine
//! flags (`--threads`, `--no-cache`) are shared between `serve` and `eval` so the offline path can be
//! configured identically to the daemon it is diffed against.

use ruche_service::Bind;
use std::path::PathBuf;

/// Default TCP address for `serve` and `submit` when neither `--bind`
/// nor `--unix` is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7641";

/// Prints subcommand usage to stderr; returns the exit code to use.
pub fn usage() -> i32 {
    eprintln!(
        "usage: ruche-sim serve  [--bind ADDR | --unix PATH] [--threads N] [--no-cache]\n\
         \x20      ruche-sim submit [--bind ADDR | --unix PATH] [--file PATH] [--shutdown]\n\
         \x20      ruche-sim eval   [--file PATH] [--threads N] [--no-cache]\n\
         \n\
         submit/eval read protocol lines from --file (or stdin): a JSON object\n\
         per line, one whole-file JSON object, or a bare array of sweep requests\n\
         (wrapped into a single batch)."
    );
    2
}

/// Engine construction flags shared by `serve` and `eval`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOpts {
    /// Sweep pool width (`--threads`, default: all available cores).
    pub threads: usize,
    /// Whether to back the engine with the on-disk result store
    /// (disabled by `--no-cache`).
    pub cache: bool,
}

impl Default for EngineOpts {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cache: true,
        }
    }
}

impl EngineOpts {
    /// Consumes `flag` (pulling values from `it`) if it is an engine
    /// flag; returns whether it was.
    fn accept<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        match flag {
            "--threads" => self.threads = parse_count(value(it, flag)?, flag)?.max(1),
            "--no-cache" => self.cache = false,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options for `ruche-sim serve`.
#[derive(Debug)]
pub struct ServeOpts {
    /// Where to listen.
    pub bind: Bind,
    /// Engine construction flags.
    pub engine: EngineOpts,
}

impl ServeOpts {
    /// Parses `serve` arguments, exiting with usage on error.
    pub fn parse(argv: &[String]) -> Self {
        unwrap_or_usage(Self::try_parse(argv))
    }

    fn try_parse(argv: &[String]) -> Result<Self, String> {
        let mut bind = Bind::tcp(DEFAULT_ADDR);
        let mut engine = EngineOpts::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--bind" => bind = Bind::tcp(value(&mut it, flag)?),
                "--unix" => bind = Bind::unix(value(&mut it, flag)?),
                other => {
                    if !engine.accept(other, &mut it)? {
                        return Err(format!("unknown serve flag {other:?}"));
                    }
                }
            }
        }
        Ok(Self { bind, engine })
    }
}

/// Options for `ruche-sim submit`.
#[derive(Debug)]
pub struct ClientOpts {
    /// Daemon to talk to.
    pub bind: Bind,
    /// Batch file (`--file`; stdin when absent).
    pub file: Option<PathBuf>,
    /// Send `{"cmd":"shutdown"}` after the batch (`--shutdown`).
    pub shutdown: bool,
}

impl ClientOpts {
    /// Parses `submit` arguments, exiting with usage on error.
    pub fn parse(argv: &[String]) -> Self {
        unwrap_or_usage(Self::try_parse(argv))
    }

    fn try_parse(argv: &[String]) -> Result<Self, String> {
        let mut bind = Bind::tcp(DEFAULT_ADDR);
        let mut file = None;
        let mut shutdown = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--bind" => bind = Bind::tcp(value(&mut it, flag)?),
                "--unix" => bind = Bind::unix(value(&mut it, flag)?),
                "--file" => file = Some(PathBuf::from(value(&mut it, flag)?)),
                "--shutdown" => shutdown = true,
                other => return Err(format!("unknown submit flag {other:?}")),
            }
        }
        Ok(Self {
            bind,
            file,
            shutdown,
        })
    }
}

/// Options for `ruche-sim eval`.
#[derive(Debug)]
pub struct EvalOpts {
    /// Batch file (`--file`; stdin when absent).
    pub file: Option<PathBuf>,
    /// Engine construction flags.
    pub engine: EngineOpts,
}

impl EvalOpts {
    /// Parses `eval` arguments, exiting with usage on error.
    pub fn parse(argv: &[String]) -> Self {
        unwrap_or_usage(Self::try_parse(argv))
    }

    fn try_parse(argv: &[String]) -> Result<Self, String> {
        let mut file = None;
        let mut engine = EngineOpts::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--file" => file = Some(PathBuf::from(value(&mut it, flag)?)),
                other => {
                    if !engine.accept(other, &mut it)? {
                        return Err(format!("unknown eval flag {other:?}"));
                    }
                }
            }
        }
        Ok(Self { file, engine })
    }
}

fn unwrap_or_usage<T>(r: Result<T, String>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ruche-sim: {e}");
            std::process::exit(usage());
        }
    }
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_count(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag} needs an unsigned integer, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn serve_flags_parse() {
        let o = ServeOpts::try_parse(&args(&[
            "--bind",
            "0.0.0.0:9000",
            "--threads",
            "3",
            "--no-cache",
        ]))
        .expect("parses");
        assert_eq!(o.engine.threads, 3);
        assert!(!o.engine.cache);
    }

    #[test]
    fn defaults_use_the_cache_and_all_cores() {
        let o = ServeOpts::try_parse(&[]).expect("parses");
        assert!(o.engine.cache);
        assert!(o.engine.threads >= 1);
    }

    #[test]
    fn bad_flags_are_reported_not_ignored() {
        assert!(ServeOpts::try_parse(&args(&["--threads", "warp"]))
            .unwrap_err()
            .contains("warp"));
        assert!(ServeOpts::try_parse(&args(&["--threads"]))
            .unwrap_err()
            .contains("--threads"));
        assert!(ClientOpts::try_parse(&args(&["--frobnicate"]))
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(EvalOpts::try_parse(&args(&["--bind", "x"])).is_err());
    }

    #[test]
    fn removed_engine_options_are_flag_errors() {
        // `--step-threads` and `--step-mode` no longer exist: each comes
        // back as the usual unknown-flag error, never a panic or a silent
        // no-op.
        for (flag, value) in [("--step-threads", "2"), ("--step-mode", "event")] {
            let serve = ServeOpts::try_parse(&args(&[flag, value])).unwrap_err();
            assert_eq!(serve, format!("unknown serve flag {flag:?}"));
            let eval = EvalOpts::try_parse(&args(&[flag, value])).unwrap_err();
            assert_eq!(eval, format!("unknown eval flag {flag:?}"));
        }
    }

    #[test]
    fn submit_collects_file_and_shutdown() {
        let o =
            ClientOpts::try_parse(&args(&["--file", "batch.json", "--shutdown"])).expect("parses");
        assert_eq!(o.file.as_deref(), Some(std::path::Path::new("batch.json")));
        assert!(o.shutdown);
    }
}
