//! Option parsing for the `serve`, `submit`, and `eval` subcommands.
//!
//! The same flat `--flag value` style as the simulator CLI. Engine
//! flags (`--threads`, `--step-mode`, `--no-cache`)
//! are shared between `serve` and `eval` so the offline path can be
//! configured identically to the daemon it is diffed against.

use ruche_noc::topology::StepMode;
use ruche_service::Bind;
use std::path::PathBuf;

/// Default TCP address for `serve` and `submit` when neither `--bind`
/// nor `--unix` is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7641";

/// Prints subcommand usage to stderr; returns the exit code to use.
pub fn usage() -> i32 {
    eprintln!(
        "usage: ruche-sim serve  [--bind ADDR | --unix PATH] [--threads N] \
         [--step-mode cycle|event] [--no-cache]\n\
         \x20      ruche-sim submit [--bind ADDR | --unix PATH] [--file PATH] [--shutdown]\n\
         \x20      ruche-sim eval   [--file PATH] [--threads N] \
         [--step-mode cycle|event] [--no-cache]\n\
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
    /// Stepping mode override (`--step-mode`).
    pub step_mode: Option<StepMode>,
    /// Whether to back the engine with the on-disk result store
    /// (disabled by `--no-cache`).
    pub cache: bool,
}

impl Default for EngineOpts {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            step_mode: None,
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
            "--step-mode" => self.step_mode = Some(parse_step_mode(value(it, flag)?)?),
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

fn parse_step_mode(s: &str) -> Result<StepMode, String> {
    match s {
        "cycle" => Ok(StepMode::CycleAccurate),
        "event" => Ok(StepMode::EventDriven),
        other => Err(format!(
            "unknown step mode {other:?}; expected cycle or event"
        )),
    }
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
            "--step-mode",
            "event",
            "--no-cache",
        ]))
        .expect("parses");
        assert_eq!(o.engine.threads, 3);
        assert_eq!(o.engine.step_mode, Some(StepMode::EventDriven));
        assert!(!o.engine.cache);
    }

    #[test]
    fn defaults_use_the_cache_and_all_cores() {
        let o = ServeOpts::try_parse(&[]).expect("parses");
        assert!(o.engine.cache);
        assert!(o.engine.threads >= 1);
        assert_eq!(o.engine.step_mode, None);
    }

    #[test]
    fn bad_flags_are_reported_not_ignored() {
        assert!(ServeOpts::try_parse(&args(&["--step-mode", "warp"]))
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
        // `--step-threads` and the `auto` step mode no longer exist: both
        // come back as the usual structured flag error, never a panic.
        let serve = ServeOpts::try_parse(&args(&["--step-threads", "2"])).unwrap_err();
        assert!(serve.contains("--step-threads"), "{serve}");
        let eval = EvalOpts::try_parse(&args(&["--step-threads", "2"])).unwrap_err();
        assert!(eval.contains("--step-threads"), "{eval}");
        let serve = ServeOpts::try_parse(&args(&["--step-mode", "auto"])).unwrap_err();
        assert!(serve.contains("auto"), "{serve}");
        let eval = EvalOpts::try_parse(&args(&["--step-mode", "auto"])).unwrap_err();
        assert!(eval.contains("auto"), "{eval}");
    }

    #[test]
    fn submit_collects_file_and_shutdown() {
        let o =
            ClientOpts::try_parse(&args(&["--file", "batch.json", "--shutdown"])).expect("parses");
        assert_eq!(o.file.as_deref(), Some(std::path::Path::new("batch.json")));
        assert!(o.shutdown);
    }
}
