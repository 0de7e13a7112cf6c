//! The `ruche-sim` service subcommands: `serve`, `submit`, and `eval`.
//!
//! * `ruche-sim serve` boots the long-lived sweep daemon
//!   (`ruche-service`) on a TCP or Unix socket, backed by the shared
//!   result store under `results/sweep_store/`.
//! * `ruche-sim submit` sends a batch file to a running daemon and
//!   prints the streamed response lines.
//! * `ruche-sim eval` answers the same batch file offline — through the
//!   very same [`ruche_service::respond`] seam the daemon uses — so its
//!   output is byte-identical to what `submit` receives. CI diffs the
//!   two (`service-smoke`).
//!
//! The module tree mirrors the split: [`opts`] parses the subcommand
//! options, [`batch`] turns batch files (pretty-printed JSON, JSONL, or
//! a bare request array) into protocol lines, and this module dispatches.

pub mod batch;
pub mod opts;

use ruche_bench::out::results_dir;
use ruche_bench::ResultStore;
use ruche_service::{respond, Client, Engine, Server};
use std::io::Write;
use std::sync::Arc;

/// Runs a service subcommand (`argv` excludes the subcommand word).
/// Returns the process exit code.
pub fn dispatch(cmd: &str, argv: &[String]) -> i32 {
    match cmd {
        "serve" => serve(argv),
        "submit" => submit(argv),
        "eval" => eval(argv),
        _ => {
            eprintln!("unknown service subcommand: {cmd}");
            opts::usage()
        }
    }
}

/// Builds the engine a daemon or offline evaluation runs on.
fn build_engine(o: &opts::EngineOpts) -> Engine {
    let mut engine = Engine::new(o.threads);
    if o.cache {
        let store = ResultStore::open_default();
        store.migrate_legacy_tsv(&results_dir().join("sweep_cache.tsv"));
        engine = engine.with_store(Arc::new(store));
    }
    engine
}

/// `ruche-sim serve`: run the daemon until a `{"cmd":"shutdown"}`
/// request (or a fatal accept error).
fn serve(argv: &[String]) -> i32 {
    let o = opts::ServeOpts::parse(argv);
    let server = match Server::bind(&o.bind, build_engine(&o.engine)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ruche-sim serve: cannot bind: {e}");
            return 1;
        }
    };
    // Stderr, so stdout stays free for embedding scripts that parse it.
    eprintln!("ruche-sim serve: listening on {}", server.addr());
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ruche-sim serve: accept loop failed: {e}");
            1
        }
    }
}

/// `ruche-sim submit`: send each request line to a running daemon and
/// print every response line.
fn submit(argv: &[String]) -> i32 {
    let o = opts::ClientOpts::parse(argv);
    let lines = match batch::request_lines(o.file.as_deref()) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("ruche-sim submit: cannot read batch: {e}");
            return 1;
        }
    };
    let mut client = match Client::connect(&o.bind) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ruche-sim submit: cannot connect: {e}");
            return 1;
        }
    };
    let stdout = std::io::stdout();
    for line in &lines {
        let result = if batch::is_batch(line) {
            client.submit(line).map(|resp| {
                let mut out = stdout.lock();
                for l in &resp {
                    let _ = writeln!(out, "{l}");
                }
            })
        } else {
            client.send(line).and_then(|()| client.recv()).map(|resp| {
                let _ = writeln!(stdout.lock(), "{resp}");
            })
        };
        if let Err(e) = result {
            eprintln!("ruche-sim submit: exchange failed: {e}");
            return 1;
        }
    }
    if o.shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("ruche-sim submit: shutdown failed: {e}");
            return 1;
        }
    }
    0
}

/// `ruche-sim eval`: answer each request line offline, printing the
/// byte-identical response lines a daemon would stream.
fn eval(argv: &[String]) -> i32 {
    let o = opts::EvalOpts::parse(argv);
    let lines = match batch::request_lines(o.file.as_deref()) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("ruche-sim eval: cannot read batch: {e}");
            return 1;
        }
    };
    let engine = build_engine(&o.engine);
    let stdout = std::io::stdout();
    for line in &lines {
        respond(&engine, line, &mut |resp| {
            let _ = writeln!(stdout.lock(), "{resp}");
        });
    }
    0
}
