//! # ruche-service
//!
//! The sweep service layer: a long-lived daemon (`ruche-sim serve`)
//! accepting batched sweep requests as line-oriented JSON over a TCP or
//! Unix socket, pre-screening every configuration through `ruche-verify`,
//! deduplicating identical in-flight jobs across concurrent clients,
//! executing on the existing `ruche-bench` sweep pool, and streaming
//! per-job results back incrementally in deterministic job order.
//!
//! The crate splits along the request's path:
//!
//! * [`proto`] — the wire protocol: request parsing, response rendering,
//!   structured [`JobError`]s.
//! * [`engine`] — screening, the cross-connection in-flight dedup map,
//!   and execution against the shared
//!   [`ResultStore`](ruche_bench::ResultStore).
//! * [`daemon`] / [`client`] — the socket server and a blocking client.
//! * [`metrics`] — counters (no wall-clock anything), exported over the
//!   protocol and through `ruche-telemetry` probes.
//!
//! [`respond`] is the seam tying them together: one request line in,
//! response lines out. The daemon calls it per connection line; the
//! offline `ruche-sim eval` path calls the very same function, which is
//! why daemon output is byte-identical to offline output
//! (`docs/SERVICE.md` walks through the guarantees).

#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod engine;
pub mod metrics;
pub mod proto;
mod sock;

pub use client::Client;
pub use daemon::Server;
pub use engine::{Engine, Outcome};
pub use metrics::Metrics;
pub use proto::{parse_request, Batch, JobError, Request};
pub use sock::Bind;

use proto::{
    render_bye, render_done, render_job_error, render_job_result, render_pong, render_request_error,
};

/// What the transport should do after a request: keep serving, or stop
/// the daemon (the answer to `{"cmd":"shutdown"}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// Stop the daemon once this connection's responses are written.
    Shutdown,
}

/// Answers one request line, writing each response line through `out`
/// (no trailing newline; the transport frames lines). Batch responses
/// stream through `out` in job order as they resolve.
///
/// This is the single entry point shared by the daemon connection loop
/// and the offline `ruche-sim eval` path — both produce byte-identical
/// response lines for the same request against equivalent state.
pub fn respond(engine: &Engine, line: &str, out: &mut dyn FnMut(&str)) -> Control {
    let line = line.trim();
    if line.is_empty() {
        return Control::Continue;
    }
    Metrics::add(&engine.metrics().requests, 1);
    match parse_request(line) {
        Err(e) => out(&render_request_error(&e)),
        Ok(Request::Ping) => out(&render_pong()),
        Ok(Request::Metrics) => out(&engine.metrics().render()),
        Ok(Request::Shutdown) => {
            out(&render_bye());
            return Control::Shutdown;
        }
        Ok(Request::Batch(batch)) => {
            let jobs = batch.jobs.len();
            engine.eval_batch(&batch, &mut |i, outcome| {
                out(&match outcome {
                    Ok(res) => render_job_result(i, res),
                    Err(e) => render_job_error(i, e),
                });
            });
            out(&render_done(jobs));
        }
    }
    Control::Continue
}
