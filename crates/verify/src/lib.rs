//! # ruche-verify
//!
//! Static verification of [`NetworkConfig`]s — no simulation required.
//!
//! The verifier enumerates every routing state a configuration can reach
//! (all `(router, input port, input VC, destination)` combinations that
//! deterministic routing admits), drives the per-hop route-compute
//! function over them, and proves — or refutes with a concrete
//! counterexample — the invariants the simulator otherwise only
//! *assumes*:
//!
//! * **Deadlock freedom** (Dally & Seitz): the channel-dependency graph
//!   over `(link, vc)` channels is acyclic. A violation is reported as
//!   the actual cycle, channel by channel, with the route inducing each
//!   dependency edge.
//! * **Route totality and livelock freedom**: every route terminates at
//!   its destination within the hop bound, and every hop strictly
//!   decreases the remaining distance.
//! * **Crossbar consistency**: every routing transition is implemented
//!   by the configured crossbar scheme, and every VC request fits the
//!   port's VC count (with dateline monotonicity on torus rings).
//! * **Symmetry**: route lengths are reflection-invariant on
//!   translation-symmetric topologies.
//!
//! See `docs/VERIFY.md` at the repository root for the underlying model
//! and how to read a cycle witness.
//!
//! ## Quick start
//!
//! ```
//! use ruche_noc::prelude::*;
//! use ruche_verify::verify;
//!
//! let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::Depopulated);
//! let report = verify(&cfg);
//! assert!(report.is_clean(), "{report}");
//! ```
//!
//! The `verify_net` binary runs the same analysis over every
//! configuration the paper's figures sweep ([`grid::paper_grid`]) and
//! exits non-zero on any error finding; [`install_debug_hook`] arranges
//! for debug builds of the simulator to verify each [`Network`]
//! construction automatically.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod cdg;
pub mod faulted;
pub mod grid;
mod lints;
mod report;

pub use faulted::{verify_faulted, verify_faulted_cached};
pub use report::{CdgStats, Channel, Finding, Lint, Report, Severity, Witness};
pub use ruche_noc::routing::RouteId;

use ruche_noc::prelude::*;
// lint:allow(hash-order): verdict cache keyed by the `Debug` rendering of the
// config (and fault model), lookup-only.
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A per-hop routing function, same signature as [`compute_route`].
/// [`verify_with`] accepts any such function, which is how the test suite
/// proves the checker catches deliberately broken routing (e.g. a torus
/// with the dateline VC switch disabled).
///
/// It must be a pure function of `(cfg, here, in_dir, in_vc, dest)`: the
/// verifier decides each routing state once per destination and reuses
/// that decision for every route that reaches the state.
pub type RouteFn = dyn Fn(&NetworkConfig, Coord, Dir, u8, Dest) -> RouteDecision;

/// Statically verifies `cfg` under its real routing function.
pub fn verify(cfg: &NetworkConfig) -> Report {
    verify_with(cfg, &ruche_noc::routing::compute_route)
}

/// Statically verifies `cfg`, walking routes with an arbitrary routing
/// function instead of the built-in one.
///
/// The crossbar-connectivity lint still checks against the crossbar the
/// *configuration* implements, so this doubles as a check that a custom
/// routing function fits the configured hardware.
pub fn verify_with(cfg: &NetworkConfig, route_fn: &RouteFn) -> Report {
    lints::analyze(cfg, route_fn)
}

/// Memoized pass/fail verification, keyed by the configuration.
///
/// Returns `Err` with the rendered report when verification produces any
/// error finding. Results are cached process-wide: repeated construction
/// of the same configuration (the sweep engine builds thousands of
/// [`Network`]s) verifies only once.
///
/// # Errors
///
/// The rendered [`Report`] of a configuration with error findings.
pub fn verify_cached(cfg: &NetworkConfig) -> Result<(), String> {
    cached_verdict(format!("{cfg:?}"), || verify(cfg))
}

/// The verdict memo behind [`verify_cached`] and
/// [`verify_faulted_cached`]: the verdict stored under `key`, or the one
/// `verify`'s report gives, stored there.
fn cached_verdict(key: String, verify: impl FnOnce() -> Report) -> Result<(), String> {
    static CACHE: OnceLock<Mutex<HashMap<String, Result<(), String>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("verify cache lock").get(&key) {
        return hit.clone();
    }
    let report = verify();
    let result = if report.has_errors() {
        Err(report.render())
    } else {
        Ok(())
    };
    cache
        .lock()
        .expect("verify cache lock")
        .insert(key, result.clone());
    result
}

/// Registers [`verify_cached`] as the simulator's debug-build
/// verification hook: every `Network::new` in a `debug_assertions` build
/// then statically verifies its configuration before constructing the
/// network, panicking with the full report on an error finding.
///
/// Returns `false` if a hook was already installed (the first
/// installation wins); installing this crate's hook twice is harmless.
pub fn install_debug_hook() -> bool {
    ruche_noc::sim::register_debug_verifier(verify_cached)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_mesh_verifies() {
        let report = verify(&NetworkConfig::mesh(Dims::new(6, 6)));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.largest_scc, 1);
    }

    #[test]
    fn cached_verification_is_stable() {
        let cfg = NetworkConfig::torus(Dims::new(6, 6));
        assert_eq!(verify_cached(&cfg), Ok(()));
        assert_eq!(verify_cached(&cfg), Ok(()));
    }

    #[test]
    fn invalid_config_reports_config_lint() {
        let cfg = NetworkConfig::full_ruche(Dims::new(4, 4), 9, CrossbarScheme::Depopulated);
        let report = verify(&cfg);
        assert!(report.has_errors());
        assert!(report.of_lint(Lint::Config).count() == 1, "{report}");
    }
}
