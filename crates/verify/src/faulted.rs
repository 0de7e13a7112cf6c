//! Static verification of fault-injected configurations.
//!
//! A faulted network routes with the precomputed up\*/down\* table
//! (see [`ruche_noc::fault`]), not DOR, so the unfaulted lint battery does
//! not apply wholesale:
//!
//! * **Checked** — route totality over the surviving channels (every
//!   reachable pair terminates within the hop bound, never crossing a
//!   dead channel) and Dally–Seitz deadlock freedom of the faulted
//!   channel-dependency graph, with concrete cycle witnesses. The
//!   degradation sweep refuses to simulate any faulted configuration
//!   whose report has errors.
//! * **Reported as info** — pairs the faults partition away
//!   ([`Lint::Unreachable`]): benign, but the traffic layer must not
//!   offer load to them (and the degradation metrics account for them).
//! * **Skipped** — minimal-progress (detours legitimately move away from
//!   the destination), crossbar connectivity (fault routing assumes the
//!   fully-populated turn capability), symmetry (faults break it by
//!   design), and the VC lints (fault injection is wormhole-only, VC 0).

use crate::cdg::Cdg;
use crate::lints::{self, route_witness};
use crate::report::{CdgStats, Lint, Report, Severity, Witness};
use ruche_noc::fault::{FaultModel, RouteTable};
use ruche_noc::prelude::*;
use ruche_noc::routing::{trace, Cases, Visit};

/// Statically verifies `cfg` with `faults` injected: route totality over
/// the surviving channels plus deadlock freedom of the faulted
/// channel-dependency graph. See the [module docs](self) for exactly
/// which lints run.
pub fn verify_faulted(cfg: &NetworkConfig, faults: &FaultModel) -> Report {
    let label = format!("{}+faults", cfg.label());
    let dims = format!("{}x{}", cfg.dims.cols, cfg.dims.rows);
    let mut sink = lints::Sink::new();

    let table = match cfg
        .validate()
        .map_err(|e| format!("configuration rejected: {e}"))
        .and_then(|()| {
            RouteTable::build(cfg, faults).map_err(|e| format!("fault model rejected: {e}"))
        }) {
        Ok(table) => table,
        Err(message) => {
            sink.push(Lint::Config, Severity::Error, || (message, None));
            return Report {
                label,
                dims,
                findings: sink.finish(),
                stats: CdgStats::default(),
            };
        }
    };

    let cases = Cases::new(cfg);
    // Fault routing is single-VC: the table ignores the input VC.
    let decide = |here, in_dir, _, dest| table.route(here, in_dir, dest);
    let mut cdg = Cdg::new(cfg.dims);
    let mut held = None;
    let mut failed = Vec::new();
    cases.walk(
        decide,
        #[inline(always)]
        |visit| match visit {
            Visit::State {
                number,
                route,
                step,
                next,
            } => {
                // A table route must never board a dead channel; this firing
                // means the table construction itself is broken.
                if faults.channel_dead(cfg, step.here, step.out) {
                    sink.push(Lint::RouteTotality, Severity::Error, || {
                        let message =
                            format!("route crosses dead channel {} -{}->", step.here, step.out);
                        let steps = match trace(cfg, route, decide) {
                            Ok(steps) | Err((_, steps)) => steps,
                        };
                        (message, Some(route_witness(route, &steps)))
                    });
                }
                if next.is_some() {
                    let channel = cdg.channel(step.here, step.out, step.out_vc);
                    if let Some(held) = held {
                        cdg.depend(held, channel, number, route);
                    }
                    held = Some(channel);
                }
            }
            Visit::Route {
                number,
                route,
                length,
            } => {
                held = None;
                if length.is_none() {
                    failed.push((number, route));
                }
            }
        },
    );

    // The walk goes destination by destination; the failures are
    // reported in route-number order, since only the first few findings
    // of a lint keep their message.
    failed.sort_unstable_by_key(|&(number, _)| number);
    let mut unreachable = 0usize;
    for (_, route) in failed {
        let (err, partial) = trace(cfg, route, decide).expect_err("the walk found it fails");
        if let RouteError::Unreachable { .. } = err {
            unreachable += 1;
            sink.push(Lint::Unreachable, Severity::Info, || {
                (format!("faults partition {route}"), None)
            });
        } else {
            sink.push(Lint::RouteTotality, Severity::Error, || {
                (format!("{err}"), Some(route_witness(route, &partial)))
            });
        }
    }

    let (stats, cycles) = cdg.finish(cases.count());
    for (channels, routes) in cycles {
        sink.push(Lint::ChannelDeadlock, Severity::Error, || {
            let message = format!(
                "channel-dependency cycle of length {} — the faulted network can deadlock",
                channels.len()
            );
            (message, Some(Witness::Cycle { channels, routes }))
        });
    }

    sink.push(Lint::CdgStats, Severity::Info, || {
        let message = format!(
            "{} channels, {} dependencies from {} routes ({unreachable} unreachable); \
             largest SCC {}",
            stats.channels, stats.dependencies, stats.routes, stats.largest_scc
        );
        (message, None)
    });

    Report {
        label,
        dims,
        findings: sink.finish(),
        stats,
    }
}

/// Memoized pass/fail faulted verification, keyed by `(cfg, faults)` —
/// the faulted counterpart of [`crate::verify_cached`]. Unreachable-pair
/// findings are `Info` and do not fail the check.
///
/// # Errors
///
/// The rendered [`Report`] when verification produces any error finding.
pub fn verify_faulted_cached(cfg: &NetworkConfig, faults: &FaultModel) -> Result<(), String> {
    crate::cached_verdict(format!("{cfg:?}|{faults:?}"), || {
        verify_faulted(cfg, faults)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_mesh_is_deadlock_free_with_unreachable_info() {
        let cfg = NetworkConfig::mesh(Dims::new(6, 6));
        let faults = FaultModel::random_links(&cfg, 0.15, 5).kill_router(Coord::new(3, 3));
        let report = verify_faulted(&cfg, &faults);
        assert!(!report.has_errors(), "{report}");
        assert_eq!(report.stats.largest_scc.max(1), 1, "{report}");
        // The dead router's own pairs are at least reported unreachable.
        assert!(
            report.of_lint(Lint::Unreachable).next().is_some(),
            "{report}"
        );
        assert_eq!(verify_faulted_cached(&cfg, &faults), Ok(()));
    }

    #[test]
    fn faulted_ruche_depop_grid_verifies() {
        for (rf, seed) in [(2u16, 9u64), (4, 10)] {
            let cfg = NetworkConfig::half_ruche(Dims::new(16, 8), rf, CrossbarScheme::Depopulated)
                .with_edge_memory_ports();
            let faults = FaultModel::random_links(&cfg, 0.08, seed);
            let report = verify_faulted(&cfg, &faults);
            assert!(!report.has_errors(), "{report}");
        }
    }

    #[test]
    fn invalid_fault_model_reports_config_error() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let faults = FaultModel::default().kill_router(Coord::new(9, 9));
        let report = verify_faulted(&cfg, &faults);
        assert!(report.has_errors());
        assert_eq!(report.of_lint(Lint::Config).count(), 1, "{report}");
    }

    #[test]
    fn empty_fault_model_matches_route_case_count() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let clean = verify_faulted(&cfg, &FaultModel::default());
        assert!(!clean.has_errors(), "{clean}");
        assert_eq!(clean.of_lint(Lint::Unreachable).count(), 0);
        let base = crate::verify(&cfg);
        assert_eq!(clean.stats.routes, base.stats.routes);
    }
}
