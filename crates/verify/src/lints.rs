//! The lint battery: per-hop invariant checks over the route walk, and
//! finding assembly.
//!
//! The pass walks every route the network can carry with the (possibly
//! injected) routing function, through [`Cases::walk`]: all `(source,
//! entry port, destination)` triples, including edge-memory traffic in
//! exactly the directions the crossbar implements, destination by
//! destination, each `(router, input port, input VC)` state expanded once
//! per destination (see `docs/VERIFY.md`, "Cost"). The checks are:
//!
//! * **route totality** — the walk terminates at its destination within
//!   [`NetworkConfig::max_route_hops`] and never leaves the array;
//! * **minimal progress** — each non-ejection hop strictly decreases the
//!   remaining distance (ring distance on torus axes), which rules out
//!   livelock;
//! * **crossbar connectivity** — every `(input → output)` transition is
//!   implemented by the configured [`Connectivity`] matrix;
//! * **VC range / monotonicity** — VC indices fit the per-port VC count
//!   and never decrease while riding a torus ring (the dateline ordering);
//! * **symmetry** — on translation-symmetric topologies, route lengths
//!   are invariant under X and Y reflection of the array.
//!
//! Every expanded hop also feeds the channel-dependency graph; after the
//! sweep, a Tarjan pass proves the Dally–Seitz acyclicity condition or
//! reports each cycle with a concrete witness.

use crate::cdg::Cdg;
use crate::report::{CdgStats, Finding, Lint, Report, Severity, Witness};
use crate::RouteFn;
use ruche_noc::prelude::*;
use ruche_noc::routing::{trace, Cases, RouteId, TraceStep, Visit};
use ruche_noc::topology::fold_logical;
// lint:allow(hash-order): per-lint overflow counts; the report sorts by
// lint name (and severity) before rendering, so map order never leaks.
use std::collections::HashMap;

/// At most this many findings per lint carry a full witness; the rest are
/// folded into a single "N more suppressed" line so a badly broken
/// configuration produces a readable report instead of megabytes.
const WITNESS_CAP: usize = 3;

/// Collects findings with the per-lint witness cap applied.
pub(crate) struct Sink {
    findings: Vec<Finding>,
    counts: HashMap<Lint, (usize, Severity)>,
}

impl Sink {
    pub(crate) fn new() -> Self {
        Sink {
            findings: Vec::new(),
            counts: HashMap::new(),
        }
    }

    /// Counts one finding of `lint`. Only the first [`WITNESS_CAP`] of a
    /// lint are kept, so `finding` builds the message and witness only
    /// for those.
    pub(crate) fn push(
        &mut self,
        lint: Lint,
        severity: Severity,
        finding: impl FnOnce() -> (String, Option<Witness>),
    ) {
        let entry = self.counts.entry(lint).or_insert((0, severity));
        entry.0 += 1;
        entry.1 = entry.1.max(severity);
        if entry.0 <= WITNESS_CAP {
            let (message, witness) = finding();
            self.findings.push(Finding {
                lint,
                severity,
                message,
                witness,
            });
        }
    }

    pub(crate) fn finish(mut self) -> Vec<Finding> {
        let mut overflow: Vec<(Lint, usize, Severity)> = self
            .counts
            .iter()
            .filter(|(_, &(n, _))| n > WITNESS_CAP)
            .map(|(&lint, &(n, sev))| (lint, n - WITNESS_CAP, sev))
            .collect();
        overflow.sort_by_key(|&(lint, ..)| lint.name());
        for (lint, extra, severity) in overflow {
            self.findings.push(Finding {
                lint,
                severity,
                message: format!("...and {extra} more {lint} finding(s) suppressed"),
                witness: None,
            });
        }
        // Most severe first, stable within a severity.
        self.findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
        self.findings
    }
}

/// A route witness over the walked `steps`.
pub(crate) fn route_witness(route: RouteId, steps: &[TraceStep]) -> Witness {
    Witness::Route {
        route,
        steps: steps.iter().map(|s| (s.here, s.out)).collect(),
    }
}

/// Remaining distance from `here` to `goal`: Manhattan on open axes, the
/// shortest logical ring distance on torus axes. Every legal hop of every
/// supported routing function strictly decreases this, which is the
/// livelock-freedom argument the `minimal-progress` lint enforces.
fn progress_metric(cfg: &NetworkConfig, here: Coord, goal: Coord) -> u32 {
    let mut metric = 0u32;
    for axis in [Axis::X, Axis::Y] {
        let (h, g) = match axis {
            Axis::X => (here.x, goal.x),
            Axis::Y => (here.y, goal.y),
        };
        if cfg.torus_axis(axis) {
            let k = cfg.extent(axis) as u32;
            let lh = fold_logical(h, cfg.extent(axis)) as u32;
            let lg = fold_logical(g, cfg.extent(axis)) as u32;
            let fwd = (lg + k - lh) % k;
            metric += fwd.min(k - fwd);
        } else {
            metric += u32::from(h.abs_diff(g));
        }
    }
    metric
}

/// The per-hop lints of one routing state toward `dest`, whose output
/// leads to `next`; `witness` names the route that expanded it.
fn check_hop(
    sink: &mut Sink,
    cfg: &NetworkConfig,
    conn: &Connectivity,
    step: TraceStep,
    next: Option<Coord>,
    dest: Dest,
    witness: &dyn Fn() -> Witness,
) {
    if !conn.allows(step.in_dir, step.out) {
        sink.push(Lint::CrossbarConnectivity, Severity::Error, || {
            let message = format!(
                "router {} routes {} -> {}, not implemented by the {:?} crossbar",
                step.here, step.in_dir, step.out, cfg.scheme
            );
            (message, Some(witness()))
        });
    }
    if usize::from(step.out_vc) >= cfg.vcs(step.out) {
        sink.push(Lint::VcRange, Severity::Error, || {
            let message = format!(
                "router {} requests vc{} on {}, which has {} VC(s)",
                step.here,
                step.out_vc,
                step.out,
                cfg.vcs(step.out)
            );
            (message, Some(witness()))
        });
    }
    let same_ring = step.in_dir.axis().is_some()
        && step.in_dir.axis() == step.out.axis()
        && cfg.torus_axis(step.in_dir.axis().expect("checked"));
    if same_ring && step.out_vc < step.in_vc {
        sink.push(Lint::VcMonotonicity, Severity::Warning, || {
            let message = format!(
                "router {} drops vc{} -> vc{} while staying on the {} ring",
                step.here,
                step.in_vc,
                step.out_vc,
                step.in_dir.axis().map(|a| format!("{a:?}")).expect("ring"),
            );
            (message, Some(witness()))
        });
    }
    // Every hop with a link behind it must make strict progress toward
    // the egress router; ejections (P or edge exits, the outputs with no
    // link) are exempt.
    if let Some(next) = next {
        let before = progress_metric(cfg, step.here, dest.coord);
        let after = progress_metric(cfg, next, dest.coord);
        if after >= before {
            sink.push(Lint::MinimalProgress, Severity::Error, || {
                let message = format!(
                    "hop {} -{}-> {next} leaves remaining distance at {after} (was {before})",
                    step.here, step.out
                );
                (message, Some(witness()))
            });
        }
    }
}

/// Runs the full lint battery for `cfg`, walking routes with `route_fn`.
pub(crate) fn analyze(cfg: &NetworkConfig, route_fn: &RouteFn) -> Report {
    let label = cfg.label();
    let dims = format!("{}x{}", cfg.dims.cols, cfg.dims.rows);
    let mut sink = Sink::new();

    if let Err(e) = cfg.validate() {
        sink.push(Lint::Config, Severity::Error, || {
            (format!("configuration rejected: {e}"), None)
        });
        return Report {
            label,
            dims,
            findings: sink.finish(),
            stats: CdgStats::default(),
        };
    }

    let conn = Connectivity::of(cfg);
    let cases = Cases::new(cfg);
    let decide = |here, in_dir, in_vc, dest| Ok(route_fn(cfg, here, in_dir, in_vc, dest));
    let mut cdg = Cdg::new(cfg.dims);
    // Tile-to-tile hop counts for the symmetry lint, indexed
    // `[src][dst]`; only trusted if every route terminated.
    let n = cfg.dims.count();
    let mut hops: Vec<u32> = vec![0; n * n];
    let mut hops_complete = true;
    // The channel the route being walked holds on arriving at its next
    // state, if any.
    let mut held = None;

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
                let witness = || match trace(cfg, route, decide) {
                    Ok(steps) | Err((_, steps)) => route_witness(route, &steps),
                };
                check_hop(&mut sink, cfg, &conn, step, next, route.dest, &witness);
                // Outputs with no link behind them (ejection at P, exits into
                // edge endpoints) form no channel: a packet never holds them
                // while waiting.
                if next.is_some() {
                    let channel = cdg.channel(step.here, step.out, step.out_vc);
                    if let Some(held) = held {
                        cdg.depend(held, channel, number, route);
                    }
                    held = Some(channel);
                }
            }
            Visit::Route { route, length, .. } => {
                held = None;
                if let Some(h) = length {
                    if route.entry == Dir::P && route.dest.edge.is_none() {
                        let (s, d) = (cfg.dims.index(route.src), cfg.dims.index(route.dest.coord));
                        hops[s * n + d] = h;
                    }
                } else {
                    hops_complete = false;
                    sink.push(Lint::RouteTotality, Severity::Error, || {
                        let (err, partial) = trace(cfg, route, decide)
                            .expect_err("a pure routing function fails where its walk failed");
                        (format!("{err}"), Some(route_witness(route, &partial)))
                    });
                }
            }
        },
    );

    let (stats, cycles) = cdg.finish(cases.count());

    // Dally–Seitz: cycles in the channel-dependency graph.
    for (channels, routes) in cycles {
        sink.push(Lint::ChannelDeadlock, Severity::Error, || {
            let message = format!(
                "channel-dependency cycle of length {} — the network can deadlock",
                channels.len()
            );
            (message, Some(Witness::Cycle { channels, routes }))
        });
    }

    // Reflection symmetry of route lengths. Torus axes are excluded: the
    // folded layout maps a physical reflection to a ring rotation, whose
    // interaction with the tie-break direction legitimately changes hop
    // counts.
    let reflective = !cfg.torus_axis(Axis::X) && !cfg.torus_axis(Axis::Y);
    if reflective && hops_complete {
        let reflect = |c: Coord, fx: bool| -> Coord {
            if fx {
                Coord::new(cfg.dims.cols - 1 - c.x, c.y)
            } else {
                Coord::new(c.x, cfg.dims.rows - 1 - c.y)
            }
        };
        for src in cfg.dims.iter() {
            for dst in cfg.dims.iter() {
                let base = hops[cfg.dims.index(src) * n + cfg.dims.index(dst)];
                for flip_x in [true, false] {
                    let (rs, rd) = (reflect(src, flip_x), reflect(dst, flip_x));
                    let mirrored = hops[cfg.dims.index(rs) * n + cfg.dims.index(rd)];
                    if mirrored != base {
                        sink.push(Lint::Symmetry, Severity::Warning, || {
                            let message = format!(
                                "route {src}->{dst} takes {base} hop(s) but its {} mirror \
                                 {rs}->{rd} takes {mirrored}",
                                if flip_x { "X" } else { "Y" }
                            );
                            (message, None)
                        });
                    }
                }
            }
        }
    }

    sink.push(Lint::CdgStats, Severity::Info, || {
        let message = format!(
            "{} channels, {} dependencies from {} routes; largest SCC {}",
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
