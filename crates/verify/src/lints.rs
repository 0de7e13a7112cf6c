//! The lint battery: route enumeration, per-hop invariant checks, and
//! finding assembly.
//!
//! The pass enumerates every route the network can carry — all
//! `(source, entry port, destination)` triples, including edge-memory
//! traffic in exactly the directions the crossbar implements — and walks
//! them destination by destination with the (possibly injected) routing
//! function. Routes to one destination merge: a walk stops at the first
//! `(router, input port, input VC)` state an earlier route to the same
//! destination already resolved and takes the hop count stored there, so
//! each state is expanded, and its hop checked, once per destination
//! (see `docs/VERIFY.md`, "Cost"). The checks are:
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

use crate::cdg::{dense, Cdg};
use crate::report::{CdgStats, Finding, Lint, Report, RouteId, Severity, Witness};
use crate::{RouteFn, TraceStep};
use ruche_noc::prelude::*;
use ruche_noc::routing::edge_entry;
use ruche_noc::topology::{fold_logical, DorOrder};
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

/// Walks one route with the injected routing function, recording the full
/// per-hop state (input port, input VC, output port, output VC). The
/// analysis walks memoized; this rebuilds one route's path for a witness.
fn trace(
    cfg: &NetworkConfig,
    route_fn: &RouteFn,
    route: RouteId,
) -> Result<Vec<TraceStep>, (RouteError, Vec<TraceStep>)> {
    let mut here = route.src;
    let mut in_dir = route.entry;
    let mut in_vc = 0u8;
    let mut steps = Vec::new();
    let limit = cfg.max_route_hops();
    loop {
        let dec = route_fn(cfg, here, in_dir, in_vc, route.dest);
        steps.push(TraceStep {
            here,
            in_dir,
            in_vc,
            out: dec.out,
            out_vc: dec.out_vc,
        });
        if here == route.dest.coord && dec.out == route.dest.exit_dir() {
            return Ok(steps);
        }
        let Some(next) = cfg.neighbor(here, dec.out) else {
            let err = RouteError::LeftArray {
                at: here,
                out: dec.out,
            };
            return Err((err, steps));
        };
        in_dir = dec.out.opposite();
        in_vc = dec.out_vc;
        here = next;
        if steps.len() > limit {
            return Err((RouteError::HopLimit { limit }, steps));
        }
    }
}

/// A route witness over the walked `steps`.
pub(crate) fn route_witness(route: RouteId, steps: &[TraceStep]) -> Witness {
    Witness::Route {
        route,
        steps: steps.iter().map(|s| (s.here, s.out)).collect(),
    }
}

/// The route enumeration, grouped by destination. Routes are numbered in
/// [`route_cases`] order: tile to tile, source-major; then, per edge
/// column and edge (north first), the routes to that edge endpoint and
/// then the routes from it. Edge traffic is enumerated in exactly the
/// directions the crossbar derivation implements (requests route X-Y *to*
/// the edges, responses Y-X *from* them, unless `edge_bidirectional`
/// carries both).
struct Cases {
    dims: Dims,
    to_edge: bool,
    from_edge: bool,
}

impl Cases {
    fn new(cfg: &NetworkConfig) -> Self {
        let both = cfg.edge_bidirectional;
        Cases {
            dims: cfg.dims,
            to_edge: cfg.edge_memory_ports && (both || cfg.dor == DorOrder::XY),
            from_edge: cfg.edge_memory_ports && (both || cfg.dor == DorOrder::YX),
        }
    }

    fn tiles(&self) -> usize {
        self.dims.count()
    }

    /// Routes to and from one edge endpoint.
    fn per_edge(&self) -> usize {
        self.tiles() * (usize::from(self.to_edge) + usize::from(self.from_edge))
    }

    fn count(&self) -> usize {
        self.tiles() * self.tiles() + 2 * usize::from(self.dims.cols) * self.per_edge()
    }

    fn edges(&self) -> impl Iterator<Item = (u16, EdgePort)> {
        (0..self.dims.cols).flat_map(|col| [(col, EdgePort::North), (col, EdgePort::South)])
    }

    /// Number of the first route to or from edge endpoint `(col, edge)`.
    fn edge_base(&self, col: u16, edge: EdgePort) -> usize {
        let k = 2 * usize::from(col) + usize::from(edge == EdgePort::South);
        self.tiles() * self.tiles() + k * self.per_edge()
    }

    /// Every destination: the tiles in row-major order, then the edge
    /// endpoints routes are enumerated to.
    fn destinations(&self) -> Vec<Dest> {
        let mut dests: Vec<Dest> = self.dims.iter().map(Dest::tile).collect();
        if self.to_edge {
            dests.extend(self.edges().map(|(col, edge)| match edge {
                EdgePort::North => Dest::north_edge(col),
                EdgePort::South => Dest::south_edge(col, self.dims.rows),
            }));
        }
        dests
    }

    /// Fills `out` with every route to `dest` and its number, in
    /// increasing number order.
    fn routes_to(&self, dest: Dest, out: &mut Vec<(usize, RouteId)>) {
        out.clear();
        let tile_routes = |first: usize, step: usize, out: &mut Vec<(usize, RouteId)>| {
            for (s, src) in self.dims.iter().enumerate() {
                let route = RouteId {
                    src,
                    entry: Dir::P,
                    dest,
                };
                out.push((first + s * step, route));
            }
        };
        match dest.edge {
            None => {
                let d = self.dims.index(dest.coord);
                tile_routes(d, self.tiles(), out);
                if self.from_edge {
                    let skip = if self.to_edge { self.tiles() } else { 0 };
                    for (col, edge) in self.edges() {
                        let (src, entry) = edge_entry(self.dims, edge, col);
                        let route = RouteId { src, entry, dest };
                        out.push((self.edge_base(col, edge) + skip + d, route));
                    }
                }
            }
            Some(edge) => tile_routes(self.edge_base(dest.coord.x, edge), 1, out),
        }
    }
}

/// Every route the verifier must cover, in enumeration order (see
/// [`Cases`]).
pub(crate) fn route_cases(cfg: &NetworkConfig) -> Vec<RouteId> {
    let cases = Cases::new(cfg);
    let mut all = Vec::with_capacity(cases.count());
    let mut group = Vec::new();
    for dest in cases.destinations() {
        cases.routes_to(dest, &mut group);
        all.extend_from_slice(&group);
    }
    all.sort_unstable_by_key(|&(number, _)| number);
    all.into_iter().map(|(_, route)| route).collect()
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

/// The per-hop lints of one routing state toward `dest`; `witness` names
/// the route that expanded it.
fn check_hop(
    sink: &mut Sink,
    cfg: &NetworkConfig,
    conn: &Connectivity,
    step: TraceStep,
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
    if let Some(next) = cfg.neighbor(step.here, step.out) {
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

/// Memo sentinels for a routing state; any other value is the number of
/// hops from the state to ejection, its own hop included.
const UNSEEN: u32 = u32::MAX;
/// On the walk in progress: reaching it again closes a routing loop.
const ON_WALK: u32 = u32::MAX - 1;
/// Never ejects: it loops or leaves the array, and so does every route
/// that reaches it.
const FAILS: u32 = u32::MAX - 2;

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
    let limit = cfg.max_route_hops();
    let mut cdg = Cdg::new(cfg.dims);
    // Tile-to-tile hop counts for the symmetry lint, indexed
    // `[src][dst]`; only trusted if every route terminated.
    let n = cfg.dims.count();
    let mut hops: Vec<u32> = vec![0; n * n];
    let mut hops_complete = true;
    // Status of each routing state toward the current destination, over
    // the dense `(router, input port, input VC)` index; reset between
    // destinations through `walked`, the states expanded so far.
    let mut memo: Vec<u32> = Vec::new();
    let mut walked: Vec<usize> = Vec::new();
    let mut group = Vec::new();

    for dest in cases.destinations() {
        cases.routes_to(dest, &mut group);
        for &(number, route) in &group {
            let start = walked.len();
            let (mut here, mut in_dir, mut in_vc) = (route.src, route.entry, 0u8);
            let mut held = None;
            let witness = || match trace(cfg, route_fn, route) {
                Ok(steps) | Err((_, steps)) => route_witness(route, &steps),
            };
            // The route's length in hops, or `None` if it never ejects.
            let length = loop {
                let state = dense(cfg.dims, here, in_dir, in_vc);
                if state >= memo.len() {
                    memo.resize(state + 1, UNSEEN);
                }
                let walked_here = (walked.len() - start) as u32;
                match memo[state] {
                    UNSEEN => {}
                    ON_WALK | FAILS => break None,
                    rest => break Some(walked_here + rest),
                }
                memo[state] = ON_WALK;
                walked.push(state);
                let dec = route_fn(cfg, here, in_dir, in_vc, dest);
                let step = TraceStep {
                    here,
                    in_dir,
                    in_vc,
                    out: dec.out,
                    out_vc: dec.out_vc,
                };
                check_hop(&mut sink, cfg, &conn, step, dest, &witness);
                // Outputs with no link behind them (ejection at P, exits
                // into edge endpoints) form no channel: a packet never
                // holds them while waiting.
                let next = cfg.neighbor(here, dec.out);
                if next.is_some() {
                    let channel = cdg.channel(here, dec.out, dec.out_vc);
                    if let Some(held) = held {
                        cdg.depend(held, channel, number, route);
                    }
                    held = Some(channel);
                }
                if here == dest.coord && dec.out == dest.exit_dir() {
                    break Some(walked_here + 1);
                }
                let Some(next) = next else { break None };
                (here, in_dir, in_vc) = (next, dec.out.opposite(), dec.out_vc);
            };
            for (k, &state) in walked[start..].iter().enumerate() {
                memo[state] = length.map_or(FAILS, |h| h - k as u32);
            }
            match length {
                // A route longer than the hop bound fails totality even
                // though it ejects, as in `trace`.
                Some(h) if h as usize <= limit + 1 => {
                    if route.entry == Dir::P && route.dest.edge.is_none() {
                        let (s, d) = (cfg.dims.index(route.src), cfg.dims.index(dest.coord));
                        hops[s * n + d] = h;
                    }
                }
                _ => {
                    hops_complete = false;
                    sink.push(Lint::RouteTotality, Severity::Error, || {
                        let (err, partial) = trace(cfg, route_fn, route)
                            .expect_err("a pure routing function fails where its walk failed");
                        (format!("{err}"), Some(route_witness(route, &partial)))
                    });
                }
            }
        }
        for &state in &walked {
            memo[state] = UNSEEN;
        }
        walked.clear();
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_groups_number_every_route_once() {
        for cfg in [
            NetworkConfig::mesh(Dims::new(4, 3)),
            NetworkConfig::mesh(Dims::new(4, 3)).with_edge_memory_ports(),
            NetworkConfig::mesh(Dims::new(4, 3))
                .with_edge_memory_ports()
                .with_dor(DorOrder::YX),
        ] {
            let cases = Cases::new(&cfg);
            let mut seen = vec![false; cases.count()];
            let mut group = Vec::new();
            for dest in cases.destinations() {
                cases.routes_to(dest, &mut group);
                assert!(group.windows(2).all(|w| w[0].0 < w[1].0));
                for &(number, route) in &group {
                    assert_eq!(route.dest, dest);
                    assert!(!std::mem::replace(&mut seen[number], true));
                }
            }
            assert!(seen.iter().all(|&s| s), "{}", cfg.label());
        }
    }
}
