//! Fault injection: dead links, dead routers, and fault-aware routing.
//!
//! A [`FaultModel`] is a deterministic, seedable specification of which
//! bidirectional links and which routers are dead. It generalizes the
//! paper's hand-picked depopulations (Fig. 9 removes every Ruche link the
//! depop scheme does not populate) into a first-class design axis: kill any
//! link or router set, reroute, and measure the degradation curve.
//!
//! ## Detour routing
//!
//! Faulted networks cannot use plain DOR: the DOR path may cross a dead
//! channel, and naive "detour on demand" schemes either livelock (two
//! routers bouncing a packet between them) or deadlock (the detour turns
//! complete a cycle in the channel-dependency graph). Instead, a faulted
//! [`Network`](crate::sim::Network) precomputes a per-destination route
//! table over the surviving channels under **up\*/down\* routing** (the
//! Autonet scheme):
//!
//! * each surviving connected component gets a breadth-first spanning
//!   order rooted at its lowest-index live router, ranking routers by
//!   `(BFS level, node index)`;
//! * a channel is *up* when it heads toward a lower rank, *down*
//!   otherwise, and every route takes zero or more up hops followed by
//!   zero or more down hops — never up after down.
//!
//! Up hops strictly decrease the rank and down hops strictly increase it,
//! and the model forbids the only mixing turn (down→up), so every channel
//! dependency chain is finite: the faulted channel-dependency graph is
//! acyclic by construction (`ruche-verify` re-checks this per
//! configuration with its SCC pass). Because any two routers in the same
//! component can always travel up to the component root and back down,
//! **every surviving pair is routable** — routes are hop-minimal *within
//! the turn model*, breaking ties in canonical port order, and exploit the
//! full channel diversity (a surviving Ruche hop counts as one hop, so
//! detours board the Ruche highways whenever that shortens the path).
//! [`RouteError::Unreachable`] therefore means the destination really is
//! partitioned away (or the only surviving path exceeds
//! [`NetworkConfig::max_route_hops`], which at the swept fault rates does
//! not bind) — routing never livelocks.
//!
//! Fault-aware routing assumes turns are implementable from any input
//! (i.e. a fully-populated crossbar); the depopulated-scheme turn
//! restrictions and the DOR-derived connectivity matrix do not apply to
//! detoured traffic. VC routers (torus) are not supported: their dateline
//! VC discipline is incompatible with detours, and [`FaultModel::validate`]
//! rejects the combination with a typed [`FaultError`].
//!
//! See `docs/RESILIENCE.md` for the full semantics and how the degradation
//! benchmarks read out of it.

use crate::geometry::{Coord, Dir};
use crate::routing::{Dest, EdgePort, RouteDecision, RouteError};
use crate::topology::NetworkConfig;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Errors produced by [`FaultModel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A dead-router coordinate lies outside the array.
    NoSuchRouter {
        /// The out-of-bounds coordinate.
        at: Coord,
    },
    /// A dead-link specification names a channel the topology does not
    /// have (including the P port, which cannot be killed — use
    /// [`FaultModel::kill_router`] to take a whole tile out).
    NoSuchLink {
        /// Router the link was specified at.
        at: Coord,
        /// The named output direction.
        out: Dir,
    },
    /// Fault injection is not supported on VC (torus) routers: the
    /// dateline VC discipline is incompatible with detour routing.
    VcRoutersUnsupported,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoSuchRouter { at } => {
                write!(f, "dead router {at} lies outside the array")
            }
            FaultError::NoSuchLink { at, out } => {
                write!(
                    f,
                    "dead link {at} via {out} names a channel that does not exist"
                )
            }
            FaultError::VcRoutersUnsupported => {
                write!(
                    f,
                    "fault injection is not supported on VC (torus) routers: \
                     dateline VC partitioning is incompatible with detour routing"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A deterministic, seedable specification of dead links and dead routers.
///
/// Links are bidirectional: killing `(at, out)` kills both the `at → out`
/// channel and its reverse. Killing a router kills every channel attached
/// to it plus its injection/ejection endpoint. The default model is empty
/// (no faults) and leaves every network code path byte-identical to an
/// unfaulted build.
///
/// # Examples
///
/// ```
/// use ruche_noc::prelude::*;
///
/// let cfg = NetworkConfig::mesh(Dims::new(8, 8));
/// let faults = FaultModel::default()
///     .kill_link(Coord::new(3, 3), Dir::E)
///     .kill_router(Coord::new(5, 1));
/// faults.validate(&cfg)?;
/// assert!(!faults.is_empty());
/// # Ok::<(), ruche_noc::fault::FaultError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultModel {
    /// Dead bidirectional links, each named from one of its endpoints.
    /// Kept sorted and deduplicated so equal fault sets compare (and
    /// `Debug`-render, for cache keys) equal.
    dead_links: Vec<(Coord, Dir)>,
    /// Dead routers, sorted and deduplicated.
    dead_routers: Vec<Coord>,
}

impl FaultModel {
    /// An empty fault model (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kills the bidirectional link at router `at` through output `out`
    /// (consuming-builder style).
    pub fn kill_link(mut self, at: Coord, out: Dir) -> Self {
        if !self.dead_links.contains(&(at, out)) {
            self.dead_links.push((at, out));
            self.dead_links.sort_unstable();
        }
        self
    }

    /// Kills router `at`: every attached channel and its endpoint
    /// (consuming-builder style).
    pub fn kill_router(mut self, at: Coord) -> Self {
        if !self.dead_routers.contains(&at) {
            self.dead_routers.push(at);
            self.dead_routers.sort_unstable();
        }
        self
    }

    /// Kills each link of `cfg` independently with probability `p`, drawn
    /// from a deterministic stream seeded by `seed`: the same
    /// `(cfg, p, seed)` triple always produces the same fault set.
    ///
    /// Links are enumerated once each, in canonical order (row-major
    /// router order; within a router, port order, counting each
    /// bidirectional link from its positive-displacement end and each edge
    /// channel at its owning router).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn random_links(cfg: &NetworkConfig, p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "fault probability {p} must lie in [0, 1]"
        );
        let ports = cfg.ports();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = FaultModel::default();
        for c in cfg.dims.iter() {
            for &dir in &ports {
                if dir == Dir::P {
                    continue;
                }
                let (dx, dy) = dir.displacement(cfg.topology.ruche_factor().max(1));
                let canonical = if cfg.neighbor(c, dir).is_some() {
                    // Inter-router link: draw once, from the end whose
                    // output displacement is positive.
                    dx > 0 || dy > 0
                } else {
                    // Edge memory channel (owned by its edge router), or a
                    // tied-off direction (skipped).
                    edge_channel(cfg, c, dir)
                };
                if canonical && rng.gen_bool(p) {
                    model.dead_links.push((c, dir));
                }
            }
        }
        model.dead_links.sort_unstable();
        model
    }

    /// Whether the model contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_routers.is_empty()
    }

    /// The dead links, sorted, each named from one endpoint.
    pub fn dead_links(&self) -> &[(Coord, Dir)] {
        &self.dead_links
    }

    /// The dead routers, sorted.
    pub fn dead_routers(&self) -> &[Coord] {
        &self.dead_routers
    }

    /// Whether router `at` is dead.
    pub fn router_dead(&self, at: Coord) -> bool {
        self.dead_routers.binary_search(&at).is_ok()
    }

    /// Whether the output channel of router `at` through `out` is dead —
    /// because the link was killed (from either end) or because either
    /// endpoint router is dead.
    pub fn channel_dead(&self, cfg: &NetworkConfig, at: Coord, out: Dir) -> bool {
        if self.router_dead(at) {
            return true;
        }
        if out == Dir::P {
            return false;
        }
        if self.dead_links.binary_search(&(at, out)).is_ok() {
            return true;
        }
        match cfg.neighbor(at, out) {
            Some(nb) => {
                self.router_dead(nb) || self.dead_links.binary_search(&(nb, out.opposite())).is_ok()
            }
            None => false,
        }
    }

    /// Checks the fault set against a configuration: every dead link must
    /// name an existing channel, every dead router must lie inside the
    /// array, and the topology must use wormhole routers.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultError`] for the first violated constraint.
    pub fn validate(&self, cfg: &NetworkConfig) -> Result<(), FaultError> {
        if self.is_empty() {
            return Ok(());
        }
        if cfg.is_vc_router() {
            return Err(FaultError::VcRoutersUnsupported);
        }
        for &at in &self.dead_routers {
            if !cfg.dims.contains(at) {
                return Err(FaultError::NoSuchRouter { at });
            }
        }
        for &(at, out) in &self.dead_links {
            let exists = out != Dir::P
                && cfg.dims.contains(at)
                && (cfg.neighbor(at, out).is_some() || edge_channel(cfg, at, out));
            if !exists {
                return Err(FaultError::NoSuchLink { at, out });
            }
        }
        Ok(())
    }
}

/// Whether `(at, out)` is an edge memory channel: an N output on row 0 or
/// an S output on the last row of a network with edge memory ports.
fn edge_channel(cfg: &NetworkConfig, at: Coord, out: Dir) -> bool {
    cfg.edge_memory_ports
        && ((out == Dir::N && at.y == 0) || (out == Dir::S && at.y == cfg.dims.rows - 1))
}

/// Routing phase while only up hops (toward lower rank) have been taken.
const PHASE_UP: usize = 0;
/// Phase after the first down hop; up hops are forbidden.
const PHASE_DOWN: usize = 1;

/// A precomputed per-destination route table over the surviving channels
/// of a faulted configuration.
///
/// Built once at [`Network::with_faults`](crate::sim::Network::with_faults)
/// construction (and by the `ruche-verify` faulted checker); lookups are
/// allocation-free. See the [module docs](self) for the routing model.
#[derive(Debug, Clone)]
pub struct RouteTable {
    cfg: NetworkConfig,
    faults: FaultModel,
    ports: Vec<Dir>,
    /// Next-hop port per (dest, node, phase), encoded `port index + 1`
    /// (`0` = unreachable). Indexed `(dest * n_nodes + node) * 2 + phase`.
    next: Vec<u8>,
    /// Whether each destination's own exit channel (and router) survives.
    goal_ok: Vec<bool>,
    /// Per-node BFS level in its surviving component (`u32::MAX` = dead);
    /// ranks routers as `(level, index)` for the up/down classification.
    level: Vec<u32>,
}

impl RouteTable {
    /// Builds the table for `cfg` under `faults`.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultError`] from [`FaultModel::validate`] if the
    /// fault set does not fit the configuration.
    pub fn build(cfg: &NetworkConfig, faults: &FaultModel) -> Result<Self, FaultError> {
        faults.validate(cfg)?;
        let ports = cfg.ports();
        let dims = cfg.dims;
        let n = dims.count();
        let n_dests = cfg.endpoint_count();
        // Hop budget: `max_route_hops` counts the ejection traversal too,
        // so router-to-router hops get one less.
        let hop_limit = (cfg.max_route_hops() - 1) as u32;

        // Forward and reverse adjacency over surviving channels: for each
        // node, the (other end, output port at the *source*) channels.
        let mut fwd: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
        for c in dims.iter() {
            let u = dims.index(c);
            for (op, &dir) in ports.iter().enumerate() {
                if dir == Dir::P || faults.channel_dead(cfg, c, dir) {
                    continue;
                }
                if let Some(nb) = cfg.neighbor(c, dir) {
                    fwd[u].push((dims.index(nb) as u32, op as u8));
                    rev[dims.index(nb)].push((u as u32, op as u8));
                }
            }
        }

        // Spanning order per surviving component: BFS from the lowest-index
        // live router, ranking routers by (level, index). Channels toward a
        // lower rank are "up", the rest "down".
        let mut level = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for root in 0..n {
            if level[root] != u32::MAX || faults.router_dead(dims.coord(root)) {
                continue;
            }
            level[root] = 0;
            queue.push_back(root as u32);
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &fwd[u as usize] {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = level[u as usize] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        let up = |u: usize, v: usize| (level[v], v) < (level[u], u);

        let mut next = vec![0u8; n_dests * n * 2];
        let mut goal_ok = vec![false; n_dests];
        let mut dist = vec![u32::MAX; n * 2];
        let mut queue = VecDeque::new();
        for di in 0..n_dests {
            let dest = dest_of_index(cfg, di);
            let g = dest.coord;
            // The destination must be able to eject: live router, and for
            // edge destinations a live edge channel.
            let exit_alive = !faults.router_dead(g)
                && match dest.edge {
                    None => true,
                    Some(_) => !faults.channel_dead(cfg, g, dest.exit_dir()),
                };
            goal_ok[di] = exit_alive;
            if !exit_alive {
                continue;
            }

            // Backward BFS over (node, phase) states from the goal.
            // Ejection is a sink channel, legal from either phase.
            dist.fill(u32::MAX);
            queue.clear();
            let gi = dims.index(g);
            for ph in [PHASE_UP, PHASE_DOWN] {
                dist[gi * 2 + ph] = 0;
                queue.push_back((gi * 2 + ph) as u32);
            }
            while let Some(state) = queue.pop_front() {
                let (v, ph_v) = ((state / 2) as usize, (state % 2) as usize);
                let d = dist[v * 2 + ph_v];
                if d >= hop_limit {
                    continue;
                }
                for &(u, _) in &rev[v] {
                    // Up hops require (and keep) the Up phase; down hops
                    // land in Down but may start in either phase.
                    let preds: &[usize] = if up(u as usize, v) {
                        if ph_v == PHASE_UP {
                            &[PHASE_UP]
                        } else {
                            &[]
                        }
                    } else if ph_v == PHASE_DOWN {
                        &[PHASE_UP, PHASE_DOWN]
                    } else {
                        &[]
                    };
                    for &ph_u in preds {
                        let slot = u as usize * 2 + ph_u;
                        if dist[slot] == u32::MAX {
                            dist[slot] = d + 1;
                            queue.push_back(slot as u32);
                        }
                    }
                }
            }

            // Forward next-hop fill: first canonical-order live output that
            // steps onto a distance-decreasing state.
            for c in dims.iter() {
                let u = dims.index(c);
                if u == gi {
                    continue; // at the destination: eject, no next hop
                }
                for ph in [PHASE_UP, PHASE_DOWN] {
                    let du = dist[u * 2 + ph];
                    if du == u32::MAX {
                        continue;
                    }
                    for &(v, op) in &fwd[u] {
                        let v = v as usize;
                        let ph_next = if up(u, v) {
                            if ph == PHASE_UP {
                                PHASE_UP
                            } else {
                                continue;
                            }
                        } else {
                            PHASE_DOWN
                        };
                        if dist[v * 2 + ph_next] == du - 1 {
                            next[(di * n + u) * 2 + ph] = op + 1;
                            break;
                        }
                    }
                    debug_assert_ne!(
                        next[(di * n + u) * 2 + ph],
                        0,
                        "BFS distance {du} at {c} has no distance-decreasing successor"
                    );
                }
            }
        }

        Ok(RouteTable {
            cfg: cfg.clone(),
            faults: faults.clone(),
            ports,
            next,
            goal_ok,
            level,
        })
    }

    /// The configuration the table was built for.
    pub fn cfg(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The fault model the table was built under.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Whether travelling `from → to` is an up hop (toward a lower
    /// `(level, index)` rank).
    fn is_up(&self, from: Coord, to: Coord) -> bool {
        let (fu, tu) = (self.cfg.dims.index(from), self.cfg.dims.index(to));
        (self.level[tu], tu) < (self.level[fu], fu)
    }

    /// The routing phase of a packet at `here` that arrived through input
    /// port `in_dir`: source channels (injection at P, or entry from an
    /// edge endpoint) start in the Up phase; otherwise the arrival hop's
    /// up/down class decides (table routes never go up after down, so an
    /// up arrival implies the Up phase).
    fn phase_of(&self, here: Coord, in_dir: Dir) -> usize {
        match self.cfg.neighbor(here, in_dir) {
            _ if in_dir == Dir::P => PHASE_UP,
            None => PHASE_UP,
            Some(nb) if self.is_up(nb, here) => PHASE_UP,
            Some(_) => PHASE_DOWN,
        }
    }

    /// Route decision for a packet at router `here` (arrived through input
    /// `in_dir`) heading for `dest`, over the surviving channels.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Unreachable`] when no surviving path within
    /// the hop bound leads from this state to `dest`.
    pub fn route(&self, here: Coord, in_dir: Dir, dest: Dest) -> Result<RouteDecision, RouteError> {
        let di = dest_index(&self.cfg, dest);
        let n = self.cfg.dims.count();
        if here == dest.coord {
            if self.goal_ok[di] {
                return Ok(RouteDecision {
                    out: dest.exit_dir(),
                    out_vc: 0,
                });
            }
            return Err(RouteError::Unreachable { dest });
        }
        let ph = self.phase_of(here, in_dir);
        let node = self.cfg.dims.index(here);
        match self.next[(di * n + node) * 2 + ph] {
            0 => Err(RouteError::Unreachable { dest }),
            p => Ok(RouteDecision {
                out: self.ports[(p - 1) as usize],
                out_vc: 0,
            }),
        }
    }

    /// Whether `dest` is reachable from `src` entered through `entry_dir`
    /// (P for tile injection, N/S for edge-endpoint entry).
    pub fn reachable(&self, src: Coord, entry_dir: Dir, dest: Dest) -> bool {
        !self.faults.router_dead(src) && self.route(src, entry_dir, dest).is_ok()
    }

    /// Fraction of ordered tile pairs (src ≠ dst, both routers alive at
    /// either end or not) that are still connected — the headline
    /// degradation metric.
    pub fn connected_pair_fraction(&self) -> f64 {
        let dims = self.cfg.dims;
        let mut ok = 0u64;
        let mut total = 0u64;
        for s in dims.iter() {
            for d in dims.iter() {
                if s == d {
                    continue;
                }
                total += 1;
                if self.reachable(s, Dir::P, Dest::tile(d)) {
                    ok += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        }
    }
}

/// Destination index: tiles first (row-major node order), then north-edge
/// endpoints by column, then south-edge — the same layout as
/// [`EndpointId`](crate::sim::EndpointId).
fn dest_index(cfg: &NetworkConfig, dest: Dest) -> usize {
    let n = cfg.dims.count();
    match dest.edge {
        None => cfg.dims.index(dest.coord),
        Some(EdgePort::North) => n + dest.coord.x as usize,
        Some(EdgePort::South) => n + cfg.dims.cols as usize + dest.coord.x as usize,
    }
}

/// Inverse of [`dest_index`].
fn dest_of_index(cfg: &NetworkConfig, di: usize) -> Dest {
    let n = cfg.dims.count();
    let cols = cfg.dims.cols as usize;
    if di < n {
        Dest::tile(cfg.dims.coord(di))
    } else if di < n + cols {
        Dest::north_edge((di - n) as u16)
    } else {
        Dest::south_edge((di - n - cols) as u16, cfg.dims.rows)
    }
}

/// Walks a table route from `src` (entered through `entry_dir`) to `dest`,
/// returning every (router, output) traversal including the ejection —
/// the faulted analogue of [`try_walk_route_from`]
/// (crate::routing::try_walk_route_from), used by the `ruche-verify`
/// faulted checker and the property tests.
///
/// # Errors
///
/// Returns [`RouteError::Unreachable`] for partitioned pairs,
/// [`RouteError::LeftArray`] / [`RouteError::HopLimit`] only on a table
/// bug (the construction makes them impossible).
pub fn try_walk_table_route(
    table: &RouteTable,
    src: Coord,
    entry_dir: Dir,
    dest: Dest,
) -> Result<Vec<(Coord, Dir)>, RouteError> {
    let cfg = table.cfg();
    let mut here = src;
    let mut in_dir = entry_dir;
    let mut path = Vec::new();
    let limit = cfg.max_route_hops();
    loop {
        let dec = table.route(here, in_dir, dest)?;
        path.push((here, dec.out));
        if here == dest.coord && dec.out == dest.exit_dir() {
            break;
        }
        here = cfg.neighbor(here, dec.out).ok_or(RouteError::LeftArray {
            at: here,
            out: dec.out,
        })?;
        in_dir = dec.out.opposite();
        if path.len() > limit {
            return Err(RouteError::HopLimit { limit });
        }
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;
    use crate::topology::CrossbarScheme;

    #[test]
    fn default_is_empty_and_valid_everywhere() {
        let f = FaultModel::default();
        assert!(f.is_empty());
        for cfg in [
            NetworkConfig::mesh(Dims::new(4, 4)),
            NetworkConfig::torus(Dims::new(4, 4)),
        ] {
            assert_eq!(f.validate(&cfg), Ok(()));
        }
    }

    #[test]
    fn builders_sort_and_dedup() {
        let f = FaultModel::default()
            .kill_link(Coord::new(3, 1), Dir::E)
            .kill_link(Coord::new(0, 0), Dir::S)
            .kill_link(Coord::new(3, 1), Dir::E)
            .kill_router(Coord::new(2, 2))
            .kill_router(Coord::new(1, 1))
            .kill_router(Coord::new(2, 2));
        assert_eq!(
            f.dead_links(),
            &[(Coord::new(0, 0), Dir::S), (Coord::new(3, 1), Dir::E)]
        );
        assert_eq!(f.dead_routers(), &[Coord::new(1, 1), Coord::new(2, 2)]);
    }

    #[test]
    fn validation_rejects_bad_faults() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let f = FaultModel::default().kill_router(Coord::new(9, 9));
        assert!(matches!(
            f.validate(&cfg),
            Err(FaultError::NoSuchRouter { .. })
        ));
        // Off-edge link, P port, and Ruche link on a mesh all fail.
        for (at, out) in [
            (Coord::new(0, 0), Dir::N),
            (Coord::new(1, 1), Dir::P),
            (Coord::new(1, 1), Dir::RE),
        ] {
            let f = FaultModel::default().kill_link(at, out);
            assert!(
                matches!(f.validate(&cfg), Err(FaultError::NoSuchLink { .. })),
                "{at} {out}"
            );
        }
        // Torus rejects any fault.
        let torus = NetworkConfig::torus(Dims::new(4, 4));
        let f = FaultModel::default().kill_router(Coord::new(1, 1));
        assert_eq!(f.validate(&torus), Err(FaultError::VcRoutersUnsupported));
        // Edge channels are killable when edge ports exist.
        let edged = NetworkConfig::mesh(Dims::new(4, 4)).with_edge_memory_ports();
        let f = FaultModel::default().kill_link(Coord::new(2, 0), Dir::N);
        assert_eq!(f.validate(&edged), Ok(()));
    }

    #[test]
    fn channel_dead_is_bidirectional() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let f = FaultModel::default().kill_link(Coord::new(1, 1), Dir::E);
        assert!(f.channel_dead(&cfg, Coord::new(1, 1), Dir::E));
        assert!(f.channel_dead(&cfg, Coord::new(2, 1), Dir::W));
        assert!(!f.channel_dead(&cfg, Coord::new(1, 1), Dir::W));
        let f = FaultModel::default().kill_router(Coord::new(1, 1));
        assert!(f.channel_dead(&cfg, Coord::new(1, 1), Dir::S));
        assert!(f.channel_dead(&cfg, Coord::new(0, 1), Dir::E));
        assert!(f.channel_dead(&cfg, Coord::new(1, 1), Dir::P));
    }

    #[test]
    fn random_links_is_deterministic_and_scales_with_p() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let a = FaultModel::random_links(&cfg, 0.1, 42);
        let b = FaultModel::random_links(&cfg, 0.1, 42);
        assert_eq!(a, b);
        let c = FaultModel::random_links(&cfg, 0.1, 43);
        assert_ne!(a, c, "different seeds should differ on an 8x8 mesh");
        assert!(FaultModel::random_links(&cfg, 0.0, 42).is_empty());
        let dense = FaultModel::random_links(&cfg, 0.9, 42);
        assert!(dense.dead_links().len() > a.dead_links().len());
        for f in [&a, &c, &dense] {
            assert_eq!(f.validate(&cfg), Ok(()));
        }
    }

    #[test]
    fn unfaulted_table_routes_every_pair() {
        let cfg = NetworkConfig::mesh(Dims::new(5, 4));
        let table =
            RouteTable::build(&cfg, &FaultModel::default()).expect("empty fault model is valid");
        assert_eq!(table.connected_pair_fraction(), 1.0);
        for s in cfg.dims.iter() {
            for d in cfg.dims.iter() {
                let path = try_walk_table_route(&table, s, Dir::P, Dest::tile(d))
                    .expect("unfaulted pair routes");
                // Hop-minimal on an unfaulted mesh: manhattan + ejection.
                assert_eq!(path.len() as u32, s.manhattan(d) + 1, "{s}->{d}");
            }
        }
    }

    #[test]
    fn detour_routes_around_a_dead_link() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 1));
        // Kill the only direct link between (1,0) and (2,0) on a 4x1 line:
        // the row is cut, halves unreachable from each other.
        let f = FaultModel::default().kill_link(Coord::new(1, 0), Dir::E);
        let table = RouteTable::build(&cfg, &f).expect("fault model is valid for cfg");
        let err = table
            .route(Coord::new(0, 0), Dir::P, Dest::tile(Coord::new(3, 0)))
            .unwrap_err();
        assert!(matches!(err, RouteError::Unreachable { .. }));

        // On a 4x2 grid the same cut detours through the second row.
        let cfg = NetworkConfig::mesh(Dims::new(4, 2));
        let table = RouteTable::build(&cfg, &f).expect("fault model is valid for cfg");
        let path = try_walk_table_route(
            &table,
            Coord::new(0, 0),
            Dir::P,
            Dest::tile(Coord::new(3, 0)),
        )
        .expect("detour exists through the second row");
        assert_eq!(path.len(), 6, "3 E hops + S + N detour + eject: {path:?}");
        assert_eq!(table.connected_pair_fraction(), 1.0);
    }

    #[test]
    fn detours_use_ruche_diversity() {
        let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::FullyPopulated);
        // Kill every local E/W link on row 0: X travel in row 0 must board
        // the Ruche highway.
        let mut f = FaultModel::default();
        for x in 0..7u16 {
            f = f.kill_link(Coord::new(x, 0), Dir::E);
        }
        let table = RouteTable::build(&cfg, &f).expect("fault model is valid for cfg");
        let path = try_walk_table_route(
            &table,
            Coord::new(0, 0),
            Dir::P,
            Dest::tile(Coord::new(4, 0)),
        )
        .expect("ruche channels bypass the dead row");
        assert!(
            path.iter().any(|&(_, d)| d.is_ruche()),
            "detour should ride a Ruche channel: {path:?}"
        );
        // RF=2 highway covers even distances without leaving the row.
        assert_eq!(path.len(), 3, "{path:?}");
    }

    #[test]
    fn dead_router_partitions_only_itself_on_a_mesh() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let dead = Coord::new(1, 1);
        let f = FaultModel::default().kill_router(dead);
        let table = RouteTable::build(&cfg, &f).expect("fault model is valid for cfg");
        for s in cfg.dims.iter() {
            for d in cfg.dims.iter() {
                if s == d {
                    continue;
                }
                let reach = table.reachable(s, Dir::P, Dest::tile(d));
                assert_eq!(reach, s != dead && d != dead, "{s}->{d}");
            }
        }
    }

    #[test]
    fn edge_destinations_route_and_die_with_their_channel() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4)).with_edge_memory_ports();
        let f = FaultModel::default().kill_link(Coord::new(2, 0), Dir::N);
        let table = RouteTable::build(&cfg, &f).expect("fault model is valid for cfg");
        // The killed edge channel partitions its endpoint...
        assert!(!table.reachable(Coord::new(0, 3), Dir::P, Dest::north_edge(2)));
        // ...but its neighbors still work, and entry from an edge endpoint
        // routes back into the array.
        let path = try_walk_table_route(&table, Coord::new(1, 0), Dir::P, Dest::north_edge(1))
            .expect("edge endpoint stays reachable");
        assert_eq!(
            path.last().expect("route is non-empty"),
            &(Coord::new(1, 0), Dir::N)
        );
        let back = try_walk_table_route(
            &table,
            Coord::new(3, 0),
            Dir::N,
            Dest::tile(Coord::new(0, 3)),
        )
        .expect("edge-entered packet routes to its tile");
        assert_eq!(back.last().expect("route is non-empty").1, Dir::P);
    }

    #[test]
    fn up_down_phase_is_monotone_along_every_route() {
        // The turn-model invariant behind deadlock freedom: once a route
        // takes a down hop (toward higher rank) it never goes up again.
        let cfg = NetworkConfig::mesh(Dims::new(6, 5));
        let f = FaultModel::random_links(&cfg, 0.15, 7);
        let table = RouteTable::build(&cfg, &f).expect("fault model is valid for cfg");
        assert!(!f.is_empty(), "seed should produce at least one fault");
        for s in cfg.dims.iter() {
            for d in cfg.dims.iter() {
                let Ok(path) = try_walk_table_route(&table, s, Dir::P, Dest::tile(d)) else {
                    continue;
                };
                let mut down = false;
                for &(at, out) in &path {
                    let Some(nb) = cfg.neighbor(at, out) else {
                        continue; // ejection / edge exit
                    };
                    if table.is_up(at, nb) {
                        assert!(!down, "{s}->{d} goes up after down at {at}: {path:?}");
                    } else {
                        down = true;
                    }
                }
            }
        }
    }
}
