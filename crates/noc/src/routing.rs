//! Routing algorithms for all simulated topologies.
//!
//! Everything here is *per-hop route compute*, exactly as an RTL router's
//! decode stage would do it: given the flit's destination, the input port it
//! arrived on, and (for torus) its current virtual channel, decide the output
//! port and output VC. No state is carried in the network; deterministic
//! routing plus FIFO channels gives in-order delivery per (source,
//! destination) pair.
//!
//! * **Mesh / multi-mesh** — dimension-ordered routing (DOR); multi-mesh
//!   picks mesh 0 when the Manhattan distance at injection is even, mesh 1
//!   otherwise (§4.2).
//! * **Folded torus** — DOR over the per-axis rings (shortest ring
//!   direction), with dateline VC partitioning for deadlock freedom
//!   (Dally & Seitz): packets start on VC 0 and switch to VC 1 when they
//!   cross the dateline edge of a ring.
//! * **Ruche** — the paper's modified DOR (§3.2, Figure 4): *ruche-first*
//!   in the first dimension (board a Ruche link immediately, ride it for the
//!   bulk of the distance, finish on local links), *local-first* in the
//!   second (local hops until the remaining distance is a multiple of the
//!   Ruche Factor, then Ruche links to the destination). The depopulated
//!   variant additionally forbids turning or ejecting straight off a Ruche
//!   link, which removes 16 crossbar connections (Figure 5) at the cost of
//!   extra local hops.
//! * **Ruche-One** (`RF = 1`, fully populated) — parity balancing: packets
//!   whose total Manhattan distance is even ride the Ruche (second) plane
//!   end-to-end, odd distances ride the local plane (§3.2).
//!
//! The route walks live here too: [`trace`] follows one route under any
//! decision function, and [`Cases`] numbers every route a configuration
//! carries and walks them all, memoized per destination. The crossbar
//! derivation, the `ruche-verify` lint battery and its faulted check all
//! run on that one walk.

use crate::geometry::{Axis, Coord, Dims, Dir};
use crate::topology::{fold_logical, CrossbarScheme, DorOrder, NetworkConfig, TopologyKind};
use std::fmt;

/// Which edge of the array an edge-attached memory endpoint sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgePort {
    /// Beyond the N port of a row-0 router.
    North,
    /// Beyond the S port of a last-row router.
    South,
}

/// A packet destination: a tile, or a memory endpoint on the array edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dest {
    /// The router at which the packet leaves the network. For edge
    /// destinations this is the edge-adjacent router in the target column.
    pub coord: Coord,
    /// `None` to eject through the P port; otherwise exit through the N/S
    /// edge channel toward the memory endpoint.
    pub edge: Option<EdgePort>,
}

impl Dest {
    /// Destination at a tile's processor port.
    pub const fn tile(coord: Coord) -> Self {
        Dest { coord, edge: None }
    }

    /// Destination at the north-edge memory endpoint of column `col`.
    pub const fn north_edge(col: u16) -> Self {
        Dest {
            coord: Coord::new(col, 0),
            edge: Some(EdgePort::North),
        }
    }

    /// Destination at the south-edge memory endpoint of column `col`, for an
    /// array with `rows` rows.
    pub const fn south_edge(col: u16, rows: u16) -> Self {
        Dest {
            coord: Coord::new(col, rows - 1),
            edge: Some(EdgePort::South),
        }
    }

    /// The ejection direction at `self.coord`.
    pub fn exit_dir(self) -> Dir {
        match self.edge {
            None => Dir::P,
            Some(EdgePort::North) => Dir::N,
            Some(EdgePort::South) => Dir::S,
        }
    }
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.edge {
            None => write!(f, "{}", self.coord),
            Some(EdgePort::North) => write!(f, "N-edge[{}]", self.coord.x),
            Some(EdgePort::South) => write!(f, "S-edge[{}]", self.coord.x),
        }
    }
}

/// The output of per-hop route computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Output port to request.
    pub out: Dir,
    /// Virtual channel on the outgoing channel (always 0 for wormhole
    /// networks; dateline-partitioned for torus rings).
    pub out_vc: u8,
}

/// How a packet is currently travelling along an axis, derived from its
/// input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxisClass {
    /// Riding a Ruche channel of this axis.
    Ruche,
    /// Riding a local channel of this axis.
    Local,
    /// Injection, or travelling along the other axis (i.e. turning).
    Other,
}

fn axis_class(in_dir: Dir, axis: Axis) -> AxisClass {
    match in_dir.axis() {
        Some(a) if a == axis => {
            if in_dir.is_ruche() {
                AxisClass::Ruche
            } else {
                AxisClass::Local
            }
        }
        _ => AxisClass::Other,
    }
}

/// Signed distance from `here` to `dest` along `axis` (mesh-style axes).
fn axis_dist(here: Coord, dest: Coord, axis: Axis) -> i32 {
    match axis {
        Axis::X => dest.x as i32 - here.x as i32,
        Axis::Y => dest.y as i32 - here.y as i32,
    }
}

/// Local direction for moving `sign` along `axis` (sign must be ±1).
fn local_dir(axis: Axis, sign: i32) -> Dir {
    match (axis, sign > 0) {
        (Axis::X, true) => Dir::E,
        (Axis::X, false) => Dir::W,
        (Axis::Y, true) => Dir::S,
        (Axis::Y, false) => Dir::N,
    }
}

/// Ruche direction for moving `sign` along `axis`.
fn ruche_dir(axis: Axis, sign: i32) -> Dir {
    match (axis, sign > 0) {
        (Axis::X, true) => Dir::RE,
        (Axis::X, false) => Dir::RW,
        (Axis::Y, true) => Dir::RS,
        (Axis::Y, false) => Dir::RN,
    }
}

/// Second-mesh direction for moving `sign` along `axis` (multi-mesh).
fn mesh2_dir(axis: Axis, sign: i32) -> Dir {
    match (axis, sign > 0) {
        (Axis::X, true) => Dir::E2,
        (Axis::X, false) => Dir::W2,
        (Axis::Y, true) => Dir::S2,
        (Axis::Y, false) => Dir::N2,
    }
}

/// Computes the output port (and output VC) for a flit at router `here`
/// that arrived through `in_dir` on VC `in_vc`, heading for `dest`.
///
/// This is the single route-compute function shared by the simulator, the
/// crossbar-connectivity generator, and the analytic hop counters, so the
/// three can never disagree.
///
/// # Panics
///
/// Panics (in debug builds) if the configuration routes a packet to a
/// non-existent link — that would be a routing-algorithm bug, and the test
/// suite property-checks against it.
pub fn compute_route(
    cfg: &NetworkConfig,
    here: Coord,
    in_dir: Dir,
    in_vc: u8,
    dest: Dest,
) -> RouteDecision {
    debug_assert!(cfg.dims.contains(here) && cfg.dims.contains(dest.coord));
    match cfg.topology {
        TopologyKind::Mesh => mesh_route(cfg, here, dest),
        TopologyKind::MultiMesh => multimesh_route(cfg, here, in_dir, dest),
        TopologyKind::Torus { .. } => torus_route(cfg, here, in_dir, in_vc, dest),
        TopologyKind::Ruche { rf: 1, .. } => ruche_one_route(cfg, here, in_dir, dest),
        TopologyKind::Ruche { rf, .. } => ruche_route(cfg, here, in_dir, dest, rf),
    }
}

fn eject(dest: Dest) -> RouteDecision {
    RouteDecision {
        out: dest.exit_dir(),
        out_vc: 0,
    }
}

fn mesh_route(cfg: &NetworkConfig, here: Coord, dest: Dest) -> RouteDecision {
    for axis in [cfg.dor.first(), cfg.dor.second()] {
        let d = axis_dist(here, dest.coord, axis);
        if d != 0 {
            return RouteDecision {
                out: local_dir(axis, d.signum()),
                out_vc: 0,
            };
        }
    }
    eject(dest)
}

fn multimesh_route(cfg: &NetworkConfig, here: Coord, in_dir: Dir, dest: Dest) -> RouteDecision {
    // Mesh selection: even Manhattan distance at injection rides mesh 0,
    // odd rides mesh 1 (§4.2). Mid-route flits stay on their mesh, which the
    // input port tells us.
    let second = if in_dir == Dir::P {
        here.manhattan(dest.coord) % 2 == 1
    } else {
        in_dir.is_second_mesh()
    };
    for axis in [cfg.dor.first(), cfg.dor.second()] {
        let d = axis_dist(here, dest.coord, axis);
        if d != 0 {
            let out = if second {
                mesh2_dir(axis, d.signum())
            } else {
                local_dir(axis, d.signum())
            };
            return RouteDecision { out, out_vc: 0 };
        }
    }
    eject(dest)
}

fn torus_route(
    cfg: &NetworkConfig,
    here: Coord,
    in_dir: Dir,
    in_vc: u8,
    dest: Dest,
) -> RouteDecision {
    for axis in [cfg.dor.first(), cfg.dor.second()] {
        if cfg.torus_axis(axis) {
            let k = cfg.extent(axis);
            let (hp, dp) = match axis {
                Axis::X => (here.x, dest.coord.x),
                Axis::Y => (here.y, dest.coord.y),
            };
            let lh = fold_logical(hp, k);
            let ld = fold_logical(dp, k);
            if lh != ld {
                let fwd = (ld + k - lh) % k; // hops in ring+ direction
                let bwd = k - fwd;
                let take_fwd = match fwd.cmp(&bwd) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    // Tie-break deterministically so delivery stays in
                    // order per (src, dst) pair.
                    std::cmp::Ordering::Equal => ld.is_multiple_of(2),
                };
                let out = if take_fwd {
                    local_dir(axis, 1) // ring+: E or S port
                } else {
                    local_dir(axis, -1) // ring-: W or N port
                };
                // Dateline: the wrap edge of each unidirectional ring. A hop
                // from logical k-1 to 0 (ring+) or 0 to k-1 (ring-) crosses
                // it; the crossing channel and everything after use VC 1.
                let crossing = if take_fwd { lh == k - 1 } else { lh == 0 };
                let same_ring = axis_class(in_dir, axis) != AxisClass::Other;
                let out_vc = if (same_ring && in_vc == 1) || crossing {
                    1
                } else {
                    0
                };
                return RouteDecision { out, out_vc };
            }
        } else {
            let d = axis_dist(here, dest.coord, axis);
            if d != 0 {
                return RouteDecision {
                    out: local_dir(axis, d.signum()),
                    out_vc: 0,
                };
            }
        }
    }
    eject(dest)
}

fn ruche_route(
    cfg: &NetworkConfig,
    here: Coord,
    in_dir: Dir,
    dest: Dest,
    rf: u16,
) -> RouteDecision {
    let rf_i = rf as i32;
    let axes = [cfg.dor.first(), cfg.dor.second()];
    for (i, &axis) in axes.iter().enumerate() {
        let d = axis_dist(here, dest.coord, axis);
        if d == 0 {
            continue;
        }
        let has_ruche = cfg.ruche_axis(axis);
        let use_ruche = if !has_ruche {
            false
        } else if i == 0 {
            // Ruche-first: board the highway immediately. Depopulated
            // routers must arrive at the turn (or ejection) column on a
            // local link, so they leave the highway one exit early.
            match cfg.scheme {
                CrossbarScheme::FullyPopulated => d.abs() >= rf_i,
                CrossbarScheme::Depopulated => d.abs() > rf_i,
            }
        } else {
            // Local-first: local hops until the remaining distance is a
            // multiple of RF, then ride Ruche links to the destination.
            match axis_class(in_dir, axis) {
                AxisClass::Ruche => true,
                AxisClass::Local => d.abs() % rf_i == 0,
                AxisClass::Other => match cfg.scheme {
                    // Fully-populated routers can turn (or inject) straight
                    // onto a Ruche link; depopulated must take a local hop.
                    CrossbarScheme::FullyPopulated => d.abs() % rf_i == 0,
                    CrossbarScheme::Depopulated => false,
                },
            }
        };
        let out = if use_ruche {
            ruche_dir(axis, d.signum())
        } else {
            local_dir(axis, d.signum())
        };
        return RouteDecision { out, out_vc: 0 };
    }
    // Ejection. Depopulated routers cannot eject from a *first-dimension*
    // Ruche input (no P connection in Figure 5); the ruche-first rule above
    // guarantees those packets leave the highway before their last X hop.
    // Second-dimension (local-first) Ruche inputs do connect to P: packets
    // ride them to exactly distance zero.
    debug_assert!(
        cfg.scheme == CrossbarScheme::FullyPopulated
            || !(in_dir.is_ruche() && in_dir.axis() == Some(cfg.dor.first())),
        "depopulated router asked to eject from a first-dimension ruche input at {here}"
    );
    eject(dest)
}

fn ruche_one_route(cfg: &NetworkConfig, here: Coord, in_dir: Dir, dest: Dest) -> RouteDecision {
    // Parity balancing (§3.2): even total distance rides the Ruche plane,
    // odd rides the local plane, decided at injection and then carried by
    // which plane the packet arrives on.
    let ruche_plane = if in_dir == Dir::P {
        here.manhattan(dest.coord).is_multiple_of(2)
    } else {
        in_dir.is_ruche()
    };
    for axis in [cfg.dor.first(), cfg.dor.second()] {
        let d = axis_dist(here, dest.coord, axis);
        if d != 0 {
            let out = if ruche_plane && cfg.ruche_axis(axis) {
                ruche_dir(axis, d.signum())
            } else {
                local_dir(axis, d.signum())
            };
            return RouteDecision { out, out_vc: 0 };
        }
    }
    eject(dest)
}

/// One step of a routed path: the router traversed and the output taken.
pub type PathStep = (Coord, Dir);

/// Why a route walk failed (see [`trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The routing function emitted an output with no link behind it.
    LeftArray {
        /// Router at which the route fell off.
        at: Coord,
        /// The unconnected output it requested.
        out: Dir,
    },
    /// The route did not reach its destination within the hop bound.
    HopLimit {
        /// The bound that was exceeded ([`NetworkConfig::max_route_hops`]).
        limit: usize,
    },
    /// No surviving path reaches the destination: faults have partitioned
    /// it away (see [`crate::fault`]).
    Unreachable {
        /// The partitioned destination.
        dest: Dest,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::LeftArray { at, out } => {
                write!(f, "route left the array at {at} via {out}")
            }
            RouteError::HopLimit { limit } => {
                write!(f, "route did not terminate within {limit} hops")
            }
            RouteError::Unreachable { dest } => {
                write!(f, "no surviving route reaches {dest:?}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Identifies one route: where the packet enters the network, through
/// which port, and where it is heading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteId {
    /// First router the packet traverses.
    pub src: Coord,
    /// Input port at `src` (`P` for tile injection, `N`/`S` for packets
    /// arriving from an edge memory endpoint).
    pub entry: Dir,
    /// Packet destination.
    pub dest: Dest,
}

impl fmt::Display for RouteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.entry {
            Dir::P => write!(f, "{} -> {}", self.src, self.dest),
            Dir::N => write!(f, "N-edge[{}] -> {}", self.src.x, self.dest),
            Dir::S => write!(f, "S-edge[{}] -> {}", self.src.x, self.dest),
            other => write!(f, "{}(in {}) -> {}", self.src, other, self.dest),
        }
    }
}

/// One hop of a walked route: the routing state and the decision taken
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Router traversed.
    pub here: Coord,
    /// Input port the packet arrived through.
    pub in_dir: Dir,
    /// Virtual channel it arrived on.
    pub in_vc: u8,
    /// Output port taken.
    pub out: Dir,
    /// Virtual channel requested on the output.
    pub out_vc: u8,
}

/// Walks `route` hop by hop, recording every hop including the ejection.
///
/// `decide(here, in_dir, in_vc, dest)` makes each hop's decision:
/// [`compute_route`], an injected routing function, or a fault
/// [`RouteTable`](crate::fault::RouteTable)'s lookup.
///
/// # Errors
///
/// The failure, with the hops walked before it: the decision's own error,
/// [`RouteError::LeftArray`] if an output has no link behind it, or
/// [`RouteError::HopLimit`] if the walk exceeds
/// [`NetworkConfig::max_route_hops`] without ejecting.
pub fn trace<D>(
    cfg: &NetworkConfig,
    route: RouteId,
    mut decide: D,
) -> Result<Vec<TraceStep>, (RouteError, Vec<TraceStep>)>
where
    D: FnMut(Coord, Dir, u8, Dest) -> Result<RouteDecision, RouteError>,
{
    let (mut here, mut in_dir, mut in_vc) = (route.src, route.entry, 0u8);
    let mut steps = Vec::new();
    let limit = cfg.max_route_hops();
    loop {
        let dec = match decide(here, in_dir, in_vc, route.dest) {
            Ok(dec) => dec,
            Err(e) => return Err((e, steps)),
        };
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
        (here, in_dir, in_vc) = (next, dec.out.opposite(), dec.out_vc);
        if steps.len() > limit {
            return Err((RouteError::HopLimit { limit }, steps));
        }
    }
}

/// The `(router, output)` path of `route` under [`compute_route`].
fn dor_path(cfg: &NetworkConfig, route: RouteId) -> Result<Vec<PathStep>, RouteError> {
    let decide = |here, in_dir, in_vc, dest| Ok(compute_route(cfg, here, in_dir, in_vc, dest));
    match trace(cfg, route, decide) {
        Ok(steps) => Ok(steps.iter().map(|s| (s.here, s.out)).collect()),
        Err((e, _)) => Err(e),
    }
}

/// Walks the full route of a packet from `src` to `dest`, returning every
/// (router, output port) traversal including the final ejection.
///
/// # Panics
///
/// Panics if the route does not terminate within
/// [`NetworkConfig::max_route_hops`] hops — which would be a routing bug
/// (the test suite property-checks this). Use [`try_walk_route`] for the
/// non-panicking variant.
pub fn walk_route(cfg: &NetworkConfig, src: Coord, dest: Dest) -> Vec<PathStep> {
    walk_route_from(cfg, src, Dir::P, dest)
}

/// Like [`walk_route`], but the packet enters the first router through
/// `entry_dir` instead of being injected at P — this is how packets from
/// edge memory endpoints enter the array (through the N/S edge channel).
///
/// # Panics
///
/// Panics if the route does not terminate (see [`walk_route`]).
pub fn walk_route_from(
    cfg: &NetworkConfig,
    src: Coord,
    entry_dir: Dir,
    dest: Dest,
) -> Vec<PathStep> {
    let route = RouteId {
        src,
        entry: entry_dir,
        dest,
    };
    dor_path(cfg, route).unwrap_or_else(|e| panic!("route from {src} to {dest}: {e}"))
}

/// Non-panicking [`walk_route`]: returns the path, or the reason the route
/// is broken ([`trace`] keeps the hops walked before it).
///
/// # Errors
///
/// Returns [`RouteError::LeftArray`] if the routing function emits an
/// output with no link behind it, or [`RouteError::HopLimit`] if the walk
/// exceeds [`NetworkConfig::max_route_hops`] without ejecting.
pub fn try_walk_route(
    cfg: &NetworkConfig,
    src: Coord,
    dest: Dest,
) -> Result<Vec<PathStep>, RouteError> {
    dor_path(
        cfg,
        RouteId {
            src,
            entry: Dir::P,
            dest,
        },
    )
}

/// Number of router traversals (network hops, including the ejection
/// traversal) on the route from `src` to `dest`. This is the *intrinsic*
/// (zero-load) latency of the route in cycles, given one cycle per hop.
pub fn route_hops(cfg: &NetworkConfig, src: Coord, dst: Coord) -> u32 {
    walk_route(cfg, src, Dest::tile(dst)).len() as u32
}

/// Average route hop count over all (src ≠ dst) tile pairs — the network's
/// average zero-load router-traversal count.
pub fn mean_route_hops(cfg: &NetworkConfig) -> f64 {
    let mut total = 0u64;
    let mut n = 0u64;
    for s in cfg.dims.iter() {
        for d in cfg.dims.iter() {
            if s != d {
                total += route_hops(cfg, s, d) as u64;
                n += 1;
            }
        }
    }
    total as f64 / n as f64
}

/// Returns the source coordinate adjacent to an edge endpoint — i.e. where
/// packets *from* that endpoint enter the array — plus the input direction
/// they arrive on.
pub fn edge_entry(dims: Dims, edge: EdgePort, col: u16) -> (Coord, Dir) {
    match edge {
        EdgePort::North => (Coord::new(col, 0), Dir::N),
        EdgePort::South => (Coord::new(col, dims.rows - 1), Dir::S),
    }
}

/// Dense index of the routing state, or channel, `(at, port, vc)` over
/// every [`Dir`] of every router. VC-major, unlike the simulator's
/// `(node * ports + port) * max_vcs + vc` slots: a VC beyond the
/// configuration's count (which an injected routing function may request)
/// only appends to a table indexed this way, instead of re-laying it out.
#[inline]
pub fn dense_index(dims: Dims, at: Coord, port: Dir, vc: u8) -> usize {
    (usize::from(vc) * dims.count() + dims.index(at)) * Dir::ALL.len() + port as usize
}

/// Every route a configuration carries, numbered and grouped by
/// destination, and the memoized walk over them.
///
/// Routes are numbered tile to tile first, source-major; then, per edge
/// column and edge (north first), the routes to that edge endpoint and
/// then the routes from it. Edge traffic is enumerated in exactly the
/// directions the network carries it: requests route X-Y *to* the edges,
/// responses Y-X *from* them (§4), unless `edge_bidirectional` carries
/// both.
#[derive(Debug, Clone, Copy)]
pub struct Cases<'a> {
    cfg: &'a NetworkConfig,
    to_edge: bool,
    from_edge: bool,
}

/// What [`Cases::walk`] reports to its visitor, in walk order.
#[derive(Debug, Clone, Copy)]
pub enum Visit {
    /// A routing state expanded toward `route.dest`, by the first route of
    /// that destination to reach it.
    State {
        /// Number of the route that expanded the state.
        number: usize,
        /// That route.
        route: RouteId,
        /// The state and the decision taken there.
        step: TraceStep,
        /// The router behind `step.out`; `None` for an output with no link
        /// (ejection at P, or an exit into an edge endpoint).
        next: Option<Coord>,
    },
    /// The walk of a route ended.
    Route {
        /// Number of the route.
        number: usize,
        /// The route.
        route: RouteId,
        /// Its length in hops, ejection included; `None` exactly where
        /// [`trace`] fails.
        length: Option<u32>,
    },
}

/// Memo sentinels for a routing state in [`Cases::walk`]; any other value
/// is the number of hops from the state to ejection, its own hop included.
const UNSEEN: u32 = u32::MAX;
/// On the walk in progress: reaching it again closes a routing loop.
const ON_WALK: u32 = u32::MAX - 1;
/// Never ejects: it loops, leaves the array or meets a decision error, and
/// so does every route that reaches it.
const FAILS: u32 = u32::MAX - 2;

impl<'a> Cases<'a> {
    /// The routes `cfg` carries.
    pub fn new(cfg: &'a NetworkConfig) -> Self {
        let both = cfg.edge_bidirectional;
        Cases {
            cfg,
            to_edge: cfg.edge_memory_ports && (both || cfg.dor == DorOrder::XY),
            from_edge: cfg.edge_memory_ports && (both || cfg.dor == DorOrder::YX),
        }
    }

    fn tiles(&self) -> usize {
        self.cfg.dims.count()
    }

    /// Routes to and from one edge endpoint.
    fn per_edge(&self) -> usize {
        self.tiles() * (usize::from(self.to_edge) + usize::from(self.from_edge))
    }

    /// Number of routes.
    pub fn count(&self) -> usize {
        self.tiles() * self.tiles() + 2 * usize::from(self.cfg.dims.cols) * self.per_edge()
    }

    fn edges(&self) -> impl Iterator<Item = (u16, EdgePort)> {
        (0..self.cfg.dims.cols).flat_map(|col| [(col, EdgePort::North), (col, EdgePort::South)])
    }

    /// Number of the first route to or from edge endpoint `(col, edge)`.
    fn edge_base(&self, col: u16, edge: EdgePort) -> usize {
        let k = 2 * usize::from(col) + usize::from(edge == EdgePort::South);
        self.tiles() * self.tiles() + k * self.per_edge()
    }

    /// Every destination: the tiles in row-major order, then the edge
    /// endpoints routes are enumerated to.
    pub fn destinations(&self) -> Vec<Dest> {
        let dims = self.cfg.dims;
        let mut dests: Vec<Dest> = dims.iter().map(Dest::tile).collect();
        if self.to_edge {
            dests.extend(self.edges().map(|(col, edge)| match edge {
                EdgePort::North => Dest::north_edge(col),
                EdgePort::South => Dest::south_edge(col, dims.rows),
            }));
        }
        dests
    }

    /// Fills `out` with every route to `dest` and its number, in
    /// increasing number order.
    pub fn routes_to(&self, dest: Dest, out: &mut Vec<(usize, RouteId)>) {
        let dims = self.cfg.dims;
        out.clear();
        let tile_routes = |first: usize, step: usize, out: &mut Vec<(usize, RouteId)>| {
            for (s, src) in dims.iter().enumerate() {
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
                let d = dims.index(dest.coord);
                tile_routes(d, self.tiles(), out);
                if self.from_edge {
                    let skip = if self.to_edge { self.tiles() } else { 0 };
                    for (col, edge) in self.edges() {
                        let (src, entry) = edge_entry(dims, edge, col);
                        let route = RouteId { src, entry, dest };
                        out.push((self.edge_base(col, edge) + skip + d, route));
                    }
                }
            }
            Some(edge) => tile_routes(self.edge_base(dest.coord.x, edge), 1, out),
        }
    }

    /// Walks every route, destination by destination, making each hop's
    /// decision with `decide` as [`trace`] does, and tells `visit` every
    /// routing state it expands and every route's length.
    ///
    /// Routes to one destination merge: a walk stops at the first
    /// `(router, input port, input VC)` state an earlier route to the same
    /// destination resolved, and its length is the hops walked so far plus
    /// the hops stored there. So each state is expanded, decided and
    /// visited once per destination. `decide` must be a pure function of
    /// the state and the destination. `visit` runs once per state, so a
    /// visitor that does much there is best marked `#[inline(always)]`.
    pub fn walk<D, V>(&self, mut decide: D, mut visit: V)
    where
        D: FnMut(Coord, Dir, u8, Dest) -> Result<RouteDecision, RouteError>,
        V: FnMut(Visit),
    {
        let cfg = self.cfg;
        // A route that ejects but runs past the hop bound fails, as in
        // `trace`.
        let longest = cfg.max_route_hops() as u32 + 1;
        // Status of each routing state toward the current destination,
        // over `dense_index`; reset between destinations through
        // `walked`, the states expanded so far.
        let mut memo: Vec<u32> = Vec::new();
        let mut walked: Vec<usize> = Vec::new();
        let mut group = Vec::new();
        for dest in self.destinations() {
            self.routes_to(dest, &mut group);
            for &(number, route) in &group {
                let start = walked.len();
                let (mut here, mut in_dir, mut in_vc) = (route.src, route.entry, 0u8);
                let length = loop {
                    let state = dense_index(cfg.dims, here, in_dir, in_vc);
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
                    let Ok(dec) = decide(here, in_dir, in_vc, dest) else {
                        break None;
                    };
                    let step = TraceStep {
                        here,
                        in_dir,
                        in_vc,
                        out: dec.out,
                        out_vc: dec.out_vc,
                    };
                    let next = cfg.neighbor(here, dec.out);
                    visit(Visit::State {
                        number,
                        route,
                        step,
                        next,
                    });
                    if here == dest.coord && dec.out == dest.exit_dir() {
                        break Some(walked_here + 1);
                    }
                    let Some(next) = next else { break None };
                    (here, in_dir, in_vc) = (next, dec.out.opposite(), dec.out_vc);
                };
                for (k, &state) in walked[start..].iter().enumerate() {
                    memo[state] = length.map_or(FAILS, |h| h - k as u32);
                }
                visit(Visit::Route {
                    number,
                    route,
                    length: length.filter(|&h| h <= longest),
                });
            }
            for &state in &walked {
                memo[state] = UNSEEN;
            }
            walked.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CrossbarScheme::{Depopulated, FullyPopulated};

    fn hops(cfg: &NetworkConfig, s: (u16, u16), d: (u16, u16)) -> u32 {
        route_hops(cfg, Coord::new(s.0, s.1), Coord::new(d.0, d.1))
    }

    fn dirs(cfg: &NetworkConfig, s: (u16, u16), d: (u16, u16)) -> Vec<Dir> {
        walk_route(cfg, Coord::new(s.0, s.1), Dest::tile(Coord::new(d.0, d.1)))
            .into_iter()
            .map(|(_, dir)| dir)
            .collect()
    }

    #[test]
    fn mesh_xy_routes_x_then_y() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        assert_eq!(
            dirs(&cfg, (0, 0), (2, 2)),
            vec![Dir::E, Dir::E, Dir::S, Dir::S, Dir::P]
        );
        assert_eq!(hops(&cfg, (0, 0), (7, 7)), 15);
        assert_eq!(hops(&cfg, (3, 3), (3, 3)), 1); // ejection only
    }

    #[test]
    fn mesh_yx_routes_y_then_x() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 8)).with_dor(crate::topology::DorOrder::YX);
        assert_eq!(
            dirs(&cfg, (0, 0), (2, 2)),
            vec![Dir::S, Dir::S, Dir::E, Dir::E, Dir::P]
        );
    }

    #[test]
    fn multimesh_parity_selects_mesh() {
        let cfg = NetworkConfig::multi_mesh(Dims::new(8, 8));
        // Even distance -> mesh 0; odd -> mesh 1.
        assert_eq!(dirs(&cfg, (0, 0), (1, 1))[0], Dir::E);
        assert_eq!(dirs(&cfg, (0, 0), (1, 0))[0], Dir::E2);
        // Whole route stays on the selected mesh.
        for d in dirs(&cfg, (0, 0), (2, 1)).iter().take(3) {
            assert!(d.is_second_mesh(), "odd-distance route uses mesh 1: {d}");
        }
    }

    #[test]
    fn ruche_first_rides_highway_pop() {
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, FullyPopulated);
        // dx=7: RE,RE,E (ruche-first: 2 ruche + 1 local), then eject.
        assert_eq!(
            dirs(&cfg, (0, 0), (7, 0)),
            vec![Dir::RE, Dir::RE, Dir::E, Dir::P]
        );
        // dx=6 (multiple of RF): pop rides ruche all the way.
        assert_eq!(dirs(&cfg, (0, 0), (6, 0)), vec![Dir::RE, Dir::RE, Dir::P]);
    }

    #[test]
    fn ruche_first_depop_gets_off_early() {
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, Depopulated);
        // dx=6: depop must arrive on a local link: RE then 3 locals.
        assert_eq!(
            dirs(&cfg, (0, 0), (6, 0)),
            vec![Dir::RE, Dir::E, Dir::E, Dir::E, Dir::P]
        );
        // dx=3: all local (cannot ride one ruche hop straight to ejection).
        assert_eq!(
            dirs(&cfg, (0, 0), (3, 0)),
            vec![Dir::E, Dir::E, Dir::E, Dir::P]
        );
        // dx=7: two ruche hops then one local — depop pays extra hops only
        // when the distance is an exact multiple of RF.
        assert_eq!(hops(&cfg, (0, 0), (7, 0)), 4);
    }

    #[test]
    fn local_first_in_second_dimension() {
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, FullyPopulated);
        // Pure-Y dy=7: local-first: 1 local (7 mod 3), then 2 ruche.
        assert_eq!(
            dirs(&cfg, (0, 0), (0, 7)),
            vec![Dir::S, Dir::RS, Dir::RS, Dir::P]
        );
        // dy=6 from injection, pop: straight onto ruche.
        assert_eq!(dirs(&cfg, (0, 0), (0, 6)), vec![Dir::RS, Dir::RS, Dir::P]);
    }

    #[test]
    fn local_first_depop_boards_from_local_only() {
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, Depopulated);
        // dy=6 from injection, depop: 3 locals then 1 ruche.
        assert_eq!(
            dirs(&cfg, (0, 0), (0, 6)),
            vec![Dir::S, Dir::S, Dir::S, Dir::RS, Dir::P]
        );
        // Turning traffic: dx=1, dy=6: turn arrives on local X, must take a
        // local Y hop before boarding.
        assert_eq!(
            dirs(&cfg, (0, 0), (1, 6)),
            vec![Dir::E, Dir::S, Dir::S, Dir::S, Dir::RS, Dir::P]
        );
    }

    #[test]
    fn pop_turns_straight_off_the_highway() {
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, FullyPopulated);
        // dx=6, dy=6: RE,RE then directly RS,RS (turn from ruche input onto
        // ruche output — the fully-populated connection).
        assert_eq!(
            dirs(&cfg, (0, 0), (6, 6)),
            vec![Dir::RE, Dir::RE, Dir::RS, Dir::RS, Dir::P]
        );
    }

    #[test]
    fn depop_routes_are_distance_preserving() {
        // Depopulated routing is non-minimal in hops but never in distance:
        // total tiles traversed equals the Manhattan distance.
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), 3, Depopulated);
        for s in [(0u16, 0u16), (5, 3), (12, 15)] {
            for d in [(9u16, 9u16), (15, 0), (3, 14), (6, 6)] {
                let src = Coord::new(s.0, s.1);
                let dst = Coord::new(d.0, d.1);
                let tiles: i32 = walk_route(&cfg, src, Dest::tile(dst))
                    .iter()
                    .map(|&(_, dir)| {
                        let (dx, dy) = dir.displacement(3);
                        dx.abs() + dy.abs()
                    })
                    .sum();
                assert_eq!(tiles as u32, src.manhattan(dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn pop_routes_are_hop_minimal_per_axis() {
        let rf = 3i64;
        let cfg = NetworkConfig::full_ruche(Dims::new(16, 16), rf as u16, FullyPopulated);
        for s in [(0u16, 0u16), (7, 2), (15, 15)] {
            for d in [(4u16, 9u16), (15, 0), (0, 13)] {
                let src = Coord::new(s.0, s.1);
                let dst = Coord::new(d.0, d.1);
                let dx = (dst.x as i64 - src.x as i64).abs();
                let dy = (dst.y as i64 - src.y as i64).abs();
                let min_hops = dx / rf + dx % rf + dy / rf + dy % rf + 1;
                assert_eq!(hops(&cfg, s, d) as i64, min_hops, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn ruche_one_parity_balancing() {
        let cfg = NetworkConfig::ruche_one(Dims::new(8, 8));
        // Even total distance: entire path on ruche plane.
        let path = dirs(&cfg, (1, 1), (3, 3));
        assert!(
            path[..path.len() - 1].iter().all(|d| d.is_ruche()),
            "{path:?}"
        );
        // Odd total distance: entire path on local plane.
        let path = dirs(&cfg, (1, 1), (3, 4));
        assert!(
            path[..path.len() - 1].iter().all(|d| !d.is_ruche()),
            "{path:?}"
        );
        // Hop count equals mesh hop count either way.
        assert_eq!(hops(&cfg, (0, 0), (5, 5)), 11);
    }

    #[test]
    fn torus_takes_shortest_ring_direction() {
        let cfg = NetworkConfig::torus(Dims::new(8, 8));
        // Logical ring distance between physical 0 (l=0) and physical 1
        // (l=7) is 1 going ring-: one hop.
        assert_eq!(hops(&cfg, (0, 0), (1, 0)), 2);
        // Physical 0 to physical 6 (l=3): 3 hops ring+.
        assert_eq!(hops(&cfg, (0, 0), (6, 0)), 4);
        // Torus diameter is half the mesh's: max ring hops = k/2 per axis.
        let mesh = NetworkConfig::mesh(Dims::new(8, 8));
        assert_eq!(cfg.diameter_hops(), 4 + 4 + 1);
        assert_eq!(mesh.diameter_hops(), 7 + 7 + 1);
    }

    #[test]
    fn torus_nearest_physical_tile_is_logically_far() {
        // The paper's Jacobi pathology (§4.6): folded torus skips every
        // other tile, so some physically-adjacent tiles are ~k/2 ring hops
        // apart, and it worsens with size.
        for k in [8u16, 16, 32] {
            let cfg = NetworkConfig::torus(Dims::new(k, k));
            let worst = (0..k - 1)
                .map(|x| hops(&cfg, (x, 0), (x + 1, 0)))
                .max()
                .expect("torus rings have at least one neighbor pair");
            assert!(
                worst >= (k / 2 - 1) as u32,
                "k={k}: worst neighbor distance {worst}"
            );
        }
    }

    #[test]
    fn torus_dateline_vc_switch() {
        let cfg = NetworkConfig::torus(Dims::new(8, 8));
        // A route that wraps: physical 6 is logical 3; physical 1 is
        // logical 7; ring+ distance 4 (tie -> bwd since ld odd... fwd=4
        // bwd=4, ld=7 odd -> ring-). Check some route crosses the dateline
        // and switches to VC 1, and VCs never go 1 -> 0 within a ring.
        let mut saw_vc1 = false;
        for s in 0..8u16 {
            for d in 0..8u16 {
                if s == d {
                    continue;
                }
                let src = Coord::new(s, 0);
                let dst = Dest::tile(Coord::new(d, 0));
                let mut here = src;
                let mut in_dir = Dir::P;
                let mut vc = 0u8;
                let mut prev_vc = 0u8;
                loop {
                    let dec = compute_route(&cfg, here, in_dir, vc, dst);
                    if dec.out == Dir::P {
                        break;
                    }
                    if in_dir != Dir::P {
                        assert!(dec.out_vc >= prev_vc, "VC went backwards in ring");
                    }
                    if dec.out_vc == 1 {
                        saw_vc1 = true;
                    }
                    prev_vc = dec.out_vc;
                    here = cfg
                        .neighbor(here, dec.out)
                        .expect("route decisions follow wired links");
                    in_dir = dec.out.opposite();
                    vc = dec.out_vc;
                }
            }
        }
        assert!(saw_vc1, "some X-ring route must cross the dateline");
    }

    #[test]
    fn half_torus_y_is_plain_mesh() {
        let cfg = NetworkConfig::half_torus(Dims::new(8, 8));
        // Pure-Y route: plain DOR, VC 0 everywhere.
        let path = walk_route(&cfg, Coord::new(3, 0), Dest::tile(Coord::new(3, 5)));
        assert_eq!(path.len(), 6);
        assert!(path.iter().take(5).all(|&(_, d)| d == Dir::S));
    }

    #[test]
    fn edge_destinations_route_to_the_edge() {
        let cfg = NetworkConfig::mesh(Dims::new(8, 4)).with_edge_memory_ports();
        let path = walk_route(&cfg, Coord::new(2, 2), Dest::north_edge(5));
        // X first to column 5, then Y to row 0, then exit N.
        assert_eq!(
            path.last().expect("route is non-empty"),
            &(Coord::new(5, 0), Dir::N)
        );
        assert_eq!(path.len(), 3 + 2 + 1);
        let path = walk_route(&cfg, Coord::new(2, 2), Dest::south_edge(2, 4));
        assert_eq!(
            path.last().expect("route is non-empty"),
            &(Coord::new(2, 3), Dir::S)
        );
    }

    #[test]
    fn edge_entry_positions() {
        let dims = Dims::new(8, 4);
        assert_eq!(
            edge_entry(dims, EdgePort::North, 3),
            (Coord::new(3, 0), Dir::N)
        );
        assert_eq!(
            edge_entry(dims, EdgePort::South, 3),
            (Coord::new(3, 3), Dir::S)
        );
    }

    #[test]
    fn half_ruche_yx_uses_local_first_on_x() {
        // Response-network pattern: YX order on a Half Ruche (X) network.
        let cfg = NetworkConfig::half_ruche(Dims::new(16, 8), 3, FullyPopulated)
            .with_dor(crate::topology::DorOrder::YX);
        // dy=2, dx=6: Y locals first, then X local-first: with pop, dx ≡ 0
        // (mod 3) boards ruche straight from the turn.
        assert_eq!(
            dirs(&cfg, (0, 0), (6, 2)),
            vec![Dir::S, Dir::S, Dir::RE, Dir::RE, Dir::P]
        );
    }

    #[test]
    fn all_pairs_terminate_on_every_topology() {
        let dims = Dims::new(7, 5); // non-power-of-two, rectangular
        let cfgs = vec![
            NetworkConfig::mesh(dims),
            NetworkConfig::multi_mesh(dims),
            NetworkConfig::torus(dims),
            NetworkConfig::half_torus(dims),
            NetworkConfig::ruche_one(dims),
            NetworkConfig::full_ruche(dims, 2, FullyPopulated),
            NetworkConfig::full_ruche(dims, 2, Depopulated),
            NetworkConfig::full_ruche(dims, 3, FullyPopulated),
            NetworkConfig::full_ruche(dims, 3, Depopulated),
            NetworkConfig::half_ruche(dims, 3, Depopulated),
        ];
        for cfg in cfgs {
            cfg.validate().expect("paper-grid config is valid");
            for s in dims.iter() {
                for d in dims.iter() {
                    let path = walk_route(&cfg, s, Dest::tile(d));
                    assert_eq!(
                        path.last().expect("route is non-empty").1,
                        Dir::P,
                        "{} {s}->{d}",
                        cfg.label()
                    );
                }
            }
        }
    }

    #[test]
    fn mean_hops_decrease_with_ruche_factor() {
        let dims = Dims::new(16, 16);
        let mesh = mean_route_hops(&NetworkConfig::mesh(dims));
        let r2 = mean_route_hops(&NetworkConfig::full_ruche(dims, 2, FullyPopulated));
        let r3 = mean_route_hops(&NetworkConfig::full_ruche(dims, 3, FullyPopulated));
        assert!(r2 < mesh, "ruche2 {r2} < mesh {mesh}");
        assert!(r3 < r2, "ruche3 {r3} < ruche2 {r2}");
    }

    /// Small arrays in every edge-traffic direction, plus the probe
    /// networks the crossbar derivation walks (RF >= 3, 16x16 or larger).
    fn enumeration_configs() -> Vec<NetworkConfig> {
        let small = NetworkConfig::mesh(Dims::new(4, 3));
        let mut both = small.clone().with_edge_memory_ports();
        both.edge_bidirectional = true;
        let mut cfgs = vec![
            small.clone(),
            small.clone().with_edge_memory_ports(),
            small.with_edge_memory_ports().with_dor(DorOrder::YX),
            both,
        ];
        let dims = Dims::new(8, 8);
        for cfg in [
            NetworkConfig::full_ruche(dims, 2, FullyPopulated),
            NetworkConfig::half_ruche(dims, 3, Depopulated).with_edge_memory_ports(),
            NetworkConfig::half_ruche(dims, 3, Depopulated)
                .with_edge_memory_ports()
                .with_dor(DorOrder::YX),
        ] {
            let probe = crate::crossbar::probe_config(&cfg);
            assert!(probe.dims.cols >= 16 && probe.dims.rows >= 16);
            assert!(probe.topology.ruche_factor() >= 3);
            cfgs.push(probe);
        }
        cfgs
    }

    #[test]
    fn destination_groups_number_every_route_once() {
        for cfg in enumeration_configs() {
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

    /// The memoized walk ends every route exactly once, with the length
    /// a plain `trace` of that route finds, and expands each state at most
    /// once per destination.
    #[test]
    fn walk_lengths_match_trace() {
        for cfg in enumeration_configs().into_iter().take(4).chain([
            NetworkConfig::torus(Dims::new(5, 4)),
            NetworkConfig::full_ruche(Dims::new(7, 5), 3, Depopulated),
        ]) {
            let decide =
                |here, in_dir, in_vc, dest| Ok(compute_route(&cfg, here, in_dir, in_vc, dest));
            let cases = Cases::new(&cfg);
            let mut lengths = vec![None; cases.count()];
            let mut expanded = std::collections::BTreeSet::new();
            cases.walk(decide, |visit| match visit {
                Visit::State { route, step, .. } => {
                    let at = dense_index(cfg.dims, step.here, step.in_dir, step.in_vc);
                    let to = (
                        route.dest.coord.x,
                        route.dest.coord.y,
                        route.dest.exit_dir(),
                    );
                    assert!(
                        expanded.insert((at, to.0, to.1, to.2 as u8)),
                        "{step:?} twice"
                    );
                }
                Visit::Route {
                    number,
                    route,
                    length,
                } => {
                    assert!(lengths[number].replace((route, length)).is_none());
                }
            });
            for (route, length) in lengths.into_iter().map(|l| l.expect("every route ends")) {
                let steps = trace(&cfg, route, decide).expect("DOR routes terminate");
                assert_eq!(length, Some(steps.len() as u32), "{} {route}", cfg.label());
            }
        }
    }
}
