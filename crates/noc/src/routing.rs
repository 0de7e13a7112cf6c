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

use crate::geometry::{Axis, Coord, Dims, Dir};
use crate::topology::{fold_logical, CrossbarScheme, NetworkConfig, TopologyKind};
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

/// Why a route walk failed (see [`try_walk_route_from`]).
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

/// Walks the full route of a packet from `src` to `dest`, returning every
/// (router, output port) traversal including the final ejection.
///
/// # Panics
///
/// Panics if the route does not terminate within
/// [`NetworkConfig::max_route_hops`] hops — which would be a routing bug
/// (the test suite property-checks this). Use [`try_walk_route`] for the
/// non-panicking variant the static verifier builds on.
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
    match try_walk_route_from(cfg, src, entry_dir, dest) {
        Ok(path) => path,
        Err(e) => panic!("route from {src} to {dest}: {e}"),
    }
}

/// Non-panicking [`walk_route`]: returns the path, or the reason the route
/// is broken. This is the walker the `ruche-verify` static checker drives.
pub fn try_walk_route(
    cfg: &NetworkConfig,
    src: Coord,
    dest: Dest,
) -> Result<Vec<PathStep>, RouteError> {
    try_walk_route_from(cfg, src, Dir::P, dest)
}

/// Non-panicking [`walk_route_from`].
///
/// # Errors
///
/// Returns [`RouteError::LeftArray`] if the routing function emits an
/// output with no link behind it, or [`RouteError::HopLimit`] if the walk
/// exceeds [`NetworkConfig::max_route_hops`] without ejecting.
pub fn try_walk_route_from(
    cfg: &NetworkConfig,
    src: Coord,
    entry_dir: Dir,
    dest: Dest,
) -> Result<Vec<PathStep>, RouteError> {
    let mut here = src;
    let mut in_dir = entry_dir;
    let mut vc = 0u8;
    let mut path = Vec::new();
    let limit = cfg.max_route_hops();
    loop {
        let dec = compute_route(cfg, here, in_dir, vc, dest);
        path.push((here, dec.out));
        if here == dest.coord && dec.out == dest.exit_dir() {
            let is_edge_exit = dest.edge.is_some();
            if dec.out == Dir::P || is_edge_exit {
                break;
            }
        }
        let next = cfg.neighbor(here, dec.out).ok_or(RouteError::LeftArray {
            at: here,
            out: dec.out,
        })?;
        in_dir = dec.out.opposite();
        vc = dec.out_vc;
        here = next;
        if path.len() > limit {
            return Err(RouteError::HopLimit { limit });
        }
    }
    Ok(path)
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
}
