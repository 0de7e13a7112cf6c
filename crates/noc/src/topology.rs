//! Network topologies, their port maps, link tables, and static analytics.
//!
//! The four simulated topology families are the ones the paper evaluates:
//!
//! * **2-D mesh** — the baseline.
//! * **2× multi-mesh** — two parallel meshes sharing injection (Figure 3a).
//! * **Folded 2-D torus** — full (both axes) or *half-torus* (X axis only).
//!   Folded torus links are modeled in *physical* coordinates: every ring
//!   link spans two tiles except at the fold ends, which is what makes
//!   physically-adjacent tiles logically distant (the paper's Jacobi
//!   pathology, §4.6).
//! * **Ruche networks** — mesh plus equidistant long-range channels of skip
//!   distance `RF` (the *Ruche Factor*) on one axis (*Half Ruche*) or both
//!   (*Full Ruche*). `RF = 1` is *Ruche-One*: two parallel meshes with
//!   parity-balanced routing (Figure 1f).

use crate::geometry::{Axes, Axis, Coord, Dims, Dir};
use std::fmt;

/// Topology family of a network instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Plain 2-D mesh.
    Mesh,
    /// Two parallel 2-D meshes; injections pick a mesh by Manhattan-distance
    /// parity (Figure 3a and §4.2).
    MultiMesh,
    /// Folded 2-D torus with wraparound rings on `axes`; deadlock freedom
    /// via 2 VCs and dateline partitioning (Dally & Seitz).
    Torus {
        /// Which axes carry torus rings (X only = the paper's half-torus).
        axes: Axes,
    },
    /// Ruche network: mesh plus long-range channels of skip `rf` on `axes`.
    Ruche {
        /// The Ruche Factor (skip distance of Ruche channels), ≥ 1.
        rf: u16,
        /// Which axes carry Ruche channels (X only = Half Ruche).
        axes: Axes,
    },
}

impl TopologyKind {
    /// Short configuration name used in reports (matches the paper's labels,
    /// modulo the crossbar scheme suffix added by [`NetworkConfig::label`]).
    pub fn name(self) -> String {
        match self {
            TopologyKind::Mesh => "mesh".to_string(),
            TopologyKind::MultiMesh => "multi-mesh".to_string(),
            TopologyKind::Torus { axes: Axes::Both } => "torus".to_string(),
            TopologyKind::Torus { .. } => "half-torus".to_string(),
            TopologyKind::Ruche {
                rf,
                axes: Axes::Both,
            } => format!("ruche{rf}"),
            TopologyKind::Ruche { rf, .. } => format!("half-ruche{rf}"),
        }
    }

    /// The Ruche Factor, or 0 for non-Ruche topologies.
    pub fn ruche_factor(self) -> u16 {
        match self {
            TopologyKind::Ruche { rf, .. } => rf,
            _ => 0,
        }
    }

    /// Axes that carry long-range channels (Ruche or torus wrap links).
    pub fn long_range_axes(self) -> Option<Axes> {
        match self {
            TopologyKind::Mesh | TopologyKind::MultiMesh => None,
            TopologyKind::Torus { axes } | TopologyKind::Ruche { axes, .. } => Some(axes),
        }
    }
}

/// Crossbar population scheme for Ruche routers (Figure 4/5).
///
/// Fully-populated routers allow direct turns from Ruche inputs into the
/// second dimension; depopulated routers force packets off the Ruche links
/// onto local links before turning (or ejecting), trading a little latency
/// for a 40% smaller crossbar (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossbarScheme {
    /// All turns allowed straight off the Ruche links ("pop").
    FullyPopulated,
    /// Turns only from local links ("depop").
    Depopulated,
}

impl CrossbarScheme {
    /// The paper's short label.
    pub fn label(self) -> &'static str {
        match self {
            CrossbarScheme::FullyPopulated => "pop",
            CrossbarScheme::Depopulated => "depop",
        }
    }
}

/// Dimension-ordered-routing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DorOrder {
    /// Route X first, then Y (the paper's default; request traffic).
    XY,
    /// Route Y first, then X (response traffic in the manycore, §4).
    YX,
}

impl DorOrder {
    /// The first-routed axis.
    pub fn first(self) -> Axis {
        match self {
            DorOrder::XY => Axis::X,
            DorOrder::YX => Axis::Y,
        }
    }

    /// The second-routed axis.
    pub fn second(self) -> Axis {
        self.first().other()
    }
}

/// How the simulation clock advances between interesting cycles.
///
/// There is one production path: [`Network::run`](crate::sim::Network::run)
/// and [`Network::fast_forward`](crate::sim::Network::fast_forward) jump
/// the clock across spans in which the network provably does nothing
/// (`Network::next_event_cycle`), paying O(1) per span instead of O(span).
/// The skip is exact, so results are byte-identical to calling
/// `Network::step` every cycle, which stays as the test oracle
/// (`tests/step_mode_determinism.rs`; see `docs/EVENTS.md`).
///
/// The type survives only as the value of `Network::step_mode()`, which
/// the benchmark harness records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepMode {
    /// Fast-forward across provably quiescent spans.
    EventDriven,
}

impl StepMode {
    /// The mode's short name, as benchmark records print it.
    pub fn name(self) -> &'static str {
        match self {
            StepMode::EventDriven => "event",
        }
    }
}

/// Errors produced by [`NetworkConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Ruche factor of zero is meaningless.
    ZeroRucheFactor,
    /// Ruche-One (`rf == 1`) requires a fully-populated crossbar (§3.2).
    RucheOneNeedsFullyPopulated,
    /// The Ruche factor must leave room for at least one Ruche link.
    RucheFactorTooLarge {
        /// Offending axis.
        axis: Axis,
        /// Axis extent.
        extent: u16,
        /// Configured Ruche factor.
        rf: u16,
    },
    /// Torus rings need at least three nodes for the folded layout and
    /// dateline scheme to be meaningful.
    TorusRingTooShort {
        /// Offending axis.
        axis: Axis,
        /// Axis extent.
        extent: u16,
    },
    /// Edge memory ports require a mesh-like (non-wraparound) Y axis.
    EdgePortsNeedOpenYAxis,
    /// Input FIFOs must hold at least one flit.
    ZeroFifoDepth,
    /// Input FIFOs hold at most [`NetworkConfig::MAX_FIFO_DEPTH`] flits.
    FifoTooDeep {
        /// Configured depth.
        depth: usize,
    },
    /// A 1×1 array has no channels to route over; the analytics (mean
    /// hop counts, bisection ratios) are undefined on it. Degenerate
    /// *lines* (1×N / N×1) are supported; a single tile is not.
    SingleTile,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRucheFactor => write!(f, "ruche factor must be at least 1"),
            ConfigError::RucheOneNeedsFullyPopulated => {
                write!(
                    f,
                    "ruche-one (RF = 1) works only on fully-populated routers"
                )
            }
            ConfigError::RucheFactorTooLarge { axis, extent, rf } => write!(
                f,
                "ruche factor {rf} leaves no links on {axis:?} axis of extent {extent}"
            ),
            ConfigError::TorusRingTooShort { axis, extent } => write!(
                f,
                "torus ring on {axis:?} axis needs at least 3 nodes, got {extent}"
            ),
            ConfigError::EdgePortsNeedOpenYAxis => {
                write!(f, "north/south edge ports require a non-wraparound Y axis")
            }
            ConfigError::ZeroFifoDepth => write!(f, "input FIFO depth must be at least 1"),
            ConfigError::FifoTooDeep { depth } => write!(
                f,
                "input FIFO depth {depth} exceeds the maximum of {}",
                NetworkConfig::MAX_FIFO_DEPTH
            ),
            ConfigError::SingleTile => {
                write!(f, "a network needs at least two tiles (got a 1x1 array)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full static description of a network instance.
///
/// # Examples
///
/// ```
/// use ruche_noc::prelude::*;
///
/// let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::Depopulated);
/// assert_eq!(cfg.label(), "ruche2-depop");
/// cfg.validate()?;
/// # Ok::<(), ruche_noc::topology::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Array dimensions (columns × rows).
    pub dims: Dims,
    /// Topology family.
    pub topology: TopologyKind,
    /// Crossbar population scheme (meaningful for Ruche; others ignore it).
    pub scheme: CrossbarScheme,
    /// Dimension order for routing.
    pub dor: DorOrder,
    /// Input FIFO depth in flits (per VC for torus routers). The paper's
    /// default is minimally-buffered two-element FIFOs.
    pub fifo_depth: usize,
    /// Channel width in bits (used by the physical models; the flit-level
    /// simulator is width-agnostic).
    pub channel_width_bits: u32,
    /// Attach memory endpoints to the free N ports of row 0 and S ports of
    /// the last row (the paper's all-to-edge manycore arrangement, §4).
    pub edge_memory_ports: bool,
    /// Extra pipeline stages per hop (0 = the paper's single-cycle
    /// routers). §3.2 argues VC routers must pipeline to reach competitive
    /// cycle times, which hurts hop latency *and* throughput through the
    /// lengthened credit loop — set this on a torus configuration to
    /// reproduce that effect (see the `ablations` bench).
    pub pipeline_stages: u32,
    /// Implement edge-router crossbar turns for *both* traffic directions
    /// (to-edge and from-edge). By default each network's crossbar only
    /// carries the direction its DOR order implies (requests X-Y to the
    /// edges, responses Y-X from them, §4); a response network routed X-Y
    /// needs the extra turns — used by the DOR-order ablation.
    pub edge_bidirectional: bool,
}

impl NetworkConfig {
    /// Default FIFO depth (two-element, §3.2).
    pub const DEFAULT_FIFO_DEPTH: usize = 2;
    /// Largest accepted input-FIFO depth: the engine keeps each FIFO's
    /// head and length in a byte.
    pub const MAX_FIFO_DEPTH: usize = u8::MAX as usize;
    /// Default channel width used throughout the paper's area study.
    pub const DEFAULT_CHANNEL_BITS: u32 = 128;

    /// Starts a [`NetworkConfigBuilder`] with paper defaults for a given
    /// topology. Prefer this over field twiddling: the builder's
    /// [`build`](NetworkConfigBuilder::build) validates eagerly, so a bad
    /// combination fails where it is written, not when a `Network` is
    /// constructed from it later.
    pub fn builder(dims: Dims, topology: TopologyKind) -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            cfg: NetworkConfig {
                dims,
                topology,
                scheme: CrossbarScheme::Depopulated,
                dor: DorOrder::XY,
                fifo_depth: Self::DEFAULT_FIFO_DEPTH,
                channel_width_bits: Self::DEFAULT_CHANNEL_BITS,
                edge_memory_ports: false,
                pipeline_stages: 0,
                edge_bidirectional: false,
            },
        }
    }

    /// Base configuration with paper defaults for a given topology.
    ///
    /// Infallible and unvalidated — [`NetworkConfig::validate`] (or the
    /// builder path) decides whether the combination is legal.
    pub fn new(dims: Dims, topology: TopologyKind) -> Self {
        Self::builder(dims, topology).build_unvalidated()
    }

    /// Plain 2-D mesh.
    pub fn mesh(dims: Dims) -> Self {
        Self::new(dims, TopologyKind::Mesh)
    }

    /// 2× multi-mesh.
    pub fn multi_mesh(dims: Dims) -> Self {
        Self::new(dims, TopologyKind::MultiMesh)
    }

    /// Full (both-axes) folded torus.
    pub fn torus(dims: Dims) -> Self {
        Self::new(dims, TopologyKind::Torus { axes: Axes::Both })
    }

    /// Half-torus: folded torus rings on the X axis only.
    pub fn half_torus(dims: Dims) -> Self {
        Self::new(dims, TopologyKind::Torus { axes: Axes::X })
    }

    /// Full Ruche with the given Ruche Factor and crossbar scheme.
    pub fn full_ruche(dims: Dims, rf: u16, scheme: CrossbarScheme) -> Self {
        Self::builder(
            dims,
            TopologyKind::Ruche {
                rf,
                axes: Axes::Both,
            },
        )
        .scheme(scheme)
        .build_unvalidated()
    }

    /// Half Ruche (X-axis Ruche channels) with the given factor and scheme.
    pub fn half_ruche(dims: Dims, rf: u16, scheme: CrossbarScheme) -> Self {
        Self::builder(dims, TopologyKind::Ruche { rf, axes: Axes::X })
            .scheme(scheme)
            .build_unvalidated()
    }

    /// Ruche-One: `RF = 1`, fully populated, parity-balanced routing.
    pub fn ruche_one(dims: Dims) -> Self {
        Self::full_ruche(dims, 1, CrossbarScheme::FullyPopulated)
    }

    /// Sets the DOR order (builder style).
    pub fn with_dor(self, dor: DorOrder) -> Self {
        NetworkConfigBuilder::from(self)
            .dor(dor)
            .build_unvalidated()
    }

    /// Enables edge memory endpoints (builder style).
    pub fn with_edge_memory_ports(self) -> Self {
        NetworkConfigBuilder::from(self)
            .edge_memory_ports(true)
            .build_unvalidated()
    }

    /// Sets the input FIFO depth (builder style).
    pub fn with_fifo_depth(self, depth: usize) -> Self {
        NetworkConfigBuilder::from(self)
            .fifo_depth(depth)
            .build_unvalidated()
    }

    /// Sets extra per-hop pipeline stages (builder style).
    pub fn with_pipeline_stages(self, stages: u32) -> Self {
        NetworkConfigBuilder::from(self)
            .pipeline_stages(stages)
            .build_unvalidated()
    }

    /// Report label in the paper's style, e.g. `ruche2-depop`, `torus`.
    pub fn label(&self) -> String {
        match self.topology {
            TopologyKind::Ruche { rf, .. } if rf > 1 => {
                format!("{}-{}", self.topology.name(), self.scheme.label())
            }
            TopologyKind::Ruche { .. } => format!("{}-pop", self.topology.name()),
            _ => self.topology.name(),
        }
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fifo_depth == 0 {
            return Err(ConfigError::ZeroFifoDepth);
        }
        if self.fifo_depth > Self::MAX_FIFO_DEPTH {
            return Err(ConfigError::FifoTooDeep {
                depth: self.fifo_depth,
            });
        }
        if self.dims.count() < 2 {
            return Err(ConfigError::SingleTile);
        }
        match self.topology {
            TopologyKind::Ruche { rf, axes } => {
                if rf == 0 {
                    return Err(ConfigError::ZeroRucheFactor);
                }
                if rf == 1 && self.scheme != CrossbarScheme::FullyPopulated {
                    return Err(ConfigError::RucheOneNeedsFullyPopulated);
                }
                for axis in [Axis::X, Axis::Y] {
                    if axes.includes(axis) {
                        let extent = self.extent(axis);
                        if rf >= extent {
                            return Err(ConfigError::RucheFactorTooLarge { axis, extent, rf });
                        }
                    }
                }
            }
            TopologyKind::Torus { axes } => {
                for axis in [Axis::X, Axis::Y] {
                    if axes.includes(axis) {
                        let extent = self.extent(axis);
                        if extent < 3 {
                            return Err(ConfigError::TorusRingTooShort { axis, extent });
                        }
                    }
                }
                if self.edge_memory_ports && axes.includes(Axis::Y) {
                    return Err(ConfigError::EdgePortsNeedOpenYAxis);
                }
            }
            TopologyKind::Mesh | TopologyKind::MultiMesh => {}
        }
        Ok(())
    }

    /// Array extent along `axis`.
    pub fn extent(&self, axis: Axis) -> u16 {
        match axis {
            Axis::X => self.dims.cols,
            Axis::Y => self.dims.rows,
        }
    }

    /// Whether `axis` has wraparound torus rings.
    pub fn torus_axis(&self, axis: Axis) -> bool {
        matches!(self.topology, TopologyKind::Torus { axes } if axes.includes(axis))
    }

    /// Whether `axis` carries Ruche channels.
    pub fn ruche_axis(&self, axis: Axis) -> bool {
        matches!(self.topology, TopologyKind::Ruche { axes, .. } if axes.includes(axis))
    }

    /// The router port directions for this topology, canonical order.
    ///
    /// Input and output port sets are identical (every channel is paired).
    pub fn ports(&self) -> Vec<Dir> {
        let mut ports = vec![Dir::P, Dir::N, Dir::S, Dir::E, Dir::W];
        match self.topology {
            TopologyKind::Mesh | TopologyKind::Torus { .. } => {}
            TopologyKind::MultiMesh => {
                ports.extend([Dir::N2, Dir::S2, Dir::E2, Dir::W2]);
            }
            TopologyKind::Ruche { axes, .. } => {
                if axes.includes(Axis::Y) {
                    ports.extend([Dir::RN, Dir::RS]);
                }
                if axes.includes(Axis::X) {
                    ports.extend([Dir::RE, Dir::RW]);
                }
            }
        }
        ports
    }

    /// Number of virtual channels on a given port.
    ///
    /// Torus routers carry 2 VCs (dateline partitioning) on ring-axis ports;
    /// every other port and every other router is wormhole (1 VC). This
    /// matches the paper's capacity accounting: a Full Ruche router and a
    /// 2-VC torus router hold the same total number of flit slots (§3.1).
    pub fn vcs(&self, port: Dir) -> usize {
        match (self.topology, port.axis()) {
            (TopologyKind::Torus { axes }, Some(axis)) if axes.includes(axis) => 2,
            _ => 1,
        }
    }

    /// Whether this network uses the VC-router microarchitecture.
    pub fn is_vc_router(&self) -> bool {
        matches!(self.topology, TopologyKind::Torus { .. })
    }

    /// The neighbor reached through output `dir` of router `at`, or `None`
    /// if that output is unconnected (array edge, or a direction this
    /// topology does not have).
    ///
    /// Folded-torus ring links are returned in physical coordinates: the
    /// ring successor of a node is two tiles away except at the fold ends.
    pub fn neighbor(&self, at: Coord, dir: Dir) -> Option<Coord> {
        let axis = dir.axis()?;
        match self.topology {
            TopologyKind::Torus { axes } if axes.includes(axis) && !dir.is_ruche() => {
                // Ring link in the folded layout. `E`/`S` step to the next
                // logical ring position, `W`/`N` to the previous.
                let extent = self.extent(axis);
                let pos = match axis {
                    Axis::X => at.x,
                    Axis::Y => at.y,
                };
                let l = fold_logical(pos, extent);
                let next = match dir {
                    Dir::E | Dir::S => (l + 1) % extent,
                    Dir::W | Dir::N => (l + extent - 1) % extent,
                    _ => return None,
                };
                let p = fold_physical(next, extent);
                Some(match axis {
                    Axis::X => Coord::new(p, at.y),
                    Axis::Y => Coord::new(at.x, p),
                })
            }
            TopologyKind::Ruche { rf, axes } => {
                if dir.is_second_mesh() {
                    return None;
                }
                if dir.is_ruche() && !axes.includes(axis) {
                    return None;
                }
                let (dx, dy) = dir.displacement(rf);
                at.offset(dx, dy, self.dims)
            }
            TopologyKind::MultiMesh => {
                if dir.is_ruche() {
                    return None;
                }
                let (dx, dy) = dir.displacement(0);
                at.offset(dx, dy, self.dims)
            }
            _ => {
                if dir.is_ruche() || dir.is_second_mesh() {
                    return None;
                }
                let (dx, dy) = dir.displacement(0);
                at.offset(dx, dy, self.dims)
            }
        }
    }

    /// Unidirectional channels crossing the vertical mid-cut (the
    /// *horizontal bisection bandwidth* of Table 4, in channels).
    pub fn horizontal_bisection_channels(&self) -> u32 {
        self.bisection_channels(Axis::X)
    }

    /// Unidirectional channels crossing the horizontal mid-cut.
    pub fn vertical_bisection_channels(&self) -> u32 {
        self.bisection_channels(Axis::Y)
    }

    /// Counts unidirectional channels that cross the mid-cut perpendicular
    /// to `axis`, by enumerating every link in the network.
    pub fn bisection_channels(&self, axis: Axis) -> u32 {
        let cut = self.extent(axis) / 2; // cut between `cut - 1` and `cut`
        let before = |c: Coord| match axis {
            Axis::X => c.x < cut,
            Axis::Y => c.y < cut,
        };
        let mut count = 0;
        for at in self.dims.iter() {
            for dir in self.ports() {
                if dir == Dir::P {
                    continue;
                }
                if let Some(to) = self.neighbor(at, dir) {
                    if before(at) != before(to) {
                        count += 1; // each (router, output) is one channel
                    }
                }
            }
        }
        count
    }

    /// Memory-tile bandwidth in channels: one channel per edge port per
    /// direction, i.e. `2 × cols` ports accepting one packet per cycle
    /// (Table 4's "Memory Tile BW" column counts one direction: `2 × cols`).
    pub fn memory_tile_bandwidth(&self) -> u32 {
        2 * self.dims.cols as u32
    }

    /// Endpoint count: one per tile, plus `2 × cols` edge memory endpoints
    /// when [`NetworkConfig::edge_memory_ports`] is set.
    pub fn endpoint_count(&self) -> usize {
        self.dims.count()
            + if self.edge_memory_ports {
                2 * self.dims.cols as usize
            } else {
                0
            }
    }

    /// Hard upper bound on the hop count of any legal route — the
    /// termination bound shared by [`crate::routing::walk_route`] and the
    /// static verifier's totality lint. Every topology's worst route
    /// (including depopulated Ruche detours and folded-torus rings) fits
    /// comfortably under `4 × (cols + rows) + 8`.
    pub fn max_route_hops(&self) -> usize {
        4 * (self.dims.cols as usize + self.dims.rows as usize) + 8
    }

    /// Network diameter in hops (maximum over all tile pairs of the routed
    /// hop count), computed from the routing relation.
    pub fn diameter_hops(&self) -> u32 {
        let mut max = 0;
        for s in self.dims.iter() {
            for d in self.dims.iter() {
                let hops = crate::routing::route_hops(self, s, d);
                max = max.max(hops);
            }
        }
        max
    }
}

/// Eagerly-validated builder for [`NetworkConfig`] — the single
/// construction path behind every named constructor and `with_*` shim.
///
/// [`build`](NetworkConfigBuilder::build) runs [`NetworkConfig::validate`]
/// (the same check [`crate::sim::Network::new`] and the `ruche-verify`
/// lints use), so an inconsistent configuration fails at the construction
/// site with a typed [`ConfigError`].
///
/// # Examples
///
/// ```
/// use ruche_noc::prelude::*;
/// use ruche_noc::geometry::Axes;
///
/// let cfg = NetworkConfig::builder(
///     Dims::new(16, 8),
///     TopologyKind::Ruche { rf: 2, axes: Axes::X },
/// )
/// .scheme(CrossbarScheme::Depopulated)
/// .edge_memory_ports(true)
/// .build()?;
/// assert_eq!(cfg.label(), "half-ruche2-depop");
///
/// // An illegal combination fails at build time, not when the Network is
/// // instantiated much later.
/// let err = NetworkConfig::builder(
///     Dims::new(4, 4),
///     TopologyKind::Ruche { rf: 9, axes: Axes::Both },
/// )
/// .build()
/// .unwrap_err();
/// assert!(matches!(err, ruche_noc::topology::ConfigError::RucheFactorTooLarge { .. }));
/// # Ok::<(), ruche_noc::topology::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    cfg: NetworkConfig,
}

impl NetworkConfigBuilder {
    /// Sets the crossbar population scheme.
    pub fn scheme(mut self, scheme: CrossbarScheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the DOR order.
    pub fn dor(mut self, dor: DorOrder) -> Self {
        self.cfg.dor = dor;
        self
    }

    /// Sets the input FIFO depth in flits (per VC for torus routers).
    pub fn fifo_depth(mut self, depth: usize) -> Self {
        self.cfg.fifo_depth = depth;
        self
    }

    /// Sets the channel width in bits (physical models only).
    pub fn channel_width_bits(mut self, bits: u32) -> Self {
        self.cfg.channel_width_bits = bits;
        self
    }

    /// Attaches memory endpoints to the free N/S edge ports.
    pub fn edge_memory_ports(mut self, on: bool) -> Self {
        self.cfg.edge_memory_ports = on;
        self
    }

    /// Sets extra pipeline stages per hop.
    pub fn pipeline_stages(mut self, stages: u32) -> Self {
        self.cfg.pipeline_stages = stages;
        self
    }

    /// Implements edge-router crossbar turns for both traffic directions.
    pub fn edge_bidirectional(mut self, on: bool) -> Self {
        self.cfg.edge_bidirectional = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] for the first violated constraint, as
    /// [`NetworkConfig::validate`] would.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Returns the configuration without validating — the escape hatch the
    /// infallible legacy constructors use, and useful in tests that
    /// deliberately build broken configurations.
    pub fn build_unvalidated(self) -> NetworkConfig {
        self.cfg
    }
}

impl From<NetworkConfig> for NetworkConfigBuilder {
    /// Reopens an existing configuration for further tweaking.
    fn from(cfg: NetworkConfig) -> Self {
        NetworkConfigBuilder { cfg }
    }
}

/// Maps a physical position to its logical ring index in a folded torus of
/// `k` nodes.
///
/// The fold lays the ring `0 → 1 → … → k-1 → 0` out physically as
/// `0, 2, 4, …, 5, 3, 1`, so all links span two tiles except the two at the
/// fold ends.
pub fn fold_logical(phys: u16, k: u16) -> u16 {
    debug_assert!(phys < k);
    if phys.is_multiple_of(2) {
        phys / 2
    } else {
        k - 1 - (phys - 1) / 2
    }
}

/// Inverse of [`fold_logical`].
pub fn fold_physical(logical: u16, k: u16) -> u16 {
    debug_assert!(logical < k);
    let half = k.div_ceil(2);
    if logical < half {
        2 * logical
    } else {
        2 * (k - 1 - logical) + 1
    }
}

/// Physical distance (in tile pitches) spanned by one hop through `dir`.
///
/// Used by the energy model: Ruche channels span `rf` tiles; folded torus
/// links span 2 tiles (1 at the fold ends, but the model uses the common
/// case); local links span 1.
pub fn link_span_tiles(cfg: &NetworkConfig, dir: Dir) -> f64 {
    match dir {
        Dir::P => 0.0,
        d if d.is_ruche() => cfg.topology.ruche_factor() as f64,
        d => {
            if let Some(axis) = d.axis() {
                if cfg.torus_axis(axis) {
                    return 2.0;
                }
            }
            1.0
        }
    }
}

/// Qualitative topology rows of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurveyTopology {
    /// Ruche networks (this paper).
    Ruche,
    /// Folded 2-D torus.
    FoldedTorus,
    /// Plain 2-D mesh.
    Mesh,
    /// Multiple parallel meshes.
    MultiMesh,
    /// Flattened butterfly (Kim et al.).
    FlattenedButterfly,
    /// Multidrop express channels (Grot et al.).
    Mecs,
    /// Swizzle-switch high-radix crossbar fabric (Abeyratne et al.).
    SwizzleSwitch,
}

/// Physical-scalability criteria of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyProperties {
    /// Every tile has an identical shape that can be stamped out.
    pub regular_tile_shape: bool,
    /// Wire routing between tiles is local and regular.
    pub regular_wire_routing: bool,
    /// Router radix independent of network size.
    pub constant_router_radix: bool,
    /// Implementable with a standard-cell automated CAD flow.
    pub standard_cell_based: bool,
    /// Supports non-power-of-two array sizes.
    pub non_power_of_2_tiling: bool,
    /// Provides long-range (express) links.
    pub long_range_links: bool,
    /// Link physical distance independent of network size.
    pub constant_link_distance: bool,
}

impl SurveyTopology {
    /// Table 1 row for this topology.
    pub fn properties(self) -> TopologyProperties {
        use SurveyTopology::*;
        let row = |a, b, c, d, e, f, g| TopologyProperties {
            regular_tile_shape: a,
            regular_wire_routing: b,
            constant_router_radix: c,
            standard_cell_based: d,
            non_power_of_2_tiling: e,
            long_range_links: f,
            constant_link_distance: g,
        };
        match self {
            Ruche => row(true, true, true, true, true, true, true),
            FoldedTorus => row(true, true, true, true, true, true, true),
            Mesh => row(true, true, true, true, true, false, true),
            MultiMesh => row(true, true, true, true, true, false, true),
            FlattenedButterfly => row(false, false, false, true, false, true, false),
            Mecs => row(false, false, false, true, true, true, false),
            SwizzleSwitch => row(false, false, false, false, true, true, false),
        }
    }

    /// All Table 1 rows in paper order.
    pub const ALL: [SurveyTopology; 7] = [
        SurveyTopology::Ruche,
        SurveyTopology::FoldedTorus,
        SurveyTopology::Mesh,
        SurveyTopology::MultiMesh,
        SurveyTopology::FlattenedButterfly,
        SurveyTopology::Mecs,
        SurveyTopology::SwizzleSwitch,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SurveyTopology::Ruche => "Ruche",
            SurveyTopology::FoldedTorus => "2-D Folded Torus",
            SurveyTopology::Mesh => "2-D Mesh",
            SurveyTopology::MultiMesh => "Multi-mesh",
            SurveyTopology::FlattenedButterfly => "Flattened Butterfly",
            SurveyTopology::Mecs => "MECS",
            SurveyTopology::SwizzleSwitch => "Swizzle-Switch",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_roundtrip_even_and_odd() {
        for k in [3u16, 4, 7, 8, 16, 17] {
            for p in 0..k {
                assert_eq!(fold_physical(fold_logical(p, k), k), p, "k={k} p={p}");
            }
        }
    }

    #[test]
    fn fold_layout_k8_matches_paper_figure() {
        // Ring order visits physical positions 0,2,4,6,7,5,3,1.
        let order: Vec<u16> = (0..8).map(|l| fold_physical(l, 8)).collect();
        assert_eq!(order, vec![0, 2, 4, 6, 7, 5, 3, 1]);
    }

    #[test]
    fn folded_torus_links_span_two_tiles_except_ends() {
        for k in [8u16, 16] {
            let mut spans = vec![];
            for l in 0..k {
                let a = fold_physical(l, k);
                let b = fold_physical((l + 1) % k, k);
                spans.push(a.abs_diff(b));
            }
            assert_eq!(
                spans.iter().filter(|&&s| s == 1).count(),
                2,
                "two fold ends"
            );
            assert!(
                spans.iter().all(|&s| s <= 2),
                "no link spans more than 2 tiles"
            );
        }
    }

    #[test]
    fn mesh_ports_and_neighbors() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        assert_eq!(cfg.ports(), vec![Dir::P, Dir::N, Dir::S, Dir::E, Dir::W]);
        assert_eq!(
            cfg.neighbor(Coord::new(1, 1), Dir::E),
            Some(Coord::new(2, 1))
        );
        assert_eq!(cfg.neighbor(Coord::new(0, 0), Dir::W), None);
        assert_eq!(cfg.neighbor(Coord::new(0, 0), Dir::N), None);
        assert_eq!(cfg.neighbor(Coord::new(1, 1), Dir::RE), None);
    }

    #[test]
    fn ruche_ports_depend_on_axes() {
        let full = NetworkConfig::full_ruche(Dims::new(8, 8), 3, CrossbarScheme::FullyPopulated);
        assert_eq!(full.ports().len(), 9);
        let half = NetworkConfig::half_ruche(Dims::new(8, 8), 3, CrossbarScheme::FullyPopulated);
        assert_eq!(half.ports().len(), 7);
        assert!(half.ports().contains(&Dir::RE));
        assert!(!half.ports().contains(&Dir::RN));
    }

    #[test]
    fn ruche_neighbor_skips_rf_tiles() {
        let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 3, CrossbarScheme::FullyPopulated);
        assert_eq!(
            cfg.neighbor(Coord::new(1, 2), Dir::RE),
            Some(Coord::new(4, 2))
        );
        assert_eq!(cfg.neighbor(Coord::new(6, 2), Dir::RE), None);
        assert_eq!(
            cfg.neighbor(Coord::new(4, 4), Dir::RN),
            Some(Coord::new(4, 1))
        );
    }

    #[test]
    fn torus_ring_neighbors_follow_fold() {
        let cfg = NetworkConfig::torus(Dims::new(8, 8));
        // Physical x=0 is logical 0; its ring successor is logical 1 =
        // physical 2; its predecessor is logical 7 = physical 1.
        assert_eq!(
            cfg.neighbor(Coord::new(0, 3), Dir::E),
            Some(Coord::new(2, 3))
        );
        assert_eq!(
            cfg.neighbor(Coord::new(0, 3), Dir::W),
            Some(Coord::new(1, 3))
        );
        // Every node has all four ring neighbors (no open edges).
        for c in cfg.dims.iter() {
            for d in [Dir::N, Dir::S, Dir::E, Dir::W] {
                assert!(cfg.neighbor(c, d).is_some(), "{c} {d}");
            }
        }
    }

    #[test]
    fn half_torus_is_open_vertically() {
        let cfg = NetworkConfig::half_torus(Dims::new(8, 4));
        assert!(cfg.neighbor(Coord::new(3, 0), Dir::N).is_none());
        assert!(cfg.neighbor(Coord::new(0, 1), Dir::W).is_some());
        assert_eq!(cfg.vcs(Dir::E), 2);
        assert_eq!(cfg.vcs(Dir::N), 1);
        assert_eq!(cfg.vcs(Dir::P), 1);
    }

    #[test]
    fn torus_vc_capacity_matches_full_ruche() {
        // §3.1: VC and Full Ruche routers have the same input FIFO capacity.
        let torus = NetworkConfig::torus(Dims::new(8, 8));
        let ruche = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::FullyPopulated);
        let cap = |cfg: &NetworkConfig| -> usize {
            cfg.ports()
                .iter()
                .map(|&p| cfg.vcs(p) * cfg.fifo_depth)
                .sum()
        };
        assert_eq!(cap(&torus), cap(&ruche));
        // And half-torus matches half-ruche (the paper's §4.5 note).
        let ht = NetworkConfig::half_torus(Dims::new(16, 8));
        let hr = NetworkConfig::half_ruche(Dims::new(16, 8), 2, CrossbarScheme::Depopulated);
        assert_eq!(cap(&ht), cap(&hr));
    }

    #[test]
    fn table4_bisection_bandwidths() {
        // Table 4 rows: horizontal bisection channels (both directions).
        let cases: [(u16, u16, Option<u16>, u32, u32); 12] = [
            (16, 8, None, 16, 32),
            (16, 8, Some(2), 48, 32),
            (16, 8, Some(3), 64, 32),
            (32, 16, None, 32, 64),
            (32, 16, Some(2), 96, 64),
            (32, 16, Some(3), 128, 64),
            (64, 8, None, 16, 128),
            (64, 8, Some(2), 48, 128),
            (64, 8, Some(3), 64, 128),
            (32, 8, None, 16, 64),
            (32, 8, Some(2), 48, 64),
            (32, 8, Some(3), 64, 64),
        ];
        for (cols, rows, rf, bisect, mem) in cases {
            let cfg = match rf {
                None => NetworkConfig::mesh(Dims::new(cols, rows)),
                Some(rf) => NetworkConfig::half_ruche(
                    Dims::new(cols, rows),
                    rf,
                    CrossbarScheme::Depopulated,
                ),
            };
            assert_eq!(
                cfg.horizontal_bisection_channels(),
                bisect,
                "{}x{} rf={rf:?}",
                cols,
                rows
            );
            assert_eq!(cfg.memory_tile_bandwidth(), mem);
        }
    }

    #[test]
    fn torus_doubles_mesh_bisection() {
        let mesh = NetworkConfig::mesh(Dims::new(8, 8));
        let torus = NetworkConfig::torus(Dims::new(8, 8));
        assert_eq!(
            torus.horizontal_bisection_channels(),
            2 * mesh.horizontal_bisection_channels()
        );
        assert_eq!(
            torus.vertical_bisection_channels(),
            2 * mesh.vertical_bisection_channels()
        );
    }

    #[test]
    fn ruche_one_matches_torus_bisection() {
        // §4.1: ruche1-pop provides the same bisection bandwidth as torus.
        let r1 = NetworkConfig::ruche_one(Dims::new(8, 8));
        let torus = NetworkConfig::torus(Dims::new(8, 8));
        assert_eq!(
            r1.horizontal_bisection_channels(),
            torus.horizontal_bisection_channels()
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 1, CrossbarScheme::Depopulated);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::RucheOneNeedsFullyPopulated)
        );
        cfg.scheme = CrossbarScheme::FullyPopulated;
        assert!(cfg.validate().is_ok());

        let cfg = NetworkConfig::full_ruche(Dims::new(4, 4), 4, CrossbarScheme::FullyPopulated);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::RucheFactorTooLarge { .. })
        ));

        let cfg = NetworkConfig::torus(Dims::new(2, 8));
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TorusRingTooShort { .. })
        ));

        let cfg = NetworkConfig::torus(Dims::new(8, 8)).with_edge_memory_ports();
        assert_eq!(cfg.validate(), Err(ConfigError::EdgePortsNeedOpenYAxis));
        let cfg = NetworkConfig::half_torus(Dims::new(8, 8)).with_edge_memory_ports();
        assert!(cfg.validate().is_ok());

        let mut cfg = NetworkConfig::mesh(Dims::new(4, 4));
        cfg.fifo_depth = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroFifoDepth));
        cfg.fifo_depth = NetworkConfig::MAX_FIFO_DEPTH;
        assert!(cfg.validate().is_ok());
        cfg.fifo_depth = NetworkConfig::MAX_FIFO_DEPTH + 1;
        assert_eq!(cfg.validate(), Err(ConfigError::FifoTooDeep { depth: 256 }));
    }

    #[test]
    fn labels_match_paper_style() {
        let d = Dims::new(8, 8);
        assert_eq!(NetworkConfig::mesh(d).label(), "mesh");
        assert_eq!(NetworkConfig::torus(d).label(), "torus");
        assert_eq!(NetworkConfig::half_torus(d).label(), "half-torus");
        assert_eq!(NetworkConfig::multi_mesh(d).label(), "multi-mesh");
        assert_eq!(NetworkConfig::ruche_one(d).label(), "ruche1-pop");
        assert_eq!(
            NetworkConfig::full_ruche(d, 3, CrossbarScheme::Depopulated).label(),
            "ruche3-depop"
        );
        assert_eq!(
            NetworkConfig::half_ruche(d, 2, CrossbarScheme::FullyPopulated).label(),
            "half-ruche2-pop"
        );
    }

    #[test]
    fn table1_properties() {
        let ruche = SurveyTopology::Ruche.properties();
        assert!(ruche.long_range_links && ruche.constant_router_radix);
        let mesh = SurveyTopology::Mesh.properties();
        assert!(!mesh.long_range_links && mesh.constant_link_distance);
        let fb = SurveyTopology::FlattenedButterfly.properties();
        assert!(!fb.constant_router_radix && !fb.non_power_of_2_tiling);
        let mecs = SurveyTopology::Mecs.properties();
        assert!(mecs.non_power_of_2_tiling && !mecs.constant_link_distance);
    }

    #[test]
    fn link_spans_for_energy_model() {
        let ruche3 = NetworkConfig::full_ruche(Dims::new(8, 8), 3, CrossbarScheme::FullyPopulated);
        assert_eq!(link_span_tiles(&ruche3, Dir::RE), 3.0);
        assert_eq!(link_span_tiles(&ruche3, Dir::E), 1.0);
        let torus = NetworkConfig::torus(Dims::new(8, 8));
        assert_eq!(link_span_tiles(&torus, Dir::E), 2.0);
        let mesh = NetworkConfig::mesh(Dims::new(8, 8));
        assert_eq!(link_span_tiles(&mesh, Dir::E), 1.0);
        assert_eq!(link_span_tiles(&mesh, Dir::P), 0.0);
    }

    #[test]
    fn pipeline_stages_builder_and_default() {
        let cfg = NetworkConfig::torus(Dims::new(8, 8));
        assert_eq!(
            cfg.pipeline_stages, 0,
            "paper default: single cycle per hop"
        );
        let piped = cfg.with_pipeline_stages(2);
        assert_eq!(piped.pipeline_stages, 2);
        assert!(piped.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let cfg = NetworkConfig::half_ruche(Dims::new(16, 8), 3, CrossbarScheme::FullyPopulated)
            .with_edge_memory_ports()
            .with_pipeline_stages(1)
            .with_fifo_depth(4)
            .with_dor(DorOrder::YX);
        assert!(cfg.edge_memory_ports);
        assert_eq!(cfg.pipeline_stages, 1);
        assert_eq!(cfg.fifo_depth, 4);
        assert_eq!(cfg.dor, DorOrder::YX);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_validates_eagerly() {
        // Every eager ConfigError is reachable from the builder.
        let b = |dims, topo| NetworkConfig::builder(dims, topo);
        let ruche = |rf| TopologyKind::Ruche {
            rf,
            axes: Axes::Both,
        };
        assert_eq!(
            b(Dims::new(8, 8), ruche(0)).build(),
            Err(ConfigError::ZeroRucheFactor)
        );
        assert_eq!(
            b(Dims::new(8, 8), ruche(1)).build(),
            Err(ConfigError::RucheOneNeedsFullyPopulated)
        );
        assert!(matches!(
            b(Dims::new(4, 4), ruche(4))
                .scheme(CrossbarScheme::FullyPopulated)
                .build(),
            Err(ConfigError::RucheFactorTooLarge { .. })
        ));
        assert!(matches!(
            b(Dims::new(2, 8), TopologyKind::Torus { axes: Axes::Both }).build(),
            Err(ConfigError::TorusRingTooShort { .. })
        ));
        assert_eq!(
            b(Dims::new(8, 8), TopologyKind::Torus { axes: Axes::Both })
                .edge_memory_ports(true)
                .build(),
            Err(ConfigError::EdgePortsNeedOpenYAxis)
        );
        assert_eq!(
            b(Dims::new(4, 4), TopologyKind::Mesh).fifo_depth(0).build(),
            Err(ConfigError::ZeroFifoDepth)
        );
        assert_eq!(
            b(Dims::new(1, 1), TopologyKind::Mesh).build(),
            Err(ConfigError::SingleTile)
        );
    }

    #[test]
    fn builder_and_shims_agree() {
        // The named constructors are shims over the builder: same output.
        let d = Dims::new(16, 8);
        let via_builder = NetworkConfig::builder(
            d,
            TopologyKind::Ruche {
                rf: 3,
                axes: Axes::X,
            },
        )
        .scheme(CrossbarScheme::FullyPopulated)
        .edge_memory_ports(true)
        .pipeline_stages(1)
        .fifo_depth(4)
        .dor(DorOrder::YX)
        .build()
        .expect("builder config is valid");
        let via_shims = NetworkConfig::half_ruche(d, 3, CrossbarScheme::FullyPopulated)
            .with_edge_memory_ports()
            .with_pipeline_stages(1)
            .with_fifo_depth(4)
            .with_dor(DorOrder::YX);
        assert_eq!(via_builder, via_shims);

        // Reopening an existing config and changing nothing is lossless.
        let round = NetworkConfigBuilder::from(via_builder.clone())
            .build()
            .expect("reopened config is valid");
        assert_eq!(round, via_builder);

        // All remaining builder knobs reach their fields.
        let cfg = NetworkConfig::builder(d, TopologyKind::Mesh)
            .channel_width_bits(64)
            .edge_bidirectional(true)
            .build()
            .expect("builder config is valid");
        assert_eq!(cfg.channel_width_bits, 64);
        assert!(cfg.edge_bidirectional);
    }

    #[test]
    fn debug_rendering_is_pinned() {
        // The Debug rendering is the sweep-cache key: it must keep its
        // exact format so previously written cache entries stay valid.
        let cfg = NetworkConfig::half_ruche(Dims::new(16, 8), 2, CrossbarScheme::Depopulated);
        assert_eq!(
            format!("{cfg:?}"),
            "NetworkConfig { dims: Dims { cols: 16, rows: 8 }, \
             topology: Ruche { rf: 2, axes: X }, scheme: Depopulated, \
             dor: XY, fifo_depth: 2, channel_width_bits: 128, \
             edge_memory_ports: false, pipeline_stages: 0, \
             edge_bidirectional: false }"
        );
    }

    #[test]
    fn endpoint_count_includes_edges() {
        let cfg = NetworkConfig::mesh(Dims::new(16, 8)).with_edge_memory_ports();
        assert_eq!(cfg.endpoint_count(), 128 + 32);
        let cfg = NetworkConfig::mesh(Dims::new(16, 8));
        assert_eq!(cfg.endpoint_count(), 128);
    }
}
