//! # ruche-noc
//!
//! A cycle-accurate network-on-chip simulator reproducing the evaluation
//! substrate of *Evaluating Ruche Networks: Physically Scalable,
//! Cost-Effective, Bandwidth-Flexible NoCs* (Jung & Taylor, ISCA 2025).
//!
//! The crate models, at the flit level with RTL-faithful per-cycle
//! semantics:
//!
//! * **Topologies** — 2-D mesh, 2× multi-mesh, folded 2-D torus (full and
//!   half), and Ruche networks of any Ruche Factor (Full, Half, and
//!   Ruche-One), including the folded-torus physical layout and the
//!   bisection-bandwidth analytics of the paper's Table 4.
//! * **Routing** — X-Y / Y-X DOR, the Ruche modified DOR (*ruche-first* /
//!   *local-first*) in fully-populated and depopulated variants, torus ring
//!   routing with dateline VC partitioning, and the parity-balanced
//!   Ruche-One and multi-mesh plane selection.
//! * **Routers** — wormhole routers with two-element FIFOs and per-output
//!   round-robin arbiters (mesh/Ruche), and 2-VC torus routers with
//!   credit-based flow control and a wavefront switch allocator.
//! * **Crossbars** — connectivity matrices derived from the routing
//!   relation, matching the paper's Figure 5 counts exactly.
//!
//! ## Quick start
//!
//! ```
//! use ruche_noc::prelude::*;
//!
//! // An 8×8 Full Ruche network with Ruche Factor 2, depopulated crossbars.
//! let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::Depopulated);
//! let mut net = Network::new(cfg)?;
//!
//! // Send one packet corner to corner and watch it arrive.
//! let (src, dst) = (Coord::new(0, 0), Coord::new(7, 7));
//! net.enqueue(net.tile_endpoint(src), Flit::single(src, Dest::tile(dst), 0, 0));
//! while net.snapshot().ejected == 0 {
//!     net.step();
//! }
//! assert!(net.cycle() < 20);
//! # Ok::<(), ruche_noc::topology::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
pub mod crossbar;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod packet;
pub mod routing;
pub mod sim;
pub mod telemetry;
pub mod topology;
pub mod wire;

pub use crate::error::Error;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::crossbar::Connectivity;
    pub use crate::error::Error;
    pub use crate::fault::{FaultError, FaultModel, RouteTable};
    pub use crate::geometry::{Axes, Axis, Coord, Dims, Dir};
    pub use crate::packet::{Flit, FlitKind};
    pub use crate::routing::{
        compute_route, mean_route_hops, route_hops, try_walk_route, walk_route, Dest, EdgePort,
        RouteDecision, RouteError,
    };
    pub use crate::sim::{EndpointId, EndpointKind, LinkLoads, NetSnapshot, Network};
    pub use crate::telemetry::{BlockCause, LinkVcStats, NetTelemetry};
    pub use crate::topology::{
        CrossbarScheme, DorOrder, NetworkConfig, NetworkConfigBuilder, StepMode, SurveyTopology,
        TopologyKind,
    };
}
