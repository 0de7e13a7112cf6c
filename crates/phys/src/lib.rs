//! # ruche-phys
//!
//! Analytical physical-design models substituting for the paper's Synopsys
//! synthesis / place-and-route / power flow (see DESIGN.md §1):
//!
//! * [`area`] — router cell-area breakdown (Table 2),
//! * [`timing`] — critical-path cycle time in FO4 and the
//!   area-vs-cycle-time sweep (Figure 7),
//! * [`energy`] — per-packet router energy (Table 3) and the first-order
//!   repeatered-wire model for long-range links (§4.9),
//! * [`tile`] — tile-area overhead of long-range channels (Table 6).
//!
//! All constants live in [`tech::Tech`] and were calibrated once against
//! the paper's published 12 nm numbers.
//!
//! ```
//! use ruche_noc::prelude::*;
//! use ruche_phys::{area::RouterParams, area::router_area, tech::Tech};
//!
//! let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 3, CrossbarScheme::Depopulated);
//! let breakdown = router_area(&RouterParams::of(&cfg), &Tech::n12());
//! assert!(breakdown.total() < 3_200.0); // ~2991 µm² in the paper's Table 2
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod energy;
pub mod tech;
pub mod tile;
pub mod timing;

pub use area::{router_area, AreaBreakdown, RouterParams};
pub use energy::{route_energy_pj, EnergyModel};
pub use tech::Tech;
pub use tile::tile_area_increase;
pub use timing::{area_at, area_sweep, min_cycle_time_fo4, SweepPoint};
