//! # ruche-traffic
//!
//! Synthetic traffic generation and the open-loop testbench used to
//! reproduce the paper's Figure 6 (Full Ruche synthetic traffic), Figure 8
//! (fairness), and Figure 9 (Half Ruche synthetic traffic).
//!
//! ```
//! use ruche_noc::prelude::*;
//! use ruche_traffic::{run, Pattern, Testbench};
//!
//! let cfg = NetworkConfig::mesh(Dims::new(8, 8));
//! let tb = Testbench::builder(Pattern::UniformRandom, 0.05).quick().build()?;
//! let res = run(&cfg, &tb)?;
//! assert!(!res.saturated);
//! # Ok::<(), ruche_traffic::TrafficError>(())
//! ```
//!
//! Fault injection rides the same builder: pass a
//! [`FaultModel`](ruche_noc::fault::FaultModel) to
//! [`TestbenchBuilder::faults`](testbench::TestbenchBuilder::faults) and
//! the run degrades gracefully — dead tiles fall silent and partitioned
//! pairs are never offered load.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod pattern;
pub mod testbench;
pub mod wire;

pub use error::TrafficError;
pub use pattern::{Pattern, PatternError};
pub use testbench::{
    latency_curve, run, run_probed, saturation_throughput, zero_load_latency, CurvePoint, TbResult,
    Testbench, TestbenchBuilder,
};
pub use wire::SweepRequest;
