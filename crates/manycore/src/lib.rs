//! # ruche-manycore
//!
//! An execution-driven cellular-manycore simulator in the style of the
//! paper's HammerBlade substrate (§4.6): in-order cores with bounded
//! outstanding remote requests, LLC banks on the north/south edges with
//! IPOLY address interleaving, and two physical NoCs (requests X-Y,
//! responses Y-X) built on [`ruche_noc`].
//!
//! Workloads are the seven parallel benchmarks of the paper's Table 5,
//! modeled by their communication signatures on scaled datasets (see
//! DESIGN.md §1 and §4 for the substitution rationale).
//!
//! ```no_run
//! use ruche_manycore::prelude::*;
//! use ruche_noc::prelude::*;
//!
//! let dims = Dims::new(16, 8);
//! let workload = Workload::build(Benchmark::Jacobi, DatasetId::Default, dims);
//! let mesh = run(&SystemConfig::new(NetworkConfig::mesh(dims)), &workload)?;
//! let ruche = run(
//!     &SystemConfig::new(NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated)),
//!     &workload,
//! )?;
//! println!("speedup: {:.2}x", mesh.cycles as f64 / ruche.cycles as f64);
//! # Ok::<(), ruche_manycore::machine::MachineError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod core_model;
pub mod graph;
pub mod kernels;
pub mod machine;
pub mod memsys;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::core_model::{Core, CoreAction, CoreState, CoreStats, Op};
    pub use crate::graph::{Csr, GraphId};
    pub use crate::kernels::{Benchmark, DatasetId, Workload};
    pub use crate::machine::{
        run, run_probed, EnergyBreakdown, LatencySplit, MachineError, MachineTelemetry, RunResult,
        SystemConfig,
    };
    pub use crate::memsys::{BankMap, Ipoly};
}
