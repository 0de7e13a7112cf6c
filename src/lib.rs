//! Facade crate: see README.md. Re-exports the whole workspace API.

#![forbid(unsafe_code)]

pub use ruche_bench as bench;
pub use ruche_manycore as manycore;
pub use ruche_noc as noc;
pub use ruche_phys as phys;
pub use ruche_service as service;
pub use ruche_stats as stats;
pub use ruche_telemetry as telemetry;
pub use ruche_traffic as traffic;

pub mod serve;
