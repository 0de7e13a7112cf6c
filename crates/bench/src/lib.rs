//! # ruche-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation section. Each `cargo bench --bench <target>` (or
//! `cargo run --release -p ruche-bench --bin repro`) prints the
//! reproduction rows/series and writes CSVs under `results/`.
//!
//! | Target | Reproduces |
//! |---|---|
//! | `table1` | Topology physical-scalability comparison |
//! | `fig6`   | Full Ruche synthetic traffic curves (8×8, 16×16) |
//! | `fig7`   | Router area vs cycle time sweep |
//! | `table2` | Router area breakdown @ ~98 FO4 |
//! | `table3` | Per-packet router energy |
//! | `fig8`   | Per-tile latency fairness (16×16 UR) |
//! | `fig9`   | Half Ruche synthetic traffic (16×8, 32×16, 64×8) |
//! | `table4` | Bisection vs memory-tile bandwidth ratios |
//! | `fig10`  | Benchmark speedup over mesh (16×8, 32×16) |
//! | `fig11`  | Benchmark scalability vs 16×8 mesh |
//! | `fig12`  | Remote-load latency split (32×16) |
//! | `fig13`  | Total energy breakdown (32×16) |
//! | `table6` | Geomean summary |
//!
//! The manycore figures (10–13, table 6) share one expensive simulation
//! suite; results are cached in `results/cache.tsv` so later figures reuse
//! earlier runs. Pass `--quick` (or set `RUCHE_QUICK=1`) for a reduced
//! sweep.

#![forbid(unsafe_code)]

pub mod degradation;
pub mod figures;
pub mod opts;
pub mod out;
pub mod preflight;
pub mod store;
pub mod suite;
pub mod sweep;
pub mod telemetry;

pub use opts::Opts;
pub use store::ResultStore;
pub use sweep::{SweepJob, SweepRunner};
