//! # ruche-stats
//!
//! Measurement and reporting utilities shared by the traffic testbench, the
//! manycore simulator, and the per-figure bench harnesses: streaming
//! statistics accumulators, quantile samples, geometric means, and plain
//! text table / CSV rendering.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accum;
pub mod plot;
pub mod report;

pub use accum::{geomean, Accum, Samples};
pub use plot::{AsciiPlot, Heatmap};
pub use report::{fmt_f, Csv, Table};
