//! # ruche-telemetry
//!
//! Measurement primitives for cycle-accurate telemetry: fixed-bucket
//! streaming [`Histogram`]s, windowed [`TimeSeries`], and the [`Probe`]
//! sink trait that instrumented simulators export through.
//!
//! The crate is deliberately dependency-light and allocation-disciplined:
//! recording into a histogram or an already-grown time series performs no
//! heap allocation, so attaching telemetry to a hot simulation loop costs
//! only the counter updates themselves.
//!
//! Serialization is a hand-rolled deterministic JSON codec ([`json`]):
//! sorted keys, integer-exact `u64` values, no platform- or locale-
//! dependent formatting — two identical runs produce byte-identical blobs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod json;
pub mod probe;
pub mod series;

pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use probe::{JsonProbe, Prefixed, Probe};
pub use series::TimeSeries;
