//! Tombstone for the removed `SweepJob::key` shim.
//!
//! `key()` was deprecated in 0.7.0 as a thin delegate to
//! [`SweepJob::cache_key`] and removed one release later, per the
//! CHANGELOG's deprecation policy. What must survive the removal is the
//! *wire key itself*: every store entry ever written under the shim was
//! byte-identical to `cache_key()`, so pinning the canonical rendering
//! here proves old stores stay readable.

use ruche_bench::sweep::{SweepJob, MODEL_VERSION};
use ruche_noc::prelude::*;
use ruche_traffic::{Pattern, SweepRequest, Testbench};

#[test]
fn cache_key_is_the_versioned_canonical_request_rendering() {
    let tb = Testbench::builder(Pattern::Tornado, 0.2).build().unwrap();
    let job = SweepJob::new(NetworkConfig::mesh(Dims::new(4, 4)), tb.clone());
    let expect = format!(
        "{MODEL_VERSION}|{}",
        SweepRequest::new(job.cfg.clone(), tb).cache_key()
    );
    assert_eq!(job.cache_key(), expect);
    assert!(job.cache_key().starts_with("v1|{\"key_version\":1,"));
}
