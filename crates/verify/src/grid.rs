//! The paper's configuration grid.
//!
//! [`paper_grid`] returns every distinct [`NetworkConfig`] the
//! reproduction sweeps — the Figure 6/7/8 full-network grid, the
//! Figure 9 half-network grid (with edge memory ports, as the sweeps run
//! them), and the manycore request/response network pair of §4 — so the
//! `verify_net` binary and the CI `verify` job prove every simulated
//! configuration deadlock-free before any cycle is simulated.
//!
//! The lists are intentionally written out here rather than imported
//! from the bench crate (which depends on this one); the bench test
//! suite cross-checks that its figure sweeps stay inside this grid.
//!
//! [`faulted_sample`] is the fault-injected counterpart `verify_net`
//! checks with the up\*/down\* table.

use ruche_noc::fault::FaultModel;
use ruche_noc::prelude::*;
// lint:allow(hash-order): membership-only dedup of config labels; nothing
// iterates the set.
use std::collections::HashSet;

/// The Figure 6/7/8 full-network set for one array size.
pub fn full_network_configs(dims: Dims) -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::multi_mesh(dims),
        NetworkConfig::torus(dims),
        NetworkConfig::ruche_one(dims),
        NetworkConfig::full_ruche(dims, 2, FullyPopulated),
        NetworkConfig::full_ruche(dims, 2, Depopulated),
        NetworkConfig::full_ruche(dims, 3, FullyPopulated),
        NetworkConfig::full_ruche(dims, 3, Depopulated),
    ]
}

/// The Figure 9 half-network set for one array size (Ruche-4 appears on
/// 64-column arrays, as in the paper), with edge memory ports attached
/// the way the sweeps run them.
pub fn half_network_configs(dims: Dims) -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    let mut v = vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::half_torus(dims),
        NetworkConfig::half_ruche(dims, 2, Depopulated),
        NetworkConfig::half_ruche(dims, 2, FullyPopulated),
        NetworkConfig::half_ruche(dims, 3, Depopulated),
        NetworkConfig::half_ruche(dims, 3, FullyPopulated),
    ];
    if dims.cols == 64 {
        v.push(NetworkConfig::half_ruche(dims, 4, Depopulated));
        v.push(NetworkConfig::half_ruche(dims, 4, FullyPopulated));
    }
    v.into_iter()
        .map(NetworkConfig::with_edge_memory_ports)
        .collect()
}

/// The manycore request/response network pair built from one base
/// fabric (§4): requests route X-Y to the edge memories, responses
/// route Y-X back from them.
pub fn manycore_net_pair(base: &NetworkConfig) -> [NetworkConfig; 2] {
    let req = base.clone().with_edge_memory_ports();
    let resp = base.clone().with_edge_memory_ports().with_dor(DorOrder::YX);
    [req, resp]
}

/// Every distinct configuration the paper reproduction simulates,
/// deduplicated.
pub fn paper_grid() -> Vec<NetworkConfig> {
    let mut grid: Vec<NetworkConfig> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut push = |cfg: NetworkConfig| {
        if seen.insert(format!("{cfg:?}")) {
            grid.push(cfg);
        }
    };

    // Figures 6/7/8: full networks on square arrays.
    for dims in [Dims::new(8, 8), Dims::new(16, 16)] {
        for cfg in full_network_configs(dims) {
            push(cfg);
        }
    }
    // Figure 9 (and 10/12/13): half networks with edge memory traffic.
    for dims in [Dims::new(16, 8), Dims::new(32, 16), Dims::new(64, 8)] {
        for cfg in half_network_configs(dims) {
            push(cfg);
        }
    }
    // Manycore request/response pairs over the half-network fabrics,
    // plus the DOR-order ablation's bidirectional-edge response net.
    for dims in [Dims::new(16, 8), Dims::new(32, 16)] {
        for base in half_network_configs(dims) {
            for cfg in manycore_net_pair(&base) {
                push(cfg);
            }
        }
    }
    for base in half_network_configs(Dims::new(16, 8)) {
        let mut resp_xy = base.with_edge_memory_ports();
        resp_xy.edge_bidirectional = true;
        push(resp_xy);
    }
    grid
}

/// The faulted sample: the degradation sweep's three topology families at
/// representative fault rates, plus a dead-router case.
pub fn faulted_sample() -> Vec<(NetworkConfig, FaultModel)> {
    let mut sample = Vec::new();
    let topos = [
        NetworkConfig::mesh(Dims::new(8, 8)),
        NetworkConfig::half_ruche(Dims::new(16, 8), 2, CrossbarScheme::Depopulated),
        NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::Depopulated),
    ];
    for cfg in topos {
        for (p, seed) in [(0.05, 1u64), (0.15, 2)] {
            let faults = FaultModel::random_links(&cfg, p, seed);
            sample.push((cfg.clone(), faults));
        }
        let dead = Coord::new(cfg.dims.cols / 2, cfg.dims.rows / 2);
        sample.push((cfg.clone(), FaultModel::default().kill_router(dead)));
    }
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deduplicated_and_valid() {
        let grid = paper_grid();
        assert!(grid.len() >= 40, "grid unexpectedly small: {}", grid.len());
        let mut seen = HashSet::new();
        for cfg in &grid {
            assert!(seen.insert(format!("{cfg:?}")), "duplicate {}", cfg.label());
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        }
    }

    #[test]
    fn grid_covers_both_traffic_directions() {
        let grid = paper_grid();
        assert!(grid
            .iter()
            .any(|c| c.edge_memory_ports && c.dor == DorOrder::YX));
        assert!(grid.iter().any(|c| c.edge_bidirectional));
        assert!(grid.iter().any(|c| !c.edge_memory_ports));
    }
}
