//! Crossbar connectivity matrices (Figure 5).
//!
//! The crossbar of a router only implements the (input → output)
//! connections its routing algorithm can ever exercise. Rather than
//! hand-maintaining the matrices, this module *derives* them from the
//! routing relation by enumerating routes on a probe network large enough
//! to exercise every transition — so the simulator, the area/energy models,
//! and the routing algorithm can never disagree.
//!
//! The derived matrices reproduce the paper's published counts: the
//! fully-populated Full Ruche crossbar has 45 connections and a maximum mux
//! of 9 inputs (at the P output); depopulation removes 16 connections,
//! shrinking the P output to 7 inputs and the RN/RS outputs by 5 each.

use crate::geometry::{Dims, Dir};
use crate::routing::{compute_route, trace, Cases, Visit};
use crate::topology::{NetworkConfig, TopologyKind};

/// A router crossbar connectivity matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connectivity {
    ports: Vec<Dir>,
    /// Port index per direction (`dir as usize`), [`NO_PORT`] where the
    /// router has no such port: a lookup, not a search of `ports`.
    index: [u8; Dir::ALL.len()],
    /// `allowed[out][in]`.
    allowed: Vec<Vec<bool>>,
}

impl Connectivity {
    /// Derives the connectivity for `cfg`'s router by route enumeration.
    ///
    /// The enumeration runs on a probe network of the same topology,
    /// crossbar scheme, and DOR order, sized large enough (relative to the
    /// Ruche factor) that every transition class appears; the result is the
    /// size-independent crossbar a tiled design would stamp out. Results
    /// are memoized per probe class, so repeated construction is cheap.
    pub fn of(cfg: &NetworkConfig) -> Self {
        // lint:allow(hash-order): per-probe-class memo, insert/lookup only.
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static MEMO: OnceLock<Mutex<HashMap<String, Connectivity>>> = OnceLock::new();
        let probe = probe_config(cfg);
        let key = format!(
            "{:?}|{:?}|{:?}|{}|{}|{}",
            probe.topology,
            probe.scheme,
            probe.dor,
            probe.dims,
            probe.edge_memory_ports,
            probe.edge_bidirectional
        );
        let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = memo
            .lock()
            .expect("crossbar memo mutex is never poisoned")
            .get(&key)
        {
            return hit.clone();
        }
        let result = Self::derive(&probe);
        memo.lock()
            .expect("crossbar memo mutex is never poisoned")
            .insert(key, result.clone());
        result
    }

    /// Uncached derivation over a probe network: every `(input →
    /// output)` transition a state of the routes' [`Cases::walk`] takes.
    ///
    /// # Panics
    ///
    /// Panics if a route fails (see [`trace`]).
    fn derive(probe: &NetworkConfig) -> Self {
        let ports = probe.ports();
        let index = port_table(&ports);
        let idx = |d: Dir| {
            let i = index[d as usize];
            assert!(i != NO_PORT, "probed direction appears in the port list");
            usize::from(i)
        };
        let mut allowed = vec![vec![false; ports.len()]; ports.len()];
        let decide =
            |here, in_dir, in_vc, dest| Ok(compute_route(probe, here, in_dir, in_vc, dest));
        Cases::new(probe).walk(
            decide,
            #[inline(always)]
            |visit| match visit {
                Visit::State { step, .. } => allowed[idx(step.out)][idx(step.in_dir)] = true,
                Visit::Route {
                    route,
                    length: None,
                    ..
                } => {
                    let (err, _) =
                        trace(probe, route, decide).expect_err("the walk found it fails");
                    panic!("route {route}: {err}");
                }
                Visit::Route { .. } => {}
            },
        );
        Connectivity {
            ports,
            index,
            allowed,
        }
    }

    /// Router port list, canonical order.
    pub fn ports(&self) -> &[Dir] {
        &self.ports
    }

    /// Whether the crossbar connects `input` to `output`.
    pub fn allows(&self, input: Dir, output: Dir) -> bool {
        match (self.port_index(input), self.port_index(output)) {
            (Some(i), Some(o)) => self.allowed[o][i],
            _ => false,
        }
    }

    /// Index of `dir` in the port list.
    #[inline]
    pub fn port_index(&self, dir: Dir) -> Option<usize> {
        let i = self.index[dir as usize];
        (i != NO_PORT).then_some(usize::from(i))
    }

    /// Number of mux inputs feeding `output`.
    pub fn mux_inputs(&self, output: Dir) -> usize {
        self.port_index(output)
            .map(|o| self.allowed[o].iter().filter(|&&b| b).count())
            .unwrap_or(0)
    }

    /// Total crossbar connections (sum of mux inputs over outputs).
    pub fn connection_count(&self) -> usize {
        self.allowed
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .sum()
    }

    /// The largest mux in the crossbar (sets the mux-tree depth on the
    /// critical path).
    pub fn max_mux_inputs(&self) -> usize {
        self.ports
            .iter()
            .map(|&o| self.mux_inputs(o))
            .max()
            .unwrap_or(0)
    }
}

/// Marks a direction the router has no port for in [`Connectivity`]'s
/// port table.
const NO_PORT: u8 = u8::MAX;

/// The port index of every direction in `ports`, [`NO_PORT`] elsewhere.
fn port_table(ports: &[Dir]) -> [u8; Dir::ALL.len()] {
    let mut index = [NO_PORT; Dir::ALL.len()];
    for (i, &d) in ports.iter().enumerate() {
        index[d as usize] = i as u8;
    }
    index
}

/// A probe network large enough to exercise every routing transition.
///
/// The Ruche crossbar hardware is independent of the Ruche Factor (it is a
/// mesh router plus the Figure 5 additions), but small factors produce
/// degenerate routes — with `RF = 2` no route ever takes two consecutive
/// local hops in one dimension, so enumeration would miss the base mesh's
/// straight-through connections. The probe therefore routes with
/// `RF = max(rf, 3)` (Ruche-One keeps its own parity-routing relation).
pub(crate) fn probe_config(cfg: &NetworkConfig) -> NetworkConfig {
    let mut probe = cfg.clone();
    if let TopologyKind::Ruche { rf, axes } = probe.topology {
        if rf >= 2 {
            probe.topology = TopologyKind::Ruche {
                rf: rf.max(3),
                axes,
            };
        }
    }
    let rf = probe.topology.ruche_factor().max(1);
    let need = 4 * rf + 4;
    probe.dims = Dims::new(cfg.dims.cols.max(need), cfg.dims.rows.max(need));
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CrossbarScheme::{Depopulated, FullyPopulated};

    fn dims() -> Dims {
        Dims::new(8, 8)
    }

    #[test]
    fn mesh_crossbar_matches_celerity() {
        // Minimal X-Y DOR mesh router (Figure 5's "o" marks): 17
        // connections including the P->P loopback.
        let c = Connectivity::of(&NetworkConfig::mesh(dims()));
        assert_eq!(c.connection_count(), 17);
        assert_eq!(c.mux_inputs(Dir::P), 5);
        assert_eq!(c.mux_inputs(Dir::N), 4);
        assert_eq!(c.mux_inputs(Dir::S), 4);
        assert_eq!(c.mux_inputs(Dir::E), 2);
        assert_eq!(c.mux_inputs(Dir::W), 2);
        assert!(c.allows(Dir::P, Dir::P), "loopback");
        assert!(c.allows(Dir::W, Dir::N), "X-to-Y turn");
        assert!(!c.allows(Dir::N, Dir::E), "no Y-to-X turn under X-Y DOR");
        assert!(!c.allows(Dir::E, Dir::E), "no u-turn");
    }

    #[test]
    fn full_ruche_pop_matches_figure5() {
        let c = Connectivity::of(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        assert_eq!(c.connection_count(), 45);
        assert_eq!(c.max_mux_inputs(), 9);
        assert_eq!(c.mux_inputs(Dir::P), 9);
        assert_eq!(c.mux_inputs(Dir::RN), 7);
        assert_eq!(c.mux_inputs(Dir::RS), 7);
        assert_eq!(c.mux_inputs(Dir::N), 6);
        assert_eq!(c.mux_inputs(Dir::S), 6);
        assert_eq!(c.mux_inputs(Dir::E), 3);
        assert_eq!(c.mux_inputs(Dir::RE), 2);
        // The fully-populated turns straight off the highway:
        assert!(c.allows(Dir::RW, Dir::RS));
        assert!(c.allows(Dir::RW, Dir::S));
        assert!(c.allows(Dir::RW, Dir::P));
    }

    #[test]
    fn full_ruche_depop_matches_figure5() {
        let c = Connectivity::of(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        // Depopulation removes 16 connections (Figure 5).
        assert_eq!(c.connection_count(), 45 - 16);
        assert_eq!(c.max_mux_inputs(), 7);
        assert_eq!(c.mux_inputs(Dir::P), 7);
        // "the depopulation reduces the number of mux inputs for RS and RN
        // by 5" (§4.3).
        assert_eq!(c.mux_inputs(Dir::RN), 2);
        assert_eq!(c.mux_inputs(Dir::RS), 2);
        // No turns or ejection off the Ruche links:
        assert!(!c.allows(Dir::RW, Dir::RS));
        assert!(!c.allows(Dir::RW, Dir::S));
        assert!(!c.allows(Dir::RW, Dir::P));
        // Getting off the highway stays legal:
        assert!(c.allows(Dir::RW, Dir::E));
        assert!(c.allows(Dir::RW, Dir::RE));
    }

    #[test]
    fn depop_is_subset_of_pop() {
        let pop = Connectivity::of(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        let depop = Connectivity::of(&NetworkConfig::full_ruche(dims(), 3, Depopulated));
        for &i in pop.ports() {
            for &o in pop.ports() {
                if depop.allows(i, o) {
                    assert!(pop.allows(i, o), "{i}->{o} in depop but not pop");
                }
            }
        }
    }

    #[test]
    fn ruche_factor_does_not_change_connectivity() {
        let rf2 = Connectivity::of(&NetworkConfig::full_ruche(dims(), 2, FullyPopulated));
        let rf3 = Connectivity::of(&NetworkConfig::full_ruche(dims(), 3, FullyPopulated));
        assert_eq!(rf2, rf3);
    }

    #[test]
    fn torus_port_level_crossbar_matches_mesh() {
        // §3.1 / Figure 3: the VC router keeps a mesh-sized crossbar; the
        // VCs multiplex onto the same ports.
        let c = Connectivity::of(&NetworkConfig::torus(dims()));
        assert_eq!(c.connection_count(), 17);
        assert_eq!(c.max_mux_inputs(), 5);
    }

    #[test]
    fn multimesh_crossbar_is_two_meshes_with_shared_p() {
        let c = Connectivity::of(&NetworkConfig::multi_mesh(dims()));
        // Two 12-connection mesh cores + 9 connections from/to the shared
        // P port (P drives 8 first-hop directions + loopback), with each
        // mesh ejecting into P.
        assert_eq!(c.mux_inputs(Dir::P), 9);
        assert_eq!(c.connection_count(), 33);
        assert!(c.allows(Dir::P, Dir::E2));
        assert!(c.allows(Dir::W2, Dir::N2));
        assert!(!c.allows(Dir::W2, Dir::N), "meshes never cross");
    }

    #[test]
    fn half_ruche_crossbar_has_seven_ports() {
        let c = Connectivity::of(&NetworkConfig::half_ruche(dims(), 2, Depopulated));
        assert_eq!(c.ports().len(), 7);
        assert!(c.mux_inputs(Dir::RE) > 0);
        assert_eq!(c.mux_inputs(Dir::RN), 0);
    }

    #[test]
    fn edge_ports_add_no_new_transition_classes() {
        let plain = Connectivity::of(&NetworkConfig::mesh(dims()));
        let edged = Connectivity::of(&NetworkConfig::mesh(dims()).with_edge_memory_ports());
        assert_eq!(plain, edged);
    }

    #[test]
    fn ruche_one_uses_pop_crossbar_subset() {
        let pop = Connectivity::of(&NetworkConfig::full_ruche(dims(), 2, FullyPopulated));
        let one = Connectivity::of(&NetworkConfig::ruche_one(dims()));
        for &i in one.ports() {
            for &o in one.ports() {
                if one.allows(i, o) {
                    assert!(pop.allows(i, o), "{i}->{o}");
                }
            }
        }
        // Parity routing never mixes planes mid-flight except at
        // turns within the same plane.
        assert!(!one.allows(Dir::RW, Dir::E));
        assert!(one.allows(Dir::RW, Dir::RE));
        assert!(one.allows(Dir::RW, Dir::RS));
    }
}
