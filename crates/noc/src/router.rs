//! Router microarchitectural state.
//!
//! Two router microarchitectures are modeled, matching §3.2:
//!
//! * **Wormhole routers** (mesh, multi-mesh, Ruche): minimally-buffered
//!   input FIFOs, one decentralized round-robin arbiter per output
//!   direction, ready-valid-and handshake (requests are generated
//!   independently of downstream readiness). Single cycle per hop.
//! * **VC routers** (torus): two virtual channels per ring-axis input with
//!   dateline partitioning, ready-then-valid request generation (requests
//!   depend on downstream credit availability), and a wavefront switch
//!   allocator with input-port speedup of one — which is what halves the
//!   peak crossbar bandwidth relative to a 2× multi-mesh (Figure 3).
//!
//! The per-cycle evaluation lives in [`crate::sim`]; this module holds the
//! buffer and flow-control state that persists between cycles. Arbiter and
//! allocator state (round-robin pointers, wavefront priority) lives in
//! [`crate::sim::Network`]-level arrays instead of here: the plan phase
//! reads *all* routers immutably while mutating arbiters, so the two must
//! live in separate borrows.

use crate::fifo::Fifo;
use crate::geometry::{Coord, Dir};
use crate::packet::Flit;
use crate::topology::NetworkConfig;

/// Route assignment of an in-flight multi-flit packet: (output port index,
/// output VC).
pub type Assignment = (usize, u8);

/// One router input port: per-VC FIFOs plus the state needed to keep a
/// multi-flit packet on its head's path.
#[derive(Debug, Clone)]
pub struct InputPort {
    /// Per-VC flit FIFOs (wormhole ports have exactly one VC).
    pub vcs: Vec<Fifo<Flit>>,
    /// Per-VC route assignment for the packet in progress (set at head,
    /// cleared at tail).
    pub assigned: Vec<Option<Assignment>>,
}

impl InputPort {
    fn new(vcs: usize, depth: usize) -> Self {
        InputPort {
            vcs: (0..vcs).map(|_| Fifo::new(depth)).collect(),
            assigned: vec![None; vcs],
        }
    }

    /// Total flits buffered across VCs.
    pub fn occupancy(&self) -> usize {
        self.vcs.iter().map(Fifo::len).sum()
    }
}

/// One router output port: downstream credit state and path ownership.
#[derive(Debug, Clone)]
pub struct OutputPort {
    /// Credits per downstream VC (meaningful when `counted` is true).
    pub credits: Vec<u32>,
    /// Whether this output tracks credits (false for endpoint sinks, which
    /// always accept one flit per cycle).
    pub counted: bool,
    /// Wormhole path lock: input port that owns this output until its
    /// packet's tail passes.
    pub lock: Option<usize>,
    /// Per-output-VC ownership by (input port, input VC) for multi-flit
    /// packets (VC routers).
    pub vc_owner: Vec<Option<(usize, usize)>>,
}

impl OutputPort {
    fn new(downstream_vcs: usize, downstream_depth: usize, counted: bool) -> Self {
        OutputPort {
            credits: vec![downstream_depth as u32; downstream_vcs],
            counted,
            lock: None,
            vc_owner: vec![None; downstream_vcs],
        }
    }

    /// Whether a flit may be sent on `vc` right now (credit available, or
    /// the sink is uncounted).
    pub fn has_credit(&self, vc: usize) -> bool {
        !self.counted || self.credits[vc] > 0
    }
}

/// Per-router state: coordinate, input buffers, and output flow control.
#[derive(Debug, Clone)]
pub struct Router {
    /// Tile coordinate.
    pub coord: Coord,
    /// Input ports, indexed like [`NetworkConfig::ports`].
    pub inputs: Vec<InputPort>,
    /// Output ports, same indexing.
    pub outputs: Vec<OutputPort>,
}

impl Router {
    /// Builds a router for `cfg` at `coord`. `connected_out[p]` tells
    /// whether output `p` has a counted downstream FIFO (router link) as
    /// opposed to an endpoint sink or no link at all.
    pub fn new(cfg: &NetworkConfig, coord: Coord, ports: &[Dir], counted_out: &[bool]) -> Self {
        let inputs: Vec<InputPort> = ports
            .iter()
            .map(|&d| InputPort::new(cfg.vcs(d), cfg.fifo_depth))
            .collect();
        let outputs: Vec<OutputPort> = ports
            .iter()
            .zip(counted_out)
            .map(|(&d, &counted)| {
                // The downstream input port mirrors this output's direction
                // class, so its VC count matches this port's.
                OutputPort::new(cfg.vcs(d), cfg.fifo_depth, counted)
            })
            .collect();
        Router {
            coord,
            inputs,
            outputs,
        }
    }

    /// Total flits buffered in this router.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(InputPort::occupancy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;

    #[test]
    fn wormhole_router_has_single_vc_inputs() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let ports = cfg.ports();
        let r = Router::new(&cfg, Coord::new(1, 1), &ports, &vec![true; ports.len()]);
        assert_eq!(r.inputs.len(), 5);
        assert!(r.inputs.iter().all(|i| i.vcs.len() == 1));
        assert!(r.inputs.iter().all(|i| i.vcs[0].capacity() == 2));
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn torus_router_has_two_vcs_on_ring_ports() {
        let cfg = NetworkConfig::torus(Dims::new(4, 4));
        let ports = cfg.ports();
        let r = Router::new(&cfg, Coord::new(0, 0), &ports, &vec![true; ports.len()]);
        let vc_counts: Vec<usize> = r.inputs.iter().map(|i| i.vcs.len()).collect();
        // Port order: P, N, S, E, W.
        assert_eq!(vc_counts, vec![1, 2, 2, 2, 2]);
        // Output credits mirror the downstream VC structure.
        assert_eq!(r.outputs[1].credits, vec![2, 2]);
        assert_eq!(r.outputs[0].credits, vec![2]);
    }

    #[test]
    fn credits_gate_sends_when_counted() {
        let cfg = NetworkConfig::torus(Dims::new(4, 4));
        let ports = cfg.ports();
        let mut r = Router::new(&cfg, Coord::new(0, 0), &ports, &vec![true; ports.len()]);
        assert!(r.outputs[1].has_credit(0));
        r.outputs[1].credits[0] = 0;
        assert!(!r.outputs[1].has_credit(0));
        assert!(r.outputs[1].has_credit(1));
    }

    #[test]
    fn endpoint_sinks_are_uncounted() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let ports = cfg.ports();
        let mut counted = vec![true; ports.len()];
        counted[0] = false; // P output ejects to the endpoint
        let mut r = Router::new(&cfg, Coord::new(0, 0), &ports, &counted);
        r.outputs[0].credits[0] = 0;
        assert!(r.outputs[0].has_credit(0), "uncounted sinks always accept");
    }
}
