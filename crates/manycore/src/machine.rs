//! The full-system, execution-driven manycore simulator.
//!
//! The machine couples three substrates per the paper's §4 arrangement:
//!
//! * a tile array of in-order cores ([`crate::core_model`]),
//! * LLC banks on the north/south edges reached through IPOLY address
//!   interleaving ([`crate::memsys`]),
//! * two physical NoCs — requests route X-Y, responses Y-X (the placement
//!   Abts et al. showed is best for all-to-edge traffic).
//!
//! Execution is fully cycle-accurate and closed-loop: congestion delays
//! responses, delayed responses stall cores, stalled cores stop injecting.
//! The run result carries the paper's Figure 10–13 metrics: runtime,
//! remote-load latency split into intrinsic and congestion components, and
//! the four-way energy breakdown.

use crate::core_model::{Core, CoreAction, CoreState, MemRequest};
use crate::kernels::Workload;
use crate::memsys::{BankMap, Ipoly};
use ruche_noc::packet::Flit;
use ruche_noc::prelude::*;
use ruche_noc::routing::walk_route_from;
use ruche_noc::sim::BitSet;
use ruche_noc::topology::ConfigError;
use ruche_phys::{EnergyModel, Tech};
use ruche_stats::Accum;
use ruche_telemetry::{Prefixed, Probe};
use std::collections::VecDeque;
use std::fmt;

/// Full-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Base network configuration (topology, scheme, dimensions). The
    /// machine derives the request network (X-Y DOR) and response network
    /// (Y-X DOR) from it, both with edge memory ports.
    pub net: NetworkConfig,
    /// Maximum outstanding remote requests per core (latency-hiding
    /// capacity).
    pub max_outstanding: u32,
    /// Injection-queue depth before the core stalls on the NIC.
    pub nic_depth: usize,
    /// LLC bank access latency, cycles.
    pub llc_latency: u32,
    /// DOR order of the response network (the request network is always
    /// X-Y). The paper follows Abts et al. in using Y-X responses for
    /// all-to-edge traffic; set `XY` to measure what that choice buys
    /// (see the `ablations` bench).
    pub resp_dor: DorOrder,
    /// Hard cycle cap (deadlock/livelock guard).
    pub max_cycles: u64,
    /// Core dynamic energy per instruction, pJ.
    pub e_instr_pj: f64,
    /// Leakage + ungated clock energy per stalled/idle core-cycle, pJ.
    pub e_stall_pj: f64,
}

impl SystemConfig {
    /// Paper-default parameters on the given base network.
    pub fn new(net: NetworkConfig) -> Self {
        SystemConfig {
            net,
            // HammerBlade-class cores keep many word-level requests in
            // flight ("packets are sent and received every cycle in a
            // stream", §1); 16 slots makes streaming kernels
            // bandwidth-bound rather than latency-bound.
            max_outstanding: 16,
            nic_depth: 4,
            resp_dor: DorOrder::YX,
            llc_latency: 2,
            max_cycles: 10_000_000,
            e_instr_pj: 6.0,
            e_stall_pj: 0.8,
        }
    }
}

/// Errors from a machine run.
#[derive(Debug)]
pub enum MachineError {
    /// The network configuration is invalid.
    Config(ConfigError),
    /// The run did not complete within the cycle cap.
    CycleLimit {
        /// The configured cap.
        cycles: u64,
    },
    /// The workload's program count does not match the tile array.
    WorkloadShape {
        /// Programs provided.
        programs: usize,
        /// Tiles in the array.
        tiles: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(e) => write!(f, "invalid network config: {e}"),
            MachineError::CycleLimit { cycles } => {
                write!(f, "run exceeded the {cycles}-cycle cap")
            }
            MachineError::WorkloadShape { programs, tiles } => {
                write!(f, "workload has {programs} programs for {tiles} tiles")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<ConfigError> for MachineError {
    fn from(e: ConfigError) -> Self {
        MachineError::Config(e)
    }
}

/// Remote-load latency, split as in the paper's Figure 12.
#[derive(Debug, Clone, Default)]
pub struct LatencySplit {
    /// End-to-end latency (issue to response delivery).
    pub total: Accum,
    /// Zero-load component of each measured access (route hops + LLC
    /// latency + injection overheads).
    pub intrinsic: Accum,
    /// `total − intrinsic` per access (network stalls).
    pub congestion: Accum,
}

/// System energy, split as in the paper's Figure 13.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core dynamic energy (instruction execution), pJ.
    pub core_pj: f64,
    /// Stall/idle leakage and ungated clocking, pJ.
    pub stall_pj: f64,
    /// NoC router dynamic energy, pJ.
    pub router_pj: f64,
    /// Long-range (Ruche / torus) wire energy, pJ.
    pub wire_pj: f64,
}

impl EnergyBreakdown {
    /// Total system energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.core_pj + self.stall_pj + self.router_pj + self.wire_pj
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Network label the run used.
    pub label: String,
    /// Total runtime in cycles.
    pub cycles: u64,
    /// Instructions executed across all cores.
    pub instructions: u64,
    /// Stall cycles across all cores (program not finished).
    pub stall_cycles: u64,
    /// Idle cycles across all cores (after completion).
    pub idle_cycles: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Remote-load latency split (loads, atomics, scratchpad loads).
    pub load_latency: LatencySplit,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Load,
    Store,
    Amo,
    LoadTile,
}

impl ReqKind {
    fn measured(self) -> bool {
        matches!(self, ReqKind::Load | ReqKind::Amo | ReqKind::LoadTile)
    }
}

/// Payload codec: | kind (2 bits) | origin (31 bits) | requester (31 bits) |
/// where origin is a bank id or (flagged) server-tile index.
fn encode_payload(kind: ReqKind, requester: u32) -> u64 {
    let k = match kind {
        ReqKind::Load => 0u64,
        ReqKind::Store => 1,
        ReqKind::Amo => 2,
        ReqKind::LoadTile => 3,
    };
    (k << 62) | requester as u64
}

fn decode_payload(p: u64) -> (ReqKind, u32) {
    let kind = match p >> 62 {
        0 => ReqKind::Load,
        1 => ReqKind::Store,
        2 => ReqKind::Amo,
        _ => ReqKind::LoadTile,
    };
    (kind, (p & 0x7FFF_FFFF) as u32)
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    ready: u64,
    requester: u32,
    birth: u64,
    kind: ReqKind,
}

/// Telemetry collected by a probed machine run ([`run_probed`]): the two
/// networks' link/FIFO counters plus per-core execution breakdowns.
#[derive(Debug, Clone)]
pub struct MachineTelemetry {
    /// Request-network (X-Y) counters.
    pub req: Box<NetTelemetry>,
    /// Response-network counters.
    pub resp: Box<NetTelemetry>,
    /// Final per-core counters, indexed by tile (row-major).
    pub cores: Vec<crate::core_model::CoreStats>,
}

impl MachineTelemetry {
    /// Pushes everything into `probe`: the request network under `req.`,
    /// the response network under `resp.`, and per-core counters as
    /// tile-indexed arrays under `core.`.
    pub fn export(&self, probe: &mut dyn Probe) {
        self.req.export(&mut Prefixed::new("req.", probe));
        self.resp.export(&mut Prefixed::new("resp.", probe));
        let mut scratch = vec![0u64; self.cores.len()];
        for (name, get) in [
            (
                "core.instructions",
                (|s: &crate::core_model::CoreStats| s.instructions)
                    as fn(&crate::core_model::CoreStats) -> u64,
            ),
            ("core.mem_ops", |s| s.mem_ops),
            ("core.idle_cycles", |s| s.idle_cycles),
            ("core.stall_barrier", |s| s.stall_barrier),
            ("core.stall_dependence", |s| s.stall_dependence),
            ("core.stall_nic", |s| s.stall_nic),
            ("core.stall_outstanding", |s| s.stall_outstanding),
        ] {
            for (slot, s) in scratch.iter_mut().zip(&self.cores) {
                *slot = get(s);
            }
            probe.scalars(name, &scratch);
        }
    }
}

/// Runs a workload to completion on the configured system.
///
/// # Errors
///
/// Returns [`MachineError`] for invalid configurations, workload/array
/// shape mismatches, or runs exceeding the cycle cap.
pub fn run(sys: &SystemConfig, workload: &Workload) -> Result<RunResult, MachineError> {
    run_inner(sys, workload, None).map(|(res, _)| res)
}

/// Like [`run`], with telemetry attached to both networks for the whole
/// run. `window` is the injection/ejection time-series bin width in
/// cycles. The simulated machine behaves identically to [`run`].
///
/// # Errors
///
/// Returns [`MachineError`] exactly as [`run`] does.
pub fn run_probed(
    sys: &SystemConfig,
    workload: &Workload,
    window: u64,
) -> Result<(RunResult, MachineTelemetry), MachineError> {
    run_inner(sys, workload, Some(window))
        .map(|(res, tel)| (res, tel.expect("telemetry was attached")))
}

fn run_inner(
    sys: &SystemConfig,
    workload: &Workload,
    telemetry_window: Option<u64>,
) -> Result<(RunResult, Option<MachineTelemetry>), MachineError> {
    let dims = sys.net.dims;
    let n_tiles = dims.count();
    if workload.programs.len() != n_tiles {
        return Err(MachineError::WorkloadShape {
            programs: workload.programs.len(),
            tiles: n_tiles,
        });
    }
    let mut req_cfg = sys.net.clone().with_edge_memory_ports();
    req_cfg.dor = DorOrder::XY;
    let mut resp_cfg = sys.net.clone().with_edge_memory_ports();
    resp_cfg.dor = sys.resp_dor;
    // A response network routed X-Y needs from-edge turns its DOR order
    // would not otherwise imply (see the DOR-order ablation).
    if sys.resp_dor == DorOrder::XY {
        resp_cfg.edge_bidirectional = true;
    }
    let mut req = Network::new(req_cfg.clone())?;
    let mut resp = Network::new(resp_cfg.clone())?;
    // Every flit waiting at a source is a request (or its response) that a
    // core still has outstanding, and a core queues at most `nic_depth`
    // requests: the source pools are sized once for that backlog.
    let outstanding = sys.max_outstanding as usize;
    req.reserve_sources(n_tiles * sys.nic_depth.min(outstanding));
    resp.reserve_sources(n_tiles * outstanding);
    if let Some(window) = telemetry_window {
        req.attach_telemetry(window);
        resp.attach_telemetry(window);
    }

    let bankmap = BankMap { dims };
    let ipoly = Ipoly::new(bankmap.banks());
    let mut cores: Vec<Core> = workload
        .programs
        .iter()
        .map(|p| Core::new(p.clone(), sys.max_outstanding))
        .collect();
    // A bank takes at most one request per cycle (one ejection per
    // endpoint), each ready `llc_latency` cycles later, and emits one ready
    // response per cycle, so it never holds more than `llc_latency + 1`
    // requests; a server's requests are ready a cycle later, so it holds at
    // most 2. Both are sized once here and never grow.
    let bank_bound = sys.llc_latency as usize + 1;
    let mut bank_q: Vec<VecDeque<Pending>> = (0..bankmap.banks())
        .map(|_| VecDeque::with_capacity(bank_bound))
        .collect();
    let mut server_q: Vec<VecDeque<Pending>> =
        (0..n_tiles).map(|_| VecDeque::with_capacity(2)).collect();
    // The non-empty bank and server queues: the emitters visit only these,
    // in ascending order, as a scan of every queue would.
    let mut bank_busy = BitSet::new(bank_q.len());
    let mut server_busy = BitSet::new(n_tiles);
    // Memo of `intrinsic_of`, indexed `requester * origins + origin`, where
    // an origin is a bank id or `banks + tile`; 0 means unset (a round trip
    // takes at least one cycle).
    let origins = bankmap.banks() as usize + n_tiles;
    let mut intrinsic_cache = vec![0u32; n_tiles * origins];
    let mut lat = LatencySplit::default();
    let mut next_id = 0u64;
    let mut cycle = 0u64;
    // One ejection buffer for both networks, reused every cycle. A cycle
    // ejects at most one flit per endpoint, so it never grows.
    let mut ejected: Vec<(EndpointId, Flit)> =
        Vec::with_capacity(req.endpoint_count().max(resp.endpoint_count()));

    // Zero-load latency of a request/response round trip, memoized.
    let intrinsic_of = |requester: Coord,
                        origin_bank: Option<u32>,
                        origin_tile: Option<Coord>,
                        cache: &mut [u32]|
     -> u32 {
        let origin = match (origin_bank, origin_tile) {
            (Some(b), None) => b as usize,
            (None, Some(t)) => bankmap.banks() as usize + dims.index(t),
            _ => unreachable!("exactly one origin"),
        };
        let key = dims.index(requester) * origins + origin;
        if cache[key] != 0 {
            return cache[key];
        }
        let v = match (origin_bank, origin_tile) {
            (Some(bank), None) => {
                let dest = bankmap.dest(bank);
                let fwd = walk_route_from(&req_cfg, requester, Dir::P, dest).len() as u32;
                let (entry_at, entry_dir) = ruche_noc::routing::edge_entry(
                    dims,
                    dest.edge.expect("bank dest is an edge"),
                    dest.coord.x,
                );
                let back = walk_route_from(&resp_cfg, entry_at, entry_dir, Dest::tile(requester))
                    .len() as u32;
                // +1 for the request's source-queue-to-FIFO injection
                // cycle (the response injects in the same cycle the bank
                // emits it).
                fwd + back + sys.llc_latency + 1
            }
            (None, Some(t)) => {
                let fwd = walk_route_from(&req_cfg, requester, Dir::P, Dest::tile(t)).len() as u32;
                let back =
                    walk_route_from(&resp_cfg, t, Dir::P, Dest::tile(requester)).len() as u32;
                fwd + back + 1 + 1
            }
            _ => unreachable!(),
        };
        debug_assert!(v >= 1, "a round trip takes at least one cycle");
        cache[key] = v;
        v
    };

    loop {
        if cycle >= sys.max_cycles {
            return Err(MachineError::CycleLimit {
                cycles: sys.max_cycles,
            });
        }

        // 1. LLC banks and scratchpad servers emit at most one response per
        //    cycle into the response network.
        bank_busy.retain(|bank| {
            let q = &mut bank_q[bank];
            if q.front().is_some_and(|p| p.ready <= cycle) {
                let p = q.pop_front().expect("checked front");
                let dest_bank = bankmap.dest(bank as u32);
                let ep = if (bank as u32) < bankmap.banks() / 2 {
                    resp.north_endpoint(dest_bank.coord.x)
                } else {
                    resp.south_endpoint(dest_bank.coord.x)
                };
                let requester = dims.coord(p.requester as usize);
                let flit = Flit::single(dest_bank.coord, Dest::tile(requester), next_id, p.birth)
                    .with_payload(
                        encode_payload(p.kind, p.requester) | (1 << 32) | ((bank as u64) << 33),
                    );
                next_id += 1;
                resp.enqueue(ep, flit);
            }
            !q.is_empty()
        });
        server_busy.retain(|tile| {
            let q = &mut server_q[tile];
            if q.front().is_some_and(|p| p.ready <= cycle) {
                let p = q.pop_front().expect("checked front");
                let server = dims.coord(tile);
                let requester = dims.coord(p.requester as usize);
                let ep = resp.tile_endpoint(server);
                let flit = Flit::single(server, Dest::tile(requester), next_id, p.birth)
                    .with_payload(encode_payload(p.kind, p.requester) | ((tile as u64) << 33));
                next_id += 1;
                resp.enqueue(ep, flit);
            }
            !q.is_empty()
        });

        // 2. Step the request network; ejections land at banks or servers.
        ejected.clear();
        ejected.extend_from_slice(req.step());
        for &(ep, f) in &ejected {
            let (kind, requester) = decode_payload(f.payload);
            let pending = Pending {
                ready: cycle + sys.llc_latency as u64,
                requester,
                birth: f.birth,
                kind,
            };
            match req.endpoint_kind(ep) {
                EndpointKind::NorthEdge(_) | EndpointKind::SouthEdge(_) => {
                    // Edge endpoints follow the tiles in bank order: the
                    // north row, then the south row.
                    let bank = ep.0 - n_tiles;
                    bank_q[bank].push_back(pending);
                    bank_busy.insert(bank);
                    debug_assert!(bank_q[bank].len() <= bank_bound, "bank queue bound");
                }
                EndpointKind::Tile(c) => {
                    let tile = dims.index(c);
                    server_q[tile].push_back(Pending {
                        ready: cycle + 1,
                        ..pending
                    });
                    server_busy.insert(tile);
                    debug_assert!(server_q[tile].len() <= 2, "server queue bound");
                }
            }
        }

        // 3. Step the response network; deliveries wake the cores and are
        //    measured.
        ejected.clear();
        ejected.extend_from_slice(resp.step());
        for &(ep, f) in &ejected {
            let EndpointKind::Tile(c) = resp.endpoint_kind(ep) else {
                unreachable!("responses terminate at tiles");
            };
            let idx = dims.index(c);
            cores[idx].on_response();
            let (kind, _) = decode_payload(f.payload);
            if kind.measured() {
                let total = (cycle - f.birth) as f64;
                let is_bank = f.payload & (1 << 32) != 0;
                let origin = (f.payload >> 33) as u32 & 0x00FF_FFFF;
                let intrinsic = if is_bank {
                    intrinsic_of(c, Some(origin), None, &mut intrinsic_cache)
                } else {
                    let t = dims.coord(origin as usize);
                    intrinsic_of(c, None, Some(t), &mut intrinsic_cache)
                } as f64;
                lat.total.add(total);
                lat.intrinsic.add(intrinsic);
                lat.congestion.add((total - intrinsic).max(0.0));
            }
        }

        // 4. Cores execute; their states after the tick are counted for
        //    the barrier and completion checks.
        let (mut running, mut at_barrier, mut done) = (0usize, 0usize, 0usize);
        for (idx, core) in cores.iter_mut().enumerate() {
            // Tile endpoints are numbered like tiles, row-major.
            let ep = EndpointId(idx);
            let can_issue = req.source_len(ep) < sys.nic_depth;
            if let CoreAction::Issue(mreq) = core.tick(can_issue) {
                let c = dims.coord(idx);
                let (dest, kind) = match mreq {
                    MemRequest::Load(a) => (bankmap.dest(ipoly.bank(a)), ReqKind::Load),
                    MemRequest::Store(a) => (bankmap.dest(ipoly.bank(a)), ReqKind::Store),
                    MemRequest::Amo(a) => (bankmap.dest(ipoly.bank(a)), ReqKind::Amo),
                    MemRequest::LoadTile(t) => (Dest::tile(t), ReqKind::LoadTile),
                };
                let flit = Flit::single(c, dest, next_id, cycle)
                    .with_payload(encode_payload(kind, idx as u32));
                next_id += 1;
                req.enqueue(ep, flit);
            }
            match core.state() {
                CoreState::Running => running += 1,
                CoreState::AtBarrier => at_barrier += 1,
                CoreState::Done => done += 1,
            }
        }

        // 5. Barrier release: when no core is still running, wake everyone
        //    waiting.
        if at_barrier > 0 && running == 0 {
            for c in cores.iter_mut() {
                if c.state() == CoreState::AtBarrier {
                    c.release_barrier();
                }
            }
        }

        cycle += 1;
        // A release leaves `done` as it was (and short of every core).
        if done == n_tiles
            && req.is_quiescent()
            && resp.is_quiescent()
            && bank_busy.is_empty()
            && server_busy.is_empty()
        {
            break;
        }
    }

    // Aggregate statistics and energy.
    let instructions: u64 = cores.iter().map(|c| c.stats.instructions).sum();
    let stall_cycles: u64 = cores.iter().map(|c| c.stats.stall_cycles).sum();
    let idle_cycles: u64 = cores.iter().map(|c| c.stats.idle_cycles).sum();
    let mem_ops: u64 = cores.iter().map(|c| c.stats.mem_ops).sum();

    let tech = Tech::n12();
    let mut router_pj = 0.0;
    let mut wire_pj = 0.0;
    for (net, cfg) in [(&req, &req_cfg), (&resp, &resp_cfg)] {
        let model = EnergyModel::new(cfg, tech);
        for (_, dir, count) in net.link_loads().iter() {
            if count == 0 {
                continue;
            }
            router_pj += count as f64 * model.router_energy_pj(dir);
            wire_pj += count as f64 * model.link_energy_pj(dir);
        }
    }
    let energy = EnergyBreakdown {
        core_pj: instructions as f64 * sys.e_instr_pj,
        stall_pj: (stall_cycles + idle_cycles) as f64 * sys.e_stall_pj,
        router_pj,
        wire_pj,
    };

    let telemetry = telemetry_window.map(|_| MachineTelemetry {
        req: req.detach_telemetry().expect("attached above"),
        resp: resp.detach_telemetry().expect("attached above"),
        cores: cores.iter().map(|c| c.stats).collect(),
    });

    Ok((
        RunResult {
            label: sys.net.label(),
            cycles: cycle,
            instructions,
            stall_cycles,
            idle_cycles,
            mem_ops,
            load_latency: lat,
            energy,
        },
        telemetry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_model::Op;
    use crate::kernels::{Benchmark, DatasetId, Workload};

    fn tiny_net() -> NetworkConfig {
        NetworkConfig::mesh(Dims::new(8, 4))
    }

    fn manual(programs: Vec<Vec<Op>>) -> Workload {
        Workload {
            name: "manual".into(),
            programs,
        }
    }

    #[test]
    fn payload_codec_roundtrip() {
        for kind in [
            ReqKind::Load,
            ReqKind::Store,
            ReqKind::Amo,
            ReqKind::LoadTile,
        ] {
            let p = encode_payload(kind, 12345);
            let (k, r) = decode_payload(p);
            assert_eq!(k, kind);
            assert_eq!(r, 12345);
        }
    }

    #[test]
    fn single_load_round_trip_latency_is_intrinsic() {
        let dims = Dims::new(8, 4);
        let mut programs = vec![vec![]; dims.count()];
        programs[0] = vec![Op::Load(42), Op::WaitAll];
        let res = run(&SystemConfig::new(tiny_net()), &manual(programs)).unwrap();
        assert_eq!(res.load_latency.total.count(), 1);
        // An uncontended load has zero congestion latency.
        assert_eq!(res.load_latency.congestion.mean(), 0.0);
        assert_eq!(
            res.load_latency.total.mean(),
            res.load_latency.intrinsic.mean()
        );
        assert!(res.cycles > 5 && res.cycles < 60, "cycles {}", res.cycles);
    }

    #[test]
    fn stores_and_amos_complete() {
        let dims = Dims::new(8, 4);
        let mut programs = vec![vec![]; dims.count()];
        programs[3] = vec![Op::Store(7), Op::Amo(9), Op::WaitAll, Op::Compute(2)];
        let res = run(&SystemConfig::new(tiny_net()), &manual(programs)).unwrap();
        assert_eq!(res.mem_ops, 2);
        // Only the AMO is measured as a load-like access.
        assert_eq!(res.load_latency.total.count(), 1);
    }

    #[test]
    fn tile_to_tile_scratchpad_loads_work() {
        let dims = Dims::new(8, 4);
        let mut programs = vec![vec![]; dims.count()];
        programs[0] = vec![Op::LoadTile(Coord::new(5, 2)), Op::WaitAll];
        let res = run(&SystemConfig::new(tiny_net()), &manual(programs)).unwrap();
        assert_eq!(res.load_latency.total.count(), 1);
        assert!(res.cycles < 60);
    }

    #[test]
    fn barriers_synchronize_all_cores() {
        let dims = Dims::new(8, 4);
        // One slow core; everyone else hits the barrier immediately. The
        // fast cores must wait for the slow one.
        let mut programs = vec![vec![Op::Barrier, Op::Compute(1)]; dims.count()];
        programs[0] = vec![Op::Compute(200), Op::Barrier, Op::Compute(1)];
        let res = run(&SystemConfig::new(tiny_net()), &manual(programs)).unwrap();
        assert!(res.cycles > 200, "cycles {}", res.cycles);
        assert!(res.stall_cycles > 30 * 190, "stalls {}", res.stall_cycles);
    }

    #[test]
    fn workload_shape_mismatch_errors() {
        let err = run(&SystemConfig::new(tiny_net()), &manual(vec![vec![]])).unwrap_err();
        assert!(matches!(err, MachineError::WorkloadShape { .. }));
    }

    #[test]
    fn cycle_cap_errors_instead_of_hanging() {
        let dims = Dims::new(8, 4);
        let mut sys = SystemConfig::new(tiny_net());
        sys.max_cycles = 50;
        let mut programs = vec![vec![]; dims.count()];
        programs[0] = vec![Op::Compute(10_000)];
        let err = run(&sys, &manual(programs)).unwrap_err();
        assert!(matches!(err, MachineError::CycleLimit { .. }));
    }

    #[test]
    fn jacobi_runs_end_to_end_on_mesh_and_ruche() {
        let w = Workload::build(Benchmark::Jacobi, DatasetId::Default, Dims::new(8, 4));
        let mesh = run(&SystemConfig::new(tiny_net()), &w).unwrap();
        let ruche = run(
            &SystemConfig::new(NetworkConfig::half_ruche(
                Dims::new(8, 4),
                2,
                CrossbarScheme::Depopulated,
            )),
            &w,
        )
        .unwrap();
        assert!(mesh.cycles > 0 && ruche.cycles > 0);
        assert!(mesh.instructions == ruche.instructions, "same work");
        assert!(mesh.energy.total_pj() > 0.0);
        assert_eq!(ruche.label, "half-ruche2-depop");
        // Jacobi's halo exchange is local-only, but its LLC slab streaming
        // rides the Ruche highway; mesh has no long wires at all.
        assert_eq!(mesh.energy.wire_pj, 0.0);
        assert!(ruche.energy.wire_pj > 0.0);
    }

    #[test]
    fn llc_streaming_uses_ruche_wires() {
        let dims = Dims::new(8, 4);
        let w = Workload::build(Benchmark::Sgemm, DatasetId::Default, dims);
        let mesh = run(&SystemConfig::new(NetworkConfig::mesh(dims)), &w).unwrap();
        let ruche = run(
            &SystemConfig::new(NetworkConfig::half_ruche(
                dims,
                2,
                CrossbarScheme::Depopulated,
            )),
            &w,
        )
        .unwrap();
        assert_eq!(mesh.energy.wire_pj, 0.0);
        assert!(ruche.energy.wire_pj > 0.0, "LLC traffic rides the highway");
    }

    #[test]
    fn congestion_latency_appears_under_load() {
        // Everyone streams to the LLC: horizontal bisection congests and
        // measured congestion latency becomes non-trivial.
        let dims = Dims::new(8, 4);
        let programs = vec![(0..200u64).map(Op::Load).chain([Op::WaitAll]).collect(); dims.count()];
        let res = run(&SystemConfig::new(tiny_net()), &manual(programs)).unwrap();
        assert!(res.load_latency.congestion.mean() > 1.0);
        assert!(res.load_latency.total.mean() > res.load_latency.intrinsic.mean());
    }

    #[test]
    fn deterministic_runs() {
        let w = Workload::build(Benchmark::Sgemm, DatasetId::Default, Dims::new(8, 4));
        let a = run(&SystemConfig::new(tiny_net()), &w).unwrap();
        let b = run(&SystemConfig::new(tiny_net()), &w).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stall_cycles, b.stall_cycles);
    }

    #[test]
    fn probed_run_simulates_identically_and_exports() {
        use ruche_telemetry::JsonProbe;
        let w = Workload::build(Benchmark::Jacobi, DatasetId::Default, Dims::new(8, 4));
        let sys = SystemConfig::new(tiny_net());
        let plain = run(&sys, &w).unwrap();
        let (probed, tel) = run_probed(&sys, &w, 64).unwrap();
        // Telemetry observes; it must not perturb the simulation.
        assert_eq!(plain.cycles, probed.cycles);
        assert_eq!(plain.stall_cycles, probed.stall_cycles);
        assert_eq!(plain.energy, probed.energy);

        assert_eq!(tel.req.cycles(), probed.cycles);
        assert_eq!(tel.cores.len(), 32);
        // Per-core causes partition each core's stall total.
        for s in &tel.cores {
            assert_eq!(s.stall_breakdown(), s.stall_cycles, "{s:?}");
        }
        // The request network moved traffic; the export nests both
        // networks and the core arrays under distinct prefixes.
        let mut p = JsonProbe::new();
        tel.export(&mut p);
        let blob = p.into_json();
        for key in [
            "req.cycles",
            "resp.cycles",
            "core.instructions",
            "core.stall_nic",
        ] {
            assert!(blob.contains(&format!("\"{key}\"")), "missing {key}");
        }
        // Byte-identical across identical probed runs.
        let (_, tel2) = run_probed(&sys, &w, 64).unwrap();
        let mut p2 = JsonProbe::new();
        tel2.export(&mut p2);
        assert_eq!(blob, p2.into_json());
    }
}
