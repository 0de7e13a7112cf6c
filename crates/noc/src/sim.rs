//! The cycle-accurate network simulation engine.
//!
//! The engine advances the whole network one cycle at a time with a
//! two-phase (plan / commit) update, so every decision a router makes in
//! cycle *t* observes exactly the state at the start of cycle *t* — the
//! synchronous-RTL semantics the paper's evaluation is based on. Flits move
//! at one cycle per hop in all networks (§4.1).
//!
//! Wormhole routers (mesh, multi-mesh, Ruche) use ready-valid-and
//! handshakes: a request is raised regardless of downstream readiness, and
//! the round-robin arbiter's grant is qualified by the downstream FIFO
//! having space. VC routers (torus) use ready-then-valid with credit-based
//! flow control and a wavefront switch allocator; credits return with a
//! one-cycle latency, which the two-element FIFOs exactly cover.
//!
//! All router state lives in flat per-network arrays indexed by the
//! channel *slot* `(node * np + port) * max_vcs + vc` (or by `node * np +
//! port` for per-port state): input FIFOs are fixed-depth rings in one flit
//! slab, and the worklists of busy routers and sources are bitsets whose
//! set bits iterate in ascending order, the deterministic plan order. Each
//! slot keeps two packed `PortVc` words: the route of the packet at the
//! head of its input FIFO, and the owner of its output VC.

use crate::arbiter::{RoundRobin, Wavefront};
use crate::crossbar::Connectivity;
use crate::error::Error;
use crate::fault::{FaultModel, RouteTable};
use crate::geometry::{Coord, Dir};
use crate::packet::Flit;
use crate::routing::{compute_route, Dest};
use crate::telemetry::{BlockCause, NetTelemetry};
use crate::topology::{ConfigError, NetworkConfig, StepMode};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A static-verification pass over a [`NetworkConfig`], returning a rendered
/// findings report on failure (see `ruche-verify`, which provides one).
pub type ConfigVerifier = fn(&NetworkConfig) -> Result<(), String>;

static DEBUG_VERIFIER: OnceLock<ConfigVerifier> = OnceLock::new();

/// Registers a verifier that [`Network::new`] runs on every configuration
/// in debug builds (`debug_assertions`), so each test and debug run is
/// statically checked for free. The first registration wins; returns
/// whether this call installed `f`.
///
/// The `noc` crate cannot depend on its own verifier (the checker lives in
/// `ruche-verify`, downstream of this crate), so the hook is injected:
/// call `ruche_verify::install_debug_hook()` once at harness start.
pub fn register_debug_verifier(f: ConfigVerifier) -> bool {
    DEBUG_VERIFIER.set(f).is_ok()
}

/// The registered debug-build config verifier, if any.
pub fn debug_verifier() -> Option<ConfigVerifier> {
    DEBUG_VERIFIER.get().copied()
}

/// Identifier of a traffic endpoint (tile processor port, or an edge
/// memory endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub usize);

/// What an [`EndpointId`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// The processor port of a tile.
    Tile(Coord),
    /// The memory endpoint north of column `col`.
    NorthEdge(u16),
    /// The memory endpoint south of column `col`.
    SouthEdge(u16),
}

/// Where an output channel leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkTarget {
    /// Another router's input port: its node, and its (node, port) index
    /// `node * np + port`.
    Router { node: u32, input: u32 },
    /// An endpoint sink (P ejection, or an edge memory endpoint).
    Endpoint(EndpointId),
    /// Tied off (array edge).
    None,
}

/// Aggregate motion counters (reported through [`NetSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NetStats {
    /// Flits that have entered a router FIFO from a source queue.
    injected: u64,
    /// Flits delivered to endpoint sinks.
    ejected: u64,
}

/// A worklist of indices below a fixed bound, as a bitset: membership is
/// one bit, and the members iterate in ascending order without sorting.
/// The network keeps its busy routers and sources in one; the manycore
/// machine keeps its non-empty memory queues in one.
#[derive(Debug, Clone)]
pub struct BitSet {
    words: Vec<u64>,
    /// Members, so emptiness is O(1).
    len: usize,
}

impl BitSet {
    /// An empty set for indices below `bound`.
    pub fn new(bound: usize) -> Self {
        BitSet {
            words: vec![0; bound.div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `i` (a no-op if present).
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    /// Removes `i` (a no-op if absent).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.len -= 1;
        }
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word).map(move |b| w * 64 + b))
    }

    /// Visits the members in ascending order, keeping those for which
    /// `keep` returns true. `keep` may not add members.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for w in 0..self.words.len() {
            for b in set_bits(self.words[w]) {
                if !keep(w * 64 + b) {
                    self.words[w] &= !(1 << b);
                    self.len -= 1;
                }
            }
        }
    }
}

/// The positions of the set bits of `word`, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// A (port, VC) pair packed in one `u16`, or [`PortVc::NONE`]: the
/// per-slot route and owner words the plan reads and the commit writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortVc(u16);

impl PortVc {
    /// No pair: no route decided yet, or no owner.
    const NONE: PortVc = PortVc(u16::MAX);

    #[inline]
    fn new(port: u8, vc: u8) -> Self {
        // Ports are fewer than 13 and VCs fewer than 32, so no real pair
        // packs to `NONE`.
        PortVc(u16::from(port) << 8 | u16::from(vc))
    }

    #[inline]
    fn get(self) -> Option<(u8, u8)> {
        (self != Self::NONE).then_some(((self.0 >> 8) as u8, self.0 as u8))
    }
}

/// Every router input FIFO of a network: one fixed-depth ring per channel
/// slot, all in one flit slab, with a `u8` head and length per slot.
#[derive(Debug, Clone)]
struct Fifos {
    /// `depth` flits per slot; only the `len` entries from `head` (mod
    /// `depth`) are live.
    buf: Vec<Flit>,
    head: Vec<u8>,
    len: Vec<u8>,
    depth: usize,
}

impl Fifos {
    fn new(slots: usize, depth: usize) -> Self {
        // `NetworkConfig::validate` guarantees the depth fits the `u8`s.
        assert!((1..=NetworkConfig::MAX_FIFO_DEPTH).contains(&depth));
        // The filler is never read: a slot's flits are read only while live.
        let filler = Flit::single(Coord::new(0, 0), Dest::tile(Coord::new(0, 0)), 0, 0);
        Fifos {
            buf: vec![filler; slots * depth],
            head: vec![0; slots],
            len: vec![0; slots],
            depth,
        }
    }

    #[inline]
    fn len(&self, s: usize) -> usize {
        self.len[s] as usize
    }

    #[inline]
    fn head(&self, s: usize) -> Option<&Flit> {
        (self.len[s] > 0).then(|| &self.buf[s * self.depth + self.head[s] as usize])
    }

    /// Pushes to the tail of slot `s`, or returns the flit if it is full.
    /// Head and length stay below `depth`, so the tail wraps by one
    /// compare instead of a division.
    #[inline]
    fn try_push(&mut self, s: usize, flit: Flit) -> Result<(), Flit> {
        let len = self.len[s] as usize;
        if len == self.depth {
            return Err(flit);
        }
        let mut at = self.head[s] as usize + len;
        if at >= self.depth {
            at -= self.depth;
        }
        self.buf[s * self.depth + at] = flit;
        self.len[s] += 1;
        Ok(())
    }

    #[inline]
    fn pop(&mut self, s: usize) -> Option<Flit> {
        let flit = *self.head(s)?;
        let next = self.head[s] + 1;
        self.head[s] = if next as usize == self.depth { 0 } else { next };
        self.len[s] -= 1;
        Some(flit)
    }
}

/// Entries per chunk of the [`Sources`] pool (a power of two).
const SOURCE_CHUNK: usize = 256;

/// The end of a [`Sources`] list.
const NIL: u32 = u32::MAX;

/// Every endpoint's unbounded source queue (the open-loop injection model):
/// singly linked lists threaded through one flit pool shared by all
/// endpoints. The pool grows by fixed-size chunks that never move, and a
/// popped entry is reused by whichever endpoint pushes next, so the pool
/// holds the peak *total* backlog. A driver that bounds that backlog
/// reserves it once ([`Network::reserve_sources`]) and never allocates.
#[derive(Debug, Clone)]
struct Sources {
    /// Chunks of [`SOURCE_CHUNK`] entries, each a flit and the index of the
    /// next entry in its list (or the free list); filled in order.
    chunks: Vec<Vec<(Flit, u32)>>,
    /// Entries handed out from the chunks so far.
    used: usize,
    /// Head of the free list.
    free: u32,
    /// Per endpoint: first and last entry (`NIL` when empty), and length.
    head: Vec<u32>,
    tail: Vec<u32>,
    lens: Vec<u32>,
    /// Flits queued over all endpoints.
    total: usize,
}

impl Sources {
    fn new(endpoints: usize) -> Self {
        Sources {
            chunks: Vec::new(),
            used: 0,
            free: NIL,
            head: vec![NIL; endpoints],
            tail: vec![NIL; endpoints],
            lens: vec![0; endpoints],
            total: 0,
        }
    }

    /// Makes room for `backlog` flits queued at once, over all endpoints.
    fn reserve(&mut self, backlog: usize) {
        let chunks = backlog.div_ceil(SOURCE_CHUNK);
        self.chunks
            .reserve(chunks.saturating_sub(self.chunks.len()));
        while self.chunks.len() < chunks {
            self.chunks.push(Vec::with_capacity(SOURCE_CHUNK));
        }
    }

    #[inline]
    fn entry(&mut self, i: u32) -> &mut (Flit, u32) {
        let i = i as usize;
        &mut self.chunks[i / SOURCE_CHUNK][i % SOURCE_CHUNK]
    }

    fn len(&self, ep: usize) -> usize {
        self.lens[ep] as usize
    }

    fn push(&mut self, ep: usize, flit: Flit) {
        let i = if self.free != NIL {
            let i = self.free;
            let e = self.entry(i);
            let next = e.1;
            *e = (flit, NIL);
            self.free = next;
            i
        } else {
            let (chunk, i) = (self.used / SOURCE_CHUNK, self.used);
            if chunk == self.chunks.len() {
                self.chunks.push(Vec::with_capacity(SOURCE_CHUNK));
            }
            self.chunks[chunk].push((flit, NIL));
            self.used += 1;
            u32::try_from(i).expect("source backlog fits u32 indices")
        };
        match self.tail[ep] {
            NIL => self.head[ep] = i,
            t => self.entry(t).1 = i,
        }
        self.tail[ep] = i;
        self.lens[ep] += 1;
        self.total += 1;
    }

    fn pop(&mut self, ep: usize) -> Option<Flit> {
        let i = self.head[ep];
        if i == NIL {
            return None;
        }
        let free = self.free;
        let e = self.entry(i);
        let (flit, next) = *e;
        e.1 = free;
        self.free = i;
        self.head[ep] = next;
        if next == NIL {
            self.tail[ep] = NIL;
        }
        self.lens[ep] -= 1;
        self.total -= 1;
        Some(flit)
    }
}

/// A versioned, point-in-time view of the aggregate simulation state.
///
/// The snapshot is `Copy` and computing it allocates nothing, so it is safe
/// to take every cycle inside a simulation driver loop.
///
/// # Examples
///
/// ```
/// use ruche_noc::prelude::*;
///
/// let net = Network::new(NetworkConfig::mesh(Dims::new(4, 4)))?;
/// let s = net.snapshot();
/// assert_eq!(s.version, NetSnapshot::VERSION);
/// assert!(s.is_idle());
/// # Ok::<(), ruche_noc::topology::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetSnapshot {
    /// Snapshot layout version ([`NetSnapshot::VERSION`]); bumped whenever
    /// a field changes meaning, so persisted consumers can detect skew.
    pub version: u32,
    /// Current cycle count.
    pub cycle: u64,
    /// Flits that have entered a router FIFO from a source queue.
    pub injected: u64,
    /// Flits delivered to endpoint sinks.
    pub ejected: u64,
    /// Flits currently buffered inside routers (or in pipeline transit).
    pub in_flight: usize,
    /// Flits waiting in endpoint source queues.
    pub queued: usize,
    /// Cycles elapsed since a flit last moved (deadlock watchdog).
    pub cycles_since_progress: u64,
}

impl NetSnapshot {
    /// The current snapshot layout version.
    pub const VERSION: u32 = 1;

    /// Whether the network holds no traffic at all (nothing buffered,
    /// nothing queued at sources).
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.queued == 0
    }
}

/// A borrowed view of the per-(node, output port) flit traversal counters.
///
/// # Examples
///
/// ```
/// use ruche_noc::prelude::*;
///
/// let net = Network::new(NetworkConfig::mesh(Dims::new(4, 4)))?;
/// let loads = net.link_loads();
/// let total: u64 = loads.iter().map(|(_, _, n)| n).sum();
/// assert_eq!(total, 0);
/// # Ok::<(), ruche_noc::topology::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LinkLoads<'a> {
    ports: &'a [Dir],
    counts: &'a [u64],
}

impl LinkLoads<'_> {
    /// The router port directions, in port-index order.
    pub fn ports(&self) -> &[Dir] {
        self.ports
    }

    /// Flits forwarded through (node, output port) so far.
    pub fn count(&self, node: usize, port: usize) -> u64 {
        self.counts[node * self.ports.len() + port]
    }

    /// The raw counters, indexed `node * ports().len() + port`.
    pub fn raw(&self) -> &[u64] {
        self.counts
    }

    /// Iterates `(node, direction, count)` over every output channel.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Dir, u64)> + '_ {
        let np = self.ports.len();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &n)| (i / np, self.ports[i % np], n))
    }
}

/// A cycle-accurate network instance.
///
/// # Examples
///
/// ```
/// use ruche_noc::prelude::*;
///
/// let cfg = NetworkConfig::full_ruche(Dims::new(4, 4), 2, CrossbarScheme::FullyPopulated);
/// let mut net = Network::new(cfg)?;
/// let src = Coord::new(0, 0);
/// let dst = Coord::new(3, 3);
/// net.enqueue(net.tile_endpoint(src), Flit::single(src, Dest::tile(dst), 0, 0));
/// let mut delivered = None;
/// for _ in 0..32 {
///     if let Some(&(ep, flit)) = net.step().first() {
///         delivered = Some((ep, flit));
///         break;
///     }
/// }
/// let (ep, _) = delivered.expect("packet delivered");
/// assert_eq!(net.endpoint_kind(ep), EndpointKind::Tile(dst));
/// # Ok::<(), ruche_noc::topology::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    ports: Vec<Dir>,
    conn: Connectivity,
    /// VC count per port index (the same at every router).
    port_vcs: Vec<u8>,
    /// Router coordinate per node.
    coords: Vec<Coord>,
    /// Input FIFOs, per channel slot.
    fifos: Fifos,
    /// Route decision (output port, output VC) of the packet at the head of
    /// each input slot: computed once by its head flit, kept while the
    /// packet's body follows, cleared when its tail leaves — route compute
    /// runs once per packet and hop, not once per cycle a head waits.
    route: Vec<PortVc>,
    /// Owner (input port, input VC) of each output slot while a multi-flit
    /// packet holds it: the wormhole path lock (one VC per port) and the
    /// VC router's output-VC allocation.
    owner: Vec<PortVc>,
    /// Downstream credits per output slot (meaningful where `counted`). On
    /// a router link they equal the downstream FIFO's free space, flits in
    /// the hop pipeline counted as occupying it.
    credits: Vec<u8>,
    /// Whether each (node, output port) tracks credits: false for endpoint
    /// sinks, which always accept one flit per cycle.
    counted: Vec<bool>,
    /// Where each (node, output port) leads.
    out_links: Vec<LinkTarget>,
    /// The (node, output port) index feeding each (node, input port) from
    /// another router, which the input returns credits to.
    upstream: Vec<Option<u32>>,
    /// Per-endpoint unbounded source queues (open-loop injection model).
    sources: Sources,
    /// Per-endpoint injection entry point: (node, input port).
    entries: Vec<(usize, usize)>,
    ejected: Vec<(EndpointId, Flit)>,
    cycle: u64,
    stats: NetStats,
    in_flight: usize,
    last_progress: u64,
    /// Flit counts per (node, output port), for the energy model.
    traversals: Vec<u64>,
    /// Per router, one bit per non-empty input FIFO, at bit `port *
    /// max_vcs + vc`: the planners visit only these inputs, and a router
    /// is on the `active` worklist exactly while its mask is non-zero.
    busy: Vec<u32>,
    max_vcs: usize,
    /// Flits in flight through extra pipeline stages, in arrival order:
    /// (arrival cycle, node, slot, flit). Empty when
    /// `pipeline_stages == 0`.
    in_transit: VecDeque<(u64, usize, usize, Flit)>,
    /// Delayed ejections (pipelined networks).
    in_transit_eject: VecDeque<(u64, EndpointId, Flit)>,
    /// Routers with at least one buffered flit, the only ones the planners
    /// visit, in ascending node order.
    active: BitSet,
    /// Endpoints with a non-empty source queue, the only ones the injection
    /// planner visits.
    active_src: BitSet,
    /// Endpoints planned to inject this cycle (reusable scratch; the cycle
    /// loop performs no heap allocation in steady state).
    scratch_inject: Vec<u32>,
    /// Wormhole round-robin arbiters, one per (node, output port). Empty
    /// for VC networks.
    out_rr: Vec<RoundRobin>,
    /// VC-router per-input VC selectors, one per (node, input port).
    /// Empty for wormhole networks.
    in_rr_vc: Vec<RoundRobin>,
    /// VC-router wavefront switch allocators, one per node (closed-form
    /// grant; see [`Wavefront`]). Empty for wormhole networks.
    sw_alloc: Vec<Wavefront>,
    /// Grants planned this cycle, in ascending node order (reusable
    /// scratch, sized for one transfer per output port).
    transfers: Vec<Transfer>,
    /// Per-router planner scratch.
    scratch: PlanScratch,
    /// Attached per-link instrumentation; `None` (the default) keeps the
    /// cycle loop allocation-free and branch-cheap.
    telemetry: Option<Box<NetTelemetry>>,
    /// Fault-aware route table; `None` (the unfaulted default) keeps
    /// routing on the exact DOR fast path.
    fault_plan: Option<Box<RouteTable>>,
}

impl Network {
    /// Builds the network for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`NetworkConfig::validate`] if the
    /// configuration is inconsistent.
    pub fn new(cfg: NetworkConfig) -> Result<Self, ConfigError> {
        Self::build(cfg, None)
    }

    /// Builds the network for `cfg` with `faults` injected: dead channels
    /// are tied off at construction and all routing goes through the
    /// fault-aware [`RouteTable`] (see [`crate::fault`]). An empty fault
    /// model takes the exact [`Network::new`] path — no table is built and
    /// behaviour is bit-identical to the unfaulted network.
    ///
    /// Flits must only be enqueued toward destinations that
    /// [`RouteTable::reachable`] confirms, and only at live endpoints
    /// ([`Network::endpoint_alive`]); the traffic layer enforces both.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`NetworkConfig::validate`] or the
    /// [`FaultError`](crate::fault::FaultError) from
    /// [`FaultModel::validate`], converted into the workspace [`Error`].
    pub fn with_faults(cfg: NetworkConfig, faults: &FaultModel) -> Result<Self, Error> {
        if faults.is_empty() {
            return Ok(Self::new(cfg)?);
        }
        cfg.validate()?;
        let table = RouteTable::build(&cfg, faults)?;
        Ok(Self::build(cfg, Some(Box::new(table)))?)
    }

    fn build(cfg: NetworkConfig, fault_plan: Option<Box<RouteTable>>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        #[cfg(debug_assertions)]
        if let Some(verifier) = debug_verifier() {
            if let Err(report) = verifier(&cfg) {
                panic!(
                    "static network verification failed for {}:\n{report}",
                    cfg.label()
                );
            }
        }
        let ports = cfg.ports();
        let np = ports.len();
        let dims = cfg.dims;
        let n_nodes = dims.count();
        let conn = Connectivity::of(&cfg);

        let pidx = |d: Dir| {
            ports
                .iter()
                .position(|&p| p == d)
                .expect("every wired direction appears in the config's port list")
        };
        let n_eps = cfg.endpoint_count();
        let max_vcs = ports.iter().map(|&p| cfg.vcs(p)).max().unwrap_or(1);
        let mut out_links = vec![LinkTarget::None; n_nodes * np];
        let mut upstream = vec![None; n_nodes * np];
        let mut entries = vec![(usize::MAX, usize::MAX); n_eps];

        // Dead channels stay `LinkTarget::None` and dead endpoints keep
        // their `usize::MAX` entry sentinel; the fault route table never
        // steers traffic onto either.
        let channel_dead = |at: Coord, out: Dir| {
            fault_plan
                .as_ref()
                .is_some_and(|p| p.faults().channel_dead(&cfg, at, out))
        };
        for c in dims.iter() {
            let node = dims.index(c);
            for (op, &dir) in ports.iter().enumerate() {
                let slot = node * np + op;
                if dir == Dir::P {
                    if !channel_dead(c, dir) {
                        out_links[slot] = LinkTarget::Endpoint(EndpointId(node));
                        entries[node] = (node, pidx(Dir::P));
                    }
                    continue;
                }
                if channel_dead(c, dir) {
                    continue;
                }
                if let Some(nb) = cfg.neighbor(c, dir) {
                    let dn = dims.index(nb);
                    let dp = pidx(dir.opposite());
                    out_links[slot] = LinkTarget::Router {
                        node: dn as u32,
                        input: (dn * np + dp) as u32,
                    };
                    upstream[dn * np + dp] = Some(slot as u32);
                } else if cfg.edge_memory_ports {
                    if dir == Dir::N && c.y == 0 {
                        let ep = EndpointId(n_nodes + c.x as usize);
                        out_links[slot] = LinkTarget::Endpoint(ep);
                        entries[ep.0] = (node, pidx(Dir::N));
                    } else if dir == Dir::S && c.y == dims.rows - 1 {
                        let ep = EndpointId(n_nodes + dims.cols as usize + c.x as usize);
                        out_links[slot] = LinkTarget::Endpoint(ep);
                        entries[ep.0] = (node, pidx(Dir::S));
                    }
                }
            }
        }

        let slots = n_nodes * np * max_vcs;
        assert!(np * max_vcs <= 32, "a router's input FIFOs fit a u32 mask");
        let port_vcs: Vec<u8> = ports.iter().map(|&p| cfg.vcs(p) as u8).collect();
        // Only router links count credits.
        let counted: Vec<bool> = out_links
            .iter()
            .map(|t| matches!(t, LinkTarget::Router { .. }))
            .collect();
        let is_vc = cfg.is_vc_router();
        let out_rr: Vec<RoundRobin> = if is_vc {
            Vec::new()
        } else {
            vec![RoundRobin::new(np); n_nodes * np]
        };
        let in_rr_vc: Vec<RoundRobin> = if is_vc {
            (0..n_nodes)
                .flat_map(|_| ports.iter().map(|&p| RoundRobin::new(cfg.vcs(p))))
                .collect()
        } else {
            Vec::new()
        };
        let sw_alloc: Vec<Wavefront> = if is_vc {
            vec![Wavefront::new(np); n_nodes]
        } else {
            Vec::new()
        };

        Ok(Network {
            ports,
            conn,
            port_vcs,
            coords: dims.iter().collect(),
            fifos: Fifos::new(slots, cfg.fifo_depth),
            route: vec![PortVc::NONE; slots],
            owner: vec![PortVc::NONE; slots],
            // A downstream input mirrors its feeding output's direction
            // class, so each output slot starts with one FIFO of credit.
            credits: vec![cfg.fifo_depth as u8; slots],
            counted,
            out_links,
            upstream,
            sources: Sources::new(n_eps),
            entries,
            ejected: Vec::with_capacity(n_eps),
            cycle: 0,
            stats: NetStats::default(),
            in_flight: 0,
            last_progress: 0,
            traversals: vec![0; n_nodes * np],
            busy: vec![0; n_nodes],
            max_vcs,
            in_transit: VecDeque::new(),
            in_transit_eject: VecDeque::new(),
            active: BitSet::new(n_nodes),
            active_src: BitSet::new(n_eps),
            scratch_inject: Vec::with_capacity(n_eps),
            out_rr,
            in_rr_vc,
            sw_alloc,
            transfers: Vec::with_capacity(n_nodes * np),
            scratch: PlanScratch::new(np),
            telemetry: None,
            fault_plan,
            cfg,
        })
    }

    /// Step parallelism, always 1: `Network::step` runs serially on the
    /// calling thread. Parallelism lives at the run level, one simulation
    /// per sweep-pool worker (see `docs/PARALLELISM.md`).
    pub fn step_threads(&self) -> usize {
        1
    }

    /// The clock-advance mode, always [`StepMode::EventDriven`]:
    /// [`Network::run`] and [`Network::fast_forward`] skip provably idle
    /// spans, byte-identically to stepping them (see `docs/EVENTS.md`).
    pub fn step_mode(&self) -> StepMode {
        StepMode::EventDriven
    }

    /// Whether the network provably does nothing until new traffic is
    /// enqueued: no flit is buffered, in pipeline transit, or awaiting a
    /// delayed ejection, and every source queue is empty. Stepping a
    /// quiescent network any number of cycles moves no flit and returns no
    /// ejection — it only advances the clock.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0 && self.active_src.is_empty()
    }

    /// The next cycle in which stepping can move a flit:
    ///
    /// * `Some(self.cycle())` while any router buffers a flit or any source
    ///   queue is non-empty — the very next step may do work;
    /// * `Some(t)` with `t > self.cycle()` when every flit in flight sits
    ///   in the hop pipeline (or a delayed ejection) arriving at cycle `t`
    ///   — every step before `t` is provably empty;
    /// * `None` when the network [`is_quiescent`](Network::is_quiescent) —
    ///   nothing will ever happen without a new [`Network::enqueue`].
    ///
    /// This is the wake-set introspection event-driven drivers use to jump
    /// the clock over dead spans (see [`Network::fast_forward`]).
    pub fn next_event_cycle(&self) -> Option<u64> {
        if !self.active.is_empty() || !self.active_src.is_empty() {
            return Some(self.cycle);
        }
        let transit = self.in_transit.front().map(|&(arrive, ..)| arrive);
        let eject = self.in_transit_eject.front().map(|&(arrive, ..)| arrive);
        match (transit, eject) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Advances the clock across a provably-empty span without simulating
    /// the skipped cycles, stopping at the earlier of `target` and
    /// [`Network::next_event_cycle`]; returns the new current cycle.
    ///
    /// The skip is exact, not approximate: a cycle is only skipped when
    /// stepping it could not move a flit, so counters, watchdog state,
    /// snapshots, and telemetry (idle occupancy samples and empty
    /// injection/ejection bins are recorded in bulk) end up byte-identical
    /// to stepping the span cycle by cycle.
    pub fn fast_forward(&mut self, target: u64) -> u64 {
        let to = match self.next_event_cycle() {
            Some(t) => t.min(target),
            None => target,
        };
        if to > self.cycle {
            self.skip_idle_span(to - self.cycle);
        }
        self.cycle
    }

    /// Bulk-records `n` provably-idle cycles and jumps the clock. Callers
    /// guarantee the span is empty (no buffered flit, no source queue, no
    /// pipeline arrival before `cycle + n`), which makes every per-cycle
    /// effect of stepping the span degenerate: all FIFOs sample occupancy
    /// 0, the injection/ejection series gain empty bins, the ejection
    /// buffer comes back empty, and `last_progress` stays put.
    fn skip_idle_span(&mut self, n: u64) {
        debug_assert!(self.active.is_empty() && self.active_src.is_empty());
        debug_assert!(self.next_event_cycle().is_none_or(|t| t >= self.cycle + n));
        self.ejected.clear();
        if let Some(t) = self.telemetry.as_deref_mut() {
            for node in 0..self.coords.len() {
                for (ip, &vcs) in self.port_vcs.iter().enumerate() {
                    for v in 0..vcs as usize {
                        t.record_occupancy_n(node, ip, v, 0, n);
                    }
                }
            }
            t.record_idle_cycles(n);
        }
        self.cycle += n;
    }

    /// The network configuration.
    pub fn cfg(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The injected fault model, when the network was built with
    /// [`Network::with_faults`] and a non-empty model.
    pub fn faults(&self) -> Option<&FaultModel> {
        self.fault_plan.as_ref().map(|p| p.faults())
    }

    /// The fault-aware route table, when faults are injected.
    pub fn route_table(&self) -> Option<&RouteTable> {
        self.fault_plan.as_deref()
    }

    /// Whether endpoint `ep` survives the injected faults (always true on
    /// an unfaulted network). Dead endpoints must not be enqueued at.
    pub fn endpoint_alive(&self, ep: EndpointId) -> bool {
        self.entries[ep.0].0 != usize::MAX
    }

    /// The derived crossbar connectivity.
    pub fn connectivity(&self) -> &Connectivity {
        &self.conn
    }

    /// The router port directions, in port-index order.
    pub fn ports(&self) -> &[Dir] {
        &self.ports
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// A point-in-time view of the aggregate simulation state: motion
    /// counters, buffered/queued flit counts, and the progress watchdog,
    /// in one versioned struct. Allocation-free.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            version: NetSnapshot::VERSION,
            cycle: self.cycle,
            injected: self.stats.injected,
            ejected: self.stats.ejected,
            in_flight: self.in_flight,
            queued: self.sources.total,
            cycles_since_progress: self.cycle - self.last_progress,
        }
    }

    /// The endpoint of a tile's processor port.
    pub fn tile_endpoint(&self, c: Coord) -> EndpointId {
        EndpointId(self.cfg.dims.index(c))
    }

    /// The endpoint north of column `col`.
    ///
    /// # Panics
    ///
    /// Panics unless the network was built with edge memory ports.
    pub fn north_endpoint(&self, col: u16) -> EndpointId {
        assert!(self.cfg.edge_memory_ports, "no edge endpoints configured");
        EndpointId(self.cfg.dims.count() + col as usize)
    }

    /// The endpoint south of column `col`.
    ///
    /// # Panics
    ///
    /// Panics unless the network was built with edge memory ports.
    pub fn south_endpoint(&self, col: u16) -> EndpointId {
        assert!(self.cfg.edge_memory_ports, "no edge endpoints configured");
        EndpointId(self.cfg.dims.count() + self.cfg.dims.cols as usize + col as usize)
    }

    /// What `ep` refers to.
    pub fn endpoint_kind(&self, ep: EndpointId) -> EndpointKind {
        let n = self.cfg.dims.count();
        let cols = self.cfg.dims.cols as usize;
        if ep.0 < n {
            EndpointKind::Tile(self.cfg.dims.coord(ep.0))
        } else if ep.0 < n + cols {
            EndpointKind::NorthEdge((ep.0 - n) as u16)
        } else {
            EndpointKind::SouthEdge((ep.0 - n - cols) as u16)
        }
    }

    /// Total endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.entries.len()
    }

    /// Queues a flit at endpoint `ep`'s (unbounded) source queue.
    ///
    /// # Panics
    ///
    /// Panics if `ep` was killed by the injected fault model (see
    /// [`Network::endpoint_alive`]).
    pub fn enqueue(&mut self, ep: EndpointId, flit: Flit) {
        assert!(
            self.endpoint_alive(ep),
            "flit enqueued at dead endpoint {ep:?}; check Network::endpoint_alive first"
        );
        self.sources.push(ep.0, flit);
        self.active_src.insert(ep.0);
    }

    /// Makes room for `backlog` flits waiting in source queues at once, over
    /// all endpoints: a driver that bounds its total backlog (the manycore
    /// machine bounds it by the requests its cores may have outstanding)
    /// reserves it here, and queueing never allocates afterwards.
    pub fn reserve_sources(&mut self, backlog: usize) {
        self.sources.reserve(backlog);
    }

    /// Number of flits waiting in `ep`'s source queue.
    pub fn source_len(&self, ep: EndpointId) -> usize {
        self.sources.len(ep.0)
    }

    /// The per-(node, output port) flit traversal counters.
    pub fn link_loads(&self) -> LinkLoads<'_> {
        LinkLoads {
            ports: &self.ports,
            counts: &self.traversals,
        }
    }

    /// Attaches fresh per-link telemetry (see [`NetTelemetry`]); injection
    /// and ejection time series use `window`-cycle bins. Replaces any
    /// previously attached instrument.
    pub fn attach_telemetry(&mut self, window: u64) {
        self.telemetry = Some(Box::new(NetTelemetry::new(
            &self.ports,
            self.cfg.dims.count(),
            self.max_vcs,
            self.cfg.fifo_depth,
            window,
        )));
    }

    /// Detaches and returns the accumulated telemetry, if any was attached.
    pub fn detach_telemetry(&mut self) -> Option<Box<NetTelemetry>> {
        self.telemetry.take()
    }

    /// The attached telemetry, if any.
    pub fn telemetry(&self) -> Option<&NetTelemetry> {
        self.telemetry.as_deref()
    }

    /// Advances one cycle; returns the flits ejected during it.
    pub fn step(&mut self) -> &[(EndpointId, Flit)] {
        self.ejected.clear();
        // Deliver flits whose extra pipeline stages have elapsed (no-op for
        // the paper's single-cycle routers).
        let mut arrived_any = false;
        while self
            .in_transit
            .front()
            .is_some_and(|&(arrive, ..)| arrive <= self.cycle)
        {
            let (_, node, slot, flit) = self.in_transit.pop_front().expect("checked front");
            self.push_input(node, slot, flit);
            arrived_any = true;
        }
        while self
            .in_transit_eject
            .front()
            .is_some_and(|&(arrive, ..)| arrive <= self.cycle)
        {
            let (_, ep, flit) = self.in_transit_eject.pop_front().expect("checked front");
            self.stats.ejected += 1;
            self.in_flight -= 1;
            self.ejected.push((ep, flit));
            arrived_any = true;
        }
        if arrived_any {
            self.last_progress = self.cycle;
        }

        // Plan injections against cycle-start occupancy. Only endpoints
        // with queued flits are visited, in ascending order; an empty
        // worklist skips even the scan of its words.
        self.scratch_inject.clear();
        if !self.active_src.is_empty() {
            for e in self.active_src.iter() {
                let (node, ip) = self.entries[e];
                let slot = (node * self.ports.len() + ip) * self.max_vcs;
                if self.fifos.len(slot) < self.fifos.depth {
                    self.scratch_inject.push(e as u32);
                }
            }
        }

        // The instrument is moved out for the duration of the cycle so the
        // phases can borrow it mutably alongside `self`.
        let mut tel = self.telemetry.take();

        // Empty wake-set fast path: when no router buffers a flit there is
        // nothing to plan or commit. Both phases are exact no-ops over an
        // empty worklist, so the skip changes no result.
        let progressed = if self.active.is_empty() {
            false
        } else {
            // Phase A: plan route/VC/switch grants against cycle-start
            // state, recording blocked requests as they are decided.
            self.plan(tel.as_deref_mut());
            if let Some(t) = tel.as_deref_mut() {
                for tr in &self.transfers {
                    t.record_traversal(tr.node as usize, tr.out_port as usize, tr.out_vc as usize);
                }
            }
            let progressed = !self.transfers.is_empty();
            // Phase B: commit the planned traversals.
            self.commit();
            progressed
        };

        // Commit injections; drained sources leave the worklist.
        let injected_any = !self.scratch_inject.is_empty();
        for i in 0..self.scratch_inject.len() {
            let e = self.scratch_inject[i] as usize;
            let (node, ip) = self.entries[e];
            let flit = self.sources.pop(e).expect("planned non-empty");
            if self.sources.len(e) == 0 {
                self.active_src.remove(e);
            }
            self.push_input(node, (node * self.ports.len() + ip) * self.max_vcs, flit);
            self.stats.injected += 1;
            self.in_flight += 1;
        }
        if progressed || injected_any {
            self.last_progress = self.cycle;
        }

        // End-of-cycle telemetry: sample every input-FIFO occupancy and
        // close the cycle's injection/ejection bins.
        if let Some(t) = tel.as_deref_mut() {
            let mut slot = 0;
            for node in 0..self.coords.len() {
                for (ip, &vcs) in self.port_vcs.iter().enumerate() {
                    for v in 0..vcs as usize {
                        t.record_occupancy(node, ip, v, self.fifos.len(slot + v) as u64);
                    }
                    slot += self.max_vcs;
                }
            }
            t.record_cycle(self.scratch_inject.len() as u64, self.ejected.len() as u64);
        }
        self.telemetry = tel;

        self.cycle += 1;
        &self.ejected
    }

    /// Runs `n` cycles, discarding ejections (useful for draining).
    /// Provably-empty spans inside the window are fast-forwarded instead of
    /// stepped ([`Network::fast_forward`]); the end state is byte-identical
    /// to stepping every cycle.
    pub fn run(&mut self, n: u64) {
        let end = self.cycle + n;
        while self.cycle < end {
            if self.fast_forward(end) >= end {
                break;
            }
            self.step();
        }
    }

    /// Pushes `flit` into input slot `slot` of router `node`, whose space
    /// flow control reserved, and puts the router on the worklist.
    #[inline]
    fn push_input(&mut self, node: usize, slot: usize, flit: Flit) {
        self.fifos
            .try_push(slot, flit)
            .expect("flow control reserved space for the flit");
        self.busy[node] |= 1 << (slot - node * self.ports.len() * self.max_vcs);
        self.active.insert(node);
    }

    /// Pops the head of input slot `slot` of router `node`; a router whose
    /// inputs all drain leaves the worklist.
    #[inline]
    fn pop_input(&mut self, node: usize, slot: usize) -> Flit {
        let flit = self.fifos.pop(slot).expect("planned transfer has a flit");
        if self.fifos.len(slot) == 0 {
            self.busy[node] &= !(1 << (slot - node * self.ports.len() * self.max_vcs));
            if self.busy[node] == 0 {
                self.active.remove(node);
            }
        }
        flit
    }

    /// Phase A: plans route/VC/switch grants for every active router into
    /// `self.transfers`, in ascending node order. Planning reads the router
    /// state immutably and mutates only arbiter state, route words and
    /// scratch, so each decision observes exactly the cycle-start state.
    /// Blocked-request telemetry is recorded as it is decided.
    fn plan(&mut self, tel: Option<&mut NetTelemetry>) {
        let Network {
            cfg,
            ports,
            conn,
            coords,
            fifos,
            route,
            owner,
            credits,
            counted,
            out_links,
            busy,
            fault_plan,
            max_vcs,
            active,
            out_rr,
            in_rr_vc,
            sw_alloc,
            scratch,
            transfers,
            ..
        } = self;
        let px = PlanShared {
            cfg,
            ports,
            conn,
            coords,
            fifos,
            owner,
            credits,
            counted,
            out_links,
            busy,
            fault_plan: fault_plan.as_deref(),
            max_vcs: *max_vcs,
        };
        let mut c = PlanState {
            out_rr,
            in_rr_vc,
            sw_alloc,
            route,
            scratch,
            transfers,
            tel,
        };
        if cfg.is_vc_router() {
            plan_vc(&px, active, &mut c);
        } else {
            plan_wormhole(&px, active, &mut c);
        }
    }

    /// Phase B: commits the planned transfers in plan order, which is the
    /// canonical (node, port, vc) order that fixes the ejection order. At
    /// most one transfer exists per (node, input port) and per (node,
    /// output port), and every grant was checked against cycle-start
    /// space, so applying them one by one reproduces the synchronous
    /// two-phase update. Routers that drain leave the worklist.
    fn commit(&mut self) {
        let np = self.ports.len();
        let vcs = self.max_vcs;
        let stages = self.cfg.pipeline_stages;
        for i in 0..self.transfers.len() {
            let t = self.transfers[i];
            let node = t.node as usize;
            let (in_port, in_vc) = (t.in_port as usize, t.in_vc as usize);
            let (out_port, out_vc) = (t.out_port as usize, t.out_vc as usize);
            let in_slot = (node * np + in_port) * vcs + in_vc;
            let out = node * np + out_port;
            let out_slot = out * vcs + out_vc;

            let flit = self.pop_input(node, in_slot);

            // Path bookkeeping: a packet's head takes the output slot and
            // its tail frees it, and the input keeps the packet's route
            // until the tail leaves.
            match (flit.kind.is_head(), flit.kind.is_tail()) {
                (true, false) => self.owner[out_slot] = PortVc::new(t.in_port, t.in_vc),
                (false, true) => self.owner[out_slot] = PortVc::NONE,
                _ => {}
            }
            if flit.kind.is_tail() {
                self.route[in_slot] = PortVc::NONE;
            }

            // Credit return to whoever feeds this input (1-cycle latency
            // falls out of the two-phase update). Router links always
            // count credits.
            if let Some(up) = self.upstream[node * np + in_port] {
                let up = up as usize;
                debug_assert!(self.counted[up]);
                let cdt = &mut self.credits[up * vcs + in_vc];
                *cdt += 1;
                debug_assert!(*cdt as usize <= self.cfg.fifo_depth);
            }

            self.traversals[out] += 1;
            match self.out_links[out] {
                LinkTarget::Router { node: dn, input } => {
                    // Router links are the counted ones.
                    debug_assert!(self.credits[out_slot] > 0, "send without credit");
                    self.credits[out_slot] -= 1;
                    let (dn, down_slot) = (dn as usize, input as usize * vcs + out_vc);
                    if stages == 0 {
                        self.push_input(dn, down_slot, flit);
                    } else {
                        // Extra pipeline stages: the flit becomes visible
                        // downstream `stages` cycles later than a
                        // single-cycle hop would make it. Arrival cycles
                        // are uniform within a cycle, so the queue stays
                        // sorted by arrival.
                        self.in_transit.push_back((
                            self.cycle + 1 + stages as u64,
                            dn,
                            down_slot,
                            flit,
                        ));
                    }
                }
                LinkTarget::Endpoint(ep) => {
                    if stages == 0 {
                        self.stats.ejected += 1;
                        self.in_flight -= 1;
                        self.ejected.push((ep, flit));
                    } else {
                        // Baseline ejections are visible in the granting
                        // step itself, so the pipeline adds exactly
                        // `stages` here.
                        self.in_transit_eject
                            .push_back((self.cycle + stages as u64, ep, flit));
                    }
                }
                LinkTarget::None => unreachable!("transfer into a tied-off link"),
            }
        }
        self.transfers.clear();
    }
}

/// A planned link traversal: move the flit at the head of
/// `(node, in_port, in_vc)` to downstream of `(node, out_port)` on `out_vc`.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    node: u32,
    in_port: u8,
    in_vc: u8,
    out_port: u8,
    out_vc: u8,
}

/// Per-router scratch the planners reuse for every node they visit (sized
/// once to the port count, so planning never allocates).
#[derive(Debug)]
struct PlanScratch {
    /// Request bitmasks per output port (bit = input port), left zeroed
    /// after each router.
    req_mask: Vec<u32>,
    /// VC router: chosen (vc, out_port, out_vc) per requesting input.
    chosen: Vec<(u8, u8, u8)>,
}

impl PlanScratch {
    fn new(np: usize) -> Self {
        PlanScratch {
            req_mask: vec![0; np],
            chosen: vec![(0, 0, 0); np],
        }
    }
}

/// Read-only state the plan phase shares: the cycle-start snapshot.
/// Nothing mutates the router state until the commit phase.
struct PlanShared<'a> {
    cfg: &'a NetworkConfig,
    ports: &'a [Dir],
    conn: &'a Connectivity,
    coords: &'a [Coord],
    fifos: &'a Fifos,
    owner: &'a [PortVc],
    credits: &'a [u8],
    counted: &'a [bool],
    out_links: &'a [LinkTarget],
    busy: &'a [u32],
    fault_plan: Option<&'a RouteTable>,
    max_vcs: usize,
}

impl PlanShared<'_> {
    /// Whether output slot `(out * max_vcs + vc)` may send right now:
    /// credit in hand, or an uncounted sink.
    #[inline]
    fn has_credit(&self, out: usize, vc: usize) -> bool {
        !self.counted[out] || self.credits[out * self.max_vcs + vc] > 0
    }
}

/// Mutable state the plan phase owns: arbiters, route words, scratch,
/// the transfer list it fills, and the attached telemetry (if any).
struct PlanState<'a> {
    out_rr: &'a mut [RoundRobin],
    in_rr_vc: &'a mut [RoundRobin],
    sw_alloc: &'a mut [Wavefront],
    route: &'a mut [PortVc],
    scratch: &'a mut PlanScratch,
    transfers: &'a mut Vec<Transfer>,
    tel: Option<&'a mut NetTelemetry>,
}

/// Route decision (output port, output VC) for the head flit of input slot
/// `slot` = (node, ip, vc), kept per packet in the slot's route word. Only
/// a packet's head flit computes it: the body and tail find it kept.
#[inline]
fn head_route(
    px: &PlanShared<'_>,
    route: &mut [PortVc],
    node: usize,
    ip: usize,
    vc: usize,
    slot: usize,
) -> (usize, u8) {
    if let Some((op, ovc)) = route[slot].get() {
        return (op as usize, ovc);
    }
    let f = px.fifos.head(slot).expect("busy input has a head");
    assert!(
        f.kind.is_head(),
        "a body flit follows its head's kept route"
    );
    let (op, ovc) = {
        let coord = px.coords[node];
        let dec = if let Some(plan) = px.fault_plan {
            // Faulted network: all packets follow the deadlock-free
            // up*/down* table over the surviving channels.
            plan.route(coord, px.ports[ip], f.dest).expect(
                "flit routed toward an unreachable destination; \
                 callers must check RouteTable::reachable before enqueueing",
            )
        } else {
            let dec = compute_route(px.cfg, coord, px.ports[ip], vc as u8, f.dest);
            debug_assert!(
                px.conn.allows(px.ports[ip], dec.out),
                "illegal crossbar transition {} -> {} at {}",
                px.ports[ip],
                dec.out,
                coord
            );
            dec
        };
        let op = px
            .conn
            .port_index(dec.out)
            .expect("every routed direction appears in the connectivity port map");
        (op, dec.out_vc)
    };
    route[slot] = PortVc::new(op as u8, ovc);
    (op, ovc)
}

/// Wormhole plan: per-output round-robin arbitration qualified by
/// downstream FIFO space (ready-valid-and). Only `active` routers, and in
/// them only non-empty inputs and requested outputs, are visited; all
/// decisions observe cycle-start state (commits happen after planning), so
/// the single pass is equivalent to the synchronous two-phase update.
/// Wormhole ports have one VC, so a port's slot is `node * np + port`.
fn plan_wormhole(px: &PlanShared<'_>, active: &BitSet, c: &mut PlanState<'_>) {
    let np = px.ports.len();
    debug_assert_eq!(px.max_vcs, 1);
    for node in active.iter() {
        debug_assert!(px.busy[node] != 0, "idle router on the worklist");
        let base = node * np;
        // Per-output request masks (bit = input port), from each input
        // head's memoized route decision; `outs` collects the outputs
        // requested.
        let mut outs = 0u32;
        for ip in set_bits(u64::from(px.busy[node])) {
            let (op, _) = head_route(px, c.route, node, ip, 0, base + ip);
            c.scratch.req_mask[op] |= 1 << ip;
            outs |= 1 << op;
        }
        for op in set_bits(u64::from(outs)) {
            // Consume the mask, leaving it zeroed for the next router.
            let reqs = std::mem::take(&mut c.scratch.req_mask[op]);
            // Downstream space: a router link's credits are its free
            // slots (flits in the hop pipeline included).
            let ready = match px.out_links[base + op] {
                LinkTarget::Router { .. } => px.credits[base + op] > 0,
                LinkTarget::Endpoint(_) => true,
                LinkTarget::None => false,
            };
            if !ready {
                if let Some(t) = c.tel.as_deref_mut() {
                    for _ in 0..reqs.count_ones() {
                        t.record_blocked(node, op, 0, BlockCause::NoCredit);
                    }
                }
                continue;
            }
            // A multi-flit packet holding the output locks out the rest.
            let winner = match px.owner[base + op].get() {
                Some((owner, _)) => (reqs & (1 << owner) != 0).then_some(owner as usize),
                None => c.out_rr[base + op].pick_and_grant_mask(reqs),
            };
            if let Some(t) = c.tel.as_deref_mut() {
                // Output usable, but at most one requester proceeds;
                // when the lock owner is not requesting, all lose.
                let losers = match winner {
                    Some(w) => reqs & !(1 << w),
                    None => reqs,
                };
                for _ in 0..losers.count_ones() {
                    t.record_blocked(node, op, 0, BlockCause::LostArbitration);
                }
            }
            if let Some(ip) = winner {
                c.transfers.push(Transfer {
                    node: node as u32,
                    in_port: ip as u8,
                    in_vc: 0,
                    out_port: op as u8,
                    out_vc: 0,
                });
            }
        }
    }
}

/// VC-router plan: ready-then-valid requests (credit-gated), one VC per
/// input port, wavefront switch allocation. Only `active` routers, and in
/// them only non-empty input VCs, are visited. Each input raises at most
/// one request, so the allocator grants each requested output in closed
/// form ([`Wavefront::grant`]); its priority rotates once per router visit,
/// whether or not any input requested.
fn plan_vc(px: &PlanShared<'_>, active: &BitSet, c: &mut PlanState<'_>) {
    let np = px.ports.len();
    let vcs = px.max_vcs;
    let vc_bits = (1u32 << vcs) - 1;
    // Route decision (output port, output VC) per sendable VC of the input
    // being planned.
    let mut decision = [(0usize, 0u8); 8];
    for node in active.iter() {
        let busy = px.busy[node];
        debug_assert!(busy != 0, "idle router on the worklist");
        let base = node * np;
        // Inputs that raised a request, and the outputs requested; the
        // per-output request masks (bit = input port) are in the scratch.
        let mut inputs = 0u32;
        let mut outs = 0u32;
        for ip in 0..np {
            let vc_busy = (busy >> (ip * vcs)) & vc_bits;
            if vc_busy == 0 {
                continue;
            }
            let slot0 = (base + ip) * vcs;
            let mut valid = 0u32;
            for v in set_bits(u64::from(vc_busy)) {
                let (op, out_vc) = head_route(px, c.route, node, ip, v, slot0 + v);
                // Ready-then-valid: request only with credit in hand and
                // the output VC free (or owned by this packet).
                let out = base + op;
                let credit_ok = px.has_credit(out, out_vc as usize);
                let owner_ok = match px.owner[out * vcs + out_vc as usize].get() {
                    None => px.fifos.head(slot0 + v).is_some_and(|f| f.kind.is_head()),
                    Some(owner) => owner == (ip as u8, v as u8),
                };
                if credit_ok && owner_ok {
                    valid |= 1 << v;
                    decision[v] = (op, out_vc);
                } else if let Some(t) = c.tel.as_deref_mut() {
                    let cause = if credit_ok {
                        // Output VC held by another packet: an
                        // arbitration-side loss, not a credit stall.
                        BlockCause::LostArbitration
                    } else {
                        BlockCause::NoCredit
                    };
                    t.record_blocked(node, op, out_vc as usize, cause);
                }
            }
            let Some(v) = c.in_rr_vc[base + ip].pick_mask(valid) else {
                continue;
            };
            let (op, out_vc) = decision[v];
            c.scratch.chosen[ip] = (v as u8, op as u8, out_vc);
            c.scratch.req_mask[op] |= 1 << ip;
            inputs |= 1 << ip;
            outs |= 1 << op;
            if let Some(t) = c.tel.as_deref_mut() {
                // Sibling VCs that were sendable but lost the per-input
                // VC pick this cycle.
                for v2 in set_bits(u64::from(valid & !(1 << v))) {
                    let (op2, ovc2) = decision[v2];
                    t.record_blocked(node, op2, ovc2 as usize, BlockCause::LostArbitration);
                }
            }
        }
        let alloc = &mut c.sw_alloc[node];
        let mut granted = 0u32;
        for op in set_bits(u64::from(outs)) {
            // Consume the mask, leaving it zeroed for the next router.
            let reqs = std::mem::take(&mut c.scratch.req_mask[op]);
            let ip = alloc
                .grant(op, reqs)
                .expect("requested output grants one input");
            granted |= 1 << ip;
        }
        alloc.advance();
        // Transfers go out in ascending input-port order: commit order
        // fixes the ejection order.
        for ip in set_bits(u64::from(inputs)) {
            let (v, op, out_vc) = c.scratch.chosen[ip];
            if granted & (1 << ip) != 0 {
                c.in_rr_vc[base + ip].grant(v as usize);
                c.transfers.push(Transfer {
                    node: node as u32,
                    in_port: ip as u8,
                    in_vc: v,
                    out_port: op,
                    out_vc,
                });
            } else if let Some(t) = c.tel.as_deref_mut() {
                // Chosen a VC and raised a request, but the allocator
                // granted the output to another input.
                t.record_blocked(
                    node,
                    op as usize,
                    out_vc as usize,
                    BlockCause::LostArbitration,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::WavefrontSweep;
    use crate::geometry::Dims;
    use crate::topology::CrossbarScheme::{Depopulated, FullyPopulated};

    fn deliver_one(cfg: NetworkConfig, src: Coord, dst: Coord) -> (u64, Network) {
        let mut net = Network::new(cfg).expect("test config is valid");
        let ep = net.tile_endpoint(src);
        net.enqueue(ep, Flit::single(src, Dest::tile(dst), 1, 0));
        for _ in 0..200 {
            let out = net.step().to_vec();
            if let Some(&(e, f)) = out.first() {
                assert_eq!(net.endpoint_kind(e), EndpointKind::Tile(dst));
                assert_eq!(f.packet_id, 1);
                return (net.cycle(), net);
            }
        }
        panic!("packet not delivered");
    }

    #[test]
    fn zero_load_latency_is_hops_plus_injection() {
        // Injection takes one cycle (source queue -> P FIFO), then one
        // cycle per router traversal including ejection.
        let cfg = NetworkConfig::mesh(Dims::new(8, 8));
        let hops = crate::routing::route_hops(&cfg, Coord::new(0, 0), Coord::new(3, 2));
        let (cycles, _) = deliver_one(cfg, Coord::new(0, 0), Coord::new(3, 2));
        assert_eq!(cycles, hops as u64 + 1);
    }

    #[test]
    fn ruche_delivery_is_faster_than_mesh() {
        let dims = Dims::new(16, 16);
        let (mesh_t, _) = deliver_one(
            NetworkConfig::mesh(dims),
            Coord::new(0, 0),
            Coord::new(15, 15),
        );
        let (ruche_t, _) = deliver_one(
            NetworkConfig::full_ruche(dims, 3, FullyPopulated),
            Coord::new(0, 0),
            Coord::new(15, 15),
        );
        assert!(ruche_t < mesh_t, "ruche {ruche_t} < mesh {mesh_t}");
    }

    #[test]
    fn torus_delivers_across_the_wrap() {
        let (_, net) = deliver_one(
            NetworkConfig::torus(Dims::new(8, 8)),
            Coord::new(0, 0),
            Coord::new(1, 1),
        );
        assert_eq!(net.snapshot().ejected, 1);
    }

    #[test]
    fn back_to_back_stream_sustains_full_throughput() {
        // A single (src, dst) stream on an idle mesh moves 1 flit/cycle.
        let cfg = NetworkConfig::mesh(Dims::new(8, 1));
        let mut net = Network::new(cfg).expect("test config is valid");
        let src = Coord::new(0, 0);
        let dst = Coord::new(7, 0);
        let ep = net.tile_endpoint(src);
        let n = 50;
        for i in 0..n {
            net.enqueue(ep, Flit::single(src, Dest::tile(dst), i, 0));
        }
        let mut eject_cycles = vec![];
        for _ in 0..200 {
            let c = net.cycle();
            if !net.step().is_empty() {
                eject_cycles.push(c);
            }
            if eject_cycles.len() as u64 == n {
                break;
            }
        }
        assert_eq!(eject_cycles.len() as u64, n);
        // After the pipe fills, one ejection per cycle.
        let deltas: Vec<u64> = eject_cycles.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 1), "stream gaps: {deltas:?}");
    }

    #[test]
    fn in_order_delivery_per_pair() {
        let dims = Dims::new(8, 8);
        for cfg in [
            NetworkConfig::mesh(dims),
            NetworkConfig::torus(dims),
            NetworkConfig::full_ruche(dims, 2, Depopulated),
            NetworkConfig::multi_mesh(dims),
        ] {
            let mut net = Network::new(cfg).expect("test config is valid");
            let src = Coord::new(1, 6);
            let dst = Coord::new(6, 1);
            let ep = net.tile_endpoint(src);
            for i in 0..40 {
                net.enqueue(ep, Flit::single(src, Dest::tile(dst), i, 0));
            }
            let mut seen = vec![];
            for _ in 0..400 {
                for &(_, f) in net.step() {
                    seen.push(f.packet_id);
                }
            }
            let sorted: Vec<u64> = (0..40).collect();
            assert_eq!(seen, sorted, "{}", net.cfg().label());
        }
    }

    #[test]
    fn multi_flit_wormhole_packets_stay_contiguous() {
        let cfg = NetworkConfig::mesh(Dims::new(6, 6));
        let mut net = Network::new(cfg).expect("test config is valid");
        // Two sources target the same destination with 4-flit packets; the
        // wormhole lock must keep each packet's flits contiguous at the
        // ejection port.
        let dst = Coord::new(5, 5);
        for (pid, src) in [(1u64, Coord::new(0, 5)), (2, Coord::new(5, 0))] {
            let ep = net.tile_endpoint(src);
            for f in Flit::multi(src, Dest::tile(dst), pid, 0, 4) {
                net.enqueue(ep, f);
            }
        }
        let mut order = vec![];
        for _ in 0..100 {
            for &(_, f) in net.step() {
                order.push(f.packet_id);
            }
        }
        assert_eq!(order.len(), 8);
        // All flits of one packet before any of the other.
        let first = order[0];
        assert!(order[..4].iter().all(|&p| p == first), "{order:?}");
        assert!(order[4..].iter().all(|&p| p != first), "{order:?}");
    }

    #[test]
    fn multi_flit_torus_packets_stay_contiguous_per_vc() {
        let cfg = NetworkConfig::torus(Dims::new(5, 5));
        let mut net = Network::new(cfg).expect("test config is valid");
        let dst = Coord::new(3, 3);
        for (pid, src) in [(1u64, Coord::new(0, 3)), (2, Coord::new(3, 0))] {
            let ep = net.tile_endpoint(src);
            for f in Flit::multi(src, Dest::tile(dst), pid, 0, 3) {
                net.enqueue(ep, f);
            }
        }
        let mut order = vec![];
        for _ in 0..100 {
            for &(_, f) in net.step() {
                order.push(f.packet_id);
            }
        }
        assert_eq!(order.len(), 6);
        let first = order[0];
        assert!(order[..3].iter().all(|&p| p == first), "{order:?}");
    }

    #[test]
    fn edge_endpoints_send_and_receive() {
        // Requests ride an X-Y network to the edges; responses come back on
        // a separate Y-X network (the paper's manycore arrangement, §4).
        let src = Coord::new(2, 2);
        let mut req = Network::new(NetworkConfig::mesh(Dims::new(8, 4)).with_edge_memory_ports())
            .expect("test config is valid");
        req.enqueue(
            req.tile_endpoint(src),
            Flit::single(src, Dest::north_edge(5), 1, 0),
        );
        let mut resp = Network::new(
            NetworkConfig::mesh(Dims::new(8, 4))
                .with_edge_memory_ports()
                .with_dor(crate::topology::DorOrder::YX),
        )
        .expect("test config is valid");
        let north = resp.north_endpoint(5);
        resp.enqueue(north, Flit::single(Coord::new(5, 0), Dest::tile(src), 2, 0));
        let mut got = vec![];
        for _ in 0..50 {
            let a = req.step().to_vec();
            let b = resp.step().to_vec();
            for (e, f) in a {
                got.push((req.endpoint_kind(e), f.packet_id));
            }
            for (e, f) in b {
                got.push((resp.endpoint_kind(e), f.packet_id));
            }
        }
        assert!(got.contains(&(EndpointKind::NorthEdge(5), 1)), "{got:?}");
        assert!(got.contains(&(EndpointKind::Tile(src), 2)), "{got:?}");
    }

    #[test]
    fn flit_conservation_under_random_traffic() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let dims = Dims::new(8, 8);
        for cfg in [
            NetworkConfig::mesh(dims),
            NetworkConfig::torus(dims),
            NetworkConfig::half_torus(dims),
            NetworkConfig::ruche_one(dims),
            NetworkConfig::full_ruche(dims, 3, Depopulated),
            NetworkConfig::full_ruche(dims, 2, FullyPopulated),
        ] {
            let label = cfg.label();
            let mut net = Network::new(cfg).expect("test config is valid");
            let mut rng = SmallRng::seed_from_u64(7);
            let mut sent = 0u64;
            for cycle in 0..600u64 {
                if cycle < 300 {
                    for c in dims.iter() {
                        if rng.gen_bool(0.3) {
                            let dst = Coord::new(rng.gen_range(0..8), rng.gen_range(0..8));
                            let ep = net.tile_endpoint(c);
                            net.enqueue(ep, Flit::single(c, Dest::tile(dst), sent, cycle));
                            sent += 1;
                        }
                    }
                }
                net.step();
            }
            // Everything injected must eventually drain: no deadlock, no
            // loss, no duplication.
            let mut guard = 0;
            while net.snapshot().ejected < sent {
                net.step();
                guard += 1;
                assert!(guard < 20_000, "{label}: drain stalled");
            }
            let snap = net.snapshot();
            assert_eq!(snap.ejected, sent, "{label}");
            assert!(snap.is_idle(), "{label}: {snap:?}");
        }
    }

    #[test]
    fn traversal_counters_accumulate() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 1));
        let mut net = Network::new(cfg).expect("test config is valid");
        let src = Coord::new(0, 0);
        net.enqueue(
            net.tile_endpoint(src),
            Flit::single(src, Dest::tile(Coord::new(3, 0)), 0, 0),
        );
        net.run(20);
        let loads = net.link_loads();
        let total: u64 = loads.raw().iter().sum();
        // 3 E hops + 1 ejection.
        assert_eq!(total, 4);
        let east: u64 = loads
            .iter()
            .filter(|&(_, d, _)| d == Dir::E)
            .map(|(_, _, n)| n)
            .sum();
        assert_eq!(east, 3);
        assert_eq!(
            loads.count(
                0,
                loads
                    .ports()
                    .iter()
                    .position(|&d| d == Dir::E)
                    .expect("mesh has an E port")
            ),
            1
        );
    }

    #[test]
    fn pipelined_hops_add_latency() {
        // With one extra pipeline stage, zero-load latency becomes
        // (1 + stages) per hop.
        let dims = Dims::new(8, 1);
        let (t0, _) = deliver_one(
            NetworkConfig::mesh(dims),
            Coord::new(0, 0),
            Coord::new(7, 0),
        );
        let (t1, _) = deliver_one(
            NetworkConfig::mesh(dims).with_pipeline_stages(1),
            Coord::new(0, 0),
            Coord::new(7, 0),
        );
        // 8 router traversals: baseline 8 (+1 inject), pipelined 16 (+1).
        assert_eq!(t0, 9);
        assert_eq!(t1, 17);
    }

    #[test]
    fn pipelining_starves_credits_at_min_buffering() {
        // §3.2: pipelined routers lengthen the credit loop; two-element
        // FIFOs no longer cover it, so a back-to-back stream loses
        // throughput unless buffers deepen accordingly.
        let dims = Dims::new(8, 1);
        let throughput = |cfg: NetworkConfig| {
            let mut net = Network::new(cfg).expect("test config is valid");
            let src = Coord::new(0, 0);
            let dst = Coord::new(7, 0);
            let ep = net.tile_endpoint(src);
            for i in 0..100 {
                net.enqueue(ep, Flit::single(src, Dest::tile(dst), i, 0));
            }
            let mut cycles = 0u64;
            while net.snapshot().ejected < 100 {
                net.step();
                cycles += 1;
                assert!(cycles < 5_000);
            }
            100.0 / cycles as f64
        };
        let base = throughput(NetworkConfig::half_torus(dims));
        let piped = throughput(NetworkConfig::half_torus(dims).with_pipeline_stages(1));
        let piped_deep = throughput(
            NetworkConfig::half_torus(dims)
                .with_pipeline_stages(1)
                .with_fifo_depth(4),
        );
        assert!(piped < 0.8 * base, "starved: {piped} vs {base}");
        assert!(
            piped_deep > piped * 1.3,
            "deeper buffers hide the credit loop: {piped_deep} vs {piped}"
        );
    }

    #[test]
    fn pipelined_network_conserves_flits() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let dims = Dims::new(6, 6);
        for cfg in [
            NetworkConfig::mesh(dims).with_pipeline_stages(2),
            NetworkConfig::torus(dims).with_pipeline_stages(1),
        ] {
            let label = cfg.label();
            let mut net = Network::new(cfg).expect("test config is valid");
            let mut rng = SmallRng::seed_from_u64(3);
            let mut sent = 0u64;
            for cycle in 0..200u64 {
                for c in dims.iter() {
                    if rng.gen_bool(0.3) {
                        let d = Coord::new(rng.gen_range(0..6), rng.gen_range(0..6));
                        let ep = net.tile_endpoint(c);
                        net.enqueue(ep, Flit::single(c, Dest::tile(d), sent, cycle));
                        sent += 1;
                    }
                }
                net.step();
            }
            let mut guard = 0;
            while net.snapshot().ejected < sent {
                net.step();
                guard += 1;
                assert!(guard < 30_000, "{label}: drain stalled");
            }
            assert_eq!(net.snapshot().in_flight, 0, "{label}");
        }
    }

    #[test]
    fn watchdog_reports_idle() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 4));
        let mut net = Network::new(cfg).expect("test config is valid");
        net.run(10);
        assert!(net.snapshot().cycles_since_progress >= 10);
    }

    fn flit(id: u64) -> Flit {
        Flit::single(Coord::new(0, 0), Dest::tile(Coord::new(1, 0)), id, 0)
    }

    #[test]
    fn ring_fifo_keeps_order_across_wraparound() {
        let mut f = Fifos::new(3, 2);
        for round in 0..3 {
            f.try_push(1, flit(round)).expect("ring has space");
            f.try_push(1, flit(round + 10)).expect("ring has space");
            assert_eq!(f.len(1), 2);
            assert_eq!(f.pop(1).map(|x| x.packet_id), Some(round));
            // The next push lands past the end of the slot and wraps.
            f.try_push(1, flit(round + 20)).expect("ring has space");
            assert_eq!(f.head(1).map(|x| x.packet_id), Some(round + 10));
            assert_eq!(f.pop(1).map(|x| x.packet_id), Some(round + 10));
            assert_eq!(f.pop(1).map(|x| x.packet_id), Some(round + 20));
            assert_eq!(f.pop(1), None);
        }
        assert!(
            f.head(0).is_none() && f.head(2).is_none(),
            "slots are separate"
        );
    }

    #[test]
    fn full_ring_rejects_a_push_and_returns_the_flit() {
        let mut f = Fifos::new(1, 2);
        f.try_push(0, flit(1)).expect("ring has space");
        f.try_push(0, flit(2)).expect("ring has space");
        assert_eq!(f.try_push(0, flit(3)), Err(flit(3)));
        assert_eq!(f.len(0), 2);
        assert_eq!(f.head(0).map(|x| x.packet_id), Some(1));
    }

    #[test]
    fn ring_fifo_matches_a_deque_model_at_every_depth() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let slots = 2;
        for depth in 1..=NetworkConfig::MAX_FIFO_DEPTH {
            let mut rng = SmallRng::seed_from_u64(depth as u64);
            let mut f = Fifos::new(slots, depth);
            let mut model = vec![VecDeque::new(); slots];
            let (mut id, mut rejects, mut pops) = (0u64, 0, 0);
            // Phases that favour pushes fill the rings to rejection, and
            // phases that favour pops drain them, so every ring fills,
            // drains and wraps several times.
            for step in 0..16 * depth + 64 {
                let s = rng.gen_range(0..slots);
                let filling = (step / (4 * depth)).is_multiple_of(2);
                if rng.gen_bool(if filling { 0.8 } else { 0.3 }) {
                    id += 1;
                    let got = f.try_push(s, flit(id));
                    if model[s].len() == depth {
                        assert_eq!(got, Err(flit(id)), "depth {depth}: full ring rejects");
                        rejects += 1;
                    } else {
                        assert_eq!(got, Ok(()), "depth {depth}");
                        model[s].push_back(id);
                    }
                } else {
                    let want = model[s].pop_front();
                    pops += usize::from(want.is_some());
                    assert_eq!(f.pop(s).map(|x| x.packet_id), want, "depth {depth}");
                }
                assert_eq!(f.len(s), model[s].len(), "depth {depth}");
                assert_eq!(
                    f.head(s).map(|x| x.packet_id),
                    model[s].front().copied(),
                    "depth {depth}"
                );
            }
            assert!(rejects > 0, "depth {depth}: a full ring was reached");
            assert!(pops > 2 * slots * depth, "depth {depth}: the rings wrapped");
        }
    }

    #[test]
    fn source_pool_matches_per_endpoint_deques_and_reuses_entries() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let eps = 5;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut pool = Sources::new(eps);
        let mut model = vec![VecDeque::new(); eps];
        let (mut id, mut peak) = (0u64, 0);
        // Backlogs swing past several chunks and back down to empty.
        for step in 0..40 * SOURCE_CHUNK {
            let e = rng.gen_range(0..eps);
            let filling = (step / (6 * SOURCE_CHUNK)).is_multiple_of(2);
            if rng.gen_bool(if filling { 0.7 } else { 0.3 }) {
                id += 1;
                pool.push(e, flit(id));
                model[e].push_back(id);
            } else {
                assert_eq!(pool.pop(e).map(|f| f.packet_id), model[e].pop_front());
            }
            assert_eq!(pool.len(e), model[e].len());
            let total: usize = model.iter().map(VecDeque::len).sum();
            assert_eq!(pool.total, total);
            peak = peak.max(total);
        }
        // Popped entries are reused: the pool holds the peak backlog only.
        assert_eq!(pool.used, peak);
        assert!(peak > 2 * SOURCE_CHUNK && (id as usize) > 2 * peak);
    }

    #[test]
    fn reserved_source_pool_does_not_grow_up_to_its_reservation() {
        let mut pool = Sources::new(3);
        pool.reserve(2 * SOURCE_CHUNK + 1);
        let chunks = pool.chunks.len();
        assert_eq!(chunks, 3);
        for i in 0..2 * SOURCE_CHUNK + 1 {
            pool.push(i % 3, flit(i as u64));
        }
        assert_eq!(pool.chunks.len(), chunks);
        assert!(pool.chunks.iter().all(|c| c.capacity() == SOURCE_CHUNK));
    }

    #[test]
    fn port_vc_words_round_trip() {
        for port in 0..=Dir::ALL.len() as u8 {
            for vc in 0..32 {
                assert_eq!(PortVc::new(port, vc).get(), Some((port, vc)));
                assert_ne!(PortVc::new(port, vc), PortVc::NONE);
            }
        }
        assert_eq!(PortVc::NONE.get(), None);
    }

    #[test]
    fn torus_ring_ports_get_two_vcs_and_p_gets_one() {
        let torus = Network::new(NetworkConfig::torus(Dims::new(4, 4))).expect("valid");
        // Port order: P, N, S, E, W.
        assert_eq!(torus.port_vcs, vec![1, 2, 2, 2, 2]);
        assert_eq!(torus.max_vcs, 2);
        let mesh = Network::new(NetworkConfig::mesh(Dims::new(4, 4))).expect("valid");
        assert!(mesh.port_vcs.iter().all(|&v| v == 1));
        assert_eq!(mesh.max_vcs, 1);
    }

    #[test]
    fn credits_start_at_fifo_depth() {
        for cfg in [
            NetworkConfig::torus(Dims::new(4, 4)),
            NetworkConfig::mesh(Dims::new(4, 4)).with_fifo_depth(3),
        ] {
            let depth = cfg.fifo_depth;
            let net = Network::new(cfg).expect("valid");
            let np = net.ports.len();
            for out in 0..net.counted.len() {
                for vc in 0..net.port_vcs[out % np] as usize {
                    assert_eq!(net.credits[out * net.max_vcs + vc] as usize, depth);
                }
            }
        }
    }

    #[test]
    fn uncounted_endpoint_sinks_always_have_credit() {
        let cfg = NetworkConfig::mesh(Dims::new(4, 1));
        let hops = crate::routing::route_hops(&cfg, Coord::new(0, 0), Coord::new(3, 0));
        let mut net = Network::new(cfg).expect("valid");
        let np = net.ports.len();
        let p = net.ports.iter().position(|&d| d == Dir::P).expect("P port");
        let e = net.ports.iter().position(|&d| d == Dir::E).expect("E port");
        assert!(net.counted[e], "a router link counts credits");
        for node in 0..4 {
            assert!(!net.counted[node * np + p], "ejection is uncounted");
            net.credits[node * np + p] = 0;
        }
        let src = Coord::new(0, 0);
        net.enqueue(
            net.tile_endpoint(src),
            Flit::single(src, Dest::tile(Coord::new(3, 0)), 0, 0),
        );
        net.run(hops as u64 + 1);
        assert_eq!(net.snapshot().ejected, 1, "zero credit never gates a sink");
    }

    #[test]
    fn counted_outputs_without_credit_hold_the_flit() {
        let mut net = Network::new(NetworkConfig::torus(Dims::new(4, 4))).expect("valid");
        // Node 0's output slots come first: drain every credit there.
        let node0 = net.ports.len() * net.max_vcs;
        net.credits[..node0].fill(0);
        let src = Coord::new(0, 0);
        net.enqueue(
            net.tile_endpoint(src),
            Flit::single(src, Dest::tile(Coord::new(1, 1)), 0, 0),
        );
        net.run(20);
        assert_eq!(net.snapshot().in_flight, 1, "no credit, no send");
        assert_eq!(net.link_loads().raw().iter().sum::<u64>(), 0);
        net.credits[..node0].fill(2);
        net.run(20);
        assert_eq!(net.snapshot().ejected, 1);
    }

    #[test]
    fn bitset_iterates_members_in_ascending_order() {
        let mut s = BitSet::new(200);
        assert!(s.is_empty());
        for i in [130, 3, 64, 199, 0, 63, 65] {
            s.insert(i);
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 3, 63, 64, 65, 130, 199]
        );
    }

    #[test]
    fn bitset_insert_twice_leaves_one_entry() {
        let mut s = BitSet::new(10);
        s.insert(7);
        s.insert(7);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7]);
        assert_eq!(s.len, 1);
        s.remove(7);
        assert!(s.is_empty());
    }

    #[test]
    fn bitset_remove_clears_exactly_the_removed_entries() {
        let mut s = BitSet::new(150);
        for i in 0..150 {
            s.insert(i);
        }
        for i in (0..150).filter(|i| i % 3 == 0) {
            s.remove(i);
        }
        // Removing a non-member is a no-op.
        s.remove(0);
        let kept: Vec<usize> = (0..150).filter(|i| i % 3 != 0).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), kept);
        assert_eq!(s.len, kept.len());
    }

    #[test]
    fn vc_switch_priority_advances_on_every_router_visit() {
        // Torus router (1, 1) holds two heads bound for the same output:
        // one on its P input, one on the ring input straight across from
        // that output. The router is first visited `blocked` times with the
        // output out of credit, so no input requests; then it is planned
        // again and again with credit restored and nothing committed, so
        // the two inputs contend on every visit. The winners must follow
        // the reference wavefront sweep stepped once per visit, empty
        // visits included.
        let mut first_winners = 0u32;
        for blocked in 0..5 {
            let mut net = Network::new(NetworkConfig::torus(Dims::new(8, 8))).expect("valid");
            let (np, vcs) = (net.ports.len(), net.max_vcs);
            let (at, dest) = (Coord::new(1, 1), Dest::tile(Coord::new(3, 1)));
            let node = net.cfg.dims.index(at);
            let out_dir = compute_route(&net.cfg, at, Dir::P, 0, dest).out;
            let port = |d: Dir| net.ports.iter().position(|&p| p == d).expect("torus port");
            let (p_in, ring_in, out) = (port(Dir::P), port(out_dir.opposite()), port(out_dir));
            for (id, ip) in [p_in, ring_in].into_iter().enumerate() {
                net.push_input(
                    node,
                    (node * np + ip) * vcs,
                    Flit::single(at, dest, id as u64, 0),
                );
            }
            let credits = (node * np + out) * vcs..(node * np + out + 1) * vcs;
            let mut oracle = WavefrontSweep::new(np, np);
            let mut requests = vec![0u32; np];
            let mut grants = vec![None; np];
            net.credits[credits.clone()].fill(0);
            for _ in 0..blocked {
                net.plan(None);
                assert!(
                    net.transfers.is_empty(),
                    "credit-blocked router sends nothing"
                );
                oracle.allocate_into(&requests, &mut grants);
            }
            net.credits[credits].fill(net.cfg.fifo_depth as u8);
            requests[p_in] = 1 << out;
            requests[ring_in] = 1 << out;
            for visit in 0..2 * np {
                net.plan(None);
                oracle.allocate_into(&requests, &mut grants);
                let expect = grants
                    .iter()
                    .position(|&g| g == Some(out))
                    .expect("the contended output grants one input");
                assert_eq!(net.transfers.len(), 1, "one output, one transfer");
                let winner = net.transfers[0].in_port as usize;
                assert_eq!(winner, expect, "blocked {blocked} visit {visit}");
                if visit == 0 {
                    first_winners |= 1 << winner;
                }
                net.transfers.clear();
            }
        }
        // The empty visits alone decided who won first.
        assert_eq!(first_winners.count_ones(), 2);
    }
}
