//! The abstract in-order core model.
//!
//! Each tile runs a pre-built operation stream. The core issues remote
//! loads/stores/atomics non-blocking up to a bounded number of outstanding
//! requests, stalls at explicit dependence points (`WaitAll`), and
//! synchronizes at barriers. This preserves the paper's execution-driven
//! feedback loop (§4.6): network congestion delays responses, delayed
//! responses stall the core, and a stalled core stops injecting — unlike a
//! trace-driven replay.

use ruche_noc::geometry::Coord;

/// One operation in a tile's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` cycles of local computation (issues one instruction per cycle).
    Compute(u32),
    /// Non-blocking remote load from the LLC at a word address.
    Load(u64),
    /// Remote store to the LLC (acknowledged; counts as outstanding until
    /// the ack returns).
    Store(u64),
    /// Atomic read-modify-write at the LLC (round trip).
    Amo(u64),
    /// Remote load from another tile's scratchpad.
    LoadTile(Coord),
    /// Wait until every outstanding request has returned (a dependence
    /// point — used for pointer chasing and halo exchanges).
    WaitAll,
    /// Global barrier across all cores.
    Barrier,
}

/// A memory request the core asks the machine to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRequest {
    /// LLC load at an address.
    Load(u64),
    /// LLC store.
    Store(u64),
    /// LLC atomic.
    Amo(u64),
    /// Scratchpad load from a tile.
    LoadTile(Coord),
}

/// What the core did this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// Program finished (idle; leaks stall energy).
    Idle,
    /// Executed an instruction locally.
    Busy,
    /// Issued a memory request (also an executed instruction).
    Issue(MemRequest),
    /// Could not make progress (waiting on responses, barrier, or NIC
    /// back-pressure).
    Stall,
}

/// Execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing its stream.
    Running,
    /// Arrived at a barrier, waiting for release.
    AtBarrier,
    /// Stream exhausted and all requests returned.
    Done,
}

/// Per-core counters.
///
/// `stall_cycles` is the total; the four `stall_*` cause counters
/// partition it exactly (see [`CoreStats::stall_breakdown`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions executed (compute cycles + issued memory operations).
    pub instructions: u64,
    /// Cycles stalled while the program still had work.
    pub stall_cycles: u64,
    /// Cycles idle after completion.
    pub idle_cycles: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Stall cycles spent waiting at a barrier for release.
    pub stall_barrier: u64,
    /// Stall cycles spent waiting for outstanding responses at a
    /// dependence point (`WaitAll`, barrier entry, end-of-program drain).
    pub stall_dependence: u64,
    /// Stall cycles spent blocked on NIC back-pressure (injection queue
    /// full) while a memory operation was ready to issue.
    pub stall_nic: u64,
    /// Stall cycles spent with all outstanding-request slots occupied
    /// while a memory operation was ready to issue.
    pub stall_outstanding: u64,
}

impl CoreStats {
    /// Sum of the per-cause stall counters; always equals `stall_cycles`.
    pub fn stall_breakdown(&self) -> u64 {
        self.stall_barrier + self.stall_dependence + self.stall_nic + self.stall_outstanding
    }
}

/// An in-order core executing one operation stream.
#[derive(Debug, Clone)]
pub struct Core {
    ops: Vec<Op>,
    pc: usize,
    compute_left: u32,
    outstanding: u32,
    max_outstanding: u32,
    state: CoreState,
    /// Counters, updated by [`Core::tick`].
    pub stats: CoreStats,
}

impl Core {
    /// Creates a core over an operation stream.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero.
    pub fn new(ops: Vec<Op>, max_outstanding: u32) -> Self {
        assert!(max_outstanding > 0, "need at least one outstanding slot");
        Core {
            ops,
            pc: 0,
            compute_left: 0,
            outstanding: 0,
            max_outstanding,
            state: CoreState::Running,
            stats: CoreStats::default(),
        }
    }

    /// Current execution state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Requests in flight.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Delivers a response to this core.
    ///
    /// # Panics
    ///
    /// Panics if no request is outstanding.
    pub fn on_response(&mut self) {
        assert!(self.outstanding > 0, "response without a request");
        self.outstanding -= 1;
    }

    /// Releases the core from a barrier.
    pub fn release_barrier(&mut self) {
        debug_assert_eq!(self.state, CoreState::AtBarrier);
        self.state = CoreState::Running;
    }

    /// Advances the core one cycle. `can_issue` reflects NIC back-pressure
    /// (space in the tile's injection queue).
    pub fn tick(&mut self, can_issue: bool) -> CoreAction {
        match self.state {
            CoreState::Done => {
                self.stats.idle_cycles += 1;
                return CoreAction::Idle;
            }
            CoreState::AtBarrier => {
                self.stats.stall_cycles += 1;
                self.stats.stall_barrier += 1;
                return CoreAction::Stall;
            }
            CoreState::Running => {}
        }
        if self.compute_left > 0 {
            self.compute_left -= 1;
            self.stats.instructions += 1;
            return CoreAction::Busy;
        }
        let Some(&op) = self.ops.get(self.pc) else {
            if self.outstanding == 0 {
                self.state = CoreState::Done;
                self.stats.idle_cycles += 1;
                return CoreAction::Idle;
            }
            self.stats.stall_cycles += 1;
            self.stats.stall_dependence += 1;
            return CoreAction::Stall;
        };
        match op {
            Op::Compute(n) => {
                self.compute_left = n.saturating_sub(1);
                self.pc += 1;
                self.stats.instructions += 1;
                CoreAction::Busy
            }
            Op::WaitAll => {
                if self.outstanding == 0 {
                    self.pc += 1;
                    self.stats.instructions += 1;
                    CoreAction::Busy
                } else {
                    self.stats.stall_cycles += 1;
                    self.stats.stall_dependence += 1;
                    CoreAction::Stall
                }
            }
            Op::Barrier => {
                self.stats.stall_cycles += 1;
                if self.outstanding == 0 {
                    self.pc += 1;
                    self.state = CoreState::AtBarrier;
                    self.stats.stall_barrier += 1;
                } else {
                    // Cannot enter the barrier until every outstanding
                    // request has returned — a dependence stall, not a
                    // barrier-wait one.
                    self.stats.stall_dependence += 1;
                }
                CoreAction::Stall
            }
            Op::Load(_) | Op::Store(_) | Op::Amo(_) | Op::LoadTile(_) => {
                if !can_issue {
                    self.stats.stall_cycles += 1;
                    self.stats.stall_nic += 1;
                    return CoreAction::Stall;
                }
                if self.outstanding >= self.max_outstanding {
                    self.stats.stall_cycles += 1;
                    self.stats.stall_outstanding += 1;
                    return CoreAction::Stall;
                }
                self.outstanding += 1;
                self.pc += 1;
                self.stats.instructions += 1;
                self.stats.mem_ops += 1;
                CoreAction::Issue(match op {
                    Op::Load(a) => MemRequest::Load(a),
                    Op::Store(a) => MemRequest::Store(a),
                    Op::Amo(a) => MemRequest::Amo(a),
                    Op::LoadTile(t) => MemRequest::LoadTile(t),
                    _ => unreachable!(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_alone(ops: Vec<Op>, max_out: u32, respond_after: u64) -> (u64, CoreStats) {
        // Standalone harness: responses arrive `respond_after` cycles after
        // issue; NIC always free.
        let mut core = Core::new(ops, max_out);
        let mut pending: Vec<u64> = vec![];
        let mut cycle = 0u64;
        while core.state() != CoreState::Done {
            pending.retain(|&due| {
                if due <= cycle {
                    core.on_response();
                    false
                } else {
                    true
                }
            });
            if core.state() == CoreState::AtBarrier {
                core.release_barrier(); // single-core "all arrived"
            }
            if let CoreAction::Issue(_) = core.tick(true) {
                pending.push(cycle + respond_after);
            }
            cycle += 1;
            assert!(cycle < 100_000, "runaway core");
        }
        (cycle, core.stats)
    }

    #[test]
    fn compute_takes_n_cycles() {
        let (cycles, stats) = run_alone(vec![Op::Compute(10)], 4, 1);
        assert_eq!(stats.instructions, 10);
        assert_eq!(cycles, 11); // 10 compute + 1 done-detection cycle
        assert_eq!(stats.stall_cycles, 0);
    }

    #[test]
    fn loads_overlap_up_to_limit() {
        // 4 loads with latency 10 and 4 outstanding slots: issue
        // back-to-back, total ≈ 4 + 10, not 4 × 10.
        let ops = vec![
            Op::Load(0),
            Op::Load(1),
            Op::Load(2),
            Op::Load(3),
            Op::WaitAll,
        ];
        let (cycles, stats) = run_alone(ops, 4, 10);
        assert!(cycles < 20, "overlapped: {cycles}");
        assert_eq!(stats.mem_ops, 4);
    }

    #[test]
    fn outstanding_limit_throttles() {
        let ops: Vec<Op> = (0..8).map(Op::Load).chain([Op::WaitAll]).collect();
        let (fast, _) = run_alone(ops.clone(), 8, 10);
        let (slow, stats) = run_alone(ops, 1, 10);
        assert!(slow > 2 * fast, "serialized {slow} vs overlapped {fast}");
        assert!(stats.stall_cycles > 0);
    }

    #[test]
    fn wait_all_blocks_until_responses() {
        let ops = vec![Op::Load(0), Op::WaitAll, Op::Compute(1)];
        let (cycles, stats) = run_alone(ops, 4, 20);
        assert!(cycles > 20);
        assert!(stats.stall_cycles >= 18);
    }

    #[test]
    fn nic_backpressure_stalls() {
        let mut core = Core::new(vec![Op::Load(0)], 4);
        assert_eq!(core.tick(false), CoreAction::Stall);
        assert_eq!(core.stats.stall_nic, 1);
        assert!(matches!(
            core.tick(true),
            CoreAction::Issue(MemRequest::Load(0))
        ));
    }

    #[test]
    fn stall_causes_partition_total_stalls() {
        // Exercise all four causes: outstanding-slot exhaustion, WaitAll
        // dependence, barrier entry + wait, and NIC back-pressure.
        let ops: Vec<Op> = (0..4)
            .map(Op::Load)
            .chain([Op::WaitAll, Op::Barrier, Op::Load(9), Op::WaitAll])
            .collect();
        let mut core = Core::new(ops, 1);
        let mut pending: Vec<u64> = vec![];
        let mut cycle = 0u64;
        while core.state() != CoreState::Done {
            pending.retain(|&due| {
                if due <= cycle {
                    core.on_response();
                    false
                } else {
                    true
                }
            });
            if core.state() == CoreState::AtBarrier && cycle.is_multiple_of(7) {
                core.release_barrier(); // delayed release forces barrier waits
            }
            // Starve the NIC every third cycle.
            if let CoreAction::Issue(_) = core.tick(!cycle.is_multiple_of(3)) {
                pending.push(cycle + 5);
            }
            cycle += 1;
            assert!(cycle < 100_000, "runaway core");
        }
        let s = core.stats;
        assert_eq!(s.stall_breakdown(), s.stall_cycles, "{s:?}");
        assert!(s.stall_outstanding > 0, "{s:?}");
        assert!(s.stall_dependence > 0, "{s:?}");
        assert!(s.stall_barrier > 0, "{s:?}");
        assert!(s.stall_nic > 0, "{s:?}");
    }

    #[test]
    fn barrier_waits_for_outstanding_then_release() {
        let mut core = Core::new(vec![Op::Load(7), Op::Barrier, Op::Compute(1)], 4);
        assert!(matches!(core.tick(true), CoreAction::Issue(_)));
        // Barrier cannot be entered with a request in flight.
        assert_eq!(core.tick(true), CoreAction::Stall);
        core.on_response();
        assert_eq!(core.tick(true), CoreAction::Stall);
        assert_eq!(core.state(), CoreState::AtBarrier);
        core.release_barrier();
        assert_eq!(core.tick(true), CoreAction::Busy);
    }

    #[test]
    fn done_core_idles() {
        let mut core = Core::new(vec![], 1);
        assert_eq!(core.tick(true), CoreAction::Idle);
        assert_eq!(core.state(), CoreState::Done);
        assert_eq!(core.tick(true), CoreAction::Idle);
        assert_eq!(core.stats.idle_cycles, 2);
    }

    #[test]
    #[should_panic(expected = "response without a request")]
    fn spurious_response_panics() {
        Core::new(vec![], 1).on_response();
    }

    #[test]
    fn store_and_amo_issue() {
        let mut core = Core::new(
            vec![Op::Store(1), Op::Amo(2), Op::LoadTile(Coord::new(1, 1))],
            8,
        );
        assert!(matches!(
            core.tick(true),
            CoreAction::Issue(MemRequest::Store(1))
        ));
        assert!(matches!(
            core.tick(true),
            CoreAction::Issue(MemRequest::Amo(2))
        ));
        assert!(matches!(
            core.tick(true),
            CoreAction::Issue(MemRequest::LoadTile(_))
        ));
        assert_eq!(core.outstanding(), 3);
    }
}
