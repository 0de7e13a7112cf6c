//! Arbitration and allocation logic.
//!
//! Ruche/mesh routers use simple decentralized **round-robin arbiters**, one
//! per output direction (§3.2). Torus VC routers use an acyclic
//! **wavefront allocator** for switch allocation, which provides maximal
//! matching quality (Becker's implementation, §4.1) at the cost of a much
//! longer critical path — the source of the torus routers' cycle-time
//! disadvantage in Figure 7.
//!
//! Both work on request bitmasks (bit `i` = requester `i`), so the
//! simulator's hot path never allocates.

/// The first set bit of `mask` at or after bit `start`, wrapping around to
/// the lowest set bit; `None` for an empty mask.
#[inline]
fn first_from(mask: u32, start: usize) -> Option<usize> {
    if mask == 0 {
        return None;
    }
    let high = mask >> start;
    Some(if high != 0 {
        start + high.trailing_zeros() as usize
    } else {
        mask.trailing_zeros() as usize
    })
}

/// `i + 1` modulo `n`, for `i < n`.
#[inline]
fn wrap_next(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// A round-robin arbiter over `n` requesters.
///
/// The most recently granted requester gets the lowest priority next time
/// (least-recently-granted order), which is what gives Ruche routers their
/// simple, fast, fair output arbitration.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    /// Index of the last granted requester; search starts after it.
    last: usize,
}

impl RoundRobin {
    /// Creates an arbiter for `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobin { n, last: n - 1 }
    }

    /// Picks the next requester in round-robin order among `mask` (bit `i`
    /// = requester `i`), without updating priority (combinational output).
    ///
    /// # Panics
    ///
    /// Debug-panics if the mask has bits at or above `n`, or `n > 32`.
    pub fn pick_mask(&self, mask: u32) -> Option<usize> {
        debug_assert!(self.n <= 32);
        debug_assert_eq!(mask >> (self.n - 1) >> 1, 0, "mask wider than arbiter");
        first_from(mask, wrap_next(self.last, self.n))
    }

    /// Commits a grant, rotating the priority.
    pub fn grant(&mut self, winner: usize) {
        debug_assert!(winner < self.n);
        self.last = winner;
    }

    /// Picks and commits in one step.
    pub fn pick_and_grant_mask(&mut self, mask: u32) -> Option<usize> {
        let w = self.pick_mask(mask)?;
        self.grant(w);
        Some(w)
    }
}

/// An acyclic wavefront allocator for an `n × n` router whose inputs each
/// request at most one output per allocation — the VC router's case, where
/// every input port first picks one of its VCs.
///
/// The hardware sweeps `n` wavefronts starting at a rotating priority
/// diagonal; cell `(i, o)` lies on diagonal `(i + o) mod n`, and a cell
/// grants when neither its input nor its output was granted on an earlier
/// wavefront. With one request per input no two cells compete for an
/// input, so each output's grant is independent of the others: output `o`
/// goes to the first requesting input at or after `(priority − o) mod n`,
/// taken cyclically. [`Self::grant`] computes that closed form directly;
/// the unit tests check it against the full sweep exhaustively at `n = 5`.
#[derive(Debug, Clone)]
pub struct Wavefront {
    n: usize,
    priority: usize,
}

impl Wavefront {
    /// Creates an allocator for `n` inputs and `n` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "allocator dimensions must be non-zero");
        Wavefront { n, priority: 0 }
    }

    /// The input granted output `out` among the inputs in `reqs` (bit `i`
    /// = input `i` requests `out`), or `None` if nobody requests it.
    /// Combinational: call once per requested output, then [`Self::advance`].
    ///
    /// # Panics
    ///
    /// Debug-panics if `out >= n`, the mask has bits at or above `n`, or
    /// `n > 32`.
    #[inline]
    pub fn grant(&self, out: usize, reqs: u32) -> Option<usize> {
        debug_assert!(out < self.n && self.n <= 32);
        debug_assert_eq!(reqs >> (self.n - 1) >> 1, 0, "mask wider than allocator");
        // `(priority − out) mod n`, with both terms below `n`.
        let start = self.priority + self.n - out;
        let start = if start >= self.n {
            start - self.n
        } else {
            start
        };
        first_from(reqs, start)
    }

    /// Rotates the priority diagonal: once per allocation, whether or not
    /// any input requested.
    #[inline]
    pub fn advance(&mut self) {
        self.priority = wrap_next(self.priority, self.n);
    }
}

/// The general wavefront sweep over an `n_in × n_out` request matrix, in
/// which an input may request several outputs: the reference the
/// closed-form [`Wavefront::grant`] is tested against.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct WavefrontSweep {
    n_in: usize,
    n_out: usize,
    priority: usize,
}

#[cfg(test)]
impl WavefrontSweep {
    pub(crate) fn new(n_in: usize, n_out: usize) -> Self {
        assert!(
            n_in > 0 && n_out > 0,
            "allocator dimensions must be non-zero"
        );
        WavefrontSweep {
            n_in,
            n_out,
            priority: 0,
        }
    }

    /// Allocates over per-input request bitmasks (bit `o` of `requests[i]`
    /// = input `i` requests output `o`), writing the granted output per
    /// input into `grant_in`. Rotates the priority diagonal.
    pub(crate) fn allocate_into(&mut self, requests: &[u32], grant_in: &mut [Option<usize>]) {
        assert_eq!(requests.len(), self.n_in);
        assert_eq!(grant_in.len(), self.n_in);
        let diag = self.n_in.max(self.n_out);
        grant_in.fill(None);
        let mut out_taken = 0u32;
        // Sweep wavefronts starting at the priority diagonal; within a
        // wavefront each (i, o) with i + o ≡ d (mod diag) is independent.
        for k in 0..diag {
            let d = (self.priority + k) % diag;
            for (i, g) in grant_in.iter_mut().enumerate() {
                if g.is_some() {
                    continue;
                }
                let o = (d + diag - i % diag) % diag;
                if o < self.n_out && requests[i] & (1 << o) != 0 && out_taken & (1 << o) == 0 {
                    *g = Some(o);
                    out_taken |= 1 << o;
                }
            }
        }
        self.priority = (self.priority + 1) % diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference round-robin pick over a bool slice, searching after the
    /// arbiter's last grant.
    fn pick_ref(rr: &RoundRobin, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), rr.n);
        (1..=rr.n)
            .map(|k| (rr.last + k) % rr.n)
            .find(|&i| requests[i])
    }

    /// One allocation of the closed form over per-input requests (bit `o`
    /// of `requests[i]`, at most one per input), as per-input grants.
    fn closed_form(wf: &mut Wavefront, requests: &[u32]) -> Vec<Option<usize>> {
        let mut per_out = vec![0u32; wf.n];
        for (i, &r) in requests.iter().enumerate() {
            assert!(r.count_ones() <= 1, "one request per input");
            if r != 0 {
                per_out[r.trailing_zeros() as usize] |= 1 << i;
            }
        }
        let mut grants = vec![None; requests.len()];
        for (o, &reqs) in per_out.iter().enumerate() {
            if let Some(i) = wf.grant(o, reqs) {
                grants[i] = Some(o);
            }
        }
        wf.advance();
        grants
    }

    /// Runs the reference sweep once over `requests`.
    fn sweep(wf: &mut WavefrontSweep, requests: &[u32]) -> Vec<Option<usize>> {
        let mut grants = vec![None; requests.len()];
        wf.allocate_into(requests, &mut grants);
        grants
    }

    /// Every single-request pattern for `n` inputs: each input requests
    /// nothing or exactly one of the `n` outputs, `(n + 1)^n` patterns.
    fn single_request_patterns(n: usize) -> impl Iterator<Item = Vec<u32>> {
        let count = (n + 1).pow(n as u32);
        (0..count).map(move |mut code| {
            (0..n)
                .map(|_| {
                    let choice = code % (n + 1);
                    code /= n + 1;
                    if choice == n {
                        0
                    } else {
                        1 << choice
                    }
                })
                .collect()
        })
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut rr = RoundRobin::new(3);
        let picks: Vec<_> = (0..6)
            .map(|_| {
                rr.pick_and_grant_mask(0b111)
                    .expect("a requesting input wins the grant")
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_idle() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.pick_and_grant_mask(0b0100), Some(2));
        assert_eq!(rr.pick_and_grant_mask(0b0101), Some(0));
        assert_eq!(rr.pick_and_grant_mask(0), None);
    }

    #[test]
    fn round_robin_least_recently_granted() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.pick_and_grant_mask(0b11), Some(0));
        // 0 was just granted: 1 now has priority.
        assert_eq!(rr.pick_and_grant_mask(0b11), Some(1));
        assert_eq!(rr.pick_and_grant_mask(0b11), Some(0));
    }

    #[test]
    fn pick_without_grant_is_stable() {
        let rr = RoundRobin::new(3);
        assert_eq!(rr.pick_mask(0b111), Some(0));
        assert_eq!(rr.pick_mask(0b111), Some(0));
    }

    #[test]
    fn wavefront_grants_are_a_matching() {
        let mut wf = WavefrontSweep::new(5, 5);
        let requests = [0b00011, 0b00001, 0b00110, 0b01000, 0b11000];
        for _ in 0..10 {
            let grants = sweep(&mut wf, &requests);
            let mut seen = 0u32;
            for (i, g) in grants.iter().enumerate() {
                if let Some(o) = *g {
                    assert!(requests[i] & (1 << o) != 0, "grant only where requested");
                    assert_eq!(seen & (1 << o), 0, "output granted twice");
                    seen |= 1 << o;
                }
            }
        }
    }

    #[test]
    fn wavefront_matching_is_maximal_on_diagonal() {
        // Identity requests: all four must be granted, by the sweep and by
        // the closed form.
        let requests = [0b0001, 0b0010, 0b0100, 0b1000];
        let grants = sweep(&mut WavefrontSweep::new(4, 4), &requests);
        assert!(grants.iter().all(|g| g.is_some()));
        let grants = closed_form(&mut Wavefront::new(4), &requests);
        assert!(grants.iter().all(|g| g.is_some()));
    }

    #[test]
    fn wavefront_full_matrix_grants_everyone() {
        // With all-true requests a maximal matching covers every input.
        let grants = sweep(&mut WavefrontSweep::new(5, 5), &[0b1_1111; 5]);
        assert!(grants.iter().all(|g| g.is_some()));
        let mut outs: Vec<_> = grants.into_iter().flatten().collect();
        outs.sort_unstable();
        assert_eq!(outs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wavefront_rotates_priority() {
        // Two inputs contending for output 0 alternate, in the sweep and in
        // the closed form.
        let mut wf = Wavefront::new(2);
        let first = wf
            .grant(0, 0b11)
            .expect("contended output grants one winner");
        wf.advance();
        let second = wf
            .grant(0, 0b11)
            .expect("contended output grants one winner");
        assert_ne!(first, second, "contending inputs alternate");
        let mut sweep_wf = WavefrontSweep::new(2, 2);
        assert_eq!(sweep(&mut sweep_wf, &[0b01, 0b01])[first], Some(0));
        assert_eq!(sweep(&mut sweep_wf, &[0b01, 0b01])[second], Some(0));
    }

    #[test]
    fn wavefront_rectangular_shapes() {
        let grants = sweep(&mut WavefrontSweep::new(3, 5), &[0b1_1111; 3]);
        assert_eq!(grants.iter().flatten().count(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        Wavefront::new(0);
    }

    #[test]
    fn pick_mask_matches_pick() {
        for n in 1..=9usize {
            // The reference and the arbiter stepped in lockstep over every
            // request pattern.
            let mut rr = RoundRobin::new(n);
            for mask in 0..(1u32 << n) {
                let bools: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                let expect = pick_ref(&rr, &bools);
                assert_eq!(expect, rr.pick_mask(mask), "n={n} mask={mask:b}");
                assert_eq!(expect, rr.pick_and_grant_mask(mask));
            }
        }
    }

    #[test]
    fn closed_form_grant_matches_wavefront_sweep() {
        // Every single-request pattern at the VC routers' port count, from
        // each starting priority.
        const N: usize = 5;
        for priority in 0..N {
            for requests in single_request_patterns(N) {
                let mut a = WavefrontSweep::new(N, N);
                let mut b = Wavefront::new(N);
                for _ in 0..priority {
                    a.allocate_into(&[0; N], &mut [None; N]);
                    b.advance();
                }
                assert_eq!(
                    sweep(&mut a, &requests),
                    closed_form(&mut b, &requests),
                    "priority {priority} requests {requests:?}"
                );
            }
        }
        // One long lockstep sequence, so each call inherits the priority
        // the previous calls (empty ones included) left behind.
        let mut a = WavefrontSweep::new(N, N);
        let mut b = Wavefront::new(N);
        for (call, requests) in single_request_patterns(N).enumerate() {
            assert_eq!(
                sweep(&mut a, &requests),
                closed_form(&mut b, &requests),
                "call {call} requests {requests:?}"
            );
        }
    }
}
