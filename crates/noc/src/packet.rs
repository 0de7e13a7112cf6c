//! Flits and packets.
//!
//! The paper's network evaluation uses single-flit packets throughout
//! (§4.1); the simulator nevertheless supports multi-flit wormhole packets,
//! which the test suite uses to exercise path locking and VC ownership.

use crate::geometry::Coord;
use crate::routing::Dest;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// A complete single-flit packet (head and tail at once).
    HeadTail,
    /// First flit of a multi-flit packet.
    Head,
    /// Middle flit.
    Body,
    /// Last flit.
    Tail,
}

impl FlitKind {
    /// Whether this flit carries the route (head of packet).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit releases the path (end of packet).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A flow-control unit traversing the network.
///
/// Flits are small `Copy` values; the hot simulation loop moves them by
/// value through fixed-capacity FIFOs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Source tile.
    pub src: Coord,
    /// Destination (tile or edge memory endpoint).
    pub dest: Dest,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Packet identifier, unique per source (used for in-order checks and
    /// for matching manycore responses to requests).
    pub packet_id: u64,
    /// Cycle at which the packet was generated (enqueued at the source).
    pub birth: u64,
    /// Opaque payload for the attached system (e.g. manycore request ids).
    pub payload: u64,
}

impl Flit {
    /// Creates a single-flit packet.
    pub fn single(src: Coord, dest: Dest, packet_id: u64, birth: u64) -> Self {
        Flit {
            src,
            dest,
            kind: FlitKind::HeadTail,
            packet_id,
            birth,
            payload: 0,
        }
    }

    /// Creates the flits of a `len`-flit packet, in order.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn multi(src: Coord, dest: Dest, packet_id: u64, birth: u64, len: usize) -> Vec<Flit> {
        assert!(len > 0, "packet length must be at least 1");
        (0..len)
            .map(|i| Flit {
                src,
                dest,
                kind: match (i, len) {
                    (_, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (i, l) if i == l - 1 => FlitKind::Tail,
                    _ => FlitKind::Body,
                },
                packet_id,
                birth,
                payload: 0,
            })
            .collect()
    }

    /// Returns a copy with the given payload.
    pub fn with_payload(mut self, payload: u64) -> Self {
        self.payload = payload;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flit_is_head_and_tail() {
        let f = Flit::single(Coord::new(0, 0), Dest::tile(Coord::new(1, 1)), 7, 42);
        assert!(f.kind.is_head() && f.kind.is_tail());
        assert_eq!(f.birth, 42);
        assert_eq!(f.packet_id, 7);
    }

    #[test]
    fn multi_flit_kinds() {
        let flits = Flit::multi(Coord::new(0, 0), Dest::tile(Coord::new(1, 1)), 1, 0, 4);
        let kinds: Vec<_> = flits.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail
            ]
        );
        let one = Flit::multi(Coord::new(0, 0), Dest::tile(Coord::new(1, 1)), 1, 0, 1);
        assert_eq!(one[0].kind, FlitKind::HeadTail);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_length_packet_panics() {
        Flit::multi(Coord::new(0, 0), Dest::tile(Coord::new(1, 1)), 1, 0, 0);
    }

    #[test]
    fn payload_roundtrip() {
        let f = Flit::single(Coord::new(0, 0), Dest::tile(Coord::new(1, 1)), 0, 0)
            .with_payload(0xdead_beef);
        assert_eq!(f.payload, 0xdead_beef);
    }
}
