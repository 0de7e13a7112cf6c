//! The edge memory system: LLC banks on the north/south array edges and
//! IPOLY pseudo-random address interleaving (Rau, ISCA '91).
//!
//! The paper's manycore hashes the address space across LLC banks with
//! IPOLY hashing, which "effectively balances the traffic" (§4.8). The
//! hash is polynomial modulus over GF(2): each address bit `i` contributes
//! `x^i mod P(x)` to the bank index, with `P` an irreducible polynomial of
//! degree `log2(banks)`.

use ruche_noc::geometry::Dims;
use ruche_noc::routing::Dest;

/// Irreducible polynomials over GF(2) by degree (low bits; the implicit
/// leading term is handled in the reduction). Degrees 1..=10.
const IPOLY: [u32; 11] = [
    0b1,           // unused (degree 0)
    0b11,          // x + 1
    0b111,         // x^2 + x + 1
    0b1011,        // x^3 + x + 1
    0b10011,       // x^4 + x + 1
    0b100101,      // x^5 + x^2 + 1
    0b1000011,     // x^6 + x + 1
    0b10001001,    // x^7 + x^3 + 1
    0b100011101,   // x^8 + x^4 + x^3 + x^2 + 1
    0b1000010001,  // x^9 + x^4 + 1
    0b10000001001, // x^10 + x^3 + 1
];

/// IPOLY address-to-bank interleaver for `banks` LLC banks.
///
/// Non-power-of-two bank counts hash into the next power of two and fold
/// by modulus (a small imbalance documented in DESIGN.md; every paper
/// configuration has a power-of-two bank count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipoly {
    banks: u32,
    degree: u32,
    /// `x^i mod P(x)` for each address bit `i`.
    powers: Vec<u32>,
}

impl Ipoly {
    /// Builds the interleaver for `banks` banks (up to 1024).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or needs a polynomial degree above 10.
    pub fn new(banks: u32) -> Self {
        assert!(banks > 0, "need at least one bank");
        let degree = 32 - (banks - 1).leading_zeros().min(31);
        let degree = degree.max(1);
        assert!(
            degree <= 10,
            "bank count {banks} needs polynomial degree {degree} > 10"
        );
        let poly = IPOLY[degree as usize];
        // powers[i] = x^i mod P, computed iteratively.
        let mut powers = Vec::with_capacity(40);
        let mut cur = 1u32; // x^0
        for _ in 0..40 {
            powers.push(cur);
            cur <<= 1;
            if cur & (1 << degree) != 0 {
                cur ^= poly;
            }
        }
        Ipoly {
            banks,
            degree,
            powers,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Bank index for a word address.
    pub fn bank(&self, addr: u64) -> u32 {
        let mut h = 0u32;
        let mut a = addr;
        let mut i = 0;
        while a != 0 && i < self.powers.len() {
            if a & 1 != 0 {
                h ^= self.powers[i];
            }
            a >>= 1;
            i += 1;
        }
        h % self.banks
    }
}

/// Maps LLC bank indices to edge endpoints: banks `0..cols` sit on the
/// north edge, `cols..2·cols` on the south edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankMap {
    /// Array dimensions.
    pub dims: Dims,
}

impl BankMap {
    /// Total banks (`2 × cols`).
    pub fn banks(&self) -> u32 {
        2 * self.dims.cols as u32
    }

    /// The routing destination of a bank.
    pub fn dest(&self, bank: u32) -> Dest {
        let cols = self.dims.cols as u32;
        debug_assert!(bank < self.banks());
        if bank < cols {
            Dest::north_edge(bank as u16)
        } else {
            Dest::south_edge((bank - cols) as u16, self.dims.rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_noc::routing::EdgePort;

    #[test]
    fn ipoly_covers_all_banks_evenly() {
        let h = Ipoly::new(32);
        let mut counts = [0u32; 32];
        for addr in 0..32_000u64 {
            counts[h.bank(addr) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(min > 0);
        assert!(
            (max - min) as f64 / (32_000.0 / 32.0) < 0.1,
            "balanced: {min}..{max}"
        );
    }

    #[test]
    fn ipoly_breaks_power_of_two_strides() {
        // The point of IPOLY over simple modulo: power-of-two strides still
        // spread across banks instead of camping on one.
        let h = Ipoly::new(16);
        for stride in [2u64, 4, 8, 16, 32, 64] {
            let mut banks: Vec<u32> = (0..64u64).map(|i| h.bank(i * stride)).collect();
            banks.sort_unstable();
            banks.dedup();
            assert!(
                banks.len() >= 8,
                "stride {stride} hits only {} banks",
                banks.len()
            );
        }
    }

    #[test]
    fn ipoly_is_deterministic_and_in_range() {
        let h = Ipoly::new(14); // non-power-of-two folds
        for addr in 0..10_000u64 {
            let b = h.bank(addr);
            assert!(b < 14);
            assert_eq!(b, h.bank(addr));
        }
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        Ipoly::new(0);
    }

    #[test]
    fn bank_map_splits_north_south() {
        let m = BankMap {
            dims: Dims::new(16, 8),
        };
        assert_eq!(m.banks(), 32);
        let north = m.dest(3);
        assert_eq!(north.edge, Some(EdgePort::North));
        assert_eq!(north.coord.x, 3);
        let south = m.dest(16 + 5);
        assert_eq!(south.edge, Some(EdgePort::South));
        assert_eq!(south.coord.x, 5);
        assert_eq!(south.coord.y, 7);
    }
}
