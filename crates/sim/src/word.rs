//! Lane-word abstraction for bit-parallel simulation kernels.
//!
//! Every net in a simulation pass carries one *lane word*: each bit lane is
//! an independent simulation context (one fault of a batch, or one input
//! pattern of an exhaustive sweep). The original kernel is hard-wired to
//! `u64` (64 lanes); [`LaneWord`] lifts the handful of operations the
//! kernels actually need so the same code runs over a 256-bit word —
//! [`W256`], four `u64` limbs — and simulates 256 faults or patterns per
//! pass. All operations are lane-wise, so widening a kernel never changes
//! per-lane results: lane `l` of a `W256` run is bit-identical to lane
//! `l % 64` of the corresponding `u64` run.

use std::fmt::Debug;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

/// A fixed-width word of independent simulation lanes.
///
/// Implementations must behave as a plain bit vector: the bitwise operators
/// act lane-wise, [`LaneWord::zero`]/[`LaneWord::ones`] are the identity
/// elements, and lane `l` lives in bit `l % 64` of limb `l / 64`
/// (little-endian limb order, exposed by [`LaneWord::limb`]).
pub trait LaneWord:
    Copy
    + Debug
    + Default
    + PartialEq
    + Eq
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + Not<Output = Self>
    + 'static
{
    /// Number of independent lanes (bits) in the word.
    const LANES: usize;

    /// Number of `u64` limbs (`LANES / 64`).
    const LIMBS: usize;

    /// The all-zero word.
    fn zero() -> Self;

    /// The all-ones word.
    fn ones() -> Self;

    /// Broadcasts one bit to every lane (the fault-free value of a net).
    #[inline]
    fn splat_bit(bit: bool) -> Self {
        if bit {
            Self::ones()
        } else {
            Self::zero()
        }
    }

    /// The word with only lane `lane` set.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn lane_bit(lane: usize) -> Self;

    /// The mask covering the `n` lowest lanes (all lanes when `n == LANES`,
    /// empty when `n == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    fn low_lanes(n: usize) -> Self;

    /// Whether no lane is set.
    fn is_zero(self) -> bool;

    /// Number of set lanes.
    fn count_lanes(self) -> u32;

    /// The `i`-th 64-lane limb (lane `64 * i + k` is bit `k`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= LIMBS`.
    fn limb(self, i: usize) -> u64;
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const LIMBS: usize = 1;

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn ones() -> Self {
        u64::MAX
    }

    #[inline]
    fn lane_bit(lane: usize) -> Self {
        assert!(lane < 64, "lane {lane} out of range");
        1u64 << lane
    }

    #[inline]
    fn low_lanes(n: usize) -> Self {
        assert!(n <= 64, "lane count {n} out of range");
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn count_lanes(self) -> u32 {
        self.count_ones()
    }

    #[inline]
    fn limb(self, i: usize) -> u64 {
        assert!(i == 0, "limb {i} out of range");
        self
    }
}

/// A 256-lane word: four `u64` limbs, little-endian lane order.
///
/// This is the wide kernel's value type. Four limbs is wide enough to
/// quadruple batch throughput yet small enough to live in registers on any
/// 64-bit target without `unsafe` or vendor intrinsics; the compiler
/// auto-vectorizes the limb-wise loops where SIMD units exist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct W256(pub [u64; 4]);

impl BitAnd for W256 {
    type Output = W256;

    #[inline]
    fn bitand(self, rhs: W256) -> W256 {
        W256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for W256 {
    type Output = W256;

    #[inline]
    fn bitor(self, rhs: W256) -> W256 {
        W256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for W256 {
    type Output = W256;

    #[inline]
    fn bitxor(self, rhs: W256) -> W256 {
        W256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl BitAndAssign for W256 {
    #[inline]
    fn bitand_assign(&mut self, rhs: W256) {
        *self = *self & rhs;
    }
}

impl BitOrAssign for W256 {
    #[inline]
    fn bitor_assign(&mut self, rhs: W256) {
        *self = *self | rhs;
    }
}

impl Not for W256 {
    type Output = W256;

    #[inline]
    fn not(self) -> W256 {
        W256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl LaneWord for W256 {
    const LANES: usize = 256;
    const LIMBS: usize = 4;

    #[inline]
    fn zero() -> Self {
        W256([0; 4])
    }

    #[inline]
    fn ones() -> Self {
        W256([u64::MAX; 4])
    }

    #[inline]
    fn lane_bit(lane: usize) -> Self {
        assert!(lane < 256, "lane {lane} out of range");
        // Selected per limb rather than stored into one limb of an array,
        // so the word stays in registers (a narrow store followed by wide
        // loads of the same array stalls store forwarding).
        let bit = 1u64 << (lane % 64);
        W256(std::array::from_fn(
            |i| if i == lane / 64 { bit } else { 0 },
        ))
    }

    #[inline]
    fn low_lanes(n: usize) -> Self {
        assert!(n <= 256, "lane count {n} out of range");
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let low = n.saturating_sub(64 * i);
            *limb = u64::low_lanes(low.min(64));
        }
        W256(limbs)
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0 == [0; 4]
    }

    #[inline]
    fn count_lanes(self) -> u32 {
        self.0.iter().map(|limb| limb.count_ones()).sum()
    }

    #[inline]
    fn limb(self, i: usize) -> u64 {
        self.0[i]
    }
}

/// Calls `visit(lane)` for every set lane of `word`, in increasing order.
pub fn for_each_lane<W: LaneWord>(word: W, mut visit: impl FnMut(usize)) {
    for i in 0..W::LIMBS {
        let mut limb = word.limb(i);
        while limb != 0 {
            let lane = 64 * i + limb.trailing_zeros() as usize;
            visit(lane);
            limb &= limb - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `x | x == x` and `x ^ x == 0` are exactly the algebraic laws under
    // test, so the operands are equal on purpose.
    #[allow(clippy::eq_op)]
    fn check_word_laws<W: LaneWord>() {
        assert_eq!(W::LANES, 64 * W::LIMBS);
        assert_eq!(W::zero(), W::default());
        assert_eq!(!W::zero(), W::ones());
        assert_eq!(W::splat_bit(true), W::ones());
        assert_eq!(W::splat_bit(false), W::zero());
        assert!(W::zero().is_zero());
        assert!(!W::ones().is_zero());
        assert_eq!(W::ones().count_lanes() as usize, W::LANES);
        assert_eq!(W::low_lanes(0), W::zero());
        assert_eq!(W::low_lanes(W::LANES), W::ones());
        for lane in (0..W::LANES).step_by(7) {
            let bit = W::lane_bit(lane);
            assert_eq!(bit.count_lanes(), 1);
            assert_eq!(bit.limb(lane / 64) >> (lane % 64) & 1, 1);
            assert_eq!(bit & W::low_lanes(lane), W::zero());
            assert_eq!(bit & W::low_lanes(lane + 1), bit);
            assert_eq!(bit | bit, bit);
            assert_eq!(bit ^ bit, W::zero());
            assert_eq!(bit & !bit, W::zero());
        }
    }

    #[test]
    fn u64_satisfies_the_lane_word_laws() {
        check_word_laws::<u64>();
    }

    #[test]
    fn w256_satisfies_the_lane_word_laws() {
        check_word_laws::<W256>();
    }

    #[test]
    fn w256_lanes_map_to_limbs() {
        let w = W256::lane_bit(0) | W256::lane_bit(65) | W256::lane_bit(255);
        assert_eq!(w.limb(0), 1);
        assert_eq!(w.limb(1), 2);
        assert_eq!(w.limb(2), 0);
        assert_eq!(w.limb(3), 1u64 << 63);
        assert_eq!(w.count_lanes(), 3);
    }

    #[test]
    fn low_lanes_straddles_limb_boundaries() {
        let w = W256::low_lanes(100);
        assert_eq!(w.limb(0), u64::MAX);
        assert_eq!(w.limb(1), (1u64 << 36) - 1);
        assert_eq!(w.limb(2), 0);
        assert_eq!(w.count_lanes(), 100);
    }

    #[test]
    fn for_each_lane_visits_in_order() {
        let w = W256::lane_bit(3) | W256::lane_bit(64) | W256::lane_bit(200);
        let mut seen = Vec::new();
        for_each_lane(w, |lane| seen.push(lane));
        assert_eq!(seen, vec![3, 64, 200]);
        let mut none = Vec::new();
        for_each_lane(W256::zero(), |lane| none.push(lane));
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_lane_bit_panics() {
        let _ = W256::lane_bit(256);
    }
}
