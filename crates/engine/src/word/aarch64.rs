//! ISA-native lane word for aarch64: [`W256Neon`] — 256 lanes in two
//! NEON `uint64x2_t` registers.
//!
//! Same layout-and-leaf-function discipline as the `x86_64` module:
//! chunk layout is identical to the portable [`super::W256`], every
//! intrinsic is confined to a `#[target_feature(enable = "neon")]`
//! leaf function, and [`LaneWord::dispatch`] wraps a whole settle pass
//! so dispatch happens once per batch. NEON is architecturally baseline
//! on aarch64, but the word still goes through runtime detection in
//! `crate::simd` so the selection and telemetry story is uniform
//! across ISAs. Correctness on non-ARM development hosts is carried by
//! the portable words: this module is compile-gated and exercised by
//! the same differential suites when built on an ARM machine.

use core::arch::aarch64::*;
use std::arch::is_aarch64_feature_detected;

use super::{mask_chunks, LaneWord};

/// 256 simulation lanes as two NEON `uint64x2_t` registers.
///
/// Bit-identical to [`super::W256`] by construction. Only constructed
/// after `neon` has been detected (see `crate::simd`).
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct W256Neon([uint64x2_t; 2]);

impl W256Neon {
    #[inline]
    fn to_array(self) -> [u64; 4] {
        // SAFETY: [uint64x2_t; 2] and [u64; 4] are both 32 plain data
        // bytes.
        unsafe { core::mem::transmute(self.0) }
    }

    #[inline]
    fn from_array(a: [u64; 4]) -> Self {
        // SAFETY: as above; a plain 32-byte reinterpretation.
        W256Neon(unsafe { core::mem::transmute(a) })
    }
}

impl std::fmt::Debug for W256Neon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("W256Neon").field(&self.to_array()).finish()
    }
}

impl PartialEq for W256Neon {
    fn eq(&self, other: &Self) -> bool {
        self.to_array() == other.to_array()
    }
}

impl Eq for W256Neon {}

#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_dispatch<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_and(a: [uint64x2_t; 2], b: [uint64x2_t; 2]) -> [uint64x2_t; 2] {
    [vandq_u64(a[0], b[0]), vandq_u64(a[1], b[1])]
}

#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_or(a: [uint64x2_t; 2], b: [uint64x2_t; 2]) -> [uint64x2_t; 2] {
    [vorrq_u64(a[0], b[0]), vorrq_u64(a[1], b[1])]
}

#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_xor(a: [uint64x2_t; 2], b: [uint64x2_t; 2]) -> [uint64x2_t; 2] {
    [veorq_u64(a[0], b[0]), veorq_u64(a[1], b[1])]
}

#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_not(a: [uint64x2_t; 2]) -> [uint64x2_t; 2] {
    let ones = vdupq_n_u64(!0);
    [veorq_u64(a[0], ones), veorq_u64(a[1], ones)]
}

/// `(s & d1) | (!s & d0)` as one bit-select per chunk (`vbsl`).
#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_mux(d0: [uint64x2_t; 2], d1: [uint64x2_t; 2], s: [uint64x2_t; 2]) -> [uint64x2_t; 2] {
    [vbslq_u64(s[0], d1[0], d0[0]), vbslq_u64(s[1], d1[1], d0[1])]
}

/// Whether no bit is set: OR the two registers, then one horizontal
/// max (`umaxv`) over the 32-bit lanes.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn neon_is_zero(a: [uint64x2_t; 2]) -> bool {
    vmaxvq_u32(vreinterpretq_u32_u64(vorrq_u64(a[0], a[1]))) == 0
}

impl LaneWord for W256Neon {
    const LANES: usize = 256;
    const WORDS: usize = 4;

    #[inline]
    fn splat(value: bool) -> Self {
        Self::from_array([u64::splat(value); 4])
    }

    #[inline]
    fn mask(lanes: usize) -> Self {
        Self::from_array(mask_chunks(lanes))
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        // SAFETY: module contract — only constructed with neon present.
        W256Neon(unsafe { neon_and(self.0, other.0) })
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        // SAFETY: module contract.
        W256Neon(unsafe { neon_or(self.0, other.0) })
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        // SAFETY: module contract.
        W256Neon(unsafe { neon_xor(self.0, other.0) })
    }

    #[inline]
    fn not(self) -> Self {
        // SAFETY: module contract.
        W256Neon(unsafe { neon_not(self.0) })
    }

    #[inline]
    fn mux(d0: Self, d1: Self, s: Self) -> Self {
        // SAFETY: module contract.
        W256Neon(unsafe { neon_mux(d0.0, d1.0, s.0) })
    }

    #[inline]
    fn popcount_accum(self, mask: Self, acc: &mut u64) {
        // Scalar popcnt over the chunks — same code the portable word
        // compiles to; NEON's byte-wise vcnt + horizontal add is not a
        // win for four 64-bit chunks.
        let (a, m) = (self.to_array(), mask.to_array());
        let mut n = 0u32;
        for i in 0..4 {
            n += (a[i] & m[i]).count_ones();
        }
        *acc += n as u64;
    }

    #[inline]
    fn is_zero(self) -> bool {
        // SAFETY: module contract.
        unsafe { neon_is_zero(self.0) }
    }

    #[inline]
    fn get_u64(self, idx: usize) -> u64 {
        self.to_array()[idx]
    }

    #[inline]
    fn set_u64(&mut self, idx: usize, word: u64) {
        let mut a = self.to_array();
        a[idx] = word;
        *self = Self::from_array(a);
    }

    #[inline(always)]
    fn dispatch<R>(f: impl FnOnce() -> R) -> R {
        debug_assert!(is_aarch64_feature_detected!("neon"), "W256Neon constructed without NEON");
        // SAFETY: module contract — this word type exists only on hosts
        // where `neon` was detected at backend selection.
        unsafe { neon_dispatch(f) }
    }
}
