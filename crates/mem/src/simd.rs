//! The 4-way set-scan kernel behind every cache probe.
//!
//! [`scan4_probe`] finds the hit way and the replacement victim of a
//! 4-way set in one pass. On `x86_64` it is an SSE2 kernel chosen at
//! compile time (SSE2 is part of the `x86_64` baseline ABI, so nothing
//! is detected at runtime); elsewhere it is the scalar reference
//! `scan4_scalar`. Both compute *bit-identical* results — the scan is
//! exact integer comparison — so simulation output never depends on the
//! host CPU, and the unit tests check the kernel against the reference.

/// Scans a 4-way set: returns `(hit_way, victim_way)` where `hit_way`
/// is the matching way index or `4` on a miss, and `victim_way` is the
/// replacement choice — the first empty way (`tags[i] == u64::MAX`) if
/// any, else the first way with the smallest LRU stamp.
///
/// Precondition (upheld by the cache): non-empty tags within a set are
/// unique, and live LRU stamps are `>= 1` so empty ways (key 0) always
/// win the strict-`<` argmin.
///
/// A cache probe scans exactly 32 bytes of tags; at that size the work
/// is a handful of cycles, so the SSE2 kernel inlines straight into the
/// probe with no dispatch and no call (a runtime-dispatched AVX2 probe
/// benched *slower* than the plain scalar loop).
#[inline(always)]
pub(crate) fn scan4_probe(tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is unconditionally available on x86_64 (it is
        // part of the baseline ABI), so the target-feature contract
        // holds on every host this cfg selects.
        unsafe { scan4_sse2(tags, lru, tag) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scan4_scalar(tags, lru, tag)
}

/// The portable reference for [`scan4_probe`].
#[cfg(any(test, not(target_arch = "x86_64")))]
fn scan4_scalar(tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
    let mut hit = 4u32;
    let mut victim = 0u32;
    let mut best = u32::MAX;
    for i in 0..4 {
        if tags[i] == tag && hit == 4 {
            hit = i as u32;
        }
        let key = if tags[i] == u64::MAX { 0 } else { lru[i] };
        if key < best {
            best = key;
            victim = i as u32;
        }
    }
    (hit, victim)
}

/// Resolves the two 4-bit masks (hit ways, empty ways) plus the LRU
/// stamps into the `(hit, victim)` pair.
#[cfg(target_arch = "x86_64")]
#[inline]
fn resolve_masks(hit_mask: u32, empty_mask: u32, lru: &[u32; 4]) -> (u32, u32) {
    let hit = hit_mask.trailing_zeros().min(4);
    let mut victim = 0u32;
    let mut best = u32::MAX;
    for (i, &l) in lru.iter().enumerate() {
        let key = if empty_mask & (1 << i) != 0 { 0 } else { l };
        if key < best {
            best = key;
            victim = i as u32;
        }
    }
    (hit, victim)
}

/// Per-64-bit-lane equality using only SSE2 ops.
///
/// # Safety
///
/// The host must support SSE2, which every `x86_64` host does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn cmpeq_epi64_sse2(
    a: std::arch::x86_64::__m128i,
    b: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let eq32 = _mm_cmpeq_epi32(a, b);
    _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0b1011_0001))
}

/// The SSE2 body of [`scan4_probe`].
///
/// # Safety
///
/// The host must support SSE2, which every `x86_64` host does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn scan4_sse2(tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
    use std::arch::x86_64::*;
    let lo = _mm_loadu_si128(tags.as_ptr().cast());
    let hi = _mm_loadu_si128(tags.as_ptr().add(2).cast());
    let vtag = _mm_set1_epi64x(tag as i64);
    let vnone = _mm_set1_epi64x(-1);
    let hit_mask = (_mm_movemask_pd(_mm_castsi128_pd(cmpeq_epi64_sse2(lo, vtag))) as u32)
        | ((_mm_movemask_pd(_mm_castsi128_pd(cmpeq_epi64_sse2(hi, vtag))) as u32) << 2);
    let empty_mask = (_mm_movemask_pd(_mm_castsi128_pd(cmpeq_epi64_sse2(lo, vnone))) as u32)
        | ((_mm_movemask_pd(_mm_castsi128_pd(cmpeq_epi64_sse2(hi, vnone))) as u32) << 2);
    resolve_masks(hit_mask, empty_mask, lru)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — tiny deterministic PRNG for differential cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn scan4_probe_matches_scalar_on_randomized_sets() {
        let mut rng = Rng(0x5eed_0003);
        for case in 0..500 {
            // Distinct non-empty tags (the cache invariant), a sprinkle
            // of empty ways, live stamps >= 1 with deliberate ties.
            let mut tags = [0u64; 4];
            let mut lru = [0u32; 4];
            for i in 0..4 {
                tags[i] = if rng.next().is_multiple_of(4) {
                    u64::MAX
                } else {
                    // Unique per way by construction.
                    (rng.next() % 1000) * 4 + i as u64
                };
                lru[i] = 1 + (rng.next() % 5) as u32;
            }
            // Probe either a resident tag or an absent one.
            let probe = if rng.next().is_multiple_of(2) {
                tags[(rng.next() % 4) as usize]
            } else {
                rng.next() % 4000 + 4096
            };
            let probe = if probe == u64::MAX { 7 } else { probe };
            assert_eq!(
                scan4_probe(&tags, &lru, probe),
                scan4_scalar(&tags, &lru, probe),
                "case {case} tags {tags:?} lru {lru:?} probe {probe}"
            );
        }
    }

    #[test]
    fn scan4_prefers_first_empty_way_then_first_lru_tie() {
        let lru = [7, 3, 3, 9];
        // No empties: first of the tied-minimum ways (1) wins.
        let tags = [10, 20, 30, 40];
        for scan in [scan4_probe, scan4_scalar] {
            assert_eq!(scan(&tags, &lru, 30), (2, 1));
            assert_eq!(scan(&tags, &lru, 99), (4, 1));
        }
        // An empty way beats every live stamp.
        let tags = [10, 20, u64::MAX, u64::MAX];
        for scan in [scan4_probe, scan4_scalar] {
            assert_eq!(scan(&tags, &lru, 10), (0, 2));
        }
    }
}
