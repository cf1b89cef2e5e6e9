//! Runtime-dispatched SIMD kernels for the hot replay loops.
//!
//! Three integer kernels back the lockstep replay path and the cache
//! tag scan: a broadcast add over lane-indexed `u64` arrays, an
//! any-lane deadline test, and a 4-way set scan. Each kernel exists in
//! three tiers — a scalar reference implementation, an SSE2 baseline,
//! and an AVX2 fast path — selected at runtime with
//! [`std::is_x86_feature_detected!`]. All three tiers compute
//! *bit-identical* results: every operation is exact integer
//! arithmetic (wrapping adds and compares), so simulation output never
//! depends on the host CPU. The scalar tier is the reference: the SIMD
//! tiers are differentially tested against it, and `EBCP_SIMD=scalar`
//! (or `sse2`) in the environment caps the detected tier so the
//! fallback paths run under CI on AVX2 hosts too.

use std::sync::OnceLock;

/// A SIMD capability tier. Ordered: later tiers imply earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar reference implementation (always available).
    Scalar,
    /// 128-bit SSE2 path (baseline on every `x86_64`).
    Sse2,
    /// 256-bit AVX2 path.
    Avx2,
}

impl SimdTier {
    /// Whether this tier can run on the current host.
    pub fn available(self) -> bool {
        self <= detect_hw()
    }

    /// Human-readable tier name (matches the `EBCP_SIMD` spellings).
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Every tier the current host can run, in ascending order.
    pub fn available_tiers() -> Vec<SimdTier> {
        [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2]
            .into_iter()
            .filter(|t| t.available())
            .collect()
    }
}

/// The best tier the hardware supports, ignoring the env override.
fn detect_hw() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
        // SSE2 is part of the x86_64 baseline ABI.
        SimdTier::Sse2
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdTier::Scalar
}

/// Detects the dispatch tier: hardware capability, capped by the
/// `EBCP_SIMD` environment variable (`scalar` | `sse2` | `avx2`).
///
/// The override can only *lower* the tier — requesting `avx2` on a
/// host without it still yields the best available path. Unknown
/// values are ignored. Because all tiers are bit-identical, the
/// override changes which code runs, never what it computes; it exists
/// so tests and CI can exercise the fallback paths deliberately.
pub fn detect() -> SimdTier {
    let hw = detect_hw();
    match std::env::var("EBCP_SIMD").as_deref() {
        Ok("scalar") => SimdTier::Scalar,
        Ok("sse2") => SimdTier::Sse2.min(hw),
        _ => hw,
    }
}

/// The process-wide dispatch tier, detected once and cached.
pub fn tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(detect)
}

// ---------------------------------------------------------------------------
// add_broadcast: xs[i] += inc (wrapping) for every lane.
// ---------------------------------------------------------------------------

/// Adds `inc` to every element of `xs` (wrapping).
///
/// The lockstep replay uses this to advance every lane's cycle counter
/// by the shared per-entry increment in one pass.
#[inline]
pub fn add_broadcast(tier: SimdTier, xs: &mut [u64], inc: u64) {
    match tier {
        SimdTier::Scalar => add_broadcast_scalar(xs, inc),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe { add_broadcast_sse2(xs, inc) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { add_broadcast_avx2(xs, inc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => add_broadcast_scalar(xs, inc),
    }
}

fn add_broadcast_scalar(xs: &mut [u64], inc: u64) {
    for x in xs {
        *x = x.wrapping_add(inc);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn add_broadcast_sse2(xs: &mut [u64], inc: u64) {
    use std::arch::x86_64::*;
    let vinc = _mm_set1_epi64x(inc as i64);
    let mut chunks = xs.chunks_exact_mut(2);
    for c in &mut chunks {
        let p = c.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, _mm_add_epi64(_mm_loadu_si128(p), vinc));
    }
    add_broadcast_scalar(chunks.into_remainder(), inc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_broadcast_avx2(xs: &mut [u64], inc: u64) {
    use std::arch::x86_64::*;
    let vinc = _mm256_set1_epi64x(inc as i64);
    let mut chunks = xs.chunks_exact_mut(4);
    for c in &mut chunks {
        let p = c.as_mut_ptr().cast::<__m256i>();
        _mm256_storeu_si256(p, _mm256_add_epi64(_mm256_loadu_si256(p), vinc));
    }
    add_broadcast_scalar(chunks.into_remainder(), inc);
}

// ---------------------------------------------------------------------------
// any_due: does any lane have next_ev[i] <= cycle[i] + step?
// ---------------------------------------------------------------------------

/// Returns `true` if any lane's next event deadline falls within the
/// entry about to be replayed: `next_ev[i] <= cycle[i] + step`
/// (unsigned, wrapping add — idle lanes carry `u64::MAX`).
///
/// # Panics
///
/// Panics if the two slices differ in length (debug builds).
#[inline]
pub fn any_due(tier: SimdTier, next_ev: &[u64], cycle: &[u64], step: u64) -> bool {
    debug_assert_eq!(next_ev.len(), cycle.len());
    match tier {
        SimdTier::Scalar => any_due_scalar(next_ev, cycle, step),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe { any_due_sse2(next_ev, cycle, step) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { any_due_avx2(next_ev, cycle, step) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => any_due_scalar(next_ev, cycle, step),
    }
}

fn any_due_scalar(next_ev: &[u64], cycle: &[u64], step: u64) -> bool {
    next_ev
        .iter()
        .zip(cycle)
        .any(|(&ne, &cy)| ne <= cy.wrapping_add(step))
}

/// Per-64-bit-lane unsigned `a > b` using only SSE2 ops: compare the
/// halves as unsigned 32-bit (sign-flip + signed compare) and combine
/// `hi_gt | (hi_eq & lo_gt)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn cmpgt_epu64_sse2(
    a: std::arch::x86_64::__m128i,
    b: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let sign32 = _mm_set1_epi32(i32::MIN);
    let gt32 = _mm_cmpgt_epi32(_mm_xor_si128(a, sign32), _mm_xor_si128(b, sign32));
    let eq32 = _mm_cmpeq_epi32(a, b);
    // Broadcast each 64-bit lane's high (odd) and low (even) 32-bit
    // verdicts across the lane.
    let gt_hi = _mm_shuffle_epi32(gt32, 0b1111_0101);
    let eq_hi = _mm_shuffle_epi32(eq32, 0b1111_0101);
    let gt_lo = _mm_shuffle_epi32(gt32, 0b1010_0000);
    _mm_or_si128(gt_hi, _mm_and_si128(eq_hi, gt_lo))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn any_due_sse2(next_ev: &[u64], cycle: &[u64], step: u64) -> bool {
    use std::arch::x86_64::*;
    let vstep = _mm_set1_epi64x(step as i64);
    let n = next_ev.len();
    let mut i = 0;
    while i + 2 <= n {
        let ne = _mm_loadu_si128(next_ev.as_ptr().add(i).cast());
        let cy = _mm_loadu_si128(cycle.as_ptr().add(i).cast());
        // Due unless ne > cy + step in every lane.
        let gt = cmpgt_epu64_sse2(ne, _mm_add_epi64(cy, vstep));
        if _mm_movemask_epi8(gt) != 0xFFFF {
            return true;
        }
        i += 2;
    }
    any_due_scalar(&next_ev[i..], &cycle[i..], step)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn any_due_avx2(next_ev: &[u64], cycle: &[u64], step: u64) -> bool {
    use std::arch::x86_64::*;
    let vstep = _mm256_set1_epi64x(step as i64);
    let sign = _mm256_set1_epi64x(i64::MIN);
    let n = next_ev.len();
    let mut i = 0;
    while i + 4 <= n {
        let ne = _mm256_loadu_si256(next_ev.as_ptr().add(i).cast());
        let cy = _mm256_loadu_si256(cycle.as_ptr().add(i).cast());
        let b = _mm256_add_epi64(cy, vstep);
        // Unsigned ne > b via sign-bit flip + signed compare.
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(ne, sign), _mm256_xor_si256(b, sign));
        if _mm256_movemask_epi8(gt) != -1 {
            return true;
        }
        i += 4;
    }
    any_due_scalar(&next_ev[i..], &cycle[i..], step)
}

// ---------------------------------------------------------------------------
// scan4: hit way + replacement victim of a 4-way cache set.
// ---------------------------------------------------------------------------

/// Scans a 4-way set: returns `(hit_way, victim_way)` where `hit_way`
/// is the matching way index or `4` on a miss, and `victim_way` is the
/// replacement choice — the first empty way (`tags[i] == u64::MAX`) if
/// any, else the first way with the smallest LRU stamp.
///
/// Precondition (upheld by the cache): non-empty tags within a set are
/// unique, and live LRU stamps are `>= 1` so empty ways (key 0) always
/// win the strict-`<` argmin.
#[inline]
pub fn scan4(tier: SimdTier, tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
    match tier {
        SimdTier::Scalar => scan4_scalar(tags, lru, tag),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe { scan4_sse2(tags, lru, tag) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { scan4_avx2(tags, lru, tag) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scan4_scalar(tags, lru, tag),
    }
}

/// [`scan4`] with static dispatch for the per-probe call site in the
/// cache model.
///
/// A cache probe scans exactly 32 bytes of tags; at that size the work
/// is a handful of cycles, and profiling showed the per-call cost of
/// runtime dispatch — a cached-tier load plus a call into a
/// `#[target_feature]` function that cannot inline across the feature
/// boundary — exceeding the scan itself (the dispatched AVX2 probe
/// benched *slower* than the plain scalar loop it replaced). SSE2 is
/// part of the x86_64 baseline ABI, so the SSE2 kernel inlines
/// directly here with no dispatch and no call; other architectures get
/// the scalar reference. Runtime tier dispatch stays on the
/// lane-indexed kernels ([`add_broadcast`], [`any_due`]), whose arrays
/// grow with the lockstep group and amortize the dispatch. All tiers
/// are bit-identical, so this choice never affects results.
#[inline(always)]
pub fn scan4_probe(tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
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
/// stamps into the `(hit, victim)` pair; shared by both SIMD tiers.
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan4_avx2(tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
    use std::arch::x86_64::*;
    let t = _mm256_loadu_si256(tags.as_ptr().cast());
    let hit_mask = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
        t,
        _mm256_set1_epi64x(tag as i64),
    ))) as u32;
    let empty_mask = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
        t,
        _mm256_set1_epi64x(-1),
    ))) as u32;
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
    fn env_override_only_lowers_the_tier() {
        // detect() itself reads the ambient env; the capping logic is
        // what matters and is pure.
        assert!(SimdTier::Scalar.available());
        assert!(detect() <= detect_hw());
        assert!(SimdTier::Scalar <= SimdTier::Sse2 && SimdTier::Sse2 <= SimdTier::Avx2);
    }

    #[test]
    fn add_broadcast_tiers_agree() {
        let mut rng = Rng(0x5eed_0001);
        for len in 0..13 {
            let base: Vec<u64> = (0..len).map(|_| rng.next()).collect();
            let inc = rng.next();
            let mut reference = base.clone();
            add_broadcast_scalar(&mut reference, inc);
            for tier in SimdTier::available_tiers() {
                let mut xs = base.clone();
                add_broadcast(tier, &mut xs, inc);
                assert_eq!(xs, reference, "tier {} len {len}", tier.label());
            }
        }
    }

    #[test]
    fn any_due_tiers_agree_on_randomized_lanes() {
        let mut rng = Rng(0x5eed_0002);
        for case in 0..400 {
            let len = (rng.next() % 13) as usize;
            // Mix sentinel MAX deadlines with near-cycle ones so both
            // verdicts occur; bias cycles small like real replays.
            let cycle: Vec<u64> = (0..len).map(|_| rng.next() % 1_000_000).collect();
            let next_ev: Vec<u64> = cycle
                .iter()
                .map(|&c| match rng.next() % 3 {
                    0 => u64::MAX,
                    1 => c + rng.next() % 64,
                    _ => c + 1 + rng.next() % 100_000,
                })
                .collect();
            let step = rng.next() % 128;
            let want = any_due_scalar(&next_ev, &cycle, step);
            for tier in SimdTier::available_tiers() {
                assert_eq!(
                    any_due(tier, &next_ev, &cycle, step),
                    want,
                    "tier {} case {case}",
                    tier.label()
                );
            }
        }
    }

    #[test]
    fn any_due_handles_wrapping_sums() {
        // cycle + step wraps past u64::MAX: the SIMD adds wrap the same
        // way the scalar `wrapping_add` does.
        let cycle = [u64::MAX - 1, 5, u64::MAX, 0];
        let next_ev = [3, u64::MAX, u64::MAX - 1, 1];
        for step in [0, 1, 2, u64::MAX] {
            let want = any_due_scalar(&next_ev, &cycle, step);
            for tier in SimdTier::available_tiers() {
                assert_eq!(any_due(tier, &next_ev, &cycle, step), want);
            }
        }
    }

    #[test]
    fn scan4_tiers_agree_on_randomized_sets() {
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
            let want = scan4_scalar(&tags, &lru, probe);
            for tier in SimdTier::available_tiers() {
                assert_eq!(
                    scan4(tier, &tags, &lru, probe),
                    want,
                    "tier {} case {case} tags {tags:?} lru {lru:?} probe {probe}",
                    tier.label()
                );
            }
            assert_eq!(
                scan4_probe(&tags, &lru, probe),
                want,
                "static probe kernel, case {case} tags {tags:?} lru {lru:?} probe {probe}"
            );
        }
    }

    #[test]
    fn scan4_prefers_first_empty_way_then_first_lru_tie() {
        let lru = [7, 3, 3, 9];
        // No empties: first of the tied-minimum ways (1) wins.
        let tags = [10, 20, 30, 40];
        for tier in SimdTier::available_tiers() {
            assert_eq!(scan4(tier, &tags, &lru, 30), (2, 1), "{}", tier.label());
            assert_eq!(scan4(tier, &tags, &lru, 99), (4, 1), "{}", tier.label());
        }
        // An empty way beats every live stamp.
        let tags = [10, 20, u64::MAX, u64::MAX];
        for tier in SimdTier::available_tiers() {
            assert_eq!(scan4(tier, &tags, &lru, 10), (0, 2), "{}", tier.label());
        }
    }
}
