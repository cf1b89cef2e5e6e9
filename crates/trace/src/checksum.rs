//! The checksum of the segmented container ([`segfile`](crate::segfile)):
//! FNV-1a 64 over little-endian `u64` words, with the high half of the
//! state folded down after every step.
//!
//! Folding a whole word per step runs one multiply per eight bytes where
//! byte-wise FNV-1a runs eight, which is what makes the open-time verify
//! walk over a multi-hundred-MiB file cheap. A trailing 1–7 bytes are
//! folded one byte per step. [`WordFnv`] streams with a carry of at most
//! seven bytes, so a writer hashes items as it emits them.
//!
//! **Single-word guarantee.** Each step `h ← f((h ⊕ w) · P)`, with
//! `f(x) = x ⊕ (x ≫ 32)`, is a bijection of the state for a fixed word
//! `w` (the prime is odd, so the multiply is invertible mod 2⁶⁴, and
//! `f(f(x)) = x`), and a bijection of the word for a fixed state. So two
//! inputs of equal length that differ only inside one aligned 8-byte word
//! (or one tail byte) always hash apart: the states differ right after
//! that step and no later step can merge them. Changes spread over
//! several words are caught with high probability. Without the fold,
//! flipping bit 63 of two consecutive words cancelled exactly (a top-bit
//! difference survives the multiply unchanged); `f` copies that bit down
//! to bit 31, where the next word's flip cannot undo it. The container
//! bounds every length through its index and footer, so a truncation or
//! insertion never reaches a payload comparison.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental word-wise FNV-1a 64. Splitting the input across
/// [`update`](WordFnv::update) calls at any points gives the same hash as
/// one call over the concatenation.
#[derive(Clone, Copy, Debug)]
pub struct WordFnv {
    h: u64,
    /// Bytes of a word not yet complete; only the first `carry_len` are
    /// meaningful.
    carry: [u8; 8],
    carry_len: usize,
}

impl WordFnv {
    /// A fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> WordFnv {
        WordFnv {
            h: OFFSET,
            carry: [0; 8],
            carry_len: 0,
        }
    }

    /// Folds `bytes` in, a word per step once eight bytes are at hand.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.carry_len > 0 {
            let take = (8 - self.carry_len).min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < 8 {
                return;
            }
            self.h = step(self.h, u64::from_le_bytes(self.carry));
            self.carry_len = 0;
        }
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        let mut h = self.h;
        for w in words {
            h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        self.h = h;
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
    }

    /// The hash of everything folded in, the tail bytes one per step.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.carry[..self.carry_len]
            .iter()
            .fold(self.h, |h, &b| step(h, u64::from(b)))
    }
}

impl Default for WordFnv {
    fn default() -> Self {
        WordFnv::new()
    }
}

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(PRIME);
    h ^ (h >> 32)
}

/// One-shot [`WordFnv`] of `bytes`.
#[must_use]
pub fn word_fnv64(bytes: &[u8]) -> u64 {
    let mut h = WordFnv::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One folded step per byte: the tail rule of the word hash.
    fn bytewise(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| step(h, u64::from(b)))
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(word_fnv64(&[]), OFFSET);
    }

    #[test]
    fn inputs_shorter_than_a_word_hash_byte_wise() {
        // One step is FNV-1a's xor-multiply followed by the fold: before
        // the fold this is the published FNV-1a 64 test vector for "a".
        let fnv1a = 0xaf63_dc4c_8601_ec8c_u64;
        assert_eq!(word_fnv64(b"a"), fnv1a ^ (fnv1a >> 32));
        assert_eq!(word_fnv64(b"abcdefg"), bytewise(OFFSET, b"abcdefg"));
    }

    #[test]
    fn pins_the_word_rule() {
        let bytes: Vec<u8> = (1..=19).collect();
        let w0 = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let w1 = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let want = bytewise(step(step(OFFSET, w0), w1), &bytes[16..]);
        assert_eq!(word_fnv64(&bytes), want);
        assert_ne!(word_fnv64(&bytes), bytewise(OFFSET, &bytes));
    }

    #[test]
    fn top_bit_flips_in_consecutive_words_are_caught() {
        // The plain word hash's blind spot: a top-bit difference survives
        // the multiply, so a second top-bit flip in the next word undid
        // it. The fold carries it down to bit 31 first.
        let plain = |bytes: &[u8]| {
            bytes.chunks_exact(8).fold(OFFSET, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME)
            })
        };
        for len in [16, 24, 64] {
            let a = vec![0x5au8; len];
            for at in (0..len - 8).step_by(8) {
                let mut b = a.clone();
                b[at + 7] ^= 0x80;
                b[at + 15] ^= 0x80;
                assert_eq!(plain(&a), plain(&b), "the plain hash's blind spot");
                assert_ne!(word_fnv64(&a), word_fnv64(&b), "words {at}.. of {len}");
            }
        }
    }

    proptest! {
        /// Any split of the input across `update` calls hashes the same.
        #[test]
        fn streaming_matches_one_shot(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = WordFnv::new();
            let mut at = 0;
            for c in cuts {
                h.update(&bytes[at..c]);
                at = c;
            }
            h.update(&bytes[at..]);
            prop_assert_eq!(h.finish(), word_fnv64(&bytes));
        }

        /// A change confined to one aligned word, or to one tail byte, is
        /// always caught.
        #[test]
        fn a_change_inside_one_word_always_changes_the_hash(
            bytes in proptest::collection::vec(any::<u8>(), 1..200),
            pick in any::<usize>(),
            mask in 1u64..u64::MAX,
        ) {
            let at = pick % bytes.len();
            let mut changed = bytes.clone();
            if at < bytes.len() / 8 * 8 {
                let at = at / 8 * 8;
                let w = u64::from_le_bytes(changed[at..at + 8].try_into().unwrap()) ^ mask;
                changed[at..at + 8].copy_from_slice(&w.to_le_bytes());
            } else {
                changed[at] ^= (mask % 255 + 1) as u8;
            }
            prop_assert_ne!(word_fnv64(&changed), word_fnv64(&bytes));
        }
    }
}
