//! The hasher for keys that are already digests.

use std::hash::{BuildHasher, Hasher, RandomState};

/// Hash state for maps keyed by a fingerprint. The key is an FNV-1a
/// digest, so its bits are spread already and SipHash over it buys only
/// latency; what it still needs is a *secret*, or a peer could compute
/// bucket placement from the wire and craft requests that share a bucket.
/// So the key is xored with a seed — drawn once per instance from the
/// standard library's [`RandomState`], shared by clones — and folded
/// through one 64 × 64 → 128-bit multiply, high half xor low half, which
/// leaves every output bit (the low ones a table indexes by, the high
/// ones it tags by) depending on every bit of key and seed.
///
/// The state is its own [`Hasher`]: building one copies the seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DigestState(u64);

impl Default for DigestState {
    fn default() -> DigestState {
        DigestState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestState;

    fn build_hasher(&self) -> DigestState {
        *self
    }
}

impl Hasher for DigestState {
    fn write_u64(&mut self, word: u64) {
        // The multiplier is 2⁶⁴ ÷ the golden ratio, odd.
        let product = u128::from(word ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Input other than a `u64` key, a byte at a time (nothing uses it).
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u64(byte.into()));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_hashes_repeatably_and_spreads_both_ends() {
        let state = DigestState::default();
        let copy = state;
        assert_eq!(state.hash_one(7u64), copy.hash_one(7u64));
        // Sequential keys (the worst case for an identity hasher) must
        // fill the low bits a table indexes by and the high bits it tags
        // by: 8192 keys into 256 values of each, none left empty.
        let (mut low, mut high) = ([0u32; 256], [0u32; 256]);
        for key in 0..8192u64 {
            let hash = state.hash_one(key);
            low[(hash & 0xFF) as usize] += 1;
            high[(hash >> 56) as usize] += 1;
        }
        assert!(low.iter().chain(&high).all(|&n| (1..128).contains(&n)));
    }

    #[test]
    fn instances_draw_their_own_seed() {
        let (a, b) = (DigestState::default(), DigestState::default());
        assert!((0..8u64).any(|key| a.hash_one(key) != b.hash_one(key)));
    }
}
