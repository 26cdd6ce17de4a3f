//! Integer hashing shared by the workspace: the SplitMix64 mixer and a
//! [`Hasher`] built on it for maps keyed by program-generated integers.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer (Steele et al.).
#[must_use]
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`Hasher`] for integer keys the program itself generates (sampler
/// positions, triple and cluster ids, sample sizes): each integer
/// written is folded in with one [`splitmix64`] round, in place of
/// SipHash's per-key setup and rounds. It is unseeded, so keep it off
/// maps whose keys come from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = splitmix64(self.0 ^ i);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Builds [`IntHasher`]s: the `S` of a `HashMap` or `HashSet` keyed by
/// program-generated integers.
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_sequence() {
        // Reference values from the canonical SplitMix64 with seed 0:
        // the generator returns mix(seed + γ·k); our finalizer matches the
        // published first output for state 0.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(1), 0x910a2dec89025cc1);
    }

    #[test]
    fn int_hasher_mixes_every_written_integer() {
        use std::hash::BuildHasher;
        let build = BuildIntHasher::default();
        assert_eq!(build.hash_one(7u64), splitmix64(7));
        assert_eq!(build.hash_one(7u32), build.hash_one(7u64));
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
    }
}
