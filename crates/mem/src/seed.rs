//! The workspace-wide seed-derivation primitives.
//!
//! These live at the bottom of the crate graph so every layer — the
//! experiment drivers in `unxpec::experiments::seeding`, the cache
//! fault-injection streams, the harness trial enumeration — derives
//! seeds with the *same* arithmetic. A trial's seed, and every fault
//! decision made under it, is a pure function of `(root, label, index)`
//! and never of execution order, which is what keeps an N-way parallel
//! sweep byte-identical to a serial one even under injection.
//!
//! Derivation is [`splitmix64`] over `root XOR fnv1a64(label)`:
//! splitmix64 is a full-period bijective finalizer, so distinct labels
//! can never collapse onto one stream, and the scheme needs no state.

/// Sebastiano Vigna's splitmix64 finalizer: a bijective avalanche mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An FNV-1a chain over 64-bit words: the one mixing rule behind the
/// label hash, every digest and every checksum in the workspace.
///
/// ```
/// use unxpec_mem::seed::{fnv1a64, Fnv64};
/// let mut h = Fnv64::new();
/// h.mix(7).mix_str("key");
/// assert_eq!(h.finish(), Fnv64::new().mix(7).mix(fnv1a64("key")).finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A chain at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the chain.
    #[inline]
    pub fn mix(&mut self, v: u64) -> &mut Self {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Folds each byte in as one word: byte-wise FNV-1a.
    #[inline]
    pub fn mix_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.mix(u64::from(*b));
        }
        self
    }

    /// Folds in `s`'s [`fnv1a64`] label hash as one word.
    pub fn mix_str(&mut self, s: &str) -> &mut Self {
        self.mix(fnv1a64(s))
    }

    /// The chain's current value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a over `label`'s bytes — the stable label hash.
pub fn fnv1a64(label: &str) -> u64 {
    Fnv64::new().mix_bytes(label.as_bytes()).finish()
}

/// The seed for the stream `label` under `root`.
pub fn stream(root: u64, label: &str) -> u64 {
    splitmix64(root ^ fnv1a64(label))
}

/// The seed for repetition `index` of stream `label` under `root`
/// (e.g. one trial of a seed-axis sweep).
pub fn indexed(root: u64, label: &str, index: u64) -> u64 {
    splitmix64(stream(root, label).wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_label_sensitive_and_stable() {
        assert_ne!(stream(1, "pdf"), stream(1, "leakage"));
        assert_ne!(stream(1, "pdf"), stream(2, "pdf"));
        assert_eq!(stream(7, "rate"), stream(7, "rate"));
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }
}
