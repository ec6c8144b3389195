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
//! A derived seed then starts one [`Xoshiro256pp`] stream.

/// Sebastiano Vigna's splitmix64 finalizer: a bijective avalanche mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The workspace's seeded generator: xoshiro256++ (Blackman and Vigna)
/// with its state filled by [`splitmix64`].
///
/// Every random draw in the simulator — random replacement, memory
/// noise, value prediction, fuzzy-cleanup delays, kernel tables and
/// attack secrets — comes from this stream, and every golden pins it.
/// Its arithmetic is therefore fixed here rather than borrowed from a
/// crate whose stream may change between versions.
///
/// ```
/// use unxpec_mem::seed::Xoshiro256pp;
/// let mut a = Xoshiro256pp::new(42);
/// let mut b = Xoshiro256pp::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// The generator whose word `k` is `splitmix64(seed + k·φ)`, i.e.
    /// the first four outputs of a SplitMix64 sequence started at `seed`.
    pub fn new(seed: u64) -> Self {
        let word = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        Xoshiro256pp {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw in `0..n`, without modulo bias: draws at or above
    /// the largest multiple of `n` are rejected and redrawn.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (the range is empty).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// A uniform draw in `0..=max`.
    #[inline]
    pub fn up_to(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(n) => self.below(n),
            None => self.next_u64(),
        }
    }

    /// A uniform draw in `[0, 1)` with 53 random mantissa bits; an f64
    /// range `lo..hi` is `lo + unit() * (hi - lo)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// If `p` is not in `[0, 1]` (NaN included).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        self.unit() < p
    }

    /// Shuffles `items` in place: Fisher–Yates from the top, swapping
    /// slot `i` with a draw from `0..=i`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
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

    // Known answers: every value below was printed by the vendored
    // `rand` 0.8 shim this generator replaced (`SmallRng::seed_from_u64`
    // with `gen::<u64>()`, `gen_range(0..n)`, `gen_range(0..=14u64)`,
    // `gen::<f64>()`, `gen_bool(0.5)` and `SliceRandom::shuffle`), run
    // once at the listed seeds before the shim was deleted. The goldens
    // pin that stream, so these must never move.
    #[test]
    fn first_outputs_match_the_known_answers() {
        let cases: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0x5317_5d61_490b_23df,
                    0x61da_6f3d_c380_d507,
                    0x5c0f_df91_ec9a_7bfc,
                    0x02ee_bf8c_3bbe_5e1a,
                    0x7eca_04eb_af4a_5eea,
                    0x0543_c377_57f0_8d9a,
                    0xdb74_90c7_5ab5_026e,
                    0xd873_43e6_464b_c959,
                ],
            ),
            (
                42,
                [
                    0xd076_4d4f_4476_689f,
                    0x519e_4174_576f_3791,
                    0xfbe0_7cfb_0c24_ed8c,
                    0xb37d_9f60_0cd8_35b8,
                    0xcb23_1c38_7484_6a73,
                    0x968d_9f00_4e50_de7d,
                    0x2017_18ff_221a_3556,
                    0x9ae9_4e07_0ed8_cb46,
                ],
            ),
            (
                0x5eed,
                [
                    0x8eb2_871b_24ae_0c00,
                    0xfdd2_c14d_7560_f757,
                    0x1746_0bdf_1e7c_3333,
                    0x6ff7_f624_b0c6_310f,
                    0x6eaa_a03f_a515_b2f2,
                    0x640c_127c_1fdb_9ea4,
                    0x4689_b468_6741_e7d5,
                    0xbd3c_9c34_34b6_11b7,
                ],
            ),
        ];
        for (seed, want) in cases {
            let mut rng = Xoshiro256pp::new(seed);
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "seed {seed:#x}");
        }
    }

    #[test]
    fn ranges_match_the_known_answers() {
        let draws = |seed: u64, n: u64| {
            let mut rng = Xoshiro256pp::new(seed);
            (0..8).map(|_| rng.below(n)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 1), [0; 8]);
        assert_eq!(draws(7, 3), [2, 2, 2, 0, 1, 0, 0, 0]);
        assert_eq!(draws(7, 64), [61, 20, 50, 60, 54, 9, 0, 40]);
        assert_eq!(draws(7, 1000), [661, 916, 178, 356, 142, 65, 608, 72]);
        // One stream across successive bounds, as a caller mixing them sees.
        let mut rng = Xoshiro256pp::new(7);
        let mixed: Vec<u64> = [1, 3, 64, 1000]
            .iter()
            .flat_map(|&n| (0..8).map(|_| rng.below(n)).collect::<Vec<_>>())
            .collect();
        assert_eq!(&mixed[8..16], [0, 0, 0, 1, 2, 1, 0, 1]);
        assert_eq!(&mixed[16..24], [37, 62, 43, 28, 52, 20, 35, 50]);
        assert_eq!(&mixed[24..], [342, 684, 521, 317, 631, 411, 336, 936]);
        // Just above 2^63 nearly half of all words fall in the rejection
        // zone and are redrawn: at seed 5 the 2nd, 5th and 6th are.
        assert_eq!(
            draws(5, (1 << 63) + 1),
            [
                0x4ac2_02ca_f347_fc1e,
                0x1914_1eb7_75a6_f43f,
                0x0f01_24cc_d006_0d9e,
                0x75af_f322_2f3c_fc7d,
                0x1167_dafb_239e_5dca,
                0x7053_6a9e_7bae_333c,
                0x15d2_5816_ea89_e10c,
                0x77ad_c635_08be_4ed5,
            ]
        );
        let mut rng = Xoshiro256pp::new(11);
        let inclusive: Vec<u64> = (0..8).map(|_| rng.up_to(14)).collect();
        assert_eq!(inclusive, [7, 0, 8, 4, 13, 8, 6, 9]);
        let mut rng = Xoshiro256pp::new(11);
        assert_eq!(rng.up_to(u64::MAX), 0xdc1a_bbcc_6a69_4280);
    }

    #[test]
    fn unit_gen_bool_and_shuffle_match_the_known_answers() {
        let mut rng = Xoshiro256pp::new(13);
        let bits: Vec<u64> = (0..4).map(|_| rng.unit().to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3f8a_f030_cd8d_aa00,
                0x3fb8_a218_6e15_7ab8,
                0x3fe2_53d8_fa12_ae4f,
                0x3fee_5a22_ef4c_9030,
            ]
        );
        let mut rng = Xoshiro256pp::new(13);
        let coins: Vec<bool> = (0..16).map(|_| rng.gen_bool(0.5)).collect();
        let want = "1100111101001011".bytes().map(|b| b == b'1');
        assert_eq!(coins, want.collect::<Vec<_>>());
        // The f64 ranges the call sites draw: `-0.5..0.5` and `0.05..1.0`.
        let mut rng = Xoshiro256pp::new(13);
        assert_eq!(rng.unit() - 0.5, -0.48684656021786576);
        let mut rng = Xoshiro256pp::new(13);
        assert_eq!(0.05 + rng.unit() * (1.0 - 0.05), 0.062495767793027526);
        let mut rng = Xoshiro256pp::new(3);
        let mut v: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut v);
        assert_eq!(
            v,
            [
                16, 18, 5, 27, 10, 7, 2, 21, 20, 25, 13, 26, 24, 8, 0, 19, 22, 3, 1, 31, 4, 14, 23,
                11, 12, 30, 28, 6, 15, 17, 29, 9
            ]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Xoshiro256pp::new(7);
        for _ in 0..2000 {
            let v = 3 + rng.below(17 - 3);
            assert!((3..17).contains(&v));
            assert!(rng.up_to(4) <= 4);
            let f = rng.unit() - 0.5;
            assert!((-0.5..0.5).contains(&f));
            assert!(rng.below(1024) < 1024);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::new(9);
        let hits = (0..4000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((700..1300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn gen_bool_rejects_probabilities_outside_the_unit_interval() {
        for p in [-0.1, 1.5, f64::NAN] {
            let drawn = std::panic::catch_unwind(|| Xoshiro256pp::new(1).gen_bool(p));
            assert!(drawn.is_err(), "p={p} accepted");
        }
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }
}
