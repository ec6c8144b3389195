//! The end-to-end covert channel: calibration, leakage, bandwidth.

use unxpec_cpu::{Core, Defense, Program, ProgramBuilder, Reg};
use unxpec_mem::seed::Xoshiro256pp;
use unxpec_stats::{midpoint_threshold, Confusion, Summary};

use crate::config::AttackConfig;
use crate::layout::AttackLayout;
use crate::sender::{build_round_program, RoundRegs};

/// Two-sided measurement noise applied to each observed latency.
///
/// Models receiver-side interference (scheduler, SMT sibling, timer
/// granularity) that the cycle-accurate simulator does not produce by
/// itself. A Laplace distribution matches the heavy-tailed scatter of
/// the paper's Figs. 10/11; with the calibrated scale the single-sample
/// accuracies land near the paper's 86.7% / 91.6%.
#[derive(Debug, Clone)]
pub struct MeasurementNoise {
    scale: f64,
    rng: Xoshiro256pp,
}

impl MeasurementNoise {
    /// Laplace noise with scale `b` cycles.
    pub fn laplace(b: f64, seed: u64) -> Self {
        MeasurementNoise {
            scale: b,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// The calibrated default (scale 7.2, chosen so single-sample
    /// decoding accuracy lands near the paper's 86.7% / 91.6% once the
    /// simulator's own memory-latency noise is added on top).
    pub fn calibrated(seed: u64) -> Self {
        Self::laplace(7.2, seed)
    }

    fn sample(&mut self) -> i64 {
        let u = self.rng.unit() - 0.5;
        let x = -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln();
        x.round() as i64
    }
}

/// Detailed timing of one attack round (drives Figs. 2, 3 and 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundObservation {
    /// Receiver-observed latency `t2 - t1` (raw, no measurement noise).
    pub latency: u64,
    /// Branch resolution time of the sender branch (T1–T2 of Fig. 1).
    pub resolution_time: u64,
    /// Defense cleanup stall of the sender squash (T2 to redirect).
    pub cleanup_cycles: u64,
    /// L1 lines the squashed loads installed.
    pub l1_installs: usize,
    /// L1 victims those installs displaced.
    pub l1_evictions: usize,
}

/// Result of the calibration phase (the Figs. 7/8 data).
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Observed latencies with secret = 0.
    pub samples0: Vec<u64>,
    /// Observed latencies with secret = 1.
    pub samples1: Vec<u64>,
    /// Decision threshold (latency above ⇒ guess 1).
    pub threshold: u64,
}

impl Calibration {
    /// Mean secret-dependent timing difference in cycles (the paper's
    /// 22 / 32 headline numbers).
    pub fn mean_difference(&self) -> f64 {
        Summary::of_cycles(&self.samples1).mean - Summary::of_cycles(&self.samples0).mean
    }
}

/// Result of leaking a bit string (the Figs. 10/11 data).
#[derive(Debug, Clone)]
pub struct LeakOutcome {
    /// The ground-truth secret bits.
    pub secrets: Vec<bool>,
    /// Observed latency per bit.
    pub observations: Vec<u64>,
    /// Decoded guesses.
    pub guesses: Vec<bool>,
    /// Decoding confusion matrix.
    pub confusion: Confusion,
    /// Total machine cycles consumed, including per-round overhead.
    pub total_cycles: u64,
}

impl LeakOutcome {
    /// Decoding accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// Cycles per leaked bit.
    pub fn cycles_per_bit(&self) -> f64 {
        self.total_cycles as f64 / self.secrets.len().max(1) as f64
    }

    /// Leakage rate in bits/s for a clock of `clock_hz` (2 GHz in the
    /// paper), at one sample per bit.
    pub fn bandwidth_bps(&self, clock_hz: f64) -> f64 {
        clock_hz / self.cycles_per_bit()
    }
}

/// A ready-to-run unXpec covert channel against a chosen defense.
#[derive(Debug)]
pub struct UnxpecChannel {
    core: Core,
    layout: AttackLayout,
    cfg: AttackConfig,
    round: Program,
    victim_touch: Program,
    regs: RoundRegs,
    threshold: Option<u64>,
    noise: Option<MeasurementNoise>,
}

impl UnxpecChannel {
    /// Builds the channel on a Table-I machine running `defense`.
    pub fn new(cfg: AttackConfig, defense: Box<dyn Defense>) -> Self {
        let mut core = Core::table_i();
        core.set_defense(defense);
        Self::on_core(cfg, core)
    }

    /// Builds the channel on an arbitrary pre-configured machine
    /// (custom hierarchy, replacement policy, predictor, defense) —
    /// the entry point for configuration ablations.
    pub fn on_core(cfg: AttackConfig, mut core: Core) -> Self {
        cfg.validate();
        let layout = AttackLayout::new(core.hierarchy().config().l1d.sets as u64);
        layout.install(core.mem_mut(), cfg.fn_accesses as u64);
        let round = build_round_program(&cfg, &layout);
        // The victim touching its own secret keeps the secret line warm;
        // a cold secret would stall the transient body past the
        // speculation window (the same requirement Meltdown-style PoCs
        // have).
        let mut vb = ProgramBuilder::new();
        vb.mov(Reg(1), layout.secret_addr().raw());
        vb.load(Reg(2), Reg(1), 0);
        vb.halt();
        let victim_touch = vb.build();
        UnxpecChannel {
            core,
            layout,
            cfg,
            round,
            victim_touch,
            regs: RoundRegs::default(),
            threshold: None,
            noise: None,
        }
    }

    /// Enables receiver-side measurement noise.
    pub fn with_measurement_noise(mut self, noise: MeasurementNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// The machine (for instrumenting noise, reading stats).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// The machine, mutable.
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// The attack layout in use.
    pub fn layout(&self) -> &AttackLayout {
        &self.layout
    }

    /// The configured decision threshold, if calibrated or set.
    pub fn threshold(&self) -> Option<u64> {
        self.threshold
    }

    /// Overrides the decision threshold.
    pub fn set_threshold(&mut self, threshold: u64) {
        self.threshold = Some(threshold);
    }

    /// Runs one attack round against `secret` and returns the observed
    /// latency (with measurement noise, if enabled).
    pub fn measure_bit(&mut self, secret: bool) -> u64 {
        self.layout.set_secret(self.core.mem_mut(), secret);
        self.core.run(&self.victim_touch);
        let r = self.core.run(&self.round);
        let raw = r.reg(self.regs.t2) - r.reg(self.regs.t1);
        match &mut self.noise {
            Some(n) => (raw as i64 + n.sample()).max(1) as u64,
            None => raw,
        }
    }

    /// Runs one round and additionally reports the sender branch's
    /// resolution and cleanup intervals from the squash records.
    pub fn measure_bit_detailed(&mut self, secret: bool) -> RoundObservation {
        self.layout.set_secret(self.core.mem_mut(), secret);
        self.core.run(&self.victim_touch);
        let r = self.core.run(&self.round);
        let latency = r.reg(self.regs.t2) - r.reg(self.regs.t1);
        // The sender branch is the squash with the longest resolution
        // (its comparand chases the flushed f(N) chain); the training-
        // exit and phase-check squashes resolve in a couple of cycles.
        let sender = r
            .stats
            .squashes
            .iter()
            .max_by_key(|s| s.resolution_time())
            .copied()
            .expect("the attack round always mis-speculates");
        RoundObservation {
            latency,
            resolution_time: sender.resolution_time(),
            cleanup_cycles: sender.cleanup_cycles(),
            l1_installs: sender.l1_installs,
            l1_evictions: sender.l1_evictions,
        }
    }

    /// Collects `samples` measurements per secret value and fixes the
    /// decision threshold at the midpoint of the means (the paper picks
    /// 178 / 183 the same way from its Figs. 7/8 distributions).
    pub fn calibrate(&mut self, samples: usize) -> Calibration {
        let mut samples0 = Vec::with_capacity(samples);
        let mut samples1 = Vec::with_capacity(samples);
        for _ in 0..samples {
            samples0.push(self.measure_bit(false));
            samples1.push(self.measure_bit(true));
        }
        let threshold = midpoint_threshold(&samples0, &samples1);
        self.threshold = Some(threshold);
        Calibration {
            samples0,
            samples1,
            threshold,
        }
    }

    /// Leaks `secrets` one bit per round, decoding against the
    /// calibrated threshold.
    ///
    /// # Panics
    ///
    /// Panics if the channel has not been calibrated and no threshold
    /// was set.
    pub fn leak(&mut self, secrets: &[bool]) -> LeakOutcome {
        let threshold = self
            .threshold
            .expect("calibrate() or set_threshold() before leaking");
        let start = self.core.clock();
        let mut observations = Vec::with_capacity(secrets.len());
        let mut guesses = Vec::with_capacity(secrets.len());
        for &secret in secrets {
            let obs = self.measure_bit(secret);
            observations.push(obs);
            guesses.push(obs > threshold);
        }
        let confusion = Confusion::from_bits(secrets, &guesses);
        let total_cycles =
            self.core.clock() - start + self.cfg.round_overhead_cycles * secrets.len() as u64;
        LeakOutcome {
            secrets: secrets.to_vec(),
            observations,
            guesses,
            confusion,
            total_cycles,
        }
    }

    /// Leaks `secrets` with `votes` samples per bit, decoding by the
    /// median observation — the paper's §VI-D noise-suppression
    /// strategy ("the attacker can also use more samples per secret to
    /// suppress noise"). `votes = 1` degenerates to [`UnxpecChannel::leak`].
    ///
    /// # Panics
    ///
    /// Panics if `votes` is zero or no threshold is configured.
    pub fn leak_with_votes(&mut self, secrets: &[bool], votes: usize) -> LeakOutcome {
        assert!(votes >= 1, "need at least one sample per bit");
        let threshold = self
            .threshold
            .expect("calibrate() or set_threshold() before leaking");
        let start = self.core.clock();
        let mut observations = Vec::with_capacity(secrets.len());
        let mut guesses = Vec::with_capacity(secrets.len());
        for &secret in secrets {
            let mut obs: Vec<u64> = (0..votes).map(|_| self.measure_bit(secret)).collect();
            obs.sort_unstable();
            let median = obs[votes / 2];
            observations.push(median);
            guesses.push(median > threshold);
        }
        let confusion = Confusion::from_bits(secrets, &guesses);
        let total_cycles = self.core.clock() - start
            + self.cfg.round_overhead_cycles * (secrets.len() * votes) as u64;
        LeakOutcome {
            secrets: secrets.to_vec(),
            observations,
            guesses,
            confusion,
            total_cycles,
        }
    }

    /// Leaks a byte string, eight rounds per byte (MSB first). Returns
    /// the decoded bytes.
    ///
    /// # Panics
    ///
    /// Panics if no threshold is configured.
    pub fn leak_bytes(&mut self, secret: &[u8], votes: usize) -> Vec<u8> {
        let bits: Vec<bool> = secret
            .iter()
            .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
            .collect();
        let out = self.leak_with_votes(&bits, votes);
        out.guesses
            .chunks(8)
            .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8))
            .collect()
    }

    /// Leaks a byte string through the noisy channel with Hamming(7,4)
    /// error correction: 14 channel bits per byte, any single bit error
    /// per 7-bit block corrected at decode. Returns
    /// `(decoded bytes, corrected errors)`.
    ///
    /// # Panics
    ///
    /// Panics if no threshold is configured.
    pub fn leak_bytes_ecc(&mut self, secret: &[u8], votes: usize) -> (Vec<u8>, usize) {
        let bits = crate::ecc::encode_bytes(secret);
        let out = self.leak_with_votes(&bits, votes);
        crate::ecc::decode_bytes(&out.guesses)
    }

    /// The paper's Fig. 9 test vector: `len` pseudo-random secret bits.
    pub fn random_secret(len: usize, seed: u64) -> Vec<bool> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unxpec_cpu::UnsafeBaseline;
    use unxpec_defense::{CleanupSpec, ConstantTimeRollback, InvisiSpec};

    #[test]
    fn channel_exists_against_cleanupspec() {
        let mut chan =
            UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()));
        let cal = chan.calibrate(30);
        let diff = cal.mean_difference();
        assert!(
            (15.0..=30.0).contains(&diff),
            "secret-dependent difference {diff} should be ~22 cycles"
        );
    }

    #[test]
    fn eviction_sets_enlarge_the_difference() {
        let mut no_es =
            UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()));
        let mut with_es =
            UnxpecChannel::new(AttackConfig::paper_with_es(), Box::new(CleanupSpec::new()));
        let d0 = no_es.calibrate(30).mean_difference();
        let d1 = with_es.calibrate(30).mean_difference();
        assert!(
            d1 > d0 + 5.0,
            "eviction sets must enlarge the difference ({d0} -> {d1})"
        );
        assert!((25.0..=45.0).contains(&d1), "with-ES difference {d1} ~ 32");
    }

    #[test]
    fn no_rollback_channel_against_unsafe_baseline() {
        // The unsafe baseline leaks through cache *contents* (Spectre),
        // but its squash timing is secret-independent.
        let mut chan = UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(UnsafeBaseline));
        let cal = chan.calibrate(30);
        let diff = cal.mean_difference().abs();
        assert!(
            diff < 5.0,
            "unsafe baseline should show no rollback channel, got {diff}"
        );
    }

    #[test]
    fn constant_time_rollback_closes_the_channel() {
        let mut chan = UnxpecChannel::new(
            AttackConfig::paper_no_es(),
            Box::new(ConstantTimeRollback::new(65)),
        );
        let cal = chan.calibrate(30);
        let diff = cal.mean_difference().abs();
        assert!(
            diff < 3.0,
            "65-cycle constant rollback should hide the channel, got {diff}"
        );
    }

    #[test]
    fn invisispec_has_no_rollback_channel() {
        let mut chan = UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(InvisiSpec::new()));
        let cal = chan.calibrate(30);
        let diff = cal.mean_difference().abs();
        assert!(
            diff < 3.0,
            "invisible speculation has nothing to roll back, got {diff}"
        );
    }

    #[test]
    fn noiseless_leak_is_perfect() {
        let mut chan =
            UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()));
        chan.calibrate(20);
        let secrets = UnxpecChannel::random_secret(64, 1);
        let out = chan.leak(&secrets);
        assert_eq!(out.accuracy(), 1.0, "no noise, no errors");
        assert!(out.bandwidth_bps(2e9) > 1000.0);
    }

    #[test]
    fn noisy_leak_matches_paper_band() {
        let mut chan =
            UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()))
                .with_measurement_noise(MeasurementNoise::calibrated(7));
        chan.calibrate(100);
        let secrets = UnxpecChannel::random_secret(300, 2);
        let out = chan.leak(&secrets);
        let acc = out.accuracy();
        assert!(
            (0.78..=0.95).contains(&acc),
            "single-sample accuracy {acc} should be near the paper's 86.7%"
        );
    }

    #[test]
    fn random_secret_is_seeded_and_balanced() {
        let a = UnxpecChannel::random_secret(1000, 42);
        let b = UnxpecChannel::random_secret(1000, 42);
        assert_eq!(a, b);
        let ones = a.iter().filter(|&&x| x).count();
        assert!((400..600).contains(&ones), "{ones} ones out of 1000");
    }
}

#[cfg(test)]
mod ecc_channel_tests {
    use super::*;
    use unxpec_defense::CleanupSpec;

    #[test]
    fn ecc_recovers_bytes_over_the_noisy_channel() {
        // Raw single-sample decoding errs ~10-15% under calibrated
        // noise; Hamming(7,4) pushes whole-message recovery to near
        // certainty for short messages.
        let mut chan =
            UnxpecChannel::new(AttackConfig::paper_with_es(), Box::new(CleanupSpec::new()))
                .with_measurement_noise(MeasurementNoise::laplace(5.0, 3));
        chan.calibrate(80);
        let secret = b"key=0xdeadbeef";
        let (decoded, _corrections) = chan.leak_bytes_ecc(secret, 3);
        let correct_bytes = decoded
            .iter()
            .zip(secret.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert_eq!(
            correct_bytes,
            secret.len(),
            "ECC + voting should recover every byte: {}/{} ({:?})",
            correct_bytes,
            secret.len(),
            String::from_utf8_lossy(&decoded)
        );
    }

    #[test]
    fn plain_byte_leak_with_votes_is_exact_without_noise() {
        let mut chan =
            UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()));
        chan.calibrate(20);
        let secret = b"abc";
        assert_eq!(chan.leak_bytes(secret, 1), secret);
        assert_eq!(chan.leak_bytes(secret, 3), secret);
    }
}

#[cfg(test)]
mod config_ablation_tests {
    use super::*;
    use unxpec_cache::{HierarchyConfig, ReplacementKind};
    use unxpec_cpu::{Core, CoreConfig};
    use unxpec_defense::CleanupSpec;

    fn channel_on(hier_cfg: HierarchyConfig) -> UnxpecChannel {
        let mut core = Core::new(CoreConfig::table_i(), hier_cfg);
        core.set_defense(Box::new(CleanupSpec::new()));
        UnxpecChannel::on_core(AttackConfig::paper_no_es(), core)
    }

    #[test]
    fn channel_survives_lru_replacement() {
        // CleanupSpec mandates random replacement for other reasons; the
        // rollback channel does not depend on the policy.
        let mut cfg = HierarchyConfig::table_i();
        cfg.l1d.replacement = ReplacementKind::Lru;
        let d = channel_on(cfg).calibrate(15).mean_difference();
        assert!((15.0..=30.0).contains(&d), "{d}");
    }

    #[test]
    fn channel_survives_tree_plru_replacement() {
        let mut cfg = HierarchyConfig::table_i();
        cfg.l1d.replacement = ReplacementKind::TreePlru;
        let d = channel_on(cfg).calibrate(15).mean_difference();
        assert!((15.0..=30.0).contains(&d), "{d}");
    }

    #[test]
    fn channel_survives_disabling_ceaser() {
        let mut cfg = HierarchyConfig::table_i();
        cfg.ceaser_enabled = false;
        let d = channel_on(cfg).calibrate(15).mean_difference();
        assert!((15.0..=30.0).contains(&d), "{d}");
    }

    #[test]
    fn channel_survives_a_smaller_l1() {
        // 16 KB, 4-way, 64-set L1: the probe lines still map to
        // distinct sets and the rollback cost is unchanged.
        let mut cfg = HierarchyConfig::table_i();
        cfg.l1d.ways = 4;
        cfg.nomo_reserved_ways = 1;
        let d = channel_on(cfg).calibrate(15).mean_difference();
        assert!((15.0..=30.0).contains(&d), "{d}");
    }

    #[test]
    fn channel_shrinks_with_slower_detection_but_survives() {
        // Longer memory latency stretches the speculation window; the
        // cleanup difference is unchanged.
        let mut cfg = HierarchyConfig::table_i();
        cfg.mem_latency = 200;
        let mut chan = channel_on(cfg);
        let cal = chan.calibrate(15);
        assert!(
            (15.0..=30.0).contains(&cal.mean_difference()),
            "{}",
            cal.mean_difference()
        );
        // The absolute latencies scale with memory, the difference not.
        assert!(cal.samples0[0] > 200);
    }

    #[test]
    fn channel_works_with_prefetcher_enabled() {
        // Next-line prefetch only fires for demand misses, so it cannot
        // wash out the transient footprint.
        let mut cfg = HierarchyConfig::table_i();
        cfg.next_line_prefetch = true;
        let d = channel_on(cfg).calibrate(15).mean_difference();
        assert!((12.0..=32.0).contains(&d), "{d}");
    }
}

#[cfg(test)]
mod parameterization_tests {
    use super::*;
    use unxpec_defense::CleanupSpec;

    #[test]
    fn more_loads_cost_rate_but_not_the_channel() {
        // §V-C: "too many loads in the branch decrease the attack rate"
        // — the round gets longer — while the difference keeps growing
        // only slowly without eviction sets.
        let round_cost = |loads: usize| {
            let mut chan = UnxpecChannel::new(
                AttackConfig::paper_no_es().with_loads(loads),
                Box::new(CleanupSpec::new()),
            );
            chan.calibrate(5);
            let start = chan.core().clock();
            for _ in 0..10 {
                chan.measure_bit(true);
            }
            (chan.core().clock() - start) / 10
        };
        let short = round_cost(1);
        let long = round_cost(16);
        assert!(
            long > short,
            "16 loads must lengthen the round: {short} vs {long}"
        );
    }

    #[test]
    fn channel_survives_a_narrow_core() {
        // Robustness across the core configuration: a 1-wide, 32-entry
        // ROB machine still speculates deep enough for the channel.
        let mut core_cfg = unxpec_cpu::CoreConfig::table_i();
        core_cfg.dispatch_width = 1;
        core_cfg.rob_entries = 32;
        let mut core = Core::new(core_cfg, unxpec_cache::HierarchyConfig::table_i());
        core.set_defense(Box::new(CleanupSpec::new()));
        let mut chan = UnxpecChannel::on_core(AttackConfig::paper_no_es(), core);
        let d = chan.calibrate(10).mean_difference();
        assert!((12.0..=32.0).contains(&d), "narrow-core difference {d}");
    }

    #[test]
    fn channel_survives_a_wider_core() {
        let mut core_cfg = unxpec_cpu::CoreConfig::table_i();
        core_cfg.dispatch_width = 8;
        core_cfg.load_ports = 4;
        let mut core = Core::new(core_cfg, unxpec_cache::HierarchyConfig::table_i());
        core.set_defense(Box::new(CleanupSpec::new()));
        let mut chan = UnxpecChannel::on_core(AttackConfig::paper_no_es(), core);
        let d = chan.calibrate(10).mean_difference();
        assert!((12.0..=32.0).contains(&d), "wide-core difference {d}");
    }
}
