//! Every way to make CleanupSpec roll back — and leak.
//!
//! Runs the unXpec receiver through all three Spectre trigger families
//! (conditional branch, poisoned BTB, desynchronized return stack),
//! against CleanupSpec and the unsafe baseline: the rollback-timing
//! channel does not care which misprediction opened the window.
//!
//! ```text
//! cargo run --release --example trigger_zoo
//! ```

use unxpec::attack::{AttackConfig, SpectreRsb, SpectreV2, UnxpecChannel};
use unxpec::cpu::UnsafeBaseline;
use unxpec::defense::CleanupSpec;

fn main() {
    println!("=== rollback-timing (unXpec) channel, per trigger ===");
    let v1 = |d: Box<dyn unxpec::cpu::Defense>| {
        let mut chan = UnxpecChannel::new(AttackConfig::paper_no_es(), d);
        chan.calibrate(40).mean_difference()
    };
    println!(
        "  v1 trigger  vs CleanupSpec: {:+.1} cycles | vs baseline: {:+.1}",
        v1(Box::new(CleanupSpec::new())),
        v1(Box::new(UnsafeBaseline))
    );
    println!(
        "  v2 trigger  vs CleanupSpec: {:+.1} cycles | vs baseline: {:+.1}",
        SpectreV2::new(Box::new(CleanupSpec::new())).timing_difference(40),
        SpectreV2::new(Box::new(UnsafeBaseline)).timing_difference(40)
    );
    println!(
        "  RSB trigger vs CleanupSpec: {:+.1} cycles | vs baseline: {:+.1}",
        SpectreRsb::new(Box::new(CleanupSpec::new())).timing_difference(40),
        SpectreRsb::new(Box::new(UnsafeBaseline)).timing_difference(40)
    );
}
