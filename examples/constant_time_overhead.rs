//! The countermeasure's price (the paper's §VI-E / Fig. 12): run the
//! SPEC-2017-like suite under constant-time rollback at the paper's
//! constants and print per-workload slowdowns.
//!
//! `Figures::fig12` runs each (kernel, defense) cell of the suite with
//! the scale's warmup and measured instructions; this example asks for
//! 30k and 90k.
//!
//! ```text
//! cargo run --release --example constant_time_overhead
//! ```

use unxpec::experiments::seeding::DEFAULT_ROOT_SEED;
use unxpec::experiments::{Figures, Scale};

fn main() {
    println!("running 12 workloads x 7 schemes...\n");
    let scale = Scale {
        workload_warmup: 30_000,
        workload_measure: 90_000,
        ..Scale::quick()
    };
    let e = Figures::new(scale, DEFAULT_ROOT_SEED).fig12();
    println!("{e}");
    println!(
        "average slowdown: no-const {:+.1}%, const=25 {:+.1}%, const=65 {:+.1}%",
        e.0.average_overhead(1) * 100.0,
        e.0.average_overhead(2) * 100.0,
        e.0.average_overhead(6) * 100.0
    );
    println!("(paper: ~5%, 22.4% and 72.8% respectively)");
}
