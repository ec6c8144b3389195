//! Memory addressing primitives and the flat backing store used by the
//! unxpec simulator.
//!
//! The simulated machine uses byte addressing with 64-byte cache lines,
//! matching the gem5 configuration the unXpec paper evaluates on. Two
//! newtypes keep byte addresses and line addresses statically distinct:
//!
//! ```
//! use unxpec_mem::{Addr, LineAddr};
//!
//! let a = Addr::new(0x1040);
//! assert_eq!(a.line(), LineAddr::new(0x41));
//! assert_eq!(a.line_offset(), 0);
//! ```
//!
//! [`Memory`] is the architectural backing store: a sparse, line-granular
//! map from line address to 64 data bytes, plus dense copy-on-write word
//! regions for large tables ([`Memory::map_words`]). The cache hierarchy
//! only tracks *presence* and metadata of lines; data values always come
//! from this store, so secret-dependent address computation in attack
//! programs works exactly as it would on real hardware.
//!
//! [`MemoryLayout`] carves named, line-aligned arrays out of the address
//! space — the probe array `P`, the victim array `A`, the bound variable
//! `N`, eviction-set regions — so that attack code and tests can talk about
//! addresses symbolically.

mod addr;
mod fault;
mod hash;
mod layout;
mod memory;
pub mod seed;

pub use addr::{Addr, LineAddr, CACHE_LINE_BYTES, LINE_OFFSET_BITS};
pub use fault::FaultStream;
pub use hash::{BuildFxHasher, FxHasher64};
pub use layout::{ArrayHandle, LayoutBuilder, LayoutError, MemoryLayout};
pub use memory::Memory;
