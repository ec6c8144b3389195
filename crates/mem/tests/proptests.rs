//! Property tests for addressing and the backing store.

#![allow(clippy::disallowed_methods, clippy::disallowed_macros)] // tests are exempt from the no-panic policy

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use unxpec_mem::{Addr, LayoutBuilder, LineAddr, Memory, CACHE_LINE_BYTES};

/// Bytes the mapping property reads back after every step: the 192
/// slots ops start in, plus room for the longest mapping past the last.
const WINDOW_BYTES: u64 = 2048;

/// Words per copy-on-write chunk of a mapped region.
const CHUNK_WORDS: u64 = 512;

/// Where the mapping property maps regions of two chunks and a partial
/// third, clear of the window above.
const FAR_BASE: u64 = 0x10_000;

/// Words past `FAR_BASE` the property sweeps at the end: the longest
/// far mapping plus the stores just past it.
const FAR_WORDS: u64 = 3 * CHUNK_WORDS + 8;

/// A region-free reference for [`Memory`]: every byte ever written, and
/// the lines they touched.
#[derive(Default)]
struct ByteModel {
    bytes: HashMap<u64, u8>,
    lines: HashSet<u64>,
}

impl ByteModel {
    fn write_u8(&mut self, addr: u64, value: u8) {
        self.bytes.insert(addr, value);
        self.lines.insert(addr / CACHE_LINE_BYTES);
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr + i as u64, byte);
        }
    }

    fn read_u8(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(std::array::from_fn(|i| self.read_u8(addr + i as u64)))
    }
}

proptest! {
    #[test]
    fn line_base_and_offset_partition_the_address(raw in any::<u64>()) {
        let a = Addr::new(raw);
        prop_assert_eq!(a.line_base().raw() + a.line_offset(), raw);
        prop_assert!(a.line_offset() < CACHE_LINE_BYTES);
        prop_assert_eq!(a.line().base().line(), a.line());
    }

    #[test]
    fn line_roundtrip(line in any::<u64>() ) {
        // Avoid shift overflow at the extreme top of the space.
        let line = line >> 6;
        let l = LineAddr::new(line);
        prop_assert_eq!(l.base().line(), l);
    }

    #[test]
    fn memory_holds_last_write(
        writes in proptest::collection::vec((0u64..1 << 20, any::<u64>()), 1..200)
    ) {
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::new();
        for (slot, value) in &writes {
            let addr = Addr::new(slot * 8);
            mem.write_u64(addr, *value);
            model.insert(*slot, *value);
        }
        for (slot, value) in model {
            prop_assert_eq!(mem.read_u64(Addr::new(slot * 8)), value);
        }
    }

    #[test]
    fn byte_writes_do_not_clobber_neighbours(
        base in 0u64..1 << 16,
        value in any::<u8>(),
    ) {
        let mut mem = Memory::new();
        let addr = Addr::new(base);
        mem.write_u8(addr.offset(1), 0xAA);
        mem.write_u8(addr, value);
        prop_assert_eq!(mem.read_u8(addr), value);
        prop_assert_eq!(mem.read_u8(addr.offset(1)), 0xAA);
    }

    #[test]
    fn layout_arrays_never_share_cache_lines(
        sizes in proptest::collection::vec(1u64..2000, 2..12)
    ) {
        let mut builder = LayoutBuilder::new(0x1000);
        for (i, size) in sizes.iter().enumerate() {
            builder = builder.array(&format!("a{i}"), *size);
        }
        let layout = builder.build();
        let handles: Vec<_> = (0..sizes.len())
            .map(|i| layout.array(&format!("a{i}")))
            .collect();
        for (i, a) in handles.iter().enumerate() {
            for b in &handles[..i] {
                let a_lines = a.base().line().raw()..=a.byte(a.len_bytes() - 1).line().raw();
                let b_lines = b.base().line().raw()..=b.byte(b.len_bytes() - 1).line().raw();
                prop_assert!(
                    a_lines.end() < b_lines.start() || b_lines.end() < a_lines.start(),
                    "arrays {i} overlap lines"
                );
            }
        }
    }

    /// `map_words` is observably the same as writing its words one by
    /// one, whether it maps a region (line-aligned whole lines over
    /// fresh memory) or falls back (misaligned, partial lines, or
    /// overlapping earlier writes and regions). Stores into a mapped
    /// region never reach the mapped `Arc`, including word and byte
    /// stores on either side of a 4 KiB chunk edge and into a region's
    /// partial last chunk.
    #[test]
    fn mapped_words_read_back_like_written_words(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..192, any::<u64>(), 0usize..33),
            1..40,
        )
    ) {
        let mut mem = Memory::new();
        let mut model = ByteModel::default();
        let mut mapped: Vec<(Arc<[u64]>, Vec<u64>)> = Vec::new();
        // Words in the latest far mapping, and the far words stored to.
        let mut far_len = 2 * CHUNK_WORDS + 8;
        let mut far_stored: Vec<u64> = Vec::new();
        for (kind, slot, value, len) in ops {
            match kind {
                0 => {
                    let addr = slot * 8 + value % 8;
                    mem.write_u8(Addr::new(addr), value as u8);
                    model.write_u8(addr, value as u8);
                }
                1 => {
                    mem.write_u64(Addr::new(slot * 8), value);
                    model.write_u64(slot * 8, value);
                }
                2 | 3 => {
                    // Kind 2 maps whole lines at a line boundary; kind 3
                    // any word count at any word boundary.
                    let (base, count) = if kind == 2 {
                        ((slot & !7) * 8, 8 * (1 + len % 4))
                    } else {
                        (slot * 8, len)
                    };
                    let words: Vec<u64> = (0..count as u64)
                        .map(|i| value.rotate_left(i as u32) ^ i)
                        .collect();
                    let shared: Arc<[u64]> = words.clone().into();
                    mem.map_words(Addr::new(base), Arc::clone(&shared));
                    for (i, &word) in words.iter().enumerate() {
                        model.write_u64(base + i as u64 * 8, word);
                    }
                    mapped.push((shared, words));
                }
                4 => {
                    // Two whole chunks and a partial third (8 to 264
                    // words), over whatever the far area already holds.
                    far_len = 2 * CHUNK_WORDS + 8 * (1 + len as u64);
                    let words: Vec<u64> = (0..far_len).map(|i| value.rotate_left(i as u32) ^ i).collect();
                    let shared: Arc<[u64]> = words.clone().into();
                    mem.map_words(Addr::new(FAR_BASE), Arc::clone(&shared));
                    for (i, &word) in words.iter().enumerate() {
                        model.write_u64(FAR_BASE + i as u64 * 8, word);
                    }
                    mapped.push((shared, words));
                }
                _ => {
                    // Kinds 5 to 7: a word or byte store within four
                    // words of a chunk edge (either side), or of the far
                    // mapping's end (its partial chunk).
                    let edge = match slot % 4 {
                        3 => far_len,
                        k => (k + 1) * CHUNK_WORDS,
                    };
                    let word = edge + value % 8 - 4;
                    let addr = FAR_BASE + word * 8;
                    if value & 0x100 == 0 {
                        mem.write_u64(Addr::new(addr), value);
                        model.write_u64(addr, value);
                    } else {
                        let addr = addr + (value >> 9) % 8;
                        mem.write_u8(Addr::new(addr), value as u8);
                        model.write_u8(addr, value as u8);
                    }
                    far_stored.push(word);
                }
            }
            for addr in (0..WINDOW_BYTES).step_by(8) {
                prop_assert_eq!(mem.read_u64(Addr::new(addr)), model.read_u64(addr), "word at {:#x}", addr);
            }
            for addr in 0..WINDOW_BYTES {
                prop_assert_eq!(mem.read_u8(Addr::new(addr)), model.read_u8(addr), "byte at {:#x}", addr);
            }
            for &word in &far_stored {
                for w in word.saturating_sub(2)..word + 3 {
                    let addr = FAR_BASE + w * 8;
                    prop_assert_eq!(mem.read_u64(Addr::new(addr)), model.read_u64(addr), "word at {:#x}", addr);
                }
            }
            prop_assert_eq!(mem.resident_lines(), model.lines.len());
        }
        for addr in (FAR_BASE..FAR_BASE + FAR_WORDS * 8).step_by(8) {
            prop_assert_eq!(mem.read_u64(Addr::new(addr)), model.read_u64(addr), "word at {:#x}", addr);
        }
        for (shared, words) in &mapped {
            prop_assert_eq!(&shared[..], &words[..]);
        }
    }
}
