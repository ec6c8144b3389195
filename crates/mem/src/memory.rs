//! Line-granular architectural backing store: a sparse line map plus
//! dense, copy-on-write word regions.

use std::collections::HashMap;
use std::sync::Arc;

use crate::hash::BuildFxHasher;
use crate::{Addr, LineAddr, CACHE_LINE_BYTES};

/// 64-bit words per cache line.
const WORDS_PER_LINE: usize = CACHE_LINE_BYTES as usize / 8;

/// Words per copy-on-write chunk of a mapped region (4 KiB): the unit a
/// region's first store into any of its words copies.
const CHUNK_WORDS: usize = 512;

/// A private copy of one chunk. Fixed-size, so a load indexes it with
/// no length to read or check; in a region's last chunk, the words past
/// the region stay zero and are never read.
type Chunk = Box<[u64; CHUNK_WORDS]>;

/// The architectural memory of the simulated machine.
///
/// Lines not yet written read as zero. The store is the single source of
/// truth for data values; caches only track which lines are resident, so a
/// rollback of cache *state* never needs to touch data.
///
/// Data lives in one of two stores, and every line in exactly one of
/// them: a sparse map from line address to 64 bytes, and a short list of
/// dense, line-aligned word regions installed by [`Memory::map_words`].
/// A region shares its words with whoever mapped them (a workload's
/// table is built once and mapped into every core that runs it); the
/// first store into a 4 KiB chunk of it copies that chunk alone into a
/// private buffer, so no store ever reaches another memory and a table
/// stored into at a few places costs a few chunks, not a whole copy.
/// Loads and stores check the regions first: a region with no private
/// chunk reads its shared words directly, and no access touches a
/// reference count.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use unxpec_mem::{Addr, Memory};
///
/// let mut mem = Memory::new();
/// mem.write_u64(Addr::new(0x100), 42);
/// assert_eq!(mem.read_u64(Addr::new(0x100)), 42);
/// assert_eq!(mem.read_u64(Addr::new(0x108)), 0);
///
/// let table: Arc<[u64]> = (0..16).collect();
/// mem.map_words(Addr::new(0x1000), Arc::clone(&table));
/// assert_eq!(mem.read_u64(Addr::new(0x1008)), 1);
/// mem.write_u64(Addr::new(0x1008), 7); // copies a chunk, not `table`
/// assert_eq!(mem.read_u64(Addr::new(0x1008)), 7);
/// assert_eq!(table[1], 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    // Keyed with the deterministic Fx hasher: this map sits on the
    // critical path of every simulated load and store, and its order is
    // never observable, so SipHash buys nothing here.
    lines: HashMap<LineAddr, [u8; CACHE_LINE_BYTES as usize], BuildFxHasher>,
    /// Dense regions, disjoint from each other and from `lines`.
    regions: Vec<Region>,
}

/// One dense, line-aligned run of little-endian words.
///
/// Every word lives in exactly one place: in its chunk's private copy
/// if that chunk has been stored into, else in the shared words.
#[derive(Debug, Clone)]
struct Region {
    /// Byte address of the first word (line aligned).
    base: u64,
    /// Length in bytes (a whole number of lines).
    len: u64,
    /// The mapped words, never written through this region.
    shared: Arc<[u64]>,
    /// Private copies of the chunks stored into, one slot per chunk of
    /// [`CHUNK_WORDS`] words. Empty until the region's first store.
    private: Vec<Option<Chunk>>,
}

impl Region {
    /// Index of the word holding `addr`, if the region covers it.
    #[inline]
    fn index(&self, addr: Addr) -> Option<usize> {
        let off = addr.raw().wrapping_sub(self.base);
        (off < self.len).then_some((off / 8) as usize)
    }

    /// The word at `index`.
    #[inline]
    fn word(&self, index: usize) -> Option<u64> {
        match self.private.get(index / CHUNK_WORDS) {
            Some(Some(chunk)) => Some(chunk[index % CHUNK_WORDS]),
            _ => self.shared.get(index).copied(),
        }
    }

    /// The word at `index`, copying its chunk to a private one first.
    #[inline]
    fn word_mut(&mut self, index: usize) -> Option<&mut u64> {
        if index >= self.shared.len() {
            return None;
        }
        if self.private.is_empty() {
            self.private
                .resize_with(self.shared.len().div_ceil(CHUNK_WORDS), || None);
        }
        let chunk = index / CHUNK_WORDS;
        let slot = self.private.get_mut(chunk)?;
        let words = match slot {
            Some(words) => words,
            None => slot.insert(copy_chunk(&self.shared, chunk)),
        };
        Some(&mut words[index % CHUNK_WORDS])
    }

    /// Whether the region shares any line in `first..first + count`.
    fn overlaps_lines(&self, first: u64, count: u64) -> bool {
        let own_first = self.base / CACHE_LINE_BYTES;
        let own_count = self.len / CACHE_LINE_BYTES;
        first < own_first + own_count && own_first < first + count
    }
}

/// A private copy of chunk `chunk` of `shared`.
#[cold]
fn copy_chunk(shared: &[u64], chunk: usize) -> Chunk {
    let mut copy = Box::new([0; CHUNK_WORDS]);
    let start = chunk * CHUNK_WORDS;
    let words = shared
        .get(start..shared.len().min(start + CHUNK_WORDS))
        .unwrap_or_default();
    if let Some(dst) = copy.get_mut(..words.len()) {
        dst.copy_from_slice(words);
    }
    copy
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The word holding `addr` if a region covers it.
    #[inline]
    fn region_word(&self, addr: Addr) -> Option<u64> {
        self.regions
            .iter()
            .find_map(|r| r.index(addr).and_then(|i| r.word(i)))
    }

    /// The word holding `addr`, mutably, if a region covers it.
    #[inline]
    fn region_word_mut(&mut self, addr: Addr) -> Option<&mut u64> {
        self.regions
            .iter_mut()
            .find_map(|r| r.index(addr).and_then(|i| r.word_mut(i)))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        if let Some(word) = self.region_word(addr) {
            return word.to_le_bytes()[(addr.raw() % 8) as usize];
        }
        match self.lines.get(&addr.line()) {
            Some(line) => line[addr.line_offset() as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        if let Some(word) = self.region_word_mut(addr) {
            let mut bytes = word.to_le_bytes();
            bytes[(addr.raw() % 8) as usize] = value;
            *word = u64::from_le_bytes(bytes);
            return;
        }
        let line = self.lines.entry(addr.line()).or_insert([0; 64]);
        line[addr.line_offset() as usize] = value;
    }

    /// Reads a little-endian 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned; the simulated ISA only
    /// issues aligned word accesses, so a misaligned address here is a bug
    /// in program construction.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        assert!(addr.is_aligned(8), "misaligned 8-byte load at {addr}");
        if let Some(word) = self.region_word(addr) {
            return word;
        }
        match self.lines.get(&addr.line()) {
            Some(line) => {
                let off = addr.line_offset() as usize;
                let mut word = [0u8; 8];
                word.copy_from_slice(&line[off..off + 8]);
                u64::from_le_bytes(word)
            }
            None => 0,
        }
    }

    /// Writes a little-endian 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        assert!(addr.is_aligned(8), "misaligned 8-byte store at {addr}");
        if let Some(word) = self.region_word_mut(addr) {
            *word = value;
            return;
        }
        let line = self.lines.entry(addr.line()).or_insert([0; 64]);
        let off = addr.line_offset() as usize;
        line[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Makes `words[i]` the word at `base + 8 * i`, exactly as if each
    /// were written with [`Memory::write_u64`].
    ///
    /// When `base` is line aligned, `words` fills whole lines, and none of
    /// those lines has been written or mapped before, no word is copied:
    /// the words are mapped as a shared region, and the first store into
    /// a 4 KiB chunk of it copies that chunk only, so other memories
    /// mapping the same `Arc` never see that store. Otherwise it falls
    /// back to word-by-word writes.
    ///
    /// # Panics
    ///
    /// Like [`Memory::write_u64`], panics if `base` is not 8-byte
    /// aligned and `words` is not empty.
    pub fn map_words(&mut self, base: Addr, words: Arc<[u64]>) {
        // A `[u64]` spans at most `isize::MAX` bytes, so this cannot wrap.
        let len = words.len() as u64 * 8;
        let mappable = base.line_offset() == 0
            && !words.is_empty()
            && words.len().is_multiple_of(WORDS_PER_LINE)
            && base.raw().checked_add(len).is_some()
            && !self.holds_any_line(base.line().raw(), len / CACHE_LINE_BYTES);
        if mappable {
            self.regions.push(Region {
                base: base.raw(),
                len,
                shared: words,
                private: Vec::new(),
            });
        } else {
            for (i, &word) in words.iter().enumerate() {
                self.write_u64(Addr::new(base.raw().wrapping_add(i as u64 * 8)), word);
            }
        }
    }

    /// Whether any line in `first..first + count` already lives in
    /// either store. Costs one pass over the written lines, which is
    /// empty or small wherever a table is mapped.
    fn holds_any_line(&self, first: u64, count: u64) -> bool {
        self.regions.iter().any(|r| r.overlaps_lines(first, count))
            || self
                .lines
                .keys()
                .any(|line| line.raw().wrapping_sub(first) < count)
    }

    /// Number of lines that have ever been written or mapped.
    pub fn resident_lines(&self) -> usize {
        let mapped: u64 = self.regions.iter().map(|r| r.len / CACHE_LINE_BYTES).sum();
        self.lines.len() + mapped as usize
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(Addr::new(0xdead_beef)), 0);
        assert_eq!(mem.read_u64(Addr::new(0xdead_bee8)), 0);
    }

    #[test]
    fn byte_and_word_views_agree() {
        let mut mem = Memory::new();
        mem.write_u64(Addr::new(0x40), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(Addr::new(0x40)), 0x08); // little-endian
        assert_eq!(mem.read_u8(Addr::new(0x47)), 0x01);
    }

    #[test]
    fn writes_are_line_sparse() {
        let mut mem = Memory::new();
        mem.write_u8(Addr::new(0), 1);
        mem.write_u8(Addr::new(63), 2);
        mem.write_u8(Addr::new(64), 3);
        assert_eq!(mem.resident_lines(), 2);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_word_load_panics() {
        Memory::new().read_u64(Addr::new(0x41));
    }

    #[test]
    fn word_overwrite() {
        let mut mem = Memory::new();
        let a = Addr::new(0x80);
        mem.write_u64(a, u64::MAX);
        mem.write_u64(a, 7);
        assert_eq!(mem.read_u64(a), 7);
    }

    fn table(lines: u64) -> Arc<[u64]> {
        (0..lines * 8).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn mapped_words_read_back_and_count_as_resident() {
        let mut mem = Memory::new();
        mem.write_u8(Addr::new(0), 9);
        mem.map_words(Addr::new(0x1000), table(4));
        assert_eq!(mem.read_u64(Addr::new(0x1000)), 1);
        assert_eq!(mem.read_u64(Addr::new(0x10f8)), 31 * 3 + 1);
        assert_eq!(mem.read_u64(Addr::new(0x1100)), 0, "one past the region");
        assert_eq!(mem.resident_lines(), 5);
    }

    #[test]
    fn store_into_a_mapped_region_reaches_neither_a_clone_nor_the_arc() {
        let shared = table(2);
        let mut mem = Memory::new();
        mem.map_words(Addr::new(0x2000), Arc::clone(&shared));
        let before = mem.clone();
        mem.write_u64(Addr::new(0x2008), 0xfeed);
        assert_eq!(mem.read_u64(Addr::new(0x2008)), 0xfeed);
        assert_eq!(before.read_u64(Addr::new(0x2008)), 4);
        assert_eq!(shared[1], 4);

        // And the other way round: the clone's stores stay in the clone.
        let mut other = before.clone();
        other.write_u8(Addr::new(0x2010), 0xab);
        assert_eq!(before.read_u8(Addr::new(0x2010)), 7);
        assert_eq!(mem.read_u8(Addr::new(0x2010)), 7);
        assert_eq!(shared[2], 7);
    }

    #[test]
    fn a_store_copies_its_chunk_alone() {
        // Two whole chunks and a partial third.
        let words = 2 * CHUNK_WORDS as u64 + 40;
        let shared: Arc<[u64]> = (0..words).map(|i| i * 3 + 1).collect();
        let mut mem = Memory::new();
        mem.map_words(Addr::new(0x10_000), Arc::clone(&shared));
        // The last word of the middle chunk.
        let stored = CHUNK_WORDS as u64 * 2 - 1;
        mem.write_u64(Addr::new(0x10_000 + stored * 8), 0xbeef);

        assert!(mem.lines.is_empty(), "the store stays in the region");
        let region = &mem.regions[0];
        assert!(
            Arc::ptr_eq(&region.shared, &shared),
            "the region keeps the Arc"
        );
        assert_eq!(Arc::strong_count(&shared), 2, "no copy holds a reference");
        let private: Vec<bool> = region.private.iter().map(Option::is_some).collect();
        assert_eq!(
            private,
            [false, true, false],
            "only the stored chunk is private"
        );
        for i in 0..words {
            let want = if i == stored { 0xbeef } else { i * 3 + 1 };
            assert_eq!(mem.read_u64(Addr::new(0x10_000 + i * 8)), want, "word {i}");
            assert_eq!(shared[i as usize], i * 3 + 1, "the Arc is untouched");
        }

        // A store into the partial last chunk copies just its 40 words;
        // the rest of the chunk stays zero.
        mem.write_u8(Addr::new(0x10_000 + (words - 1) * 8), 0xcd);
        let last = mem.regions[0].private[2].as_deref().expect("copied");
        assert_eq!(last[..39], shared[2 * CHUNK_WORDS..2 * CHUNK_WORDS + 39]);
        assert!(last[40..].iter().all(|&w| w == 0));
        assert!(mem.lines.is_empty());
        assert_eq!(
            mem.read_u64(Addr::new(0x10_000 + (words - 1) * 8)) & 0xff,
            0xcd
        );
        assert_eq!(shared[words as usize - 1], (words - 1) * 3 + 1);
    }

    #[test]
    fn byte_write_inside_a_region_round_trips_through_read_u64() {
        let mut mem = Memory::new();
        mem.map_words(Addr::new(0x3000), table(1));
        mem.write_u8(Addr::new(0x300b), 0xcd);
        // Word 1 held 4; its byte 3 (little-endian) is now 0xcd.
        assert_eq!(mem.read_u64(Addr::new(0x3008)), 0xcd00_0004);
        assert_eq!(mem.read_u8(Addr::new(0x300b)), 0xcd);
        assert_eq!(mem.read_u8(Addr::new(0x3008)), 4);
    }

    #[test]
    fn mapping_over_written_or_mapped_lines_writes_word_by_word() {
        let mut mem = Memory::new();
        mem.write_u64(Addr::new(0x4040), 0xaa);
        mem.map_words(Addr::new(0x4000), table(2));
        assert_eq!(mem.read_u64(Addr::new(0x4040)), 8 * 3 + 1);
        assert_eq!(mem.resident_lines(), 2);

        // Overlapping an existing region: the second mapping's words win.
        let shared = table(2);
        let mut mem = Memory::new();
        mem.map_words(Addr::new(0x5000), Arc::clone(&shared));
        mem.map_words(Addr::new(0x5040), (100..116).collect());
        assert_eq!(mem.read_u64(Addr::new(0x5038)), 7 * 3 + 1);
        assert_eq!(mem.read_u64(Addr::new(0x5040)), 100);
        assert_eq!(mem.read_u64(Addr::new(0x50b8)), 115);
        assert_eq!(mem.resident_lines(), 3);
        assert_eq!(shared[8], 25, "the fallback's stores copy the region first");
    }

    #[test]
    fn misaligned_or_partial_mappings_match_word_writes() {
        let mut mapped = Memory::new();
        let mut written = Memory::new();
        for (base, words) in [(0x6008u64, table(1)), (0x7000, (1..5).collect())] {
            mapped.map_words(Addr::new(base), Arc::clone(&words));
            for (i, &w) in words.iter().enumerate() {
                written.write_u64(Addr::new(base + i as u64 * 8), w);
            }
        }
        for addr in (0x6000..0x7080).step_by(8) {
            assert_eq!(
                mapped.read_u64(Addr::new(addr)),
                written.read_u64(Addr::new(addr))
            );
        }
        assert_eq!(mapped.resident_lines(), written.resident_lines());
    }
}
