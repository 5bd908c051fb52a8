//! Per-block cache metadata: level labels, write timestamps and update flags.
//!
//! This is the logical bookkeeping the SLC-mode cache needs on top of the
//! physical state in `ipu-flash`: which level a block belongs to (IPU's
//! Work/Monitor/Hot labels), when each subpage was written (the `t_ij` of the
//! ISR GC policy's Equation 2), and whether a page has received an intra-page
//! update (which drives the paper's degraded data movement in GC).

use ipu_flash::{BlockAddr, Nanos};

use crate::types::BlockLevel;

/// Metadata for one in-use (allocated, non-free) block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    pub addr: BlockAddr,
    /// Cache level; `HighDensity` for MLC-region blocks.
    pub level: BlockLevel,
    /// Monotonic open order; GC victim selection breaks score ties toward
    /// the oldest block (FIFO) so eviction pressure rotates over the region
    /// instead of hammering one plane.
    opened_seq: u64,
    /// Write timestamp per subpage slot (page-major). 0 = never written.
    sub_written_ns: Vec<Nanos>,
    /// Whether each page received an intra-page update while in this block.
    page_updated: Vec<bool>,
    subpages_per_page: u32,
    /// Bit per subpage slot (page-major): set while the subpage holds valid
    /// data. Maintained by `note_program` / `note_invalidate` so ISR scoring
    /// never has to consult physical page state.
    valid_mask: Vec<u64>,
    /// Cached number of set bits in `valid_mask`.
    valid_count: u32,
    /// Sum of `sub_written_ns` over valid subpages (feeds the O(1) mean-age
    /// term of the ISR score).
    sum_written_valid: u128,
    /// Valid subpages sitting in never-updated pages (the ISR J-term's
    /// population, and the numerator of its upper bound).
    j_count: u32,
    /// Sum of `sub_written_ns` over the J population (feeds the mean J age
    /// in the ISR upper bound).
    sum_written_cold: u128,
    /// Bit per subpage slot (page-major): set iff the subpage is valid AND
    /// its page was never updated — exactly the J-term population, so the ISR
    /// scorer walks set bits instead of scanning every slot. `j_count` is its
    /// popcount.
    cold_mask: Vec<u64>,
}

impl BlockMeta {
    fn new(
        addr: BlockAddr,
        level: BlockLevel,
        opened_seq: u64,
        pages: u32,
        subpages_per_page: u32,
    ) -> Self {
        let slots = (pages * subpages_per_page) as usize;
        BlockMeta {
            addr,
            level,
            opened_seq,
            sub_written_ns: vec![0; slots],
            page_updated: vec![false; pages as usize],
            subpages_per_page,
            valid_mask: vec![0; slots.div_ceil(64)],
            valid_count: 0,
            sum_written_valid: 0,
            j_count: 0,
            sum_written_cold: 0,
            cold_mask: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn slot(&self, page: u32, subpage: u8) -> usize {
        (page * self.subpages_per_page + subpage as u32) as usize
    }

    #[inline]
    fn mask_bit(&self, slot: usize) -> bool {
        self.valid_mask[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Marks `page` updated, migrating its valid subpages out of the J-term
    /// population. No-op if already updated.
    fn mark_page_updated(&mut self, page: u32) {
        if !self.page_updated[page as usize] {
            self.page_updated[page as usize] = true;
            for s in 0..self.subpages_per_page {
                let slot = self.slot(page, s as u8);
                if self.mask_bit(slot) {
                    self.j_count -= 1;
                    self.sum_written_cold -= self.sub_written_ns[slot] as u128;
                }
            }
            // A page's slots never straddle a mask word (64 is a multiple of
            // every supported subpages-per-page), so one word edit suffices.
            let start = (page * self.subpages_per_page) as usize;
            let span = (1u64 << self.subpages_per_page) - 1;
            self.cold_mask[start / 64] &= !(span << (start % 64));
        }
    }

    /// Monotonic open order of this block (smaller = opened earlier).
    pub fn opened_seq(&self) -> u64 {
        self.opened_seq
    }

    /// Records a program covering `[start, start+count)` of `page` at `now`.
    ///
    /// A second or later program op on a page is by definition an intra-page
    /// update under IPU (the page holds versions of one chunk's data), so the
    /// caller tells us whether this program was a follow-up.
    pub fn note_program(&mut self, page: u32, start: u8, count: u8, now: Nanos, follow_up: bool) {
        if follow_up {
            self.mark_page_updated(page);
        }
        let t = now.max(1);
        let in_j = !self.page_updated[page as usize];
        for s in start..start + count {
            let slot = self.slot(page, s);
            self.sub_written_ns[slot] = t;
            debug_assert!(!self.mask_bit(slot), "subpage programmed while valid");
            self.valid_mask[slot / 64] |= 1u64 << (slot % 64);
            self.valid_count += 1;
            self.sum_written_valid += t as u128;
            if in_j {
                self.j_count += 1;
                self.sum_written_cold += t as u128;
                self.cold_mask[slot / 64] |= 1u64 << (slot % 64);
            }
        }
    }

    /// Records that the subpage's data was superseded (invalidated on the
    /// device). Keeps the cached validity aggregates exact; a no-op for
    /// subpages not currently marked valid.
    pub fn note_invalidate(&mut self, page: u32, subpage: u8) {
        let slot = self.slot(page, subpage);
        if self.mask_bit(slot) {
            self.valid_mask[slot / 64] &= !(1u64 << (slot % 64));
            self.valid_count -= 1;
            self.sum_written_valid -= self.sub_written_ns[slot] as u128;
            if !self.page_updated[page as usize] {
                self.j_count -= 1;
                self.sum_written_cold -= self.sub_written_ns[slot] as u128;
                self.cold_mask[slot / 64] &= !(1u64 << (slot % 64));
            }
        }
    }

    /// Timestamp the subpage was written (0 = never).
    pub fn written_at(&self, page: u32, subpage: u8) -> Nanos {
        self.sub_written_ns[(page * self.subpages_per_page + subpage as u32) as usize]
    }

    /// Whether `page` received an intra-page update while resident here.
    pub fn page_updated(&self, page: u32) -> bool {
        self.page_updated[page as usize]
    }

    /// Restores one subpage's bookkeeping from a durable (OOB) record during
    /// power-loss reconstruction. `written_ns` is the timestamp as persisted
    /// (already clamped non-zero at program time).
    pub fn restore_program(&mut self, page: u32, subpage: u8, written_ns: Nanos, follow_up: bool) {
        if follow_up {
            self.mark_page_updated(page);
        }
        let slot = self.slot(page, subpage);
        self.sub_written_ns[slot] = written_ns;
        if !self.mask_bit(slot) {
            self.valid_mask[slot / 64] |= 1u64 << (slot % 64);
            self.valid_count += 1;
            self.sum_written_valid += written_ns as u128;
            if !self.page_updated[page as usize] {
                self.j_count += 1;
                self.sum_written_cold += written_ns as u128;
                self.cold_mask[slot / 64] |= 1u64 << (slot % 64);
            }
        }
    }

    /// Number of pages tracked.
    pub fn page_count(&self) -> u32 {
        self.page_updated.len() as u32
    }

    /// Subpages per page tracked by this block.
    #[inline]
    pub fn subpages_per_page(&self) -> u32 {
        self.subpages_per_page
    }

    /// Whether the subpage is currently marked valid.
    #[inline]
    pub fn valid_at(&self, page: u32, subpage: u8) -> bool {
        self.mask_bit(self.slot(page, subpage))
    }

    /// Number of valid subpages across the block (cached).
    #[inline]
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Sum of write timestamps over the valid subpages (cached).
    #[inline]
    pub fn sum_written_valid(&self) -> u128 {
        self.sum_written_valid
    }

    /// Valid subpages in never-updated pages (cached; bounds the ISR J-term).
    #[inline]
    pub fn j_count(&self) -> u32 {
        self.j_count
    }

    /// Sum of write timestamps over the J population (cached).
    #[inline]
    pub fn sum_written_cold(&self) -> u128 {
        self.sum_written_cold
    }

    /// The J-term population as a page-major bitset (one bit per subpage
    /// slot); the ISR scorer iterates its set bits in ascending slot order,
    /// which is exactly the oracle's (page, subpage) visit order.
    #[inline]
    pub fn cold_mask_words(&self) -> &[u64] {
        &self.cold_mask
    }

    /// Write timestamps indexed by page-major slot (companion to
    /// [`Self::cold_mask_words`]).
    #[inline]
    pub fn written_slots(&self) -> &[Nanos] {
        &self.sub_written_ns
    }

    /// Recomputes the cached aggregates from the mask and flags and compares;
    /// used by the FTL invariant checker (tests / debug sweeps only).
    pub fn aggregates_consistent(&self) -> bool {
        let mut valid = 0u32;
        let mut sum = 0u128;
        let mut j = 0u32;
        let mut cold_sum = 0u128;
        for page in 0..self.page_count() {
            for s in 0..self.subpages_per_page {
                let slot = self.slot(page, s as u8);
                let cold_bit = self.cold_mask[slot / 64] & (1u64 << (slot % 64)) != 0;
                if self.mask_bit(slot) {
                    valid += 1;
                    sum += self.sub_written_ns[slot] as u128;
                    if !self.page_updated[page as usize] {
                        j += 1;
                        cold_sum += self.sub_written_ns[slot] as u128;
                        if !cold_bit {
                            return false;
                        }
                    } else if cold_bit {
                        return false;
                    }
                } else if cold_bit {
                    return false;
                }
            }
        }
        valid == self.valid_count
            && sum == self.sum_written_valid
            && j == self.j_count
            && cold_sum == self.sum_written_cold
    }
}

/// Registry of in-use blocks and their metadata, indexed by dense block index.
///
/// Every program and GC step looks blocks up here, so the registry is a
/// directory array rather than a map: one boxed slot per block index (8 B per
/// device block while empty) plus one in-use bit per block for each region.
/// Walks visit set bits in ascending block order, the order the schemes'
/// bounded scans (emergency reclaim, scrub, wear leveling, power-loss replay)
/// and their tie-breaks depend on.
#[derive(Debug, Clone, Default)]
pub struct CacheMeta {
    /// Slot per dense block index; `Some` while the block is in use. Grown on
    /// demand to the largest index opened.
    slots: Vec<Option<Box<BlockMeta>>>,
    /// In-use bit per block whose level is in the SLC cache.
    slc_bits: Vec<u64>,
    /// In-use bit per block in the MLC region (`HighDensity`).
    mlc_bits: Vec<u64>,
    len: usize,
    next_seq: u64,
}

/// Indices of the set bits of `words`, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as u64;
                w &= w - 1;
                wi as u64 * 64 + bit
            })
        })
    })
}

impl CacheMeta {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets block `i`'s in-use bit in the SLC (`Some(true)`) or MLC
    /// (`Some(false)`) bitset and clears it in the other; `None` clears both.
    fn mark_in_use(&mut self, i: usize, slc: Option<bool>) {
        let bit = 1u64 << (i % 64);
        for (region, bits) in [(true, &mut self.slc_bits), (false, &mut self.mlc_bits)] {
            if let Some(w) = bits.get_mut(i / 64) {
                if slc == Some(region) {
                    *w |= bit;
                } else {
                    *w &= !bit;
                }
            }
        }
    }

    /// Stores `meta` in `block_idx`'s slot (growing the directory to reach
    /// it) and returns it in place.
    fn install(&mut self, block_idx: u64, meta: BlockMeta) -> &mut BlockMeta {
        let i = block_idx as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
            let words = self.slots.len().div_ceil(64);
            self.slc_bits.resize(words, 0);
            self.mlc_bits.resize(words, 0);
        }
        self.mark_in_use(i, Some(meta.level.is_slc()));
        let slot = &mut self.slots[i];
        if slot.is_some() {
            debug_assert!(false, "block {} registered twice", meta.addr);
        } else {
            self.len += 1;
        }
        slot.insert(Box::new(meta))
    }

    /// Registers a freshly-opened block at `level`.
    pub fn open_block(
        &mut self,
        block_idx: u64,
        addr: BlockAddr,
        level: BlockLevel,
        pages: u32,
        subpages_per_page: u32,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.install(
            block_idx,
            BlockMeta::new(addr, level, seq, pages, subpages_per_page),
        );
    }

    /// Removes a block's metadata (called at erase).
    pub fn close_block(&mut self, block_idx: u64) -> Option<BlockMeta> {
        let i = block_idx as usize;
        let meta = self.slots.get_mut(i)?.take()?;
        self.mark_in_use(i, None);
        self.len -= 1;
        Some(*meta)
    }

    /// Re-registers a block with its *original* open sequence number during
    /// power-loss reconstruction (ISR GC tie-breaking depends on open order,
    /// so rebuilt metadata must preserve it). Does not advance `next_seq`;
    /// callers finish with [`CacheMeta::set_next_seq`]. Returns the freshly
    /// inserted metadata so callers can replay per-subpage records without a
    /// second (fallible) lookup.
    pub fn restore_block(
        &mut self,
        block_idx: u64,
        addr: BlockAddr,
        level: BlockLevel,
        opened_seq: u64,
        pages: u32,
        subpages_per_page: u32,
    ) -> &mut BlockMeta {
        self.install(
            block_idx,
            BlockMeta::new(addr, level, opened_seq, pages, subpages_per_page),
        )
    }

    /// Sets the next open sequence number (power-loss reconstruction: one
    /// past the largest restored `opened_seq`).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    #[inline]
    pub fn get(&self, block_idx: u64) -> Option<&BlockMeta> {
        self.slots.get(block_idx as usize)?.as_deref()
    }

    #[inline]
    pub fn get_mut(&mut self, block_idx: u64) -> Option<&mut BlockMeta> {
        self.slots.get_mut(block_idx as usize)?.as_deref_mut()
    }

    /// Level of a block, if tracked.
    #[inline]
    pub fn level(&self, block_idx: u64) -> Option<BlockLevel> {
        self.get(block_idx).map(|m| m.level)
    }

    /// Resolves walked block indices to their metadata.
    fn metas_of(
        &self,
        indices: impl Iterator<Item = u64>,
    ) -> impl Iterator<Item = (u64, &BlockMeta)> {
        indices.filter_map(|i| self.get(i).map(|m| (i, m)))
    }

    /// Iterates `(block_idx, meta)` over all in-use blocks, ascending index.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BlockMeta)> {
        let words = self.slc_bits.iter().zip(&self.mlc_bits).map(|(s, m)| s | m);
        self.metas_of(set_bits(words))
    }

    /// Number of in-use blocks tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-use blocks in the SLC cache (level above `HighDensity`), ascending
    /// index.
    pub fn slc_blocks(&self) -> impl Iterator<Item = (u64, &BlockMeta)> {
        self.metas_of(set_bits(self.slc_bits.iter().copied()))
    }

    /// In-use blocks in the MLC region, ascending index.
    pub fn mlc_blocks(&self) -> impl Iterator<Item = (u64, &BlockMeta)> {
        self.metas_of(set_bits(self.mlc_bits.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> BlockAddr {
        BlockAddr::new(0, 0, 0, 0, 7)
    }

    #[test]
    fn open_close_round_trip() {
        let mut c = CacheMeta::new();
        c.open_block(7, addr(), BlockLevel::Work, 4, 4);
        assert_eq!(c.level(7), Some(BlockLevel::Work));
        assert_eq!(c.len(), 1);
        let meta = c.close_block(7).unwrap();
        assert_eq!(meta.addr, addr());
        assert!(c.is_empty());
        assert!(c.close_block(7).is_none());
    }

    #[test]
    fn program_records_time_and_update_flag() {
        let mut c = CacheMeta::new();
        c.open_block(7, addr(), BlockLevel::Monitor, 4, 4);
        let m = c.get_mut(7).unwrap();
        m.note_program(2, 0, 2, 1000, false);
        assert_eq!(m.written_at(2, 0), 1000);
        assert_eq!(m.written_at(2, 1), 1000);
        assert_eq!(m.written_at(2, 2), 0);
        assert!(!m.page_updated(2));

        m.note_program(2, 2, 1, 2000, true);
        assert!(m.page_updated(2));
        assert_eq!(m.written_at(2, 2), 2000);
        // Earlier subpages keep their original write time.
        assert_eq!(m.written_at(2, 0), 1000);
    }

    #[test]
    fn time_zero_writes_are_still_marked_written() {
        let mut c = CacheMeta::new();
        c.open_block(7, addr(), BlockLevel::Work, 2, 4);
        let m = c.get_mut(7).unwrap();
        m.note_program(0, 0, 1, 0, false);
        assert!(
            m.written_at(0, 0) > 0,
            "written_at must distinguish written from never"
        );
    }

    #[test]
    fn restore_preserves_open_order_and_flags() {
        let mut c = CacheMeta::new();
        c.restore_block(7, addr(), BlockLevel::Monitor, 41, 4, 4);
        c.set_next_seq(42);
        let m = c.get_mut(7).unwrap();
        m.restore_program(1, 2, 5000, true);
        assert_eq!(m.opened_seq(), 41);
        assert_eq!(m.written_at(1, 2), 5000);
        assert!(m.page_updated(1));
        assert!(!m.page_updated(0));
        // The next freshly-opened block continues the sequence.
        c.open_block(8, BlockAddr::new(0, 0, 0, 0, 8), BlockLevel::Work, 4, 4);
        assert_eq!(c.get(8).unwrap().opened_seq(), 42);
    }

    #[test]
    fn validity_aggregates_track_programs_updates_and_invalidates() {
        let mut c = CacheMeta::new();
        c.open_block(7, addr(), BlockLevel::Work, 4, 4);
        let m = c.get_mut(7).unwrap();
        m.note_program(0, 0, 2, 1000, false);
        m.note_program(1, 0, 1, 3000, false);
        assert_eq!(m.valid_count(), 3);
        assert_eq!(m.sum_written_valid(), 2 * 1000 + 3000);
        assert_eq!(m.j_count(), 3);
        assert!(m.valid_at(0, 0) && m.valid_at(0, 1) && m.valid_at(1, 0));
        assert!(!m.valid_at(0, 2));

        // An intra-page update pulls the whole page out of the J population.
        m.note_invalidate(0, 0);
        m.note_program(0, 2, 1, 5000, true);
        assert_eq!(m.valid_count(), 3); // (0,1), (0,2), (1,0)
        assert_eq!(m.sum_written_valid(), 1000 + 5000 + 3000);
        assert_eq!(m.j_count(), 1); // only (1,0): page 0 is updated
        assert_eq!(m.sum_written_cold(), 3000);
        assert!(!m.valid_at(0, 0) && m.valid_at(0, 1) && m.valid_at(0, 2));

        m.note_invalidate(0, 1);
        m.note_invalidate(0, 1); // double-invalidate is a no-op
        assert_eq!(m.valid_count(), 2);
        assert_eq!(m.sum_written_valid(), 5000 + 3000);
        assert!(m.aggregates_consistent());
    }

    #[test]
    fn restore_rebuilds_aggregates_like_live_programs() {
        let mut c = CacheMeta::new();
        c.restore_block(7, addr(), BlockLevel::Monitor, 3, 2, 4);
        let m = c.get_mut(7).unwrap();
        m.restore_program(0, 0, 100, false);
        m.restore_program(0, 1, 900, true); // follow-up → page updated
        m.restore_program(1, 2, 400, false);
        assert_eq!(m.valid_count(), 3);
        assert_eq!(m.sum_written_valid(), 100 + 900 + 400);
        assert_eq!(m.j_count(), 1);
        assert_eq!(m.sum_written_cold(), 400);
        m.note_invalidate(1, 2);
        assert_eq!(m.j_count(), 0);
        assert_eq!(m.sum_written_cold(), 0);
        assert!(m.aggregates_consistent());
    }

    #[test]
    fn region_filters_split_by_level() {
        let mut c = CacheMeta::new();
        c.open_block(1, BlockAddr::new(0, 0, 0, 0, 1), BlockLevel::Work, 4, 4);
        c.open_block(
            2,
            BlockAddr::new(0, 0, 0, 0, 2),
            BlockLevel::HighDensity,
            8,
            4,
        );
        c.open_block(3, BlockAddr::new(0, 0, 0, 0, 3), BlockLevel::Hot, 4, 4);
        assert_eq!(c.slc_blocks().count(), 2);
        assert_eq!(c.mlc_blocks().count(), 1);
    }
}
