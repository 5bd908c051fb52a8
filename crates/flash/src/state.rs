//! Physical block, page and subpage state.
//!
//! A page is divided into [`MAX_SUBPAGES_PER_PAGE`] subpages (the paper uses 4).
//! Subpages move `Free → Valid → Invalid` and only an erase returns them to
//! `Free`. Each page additionally tracks how many *program operations* it has
//! received (the NOP budget — capped at 4 for SLC-mode per the Micron/Samsung
//! datasheets cited by the paper) and per-subpage disturb counters that feed the
//! error model:
//!
//! * `in_page_disturbs[s]` — how many later partial programs hit the same page
//!   *after* subpage `s` was programmed (Figure 1's "affected in-page cells");
//! * `neighbour_disturbs` — how many program operations landed on adjacent word
//!   lines of the same block while this page held programmed data.

use serde::{Deserialize, Serialize};

use crate::mode::CellMode;

/// Upper bound on subpages per page supported by the fixed-size state arrays.
pub const MAX_SUBPAGES_PER_PAGE: usize = 8;

/// Manufacturer NOP limit: maximum program operations per SLC-mode page.
pub const MAX_PARTIAL_PROGRAMS_SLC: u8 = 4;

/// State of one subpage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubpageState {
    /// Erased, never programmed since the last block erase.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded; space is reclaimed only by erasing the block.
    Invalid,
}

/// State of one page: subpage states, program-op budget and disturb counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageState {
    subpages: [SubpageState; MAX_SUBPAGES_PER_PAGE],
    /// Number of subpages actually exposed by the geometry.
    subpage_count: u8,
    /// Number of program operations this page has received since erase.
    program_ops: u8,
    /// Per-subpage count of later program ops on this page (in-page disturb).
    in_page_disturbs: [u16; MAX_SUBPAGES_PER_PAGE],
    /// Count of program ops on adjacent pages while this page was programmed.
    neighbour_disturbs: u16,
}

impl PageState {
    /// A fresh (erased) page exposing `subpage_count` subpages.
    pub const fn erased(subpage_count: u8) -> Self {
        assert!(
            subpage_count >= 1 && subpage_count as usize <= MAX_SUBPAGES_PER_PAGE,
            "subpage count out of range"
        );
        PageState {
            subpages: [SubpageState::Free; MAX_SUBPAGES_PER_PAGE],
            subpage_count,
            program_ops: 0,
            in_page_disturbs: [0; MAX_SUBPAGES_PER_PAGE],
            neighbour_disturbs: 0,
        }
    }

    /// Number of subpages this page exposes.
    #[inline]
    pub fn subpage_count(&self) -> u8 {
        self.subpage_count
    }

    /// State of subpage `s`.
    #[inline]
    pub fn subpage(&self, s: u8) -> SubpageState {
        assert!(s < self.subpage_count, "subpage {s} out of range");
        self.subpages[s as usize]
    }

    /// Program operations received since the last erase.
    #[inline]
    pub fn program_ops(&self) -> u8 {
        self.program_ops
    }

    /// In-page disturb count accumulated by subpage `s`.
    #[inline]
    pub fn in_page_disturbs(&self, s: u8) -> u16 {
        assert!(s < self.subpage_count);
        self.in_page_disturbs[s as usize]
    }

    /// Neighbour disturb count accumulated by this page.
    #[inline]
    pub fn neighbour_disturbs(&self) -> u16 {
        self.neighbour_disturbs
    }

    /// Whether any subpage has been programmed (valid *or* invalid).
    pub fn is_programmed(&self) -> bool {
        self.iter_subpages().any(|s| s != SubpageState::Free)
    }

    /// Number of subpages in `state`.
    pub fn count(&self, state: SubpageState) -> u8 {
        self.iter_subpages().filter(|&s| s == state).count() as u8
    }

    /// Iterates the states of the exposed subpages.
    pub fn iter_subpages(&self) -> impl Iterator<Item = SubpageState> + '_ {
        self.subpages[..self.subpage_count as usize].iter().copied()
    }

    /// Lowest free subpage index such that `count` contiguous subpages starting
    /// there are all free, or `None` if no such run exists.
    ///
    /// Partial programming hardware programs a contiguous run of bit-line
    /// groups, so allocation within a page is contiguous-run based.
    pub fn find_free_run(&self, count: u8) -> Option<u8> {
        if count == 0 || count > self.subpage_count {
            return None;
        }
        'outer: for start in 0..=(self.subpage_count - count) {
            for s in start..start + count {
                if self.subpages[s as usize] != SubpageState::Free {
                    continue 'outer;
                }
            }
            return Some(start);
        }
        None
    }

    /// Records a program operation covering `[start, start+count)`.
    ///
    /// Returns the number of previously-programmed subpages in this page that
    /// this operation disturbed. Panics if the run is out of range; returns
    /// `Err` if any target subpage is not free.
    pub(crate) fn apply_program(&mut self, start: u8, count: u8) -> Result<u16, ProgramStateError> {
        assert!(
            count > 0 && start + count <= self.subpage_count,
            "program run out of range"
        );
        for s in start..start + count {
            if self.subpages[s as usize] != SubpageState::Free {
                return Err(ProgramStateError::SubpageNotFree(s));
            }
        }
        // Disturb every subpage programmed by an *earlier* operation.
        let mut disturbed = 0u16;
        if self.program_ops > 0 {
            for s in 0..self.subpage_count {
                if (s < start || s >= start + count)
                    && self.subpages[s as usize] != SubpageState::Free
                {
                    self.in_page_disturbs[s as usize] += 1;
                    disturbed += 1;
                }
            }
        }
        for s in start..start + count {
            self.subpages[s as usize] = SubpageState::Valid;
        }
        self.program_ops += 1;
        Ok(disturbed)
    }

    /// Records a program on an adjacent page; disturbs this page if programmed.
    ///
    /// Returns the number of programmed subpages that were disturbed.
    pub(crate) fn apply_neighbour_disturb(&mut self) -> u16 {
        if self.is_programmed() {
            self.neighbour_disturbs += 1;
            self.iter_subpages()
                .filter(|&s| s != SubpageState::Free)
                .count() as u16
        } else {
            0
        }
    }

    /// Marks a valid subpage invalid (logical overwrite / trim).
    pub(crate) fn invalidate(&mut self, s: u8) -> Result<(), ProgramStateError> {
        assert!(s < self.subpage_count);
        let cur = self.subpages[s as usize];
        if cur != SubpageState::Valid {
            return Err(ProgramStateError::NotValid(s, cur));
        }
        self.subpages[s as usize] = SubpageState::Invalid;
        Ok(())
    }
}

/// Errors from page-level state transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramStateError {
    /// Attempted to program a subpage that is not free.
    SubpageNotFree(u8),
    /// Attempted to invalidate a subpage that is not valid.
    NotValid(u8, SubpageState),
}

impl std::fmt::Display for ProgramStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramStateError::SubpageNotFree(s) => {
                write!(f, "subpage {s} is not free")
            }
            ProgramStateError::NotValid(s, st) => {
                write!(f, "subpage {s} is {st:?}, expected Valid")
            }
        }
    }
}

impl std::error::Error for ProgramStateError {}

/// Erased page state for every supported subpage count (entry `n - 1` exposes
/// `n` subpages). Unmaterialized blocks lend these out from [`BlockState::page`].
static ERASED_PAGES: [PageState; MAX_SUBPAGES_PER_PAGE] = {
    let mut table = [const { PageState::erased(1) }; MAX_SUBPAGES_PER_PAGE];
    let mut n = 2;
    while n <= MAX_SUBPAGES_PER_PAGE {
        table[n - 1] = PageState::erased(n as u8);
        n += 1;
    }
    table
};

/// State of one block: its mode, page states and erase count.
///
/// Per-page state is materialized lazily: `pages` stays empty until the first
/// program since the last erase, and until then [`BlockState::page`] lends out
/// a shared erased page. A device therefore holds page state only for the
/// blocks a run has written, and an erase clears the pages while keeping
/// their allocation for the next refill.
///
/// Validity totals (`valid_subpages`, `invalid_subpages`,
/// `fully_invalid_pages`) are cached and maintained by the block-level
/// transition methods so GC victim scoring reads them in O(1) instead of
/// rescanning every page. All state transitions must therefore go through
/// the crate-internal `apply_program_at` / `invalidate_at` / `erase`
/// methods; `page_mut` exists only for transitions that do not
/// change subpage validity (disturb accounting).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockState {
    mode: CellMode,
    /// Subpages per page (fixed by the geometry for the block's lifetime).
    subpages: u8,
    /// Pages exposed in the current mode.
    page_count: u32,
    /// Page states: empty until the first program since the last erase, then
    /// exactly `page_count` long.
    pages: Vec<PageState>,
    erase_count: u32,
    /// Program operations applied to this block since the last erase.
    programs_since_erase: u32,
    /// Read operations served by this block since the last erase (feeds the
    /// optional read-disturb model).
    reads_since_erase: u64,
    /// Cached count of `Valid` subpages across all pages.
    valid_subpages: u32,
    /// Cached count of `Invalid` subpages across all pages.
    invalid_subpages: u32,
    /// Cached count of pages that are programmed but hold no valid subpage
    /// (the page-granularity greedy GC score).
    fully_invalid_pages: u32,
}

impl BlockState {
    /// A freshly-erased block in `mode` with `pages` pages of `subpages` each.
    pub fn erased(mode: CellMode, pages: u32, subpages: u8) -> Self {
        assert!(
            (1..=MAX_SUBPAGES_PER_PAGE as u8).contains(&subpages),
            "subpage count {subpages} out of range"
        );
        BlockState {
            mode,
            subpages,
            page_count: pages,
            pages: Vec::new(),
            erase_count: 0,
            programs_since_erase: 0,
            reads_since_erase: 0,
            valid_subpages: 0,
            invalid_subpages: 0,
            fully_invalid_pages: 0,
        }
    }

    /// Current cell mode.
    #[inline]
    pub fn mode(&self) -> CellMode {
        self.mode
    }

    /// Number of pages exposed in the current mode.
    #[inline]
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// P/E cycles this block has consumed.
    #[inline]
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Program operations since the last erase (feeds utilization metrics).
    #[inline]
    pub fn programs_since_erase(&self) -> u32 {
        self.programs_since_erase
    }

    /// Immutable page state access. Panics if `page >= page_count()`.
    #[inline]
    pub fn page(&self, page: u32) -> &PageState {
        if self.pages.is_empty() {
            assert!(page < self.page_count, "page {page} out of range");
            self.erased_page()
        } else {
            &self.pages[page as usize]
        }
    }

    /// Whether per-page state has been allocated since the last erase.
    #[cfg(test)]
    pub(crate) fn is_materialized(&self) -> bool {
        !self.pages.is_empty()
    }

    /// The shared erased state of one of this block's pages.
    fn erased_page(&self) -> &'static PageState {
        &ERASED_PAGES[self.subpages as usize - 1]
    }

    /// Page states, allocated as erased pages on first use after an erase.
    fn materialized_pages(&mut self) -> &mut [PageState] {
        if self.pages.is_empty() {
            self.pages
                .resize(self.page_count as usize, self.erased_page().clone());
        }
        &mut self.pages
    }

    /// Mutable page access for validity-neutral transitions (disturb
    /// accounting). Validity transitions must use `apply_program_at` /
    /// `invalidate_at` so the cached block totals stay correct.
    pub(crate) fn page_mut(&mut self, page: u32) -> &mut PageState {
        &mut self.materialized_pages()[page as usize]
    }

    /// Programs `[start, start+count)` of `page`, maintaining the cached
    /// validity totals. Returns the in-page disturb count.
    pub(crate) fn apply_program_at(
        &mut self,
        page: u32,
        start: u8,
        count: u8,
    ) -> Result<u16, ProgramStateError> {
        let p = &mut self.materialized_pages()[page as usize];
        let was_dead = p.is_programmed() && p.count(SubpageState::Valid) == 0;
        let disturbed = p.apply_program(start, count)?;
        self.valid_subpages += count as u32;
        if was_dead {
            self.fully_invalid_pages -= 1;
        }
        Ok(disturbed)
    }

    /// Invalidates subpage `s` of `page`, maintaining the cached totals.
    pub(crate) fn invalidate_at(&mut self, page: u32, s: u8) -> Result<(), ProgramStateError> {
        let p = &mut self.materialized_pages()[page as usize];
        p.invalidate(s)?;
        let now_dead = p.count(SubpageState::Valid) == 0;
        self.valid_subpages -= 1;
        self.invalid_subpages += 1;
        if now_dead {
            self.fully_invalid_pages += 1;
        }
        Ok(())
    }

    pub(crate) fn note_program(&mut self) {
        self.programs_since_erase += 1;
    }

    pub(crate) fn note_read(&mut self) {
        self.reads_since_erase += 1;
    }

    /// Reads served since the last erase (read-disturb accumulation).
    #[inline]
    pub fn reads_since_erase(&self) -> u64 {
        self.reads_since_erase
    }

    /// Erases the block, optionally switching mode, re-shaping the page array.
    pub(crate) fn erase(&mut self, new_mode: CellMode, pages: u32) {
        self.reformat(new_mode, pages);
        self.erase_count += 1;
    }

    /// Re-shapes the block into `mode` with `pages` erased pages, resetting
    /// every per-erase counter but not the erase count. O(1): the page states
    /// are dropped (their allocation kept) and rebuilt on the next program.
    pub(crate) fn reformat(&mut self, mode: CellMode, pages: u32) {
        self.mode = mode;
        self.page_count = pages;
        self.pages.clear();
        self.programs_since_erase = 0;
        self.reads_since_erase = 0;
        self.valid_subpages = 0;
        self.invalid_subpages = 0;
        self.fully_invalid_pages = 0;
    }

    /// Total subpages across all pages. O(1): all pages share one geometry.
    pub fn total_subpages(&self) -> u32 {
        self.page_count * self.subpages as u32
    }

    /// Subpages currently in `state` across all pages. O(1) from the cached
    /// block totals.
    pub fn count_subpages(&self, state: SubpageState) -> u32 {
        match state {
            SubpageState::Valid => self.valid_subpages,
            SubpageState::Invalid => self.invalid_subpages,
            SubpageState::Free => {
                self.total_subpages() - self.valid_subpages - self.invalid_subpages
            }
        }
    }

    /// Pages that are programmed but hold no valid data (O(1), cached).
    #[inline]
    pub fn fully_invalid_pages(&self) -> u32 {
        self.fully_invalid_pages
    }

    /// Whether every page is fully free (freshly erased, never programmed).
    pub fn is_pristine(&self) -> bool {
        self.valid_subpages == 0 && self.invalid_subpages == 0
    }

    /// Recomputes the cached validity totals from page state and compares;
    /// used by the FTL's invariant checker (tests / debug sweeps only).
    pub fn counters_consistent(&self) -> bool {
        let valid: u32 = self
            .pages
            .iter()
            .map(|p| p.count(SubpageState::Valid) as u32)
            .sum();
        let invalid: u32 = self
            .pages
            .iter()
            .map(|p| p.count(SubpageState::Invalid) as u32)
            .sum();
        let dead = self
            .pages
            .iter()
            .filter(|p| p.is_programmed() && p.count(SubpageState::Valid) == 0)
            .count() as u32;
        valid == self.valid_subpages
            && invalid == self.invalid_subpages
            && dead == self.fully_invalid_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page4() -> PageState {
        PageState::erased(4)
    }

    #[test]
    fn fresh_page_is_all_free() {
        let p = page4();
        assert_eq!(p.count(SubpageState::Free), 4);
        assert_eq!(p.program_ops(), 0);
        assert!(!p.is_programmed());
    }

    #[test]
    fn first_program_disturbs_nothing_in_page() {
        let mut p = page4();
        let disturbed = p.apply_program(0, 2).unwrap();
        assert_eq!(disturbed, 0);
        assert_eq!(p.count(SubpageState::Valid), 2);
        assert_eq!(p.program_ops(), 1);
    }

    #[test]
    fn partial_program_disturbs_earlier_data() {
        let mut p = page4();
        p.apply_program(0, 2).unwrap();
        let disturbed = p.apply_program(2, 1).unwrap();
        assert_eq!(disturbed, 2);
        assert_eq!(p.in_page_disturbs(0), 1);
        assert_eq!(p.in_page_disturbs(1), 1);
        assert_eq!(p.in_page_disturbs(2), 0);
        // A third program disturbs all three earlier subpages, valid or not.
        p.invalidate(0).unwrap();
        let disturbed = p.apply_program(3, 1).unwrap();
        assert_eq!(disturbed, 3);
        assert_eq!(p.in_page_disturbs(0), 2);
    }

    #[test]
    fn cannot_program_occupied_subpage() {
        let mut p = page4();
        p.apply_program(1, 1).unwrap();
        assert_eq!(
            p.apply_program(1, 1),
            Err(ProgramStateError::SubpageNotFree(1))
        );
        // State unchanged by the failed attempt.
        assert_eq!(p.program_ops(), 1);
    }

    #[test]
    fn find_free_run_respects_contiguity() {
        let mut p = page4();
        p.apply_program(1, 1).unwrap(); // occupy subpage 1 → free: [0], [2,3]
        assert_eq!(p.find_free_run(1), Some(0));
        assert_eq!(p.find_free_run(2), Some(2));
        assert_eq!(p.find_free_run(3), None);
        assert_eq!(p.find_free_run(0), None);
        assert_eq!(p.find_free_run(5), None);
    }

    #[test]
    fn invalidate_requires_valid() {
        let mut p = page4();
        assert!(p.invalidate(0).is_err());
        p.apply_program(0, 1).unwrap();
        p.invalidate(0).unwrap();
        assert!(p.invalidate(0).is_err());
        assert_eq!(p.count(SubpageState::Invalid), 1);
    }

    #[test]
    fn neighbour_disturb_only_hits_programmed_pages() {
        let mut p = page4();
        assert_eq!(p.apply_neighbour_disturb(), 0);
        assert_eq!(p.neighbour_disturbs(), 0);
        p.apply_program(0, 3).unwrap();
        assert_eq!(p.apply_neighbour_disturb(), 3);
        assert_eq!(p.neighbour_disturbs(), 1);
    }

    #[test]
    fn block_erase_switches_mode_and_resets() {
        let mut b = BlockState::erased(CellMode::Slc, 4, 4);
        b.apply_program_at(0, 0, 4).unwrap();
        b.note_program();
        assert_eq!(b.count_subpages(SubpageState::Valid), 4);
        assert!(!b.is_pristine());
        assert!(b.counters_consistent());

        b.erase(CellMode::Mlc, 8);
        assert_eq!(b.mode(), CellMode::Mlc);
        assert_eq!(b.page_count(), 8);
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.programs_since_erase(), 0);
        assert!(b.is_pristine());
        assert_eq!(b.total_subpages(), 32);
    }

    #[test]
    fn subpage_accounting_is_conserved() {
        let mut b = BlockState::erased(CellMode::Slc, 2, 4);
        b.apply_program_at(0, 0, 2).unwrap();
        b.apply_program_at(0, 2, 1).unwrap();
        b.invalidate_at(0, 1).unwrap();
        b.apply_program_at(1, 0, 4).unwrap();
        let total = b.total_subpages();
        let sum = b.count_subpages(SubpageState::Free)
            + b.count_subpages(SubpageState::Valid)
            + b.count_subpages(SubpageState::Invalid);
        assert_eq!(total, sum);
        assert_eq!(b.count_subpages(SubpageState::Invalid), 1);
        assert_eq!(b.count_subpages(SubpageState::Valid), 6);
        assert!(b.counters_consistent());
    }

    #[test]
    fn fully_invalid_pages_tracks_dead_pages() {
        let mut b = BlockState::erased(CellMode::Slc, 2, 4);
        b.apply_program_at(0, 0, 2).unwrap();
        assert_eq!(b.fully_invalid_pages(), 0);
        b.invalidate_at(0, 0).unwrap();
        b.invalidate_at(0, 1).unwrap();
        assert_eq!(b.fully_invalid_pages(), 1);
        // Re-programming remaining free space revives the page.
        b.apply_program_at(0, 2, 1).unwrap();
        assert_eq!(b.fully_invalid_pages(), 0);
        assert!(b.counters_consistent());
        b.erase(CellMode::Slc, 2);
        assert_eq!(b.fully_invalid_pages(), 0);
        assert!(b.is_pristine());
    }

    #[test]
    fn block_state_fits_in_one_cache_line() {
        assert!(std::mem::size_of::<BlockState>() <= 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unprogrammed_block_refuses_pages_past_its_count() {
        BlockState::erased(CellMode::Slc, 4, 4).page(4);
    }

    #[test]
    fn erased_page_table_covers_every_subpage_count() {
        for n in 1..=MAX_SUBPAGES_PER_PAGE as u8 {
            assert_eq!(ERASED_PAGES[n as usize - 1], PageState::erased(n));
        }
    }
}
