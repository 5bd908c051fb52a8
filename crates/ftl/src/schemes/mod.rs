//! The FTL schemes: the paper's evaluated trio (§4.1) and its §5 future-work
//! design, as one FTL over a 2×2 policy grid.
//!
//! The schemes differ only in where a small write lands and in how GC picks
//! and moves data (Algorithm 1). [`SchemeFtl`] reads two facts off its
//! [`SchemeKind`], and each scheme is one corner of the grid they span:
//!
//! |                     | no intra-page hierarchy | intra-page hierarchy |
//! |---------------------|-------------------------|----------------------|
//! | whole-page writes   | Baseline                | IPU                  |
//! | packs small writes  | MGA                     | IPU+                 |
//!
//! * **Packs small writes** ([`SchemeKind::packs_small_writes`]). A chunk
//!   smaller than a page is partial-programmed into the free subpages of an
//!   *open page* — a page with a free run and NOP budget left — whatever
//!   request the page's earlier data came from. Otherwise it takes a fresh
//!   Work page, whose leftover subpages become a new open page. Without
//!   packing, every chunk burns a whole fresh page in one program, leaving
//!   the rest unusable until GC (Baseline's "page fragmentation": ~52.8%
//!   utilization in Figure 9). MGA (Mapping Granularity Adaptive, Feng et
//!   al., DATE'17) packs to ~99.9%, but every packing program disturbs the
//!   valid data already in the page, which is why it shows the worst read
//!   error rate in Figure 8.
//! * **Intra-page hierarchy** ([`SchemeKind::intra_page_hierarchy`]), the
//!   paper's contribution (§3). The mapping splits each chunk into new data
//!   and updates grouped by the page holding their old version. An update is
//!   partial-programmed into that very page when it fits (*intra-page
//!   update*), so the only data it disturbs is its own obsolete version;
//!   otherwise it moves one level *up* the Work → Monitor → Hot hierarchy
//!   (*upgraded movement*, Figure 3). GC picks the block maximizing
//!   Equation 1's invalid-subpage ratio (ISR, Equation 2 ages never-updated
//!   data; greedy instead when `ipu_use_isr_gc` is off) and keeps updated
//!   pages at their level while cold pages sink one (*degraded movement*,
//!   Figure 4). Without the hierarchy, GC is greedy and
//!   evicts all valid data to the high-density region.
//!
//! IPU+ packs only *new* data: updates never land in a foreign page, so hot
//! data keeps IPU's disturb profile while cold first writes stop wasting page
//! space.
//!
//! The mapping-memory model follows the same axes: IPU's live-offset bits and
//! level labels with the hierarchy, MGA's second-level entries with packing.

pub mod common;

// Per-scheme unit tests, one file per corner of the grid.
#[cfg(test)]
mod baseline;
#[cfg(test)]
mod ipu;
#[cfg(test)]
mod ipu_plus;
#[cfg(test)]
mod mga;

use std::collections::VecDeque;

use ipu_flash::{CellMode, FlashDevice, Nanos, Ppa, MAX_SUBPAGES_PER_PAGE};
use ipu_trace::IoRequest;
use serde::{Deserialize, Serialize};

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::memory::MappingMemory;
use crate::ops::{FlashOpKind, OpBatch, RoundOrigin};
use crate::stats::FtlStats;
use crate::types::{BlockLevel, Lsn};
use common::FtlCore;

/// A pluggable FTL scheme.
pub trait FtlScheme {
    /// Handles a host write request at simulated time `now`, appending every
    /// flash operation issued — including GC work the write triggered — to
    /// `out`. `out` arrives cleared; callers on the replay hot path reuse one
    /// batch across requests (via [`OpBatch::clear`]) so no per-request `Vec`
    /// allocation happens once the batch has grown to the workload's
    /// high-water mark.
    fn on_write_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    );

    /// Handles a host read request; same output contract as
    /// [`FtlScheme::on_write_into`].
    fn on_read_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    );

    /// Convenience wrapper over [`FtlScheme::on_write_into`] allocating a
    /// fresh batch; fine for tests and one-off calls, avoid in replay loops.
    fn on_write(&mut self, req: &IoRequest, now: Nanos, dev: &mut FlashDevice) -> OpBatch {
        let mut batch = OpBatch::new();
        self.on_write_into(req, now, dev, &mut batch);
        batch
    }

    /// Convenience wrapper over [`FtlScheme::on_read_into`] allocating a
    /// fresh batch.
    fn on_read(&mut self, req: &IoRequest, now: Nanos, dev: &mut FlashDevice) -> OpBatch {
        let mut batch = OpBatch::new();
        self.on_read_into(req, now, dev, &mut batch);
        batch
    }

    /// Simulates a sudden power loss and recovery: every volatile structure
    /// (mapping table, owner table, cache metadata, open blocks, scheme-local
    /// packing state) is dropped and rebuilt from durable flash contents —
    /// the per-page OOB records and the bad-block table. Statistics survive
    /// (they model host-side observability, not drive RAM).
    fn power_cycle(&mut self, dev: &FlashDevice);

    /// FTL statistics accumulated so far.
    fn stats(&self) -> &FtlStats;

    /// The scheme's mapping-table memory footprint under the paper's §4.4.1
    /// accounting model (Figure 11).
    fn mapping_memory(&self, dev: &FlashDevice) -> MappingMemory;

    /// Access to the shared core (tests, metrics, invariant checks).
    fn core(&self) -> &FtlCore;

    /// Mutable access to the shared core (victim-selection probes in tests).
    fn core_mut(&mut self) -> &mut FtlCore;
}

/// Identifies one of the four schemes (one corner each of the policy grid
/// described in the [module docs](self)); used by configs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Plain SLC-cache FTL: whole-page cache writes, greedy GC evicting to
    /// the high-density region.
    Baseline,
    /// Mapping Granularity Adaptive (Feng et al., DATE'17; the paper's
    /// state-of-the-art comparison): packs small writes from different
    /// requests into open pages by partial programming.
    Mga,
    /// The paper's Intra-page Update scheme: partial programming updates
    /// subpages in place inside the SLC-mode cache page.
    Ipu,
    /// Extension: IPU plus packing of new (cold) data — the paper's §5
    /// future work. Not part of the paper's evaluated trio.
    IpuPlus,
}

impl SchemeKind {
    /// The paper's evaluated schemes, in its presentation order.
    pub fn all() -> [SchemeKind; 3] {
        [SchemeKind::Baseline, SchemeKind::Mga, SchemeKind::Ipu]
    }

    /// The paper's schemes plus this repo's extensions.
    pub fn all_extended() -> [SchemeKind; 4] {
        [
            SchemeKind::Baseline,
            SchemeKind::Mga,
            SchemeKind::Ipu,
            SchemeKind::IpuPlus,
        ]
    }

    /// Display label as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::Mga => "MGA",
            SchemeKind::Ipu => "IPU",
            SchemeKind::IpuPlus => "IPU+",
        }
    }

    /// Whether chunks smaller than a page pack into the free subpages of
    /// open pages by partial programming (MGA, IPU+). IPU+ packs new data
    /// only; its updates follow the intra-page hierarchy.
    pub fn packs_small_writes(self) -> bool {
        match self {
            SchemeKind::Mga | SchemeKind::IpuPlus => true,
            SchemeKind::Baseline | SchemeKind::Ipu => false,
        }
    }

    /// Whether updates use intra-page updates and the Work → Monitor → Hot
    /// hierarchy, with ISR victim choice (per `ipu_use_isr_gc`) and degraded
    /// movement at GC (IPU, IPU+).
    pub fn intra_page_hierarchy(self) -> bool {
        match self {
            SchemeKind::Ipu | SchemeKind::IpuPlus => true,
            SchemeKind::Baseline | SchemeKind::Mga => false,
        }
    }

    /// Instantiates the scheme over `dev` (formats the SLC region).
    pub fn build(self, dev: &mut FlashDevice, cfg: FtlConfig) -> Box<dyn FtlScheme> {
        Box::new(SchemeFtl::new(self, dev, cfg))
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The FTL behind every [`SchemeKind`]: one write path and one GC loop whose
/// placement and movement follow the kind's corner of the policy grid.
#[derive(Debug)]
pub struct SchemeFtl {
    core: FtlCore,
    kind: SchemeKind,
    /// Pages with free subpage runs and remaining NOP budget, oldest first:
    /// the packing targets. Always empty unless the kind packs small writes.
    open_pages: VecDeque<Ppa>,
}

impl SchemeFtl {
    /// Formats the SLC region of `dev` and returns the `kind` FTL over it.
    pub fn new(kind: SchemeKind, dev: &mut FlashDevice, cfg: FtlConfig) -> Self {
        SchemeFtl {
            core: FtlCore::new(dev, cfg),
            kind,
            open_pages: VecDeque::new(),
        }
    }

    /// Number of open packing pages (introspection for tests).
    pub fn open_page_count(&self) -> usize {
        self.open_pages.len()
    }

    /// First open page that can absorb `count` subpages, with the offset.
    /// Pages whose block was retired or erased since they were registered
    /// are skipped: a partial program must never land outside an in-use
    /// block.
    fn find_open_slot(&self, dev: &FlashDevice, count: u8) -> Option<(Ppa, u8)> {
        self.open_pages
            .iter()
            .filter(|&&ppa| in_use(&self.core, ppa))
            .find_map(|&ppa| free_run(dev, ppa, count).map(|off| (ppa, off)))
    }

    /// Drops an open page that can no longer accept data, keeps it otherwise.
    fn refresh_open_page(&mut self, dev: &FlashDevice, ppa: Ppa) {
        if free_run(dev, ppa, 1).is_none() {
            self.open_pages.retain(|&p| p != ppa);
        }
    }

    /// Handles one chunk of a write request (Algorithm 1, lines 2–13).
    fn write_chunk(
        &mut self,
        lsns: &[Lsn],
        now: Nanos,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        if !self.kind.intra_page_hierarchy() {
            return self.write_new(lsns, now, dev, batch);
        }
        // Partition the chunk's subpages by where their current version lives.
        // A chunk is a contiguous run of at most one page's subpages, so the
        // partition fits in stack buffers and the mapping table is probed once
        // per bucket span instead of once per subpage.
        debug_assert!(lsns.len() <= MAX_SUBPAGES_PER_PAGE);
        debug_assert!(lsns.windows(2).all(|w| w[1] == w[0] + 1));
        let Some(&first) = lsns.first() else {
            return Ok(());
        };
        let mut new_lsns = [0 as Lsn; MAX_SUBPAGES_PER_PAGE];
        let mut new_n = 0usize;
        let mut group_ppas = [Ppa::new(0, 0, 0, 0, 0, 0); MAX_SUBPAGES_PER_PAGE];
        let mut group_lsns = [[0 as Lsn; MAX_SUBPAGES_PER_PAGE]; MAX_SUBPAGES_PER_PAGE];
        let mut group_lens = [0u8; MAX_SUBPAGES_PER_PAGE];
        let mut ng = 0usize;
        self.core
            .map
            .lookup_span(first, first + lsns.len() as u64, |lsn, loc| {
                let Some(spa) = loc else {
                    new_lsns[new_n] = lsn;
                    new_n += 1;
                    return;
                };
                if let Some(g) = group_ppas[..ng].iter().position(|p| *p == spa.ppa) {
                    group_lsns[g][group_lens[g] as usize] = lsn;
                    group_lens[g] += 1;
                } else {
                    group_ppas[ng] = spa.ppa;
                    group_lsns[ng][0] = lsn;
                    group_lens[ng] = 1;
                    ng += 1;
                }
            });
        if new_n > 0 {
            self.write_new(&new_lsns[..new_n], now, dev, batch)?;
        }
        for g in 0..ng {
            let group = &group_lsns[g][..group_lens[g] as usize];
            self.write_update(group_ppas[g], group, now, dev, batch)?;
        }
        Ok(())
    }

    /// Writes data that gets a new location (Algorithm 1 line 5): into an
    /// open page when packing a small chunk, else into a fresh Work page.
    fn write_new(
        &mut self,
        lsns: &[Lsn],
        now: Nanos,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        let k = lsns.len() as u8;
        let pack = self.kind.packs_small_writes() && k < self.core.spp();
        if pack {
            if let Some((ppa, off)) = self.find_open_slot(dev, k) {
                let res = self.core.program_group(
                    dev,
                    ppa,
                    off,
                    lsns,
                    FlashOpKind::HostProgram,
                    now,
                    batch,
                );
                // A failed program may have retired blocks holding open pages.
                self.open_pages.retain(|&p| in_use(&self.core, p));
                self.refresh_open_page(dev, ppa);
                return res;
            }
        }
        let (ppa, level) = self.core.take_host_page(dev, BlockLevel::Work, batch)?;
        self.core
            .program_group(dev, ppa, 0, lsns, FlashOpKind::HostProgram, now, batch)?;
        // The fresh page's leftover subpages become packing space.
        if pack && level.is_slc() && in_use(&self.core, ppa) {
            self.open_pages.push_back(ppa);
            while self.open_pages.len() > self.core.cfg.mga_open_page_limit {
                self.open_pages.pop_front();
            }
        }
        Ok(())
    }

    /// Writes an update whose old version lives in `old_ppa`: intra-page when
    /// the old page can absorb it (Algorithm 1 line 8), else upgraded
    /// movement (line 11).
    fn write_update(
        &mut self,
        old_ppa: Ppa,
        group: &[Lsn],
        now: Nanos,
        dev: &mut FlashDevice,
        batch: &mut OpBatch,
    ) -> Result<(), FtlError> {
        let addr = old_ppa.block_addr();
        // `None` once a program failure earlier in this chunk retired the old
        // block (relocating its data): a retired block takes no more data,
        // so such an update falls back to upgraded movement.
        let cur = self.core.meta.level(self.core.block_idx(addr));
        let intra_offset = if cur.is_some() && dev.block(addr).mode() == CellMode::Slc {
            free_run(dev, old_ppa, group.len() as u8)
        } else {
            None
        };
        let (ppa, off) = match intra_offset {
            // The data this partial program disturbs is its own obsolete
            // version, invalidated by program_group's remap.
            Some(off) => (old_ppa, off),
            None => {
                // One level up from wherever the old version lived, capped at
                // the configured top level (3 = Hot in the paper). Hot data
                // never takes the MLC bypass: retaining updated data in the
                // cache is the point of the hierarchy, and the fallback chain
                // inside take_page already handles genuine exhaustion.
                let cur = cur.unwrap_or(BlockLevel::HighDensity);
                let cap = BlockLevel::from_flag_clamped(self.core.cfg.ipu_max_level as i32);
                let (ppa, _) = self.core.take_page(dev, cur.promoted().min(cap), batch)?;
                (ppa, 0)
            }
        };
        self.core
            .program_group(dev, ppa, off, group, FlashOpKind::HostProgram, now, batch)?;
        if intra_offset.is_some() {
            self.core.stats.intra_page_updates += 1;
            // An open packing page may have lost its remaining space.
            self.refresh_open_page(dev, old_ppa);
        } else {
            self.core.stats.upgraded_writes += 1;
        }
        Ok(())
    }

    /// SLC GC rounds after a write chunk (Algorithm 1 lines 14–19), then the
    /// MLC GC, wear-leveling and scrub passes that are due.
    fn run_gc(&mut self, now: Nanos, dev: &mut FlashDevice, batch: &mut OpBatch) {
        let hierarchy = self.kind.intra_page_hierarchy();
        let mut rounds = 0;
        while self.core.slc_gc_needed()
            && self.core.slc_gc_gate_open(now)
            && rounds < self.core.cfg.gc_rounds_per_write
        {
            let _span = ipu_obs::span(ipu_obs::Phase::Gc);
            batch.begin_background_round(RoundOrigin::Gc);
            rounds += 1;
            let cost_before = batch.total_latency_sum();
            let victim = if hierarchy && self.core.cfg.ipu_use_isr_gc {
                self.core.select_slc_victim_isr(dev, now)
            } else {
                self.core.select_slc_victim_greedy()
            };
            let Some(victim) = victim else { break };
            let Some((victim_addr, victim_level)) =
                self.core.meta.get(victim).map(|m| (m.addr, m.level))
            else {
                break;
            };
            // Victim pages can no longer serve as packing targets.
            self.open_pages.retain(|p| p.block_addr() != victim_addr);
            let mut aborted = false;
            let mut groups = std::mem::take(&mut self.core.gc_groups);
            let groups_cap = groups.capacity();
            self.core
                .collect_victim_groups_into(dev, victim, &mut groups);
            for group in &groups {
                // Degraded movement keeps updated pages at their level and
                // sinks cold ones (Work-level cold data leaves the cache);
                // without the hierarchy all valid data leaves the cache.
                let dest = match (hierarchy, group.updated) {
                    (true, true) => victim_level,
                    (true, false) => victim_level.demoted(),
                    (false, _) => BlockLevel::HighDensity,
                };
                if self
                    .core
                    .relocate_group(dev, victim_addr, group, dest, now, batch)
                    .is_err()
                {
                    aborted = true;
                    break;
                }
            }
            if groups.capacity() != groups_cap {
                self.core.stats.scratch_grows += 1;
            }
            self.core.gc_groups = groups;
            if aborted {
                // Never erase a partially-relocated victim.
                break;
            }
            self.core.erase_victim(dev, victim, now, batch);
            let round_cost = batch.total_latency_sum() - cost_before;
            self.core.finish_slc_gc_round(now, round_cost);
        }
        self.core.run_mlc_gc_if_needed(dev, now, batch);
        self.core.run_wear_leveling_if_due(dev, now, batch);
        self.core.run_scrub_if_due(dev, now, batch);
    }
}

/// Offset of a free run of `count` subpages in `ppa`'s page, if the page has
/// NOP budget left for another partial program.
fn free_run(dev: &FlashDevice, ppa: Ppa, count: u8) -> Option<u8> {
    let page = dev.block(ppa.block_addr()).page(ppa.page);
    if page.program_ops() < dev.config().max_partial_programs {
        page.find_free_run(count)
    } else {
        None
    }
}

/// Whether `ppa` lies on an in-use block, i.e. one with cache metadata
/// (retirement and erase drop it).
fn in_use(core: &FtlCore, ppa: Ppa) -> bool {
    core.meta.get(core.block_idx(ppa.block_addr())).is_some()
}

impl FtlScheme for SchemeFtl {
    fn on_write_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    ) {
        self.core.begin_request(now);
        self.core.stats.host_write_requests += 1;
        for (start, len) in self.core.chunk_spans(req) {
            // A chunk is a contiguous LSN run of at most one page: stage it in
            // a stack buffer so the write path performs no heap allocation.
            let mut chunk = [0 as Lsn; MAX_SUBPAGES_PER_PAGE];
            for (i, slot) in chunk[..len as usize].iter_mut().enumerate() {
                *slot = start + i as u64;
            }
            if let Err(e) = self.write_chunk(&chunk[..len as usize], now, dev, out) {
                self.core.note_write_failure(&e, out);
            }
            self.run_gc(now, dev, out);
        }
    }

    fn on_read_into(
        &mut self,
        req: &IoRequest,
        now: Nanos,
        dev: &mut FlashDevice,
        out: &mut OpBatch,
    ) {
        self.core.begin_request(now);
        if let Err(e) = self.core.host_read(req, dev, out) {
            self.core.note_read_failure(&e, out);
        }
    }

    fn power_cycle(&mut self, dev: &FlashDevice) {
        // Open packing candidates are volatile controller state.
        self.open_pages.clear();
        self.core.rebuild_from_flash(dev);
    }

    fn stats(&self) -> &FtlStats {
        &self.core.stats
    }

    fn mapping_memory(&self, dev: &FlashDevice) -> MappingMemory {
        let g = &dev.config().geometry;
        let logical_pages = self.core.logical_pages();
        let mut memory = if self.kind.intra_page_hierarchy() {
            let slc_blocks = self.core.blocks.slc_total();
            let slc_pages = slc_blocks * g.pages_per_block_slc as u64;
            MappingMemory::ipu(logical_pages, slc_pages, slc_blocks)
        } else {
            MappingMemory::baseline(logical_pages)
        };
        if self.kind.packs_small_writes() {
            // Packing scatters chunks across pages: add MGA's second-level
            // entries for them (for IPU+ on top of IPU's offset bits — the
            // honest, slightly pessimistic model).
            let spp = g.subpages_per_page();
            let scattered = self.core.map.chunk_summary(spp).scattered_chunks;
            memory.second_level_bytes +=
                MappingMemory::mga(logical_pages, scattered, spp).second_level_bytes;
        }
        memory
    }

    fn core(&self) -> &FtlCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FtlCore {
        &mut self.core
    }
}
