//! Unit tests for the IPU corner of the scheme grid: intra-page updates,
//! upgraded movement, ISR GC with degraded movement.

#[cfg(test)]
mod tests {
    use ipu_flash::{DeviceConfig, FlashDevice, SubpageState};
    use ipu_trace::{IoRequest, OpKind};

    use crate::config::FtlConfig;
    use crate::ops::FlashOpKind;
    use crate::schemes::{FtlScheme, SchemeFtl, SchemeKind};
    use crate::types::BlockLevel;

    fn setup() -> (SchemeFtl, FlashDevice) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let ftl = SchemeFtl::new(SchemeKind::Ipu, &mut dev, FtlConfig::default());
        (ftl, dev)
    }

    /// A roomier SLC region (8 blocks) so Work, Monitor and Hot actives can
    /// coexist without falling back down the hierarchy.
    fn setup_roomy() -> (SchemeFtl, FlashDevice) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let cfg = FtlConfig {
            slc_ratio: 0.25,
            ..FtlConfig::default()
        };
        let ftl = SchemeFtl::new(SchemeKind::Ipu, &mut dev, cfg);
        assert_eq!(ftl.core.blocks.slc_total(), 8);
        (ftl, dev)
    }

    fn w(offset: u64, size: u32) -> IoRequest {
        IoRequest::new(0, OpKind::Write, offset, size)
    }

    #[test]
    fn update_lands_in_the_same_page() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        let first = ftl.core.map.lookup(0).unwrap();
        ftl.on_write(&w(0, 4096), 2, &mut dev);
        let second = ftl.core.map.lookup(0).unwrap();
        assert_eq!(first.ppa, second.ppa, "update must stay intra-page");
        assert_eq!(second.subpage, first.subpage + 1);
        assert_eq!(ftl.stats().intra_page_updates, 1);
        // The old version is invalid; the disturbed in-page data is only that
        // obsolete version.
        let page = dev.block(first.ppa.block_addr()).page(first.ppa.page);
        assert_eq!(page.subpage(first.subpage), SubpageState::Invalid);
        assert_eq!(page.in_page_disturbs(first.subpage), 1);
        assert_eq!(page.in_page_disturbs(second.subpage), 0);
    }

    #[test]
    fn different_requests_never_share_a_page() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        ftl.on_write(&w(65536, 4096), 2, &mut dev);
        let a = ftl.core.map.lookup(0).unwrap();
        let b = ftl.core.map.lookup(16).unwrap();
        assert_ne!(a.ppa, b.ppa, "IPU must not pack foreign data into a page");
    }

    #[test]
    fn fourth_update_upgrades_to_monitor() {
        let (mut ftl, mut dev) = setup();
        // 4 KB chunk: first write + 3 intra-page updates exhaust the page,
        // the next update must move up to a Monitor block.
        for t in 0..4u64 {
            ftl.on_write(&w(0, 4096), t, &mut dev);
        }
        assert_eq!(ftl.stats().intra_page_updates, 3);
        assert_eq!(ftl.stats().upgraded_writes, 0);

        ftl.on_write(&w(0, 4096), 9, &mut dev);
        assert_eq!(ftl.stats().upgraded_writes, 1);
        let spa = ftl.core.map.lookup(0).unwrap();
        let level = ftl
            .core
            .meta
            .level(ftl.core.block_idx(spa.ppa.block_addr()));
        assert_eq!(level, Some(BlockLevel::Monitor));
        assert_eq!(spa.subpage, 0);
        assert_eq!(
            ftl.stats().host_programs_per_level[BlockLevel::Monitor as usize],
            1
        );
    }

    #[test]
    fn sustained_updates_climb_to_hot() {
        let (mut ftl, mut dev) = setup_roomy();
        // Each page absorbs 4 programs; 12 writes walk Work → Monitor → Hot.
        for t in 0..12u64 {
            ftl.on_write(&w(0, 4096), t, &mut dev);
        }
        let spa = ftl.core.map.lookup(0).unwrap();
        let level = ftl
            .core
            .meta
            .level(ftl.core.block_idx(spa.ppa.block_addr()));
        assert_eq!(level, Some(BlockLevel::Hot));
        assert_eq!(ftl.stats().upgraded_writes, 2);
        assert_eq!(ftl.stats().intra_page_updates, 9);
    }

    #[test]
    fn full_page_update_always_upgrades() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 16384), 1, &mut dev);
        ftl.on_write(&w(0, 16384), 2, &mut dev);
        // A 4-subpage update can never fit in the old (fully programmed) page.
        assert_eq!(ftl.stats().intra_page_updates, 0);
        assert_eq!(ftl.stats().upgraded_writes, 1);
    }

    #[test]
    fn partially_new_chunk_splits_new_and_update() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev); // lsn 0 exists
        ftl.on_write(&w(0, 8192), 2, &mut dev); // lsn 0 update + lsn 1 new
        assert_eq!(ftl.stats().intra_page_updates, 1);
        let a = ftl.core.map.lookup(0).unwrap();
        let b = ftl.core.map.lookup(1).unwrap();
        // lsn 0 updated intra-page; lsn 1 is new data in a Work page.
        assert_eq!(a.subpage, 1);
        assert_eq!(b.subpage, 0);
        assert_ne!(a.ppa, b.ppa);
    }

    #[test]
    fn gc_demotes_cold_and_keeps_hot() {
        let (mut ftl, mut dev) = setup();
        // Two SLC blocks of 4 pages. Fill with a mix: slot 0 is hot (updated
        // in place), slots 1..4 are cold singles.
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        ftl.on_write(&w(0, 4096), 2, &mut dev); // intra-page update → page updated
        for slot in 1..4u64 {
            ftl.on_write(&w(slot * 65536, 4096), 2 + slot, &mut dev);
        }
        // Force pressure: more cold singles to trip GC repeatedly.
        for slot in 4..12u64 {
            ftl.on_write(&w(slot * 65536, 4096), 10 + slot, &mut dev);
        }
        let stats = ftl.stats();
        assert!(stats.gc_runs_slc > 0);
        assert!(
            stats.gc_evicted_subpages > 0,
            "cold data must leave the cache"
        );
        // Hot slot survives with a live mapping.
        assert!(ftl.core.map.lookup(0).is_some());
    }

    #[test]
    fn mapping_memory_is_near_baseline() {
        let (mut ftl, mut dev) = setup();
        for slot in 0..4u64 {
            ftl.on_write(&w(slot * 65536, 16384), slot, &mut dev);
        }
        let m = ftl.mapping_memory(&dev);
        // Second level is the fixed 2-bit-per-SLC-page cost, independent of
        // mapped data: 2 blocks × 4 pages × 2 bits = 2 bytes.
        assert_eq!(m.second_level_bytes, 2);
        assert_eq!(m.label_bytes, 1);
        // Full-space table: 32 blocks × 8 MLC pages × 8 B per entry.
        assert_eq!(m.page_table_bytes, 32 * 8 * 8);
        // The IPU overhead over a pure page table is well under 1%.
        let overhead = m.total() as f64 / m.page_table_bytes as f64;
        assert!(overhead < 1.01, "IPU overhead {overhead}");
    }

    #[test]
    fn read_your_writes_through_update_chains() {
        let (mut ftl, mut dev) = setup();
        for t in 0..7u64 {
            ftl.on_write(&w(0, 8192), t, &mut dev);
        }
        let r = IoRequest::new(100, OpKind::Read, 0, 8192);
        let batch = ftl.on_read(&r, 100, &mut dev);
        assert!(batch.count(FlashOpKind::HostRead) >= 1);
        assert_eq!(ftl.stats().unmapped_reads, 0);
        assert_eq!(ftl.stats().host_subpages_read, 2);
    }
}
