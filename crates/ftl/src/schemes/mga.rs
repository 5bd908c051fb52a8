//! Unit tests for the MGA corner of the scheme grid: small writes pack into
//! open pages, greedy GC evicting to the high-density region.

#[cfg(test)]
mod tests {
    use ipu_flash::{DeviceConfig, FlashDevice, SubpageState};
    use ipu_trace::{IoRequest, OpKind};

    use crate::config::FtlConfig;
    use crate::memory::MappingMemory;
    use crate::schemes::{FtlScheme, SchemeFtl, SchemeKind};

    fn setup() -> (SchemeFtl, FlashDevice) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let ftl = SchemeFtl::new(SchemeKind::Mga, &mut dev, FtlConfig::default());
        (ftl, dev)
    }

    fn w(offset: u64, size: u32) -> IoRequest {
        IoRequest::new(0, OpKind::Write, offset, size)
    }

    #[test]
    fn small_writes_pack_into_one_page() {
        let (mut ftl, mut dev) = setup();
        // Three 4 KB writes from *different* addresses pack into one page.
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        ftl.on_write(&w(65536, 4096), 2, &mut dev);
        ftl.on_write(&w(2 * 65536, 4096), 3, &mut dev);
        let a = ftl.core.map.lookup(0).unwrap();
        let b = ftl.core.map.lookup(16).unwrap();
        let c = ftl.core.map.lookup(32).unwrap();
        assert_eq!(a.ppa, b.ppa, "packing failed");
        assert_eq!(a.ppa, c.ppa);
        assert_eq!((a.subpage, b.subpage, c.subpage), (0, 1, 2));
        // Packing partial programs disturbed the earlier data.
        let page = dev.block(a.ppa.block_addr()).page(a.ppa.page);
        assert_eq!(page.program_ops(), 3);
        assert_eq!(page.in_page_disturbs(0), 2);
        assert_eq!(page.in_page_disturbs(1), 1);
    }

    #[test]
    fn nop_budget_caps_packing_at_four_programs() {
        let (mut ftl, mut dev) = setup();
        for i in 0..5u64 {
            ftl.on_write(&w(i * 65536, 4096), i, &mut dev);
        }
        let first = ftl.core.map.lookup(0).unwrap();
        let fifth = ftl.core.map.lookup(4 * 16).unwrap();
        // Four programs fill the page's budget; the fifth write opens a new page.
        assert_ne!(first.ppa, fifth.ppa);
        let page = dev.block(first.ppa.block_addr()).page(first.ppa.page);
        assert_eq!(page.program_ops(), 4);
    }

    #[test]
    fn full_page_writes_bypass_packing() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        assert_eq!(ftl.open_page_count(), 1);
        ftl.on_write(&w(65536, 16384), 2, &mut dev);
        let big = ftl.core.map.lookup(16).unwrap();
        assert_eq!(big.subpage, 0);
        let page = dev.block(big.ppa.block_addr()).page(big.ppa.page);
        assert_eq!(page.program_ops(), 1);
        assert_eq!(page.count(SubpageState::Valid), 4);
    }

    #[test]
    fn two_subpage_chunks_pack_contiguously() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 8192), 1, &mut dev);
        ftl.on_write(&w(65536, 8192), 2, &mut dev);
        let a = ftl.core.map.lookup(0).unwrap();
        let b = ftl.core.map.lookup(16).unwrap();
        assert_eq!(a.ppa, b.ppa);
        assert_eq!((a.subpage, b.subpage), (0, 2));
    }

    #[test]
    fn gc_under_pressure_keeps_mapping_consistent() {
        let (mut ftl, mut dev) = setup();
        for round in 0..12u64 {
            for slot in 0..6u64 {
                ftl.on_write(&w(slot * 65536, 4096), round * 6 + slot, &mut dev);
            }
        }
        assert!(ftl.stats().gc_runs_slc > 0);
        for slot in 0..6u64 {
            let lsn = slot * 16;
            let spa = ftl.core.map.lookup(lsn).expect("mapping lost");
            let bi = ftl.core.block_idx(spa.ppa.block_addr());
            assert_eq!(ftl.core.owners.owner(bi, spa), Some(lsn), "owner drift");
        }
        // Packing keeps GC'd blocks nearly full (Fig. 9: MGA ≈ 99.9%).
        let util = ftl.stats().gc_page_utilization();
        assert!(util > 0.9, "MGA utilization {util} should be near 1");
    }

    #[test]
    fn mapping_memory_includes_second_level_for_scattered_chunks() {
        let (mut ftl, mut dev) = setup();
        // Packed small writes land at arbitrary offsets → scattered chunks.
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        ftl.on_write(&w(65536, 4096), 2, &mut dev);
        let m = ftl.mapping_memory(&dev);
        assert!(m.second_level_bytes > 0, "MGA must pay for a second level");
        let base = MappingMemory::baseline(ftl.core.logical_pages());
        assert!(m.total() > base.total());
    }
}
