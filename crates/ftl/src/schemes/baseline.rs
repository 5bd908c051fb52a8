//! Unit tests for the Baseline corner of the scheme grid: whole-page
//! writes, greedy GC evicting to the high-density region.

#[cfg(test)]
mod tests {
    use ipu_flash::{DeviceConfig, FlashDevice, SubpageState};
    use ipu_trace::{IoRequest, OpKind};

    use crate::config::FtlConfig;
    use crate::ops::FlashOpKind;
    use crate::schemes::{FtlScheme, SchemeFtl, SchemeKind};

    fn setup() -> (SchemeFtl, FlashDevice) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let ftl = SchemeFtl::new(SchemeKind::Baseline, &mut dev, FtlConfig::default());
        (ftl, dev)
    }

    fn w(offset: u64, size: u32) -> IoRequest {
        IoRequest::new(0, OpKind::Write, offset, size)
    }

    #[test]
    fn small_write_burns_a_whole_page() {
        let (mut ftl, mut dev) = setup();
        let batch = ftl.on_write(&w(0, 4096), 1, &mut dev);
        assert_eq!(batch.count(FlashOpKind::HostProgram), 1);
        let spa = ftl.core.map.lookup(0).unwrap();
        let page = dev.block(spa.ppa.block_addr()).page(spa.ppa.page);
        // One subpage programmed, three stranded free — but the page can never
        // be programmed again under Baseline (next chunk gets a new page).
        assert_eq!(page.count(SubpageState::Valid), 1);
        assert_eq!(page.program_ops(), 1);

        ftl.on_write(&w(1 << 20, 4096), 2, &mut dev);
        let spa2 = ftl.core.map.lookup((1 << 20) / 4096).unwrap();
        assert_ne!(spa.ppa, spa2.ppa, "Baseline must not pack into used pages");
    }

    #[test]
    fn update_invalidates_previous_version() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 8192), 1, &mut dev);
        let old = ftl.core.map.lookup(0).unwrap();
        ftl.on_write(&w(0, 8192), 2, &mut dev);
        let new = ftl.core.map.lookup(0).unwrap();
        assert_ne!(old, new);
        assert_eq!(
            dev.block(old.ppa.block_addr())
                .page(old.ppa.page)
                .subpage(old.subpage),
            SubpageState::Invalid
        );
    }

    #[test]
    fn sustained_writes_trigger_gc_and_eviction_to_mlc() {
        let (mut ftl, mut dev) = setup();
        // 2 SLC blocks × 4 pages; write far more chunks than that. Half the
        // LSNs are rewritten so GC finds invalid pages.
        for round in 0..10u64 {
            for slot in 0..4u64 {
                ftl.on_write(&w(slot * 65536, 4096), round * 10 + slot, &mut dev);
            }
        }
        let stats = ftl.stats();
        assert!(stats.gc_runs_slc > 0, "GC never ran");
        assert!(stats.gc_victim_total_subpages > 0);
        // Everything the host wrote landed in SLC first (the cache absorbed
        // the writes); eviction happened via GC.
        assert!(stats.host_subpages_to_slc > 0);
        assert!(dev.wear().totals().slc_erases > 0);
        // Read-your-writes still holds for every live slot.
        for slot in 0..4u64 {
            assert!(ftl.core.map.lookup(slot * 16).is_some(), "slot {slot} lost");
        }
    }

    #[test]
    fn page_utilization_reflects_fragmentation() {
        let (mut ftl, mut dev) = setup();
        // All 4 KB writes: pages are quarter-used, utilization ~25%.
        for i in 0..40u64 {
            ftl.on_write(&w(i * 65536, 4096), i, &mut dev);
        }
        let stats = ftl.stats();
        assert!(stats.gc_runs_slc > 0);
        let util = stats.gc_page_utilization();
        assert!(
            util < 0.30,
            "4K-only workload must fragment pages, got {util}"
        );
    }

    #[test]
    fn static_wear_leveling_migrates_cold_blocks() {
        // Aggressive thresholds so the tiny workload triggers a migration:
        // check after every erase, and call any 1-cycle gap significant.
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        // A roomier SLC region (8 blocks) so the cold block is not an active
        // and can squat while the churn wears out its neighbours.
        let cfg = FtlConfig {
            slc_ratio: 0.25,
            wear_leveling: crate::wear_leveling::WearLevelingConfig {
                enabled: true,
                check_interval_erases: 1,
                wear_gap_threshold: 1,
            },
            ..FtlConfig::default()
        };
        let mut ftl = SchemeFtl::new(SchemeKind::Baseline, &mut dev, cfg);
        // Slot 0 is written once (cold, squats on its block); other slots
        // churn, racking up erases elsewhere and widening the wear gap.
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        for round in 0..120u64 {
            for slot in 1..5u64 {
                let now = (round * 4 + slot) * 20_000_000; // 20 ms apart
                ftl.on_write(&w(slot * 65536, 4096), now, &mut dev);
            }
        }
        assert!(
            ftl.stats().wear_leveling_migrations > 0,
            "wear gap never triggered a migration"
        );
        // Cold data survives the migrations.
        assert!(ftl.core.map.lookup(0).is_some());
    }

    #[test]
    fn wear_leveling_disabled_never_migrates() {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let cfg = FtlConfig {
            wear_leveling: crate::wear_leveling::WearLevelingConfig {
                enabled: false,
                check_interval_erases: 1,
                wear_gap_threshold: 1,
            },
            ..FtlConfig::default()
        };
        let mut ftl = SchemeFtl::new(SchemeKind::Baseline, &mut dev, cfg);
        for round in 0..40u64 {
            for slot in 0..5u64 {
                let now = (round * 5 + slot) * 20_000_000;
                ftl.on_write(&w(slot * 65536, 4096), now, &mut dev);
            }
        }
        assert_eq!(ftl.stats().wear_leveling_migrations, 0);
    }

    #[test]
    fn mapping_memory_is_page_level_only() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 16384), 1, &mut dev);
        ftl.on_write(&w(65536, 4096), 2, &mut dev);
        let m = ftl.mapping_memory(&dev);
        assert_eq!(m.second_level_bytes, 0);
        assert_eq!(m.label_bytes, 0);
        // Full-space table: 32 blocks × 8 MLC pages × 8 B per entry.
        assert_eq!(m.page_table_bytes, 32 * 8 * 8);
    }
}
