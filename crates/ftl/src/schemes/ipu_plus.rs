//! Unit tests for the IPU+ corner of the scheme grid: IPU's update
//! hierarchy plus packing of new (cold) data.

#[cfg(test)]
mod tests {
    use ipu_flash::{DeviceConfig, FlashDevice};
    use ipu_trace::{IoRequest, OpKind};

    use crate::config::FtlConfig;
    use crate::schemes::{FtlScheme, SchemeFtl, SchemeKind};
    use crate::types::BlockLevel;

    fn setup() -> (SchemeFtl, FlashDevice) {
        let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
        let cfg = FtlConfig {
            slc_ratio: 0.25,
            ..FtlConfig::default()
        };
        let ftl = SchemeFtl::new(SchemeKind::IpuPlus, &mut dev, cfg);
        (ftl, dev)
    }

    fn w(offset: u64, size: u32) -> IoRequest {
        IoRequest::new(0, OpKind::Write, offset, size)
    }

    #[test]
    fn cold_writes_pack_together() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        ftl.on_write(&w(65536, 4096), 2, &mut dev);
        let a = ftl.core.map.lookup(0).unwrap();
        let b = ftl.core.map.lookup(16).unwrap();
        assert_eq!(a.ppa, b.ppa, "cold data from different requests must pack");
        assert_eq!((a.subpage, b.subpage), (0, 1));
    }

    #[test]
    fn updates_stay_intra_page_not_packed() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev); // cold, packs at subpage 0
        ftl.on_write(&w(0, 4096), 2, &mut dev); // update → same page, next slot
        let spa = ftl.core.map.lookup(0).unwrap();
        assert_eq!(spa.subpage, 1);
        assert_eq!(ftl.stats().intra_page_updates, 1);
        // A different cold write now packs *after* the update's slot.
        ftl.on_write(&w(65536, 4096), 3, &mut dev);
        let c = ftl.core.map.lookup(16).unwrap();
        assert_eq!(c.ppa, spa.ppa);
        assert_eq!(c.subpage, 2);
    }

    #[test]
    fn utilization_beats_plain_ipu() {
        // Same cold-heavy churn under IPU and IPU+: the packing variant must
        // burn fewer SLC blocks.
        let run = |plus: bool| {
            let mut dev = FlashDevice::new(DeviceConfig::small_for_tests());
            let cfg = FtlConfig {
                slc_ratio: 0.25,
                ..FtlConfig::default()
            };
            let kind = if plus {
                SchemeKind::IpuPlus
            } else {
                SchemeKind::Ipu
            };
            let mut ftl = SchemeFtl::new(kind, &mut dev, cfg);
            for i in 0..200u64 {
                let now = i * 20_000_000;
                ftl.on_write(
                    &IoRequest::new(now, OpKind::Write, i * 65536, 4096),
                    now,
                    &mut dev,
                );
            }
            (ftl.stats().clone(), dev.wear().totals())
        };
        let (_, ipu_wear) = run(false);
        let (plus_stats, plus_wear) = run(true);
        assert!(
            plus_wear.slc_erases < ipu_wear.slc_erases,
            "IPU+ must erase less under cold churn: {} vs {}",
            plus_wear.slc_erases,
            ipu_wear.slc_erases
        );
        assert_eq!(
            plus_stats.intra_page_updates, 0,
            "pure cold stream has no updates"
        );
    }

    #[test]
    fn hot_chain_still_climbs_levels() {
        let (mut ftl, mut dev) = setup();
        for t in 0..12u64 {
            ftl.on_write(&w(0, 4096), t, &mut dev);
        }
        let spa = ftl.core.map.lookup(0).unwrap();
        let level = ftl
            .core
            .meta
            .level(ftl.core.block_idx(spa.ppa.block_addr()));
        assert_eq!(level, Some(BlockLevel::Hot));
    }

    #[test]
    fn mapping_memory_includes_both_structures() {
        let (mut ftl, mut dev) = setup();
        ftl.on_write(&w(0, 4096), 1, &mut dev);
        ftl.on_write(&w(65536, 4096), 2, &mut dev); // packed → scattered chunk
        let m = ftl.mapping_memory(&dev);
        assert!(m.second_level_bytes > 0);
        assert!(m.label_bytes > 0);
    }
}
