//! Property tests for the O(1) ISR upper bound used to prune GC victim
//! candidates.
//!
//! Random block histories (programs at arbitrary timestamps, follow-up
//! programs that mark a page as intra-page updated, invalidates) drive a
//! `FlashDevice` block and its `BlockMeta` in lockstep. After every step the
//! bound must be at least the oracle ISR score and the incremental one, and
//! it must match the score (up to its pad) whenever every J subpage shares
//! one write time. `now` is never before a write time, as in the FTL, whose
//! writes are stamped with the request clock.

use ipu_flash::{BlockAddr, CellMode, DeviceConfig, FlashDevice, FlashGeometry, Spa, SubpageState};
use ipu_ftl::{isr_score, isr_score_fast, isr_upper_bound, BlockLevel, CacheMeta};
use proptest::prelude::*;

const PAGES: u32 = 16;
const SPP: u8 = 4;

#[derive(Debug, Clone)]
enum Step {
    /// Program up to `count` subpages at the page's first free offset; a
    /// second or later program on a page is an intra-page update.
    Program {
        page: u32,
        count: u8,
        t: u64,
    },
    Invalidate {
        page: u32,
        sub: u8,
    },
}

fn history() -> impl Strategy<Value = (Vec<Step>, bool, u64)> {
    let step = prop_oneof![
        3 => (0..PAGES, 1..=SPP, 0u64..1 << 40).prop_map(|(page, count, t)| Step::Program {
            page,
            count,
            t
        }),
        2 => (0..PAGES, 0..SPP).prop_map(|(page, sub)| Step::Invalidate { page, sub }),
    ];
    // (steps, stamp every program with one shared time, now − latest write)
    (
        proptest::collection::vec(step, 1..120),
        any::<bool>(),
        prop_oneof![Just(0u64), 0u64..1 << 40],
    )
}

fn device() -> FlashDevice {
    let base = FlashGeometry::small_for_tests();
    FlashDevice::new(DeviceConfig {
        geometry: FlashGeometry {
            pages_per_block_slc: PAGES,
            pages_per_block_mlc: 2 * PAGES,
            ..base
        },
        ..DeviceConfig::small_for_tests()
    })
}

/// Write times of the J population (valid subpages of never-updated pages).
fn j_times(dev: &FlashDevice, addr: BlockAddr, meta: &ipu_ftl::BlockMeta) -> Vec<u64> {
    let block = dev.block(addr);
    let mut out = Vec::new();
    for p in 0..PAGES {
        for s in 0..SPP {
            if !meta.page_updated(p) && block.page(p).subpage(s) == SubpageState::Valid {
                out.push(meta.written_at(p, s));
            }
        }
    }
    out
}

fn check_history(steps: &[Step], shared: bool, slack: u64) -> Result<(), TestCaseError> {
    let mut dev = device();
    let addr = BlockAddr::new(0, 0, 0, 0, 0);
    dev.set_block_mode(addr, CellMode::Slc);
    let mut cache = CacheMeta::new();
    cache.open_block(0, addr, BlockLevel::Work, PAGES, SPP as u32);

    let stamp = |t: u64| if shared { 1 << 39 } else { t };
    let latest = steps
        .iter()
        .filter_map(|s| match s {
            Step::Program { t, .. } => Some(stamp(*t)),
            Step::Invalidate { .. } => None,
        })
        .max()
        .unwrap_or(0);
    let now = latest + slack;

    let mut filled = [0u8; PAGES as usize];
    for step in steps {
        match *step {
            Step::Program { page, count, t } => {
                let first = filled[page as usize];
                let count = count.min(SPP - first);
                if count == 0 {
                    continue;
                }
                dev.program(Spa::new(addr.page(page), first), count)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                let meta = cache.get_mut(0).unwrap();
                meta.note_program(page, first, count, stamp(t), first > 0);
                filled[page as usize] += count;
            }
            Step::Invalidate { page, sub } => {
                let spa = Spa::new(addr.page(page), sub);
                if dev.block(addr).page(page).subpage(sub) == SubpageState::Valid {
                    dev.invalidate(spa)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    cache.get_mut(0).unwrap().note_invalidate(page, sub);
                }
            }
        }

        let meta = cache.get(0).unwrap();
        prop_assert!(meta.aggregates_consistent());
        let block = dev.block(addr);
        let ub = isr_upper_bound(block, meta, now);
        let oracle = isr_score(block, meta, now);
        let fast = isr_score_fast(block, meta, now);
        prop_assert!(ub >= oracle, "bound {} < oracle score {}", ub, oracle);
        prop_assert!(ub >= fast, "bound {} < incremental score {}", ub, fast);

        let times = j_times(&dev, addr, meta);
        if times.windows(2).all(|w| w[0] == w[1]) {
            prop_assert!(
                ub - oracle <= 1e-11,
                "bound {} not tight on one shared J write time (score {})",
                ub,
                oracle
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn isr_upper_bound_dominates_the_score((steps, shared, slack) in history()) {
        check_history(&steps, shared, slack)?;
    }
}
