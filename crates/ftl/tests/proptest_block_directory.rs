//! Order-equivalence property tests for the block-indexed FTL directories.
//!
//! `CacheMeta` and `OwnerTable` keep per-block state in arrays indexed by
//! dense block index. Callers depend on the iteration order of the ordered
//! map `CacheMeta` used to be (emergency reclaim takes the first eight
//! candidates, scrub and wear leveling walk in index order, power-loss replay
//! rebuilds in index order), so random open/close/restore sequences over the
//! full paper-scale index range are checked against a `BTreeMap` model after
//! every step, and owner-table set/clear/clear_block sequences against a
//! `HashMap` model.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

use ipu_flash::{BlockAddr, FlashGeometry, Ppa, Spa};
use ipu_ftl::{BlockLevel, CacheMeta, OwnerTable};
use proptest::prelude::*;

/// Largest dense block index at paper scale (Table 2: 65,536 blocks).
const MAX_BLOCK: u64 = 65_535;

#[derive(Debug, Clone)]
enum MetaOp {
    Open {
        block: usize,
        level: BlockLevel,
    },
    Close {
        block: usize,
    },
    Restore {
        block: usize,
        level: BlockLevel,
        seq: u64,
    },
}

#[derive(Debug, Clone)]
enum OwnerOp {
    Set {
        block: usize,
        page: u32,
        sub: u8,
        lsn: u64,
    },
    Clear {
        block: usize,
        page: u32,
        sub: u8,
    },
    ClearBlock {
        block: usize,
    },
}

fn level() -> impl Strategy<Value = BlockLevel> {
    prop_oneof![
        Just(BlockLevel::HighDensity),
        Just(BlockLevel::Work),
        Just(BlockLevel::Monitor),
        Just(BlockLevel::Hot),
    ]
}

/// A pool of block indices (always including both ends of the range) that
/// ops pick from by position, so the same blocks are opened, closed and
/// reopened many times across distant bitset words.
fn block_pool() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..=MAX_BLOCK, 1..24).prop_map(|mut v| {
        v.extend([0, MAX_BLOCK]);
        v
    })
}

fn meta_ops() -> impl Strategy<Value = Vec<MetaOp>> {
    let op = prop_oneof![
        3 => (any::<usize>(), level()).prop_map(|(block, level)| MetaOp::Open { block, level }),
        2 => any::<usize>().prop_map(|block| MetaOp::Close { block }),
        1 => (any::<usize>(), level(), 0u64..1_000)
            .prop_map(|(block, level, seq)| MetaOp::Restore { block, level, seq }),
    ];
    proptest::collection::vec(op, 1..160)
}

fn owner_ops() -> impl Strategy<Value = Vec<OwnerOp>> {
    let op = prop_oneof![
        4 => (any::<usize>(), 0u32..8, 0u8..4, 0u64..1 << 40)
            .prop_map(|(block, page, sub, lsn)| OwnerOp::Set { block, page, sub, lsn }),
        2 => (any::<usize>(), 0u32..8, 0u8..4)
            .prop_map(|(block, page, sub)| OwnerOp::Clear { block, page, sub }),
        1 => any::<usize>().prop_map(|block| OwnerOp::ClearBlock { block }),
    ];
    proptest::collection::vec(op, 1..200)
}

fn addr(idx: u64) -> BlockAddr {
    BlockAddr::new(0, 0, 0, 0, idx as u32)
}

fn spa(idx: u64, page: u32, sub: u8) -> Spa {
    Spa::new(Ppa::new(0, 0, 0, 0, idx as u32, page), sub)
}

/// Every view of `meta` equals the model's, in ascending block order.
fn check_meta(
    meta: &CacheMeta,
    model: &BTreeMap<u64, (BlockLevel, u64)>,
    probe: u64,
) -> Result<(), TestCaseError> {
    let view = |it: &mut dyn Iterator<Item = (u64, &ipu_ftl::BlockMeta)>| {
        it.map(|(i, m)| (i, m.level, m.opened_seq()))
            .collect::<Vec<_>>()
    };
    let expect = |slc: Option<bool>| {
        model
            .iter()
            .filter(|(_, (l, _))| slc.is_none_or(|s| l.is_slc() == s))
            .map(|(&i, &(l, seq))| (i, l, seq))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(view(&mut meta.iter()), expect(None));
    prop_assert_eq!(view(&mut meta.slc_blocks()), expect(Some(true)));
    prop_assert_eq!(view(&mut meta.mlc_blocks()), expect(Some(false)));
    prop_assert_eq!(meta.len(), model.len());
    prop_assert_eq!(meta.is_empty(), model.is_empty());
    prop_assert_eq!(
        meta.get(probe).map(|m| (m.level, m.opened_seq(), m.addr)),
        model.get(&probe).map(|&(l, seq)| (l, seq, addr(probe)))
    );
    prop_assert_eq!(meta.level(probe), model.get(&probe).map(|&(l, _)| l));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CacheMeta` behaves like the `BTreeMap<u64, BlockMeta>` it replaced:
    /// same members, same ascending iteration order overall and per region,
    /// same lookups, and `open_block` continues the open sequence past
    /// restores exactly as before.
    #[test]
    fn cache_meta_matches_ordered_map_model(pool in block_pool(), ops in meta_ops()) {
        let mut meta = CacheMeta::new();
        let mut model: BTreeMap<u64, (BlockLevel, u64)> = BTreeMap::new();
        let mut next_seq = 0u64;
        check_meta(&meta, &model, MAX_BLOCK)?;
        for op in ops {
            let probe = match op {
                MetaOp::Open { block, level } => {
                    let idx = pool[block % pool.len()];
                    // Opening an in-use block is a caller bug (debug-asserted).
                    if let Entry::Vacant(e) = model.entry(idx) {
                        let pages = if level.is_slc() { 4 } else { 8 };
                        meta.open_block(idx, addr(idx), level, pages, 4);
                        e.insert((level, next_seq));
                        next_seq += 1;
                    }
                    idx
                }
                MetaOp::Close { block } => {
                    let idx = pool[block % pool.len()];
                    let closed = meta.close_block(idx).map(|m| (m.level, m.opened_seq()));
                    prop_assert_eq!(closed, model.remove(&idx));
                    idx
                }
                MetaOp::Restore { block, level, seq } => {
                    let idx = pool[block % pool.len()];
                    if let Entry::Vacant(e) = model.entry(idx) {
                        let m = meta.restore_block(idx, addr(idx), level, seq, 4, 4);
                        prop_assert_eq!((m.level, m.opened_seq()), (level, seq));
                        e.insert((level, seq));
                    }
                    idx
                }
            };
            check_meta(&meta, &model, probe)?;
        }
    }

    /// `OwnerTable` behaves like a `HashMap<(block, spa), lsn>` under
    /// set/clear/clear_block at any block index, and `allocated_blocks`
    /// counts the blocks set since their last `clear_block`.
    #[test]
    fn owner_table_matches_hash_map_model(pool in block_pool(), ops in owner_ops()) {
        let g = FlashGeometry::small_for_tests();
        let mut owners = OwnerTable::new(&g);
        let mut model: HashMap<(u64, u32, u8), u64> = HashMap::new();
        let mut allocated: HashSet<u64> = HashSet::new();
        for op in ops {
            let (idx, page) = match op {
                OwnerOp::Set { block, page, sub, lsn } => {
                    let idx = pool[block % pool.len()];
                    owners.set(idx, spa(idx, page, sub), lsn);
                    model.insert((idx, page, sub), lsn);
                    allocated.insert(idx);
                    (idx, page)
                }
                OwnerOp::Clear { block, page, sub } => {
                    let idx = pool[block % pool.len()];
                    owners.clear(idx, spa(idx, page, sub));
                    model.remove(&(idx, page, sub));
                    (idx, page)
                }
                OwnerOp::ClearBlock { block } => {
                    let idx = pool[block % pool.len()];
                    owners.clear_block(idx);
                    model.retain(|&(i, _, _), _| i != idx);
                    allocated.remove(&idx);
                    (idx, 0)
                }
            };
            let expect: Vec<Option<u64>> =
                (0..4u8).map(|s| model.get(&(idx, page, s)).copied()).collect();
            prop_assert_eq!(owners.page_owners(idx, page), expect);
            prop_assert_eq!(owners.allocated_blocks(), allocated.len());
        }
        for (&(idx, page, sub), &lsn) in &model {
            prop_assert_eq!(owners.owner(idx, spa(idx, page, sub)), Some(lsn));
        }
        for &idx in &pool {
            for page in 0..8 {
                for sub in 0..4u8 {
                    prop_assert_eq!(
                        owners.owner(idx, spa(idx, page, sub)),
                        model.get(&(idx, page, sub)).copied()
                    );
                }
            }
        }
    }
}
