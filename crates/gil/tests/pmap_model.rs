//! Model-based property test: `PMap` against `std::collections::BTreeMap`.
//!
//! Each case runs a random interleaving of inserts, removes, lookups,
//! in-place updates, range scans and full iterations on a `PMap` and on a
//! `BTreeMap` model, comparing every answer and the iteration order. It
//! also takes snapshots (clones) between operations and keeps writing to
//! clones of them; at the end every snapshot must still equal the model
//! it was taken with.

use gillian_gil::PMap;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Bump(u16),
    Range(u16, u16),
    Iter,
    Snapshot,
    /// Write to a clone of snapshot `i % count`.
    Fork(usize, u16),
}

fn arb_op(keys: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..keys, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => (0..keys).prop_map(Op::Remove),
        1 => (0..keys).prop_map(Op::Get),
        1 => (0..keys).prop_map(Op::Bump),
        1 => (0..keys, 0u16..64).prop_map(|(k, w)| Op::Range(k, w)),
        1 => Just(Op::Iter),
        1 => Just(Op::Snapshot),
        1 => (any::<usize>(), 0..keys).prop_map(|(i, k)| Op::Fork(i, k)),
    ]
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut map: PMap<u16, u32> = PMap::new();
    let mut model: BTreeMap<u16, u32> = BTreeMap::new();
    let mut snapshots: Vec<(PMap<u16, u32>, BTreeMap<u16, u32>)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => prop_assert_eq!(map.insert(*k, *v), model.insert(*k, *v)),
            Op::Remove(k) => prop_assert_eq!(map.remove(k), model.remove(k)),
            Op::Get(k) => {
                prop_assert_eq!(map.get(k), model.get(k));
                prop_assert_eq!(map.contains_key(k), model.contains_key(k));
            }
            Op::Bump(k) => {
                if let Some(v) = map.get_mut(k) {
                    *v = v.wrapping_add(1);
                }
                if let Some(v) = model.get_mut(k) {
                    *v = v.wrapping_add(1);
                }
            }
            Op::Range(lo, width) => {
                let hi = lo.saturating_add(*width);
                prop_assert!(map.range(*lo..hi).eq(model.range(*lo..hi)));
                prop_assert!(map.range(*lo..=hi).eq(model.range(*lo..=hi)));
                prop_assert!(map.range(*lo..).take(3).eq(model.range(*lo..).take(3)));
            }
            Op::Iter => {
                prop_assert!(map.iter().eq(model.iter()));
                prop_assert!(map.keys().eq(model.keys()));
            }
            Op::Snapshot => snapshots.push((map.clone(), model.clone())),
            Op::Fork(i, k) => {
                if !snapshots.is_empty() {
                    let (snap, snap_model) = &snapshots[i % snapshots.len()];
                    let mut child = snap.clone();
                    let mut child_model = snap_model.clone();
                    child.insert(*k, u32::MAX);
                    child_model.insert(*k, u32::MAX);
                    child.remove(&(k / 2));
                    child_model.remove(&(k / 2));
                    prop_assert!(child.iter().eq(child_model.iter()));
                }
            }
        }
        prop_assert_eq!(map.len(), model.len());
    }
    prop_assert!(map.iter().eq(model.iter()));
    for (snap, snap_model) in &snapshots {
        prop_assert_eq!(snap.len(), snap_model.len());
        prop_assert!(snap.iter().eq(snap_model.iter()), "snapshot disturbed");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A small key space: removes, overwrites and merges are frequent.
    #[test]
    fn pmap_matches_btreemap_dense(ops in proptest::collection::vec(arb_op(48), 0..600)) {
        run(&ops)?;
    }

    /// A larger key space: trees several levels deep.
    #[test]
    fn pmap_matches_btreemap_deep(ops in proptest::collection::vec(arb_op(2000), 0..1500)) {
        run(&ops)?;
    }
}
