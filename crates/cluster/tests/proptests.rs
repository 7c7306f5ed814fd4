// Gated: requires the `proptest` dev-dependency, unavailable in
// network-restricted builds. Enable with `--features proptests` after
// restoring the dependency.
#![cfg(feature = "proptests")]

//! Property tests: file-store byte accounting and capacity enforcement
//! under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vmplants_cluster::files::{FileKind, FileStore};

#[derive(Clone, Debug)]
enum Op {
    Put { slot: u8, bytes: u64 },
    Link { slot: u8, target: u8 },
    Remove { slot: u8 },
    RemoveTreePrefix,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u8..12, 0u64..10_000).prop_map(|(slot, bytes)| Op::Put { slot, bytes }),
            2 => (0u8..12, 0u8..12).prop_map(|(slot, target)| Op::Link { slot, target }),
            2 => (0u8..12).prop_map(|slot| Op::Remove { slot }),
            1 => Just(Op::RemoveTreePrefix),
        ],
        0..64,
    )
}

fn path(slot: u8) -> String {
    if slot < 6 {
        format!("/a/f{slot}")
    } else {
        format!("/b/f{slot}")
    }
}

proptest! {
    /// used_bytes always equals the sum of regular-file sizes; symlinks
    /// cost nothing; capacity is never exceeded.
    #[test]
    fn byte_accounting_is_exact(ops in arb_ops(), capacity in 1_000u64..100_000) {
        let store = FileStore::with_capacity("s", capacity);
        // Shadow model: path -> (bytes, is_link).
        let mut model: BTreeMap<String, (u64, bool)> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put { slot, bytes } => {
                    let p = path(slot);
                    match store.put(&p, bytes, FileKind::Generic) {
                        Ok(()) => {
                            model.insert(p, (bytes, false));
                        }
                        Err(_) => {
                            // Capacity rejection must be honest: accepting
                            // would have exceeded it.
                            let used: u64 = model
                                .values()
                                .filter(|(_, link)| !link)
                                .map(|(b, _)| b)
                                .sum();
                            let existing = model
                                .get(&p)
                                .filter(|(_, link)| !link)
                                .map(|(b, _)| *b)
                                .unwrap_or(0);
                            prop_assert!(used - existing + bytes > capacity);
                        }
                    }
                }
                Op::Link { slot, target } => {
                    let p = path(slot);
                    store.link(&p, path(target));
                    model.insert(p, (0, true));
                }
                Op::Remove { slot } => {
                    let p = path(slot);
                    let existed = store.remove(&p).is_ok();
                    prop_assert_eq!(existed, model.remove(&p).is_some());
                }
                Op::RemoveTreePrefix => {
                    let removed = store.remove_tree("/a/");
                    let expected: Vec<String> = model
                        .keys()
                        .filter(|k| k.starts_with("/a/"))
                        .cloned()
                        .collect();
                    prop_assert_eq!(removed, expected.len());
                    for k in expected {
                        model.remove(&k);
                    }
                }
            }
            let expected_bytes: u64 = model
                .values()
                .filter(|(_, link)| !link)
                .map(|(b, _)| b)
                .sum();
            prop_assert_eq!(store.used_bytes(), expected_bytes);
            prop_assert_eq!(store.file_count(), model.len());
            prop_assert!(store.used_bytes() <= capacity);
            prop_assert_eq!(store.free_bytes(), Some(capacity - expected_bytes));
        }
    }

    /// resolved_size follows link chains to the real file, errors on
    /// dangling links, and never panics (loops report LinkLoop).
    #[test]
    fn link_resolution_is_total(
        chain_len in 1usize..8,
        bytes in 1u64..1_000_000,
        make_loop in any::<bool>(),
    ) {
        let store = FileStore::new("s");
        if make_loop {
            for i in 0..chain_len {
                store.link(format!("/l{i}"), format!("/l{}", (i + 1) % chain_len));
            }
            prop_assert!(store.resolved_size("/l0").is_err());
        } else {
            store.put("/real", bytes, FileKind::MemoryState).unwrap();
            let mut target = "/real".to_owned();
            for i in 0..chain_len {
                let p = format!("/l{i}");
                store.link(&p, target.as_str());
                target = p;
            }
            prop_assert_eq!(store.resolved_size(&target).unwrap(), bytes);
            prop_assert_eq!(
                store.resolved_kind(&target).unwrap(),
                FileKind::MemoryState
            );
        }
    }
}
