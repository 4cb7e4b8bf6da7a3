//! Model-based property tests for the wide core and directory sets.
//!
//! `CoreSet`/`DirSet` are `WideMask` wrappers: a set whose members share
//! one aligned 64-id window is stored inline as (window, word), and a set
//! spanning two or more windows spills into words shared between clones.
//! Every operation is checked here against the obvious `BTreeSet<u16>`
//! reference model over three id universes:
//! - `0..160`: three windows, so inserts and removals cross between
//!   inline and spilled in both directions, and removals exercise the
//!   normalization rule (no trailing zero spill words);
//! - `0..1024`: sixteen windows, the widest machine the sweeps run;
//! - `900..1000`: windows 14 and 15 only, so sets sit inline far from
//!   window 0 and spills carry fourteen leading zero words.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use sb_mem::{CoreId, CoreSet, DirId, DirSet};

/// Id universes, as `(first id, id count)`; drawn ids are folded into
/// each in turn.
const UNIVERSES: [(u16, u16); 3] = [(0, 160), (0, 1024), (900, 100)];

/// Every universe's probes for `next_after` and `contains`: its window
/// edges and a few ids inside.
fn probes((first, count): (u16, u16)) -> Vec<u16> {
    let last = first + count - 1;
    let mut p: Vec<u16> = (first..=last)
        .filter(|id| matches!(id % 64, 0 | 1 | 62 | 63))
        .collect();
    p.extend([first, first + count / 2, last]);
    p
}

/// The op stream with its ids folded into `universe`.
fn fold(ops: &[(bool, u16)], (first, count): (u16, u16)) -> Vec<(bool, u16)> {
    ops.iter()
        .map(|&(insert, id)| (insert, first + id % count))
        .collect()
}

/// Applies the op stream to both the set under test and the model.
fn build(ops: &[(bool, u16)]) -> (CoreSet, BTreeSet<u16>) {
    let mut set = CoreSet::empty();
    let mut model = BTreeSet::new();
    for &(insert, id) in ops {
        if insert {
            set.insert(CoreId(id));
            model.insert(id);
        } else {
            set.remove(CoreId(id));
            model.remove(&id);
        }
    }
    (set, model)
}

fn dirset(model: &BTreeSet<u16>) -> DirSet {
    model.iter().map(|&i| DirId(i)).collect()
}

fn members(set: &CoreSet) -> Vec<u16> {
    set.iter().map(|c| c.0).collect()
}

fn hash_of(set: &CoreSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// Asserts `set` holds exactly `model`: length, membership of every id
/// in the universe, and ascending iteration.
fn assert_matches(set: &CoreSet, model: &BTreeSet<u16>, (first, count): (u16, u16)) {
    assert_eq!(set.len() as usize, model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    for id in first..first + count {
        assert_eq!(
            set.contains(CoreId(id)),
            model.contains(&id),
            "contains({id}) diverged"
        );
    }
    assert_eq!(members(set), model.iter().copied().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// insert/remove/contains/len/iter agree with the reference model.
    #[test]
    fn mutation_matches_model(
        ops in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..120),
    ) {
        for universe in UNIVERSES {
            let (set, model) = build(&fold(&ops, universe));
            assert_matches(&set, &model, universe);
        }
    }

    /// `union` / `union_with` match the model's union.
    #[test]
    fn union_matches_model(
        a in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80),
        b in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80),
    ) {
        for universe in UNIVERSES {
            let (sa, ma) = build(&fold(&a, universe));
            let (sb, mb) = build(&fold(&b, universe));
            let want: Vec<u16> = ma.union(&mb).copied().collect();
            prop_assert_eq!(&members(&sa.union(&sb)), &want);
            let mut acc = sa.clone();
            acc.union_with(&sb);
            prop_assert_eq!(&members(&acc), &want);
            // Union is symmetric.
            prop_assert_eq!(sb.union(&sa), sa.union(&sb));
        }
    }

    /// `without` removes exactly one member.
    #[test]
    fn without_matches_model(
        ops in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80),
        victim in any::<u16>(),
    ) {
        for universe in UNIVERSES {
            let (set, mut model) = build(&fold(&ops, universe));
            let victim = fold(&[(true, victim)], universe)[0].1;
            model.remove(&victim);
            let want: Vec<u16> = model.iter().copied().collect();
            prop_assert_eq!(members(&set.without(CoreId(victim))), want);
        }
    }

    /// `DirSet` intersect/difference agree with the model; `lowest` and
    /// `next_after` walk the model in order.
    #[test]
    fn dirset_set_algebra_matches_model(
        a in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80),
        b in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80),
    ) {
        for universe in UNIVERSES {
            let (_, ma) = build(&fold(&a, universe));
            let (_, mb) = build(&fold(&b, universe));
            let (da, db) = (dirset(&ma), dirset(&mb));
            let inter: Vec<u16> = da.intersect(&db).iter().map(|d| d.0).collect();
            let want_inter: Vec<u16> = ma.intersection(&mb).copied().collect();
            prop_assert_eq!(&inter, &want_inter);
            let want_set = dirset(&ma.intersection(&mb).copied().collect());
            prop_assert_eq!(da.intersect(&db), want_set);
            let diff: Vec<u16> = da.difference(&db).iter().map(|d| d.0).collect();
            let want_diff: Vec<u16> = ma.difference(&mb).copied().collect();
            prop_assert_eq!(&diff, &want_diff);
            let want_set = dirset(&ma.difference(&mb).copied().collect());
            prop_assert_eq!(da.difference(&db), want_set);
            prop_assert_eq!(da.lowest(), ma.iter().next().map(|&i| DirId(i)));
            for probe in probes(universe) {
                let want_next = ma.range(probe + 1..).next().map(|&i| DirId(i));
                prop_assert_eq!(
                    da.next_after(DirId(probe)),
                    want_next,
                    "next_after({probe})"
                );
            }
        }
    }

    /// Sets are canonical: any op sequence reaching the same membership
    /// is `==` to the directly-built set and hashes identically (the
    /// no-trailing-zero-spill-words normalization).
    #[test]
    fn representation_is_canonical(
        ops in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..120),
    ) {
        for universe in UNIVERSES {
            let (set, model) = build(&fold(&ops, universe));
            let direct: CoreSet = model.iter().map(|&i| CoreId(i)).collect();
            prop_assert_eq!(&set, &direct);
            let mut h = HashSet::new();
            h.insert(set);
            prop_assert!(!h.insert(direct), "equal sets must collide in a HashSet");
        }
    }

    /// Mutating a clone (`insert`, `remove`, `union_with`) never changes
    /// the original, whose spill the clone shares until it writes, and
    /// the clone ends up holding exactly its own model.
    #[test]
    fn mutating_a_clone_leaves_the_original(
        base in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80),
        edits in proptest::collection::vec((0u8..3, any::<u16>()), 1..40),
        other in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..40),
    ) {
        for universe in UNIVERSES {
            let (original, model) = build(&fold(&base, universe));
            let (other, other_model) = build(&fold(&other, universe));
            let want: Vec<u16> = model.iter().copied().collect();
            let mut copy = original.clone();
            let mut copy_model = model.clone();
            for &(op, id) in &edits {
                let id = fold(&[(true, id)], universe)[0].1;
                match op {
                    0 => {
                        copy.insert(CoreId(id));
                        copy_model.insert(id);
                    }
                    1 => {
                        copy.remove(CoreId(id));
                        copy_model.remove(&id);
                    }
                    _ => {
                        copy.union_with(&other);
                        copy_model.extend(&other_model);
                    }
                }
                prop_assert_eq!(&members(&original), &want);
            }
            assert_matches(&original, &model, universe);
            assert_matches(&copy, &copy_model, universe);
        }
    }

    /// Equal contents built in different orders — ascending inserts,
    /// descending inserts, a union of singletons in a scrambled order,
    /// and an op stream with removals — are `==`, hash equal and print
    /// the same `Debug` text (explorers key visited states by it).
    #[test]
    fn build_order_does_not_show(
        ops in proptest::collection::vec((any::<bool>(), any::<u16>()), 0..120),
        scramble in any::<u64>(),
    ) {
        for universe in UNIVERSES {
            let (streamed, model) = build(&fold(&ops, universe));
            let ascending: CoreSet = model.iter().map(|&i| CoreId(i)).collect();
            let descending: CoreSet = model.iter().rev().map(|&i| CoreId(i)).collect();
            let mut order: Vec<u16> = model.iter().copied().collect();
            order.sort_by_key(|&id| {
                (u64::from(id) ^ scramble).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            let mut unioned = CoreSet::empty();
            for id in order {
                unioned.union_with(&CoreSet::single(CoreId(id)));
            }
            let want_debug = format!("{ascending:?}");
            let built = [
                ("descending", &descending),
                ("unioned", &unioned),
                ("streamed", &streamed),
            ];
            for (how, set) in built {
                prop_assert_eq!(set, &ascending, "{how} != ascending");
                prop_assert_eq!(hash_of(set), hash_of(&ascending), "{how} hashes differently");
                prop_assert_eq!(&format!("{set:?}"), &want_debug, "{how} prints differently");
            }
        }
    }
}
