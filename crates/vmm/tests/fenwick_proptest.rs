//! Property tests: the Fenwick-backed [`FlagTree`] matches a naive
//! `Vec<bool>` model under arbitrary operation sequences. The residency
//! indices in `space` lean on `count_range` prefix sums for every
//! access split and order-statistics query, so the tree being exactly a
//! bit vector with fast prefix sums is a correctness keystone.
//!
//! A second property runs the word-packed tree side by side with the
//! per-page tree it replaced, at lengths around the 64-page word edges.

use proptest::prelude::*;

use hemem_vmm::FlagTree;

mod old_index;
use old_index::{edge_len, OldFlagTree};

#[derive(Debug, Clone)]
enum Op {
    /// Set or clear a flag (idempotent sets included on purpose).
    Set { idx: usize, value: bool },
    /// Compare a range count against the model.
    CountRange { lo: usize, hi: usize },
    /// Compare the total count against the model.
    Count,
    /// Compare a point read against the model.
    Get { idx: usize },
    /// Compare a first-set scan against the model.
    FirstSet { lo: usize },
}

fn op_strategy(len: usize) -> impl Strategy<Value = Op> {
    // Set arms repeated to bias toward mutations (the vendored
    // `prop_oneof!` picks arms uniformly, without weights).
    prop_oneof![
        (0..len, any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (0..len, any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (0..len, any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (0..len + 1, 0..len + 2).prop_map(|(lo, hi)| Op::CountRange { lo, hi }),
        Just(Op::Count),
        (0..len).prop_map(|idx| Op::Get { idx }),
        (0..len + 2).prop_map(|lo| Op::FirstSet { lo }),
    ]
}

proptest! {
    #[test]
    fn matches_naive_bitvec_model(
        len in 1usize..300,
        seq in prop::collection::vec(op_strategy(300), 1..500),
    ) {
        let mut tree = FlagTree::new(len);
        let mut model = vec![false; len];
        prop_assert_eq!(tree.len(), len);
        for op in seq {
            match op {
                Op::Set { idx, value } => {
                    let idx = idx % len;
                    tree.set(idx, value);
                    model[idx] = value;
                }
                Op::CountRange { lo, hi } => {
                    // `count_range` clamps hi to len; empty/inverted
                    // ranges count zero, mirroring the model slice.
                    let lo = lo.min(len);
                    let hi = hi.min(len + 1);
                    let expect = if lo < hi {
                        model[lo..hi.min(len)].iter().filter(|&&b| b).count() as u64
                    } else {
                        0
                    };
                    prop_assert_eq!(tree.count_range(lo, hi), expect);
                }
                Op::Count => {
                    let expect = model.iter().filter(|&&b| b).count() as u64;
                    prop_assert_eq!(tree.count(), expect);
                }
                Op::Get { idx } => {
                    let idx = idx % len;
                    prop_assert_eq!(tree.get(idx), model[idx]);
                }
                Op::FirstSet { lo } => {
                    let expect = (lo..len).find(|&i| model[i]);
                    prop_assert_eq!(tree.first_set_in(lo), expect);
                }
            }
        }
        // Final full agreement: every prefix sum matches the model.
        let mut running = 0u64;
        for (i, &b) in model.iter().enumerate() {
            running += b as u64;
            prop_assert_eq!(tree.count_range(0, i + 1), running);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random set/clear sequences leave the packed tree and the per-page
    /// tree answering every query identically: point reads, totals,
    /// unaligned and clamped range counts, and first-set scans.
    #[test]
    fn packed_tree_matches_per_page_tree(
        len in edge_len(),
        seq in prop::collection::vec((0usize..1 << 20, 1usize..130, any::<bool>()), 0..200),
        queries in prop::collection::vec((0usize..1 << 20, 0usize..1 << 20), 1..40),
    ) {
        let mut new = FlagTree::new(len);
        let mut old = OldFlagTree::new(len);
        // Runs of up to two words, so whole words fill and empty too.
        for (start, run, value) in seq {
            for idx in (start..start + run).map(|i| i % len) {
                new.set(idx, value);
                old.set(idx, value);
            }
            prop_assert_eq!(new.count(), old.count());
        }
        prop_assert_eq!(new.len(), old.len());
        prop_assert_eq!(new.count(), old.count());
        for i in 0..len {
            prop_assert_eq!(new.get(i), old.get(i));
        }
        for (a, b) in queries {
            // lo anywhere in [0, len], hi up to 70 pages past the end.
            let lo = a % (len + 1);
            let hi = b % (len + 71);
            prop_assert_eq!(new.count_range(lo, hi), old.count_range(lo, hi), "[{}, {})", lo, hi);
            prop_assert_eq!(new.first_set_in(lo), old.first_set_in(lo), "from {}", lo);
        }
        for lo in (0..=len + 1).step_by(7) {
            prop_assert_eq!(new.first_set_in(lo), old.first_set_in(lo), "from {}", lo);
        }
    }
}
