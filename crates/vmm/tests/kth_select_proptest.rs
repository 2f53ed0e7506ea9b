//! Equivalence of the residency order-statistics queries with the forms
//! they replaced.
//!
//! `Region::kth_*_page_in` used to binary-search over range counts
//! (O(log² n)); `FlagTree::first_set_in` did the same over prefix sums.
//! Both are now one Fenwick select descent. The PEBS sampler draws a
//! page through these queries for every record, so they must return
//! exactly the old page for every `(lo, hi, k)`: the recorded replay
//! outputs pin every draw.
//!
//! The trees then packed their flags 64 per word, so the queries now
//! descend over words and select inside the landing word; they are
//! checked against the per-page trees they replaced. The PEBS sampler's
//! per-segment rank tables and rank-base descents must agree with the
//! queries too.

use proptest::prelude::*;

use hemem_vmm::{
    AddressSpace, FlagTree, PageSize, PageState, PhysPage, RankTable, Region, RegionKind, Tier,
};

mod old_index;
use old_index::{edge_len, Kind, OldIndex, KINDS};

/// The binary search `Region::kth_by` ran before the select descent:
/// smallest `p` with `count(lo, p + 1) == k + 1`.
fn old_kth_by(
    r: &Region,
    lo: u64,
    hi: u64,
    k: u64,
    count: impl Fn(&Region, u64, u64) -> u64,
) -> Option<u64> {
    let hi = hi.min(r.page_count());
    if hi <= lo || count(r, lo, hi) <= k {
        return None;
    }
    let (mut a, mut b) = (lo, hi - 1);
    while a < b {
        let mid = a + (b - a) / 2;
        if count(r, lo, mid + 1) > k {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    Some(a)
}

/// The binary search `FlagTree::first_set_in` ran before the descent.
fn old_first_set_in(t: &FlagTree, lo: usize) -> Option<usize> {
    let n = t.len();
    if lo >= n {
        return None;
    }
    let prefix = |i: usize| t.count_range(0, i);
    let base = prefix(lo);
    if prefix(n) == base {
        return None;
    }
    let (mut left, mut right) = (lo + 1, n);
    while left < right {
        let mid = left + (right - left) / 2;
        if prefix(mid) > base {
            right = mid;
        } else {
            left = mid + 1;
        }
    }
    Some(left - 1)
}

fn kind_of(r: &Region, i: u64) -> Kind {
    match r.state(i) {
        PageState::Mapped {
            tier: Tier::Dram, ..
        } => Kind::Dram,
        PageState::Mapped {
            tier: Tier::Nvm, ..
        } => Kind::Nvm,
        PageState::Mapped {
            tier: Tier::Ssd, ..
        } => Kind::Ssd,
        PageState::Unmapped | PageState::Swapped { .. } => Kind::Unmapped,
    }
}

fn tier(code: u8) -> Tier {
    match code % 3 {
        0 => Tier::Dram,
        1 => Tier::Nvm,
        _ => Tier::Ssd,
    }
}

/// Builds a region from per-page codes (0 unmapped, 1-3 a tier, 4 a
/// page swapped out after mapping), then migrates some mapped pages so
/// the trees also hold cleared flags.
fn build(layout: &[u8], moves: &[(usize, u8)]) -> (AddressSpace, hemem_vmm::RegionId) {
    let mut s = AddressSpace::new();
    let id = s.mmap(
        (layout.len() as u64) << 21,
        PageSize::Huge2M,
        RegionKind::ManagedHeap,
    );
    let r = s.region_mut(id);
    for (i, &code) in layout.iter().enumerate() {
        let i = i as u64;
        match code {
            0 => {}
            4 => {
                r.map_page(i, Tier::Nvm, PhysPage(i));
                r.swap_out_page(i, i);
            }
            c => r.map_page(i, tier(c), PhysPage(i)),
        }
    }
    for &(i, code) in moves {
        let i = (i % layout.len()) as u64;
        if matches!(r.state(i), PageState::Mapped { .. }) {
            r.remap_page(i, tier(code), PhysPage(i));
        }
    }
    (s, id)
}

fn new_kth(r: &Region, kind: Kind, lo: u64, hi: u64, k: u64) -> Option<u64> {
    match kind {
        Kind::Unmapped => r.kth_unmapped_page_in(lo, hi, k),
        Kind::Dram => r.kth_dram_page_in(lo, hi, k),
        Kind::Nvm => r.kth_nvm_page_in(lo, hi, k),
        Kind::Ssd => r.kth_ssd_page_in(lo, hi, k),
    }
}

fn old_kth(r: &Region, kind: Kind, lo: u64, hi: u64, k: u64) -> Option<u64> {
    match kind {
        Kind::Unmapped => old_kth_by(r, lo, hi, k, |r, l, h| (h - l) - r.mapped_pages_in(l, h)),
        Kind::Dram => old_kth_by(r, lo, hi, k, |r, l, h| r.dram_pages_in(l, h)),
        Kind::Nvm => old_kth_by(r, lo, hi, k, |r, l, h| {
            r.mapped_pages_in(l, h) - r.dram_pages_in(l, h) - r.ssd_pages_in(l, h)
        }),
        Kind::Ssd => old_kth_by(r, lo, hi, k, |r, l, h| r.ssd_pages_in(l, h)),
    }
}

fn brute_kth(r: &Region, kind: Kind, lo: u64, hi: u64, k: u64) -> Option<u64> {
    let k = usize::try_from(k).ok()?;
    (lo..hi.min(r.page_count()))
        .filter(|&i| kind_of(r, i) == kind)
        .nth(k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All four residency kinds, on random ranges (empty, inverted and
    /// past the end included) and ranks (in range, just past the count,
    /// and huge).
    #[test]
    fn kth_descent_matches_binary_search_and_filter(
        layout in prop::collection::vec(0u8..5, 1..300),
        moves in prop::collection::vec((0usize..300, 0u8..3), 0..40),
        queries in prop::collection::vec(
            (0u64..310, 0u64..340, prop_oneof![0u64..8, 0u64..310, any::<u64>()]),
            1..16
        )
    ) {
        let (s, id) = build(&layout, &moves);
        let r = s.region(id);
        for &(lo, hi, k) in &queries {
            for kind in KINDS {
                let expect = brute_kth(r, kind, lo, hi, k);
                prop_assert_eq!(old_kth(r, kind, lo, hi, k), expect);
                prop_assert_eq!(new_kth(r, kind, lo, hi, k), expect);
            }
            // Every rank up to just past the count, so no in-range
            // answer and the first `None` go unchecked.
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            for kind in KINDS {
                let pages: Vec<u64> = (lo..hi.min(r.page_count()))
                    .filter(|&i| kind_of(r, i) == kind)
                    .collect();
                for k in 0..=pages.len() {
                    prop_assert_eq!(new_kth(r, kind, lo, hi, k as u64), pages.get(k).copied());
                }
            }
        }
    }

    /// `first_set_in` through the select descent equals the old
    /// prefix-sum binary search and a scan, from every start.
    #[test]
    fn first_set_in_matches_binary_search_and_scan(
        flags in prop::collection::vec(prop_oneof![Just(false), Just(false), any::<bool>()], 1..300),
    ) {
        let mut t = FlagTree::new(flags.len());
        for (i, &f) in flags.iter().enumerate() {
            t.set(i, f);
        }
        for lo in 0..flags.len() + 3 {
            let expect = (lo..flags.len()).find(|&i| flags[i]);
            prop_assert_eq!(old_first_set_in(&t, lo), expect);
            prop_assert_eq!(t.first_set_in(lo), expect);
        }
    }
}

/// A `len`-page layout from runs of page codes, repeated to length, so
/// whole words of one residency appear as well as mixed ones.
fn layout_of(len: usize, runs: &[(u8, usize)]) -> Vec<u8> {
    runs.iter()
        .flat_map(|&(code, run)| std::iter::repeat_n(code, run))
        .cycle()
        .take(len)
        .collect()
}

/// A page range of a `len`-page region: inside one word, unaligned at
/// both ends, or ending at the region's last (possibly partial) word.
fn segment(len: u64, shape: u8, a: u64, b: u64) -> (u64, u64) {
    match shape {
        0 => {
            let lo = a % len;
            let word_end = ((lo / 64 + 1) * 64).min(len);
            (lo, lo + 1 + b % (word_end - lo))
        }
        1 => {
            let (x, y) = (a % (len + 1), b % (len + 1));
            (x.min(y), x.max(y))
        }
        _ => (a % len, len),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed queries return the per-page trees' page for all four
    /// residency kinds and every rank: each in-range `k`, the first
    /// `k >= count` and a huge `k` (all `None`), over unaligned ranges.
    #[test]
    fn packed_kth_matches_per_page_kth(
        len in edge_len(),
        runs in prop::collection::vec((0u8..5, 1usize..150), 1..40),
        moves in prop::collection::vec((0usize..1 << 20, 0u8..3), 0..60),
        ranges in prop::collection::vec((0u8..3, 0u64..1 << 20, 0u64..1 << 20), 1..6),
    ) {
        let (s, id) = build(&layout_of(len, &runs), &moves);
        let r = s.region(id);
        let old = OldIndex::of(r);
        for &(shape, a, b) in &ranges {
            let (lo, hi) = segment(len as u64, shape, a, b);
            for kind in KINDS {
                let count = (lo..hi).filter(|&i| kind_of(r, i) == kind).count() as u64;
                for k in (0..=count).chain([count + 1, u64::MAX]) {
                    let expect = old.kth(kind, lo, hi, k);
                    prop_assert_eq!(new_kth(r, kind, lo, hi, k), expect, "{:?} [{}, {}) k={}", kind, lo, hi, k);
                }
            }
        }
    }

    /// The sampler's two ways to resolve a segment-relative rank agree
    /// with `kth_{dram,nvm}_page_in` for every `k`: the rank table filled
    /// once per segment, and the per-record descent named by its tier.
    #[test]
    fn rank_table_and_tier_descent_match_kth(
        len in edge_len(),
        runs in prop::collection::vec((0u8..5, 1usize..150), 1..40),
        moves in prop::collection::vec((0usize..1 << 20, 0u8..3), 0..60),
        ranges in prop::collection::vec((0u8..3, 0u64..1 << 20, 0u64..1 << 20), 1..6),
    ) {
        let (s, id) = build(&layout_of(len, &runs), &moves);
        let r = s.region(id);
        let mut table = RankTable::default();
        for &(shape, a, b) in &ranges {
            let (lo, hi) = segment(len as u64, shape, a, b);
            for (tier, kind) in [(Tier::Dram, Kind::Dram), (Tier::Nvm, Kind::Nvm)] {
                r.fill_rank_table(tier, lo, hi, &mut table);
                let count = (lo..hi).filter(|&i| kind_of(r, i) == kind).count() as u64;
                prop_assert_eq!(table.total(), count);
                for k in 0..=count + 1 {
                    let expect = new_kth(r, kind, lo, hi, k);
                    prop_assert_eq!(table.select(k), expect, "{:?} table [{}, {}) k={}", tier, lo, hi, k);
                    let descent = r.kth_resident_page_in(tier, lo, hi, k);
                    prop_assert_eq!(descent, expect, "{:?} descent [{}, {}) k={}", tier, lo, hi, k);
                }
            }
        }
    }
}
