//! Equivalence of the page-table scan classifier with the form it
//! replaced.
//!
//! `scan_and_classify_with` used to keep streaks in a `HashMap<PageId,
//! u8>`, resolve every page's tracker slot through the region map and
//! evaluate both touch probabilities per page. It now walks dense
//! per-region streak vectors, resolves a region's slots once and computes
//! the probabilities once per ledger segment. Nimble's recorded outputs
//! pin every draw and queue move, so the two must agree exactly: same
//! outcome, same RNG position, same queues in the same order, same
//! tracker statistics and the same streak for every page, scan after
//! scan.

use std::collections::HashMap;

use proptest::prelude::*;

use hemem_baselines::scan::{scan_and_classify_with, ScanOutcome, ScanStreaks};
use hemem_core::hemem::{PageTracker, TrackerConfig};
use hemem_core::machine::{MachineConfig, MachineCore};
use hemem_memdev::MemOp;
use hemem_sim::{Ns, Rng};
use hemem_vmm::{touched_probability, PageId, PageSize, RegionId, RegionKind, Tier};

type OldStreaks = HashMap<PageId, u8>;

/// The classifier as it ran before the dense rewrite, kept verbatim
/// apart from the streak type.
fn old_scan_and_classify_with(
    m: &mut MachineCore,
    tracker: &mut PageTracker,
    now: Ns,
    dirty_priority: bool,
    mut streaks: Option<&mut OldStreaks>,
    needed: u8,
) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let ids: Vec<RegionId> = m
        .space
        .regions()
        .filter(|r| r.kind() == RegionKind::ManagedHeap && tracker.tracks(r.id()))
        .map(|r| r.id())
        .collect();
    let mut total_bytes = 0u64;
    for id in ids {
        let region = m.space.region(id);
        let pages = region.page_count();
        let page_bytes = region.page_size().bytes();
        total_bytes += pages * page_bytes;
        if region.ledger.is_empty() {
            continue;
        }
        let segments = region.ledger.segments();
        out.pages_scanned += pages;
        let classify = |m: &mut MachineCore,
                        tracker: &mut PageTracker,
                        streaks: &mut Option<&mut OldStreaks>,
                        lo: u64,
                        hi: u64,
                        r_per_page: f64,
                        w_per_page: f64,
                        out: &mut ScanOutcome| {
            for p in lo..hi {
                let page = PageId {
                    region: id,
                    index: p,
                };
                let accessed = m
                    .rng
                    .bernoulli(touched_probability(r_per_page + w_per_page));
                let qualifies = if accessed {
                    match streaks.as_deref_mut() {
                        Some(map) => {
                            let e = map.entry(page).or_insert(0);
                            *e = e.saturating_add(1);
                            *e >= needed
                        }
                        None => true,
                    }
                } else {
                    if let Some(map) = streaks.as_deref_mut() {
                        map.remove(&page);
                    }
                    false
                };
                if qualifies {
                    let dirty = m.rng.bernoulli(touched_probability(w_per_page));
                    tracker.mark_hot(page, dirty_priority && dirty);
                    out.marked_hot += 1;
                } else {
                    tracker.mark_cold(page);
                    out.marked_cold += 1;
                }
            }
        };
        let mut cursor = 0u64;
        for (lo, hi, r, w) in segments {
            let lo = lo.min(pages);
            let hi = hi.min(pages);
            if cursor < lo {
                classify(m, tracker, &mut streaks, cursor, lo, 0.0, 0.0, &mut out);
            }
            classify(m, tracker, &mut streaks, lo, hi, r, w, &mut out);
            cursor = hi.max(cursor);
        }
        if cursor < pages {
            classify(m, tracker, &mut streaks, cursor, pages, 0.0, 0.0, &mut out);
        }
        m.space.region_mut(id).ledger.clear();
    }
    let scan = m.cfg.scan.scan_time(total_bytes, PageSize::Base4K);
    let pte_bytes = PageSize::Base4K.pages_for(total_bytes) * 8;
    m.dram.reserve_bulk(now, MemOp::Read, pte_bytes, None);
    let cores = m.cores.cores();
    let shootdown = m.tlb.shootdown(cores);
    out.scan_time = scan + shootdown;
    out
}

/// A region to map: page count, how many trailing pages the tracker
/// leaves out, and its role (0-1 tracked managed heap, 2 untracked
/// managed heap, 3 small anonymous).
type RegionSpec = (u64, u64, u8);

/// One side of the comparison: a machine and tracker built from the same
/// specs, so both sides start identical.
struct World {
    m: MachineCore,
    t: PageTracker,
}

impl World {
    fn new(seed: u64, write_priority: bool) -> World {
        let mut m = MachineCore::new(MachineConfig::small(4, 16));
        m.rng = Rng::new(seed);
        let t = PageTracker::new(TrackerConfig {
            write_priority,
            ..TrackerConfig::default()
        });
        World { m, t }
    }

    /// Maps a region per `spec` and places its tracked pages on tiers
    /// picked by `tiers` (cycled), with some sampled history so marking
    /// starts from mixed counters and queues.
    fn map(&mut self, (pages, short, role): RegionSpec, tiers: &[u8]) -> RegionId {
        let kind = if role == 3 {
            RegionKind::SmallAnon
        } else {
            RegionKind::ManagedHeap
        };
        let ps = self.m.cfg.managed_page;
        let id = self.m.space.mmap(pages * ps.bytes(), ps, kind);
        if role >= 2 {
            return id;
        }
        let tracked = pages.saturating_sub(short);
        self.t.add_region(id, tracked);
        for index in 0..tracked {
            let page = PageId { region: id, index };
            let code = tiers[index as usize % tiers.len()];
            let tier = match code % 5 {
                0 => continue,
                1 => Tier::Dram,
                2 | 3 => Tier::Nvm,
                _ => Tier::Ssd,
            };
            self.t.placed(page, tier);
            for _ in 0..code / 5 {
                self.t.record(page, code.is_multiple_of(2), Ns::secs(1));
            }
        }
        id
    }

    fn munmap(&mut self, id: RegionId) {
        self.t.remove_region(id);
        self.m.space.munmap(id);
    }
}

/// Every queue's pages in order, drained from a copy of the tracker.
fn queues(t: &PageTracker) -> [Vec<PageId>; 4] {
    let mut t = t.clone();
    let nvm_hot = std::iter::from_fn(|| t.pop_promotion()).collect();
    let nvm_cold = std::iter::from_fn(|| t.pop_swap_victim()).collect();
    let dram_cold = std::iter::from_fn(|| t.pop_demotion(false)).collect();
    let dram_hot = std::iter::from_fn(|| t.pop_demotion(true)).collect();
    [dram_hot, dram_cold, nvm_hot, nvm_cold]
}

/// Per-page λ for a ledger deposit of class `class`: untouched-ish
/// (tiny but non-zero), partial (0 < p < 1) or saturated (p == 1, no
/// draw).
fn lambda(class: u8, x: f64) -> f64 {
    match class % 3 {
        0 => 1e-9 + x * 1e-3,
        1 => 0.01 + x * 5.0,
        _ => 50.0 + x * 1e6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random regions, ledgers and scan sequences, with and without
    /// streaks, for every streak requirement and both dirty-bit modes.
    #[test]
    fn dense_classifier_matches_hashmap_classifier(
        seed in any::<u64>(),
        specs in prop::collection::vec((1u64..160, prop_oneof![Just(0u64), Just(0u64), 1u64..4], 0u8..4), 1..4),
        tiers in prop::collection::vec(0u8..20, 1..12),
        needed in 1u8..4,
        dirty_priority in any::<bool>(),
        write_priority in any::<bool>(),
        use_streaks in prop_oneof![Just(true), Just(true), Just(false)],
        // Per step: remap (unmap the oldest live region, map a new
        // one) when the code is 0, scan otherwise; deposits are
        // (region pick, lo, len, class, λ scale, write share).
        steps in prop::collection::vec(
            (0u8..6, (1u64..160, 0u64..3, 0u8..3), prop::collection::vec(
                (0usize..8, 0u64..170, 1u64..90, 0u8..3, 0.0f64..1.0, prop_oneof![Just(0.0f64), 0.0f64..1.0, Just(1.0f64)]),
                0..6,
            )),
            1..7,
        ),
    ) {
        let mut old = World::new(seed, write_priority);
        let mut new = World::new(seed, write_priority);
        let mut live = Vec::new();
        for &spec in &specs {
            let id = old.map(spec, &tiers);
            prop_assert_eq!(new.map(spec, &tiers), id);
            live.push(id);
        }
        let mut old_streaks = OldStreaks::new();
        let mut new_streaks = ScanStreaks::new();
        for (code, spec, deposits) in &steps {
            if *code == 0 && live.len() > 1 {
                let gone = live.remove(0);
                old.munmap(gone);
                new.munmap(gone);
                new_streaks.remove_region(gone);
                let id = old.map(*spec, &tiers);
                prop_assert_eq!(new.map(*spec, &tiers), id);
                live.push(id);
            }
            for &(pick, lo, len, class, x, wshare) in deposits {
                let id = live[pick % live.len()];
                let total = lambda(class, x) * len as f64;
                let (r, w) = (total * (1.0 - wshare), total * wshare);
                for world in [&mut old, &mut new] {
                    world.m.space.region_mut(id).ledger.add(lo, lo + len, r, w);
                }
            }
            let now = Ns::millis(10);
            let a = old_scan_and_classify_with(
                &mut old.m, &mut old.t, now, dirty_priority,
                use_streaks.then_some(&mut old_streaks), needed,
            );
            let b = scan_and_classify_with(
                &mut new.m, &mut new.t, now, dirty_priority,
                use_streaks.then_some(&mut new_streaks), needed,
            );
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            prop_assert_eq!(old.m.rng.next_u64(), new.m.rng.next_u64());
            prop_assert_eq!(queues(&old.t), queues(&new.t));
            prop_assert_eq!(format!("{:?}", old.t.stats()), format!("{:?}", new.t.stats()));
            for &id in &live {
                for index in 0..old.m.space.region(id).page_count() {
                    let page = PageId { region: id, index };
                    prop_assert_eq!(old.t.counters(page), new.t.counters(page));
                    prop_assert_eq!(old.t.is_write_heavy(page), new.t.is_write_heavy(page));
                    let was = old_streaks.get(&page).copied().unwrap_or(0);
                    prop_assert_eq!(was, new_streaks.get(page));
                }
            }
            prop_assert!(new_streaks.regions().all(|r| live.contains(&r)));
        }
    }
}
