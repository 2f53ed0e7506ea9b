//! Equivalence of the page tracker's flat region table and its
//! slot-resolved ingest with the code they replaced.
//!
//! `PageTracker` used to key its regions by a `HashMap<RegionId, (base
//! slot, pages)>` and sort the entries whenever it walked them. It now
//! keeps a `Vec` sorted by id. Random add/remove/re-add/reset sequences
//! must resolve every page to the slot the map gave, and the walks
//! (`rebuild_from`, `residency_mismatches`) must see the same regions in
//! id order. PEBS ingest now resolves a region once per run of
//! same-region samples and records through `record_slot`; the twin test
//! shows that path leaves the tracker exactly as `record` does.

use std::collections::HashMap;

use proptest::prelude::*;

use hemem_core::hemem::{PageTracker, Queue, RegionConfig, TrackerConfig};
use hemem_sim::list::Slot;
use hemem_sim::Ns;
use hemem_vmm::{AddressSpace, PageId, PageSize, PageState, PhysPage, RegionId, RegionKind, Tier};

/// The old region table: the `HashMap` the tracker kept, plus the slot
/// count its metadata spanned (the next region's base slot).
#[derive(Default)]
struct OldTable {
    regions: HashMap<RegionId, (u32, u64)>,
    footprint: u32,
}

impl OldTable {
    fn add_region(&mut self, region: RegionId, pages: u64) {
        self.regions.insert(region, (self.footprint, pages));
        self.footprint += pages as u32;
    }

    fn slot(&self, page: PageId) -> Option<Slot> {
        let &(base, pages) = self.regions.get(&page.region)?;
        (page.index < pages).then(|| base + page.index as u32)
    }

    fn sorted(&self) -> Vec<(RegionId, u32, u64)> {
        let mut v: Vec<(RegionId, u32, u64)> = self
            .regions
            .iter()
            .map(|(&r, &(base, pages))| (r, base, pages))
            .collect();
        v.sort_unstable_by_key(|&(r, _, _)| r.0);
        v
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Maps a region of `pages` pages and tracks its first
    /// `pages - short` of them.
    Add {
        pages: u64,
        short: u64,
    },
    /// Tracks an untracked, still mapped region again.
    ReAdd {
        pick: u32,
    },
    /// Drops a region from the tracker only.
    Remove {
        pick: u32,
    },
    /// Drops a region from the tracker and unmaps it.
    Munmap {
        pick: u32,
    },
    Reset,
    /// Tells the tracker a page was placed (the space is not touched).
    Place {
        pick: u32,
        page: u64,
        tier: u8,
    },
    /// Maps or unmaps a page in the space (the tracker is not told).
    Flip {
        pick: u32,
        page: u64,
        tier: u8,
    },
    Record {
        pick: u32,
        page: u64,
        write: bool,
    },
    Rebuild,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..10, 0u64..3).prop_map(|(pages, short)| Op::Add { pages, short }),
        (0u32..64).prop_map(|pick| Op::ReAdd { pick }),
        (0u32..64).prop_map(|pick| Op::Remove { pick }),
        (0u32..64).prop_map(|pick| Op::Munmap { pick }),
        (0u32..64, 0u64..12, 0u8..3).prop_map(|(pick, page, tier)| Op::Place { pick, page, tier }),
        (0u32..64, 0u64..12, 0u8..3).prop_map(|(pick, page, tier)| Op::Flip { pick, page, tier }),
        (0u32..64, 0u64..12, any::<bool>()).prop_map(|(pick, page, write)| Op::Record {
            pick,
            page,
            write
        }),
        (0u8..4).prop_map(|k| if k == 0 { Op::Reset } else { Op::Rebuild }),
    ]
}

const TIERS: [Tier; 3] = [Tier::Dram, Tier::Nvm, Tier::Ssd];
const QUEUES: [Queue; 4] = [
    Queue::DramHot,
    Queue::DramCold,
    Queue::NvmHot,
    Queue::NvmCold,
];

struct Harness {
    space: AddressSpace,
    t: PageTracker,
    old: OldTable,
    /// Tier the tracker last learned for each tracked page.
    tiers: HashMap<PageId, Tier>,
    /// Tracked page count per region ever mapped; `live` marks the
    /// regions still mapped in the space.
    tracked: Vec<u64>,
    live: Vec<bool>,
    now_ms: u64,
    next_phys: u64,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            space: AddressSpace::new(),
            t: PageTracker::new(TrackerConfig::default()),
            old: OldTable::default(),
            tiers: HashMap::new(),
            tracked: Vec::new(),
            live: Vec::new(),
            now_ms: 0,
            next_phys: 0,
        }
    }

    fn id(&self, pick: u32) -> Option<RegionId> {
        (!self.tracked.is_empty()).then(|| RegionId(pick % self.tracked.len() as u32))
    }

    fn forget(&mut self, region: RegionId) {
        self.tiers.retain(|p, _| p.region != region);
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Add { pages, short } => {
                let id = self
                    .space
                    .mmap(pages * 4096, PageSize::Base4K, RegionKind::ManagedHeap);
                let tracked = pages - short.min(pages - 1);
                self.t.add_region(id, tracked);
                self.old.add_region(id, tracked);
                self.tracked.push(tracked);
                self.live.push(true);
            }
            Op::ReAdd { pick } => {
                let Some(id) = self.id(pick) else { return };
                if self.live[id.0 as usize] && !self.old.regions.contains_key(&id) {
                    let pages = self.tracked[id.0 as usize];
                    self.t.add_region(id, pages);
                    self.old.add_region(id, pages);
                }
            }
            Op::Remove { pick } => {
                let Some(id) = self.id(pick) else { return };
                self.t.remove_region(id);
                self.old.regions.remove(&id);
                self.forget(id);
            }
            Op::Munmap { pick } => {
                let Some(id) = self.id(pick) else { return };
                self.t.remove_region(id);
                self.old.regions.remove(&id);
                self.forget(id);
                if self.live[id.0 as usize] {
                    self.space.munmap(id);
                    self.live[id.0 as usize] = false;
                }
            }
            Op::Reset => {
                self.t.reset();
                self.old = OldTable::default();
                self.tiers.clear();
            }
            Op::Place { pick, page, tier } => {
                let Some(id) = self.id(pick) else { return };
                let page = PageId {
                    region: id,
                    index: page,
                };
                self.t.placed(page, TIERS[tier as usize]);
                if self.old.slot(page).is_some() {
                    self.tiers.insert(page, TIERS[tier as usize]);
                }
            }
            Op::Flip { pick, page, tier } => {
                let Some(id) = self.id(pick) else { return };
                if !self.live[id.0 as usize] {
                    return;
                }
                let r = self.space.region_mut(id);
                if page >= r.page_count() {
                    return;
                }
                if r.state(page) == PageState::Unmapped {
                    r.map_page(page, TIERS[tier as usize], PhysPage(self.next_phys));
                    self.next_phys += 1;
                } else {
                    r.unmap_page(page);
                }
            }
            Op::Record { pick, page, write } => {
                let Some(id) = self.id(pick) else { return };
                self.now_ms += 700;
                let page = PageId {
                    region: id,
                    index: page,
                };
                self.t.record(page, write, Ns::millis(self.now_ms));
            }
            Op::Rebuild => {
                self.t.rebuild_from(&self.space);
                self.tiers.clear();
                for (rid, _, pages) in self.old.sorted() {
                    for i in 0..pages {
                        if let PageState::Mapped { tier, .. } = self.space.region(rid).state(i) {
                            self.tiers.insert(
                                PageId {
                                    region: rid,
                                    index: i,
                                },
                                tier,
                            );
                        }
                    }
                }
            }
        }
    }

    /// The old `residency_mismatches`: the sorted map walk, reading the
    /// tracked tier from the harness's record of what the tracker was told.
    fn old_mismatches(&self) -> Vec<(PageId, Option<Tier>, Option<Tier>)> {
        let mut out = Vec::new();
        for (rid, _, pages) in self.old.sorted() {
            let region = self.space.region(rid);
            for i in 0..pages {
                let page = PageId {
                    region: rid,
                    index: i,
                };
                let tracked = self.tiers.get(&page).copied();
                let mapped = match region.state(i) {
                    PageState::Mapped { tier, .. } => Some(tier),
                    _ => None,
                };
                if tracked != mapped {
                    out.push((page, tracked, mapped));
                }
            }
        }
        out
    }

    /// Queue lengths right after `rebuild_from`: every tracked page
    /// resident on DRAM or NVM sits on its tier's hot or cold queue,
    /// as its surviving counters classify it.
    fn rebuilt_queue_lens(&self) -> [usize; 4] {
        let cfg = TrackerConfig::default();
        let mut lens = [0usize; 4];
        for (rid, _, pages) in self.old.sorted() {
            for i in 0..pages {
                let PageState::Mapped { tier, .. } = self.space.region(rid).state(i) else {
                    continue;
                };
                if tier == Tier::Ssd {
                    continue;
                }
                let (r, w) = self.t.counters(PageId {
                    region: rid,
                    index: i,
                });
                let hot = r >= cfg.hot_read_threshold || w >= cfg.hot_write_threshold;
                let q = Queue::of(tier, hot);
                lens[QUEUES.iter().position(|&x| x == q).expect("queue")] += 1;
            }
        }
        lens
    }

    fn check(&self, rebuilt: bool) -> Result<(), TestCaseError> {
        let t = &self.t;
        for r in 0..=self.tracked.len() as u32 {
            let id = RegionId(r);
            let tracked = self.tracked.get(r as usize).copied().unwrap_or(0);
            prop_assert_eq!(t.tracks(id), self.old.regions.contains_key(&id));
            prop_assert_eq!(t.region_slots(id), self.old.regions.get(&id).copied());
            for index in [0, tracked.saturating_sub(1), tracked, tracked + 1] {
                let page = PageId { region: id, index };
                prop_assert_eq!(t.slot(page), self.old.slot(page), "slot({:?})", page);
            }
        }
        prop_assert_eq!(
            t.tracked_pages(),
            self.old.regions.values().map(|&(_, p)| p).sum::<u64>()
        );
        prop_assert_eq!(t.footprint_pages(), self.old.footprint as u64);
        prop_assert_eq!(t.residency_mismatches(&self.space), self.old_mismatches());
        if rebuilt {
            let lens = QUEUES.map(|q| t.queue_len(q));
            prop_assert_eq!(lens, self.rebuilt_queue_lens());
        }
        Ok(())
    }
}

/// Records `stream` through `record` on one tracker and through a
/// per-run `region_slots` lookup plus `record_slot` on its twin, the way
/// `HeMem::on_samples` ingests a PEBS drain.
fn twin_ingest(a: &mut PageTracker, b: &mut PageTracker, stream: &[(u32, u64, bool)], now: Ns) {
    let mut run: Option<(RegionId, Option<(Slot, u64)>)> = None;
    for &(r, index, write) in stream {
        let page = PageId {
            region: RegionId(r),
            index,
        };
        a.record(page, write, now);
        let slots = match run {
            Some((rid, slots)) if rid == page.region => slots,
            _ => {
                let slots = b.region_slots(page.region);
                run = Some((page.region, slots));
                slots
            }
        };
        if let Some((base, pages)) = slots {
            if page.index < pages {
                b.record_slot(base + page.index as u32, page, write, now);
            }
        }
    }
}

fn twin_tracker(regions: bool) -> PageTracker {
    let cfg = TrackerConfig {
        regions: if regions {
            RegionConfig::multi_grain()
        } else {
            RegionConfig::default()
        },
        ..TrackerConfig::default()
    };
    let mut t = PageTracker::new(cfg);
    // Region 1 is never tracked; region 3 tracks fewer pages than the
    // stream addresses.
    for (r, pages) in [(0u32, 16u64), (2, 8), (3, 5)] {
        t.add_region(RegionId(r), pages);
        for i in 0..pages {
            let page = PageId {
                region: RegionId(r),
                index: i,
            };
            t.placed(
                page,
                if (i + r as u64).is_multiple_of(3) {
                    Tier::Dram
                } else {
                    Tier::Nvm
                },
            );
        }
    }
    t
}

fn drain(t: &mut PageTracker) -> Vec<PageId> {
    let mut out = Vec::new();
    while let Some(p) = t.pop_promotion() {
        out.push(p);
    }
    while let Some(p) = t.pop_swap_victim() {
        out.push(p);
    }
    while let Some(p) = t.pop_demotion(true) {
        out.push(p);
    }
    out
}

fn same_state(a: &mut PageTracker, b: &mut PageTracker) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
    prop_assert_eq!(a.cool_clock(), b.cool_clock());
    prop_assert_eq!(
        format!("{:?}", a.region_stats()),
        format!("{:?}", b.region_stats())
    );
    for r in 0..4u32 {
        for i in 0..16u64 {
            let page = PageId {
                region: RegionId(r),
                index: i,
            };
            prop_assert_eq!(a.counters(page), b.counters(page), "counters({:?})", page);
            prop_assert_eq!(a.is_write_heavy(page), b.is_write_heavy(page));
        }
    }
    for q in QUEUES {
        prop_assert_eq!(a.queue_len(q), b.queue_len(q));
    }
    Ok(())
}

fn stream_strategy() -> impl Strategy<Value = Vec<(u32, u64, bool)>> {
    prop::collection::vec((0u32..4, 0u64..10, 0u8..3), 1..40).prop_map(|runs| {
        // Expand (region, first page, run length) into same-region runs
        // so the per-run lookup is exercised across run boundaries.
        let mut v = Vec::new();
        for (k, (r, page, len)) in runs.into_iter().enumerate() {
            for j in 0..=len as u64 {
                v.push((r, (page + j * 3) % 10, (k as u64 + j).is_multiple_of(3)));
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn region_table_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut h = Harness::new();
        h.check(false)?;
        for op in ops {
            let rebuilt = matches!(op, Op::Rebuild);
            h.apply(op);
            h.check(rebuilt)?;
            if rebuilt {
                prop_assert!(h.t.residency_mismatches(&h.space).is_empty());
            }
        }
    }

    #[test]
    fn record_slot_matches_record(
        drains in prop::collection::vec(stream_strategy(), 1..12),
        regions in any::<bool>(),
    ) {
        let mut a = twin_tracker(regions);
        let mut b = twin_tracker(regions);
        for (k, stream) in drains.iter().enumerate() {
            let now = Ns::secs(3 * k as u64);
            twin_ingest(&mut a, &mut b, stream, now);
            if regions {
                a.begin_region_period();
                b.begin_region_period();
            }
            same_state(&mut a, &mut b)?;
        }
        prop_assert_eq!(drain(&mut a), drain(&mut b));
    }
}
