//! Page-table scan-and-classify pass shared by the scanning baselines
//! (Nimble and the HeMem-PT variants).
//!
//! The scanner walks every leaf entry of the managed regions, reads the
//! accessed/dirty bits (sampled lazily from each region's
//! [`hemem_vmm::AccessLedger`]), classifies pages hot or cold in the
//! shared [`PageTracker`], clears the bits, and issues the TLB shootdown
//! the clearing requires. Scan *time* is charged at base-page granularity
//! (the kernel walks PTEs), while classification happens at the tracking
//! granularity (huge pages) — this is the §2.3 cost the paper measures in
//! Figure 3.
//!
//! The simulated cost is the model's; the host cost is plain sequential
//! array work. Each region's tracker slots and streak vector are looked
//! up once per scan, and the touch/dirty probabilities once per ledger
//! segment, so classifying a page is one draw (two when it qualifies)
//! plus indexed updates.

use std::collections::HashMap;

use hemem_core::hemem::PageTracker;
use hemem_core::machine::MachineCore;
use hemem_memdev::MemOp;
use hemem_sim::Ns;
use hemem_vmm::{touched_probability, PageId, PageSize, RegionId, RegionKind};

/// Per-page accessed-bit streaks across scans (Linux-style second-chance:
/// a page joins the active set only after being referenced in `needed`
/// consecutive scans).
///
/// Storage is one dense `Vec<u8>` per region, indexed by page and sized
/// to the region on its first classifying scan; 0 means no streak. The
/// owner drops a region's entry with [`ScanStreaks::remove_region`] when
/// the region is unmapped.
#[derive(Debug, Clone, Default)]
pub struct ScanStreaks {
    regions: HashMap<RegionId, Vec<u8>>,
}

impl ScanStreaks {
    /// An empty store.
    pub fn new() -> ScanStreaks {
        ScanStreaks::default()
    }

    /// Current streak of a page: consecutive scans that saw its accessed
    /// bit set (saturating at `u8::MAX`), 0 if none.
    pub fn get(&self, page: PageId) -> u8 {
        self.regions
            .get(&page.region)
            .and_then(|v| v.get(page.index as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Forgets every streak of `region` (it was unmapped).
    pub fn remove_region(&mut self, region: RegionId) {
        self.regions.remove(&region);
    }

    /// Regions holding streak storage, in no particular order.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.regions.keys().copied()
    }

    /// The streak vector of a `pages`-page region (regions never resize).
    fn region_mut(&mut self, region: RegionId, pages: u64) -> &mut [u8] {
        self.regions
            .entry(region)
            .or_insert_with(|| vec![0; pages as usize])
    }
}

/// Result of one full scan pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOutcome {
    /// Huge pages classified.
    pub pages_scanned: u64,
    /// Pages marked hot (accessed bit set).
    pub marked_hot: u64,
    /// Pages marked cold.
    pub marked_cold: u64,
    /// Wall-clock cost of the scan (entry walks + shootdown).
    pub scan_time: Ns,
}

/// Scans all managed regions, classifying pages into `tracker`.
///
/// `dirty_priority`: whether dirty bits mark pages write-heavy (HeMem-PT
/// uses them; Nimble's NUMA balancing is blind to write skew — Table 2).
pub fn scan_and_classify(
    m: &mut MachineCore,
    tracker: &mut PageTracker,
    now: Ns,
    dirty_priority: bool,
) -> ScanOutcome {
    scan_and_classify_with(m, tracker, now, dirty_priority, None, 1)
}

/// Like [`scan_and_classify`], with a referenced-streak requirement: a
/// page is marked hot only after its accessed bit was set in `needed`
/// consecutive scans (state kept in `streaks`). `needed = 1` marks on the
/// first set bit (the HeMem-PT variants); Linux NUMA balancing uses 2.
pub fn scan_and_classify_with(
    m: &mut MachineCore,
    tracker: &mut PageTracker,
    now: Ns,
    dirty_priority: bool,
    mut streaks: Option<&mut ScanStreaks>,
    needed: u8,
) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let regions: Vec<(RegionId, u32, u64)> = m
        .space
        .regions()
        .filter(|r| r.kind() == RegionKind::ManagedHeap)
        .filter_map(|r| {
            let (base, tracked) = tracker.region_slots(r.id())?;
            Some((r.id(), base, tracked))
        })
        .collect();
    let mut total_bytes = 0u64;
    for (id, base, tracked) in regions {
        let region = m.space.region(id);
        let pages = region.page_count();
        let page_bytes = region.page_size().bytes();
        total_bytes += pages * page_bytes;
        // The simulator deposits a batch's access evidence at submission,
        // so a scan may land between deposits and see nothing at all for a
        // region that is actually mid-batch. No evidence is not evidence
        // of idleness: skip classification (and leave streaks intact)
        // until the next deposit arrives. Scan *cost* is still charged.
        if region.ledger.is_empty() {
            continue;
        }
        let segments = region.ledger.segments();
        out.pages_scanned += pages;
        let mut streak = streaks.as_deref_mut().map(|s| s.region_mut(id, pages));
        // Classifies pages `lo..hi`, which share per-page read and write
        // rates. Pages the tracker does not cover (`p >= tracked`) still
        // draw and count but update nothing.
        let mut classify = |m: &mut MachineCore,
                            tracker: &mut PageTracker,
                            lo: u64,
                            hi: u64,
                            r_per_page: f64,
                            w_per_page: f64,
                            out: &mut ScanOutcome| {
            let p_touched = touched_probability(r_per_page + w_per_page);
            let p_dirty = touched_probability(w_per_page);
            for p in lo..hi {
                let accessed = m.rng.bernoulli(p_touched);
                let qualifies = match streak.as_deref_mut() {
                    Some(s) if accessed => {
                        let e = &mut s[p as usize];
                        *e = e.saturating_add(1);
                        *e >= needed
                    }
                    Some(s) => {
                        s[p as usize] = 0;
                        false
                    }
                    None => accessed,
                };
                let slot = (p < tracked).then(|| base + p as u32);
                if qualifies {
                    let dirty = m.rng.bernoulli(p_dirty);
                    if let Some(slot) = slot {
                        tracker.mark_hot_slot(slot, dirty_priority && dirty);
                    }
                    out.marked_hot += 1;
                } else {
                    if let Some(slot) = slot {
                        tracker.mark_cold_slot(slot);
                    }
                    out.marked_cold += 1;
                }
            }
        };
        // Pages outside any recorded segment were untouched: cold.
        let mut cursor = 0u64;
        for (lo, hi, r, w) in segments {
            let lo = lo.min(pages);
            let hi = hi.min(pages);
            if cursor < lo {
                classify(m, tracker, cursor, lo, 0.0, 0.0, &mut out);
            }
            classify(m, tracker, lo, hi, r, w, &mut out);
            cursor = hi.max(cursor);
        }
        if cursor < pages {
            classify(m, tracker, cursor, pages, 0.0, 0.0, &mut out);
        }
        m.space.region_mut(id).ledger.clear();
    }
    // Cost: walk every base-page PTE of the scanned span, stream the page
    // tables through DRAM, then shoot down the TLB for the bit clears.
    let scan = m.cfg.scan.scan_time(total_bytes, PageSize::Base4K);
    let pte_bytes = PageSize::Base4K.pages_for(total_bytes) * 8;
    m.dram.reserve_bulk(now, MemOp::Read, pte_bytes, None);
    let cores = m.cores.cores();
    let shootdown = m.tlb.shootdown(cores);
    out.scan_time = scan + shootdown;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::hemem::TrackerConfig;
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;
    use hemem_vmm::Tier;

    fn setup(pages: u64) -> (MachineCore, PageTracker, RegionId) {
        let mut m = MachineCore::new(MachineConfig::small(4, 16));
        let ps = m.cfg.managed_page;
        let id = m
            .space
            .mmap(pages * ps.bytes(), ps, RegionKind::ManagedHeap);
        let mut t = PageTracker::new(TrackerConfig::default());
        t.add_region(id, pages);
        for i in 0..pages {
            let phys = m.pool_mut(Tier::Nvm).alloc().expect("space");
            m.space.region_mut(id).map_page(i, Tier::Nvm, phys);
            t.placed(
                PageId {
                    region: id,
                    index: i,
                },
                Tier::Nvm,
            );
        }
        (m, t, id)
    }

    #[test]
    fn hot_segment_marked_hot_cold_rest_cold() {
        let (mut m, mut t, id) = setup(100);
        // Heavy traffic on pages 10..20, nothing elsewhere.
        m.space.region_mut(id).ledger.add(10, 20, 1000.0, 0.0);
        let out = scan_and_classify(&mut m, &mut t, Ns::ZERO, true);
        assert_eq!(out.pages_scanned, 100);
        assert_eq!(out.marked_hot, 10, "lambda=100 per page: all touched");
        assert_eq!(out.marked_cold, 90);
        assert_eq!(t.queue_len(hemem_core::hemem::Queue::NvmHot), 10);
    }

    #[test]
    fn scan_clears_ledger() {
        let (mut m, mut t, id) = setup(10);
        m.space.region_mut(id).ledger.add(0, 10, 100.0, 0.0);
        scan_and_classify(&mut m, &mut t, Ns::ZERO, false);
        assert!(m.space.region(id).ledger.is_empty());
    }

    #[test]
    fn low_rate_interval_marks_probabilistically() {
        let (mut m, mut t, id) = setup(1000);
        // lambda = 0.5 per page: ~39% touched.
        m.space.region_mut(id).ledger.add(0, 1000, 500.0, 0.0);
        let out = scan_and_classify(&mut m, &mut t, Ns::ZERO, false);
        let frac = out.marked_hot as f64 / 1000.0;
        assert!((frac - 0.39).abs() < 0.07, "touched fraction {frac}");
    }

    #[test]
    fn longer_interval_overestimates_hot_set() {
        // The §2.3 pathology end to end: same per-second rate, 10x the
        // interval, far more of memory looks hot.
        let (mut m1, mut t1, id1) = setup(1000);
        m1.space.region_mut(id1).ledger.add(0, 1000, 500.0, 0.0);
        let short = scan_and_classify(&mut m1, &mut t1, Ns::ZERO, false);
        let (mut m2, mut t2, id2) = setup(1000);
        m2.space.region_mut(id2).ledger.add(0, 1000, 5000.0, 0.0);
        let long = scan_and_classify(&mut m2, &mut t2, Ns::ZERO, false);
        assert!(
            long.marked_hot > 2 * short.marked_hot,
            "short {} vs long {}",
            short.marked_hot,
            long.marked_hot
        );
    }

    #[test]
    fn dirty_bits_drive_write_priority_only_when_enabled() {
        let (mut m, mut t, id) = setup(10);
        m.space.region_mut(id).ledger.add(0, 10, 0.0, 1000.0);
        scan_and_classify(&mut m, &mut t, Ns::ZERO, true);
        assert!(t.is_write_heavy(PageId {
            region: id,
            index: 3
        }));
        let (mut m2, mut t2, id2) = setup(10);
        m2.space.region_mut(id2).ledger.add(0, 10, 0.0, 1000.0);
        scan_and_classify(&mut m2, &mut t2, Ns::ZERO, false);
        assert!(!t2.is_write_heavy(PageId {
            region: id2,
            index: 3
        }));
    }

    fn page(region: RegionId, index: u64) -> PageId {
        PageId { region, index }
    }

    fn streak_scan(m: &mut MachineCore, t: &mut PageTracker, s: &mut ScanStreaks) -> ScanOutcome {
        scan_and_classify_with(m, t, Ns::ZERO, false, Some(s), 2)
    }

    #[test]
    fn second_consecutive_hit_promotes_with_needed_two() {
        let (mut m, mut t, id) = setup(10);
        let mut s = ScanStreaks::new();
        m.space.region_mut(id).ledger.add(0, 4, 1000.0, 0.0);
        let first = streak_scan(&mut m, &mut t, &mut s);
        assert_eq!(first.marked_hot, 0, "one hit is not enough");
        assert_eq!(s.get(page(id, 2)), 1);
        assert_eq!(t.queue_len(hemem_core::hemem::Queue::NvmHot), 0);
        m.space.region_mut(id).ledger.add(0, 4, 1000.0, 0.0);
        let second = streak_scan(&mut m, &mut t, &mut s);
        assert_eq!(second.marked_hot, 4);
        assert_eq!(s.get(page(id, 2)), 2);
        assert_eq!(t.queue_len(hemem_core::hemem::Queue::NvmHot), 4);
    }

    #[test]
    fn a_miss_resets_the_streak() {
        let (mut m, mut t, id) = setup(10);
        let mut s = ScanStreaks::new();
        m.space.region_mut(id).ledger.add(0, 4, 1000.0, 0.0);
        streak_scan(&mut m, &mut t, &mut s);
        // Pages 0..2 are hit again; 2..4 miss.
        m.space.region_mut(id).ledger.add(0, 2, 1000.0, 0.0);
        let out = streak_scan(&mut m, &mut t, &mut s);
        assert_eq!(out.marked_hot, 2);
        assert_eq!(s.get(page(id, 1)), 2);
        assert_eq!(s.get(page(id, 3)), 0, "miss clears the streak");
        // A hit after the miss starts over at 1: not hot yet.
        m.space.region_mut(id).ledger.add(2, 4, 1000.0, 0.0);
        let out = streak_scan(&mut m, &mut t, &mut s);
        assert_eq!(out.marked_hot, 0);
        assert_eq!(s.get(page(id, 3)), 1);
    }

    #[test]
    fn empty_ledger_scan_keeps_streaks() {
        let (mut m, mut t, id) = setup(10);
        let mut s = ScanStreaks::new();
        m.space.region_mut(id).ledger.add(0, 4, 1000.0, 0.0);
        streak_scan(&mut m, &mut t, &mut s);
        let idle = streak_scan(&mut m, &mut t, &mut s);
        assert_eq!(idle.pages_scanned, 0, "no evidence: nothing classified");
        assert_eq!(s.get(page(id, 0)), 1, "streak survives the empty scan");
        m.space.region_mut(id).ledger.add(0, 4, 1000.0, 0.0);
        assert_eq!(streak_scan(&mut m, &mut t, &mut s).marked_hot, 4);
    }

    #[test]
    fn scan_time_scales_with_span_and_includes_shootdown() {
        let (mut m, mut t, _) = setup(512); // 1 GiB
        let out = scan_and_classify(&mut m, &mut t, Ns::ZERO, false);
        // 1 GiB of base pages = 262144 entries * 6 ns ~ 1.6 ms + shootdown.
        let expect = m.cfg.scan.scan_time(512 * (2 << 20), PageSize::Base4K);
        assert!(out.scan_time > expect);
        assert!(out.scan_time < expect + Ns::millis(1));
        assert_eq!(m.tlb.stats().shootdowns, 1);
        let _ = GIB;
    }
}
