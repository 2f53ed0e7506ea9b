//! Equivalence of `AddressSpace`'s live-region index with the linear
//! scans it replaced.
//!
//! `find`/`page_at` used to walk every slot of `Vec<Option<Region>>`,
//! including the `None` each munmap leaves behind, and `regions()`,
//! `tenant_frames`, `tenants` and `mapped_bytes` walked the same vector.
//! They now binary-search or iterate a compact index of live regions.
//! Random mmap/munmap/map/snapshot-restore sequences must give the same
//! answers as the old code after every operation.

use proptest::prelude::*;

use hemem_vmm::{
    AddressSpace, PageId, PageSize, PageState, PhysPage, Region, RegionId, RegionKind,
    SpaceSnapshot, StateError, TenantFrames, TenantId, Tier, VirtAddr, VirtRange,
};

/// Gap `AddressSpace` leaves between consecutive regions.
const GUARD: u64 = 1 << 30;
const TENANTS: u32 = 3;

/// The address space as the old code saw it: positional
/// `Vec<Option<Region>>`, queried by linear scans copied from the
/// pre-index `AddressSpace`.
struct OldSpace {
    regions: Vec<Option<Region>>,
}

impl OldSpace {
    fn from_snapshot(snap: SpaceSnapshot) -> OldSpace {
        OldSpace {
            regions: snap
                .regions
                .into_iter()
                .map(|r| r.map(Region::restore))
                .collect(),
        }
    }

    fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter().flatten()
    }

    fn find(&self, addr: VirtAddr) -> Option<&Region> {
        self.regions().find(|r| r.range().contains(addr))
    }

    fn page_at(&self, addr: VirtAddr) -> Option<PageId> {
        let r = self.find(addr)?;
        Some(PageId {
            region: r.id(),
            index: r.page_of(addr),
        })
    }

    fn mapped_bytes(&self) -> u64 {
        self.regions()
            .map(|r| r.mapped_pages() * r.page_size().bytes())
            .sum()
    }

    fn tenants(&self) -> Vec<TenantId> {
        let mut t: Vec<TenantId> = self.regions().map(Region::tenant).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    fn tenant_frames(&self, tenant: TenantId) -> TenantFrames {
        let mut f = TenantFrames::default();
        for r in self.regions() {
            if r.tenant() != tenant || r.kind() != RegionKind::ManagedHeap {
                continue;
            }
            let dram = r.dram_pages();
            let ssd = r.ssd_pages();
            f.dram_pages += dram;
            f.nvm_pages += r.mapped_pages() - dram - ssd;
            f.ssd_pages += ssd;
            f.wp_pages += r.wp_pages();
            f.swapped_pages += r.swapped_pages();
        }
        f
    }
}

#[derive(Debug, Clone)]
enum Op {
    Mmap {
        tenant: u32,
        size: u8,
        pages: u64,
        small: bool,
    },
    /// Unmaps `pick % (regions ever mapped + 2)`: live, already unmapped
    /// (double unmap) or never mapped (out of range) ids.
    Munmap {
        pick: u32,
    },
    Map {
        pick: u32,
        page: u64,
        tier: u8,
    },
    RoundTrip,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..TENANTS, 0u8..3, 0u64..9, 0u8..4).prop_map(|(tenant, size, pages, k)| Op::Mmap {
            tenant,
            size,
            pages,
            small: k == 0,
        }),
        (0u32..64).prop_map(|pick| Op::Munmap { pick }),
        (0u32..64, 0u64..9, 0u8..3).prop_map(|(pick, page, tier)| Op::Map { pick, page, tier }),
        Just(Op::RoundTrip),
    ]
}

/// First byte, last byte, one past the end, the middle of the guard gap
/// after the region, and one byte before the start.
fn probes(range: VirtRange) -> Vec<VirtAddr> {
    let (start, end) = (range.base.0, range.end());
    let mut v = vec![start, end, end + GUARD / 2, start - 1];
    if end > start {
        v.push(end - 1);
    }
    v.into_iter().map(VirtAddr).collect()
}

fn check(s: &AddressSpace, ranges: &[VirtRange]) -> Result<(), TestCaseError> {
    let old = OldSpace::from_snapshot(s.snapshot());
    let mut addrs = vec![VirtAddr(0), VirtAddr((1 << 40) - 1)];
    for &r in ranges {
        addrs.extend(probes(r));
    }
    for a in addrs {
        prop_assert_eq!(
            s.find(a).map(Region::id),
            old.find(a).map(Region::id),
            "find({:?})",
            a
        );
        prop_assert_eq!(s.page_at(a), old.page_at(a), "page_at({:?})", a);
    }
    let ids: Vec<RegionId> = s.regions().map(Region::id).collect();
    let old_ids: Vec<RegionId> = old.regions().map(Region::id).collect();
    prop_assert_eq!(ids, old_ids);
    for t in 0..TENANTS {
        prop_assert_eq!(
            s.tenant_frames(TenantId(t)),
            old.tenant_frames(TenantId(t)),
            "tenant_frames({})",
            t
        );
    }
    prop_assert_eq!(s.tenants(), old.tenants());
    prop_assert_eq!(s.mapped_bytes(), old.mapped_bytes());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_index_matches_linear_scans(ops in prop::collection::vec(op_strategy(), 1..160)) {
        let mut s = AddressSpace::new();
        // Every range ever mapped, by region id: dead ranges keep being
        // probed so a stale index entry would show.
        let mut ranges: Vec<VirtRange> = Vec::new();
        let mut live: Vec<bool> = Vec::new();
        let mut next_phys = 0u64;
        check(&s, &ranges)?;
        for op in ops {
            match op {
                Op::Mmap { tenant, size, pages, small } => {
                    let ps = [PageSize::Base4K, PageSize::Huge2M, PageSize::Giga1G][size as usize];
                    let kind = if small { RegionKind::SmallAnon } else { RegionKind::ManagedHeap };
                    let len = (pages * ps.bytes()).saturating_sub(ps.bytes() / 2);
                    let id = s.mmap_tagged(len, ps, kind, TenantId(tenant));
                    prop_assert_eq!(id.0 as usize, ranges.len());
                    ranges.push(s.region(id).range());
                    live.push(true);
                }
                Op::Munmap { pick } => {
                    let id = RegionId(pick % (ranges.len() as u32 + 2));
                    let was_live = live.get(id.0 as usize).copied().unwrap_or(false);
                    match s.try_munmap(id) {
                        Ok(r) => {
                            prop_assert!(was_live, "unmapped dead {:?}", id);
                            prop_assert_eq!(r.id(), id);
                            live[id.0 as usize] = false;
                        }
                        Err(e) => {
                            prop_assert!(!was_live, "failed to unmap live {:?}", id);
                            prop_assert_eq!(e, StateError::MissingRegion(id));
                        }
                    }
                }
                Op::Map { pick, page, tier } => {
                    let alive: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
                    if alive.is_empty() {
                        continue;
                    }
                    let r = s.region_mut(RegionId(alive[pick as usize % alive.len()] as u32));
                    if page < r.page_count() && r.state(page) == PageState::Unmapped {
                        let tier = [Tier::Dram, Tier::Nvm, Tier::Ssd][tier as usize];
                        r.map_page(page, tier, PhysPage(next_phys));
                        next_phys += 1;
                    }
                }
                Op::RoundTrip => s = AddressSpace::restore(s.snapshot()),
            }
            check(&s, &ranges)?;
        }
    }
}
