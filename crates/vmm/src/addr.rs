//! Address and page-size types shared across the virtual-memory substrate.

use core::fmt;

/// Memory tier a physical page lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Tier {
    /// Fast, small DRAM.
    Dram,
    /// Slow, large NVM.
    Nvm,
    /// Block-style SSD swap device (third capacity tier; pages here are
    /// not directly accessible and must be promoted on a major fault).
    Ssd,
}

impl Tier {
    /// The canonical tier order, fastest first. This table is the single
    /// source of truth for tier iteration: machine configurations expose
    /// a prefix of it (see `MachineCore::tiers` in `hemem-core`), and
    /// `scripts/check.sh` rejects any non-test code that hardcodes the
    /// DRAM/NVM pair instead of iterating it.
    pub const ALL: [Tier; 3] = [Tier::Dram, Tier::Nvm, Tier::Ssd];

    /// The tiers the CPU loads and stores reach directly (the ones PEBS
    /// samples): the prefix of [`Tier::ALL`] before SSD, so a tier's
    /// [`Tier::rank`] indexes arrays of this length.
    pub const BYTE_ADDRESSABLE: [Tier; 2] = [Tier::Dram, Tier::Nvm];

    /// Position in the canonical order: 0 = fastest.
    pub const fn rank(self) -> usize {
        match self {
            Tier::Dram => 0,
            Tier::Nvm => 1,
            Tier::Ssd => 2,
        }
    }

    /// The next slower tier (demotion target), if any.
    pub const fn next_lower(self) -> Option<Tier> {
        match self {
            Tier::Dram => Some(Tier::Nvm),
            Tier::Nvm => Some(Tier::Ssd),
            Tier::Ssd => None,
        }
    }

    /// The fallback byte-addressable tier for allocation: the companion
    /// tier a fault handler tries when `self` is exhausted. SSD is never
    /// a fallback target — it is reached only by explicit demotion.
    pub fn other(self) -> Tier {
        match self {
            Tier::Dram => Tier::Nvm,
            Tier::Nvm | Tier::Ssd => Tier::Dram,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Dram => write!(f, "DRAM"),
            Tier::Nvm => write!(f, "NVM"),
            Tier::Ssd => write!(f, "SSD"),
        }
    }
}

/// Hardware page sizes of x86-64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PageSize {
    /// 4 KiB base pages.
    Base4K,
    /// 2 MiB huge pages (HeMem's tracking and migration granularity).
    Huge2M,
    /// 1 GiB giant pages.
    Giga1G,
}

impl PageSize {
    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => 4 << 10,
            PageSize::Huge2M => 2 << 20,
            PageSize::Giga1G => 1 << 30,
        }
    }

    /// Page-table walk depth to reach a leaf entry of this size.
    pub const fn walk_levels(self) -> u32 {
        match self {
            PageSize::Base4K => 4,
            PageSize::Huge2M => 3,
            PageSize::Giga1G => 2,
        }
    }

    /// Number of pages of this size needed to back `bytes`, rounded up.
    pub const fn pages_for(self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes())
    }
}

/// A virtual address (paper-style: within one process's address space).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Index of the page of size `ps` containing this address, relative to
    /// address zero.
    pub fn page_index(self, ps: PageSize) -> u64 {
        self.0 / ps.bytes()
    }

    /// Offset within its page.
    pub fn page_offset(self, ps: PageSize) -> u64 {
        self.0 % ps.bytes()
    }
}

/// A half-open virtual address range `[base, base + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct VirtRange {
    /// First address.
    pub base: VirtAddr,
    /// Length in bytes.
    pub len: u64,
}

impl VirtRange {
    /// Creates a range.
    pub fn new(base: u64, len: u64) -> VirtRange {
        VirtRange {
            base: VirtAddr(base),
            len,
        }
    }

    /// One past the last address.
    pub fn end(&self) -> u64 {
        self.base.0 + self.len
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.end()
    }

    /// Whether this range overlaps `other`.
    pub fn overlaps(&self, other: &VirtRange) -> bool {
        self.base.0 < other.end() && other.base.0 < self.end()
    }

    /// Number of pages of size `ps` covering the range.
    pub fn page_count(&self, ps: PageSize) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let first = self.base.0 / ps.bytes();
        let last = (self.end() - 1) / ps.bytes();
        last - first + 1
    }
}

/// Identifier of a tenant (one colocated process) sharing the machine.
///
/// Every [`crate::Region`] carries the tenant that mapped it; a
/// single-process machine uses [`TenantId::SOLO`] everywhere, which is
/// why the tenant dimension is invisible to single-tenant runs.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    Hash,
    PartialOrd,
    Ord,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The only tenant of a single-process machine.
    pub const SOLO: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a managed memory region (one `mmap`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct RegionId(pub u32);

/// A page within a region: `(region, index-within-region)`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct PageId {
    /// Owning region.
    pub region: RegionId,
    /// Page index within the region.
    pub index: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_bytes() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Giga1G.bytes(), 1024 * 1024 * 1024);
    }

    #[test]
    fn walk_depth_shrinks_with_page_size() {
        assert!(PageSize::Base4K.walk_levels() > PageSize::Huge2M.walk_levels());
        assert!(PageSize::Huge2M.walk_levels() > PageSize::Giga1G.walk_levels());
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(PageSize::Base4K.pages_for(1), 1);
        assert_eq!(PageSize::Base4K.pages_for(4096), 1);
        assert_eq!(PageSize::Base4K.pages_for(4097), 2);
        assert_eq!(PageSize::Huge2M.pages_for(0), 0);
    }

    #[test]
    fn range_contains_and_overlaps() {
        let r = VirtRange::new(0x1000, 0x1000);
        assert!(r.contains(VirtAddr(0x1000)));
        assert!(r.contains(VirtAddr(0x1FFF)));
        assert!(!r.contains(VirtAddr(0x2000)));
        assert!(r.overlaps(&VirtRange::new(0x1800, 0x1000)));
        assert!(!r.overlaps(&VirtRange::new(0x2000, 0x1000)));
        assert!(!r.overlaps(&VirtRange::new(0, 0x1000)));
    }

    #[test]
    fn page_counting_spans_boundaries() {
        let ps = PageSize::Base4K;
        assert_eq!(VirtRange::new(0, 4096).page_count(ps), 1);
        assert_eq!(VirtRange::new(100, 4096).page_count(ps), 2);
        assert_eq!(VirtRange::new(0, 0).page_count(ps), 0);
    }

    #[test]
    fn tier_other() {
        assert_eq!(Tier::Dram.other(), Tier::Nvm);
        assert_eq!(Tier::Nvm.other(), Tier::Dram);
        assert_eq!(Tier::Ssd.other(), Tier::Dram);
        assert_eq!(
            format!("{}/{}/{}", Tier::Dram, Tier::Nvm, Tier::Ssd),
            "DRAM/NVM/SSD"
        );
    }

    #[test]
    fn tier_table_is_ordered_by_rank() {
        for (i, t) in Tier::ALL.iter().enumerate() {
            assert_eq!(t.rank(), i);
        }
        assert_eq!(Tier::Dram.next_lower(), Some(Tier::Nvm));
        assert_eq!(Tier::Nvm.next_lower(), Some(Tier::Ssd));
        assert_eq!(Tier::Ssd.next_lower(), None);
    }

    #[test]
    fn virt_addr_page_math() {
        let a = VirtAddr(2 * 1024 * 1024 + 5);
        assert_eq!(a.page_index(PageSize::Huge2M), 1);
        assert_eq!(a.page_offset(PageSize::Huge2M), 5);
    }
}
