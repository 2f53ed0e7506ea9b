//! Page-table scan cost model (Figure 3).
//!
//! Traditional tiered-memory policy scans page tables for accessed/dirty
//! bits. The cost grows linearly in the number of leaf entries — which
//! explodes with base pages — and each entry reference on a deeper table
//! costs a bit more because more interior nodes stream through the cache.
//! Clearing bits additionally forces a TLB shootdown. With terabytes of
//! base-page-mapped memory a single scan takes seconds, which is the
//! scalability wall HeMem's sampling avoids (§2.3).

use hemem_sim::Ns;

use crate::addr::PageSize;
use crate::tlb::Tlb;

/// Scan cost parameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScanConfig {
    /// Cost to check one leaf entry on a 4-level table (base pages).
    pub leaf_cost_4k: Ns,
    /// Cost per leaf entry at huge-page depth.
    pub leaf_cost_2m: Ns,
    /// Cost per leaf entry at giant-page depth.
    pub leaf_cost_1g: Ns,
}

impl Default for ScanConfig {
    fn default() -> Self {
        // Fitted so that scanning 1 TB of base pages takes ~1.6 s and huge
        // pages ~2.6 ms, matching Figure 3's orders of magnitude.
        ScanConfig {
            leaf_cost_4k: Ns::nanos(6),
            leaf_cost_2m: Ns::nanos(5),
            leaf_cost_1g: Ns::nanos(4),
        }
    }
}

impl ScanConfig {
    /// Cost to visit one leaf entry of the given page size.
    pub fn leaf_cost(&self, ps: PageSize) -> Ns {
        match ps {
            PageSize::Base4K => self.leaf_cost_4k,
            PageSize::Huge2M => self.leaf_cost_2m,
            PageSize::Giga1G => self.leaf_cost_1g,
        }
    }

    /// Pure scan time over `capacity_bytes` mapped with pages of `ps`.
    pub fn scan_time(&self, capacity_bytes: u64, ps: PageSize) -> Ns {
        let entries = ps.pages_for(capacity_bytes);
        Ns(self.leaf_cost(ps).as_nanos().saturating_mul(entries))
    }

    /// Full scan-and-clear pass: scan time plus the TLB shootdown charged
    /// on `tlb` for clearing accessed/dirty bits across `cores` cores.
    pub fn scan_and_clear(
        &self,
        capacity_bytes: u64,
        ps: PageSize,
        tlb: &mut Tlb,
        cores: u32,
    ) -> Ns {
        self.scan_time(capacity_bytes, ps) + tlb.shootdown(cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: u64 = 1 << 40;

    #[test]
    fn terabyte_base_scan_takes_seconds() {
        let c = ScanConfig::default();
        let t = c.scan_time(2 * TB, PageSize::Base4K);
        assert!(t >= Ns::secs(3), "2 TB base scan {t}");
        assert!(t < Ns::secs(5));
    }

    #[test]
    fn huge_pages_are_orders_faster() {
        let c = ScanConfig::default();
        let base = c.scan_time(TB, PageSize::Base4K);
        let huge = c.scan_time(TB, PageSize::Huge2M);
        let giga = c.scan_time(TB, PageSize::Giga1G);
        assert!(base.as_nanos() / huge.as_nanos() > 400, "4K/2M ratio");
        assert!(huge.as_nanos() / giga.as_nanos() > 400, "2M/1G ratio");
    }

    #[test]
    fn small_memory_scans_quickly_at_any_page_size() {
        // Figure 3: below a few tens of GB every page size scans fast.
        let c = ScanConfig::default();
        for ps in [PageSize::Base4K, PageSize::Huge2M, PageSize::Giga1G] {
            let t = c.scan_time(16 << 30, ps);
            assert!(t < Ns::millis(30), "{ps:?}: {t}");
        }
    }

    #[test]
    fn scan_and_clear_includes_shootdown() {
        let c = ScanConfig::default();
        let mut tlb = Tlb::default();
        let total = c.scan_and_clear(1 << 30, PageSize::Huge2M, &mut tlb, 24);
        assert!(total > c.scan_time(1 << 30, PageSize::Huge2M));
        assert_eq!(tlb.stats().shootdowns, 1);
    }

    #[test]
    fn scan_scales_linearly() {
        let c = ScanConfig::default();
        let one = c.scan_time(TB, PageSize::Base4K);
        let two = c.scan_time(2 * TB, PageSize::Base4K);
        assert_eq!(two.as_nanos(), 2 * one.as_nanos());
    }
}
