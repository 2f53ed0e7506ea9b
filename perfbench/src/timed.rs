//! A [`TieredBackend`] that forwards every method to the backend it
//! wraps and times each call as a span named `<prefix>.<method>`.
//!
//! Every trait method is forwarded, the defaulted ones included, so the
//! wrapped backend behaves exactly as it would unwrapped; the identity
//! test (traced fingerprint == untraced fingerprint) fails if one is
//! left to the trait default. Methods outside the hot paths share one
//! `<prefix>.other` row.

use hemem_core::audit::AuditViolation;
use hemem_core::backend::{SegmentAccess, TickOutput, TierSplit, TieredBackend};
use hemem_core::fleet::FleetStats;
use hemem_core::machine::MachineCore;
use hemem_memdev::Pattern;
use hemem_pebs::SampleRecord;
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, TenantId, Tier};

use crate::profile::{add_items, layer, span, Layer};

/// Per-method rows of one wrapped backend.
#[derive(Debug, Clone, Copy)]
struct Rows {
    place: Layer,
    split: Layer,
    tick: Layer,
    on_samples: Layer,
    migration_done: Layer,
    other: Layer,
}

/// The timing wrapper.
pub struct Timed<B> {
    inner: B,
    rows: Rows,
}

impl<B: TieredBackend> Timed<B> {
    /// Wraps `inner`, naming its rows `<prefix>.<method>` (e.g.
    /// `core.hemem.tick`).
    pub fn new(prefix: &str, inner: B) -> Timed<B> {
        let row = |method: &str| layer(&format!("{prefix}.{method}"));
        Timed {
            inner,
            rows: Rows {
                place: row("place"),
                split: row("split"),
                tick: row("tick"),
                on_samples: row("on_samples"),
                migration_done: row("migration_done"),
                other: row("other"),
            },
        }
    }
}

impl<B: TieredBackend> TieredBackend for Timed<B> {
    fn name(&self) -> &'static str {
        span(self.rows.other, || self.inner.name())
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        span(self.rows.other, || self.inner.wants_to_manage(len))
    }

    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId) {
        span(self.rows.other, || self.inner.on_mmap(m, region))
    }

    fn on_munmap(&mut self, m: &mut MachineCore, region: RegionId) {
        span(self.rows.other, || self.inner.on_munmap(m, region))
    }

    fn place(&mut self, m: &mut MachineCore, page: PageId, is_write: bool) -> Tier {
        span(self.rows.place, || self.inner.place(m, page, is_write))
    }

    fn placed(&mut self, m: &mut MachineCore, page: PageId, tier: Tier) {
        span(self.rows.place, || self.inner.placed(m, page, tier))
    }

    fn split(
        &mut self,
        m: &mut MachineCore,
        seg: &SegmentAccess,
        object_size: u32,
        pattern: Pattern,
        reads: f64,
        writes: f64,
    ) -> TierSplit {
        span(self.rows.split, || {
            self.inner
                .split(m, seg, object_size, pattern, reads, writes)
        })
    }

    fn uses_pebs(&self) -> bool {
        span(self.rows.other, || self.inner.uses_pebs())
    }

    fn on_samples(&mut self, m: &mut MachineCore, samples: &[SampleRecord], now: Ns) {
        add_items(self.rows.on_samples, samples.len() as u64);
        span(self.rows.on_samples, || {
            self.inner.on_samples(m, samples, now)
        })
    }

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        span(self.rows.tick, || self.inner.tick(m, now))
    }

    fn migration_done(&mut self, m: &mut MachineCore, page: PageId, dst: Tier) {
        span(self.rows.migration_done, || {
            self.inner.migration_done(m, page, dst)
        })
    }

    fn migration_aborted(&mut self, m: &mut MachineCore, page: PageId, current: Tier) {
        span(self.rows.other, || {
            self.inner.migration_aborted(m, page, current)
        })
    }

    fn swapped_out(&mut self, m: &mut MachineCore, page: PageId) {
        span(self.rows.other, || self.inner.swapped_out(m, page))
    }

    fn reclaim_victim(&mut self, m: &mut MachineCore) -> Option<PageId> {
        span(self.rows.other, || self.inner.reclaim_victim(m))
    }

    fn background_threads(&self) -> u32 {
        span(self.rows.other, || self.inner.background_threads())
    }

    fn recover(&mut self, m: &mut MachineCore, now: Ns) {
        span(self.rows.other, || self.inner.recover(m, now))
    }

    fn audit(&self, m: &MachineCore) -> Vec<AuditViolation> {
        span(self.rows.other, || self.inner.audit(m))
    }

    fn tenant_killed(&mut self, m: &mut MachineCore, tenant: TenantId, now: Ns) {
        span(self.rows.other, || self.inner.tenant_killed(m, tenant, now))
    }

    fn tenant_drained(&mut self, m: &mut MachineCore, tenant: TenantId, now: Ns) {
        span(self.rows.other, || {
            self.inner.tenant_drained(m, tenant, now)
        })
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        span(self.rows.other, || self.inner.fleet_stats())
    }

    fn evacuation_dst(&mut self, m: &mut MachineCore, page: PageId, from: Tier) -> Option<Tier> {
        span(self.rows.other, || self.inner.evacuation_dst(m, page, from))
    }
}
