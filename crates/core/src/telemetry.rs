//! Time-series telemetry over a running simulation.
//!
//! Experiments like Figure 9 (instantaneous throughput) and Figure 16
//! (per-iteration wear) need the machine's state sampled over virtual
//! time. A [`Sampler`] records rows on a fixed period driven by the
//! workload loop (call [`Sampler::maybe_sample`] whenever convenient —
//! it only records when a full period has elapsed) and renders them as
//! CSV. Each row type is one CSV schema:
//!
//! - [`Snapshot`] ([`Telemetry`]): one region's residency, cumulative
//!   counters and latency percentiles;
//! - [`TierSnapshot`] ([`TierTelemetry`]): one region's N-tier
//!   residency and major-fault tail;
//! - [`TenantSnapshot`] ([`TenantTelemetry`]): one row per tenant;
//! - [`HealthSnapshot`] ([`HealthTelemetry`]): one row per tier.

use std::fmt::Write;

use hemem_sim::{LatencyClass, Ns};
use hemem_vmm::{RegionId, TenantId, Tier};

use crate::backend::TieredBackend;
use crate::hemem::HeMem;
use crate::machine::TierHealth;
use crate::runtime::Sim;

/// A telemetry row schema: what its sampler watches, its CSV header,
/// and how one row renders.
pub trait Row: Sized {
    /// What a sampler of these rows is built for: a region, or `()` for
    /// machine-wide rows.
    type Scope: Copy;
    /// The CSV header line, without its newline.
    const HEADER: &'static str;
    /// Appends this row as one CSV line, newline included.
    fn write(&self, out: &mut String);
}

/// How a row schema samples a `Sim<B>`.
pub trait Take<B: TieredBackend>: Row {
    /// Appends the rows of one sample taken at `sim.now()`.
    fn take(scope: Self::Scope, sim: &Sim<B>, rows: &mut Vec<Self>);
}

/// Periodic sampler of one row schema.
#[derive(Debug, Clone)]
pub struct Sampler<R: Row> {
    scope: R::Scope,
    period: Ns,
    next_at: Ns,
    samples: Vec<R>,
}

/// Samples one region's two-tier state ([`Snapshot`] rows).
pub type Telemetry = Sampler<Snapshot>;
/// Samples one region's N-tier residency ([`TierSnapshot`] rows).
pub type TierTelemetry = Sampler<TierSnapshot>;
/// Samples every tenant, one row each ([`TenantSnapshot`] rows).
pub type TenantTelemetry = Sampler<TenantSnapshot>;
/// Samples every tier's health, one row each ([`HealthSnapshot`] rows).
pub type HealthTelemetry = Sampler<HealthSnapshot>;

impl<R: Row> Sampler<R> {
    fn scoped(scope: R::Scope, period: Ns) -> Sampler<R> {
        assert!(period > Ns::ZERO, "period must be positive");
        Sampler {
            scope,
            period,
            next_at: Ns::ZERO,
            samples: Vec::new(),
        }
    }

    /// Records a sample if at least one period elapsed since the last
    /// (the first call always samples). Returns `true` if one was taken.
    // Out of line on purpose: drivers poll this from a per-step closure,
    // and inlining it into the fleet driver's loop slowed fleet-churn
    // by ~6% in perfbench.
    #[inline(never)]
    pub fn maybe_sample<B: TieredBackend>(&mut self, sim: &Sim<B>) -> bool
    where
        R: Take<B>,
    {
        let now = sim.now();
        if now < self.next_at {
            return false;
        }
        self.next_at = now + self.period;
        R::take(self.scope, sim, &mut self.samples);
        true
    }

    /// All rows taken so far.
    pub fn snapshots(&self) -> &[R] {
        &self.samples
    }

    /// Renders the rows as CSV: [`Row::HEADER`], then one line per row.
    pub fn csv(&self) -> String {
        let mut out = format!("{}\n", R::HEADER);
        for s in &self.samples {
            s.write(&mut out);
        }
        out
    }
}

impl<R: Row<Scope = RegionId>> Sampler<R> {
    /// Creates a sampler for `region` with the given period.
    pub fn new(region: RegionId, period: Ns) -> Sampler<R> {
        Sampler::scoped(region, period)
    }
}

impl Sampler<TenantSnapshot> {
    /// Creates a machine-wide sampler with the given period.
    pub fn new(period: Ns) -> Sampler<TenantSnapshot> {
        Sampler::scoped((), period)
    }
}

impl Sampler<HealthSnapshot> {
    /// Creates a machine-wide sampler with the given period.
    pub fn new(period: Ns) -> Sampler<HealthSnapshot> {
        Sampler::scoped((), period)
    }
}

/// Writes one CSV line: `time_s` (3 decimals), then `fields`.
fn write_line(out: &mut String, at: Ns, fields: &[u64]) {
    let _ = write!(out, "{:.3}", at.as_secs_f64());
    for v in fields {
        let _ = write!(out, ",{v}");
    }
    out.push('\n');
}

/// One snapshot of machine state.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// DRAM-resident pages of the tracked region.
    pub dram_pages: u64,
    /// Mapped pages of the tracked region.
    pub mapped_pages: u64,
    /// Pages swapped to disk.
    pub swapped_pages: u64,
    /// Cumulative completed migrations.
    pub migrations: u64,
    /// Cumulative NVM media bytes written (wear).
    pub nvm_wear: u64,
    /// Cumulative application accesses.
    pub ops: u64,
    /// Cumulative write-protection stalls.
    pub wp_stalls: u64,
    /// Cumulative injected faults across every site (zero without a
    /// fault plan).
    pub faults_injected: u64,
    /// Cumulative DMA batches that fell back to copy threads.
    pub dma_fallbacks: u64,
    /// Cumulative migrations lost to injected failures.
    pub migrations_failed: u64,
    /// Cumulative NVM pages retired after media errors.
    pub pages_retired: u64,
    /// Cumulative manager kills taken (zero without kill injection).
    pub manager_kills: u64,
    /// Cumulative journal entries replayed during crash recovery.
    pub journal_replays: u64,
    /// Cumulative prepared migrations rolled back during recovery.
    pub journal_rollbacks: u64,
    /// Cumulative in-flight swap-outs rolled back during recovery.
    pub swap_rollbacks: u64,
    /// Cumulative components restarted by the watchdog.
    pub watchdog_restarts: u64,
    /// Cumulative invariant violations flagged by the online auditor.
    pub audit_violations: u64,
    /// End-to-end migration latency percentiles so far (prepare to
    /// mapping flip), in nanoseconds: p50, p99, p99.9, max. Computed from
    /// the machine's always-on latency histograms
    /// ([`hemem_sim::Tracer`]); zero until the first completed migration.
    pub mig_p50_ns: u64,
    /// Migration latency p99 (ns).
    pub mig_p99_ns: u64,
    /// Migration latency p99.9 (ns).
    pub mig_p999_ns: u64,
    /// Migration latency maximum (ns).
    pub mig_max_ns: u64,
    /// Page-fault service latency p50 (ns).
    pub fault_p50_ns: u64,
    /// Page-fault service latency p99 (ns).
    pub fault_p99_ns: u64,
    /// Page-fault service latency p99.9 (ns).
    pub fault_p999_ns: u64,
    /// Page-fault service latency maximum (ns).
    pub fault_max_ns: u64,
    /// Write-protection stall duration p50 (ns).
    pub wp_p50_ns: u64,
    /// Write-protection stall duration p99 (ns).
    pub wp_p99_ns: u64,
    /// Write-protection stall duration p99.9 (ns).
    pub wp_p999_ns: u64,
    /// Write-protection stall duration maximum (ns).
    pub wp_max_ns: u64,
    /// PEBS sample period in effect at the sample (constant unless the
    /// adaptive controller is enabled).
    pub pebs_sample_period: u64,
    /// Cumulative PEBS drop fraction in thousandths
    /// (`dropped * 1000 / generated`; zero before the first record).
    pub pebs_drop_frac_milli: u64,
}

impl Row for Snapshot {
    type Scope = RegionId;
    const HEADER: &'static str =
        "time_s,dram_pages,mapped_pages,swapped_pages,migrations,nvm_wear,ops,wp_stalls,\
         faults_injected,dma_fallbacks,migrations_failed,pages_retired,\
         manager_kills,journal_replays,journal_rollbacks,swap_rollbacks,\
         watchdog_restarts,audit_violations,\
         mig_p50_ns,mig_p99_ns,mig_p999_ns,mig_max_ns,\
         fault_p50_ns,fault_p99_ns,fault_p999_ns,fault_max_ns,\
         wp_p50_ns,wp_p99_ns,wp_p999_ns,wp_max_ns,\
         pebs_sample_period,pebs_drop_frac_milli";

    fn write(&self, out: &mut String) {
        write_line(
            out,
            self.at,
            &[
                self.dram_pages,
                self.mapped_pages,
                self.swapped_pages,
                self.migrations,
                self.nvm_wear,
                self.ops,
                self.wp_stalls,
                self.faults_injected,
                self.dma_fallbacks,
                self.migrations_failed,
                self.pages_retired,
                self.manager_kills,
                self.journal_replays,
                self.journal_rollbacks,
                self.swap_rollbacks,
                self.watchdog_restarts,
                self.audit_violations,
                self.mig_p50_ns,
                self.mig_p99_ns,
                self.mig_p999_ns,
                self.mig_max_ns,
                self.fault_p50_ns,
                self.fault_p99_ns,
                self.fault_p999_ns,
                self.fault_max_ns,
                self.wp_p50_ns,
                self.wp_p99_ns,
                self.wp_p999_ns,
                self.wp_max_ns,
                self.pebs_sample_period,
                self.pebs_drop_frac_milli,
            ],
        );
    }
}

impl<B: TieredBackend> Take<B> for Snapshot {
    fn take(region: RegionId, sim: &Sim<B>, rows: &mut Vec<Snapshot>) {
        let r = sim.m.space.region(region);
        let mig = sim.m.trace.hist(LatencyClass::Migration);
        let fault = sim.m.trace.hist(LatencyClass::Fault);
        let wp = sim.m.trace.hist(LatencyClass::WpStall);
        let pebs = sim.m.pebs.stats();
        rows.push(Snapshot {
            at: sim.now(),
            dram_pages: r.dram_pages(),
            mapped_pages: r.mapped_pages(),
            swapped_pages: r.swapped_pages(),
            migrations: sim.m.stats.migrations_done,
            nvm_wear: sim.m.nvm_wear_bytes(),
            ops: sim.m.stats.ops,
            wp_stalls: sim.m.stats.wp_stalls,
            faults_injected: sim.m.chaos.stats().total(),
            dma_fallbacks: sim.m.stats.dma_fallbacks,
            migrations_failed: sim.m.stats.migrations_failed,
            pages_retired: sim.m.stats.pages_retired,
            manager_kills: sim.m.recovery.manager_kills,
            journal_replays: sim.m.recovery.journal_replays,
            journal_rollbacks: sim.m.recovery.journal_rollbacks,
            swap_rollbacks: sim.m.recovery.swap_rollbacks,
            watchdog_restarts: sim.m.recovery.watchdog_restarts,
            audit_violations: sim.m.recovery.audit_violations,
            mig_p50_ns: mig.quantile(0.5),
            mig_p99_ns: mig.quantile(0.99),
            mig_p999_ns: mig.quantile(0.999),
            mig_max_ns: mig.max(),
            fault_p50_ns: fault.quantile(0.5),
            fault_p99_ns: fault.quantile(0.99),
            fault_p999_ns: fault.quantile(0.999),
            fault_max_ns: fault.max(),
            wp_p50_ns: wp.quantile(0.5),
            wp_p99_ns: wp.quantile(0.99),
            wp_p999_ns: wp.quantile(0.999),
            wp_max_ns: wp.max(),
            pebs_sample_period: sim.m.pebs.sample_period(),
            pebs_drop_frac_milli: (pebs.dropped * 1_000)
                .checked_div(pebs.generated)
                .unwrap_or(0),
        });
    }
}

/// One sample of a run's per-tier residency and major-fault latency.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct TierSnapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// DRAM-resident pages of the tracked region.
    pub dram_pages: u64,
    /// NVM-resident pages of the tracked region.
    pub nvm_pages: u64,
    /// SSD-resident pages of the tracked region (tier-3 machines only;
    /// zero otherwise).
    pub ssd_pages: u64,
    /// Pages unmapped to legacy swap slots.
    pub swapped_pages: u64,
    /// Cumulative major faults serviced (accesses that stalled behind
    /// the SSD queue).
    pub major_faults: u64,
    /// Major-fault service latency p50 (ns); zero until the first one.
    pub major_p50_ns: u64,
    /// Major-fault service latency p99 (ns).
    pub major_p99_ns: u64,
    /// Major-fault service latency p99.9 (ns).
    pub major_p999_ns: u64,
    /// Cumulative synchronous demotions to the slowest tier (SSD
    /// demotions and legacy swap-outs share the counter).
    pub swap_outs: u64,
    /// Cumulative promotions back from the slowest tier.
    pub swap_ins: u64,
}

impl Row for TierSnapshot {
    type Scope = RegionId;
    const HEADER: &'static str = "time_s,dram_pages,nvm_pages,ssd_pages,swapped_pages,\
         major_faults,major_p50_ns,major_p99_ns,major_p999_ns,\
         swap_outs,swap_ins";

    fn write(&self, out: &mut String) {
        write_line(
            out,
            self.at,
            &[
                self.dram_pages,
                self.nvm_pages,
                self.ssd_pages,
                self.swapped_pages,
                self.major_faults,
                self.major_p50_ns,
                self.major_p99_ns,
                self.major_p999_ns,
                self.swap_outs,
                self.swap_ins,
            ],
        );
    }
}

impl<B: TieredBackend> Take<B> for TierSnapshot {
    fn take(region: RegionId, sim: &Sim<B>, rows: &mut Vec<TierSnapshot>) {
        let r = sim.m.space.region(region);
        let (dram, mapped, ssd) = (r.dram_pages(), r.mapped_pages(), r.ssd_pages());
        let major = sim.m.trace.hist(LatencyClass::MajorFault);
        rows.push(TierSnapshot {
            at: sim.now(),
            dram_pages: dram,
            nvm_pages: mapped - dram - ssd,
            ssd_pages: ssd,
            swapped_pages: r.swapped_pages(),
            major_faults: major.count(),
            major_p50_ns: major.quantile(0.5),
            major_p99_ns: major.quantile(0.99),
            major_p999_ns: major.quantile(0.999),
            swap_outs: sim.m.stats.swap_outs,
            swap_ins: sim.m.stats.swap_ins,
        });
    }
}

/// One per-tenant sample of a multi-tenant run.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct TenantSnapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// The tenant this row describes.
    pub tenant: TenantId,
    /// DRAM-resident pages across the tenant's managed regions.
    pub dram_pages: u64,
    /// NVM-resident pages across the tenant's managed regions.
    pub nvm_pages: u64,
    /// The tenant's DRAM quota in pages (whole tier when no arbiter).
    pub quota_pages: u64,
    /// Cumulative PEBS DRAM-load samples attributed to the tenant.
    pub dram_loads: u64,
    /// Cumulative PEBS NVM-load samples attributed to the tenant.
    pub nvm_loads: u64,
    /// Cumulative samples applied to the tenant's tracker.
    pub pebs_samples: u64,
}

impl Row for TenantSnapshot {
    type Scope = ();
    const HEADER: &'static str =
        "time_s,tenant,dram_pages,nvm_pages,quota_pages,dram_loads,nvm_loads,pebs_samples";

    fn write(&self, out: &mut String) {
        write_line(
            out,
            self.at,
            &[
                u64::from(self.tenant.0),
                self.dram_pages,
                self.nvm_pages,
                self.quota_pages,
                self.dram_loads,
                self.nvm_loads,
                self.pebs_samples,
            ],
        );
    }
}

/// Tenant rows read HeMem's per-tenant trackers and arbiter, so only a
/// HeMem run can take them.
impl Take<HeMem> for TenantSnapshot {
    fn take((): (), sim: &Sim<HeMem>, rows: &mut Vec<TenantSnapshot>) {
        let hemem = &sim.backend;
        for i in 0..hemem.tenant_count() {
            let t = TenantId(i as u32);
            let tf = sim.m.space.tenant_frames(t);
            let quota = hemem
                .arbiter()
                .map(|a| a.quota_pages(t))
                .unwrap_or_else(|| sim.m.dram_pool.total_pages());
            let (dram_loads, nvm_loads) = hemem.tenant_loads(t);
            rows.push(TenantSnapshot {
                at: sim.now(),
                tenant: t,
                dram_pages: tf.dram_pages,
                nvm_pages: tf.nvm_pages,
                quota_pages: quota,
                dram_loads,
                nvm_loads,
                pebs_samples: hemem.tenant_samples(t),
            });
        }
    }
}

/// One per-tier sample of device health and capacity under the failure
/// lifecycle.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct HealthSnapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// The tier this row describes.
    pub tier: Tier,
    /// Current health state (`Healthy`, `Degraded`, `Offline`).
    pub health: TierHealth,
    /// Bandwidth multiplier currently applied to the device (1.0 when
    /// healthy).
    pub throttle: f64,
    /// Free pages in the tier's pool.
    pub free_pages: u64,
    /// Allocated pages in the tier's pool.
    pub allocated_pages: u64,
    /// Pages retired for media errors.
    pub retired_pages: u64,
    /// Pages retired by degradation wear-shedding.
    pub health_retired_pages: u64,
    /// Cumulative media wear in bytes (NVM only; zero elsewhere).
    pub wear_bytes: u64,
}

impl Row for HealthSnapshot {
    type Scope = ();
    const HEADER: &'static str = "time_s,tier,health,throttle,free_pages,allocated_pages,\
         retired_pages,health_retired_pages,wear_bytes";

    fn write(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{:.3},{:?},{:?},{:.2},{},{},{},{},{}",
            self.at.as_secs_f64(),
            self.tier,
            self.health,
            self.throttle,
            self.free_pages,
            self.allocated_pages,
            self.retired_pages,
            self.health_retired_pages,
            self.wear_bytes
        );
    }
}

impl<B: TieredBackend> Take<B> for HealthSnapshot {
    fn take((): (), sim: &Sim<B>, rows: &mut Vec<HealthSnapshot>) {
        for &tier in sim.m.tiers() {
            let p = sim.m.pool(tier);
            let throttle = match tier {
                Tier::Ssd => sim.m.ssd.as_ref().map(|s| s.throttle()).unwrap_or(1.0),
                _ => sim.m.device(tier).throttle(),
            };
            let wear = if tier == Tier::Nvm {
                sim.m.nvm_wear_bytes()
            } else {
                0
            };
            rows.push(HealthSnapshot {
                at: sim.now(),
                tier,
                health: sim.m.tier_health(tier),
                throttle,
                free_pages: p.free_pages(),
                allocated_pages: p.allocated_pages(),
                retired_pages: p.retired_pages(),
                health_retired_pages: p.health_retired_pages(),
                wear_bytes: wear,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hemem::{HeMem, HeMemConfig};
    use crate::machine::MachineConfig;

    const GIB: u64 = 1 << 30;

    fn setup() -> (Sim<HeMem>, RegionId) {
        let mc = MachineConfig::small(1, 8);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(2 * GIB);
        sim.populate(id, true);
        (sim, id)
    }

    #[test]
    fn samples_on_period_boundaries_only() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(100));
        assert!(t.maybe_sample(&sim), "first call samples");
        assert!(!t.maybe_sample(&sim), "no time passed");
        sim.advance(Ns::millis(150));
        assert!(t.maybe_sample(&sim));
        assert_eq!(t.snapshots().len(), 2);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(50));
        t.maybe_sample(&sim);
        sim.advance(Ns::millis(60));
        t.maybe_sample(&sim);
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time_s,dram_pages,mapped_pages,swapped_pages,migrations,nvm_wear,ops,wp_stalls,\
             faults_injected,dma_fallbacks,migrations_failed,pages_retired,\
             manager_kills,journal_replays,journal_rollbacks,swap_rollbacks,\
             watchdog_restarts,audit_violations,\
             mig_p50_ns,mig_p99_ns,mig_p999_ns,mig_max_ns,\
             fault_p50_ns,fault_p99_ns,fault_p999_ns,fault_max_ns,\
             wp_p50_ns,wp_p99_ns,wp_p999_ns,wp_max_ns,\
             pebs_sample_period,pebs_drop_frac_milli"
        );
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn latency_percentile_columns_populate_after_faults() {
        // setup() populates the region, so the fault histogram has data by
        // the first sample; percentiles must be ordered and nonzero.
        let (sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(1));
        t.maybe_sample(&sim);
        let s = t.snapshots()[0];
        assert!(s.fault_p50_ns > 0, "populate faulted pages in");
        assert!(s.fault_p50_ns <= s.fault_p99_ns);
        assert!(s.fault_p99_ns <= s.fault_p999_ns);
        assert!(s.fault_p999_ns <= s.fault_max_ns);
    }

    #[test]
    fn recovery_columns_record_kills() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(10));
        t.maybe_sample(&sim);
        sim.inject_manager_kill();
        // Default watchdog is absent on a clean config, so arm recovery
        // by hand: the manager stays down until then.
        sim.advance(Ns::millis(15));
        t.maybe_sample(&sim);
        let snaps = t.snapshots();
        assert_eq!(snaps[0].manager_kills, 0);
        assert_eq!(snaps[1].manager_kills, 1);
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].contains(
            "manager_kills,journal_replays,journal_rollbacks,\
             swap_rollbacks,watchdog_restarts,audit_violations"
        ));
        // manager_kills..audit_violations occupy columns 12..=17.
        let fields: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(&fields[12..18], &["1", "0", "0", "0", "0", "0"]);
    }

    #[test]
    fn tenant_rows_cover_every_tenant_and_quotas_conserve() {
        use crate::arbiter::ArbiterPolicy;
        let mc = MachineConfig::small(1, 8);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::multi_tenant(hc, 2, ArbiterPolicy::StaticShares));
        sim.set_active_tenant(hemem_vmm::TenantId(0));
        let a = sim.mmap(GIB);
        sim.populate(a, true);
        sim.set_active_tenant(hemem_vmm::TenantId(1));
        let b = sim.mmap(GIB);
        sim.populate(b, true);
        let mut t = TenantTelemetry::new(Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        sim.advance(Ns::millis(15));
        assert!(t.maybe_sample(&sim));
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 4, "two tenants, two periods");
        let total = sim.m.dram_pool.total_pages();
        assert_eq!(snaps[0].quota_pages + snaps[1].quota_pages, total);
        assert!(snaps.iter().all(|s| s.dram_pages + s.nvm_pages > 0));
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time_s,tenant,dram_pages,nvm_pages,quota_pages,dram_loads,nvm_loads,pebs_samples"
        );
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn tier_telemetry_reports_three_tier_residency() {
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(4 * GIB); // 1 GiB over DRAM+NVM: spills via reclaim
        sim.populate(id, true);
        let mut t = TierTelemetry::new(id, Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        let s = t.snapshots()[0];
        assert_eq!(s.dram_pages + s.nvm_pages + s.ssd_pages, 2048);
        assert!(s.ssd_pages > 0, "overflow demoted to the SSD tier");
        assert_eq!(s.swapped_pages, 0, "tier-3 pages stay mapped");
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time_s,dram_pages,nvm_pages,ssd_pages,swapped_pages,\
             major_faults,major_p50_ns,major_p99_ns,major_p999_ns,swap_outs,swap_ins"
        );
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1].split(',').count(),
            lines[0].split(',').count(),
            "ragged row"
        );
    }

    #[test]
    fn health_rows_cover_every_tier_and_track_lifecycle() {
        use hemem_vmm::Tier;
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(GIB);
        sim.populate(id, true);
        let mut t = HealthTelemetry::new(Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        sim.inject_tier_degrade(Tier::Nvm);
        sim.advance(Ns::millis(15));
        assert!(t.maybe_sample(&sim));
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 6, "three tiers, two periods");
        let nvm0 = snaps[1];
        let nvm1 = snaps[4];
        assert_eq!(nvm0.tier, Tier::Nvm);
        assert_eq!(nvm0.health, crate::machine::TierHealth::Healthy);
        assert_eq!(nvm0.throttle, 1.0);
        assert_eq!(nvm1.health, crate::machine::TierHealth::Degraded);
        assert!(nvm1.throttle < 1.0);
        assert!(nvm1.health_retired_pages > 0, "degradation shed capacity");
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time_s,tier,health,throttle,free_pages,allocated_pages,\
             retired_pages,health_retired_pages,wear_bytes"
        );
        assert_eq!(lines.len(), 7);
        assert!(lines[5].contains("Degraded"));
    }

    #[test]
    fn wear_and_migration_counters_are_monotone() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(20));
        for _ in 0..20 {
            sim.advance(Ns::millis(25));
            t.maybe_sample(&sim);
        }
        let snaps = t.snapshots();
        for w in snaps.windows(2) {
            assert!(w[1].migrations >= w[0].migrations);
            assert!(w[1].nvm_wear >= w[0].nvm_wear);
            assert!(w[1].at > w[0].at);
        }
    }
}
