//! Mixed-tenant colocation scenarios.
//!
//! Several application drivers — GUPS, FlexKVS, Silo, BC — run
//! concurrently over one simulated machine, each as its own *tenant*:
//! its regions are tagged with a [`TenantId`], its PEBS samples feed its
//! own tracker, and its DRAM share is governed by the global arbiter
//! (`hemem_core::arbiter`). The builder assigns each tenant a contiguous
//! global thread-id range and multiplexes one event loop over all of
//! them, dispatching each `ThreadReady` back to the owning tenant's
//! driver for the next batch round.
//!
//! Determinism: every driver's batch generation is a pure function of
//! its configuration and the region geometry captured at setup — no RNG,
//! no residency reads — so a tenant's operation stream does not depend
//! on what its neighbours do, and a same-seed replay of a whole
//! colocated run is byte-identical. [`ColoResult`] carries per-tenant
//! stream hashes and a whole-run fingerprint so tests and benches can
//! assert both properties cheaply.

use hemem_core::backend::{AccessBatch, TieredBackend};
use hemem_core::runtime::{Event, Sim};
use hemem_sim::Ns;
use hemem_vmm::TenantId;

use crate::graph::{Bc, GraphConfig};
use crate::gups::{Gups, GupsConfig};
use crate::hash::StreamHash;
use crate::kvs::{Kvs, KvsConfig};
use crate::silo::{Silo, SiloConfig};

/// Which application a tenant runs.
#[derive(Debug, Clone)]
pub enum TenantKind {
    /// GUPS with the given configuration (hot-set or uniform).
    Gups(GupsConfig),
    /// FlexKVS. The colocated driver submits value/table rounds but
    /// skips the per-op latency probes (they draw machine RNG, which
    /// would entangle tenants' random streams).
    Kvs(KvsConfig),
    /// Silo/TPC-C.
    Silo(SiloConfig),
    /// GAP betweenness centrality, free-running chunk rounds.
    Bc(GraphConfig),
}

impl TenantKind {
    /// Worker threads this tenant contributes.
    pub fn threads(&self) -> u32 {
        match self {
            TenantKind::Gups(c) => c.threads,
            TenantKind::Kvs(c) => c.threads,
            TenantKind::Silo(c) => c.threads,
            TenantKind::Bc(c) => c.threads,
        }
    }

    /// Short label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            TenantKind::Gups(_) => "gups",
            TenantKind::Kvs(_) => "kvs",
            TenantKind::Silo(_) => "silo",
            TenantKind::Bc(_) => "bc",
        }
    }
}

/// One tenant in a colocation scenario.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display label (CSV rows, trace spans).
    pub label: String,
    /// The application and its configuration.
    pub kind: TenantKind,
}

impl TenantSpec {
    /// Creates a spec with the kind's default label.
    pub fn new(kind: TenantKind) -> TenantSpec {
        TenantSpec {
            label: kind.label().to_string(),
            kind,
        }
    }
}

/// A colocation scenario: the tenant mix and the shared run window.
#[derive(Debug, Clone)]
pub struct ColoConfig {
    /// The tenants, in [`TenantId`] order.
    pub tenants: Vec<TenantSpec>,
    /// Warm-up before measurement starts.
    pub warmup: Ns,
    /// Measurement window.
    pub duration: Ns,
}

/// Per-tenant outcome of a colocated run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's id.
    pub tenant: TenantId,
    /// The spec label.
    pub label: String,
    /// Operations completed during measurement (workload-specific
    /// units: GUPS updates, KVS ops, Silo txns, BC accesses).
    pub ops: u64,
    /// Operations per second over the measurement window.
    pub ops_per_sec: f64,
    /// Order-sensitive FNV-1a hash over every batch this tenant
    /// submitted — the tenant's operation stream identity.
    pub stream_hash: u64,
}

/// Outcome of a colocated run.
#[derive(Debug, Clone)]
pub struct ColoResult {
    /// Per-tenant outcomes, in tenant order.
    pub per_tenant: Vec<TenantOutcome>,
    /// FNV-1a hash over the global submission stream (tenant, thread,
    /// batch) in submission order — the whole run's replay identity.
    pub fingerprint: u64,
}

impl ColoResult {
    /// Sum of per-tenant ops (meaningful when the tenants share units,
    /// e.g. an all-GUPS mix).
    pub fn aggregate_ops(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.ops).sum()
    }
}

/// One instantiated tenant: driver plus thread-range bookkeeping.
enum Driver {
    Gups(Gups),
    Kvs(Kvs),
    Silo { silo: Silo, log_pages: u64 },
    Bc { bc: Bc, csr_pages: u64 },
}

impl Driver {
    /// Runs `kind`'s setup (region mapping, populate) on `sim` and
    /// captures the geometry later rounds need.
    fn setup<B: TieredBackend>(sim: &mut Sim<B>, kind: &TenantKind) -> Driver {
        match kind {
            TenantKind::Gups(c) => Driver::Gups(Gups::setup(sim, c.clone())),
            TenantKind::Kvs(c) => Driver::Kvs(Kvs::setup(sim, c.clone())),
            TenantKind::Silo(c) => {
                let silo = Silo::setup(sim, c.clone());
                let log_pages = sim.m.space.region(silo.log_region()).page_count();
                Driver::Silo { silo, log_pages }
            }
            TenantKind::Bc(c) => {
                let bc = Bc::setup(sim, c.clone());
                let csr_pages = sim.m.space.region(bc.csr_region()).page_count();
                Driver::Bc { bc, csr_pages }
            }
        }
    }

    /// The batches of one round for `local` (tenant-local thread id),
    /// and how many operations the round completes. Pure — see the
    /// module docs.
    fn round(&self, local: u32) -> (Vec<AccessBatch>, u64) {
        match self {
            Driver::Gups(g) => {
                let b = g.batch_for(local);
                let ops = b.count / 2; // each update = read + write
                (vec![b], ops)
            }
            Driver::Kvs(k) => {
                let (v, h) = k.batches();
                let ops = v.count;
                (vec![v, h], ops)
            }
            Driver::Silo { silo, log_pages } => {
                let (d, l) = silo.batch_for(local, *log_pages);
                let ops = l.count; // one log append per transaction
                (vec![d, l], ops)
            }
            Driver::Bc { bc, csr_pages } => {
                let batches = bc.round_batches(*csr_pages);
                let ops = batches.iter().map(|b| b.count).sum();
                (batches, ops)
            }
        }
    }
}

/// Sets up every tenant (regions tagged with its [`TenantId`]) and runs
/// the shared event loop for `warmup + duration`.
///
/// Thread ids: tenant `i` owns the contiguous global range
/// `[base_i, base_i + threads_i)` where `base_i` is the sum of earlier
/// tenants' thread counts. Each tenant's setup phase runs under
/// [`Sim::set_active_tenant`], so unmodified driver code tags its
/// regions; a `tenant_span` trace instant marks each tenant's range for
/// trace viewers.
pub fn run_colo<B: TieredBackend>(sim: &mut Sim<B>, cfg: &ColoConfig) -> ColoResult {
    run_colo_with(sim, cfg, |_| {})
}

/// [`run_colo`] with an observer called after every simulation event —
/// the hook for periodic samplers ([`hemem_core::telemetry`]) that need
/// to watch a colocated run without perturbing it.
pub fn run_colo_with<B: TieredBackend>(
    sim: &mut Sim<B>,
    cfg: &ColoConfig,
    mut observe: impl FnMut(&Sim<B>),
) -> ColoResult {
    assert!(!cfg.tenants.is_empty(), "need at least one tenant");
    // Setup phase, one tenant at a time.
    let mut drivers = Vec::with_capacity(cfg.tenants.len());
    let mut bases = Vec::with_capacity(cfg.tenants.len());
    let mut total_threads = 0u32;
    for (i, spec) in cfg.tenants.iter().enumerate() {
        sim.set_active_tenant(TenantId(i as u32));
        let driver = Driver::setup(sim, &spec.kind);
        bases.push(total_threads);
        total_threads += spec.kind.threads();
        drivers.push(driver);
    }
    sim.set_app_threads(total_threads);
    let now = sim.now();
    for (i, spec) in cfg.tenants.iter().enumerate() {
        sim.m.trace.instant(
            now,
            "tenant_span",
            "colo",
            &[
                ("tenant", i as u64),
                ("base_tid", bases[i] as u64),
                ("threads", spec.kind.threads() as u64),
            ],
        );
    }

    // Shared event loop.
    let owner = |tid: u32| -> usize {
        match bases.binary_search(&tid) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };
    for tid in 0..total_threads {
        sim.schedule_thread(now, tid);
    }
    let warm_end = now + cfg.warmup;
    let t_end = warm_end + cfg.duration;
    let n = cfg.tenants.len();
    let mut remaining = vec![0u32; total_threads as usize];
    let mut round_ops = vec![0u64; total_threads as usize];
    let mut ops = vec![0u64; n];
    let mut stream = vec![StreamHash::new(); n];
    let mut fingerprint = StreamHash::new();
    let mut live = total_threads;
    while live > 0 {
        let Some((step_now, ev)) = sim.step() else {
            break;
        };
        observe(sim);
        let Event::ThreadReady(tid) = ev else {
            continue;
        };
        let t = tid as usize;
        remaining[t] = remaining[t].saturating_sub(1);
        if remaining[t] > 0 {
            continue;
        }
        let ten = owner(tid);
        if round_ops[t] > 0 && step_now > warm_end {
            ops[ten] += round_ops[t];
        }
        round_ops[t] = 0;
        if step_now >= t_end {
            live -= 1;
            continue;
        }
        let local = tid - bases[ten];
        let (batches, completes) = drivers[ten].round(local);
        for b in &batches {
            stream[ten].record_pair(&mut fingerprint, format_args!("{ten}|{tid}|{b:?}"));
            sim.submit_batch(tid, b);
        }
        remaining[t] = batches.len() as u32;
        round_ops[t] = completes;
    }

    let secs = sim.now().saturating_sub(warm_end).as_secs_f64().max(1e-9);
    let per_tenant = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| TenantOutcome {
            tenant: TenantId(i as u32),
            label: spec.label.clone(),
            ops: ops[i],
            ops_per_sec: ops[i] as f64 / secs,
            stream_hash: stream[i].finish(),
        })
        .collect();
    ColoResult {
        per_tenant,
        fingerprint: fingerprint.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::arbiter::ArbiterPolicy;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;

    fn quick_gups(ws: u64, hot: u64) -> GupsConfig {
        let mut c = GupsConfig::paper(ws, hot);
        c.threads = 2;
        c.warmup = Ns::ZERO;
        c.duration = Ns::ZERO;
        c.batch_ops = 50_000;
        c
    }

    fn colo_cfg(tenants: Vec<TenantSpec>) -> ColoConfig {
        ColoConfig {
            tenants,
            warmup: Ns::millis(500),
            duration: Ns::secs(2),
        }
    }

    fn machine() -> MachineConfig {
        let mut mc = MachineConfig::small(2, 8);
        mc.pebs.sample_period *= 96;
        mc
    }

    fn run(policy: ArbiterPolicy, tenants: Vec<TenantSpec>) -> ColoResult {
        let mc = machine();
        let hc = HeMemConfig::scaled_for(&mc);
        let n = tenants.len();
        let mut sim = Sim::new(mc, HeMem::multi_tenant(hc, n, policy));
        run_colo(&mut sim, &colo_cfg(tenants))
    }

    fn gups_kvs_mix() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(TenantKind::Gups(quick_gups(GIB, 256 << 20))),
            TenantSpec::new(TenantKind::Kvs({
                let mut c = KvsConfig::paper(GIB);
                c.threads = 2;
                c
            })),
        ]
    }

    /// Pinned across driver rewrites: captured from the driver that
    /// formatted each `"{tenant}|{tid}|{batch:?}"` record into a
    /// `String`.
    #[test]
    fn colo_hashes_match_the_formatted_record_driver() {
        let r = run(ArbiterPolicy::StaticShares, gups_kvs_mix());
        assert_eq!(r.fingerprint, 0xb779c26680f0df5d);
        let streams: Vec<u64> = r.per_tenant.iter().map(|t| t.stream_hash).collect();
        assert_eq!(streams, [0xc75ad42120baf705, 0x676fda2f718cc07d]);
    }

    #[test]
    fn two_tenant_run_replays_byte_identically() {
        let mix = gups_kvs_mix;
        let a = run(ArbiterPolicy::StaticShares, mix());
        let b = run(ArbiterPolicy::StaticShares, mix());
        assert_eq!(a.fingerprint, b.fingerprint, "replay fingerprints");
        for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
            assert_eq!(x.stream_hash, y.stream_hash, "{} stream", x.label);
            assert_eq!(x.ops, y.ops, "{} ops", x.label);
        }
        assert!(a.per_tenant.iter().all(|t| t.ops > 0), "both made progress");
    }

    #[test]
    fn mixed_three_tenant_scenario_runs_clean() {
        let mut silo = SiloConfig::paper(2);
        silo.threads = 2;
        silo.warmup = Ns::ZERO;
        silo.duration = Ns::ZERO;
        let mut bc = GraphConfig::paper(20);
        bc.threads = 2;
        let tenants = vec![
            TenantSpec::new(TenantKind::Gups(quick_gups(GIB, 128 << 20))),
            TenantSpec::new(TenantKind::Silo(silo)),
            TenantSpec::new(TenantKind::Bc(bc)),
        ];
        let mc = machine();
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(
            mc,
            HeMem::multi_tenant(hc, 3, ArbiterPolicy::GreedyMissRatio),
        );
        let res = run_colo(&mut sim, &colo_cfg(tenants));
        assert_eq!(res.per_tenant.len(), 3);
        assert!(res.per_tenant.iter().all(|t| t.ops > 0));
        // Every region belongs to exactly one tenant and the tenant-scoped
        // audit is clean.
        assert_eq!(sim.run_audit(false), Vec::new());
        let tenants_seen = sim.m.space.tenants();
        assert_eq!(tenants_seen.len(), 3);
    }

    /// Canonical form of a batch sequence with region ids replaced by
    /// first-seen ordinals, so the same driver's stream compares equal
    /// across address spaces laid out differently (alone vs colocated).
    fn canon(batches: &[AccessBatch]) -> String {
        let mut ords: std::collections::HashMap<u32, usize> = Default::default();
        let mut out = String::new();
        for b in batches {
            for s in &b.segments {
                let next = ords.len();
                let ord = *ords.entry(s.region.0).or_insert(next);
                out.push_str(&format!(
                    "r{ord}[{}..{}]w{:.6}l{}f{:?};",
                    s.lo_page, s.hi_page, s.weight, s.llc_footprint, s.write_fraction
                ));
            }
            out.push_str(&format!(
                "c{}o{}w{:.6}p{:?}cpu{:.3}m{:.3}s{}|",
                b.count,
                b.object_size,
                b.write_fraction,
                b.pattern,
                b.cpu_ns_per_access,
                b.mlp,
                b.sweep
            ));
        }
        out
    }

    fn test_kinds() -> Vec<TenantKind> {
        let mut kvs = KvsConfig::paper(GIB);
        kvs.threads = 2;
        let mut silo = SiloConfig::paper(2);
        silo.threads = 2;
        silo.warmup = Ns::ZERO;
        silo.duration = Ns::ZERO;
        let mut bc = GraphConfig::paper(20);
        bc.threads = 2;
        vec![
            TenantKind::Kvs(kvs),
            TenantKind::Silo(silo),
            TenantKind::Bc(bc),
        ]
    }

    /// First-round batches for `kind` set up alone on a fresh solo
    /// machine (both worker threads).
    fn solo_rounds(kind: &TenantKind) -> Vec<AccessBatch> {
        let mc = machine();
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let d = Driver::setup(&mut sim, kind);
        let mut all = d.round(0).0;
        all.extend(d.round(1).0);
        all
    }

    #[test]
    fn seeded_driver_streams_replay_identically() {
        for kind in test_kinds() {
            let a = solo_rounds(&kind);
            let b = solo_rounds(&kind);
            // Same seed, same config: identical down to the raw Debug
            // form, region ids included.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{} stream differs across identical runs",
                kind.label()
            );
        }
    }

    #[test]
    fn tenant_batch_content_is_isolated_under_static_shares() {
        for kind in test_kinds() {
            let alone = canon(&solo_rounds(&kind));
            // Same driver as tenant 1 behind a GUPS neighbour under a
            // static-share arbiter: different address-space layout and
            // contended DRAM, same operation stream.
            let mc = machine();
            let hc = HeMemConfig::scaled_for(&mc);
            let mut sim = Sim::new(mc, HeMem::multi_tenant(hc, 2, ArbiterPolicy::StaticShares));
            sim.set_active_tenant(TenantId(0));
            let _gups = Driver::setup(&mut sim, &TenantKind::Gups(quick_gups(GIB, 256 << 20)));
            sim.set_active_tenant(TenantId(1));
            let d = Driver::setup(&mut sim, &kind);
            let mut colocated = d.round(0).0;
            colocated.extend(d.round(1).0);
            assert_eq!(
                alone,
                canon(&colocated),
                "{} stream changed when colocated",
                kind.label()
            );
        }
    }
}
