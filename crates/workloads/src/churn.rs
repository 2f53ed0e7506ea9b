//! Tenant-churn scenarios: open-loop arrival, seeded kills, and
//! mid-run ballooning over one simulated machine.
//!
//! Where [`crate::colo`] sets every tenant up before the event loop
//! starts, churn runs model a host whose tenant set is a *schedule*:
//! slots join mid-run through the manager's admission control
//! ([`hemem_core::hemem::HeMem::admit_tenant`]), die on the fault
//! plan's seeded kill schedule
//! ([`hemem_sim::FaultPlanConfig::tenant_kill_at`]), and shrink under
//! balloon pressure ([`hemem_core::hemem::HeMem::balloon_tenant`]).
//!
//! Arriving tenants are **demand paged**: setup maps the region but
//! does not populate it, so the tenant's first rounds of batches fault
//! their pages in through the normal first-touch path while the
//! neighbours keep running — exactly what a freshly exec'd process
//! does, and it keeps the shared event loop free of the bulk-fill
//! fast-forwarding that solo setup uses.
//!
//! Determinism matches the colocation contract: every tenant's batch
//! stream is a pure function of its spec, arrival and kill times come
//! from explicit schedules (no RNG stream is consumed), and
//! [`ChurnResult::fingerprint`] hashes the global submission stream so
//! a same-seed replay can be asserted byte-identical.

use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::HeMem;
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::Pattern;
use hemem_sim::Ns;
use hemem_vmm::TenantId;

use crate::hash::StreamHash;

/// A scheduled quota shrink for one tenant.
#[derive(Debug, Clone, Copy)]
pub struct BalloonOp {
    /// When the balloon is requested.
    pub at: Ns,
    /// Target quota, in managed pages.
    pub target_pages: u64,
    /// Drain deadline, relative to `at`; past it the manager escalates
    /// to forced swap-out.
    pub grace: Ns,
}

/// One tenant slot in a churn schedule. Slot `i` of the spec vector is
/// [`TenantId`] `i`; kills are configured separately on the machine's
/// fault plan so the kill path is exercised end to end (event,
/// quarantine, DMA quiescence, drain).
#[derive(Debug, Clone)]
pub struct ChurnTenantSpec {
    /// Display label.
    pub label: String,
    /// When the tenant arrives (admission + mmap; demand paging after).
    pub arrive: Ns,
    /// Optional mid-run quota shrink.
    pub balloon: Option<BalloonOp>,
    /// Working-set bytes.
    pub working_set: u64,
    /// Hot-set bytes (`0` = uniform).
    pub hot_set: u64,
    /// Worker threads.
    pub threads: u32,
    /// Updates per batch per thread.
    pub batch_ops: u64,
    /// Store fraction of the access mix.
    pub write_fraction: f64,
}

/// A churn scenario: the slot schedule and the shared run window.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Tenant slots in [`TenantId`] order.
    pub tenants: Vec<ChurnTenantSpec>,
    /// End of the run; threads retire at the first round boundary past
    /// it.
    pub end: Ns,
}

/// Per-tenant outcome of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// The tenant's slot id.
    pub tenant: TenantId,
    /// The spec label.
    pub label: String,
    /// Whether admission control accepted the slot.
    pub admitted: bool,
    /// Whether the tenant was still live (not killed) at the end.
    pub survived: bool,
    /// Operations completed between arrival and kill/end.
    pub ops: u64,
    /// Order-sensitive FNV-1a hash over the tenant's submitted batches.
    pub stream_hash: u64,
    /// Major faults (tier-3 swap-ins) this tenant served.
    pub major_faults: u64,
    /// p99 major-fault service time, ns (`0` when none occurred).
    pub major_p99_ns: u64,
}

/// Outcome of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Per-tenant outcomes, in slot order.
    pub per_tenant: Vec<ChurnOutcome>,
    /// FNV-1a hash over the global submission stream — the whole run's
    /// replay identity.
    pub fingerprint: u64,
}

/// Per-tenant driver state once arrived: region geometry and per-thread
/// partitions (a GUPS-style hot/cold split; pure batch generation).
struct Arrived {
    region: hemem_vmm::RegionId,
    per: u64,
    total_pages: u64,
    hot_pages_per: u64,
}

impl Arrived {
    fn batch_for(&self, spec: &ChurnTenantSpec, local: u32) -> AccessBatch {
        let t = local as u64;
        let lo = t * self.per;
        let hi = if t == spec.threads as u64 - 1 {
            self.total_pages
        } else {
            lo + self.per
        };
        let hot_lo = lo + (self.per.saturating_sub(self.hot_pages_per)) / 3;
        let hot_hi = (hot_lo + self.hot_pages_per).min(hi);
        let mut segments = Vec::with_capacity(2);
        if spec.hot_set > 0 && hot_hi > hot_lo {
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: hot_lo,
                hi_page: hot_hi,
                weight: 0.9,
                llc_footprint: spec.hot_set.max(1),
                write_fraction: None,
            });
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: lo,
                hi_page: hi,
                weight: 0.1,
                llc_footprint: spec.working_set,
                write_fraction: None,
            });
        } else {
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: lo,
                hi_page: hi,
                weight: 1.0,
                llc_footprint: spec.working_set,
                write_fraction: None,
            });
        }
        AccessBatch {
            segments,
            count: spec.batch_ops * 2, // each update = read + write
            object_size: 8,
            write_fraction: spec.write_fraction,
            pattern: Pattern::Random,
            cpu_ns_per_access: 2.0,
            mlp: 4.0,
            sweep: false,
        }
    }
}

/// Runs the churn schedule over `sim`. Kills must already be planted in
/// the machine's fault plan (`tenant_kill_at`); this runner notices them
/// by polling tenant liveness at round boundaries and retiring the dead
/// tenant's threads. The backend must have been built with spare slots
/// ([`HeMem::churn`]) or admission will reject every arrival.
pub fn run_churn(sim: &mut Sim<HeMem>, cfg: &ChurnConfig) -> ChurnResult {
    assert!(!cfg.tenants.is_empty(), "need at least one tenant slot");
    let n = cfg.tenants.len();
    // Global thread-id ranges are fixed by the spec, not arrival order.
    let mut bases = Vec::with_capacity(n);
    let mut total_threads = 0u32;
    for spec in &cfg.tenants {
        bases.push(total_threads);
        total_threads += spec.threads;
    }
    let owner = |tid: u32| -> usize {
        match bases.binary_search(&tid) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };

    // Schedule arrivals and balloons as workload timer events; the tag
    // encodes (slot, op kind).
    let mut op_count = 0usize;
    for (i, spec) in cfg.tenants.iter().enumerate() {
        sim.schedule_custom(spec.arrive, (i as u64) << 1);
        op_count += 1;
        if let Some(b) = &spec.balloon {
            assert!(b.at >= spec.arrive, "balloon before arrival");
            sim.schedule_custom(b.at, ((i as u64) << 1) | 1);
            op_count += 1;
        }
    }

    let mut arrived: Vec<Option<Arrived>> = (0..n).map(|_| None).collect();
    let mut admitted = vec![false; n];
    let mut ops = vec![0u64; n];
    let mut stream = vec![StreamHash::new(); n];
    let mut fingerprint = StreamHash::new();
    let mut round_ops = vec![0u64; total_threads as usize];
    let mut live_threads = 0u32;

    while live_threads > 0 || op_count > 0 {
        let Some((now, ev)) = sim.step() else {
            break;
        };
        match ev {
            Event::Custom(tag) => {
                op_count -= 1;
                let i = (tag >> 1) as usize;
                let t = TenantId(i as u32);
                let spec = &cfg.tenants[i];
                if tag & 1 == 0 {
                    // Arrival: admission, then a bare mmap — pages fault
                    // in on first touch from the batches below.
                    match sim.backend.admit_tenant(&mut sim.m, t, now) {
                        Ok(_granted) => {}
                        Err(_) => continue, // rejected; slot never runs
                    }
                    admitted[i] = true;
                    sim.set_active_tenant(t);
                    let region = sim.mmap(spec.working_set);
                    let (page_bytes, total_pages) = {
                        let r = sim.m.space.region(region);
                        (r.page_size().bytes(), r.page_count())
                    };
                    let threads = spec.threads.max(1) as u64;
                    let per = total_pages / threads;
                    let hot_pages_per = (spec.hot_set / threads).div_ceil(page_bytes).min(per);
                    arrived[i] = Some(Arrived {
                        region,
                        per,
                        total_pages,
                        hot_pages_per,
                    });
                    for local in 0..spec.threads {
                        sim.schedule_thread(now, bases[i] + local);
                    }
                    live_threads += spec.threads;
                    sim.set_app_threads(live_threads);
                } else if admitted[i] && sim.backend.tenant_is_live(t) {
                    let deadline =
                        Ns(now.as_nanos() + spec.balloon.expect("scheduled").grace.as_nanos());
                    sim.backend.balloon_tenant(
                        &mut sim.m,
                        t,
                        spec.balloon.expect("scheduled").target_pages,
                        deadline,
                        now,
                    );
                }
            }
            Event::ThreadReady(tid) => {
                let i = owner(tid);
                let t = tid as usize;
                ops[i] += round_ops[t];
                round_ops[t] = 0;
                // A killed tenant's threads retire at the next round
                // boundary; so does everyone once the window closes.
                if now >= cfg.end || !sim.backend.tenant_is_live(TenantId(i as u32)) {
                    live_threads -= 1;
                    sim.set_app_threads(live_threads.max(1));
                    continue;
                }
                let spec = &cfg.tenants[i];
                let a = arrived[i].as_ref().expect("ready implies arrived");
                let b = a.batch_for(spec, tid - bases[i]);
                stream[i].record_pair(&mut fingerprint, format_args!("{i}|{tid}|{b:?}"));
                sim.submit_batch(tid, &b);
                round_ops[t] = spec.batch_ops;
            }
            _ => unreachable!("step only returns workload events"),
        }
    }

    let per_tenant = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let t = TenantId(i as u32);
            let generation = sim.m.space.tenant_generation(t);
            let hist = sim.m.tenant_major_faults.get(&(i as u32, generation));
            ChurnOutcome {
                tenant: t,
                label: spec.label.clone(),
                admitted: admitted[i],
                survived: admitted[i] && sim.backend.tenant_is_live(t),
                ops: ops[i],
                stream_hash: stream[i].finish(),
                major_faults: hist.map_or(0, |h| h.count()),
                major_p99_ns: hist.map_or(0, |h| h.quantile(0.99)),
            }
        })
        .collect();
    ChurnResult {
        per_tenant,
        fingerprint: fingerprint.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::arbiter::ArbiterPolicy;
    use hemem_core::hemem::HeMemConfig;
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;
    use hemem_sim::TenantKill;

    fn spec(label: &str, arrive: Ns, ws: u64) -> ChurnTenantSpec {
        ChurnTenantSpec {
            label: label.to_string(),
            arrive,
            balloon: None,
            working_set: ws,
            hot_set: ws / 4,
            threads: 2,
            batch_ops: 50_000,
            write_fraction: 0.5,
        }
    }

    fn churn_sim(slots: usize) -> Sim<HeMem> {
        let mut mc = MachineConfig::small(2, 8).with_tier3(32 * GIB);
        mc.pebs.sample_period *= 96;
        mc.chaos.tenant_kill_at = vec![TenantKill {
            tenant: 1,
            at: Ns::secs(2),
        }];
        let hc = HeMemConfig::scaled_for(&mc);
        Sim::new(mc, HeMem::churn(hc, slots, ArbiterPolicy::GreedyMissRatio))
    }

    fn plan() -> ChurnConfig {
        let mut victim = spec("victim", Ns::millis(500), GIB);
        victim.balloon = None;
        let mut ballooned = spec("ballooned", Ns::millis(200), GIB);
        ballooned.balloon = Some(BalloonOp {
            at: Ns::secs(1),
            target_pages: 64,
            grace: Ns::millis(500),
        });
        ChurnConfig {
            tenants: vec![spec("anchor", Ns::ZERO, GIB), victim, ballooned],
            end: Ns::secs(4),
        }
    }

    /// Pinned across driver rewrites: captured from the driver that
    /// formatted each `"{i}|{tid}|{batch:?}"` record into a `String`.
    #[test]
    fn churn_hashes_match_the_formatted_record_driver() {
        let mut sim = churn_sim(3);
        let r = run_churn(&mut sim, &plan());
        assert_eq!(r.fingerprint, 0xd96f61b675a43e6b);
        let streams: Vec<u64> = r.per_tenant.iter().map(|t| t.stream_hash).collect();
        assert_eq!(
            streams,
            [0x39783ce99757abf1, 0x95c4e695d4183539, 0xa69c1fb6c5fb6f59]
        );
    }

    #[test]
    fn churn_run_replays_byte_identically_and_drains_the_killed_tenant() {
        let mut a_sim = churn_sim(3);
        let a = run_churn(&mut a_sim, &plan());
        let mut b_sim = churn_sim(3);
        let b = run_churn(&mut b_sim, &plan());
        assert_eq!(a.fingerprint, b.fingerprint, "replay fingerprint");
        for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
            assert_eq!(x.stream_hash, y.stream_hash, "{} stream", x.label);
            assert_eq!(x.ops, y.ops, "{} ops", x.label);
        }
        // The seeded kill removed tenant 1 and reclaimed its frames.
        assert!(a.per_tenant[0].survived && a.per_tenant[2].survived);
        assert!(!a.per_tenant[1].survived, "victim was killed at 2 s");
        assert!(a_sim.backend.tenant_is_retired(TenantId(1)));
        let tf = a_sim.m.space.tenant_frames(TenantId(1));
        assert_eq!(
            tf.dram_pages + tf.nvm_pages + tf.ssd_pages,
            0,
            "no frames leaked past the drain"
        );
        // Survivors made progress before and after the kill.
        assert!(a.per_tenant[0].ops > 0 && a.per_tenant[2].ops > 0);
        assert_eq!(a_sim.run_audit(false), Vec::new());
    }
}
