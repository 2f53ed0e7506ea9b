//! Fleet-scale tenant churn: a seeded open-loop arrival process over
//! the slot-pooled control plane.
//!
//! Where [`crate::churn`] drives a handful of hand-written tenant specs
//! through one join/kill/balloon schedule, fleet runs model a *host in
//! a fleet*: hundreds to thousands of short-lived tenant instances
//! arriving on a Poisson process with heavy-tailed (Pareto) lifetimes —
//! the canonical serverless/μ-service shape, where most instances die
//! young but a fat tail lives orders of magnitude longer. Every arrival
//! claims a slot from the manager's [`hemem_core::SlotPool`]
//! (admission = claim + deterministic reset), runs demand-paged batches
//! until its sampled lifetime expires, is killed, drained, and its slot
//! scrubbed and recycled for a later arrival.
//!
//! Determinism: the whole arrival/lifetime schedule is pre-generated
//! from one seeded [`hemem_sim::Rng`] *before* the event loop starts,
//! so the machine's own RNG streams are untouched and a same-seed
//! replay is byte-identical. Arrivals that find no free slot (or no
//! admittable quota) are shed open-loop — counted, never queued — so
//! occupancy feedback cannot leak timing into the schedule.
//!
//! The driver charges each spawn a simulated setup latency from
//! [`hemem_core::spawn_cost_ns`] between admission and first touch;
//! the cost model is a config knob *separate from* the pool's spawn
//! mechanism so `fleetbench` can flip the mechanism while charging both
//! runs the same cost (identity gate) or flip both together
//! (speedup gate).
//!
//! Per-slot batch cache: an instance submits the same batch every
//! round, since [`batch_for`] reads only its region, page counts and
//! the config, all fixed when it starts. So the driver builds the batch and formats the round's
//! stream record `"{idx}|{batch:?}"` once, when the instance starts,
//! into a cache with one entry per pool slot, tagged with the owning
//! admission index. Each round then hashes the cached bytes and submits
//! the cached batch: no batch construction, formatting or allocation per
//! round. A slot's next occupant overwrites the entry (reusing its
//! buffer), so the cache is bounded by the pool, not by the number of
//! instances a run admits. The hashed bytes themselves must never
//! change: the benchmark's `perfbench/expected.json` pins the fleet
//! stream hash for its seeds, and a unit test pins the small fleet's
//! fingerprint.

use std::fmt::Write as _;

use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::HeMem;
use hemem_core::runtime::{Event, Sim};
use hemem_core::spawn_cost_ns;
use hemem_memdev::Pattern;
use hemem_sim::{Histogram, Ns, Rng};
use hemem_vmm::{RegionId, TenantId};

use crate::hash::StreamHash;

/// A fleet scenario: the arrival process, the lifetime distribution,
/// and the per-instance workload shape.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed for the schedule generator (independent of the machine's
    /// seed; two runs with equal seeds get byte-identical schedules).
    pub seed: u64,
    /// Tenant instance arrivals to generate (offered load; admitted can
    /// be lower under shedding).
    pub arrivals: u64,
    /// Poisson arrival rate, instances per simulated second.
    pub arrivals_per_sec: f64,
    /// Pareto lifetime scale `x_m` — the minimum lifetime.
    pub lifetime_scale: Ns,
    /// Pareto tail index α (1 < α < 2 gives the heavy tail where a few
    /// instances live orders of magnitude past the median).
    pub lifetime_alpha: f64,
    /// Lifetime clamp so one tail sample cannot dominate the run.
    pub lifetime_cap: Ns,
    /// Per-instance working set, bytes (demand paged on first touch).
    pub working_set: u64,
    /// Per-instance hot set, bytes (`0` = uniform).
    pub hot_set: u64,
    /// Updates per batch.
    pub batch_ops: u64,
    /// Store fraction of the access mix.
    pub write_fraction: f64,
    /// Which spawn *cost* to charge between admission and first touch
    /// (decoupled from the pool's spawn mechanism; see module docs).
    pub charge_pooled_cost: bool,
    /// Slot working-set pages used by the scratch-spawn cost model.
    pub slot_pages: u64,
}

impl FleetConfig {
    /// The default fleetbench scenario at a given offered-arrival count.
    pub fn gate(arrivals: u64) -> FleetConfig {
        FleetConfig {
            seed: 0xF1EE7,
            arrivals,
            arrivals_per_sec: 400.0,
            lifetime_scale: Ns::millis(20),
            lifetime_alpha: 1.3,
            lifetime_cap: Ns::secs(2),
            working_set: 128 << 20,
            hot_set: 32 << 20,
            batch_ops: 20_000,
            write_fraction: 0.3,
            charge_pooled_cost: true,
            slot_pages: 4096,
        }
    }
}

/// One tenant instance's outcome.
#[derive(Debug, Clone, Copy)]
pub struct LifetimeOutcome {
    /// The slot the instance occupied.
    pub slot: TenantId,
    /// The slot generation it ran as.
    pub generation: u32,
    /// Arrival (admission) time.
    pub arrival: Ns,
    /// Admission → first demand-paging touch of the working set
    /// (includes the charged spawn cost).
    pub spawn_to_first_touch: Ns,
    /// Operations completed over the lifetime.
    pub ops: u64,
    /// Major faults (tier-3 swap-ins) served for this generation.
    pub major_faults: u64,
    /// p99 major-fault service time, ns (`0` when none occurred).
    pub major_p99_ns: u64,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Arrivals generated (offered load).
    pub offered: u64,
    /// Arrivals admitted (slot claimed, quota granted).
    pub admitted: u64,
    /// Arrivals shed (no free slot / quota floor unsatisfiable).
    pub shed: u64,
    /// Operations completed across every instance.
    pub total_ops: u64,
    /// End of the last lifetime (run length for throughput math).
    pub end: Ns,
    /// Order-sensitive FNV-1a hash over admissions, sheds, and every
    /// submitted batch — the run's replay identity.
    pub fingerprint: u64,
    /// Admission → first touch latency distribution over admitted
    /// instances.
    pub spawn_hist: Histogram,
    /// Per-instance outcomes, in admission order.
    pub lifetimes: Vec<LifetimeOutcome>,
}

impl FleetResult {
    /// Aggregate throughput in operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.end.as_nanos() as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ops as f64 / secs
        }
    }

    /// Worst per-instance major-fault p99 across the fleet, ns.
    pub fn worst_major_p99_ns(&self) -> u64 {
        self.lifetimes
            .iter()
            .map(|l| l.major_p99_ns)
            .max()
            .unwrap_or(0)
    }
}

/// One pre-generated arrival.
#[derive(Debug, Clone, Copy)]
struct Planned {
    at: Ns,
    lifetime: Ns,
}

/// Per-admitted-instance driver state.
struct Instance {
    slot: TenantId,
    generation: u32,
    arrival: Ns,
    first_touch: Option<Ns>,
    ops: u64,
}

/// Generates the arrival schedule: exponential interarrivals at
/// `arrivals_per_sec`, Pareto(α, x_m) lifetimes clamped to the cap.
fn schedule(cfg: &FleetConfig) -> Vec<Planned> {
    let mut rng = Rng::new(cfg.seed);
    let mut at = 0u64;
    (0..cfg.arrivals)
        .map(|_| {
            let gap = rng.exponential(1e9 / cfg.arrivals_per_sec).round() as u64;
            at += gap.max(1);
            // Inverse-CDF Pareto: x_m * U^(-1/α).
            let u = rng.gen_f64().max(1e-12);
            let life = cfg.lifetime_scale.as_nanos() as f64 * u.powf(-1.0 / cfg.lifetime_alpha);
            let life = (life.round() as u64).min(cfg.lifetime_cap.as_nanos());
            Planned {
                at: Ns(at),
                lifetime: Ns(life.max(1)),
            }
        })
        .collect()
}

/// A slot's cached round: the running instance's batch and the bytes
/// each of its rounds hashes (`"{idx}|{batch:?}"`), tagged with the
/// instance's admission index `idx`.
struct SlotBatch {
    owner: usize,
    batch: AccessBatch,
    record: String,
}

/// The batch an instance submits every round, over its working-set
/// region of `total_pages` pages, `hot_pages` of them hot.
fn batch_for(region: RegionId, total_pages: u64, hot_pages: u64, cfg: &FleetConfig) -> AccessBatch {
    let mut segments = Vec::with_capacity(2);
    if cfg.hot_set > 0 && hot_pages > 0 {
        let hot_lo = (total_pages - hot_pages) / 3;
        segments.push(SegmentAccess {
            region,
            lo_page: hot_lo,
            hi_page: hot_lo + hot_pages,
            weight: 0.9,
            llc_footprint: cfg.hot_set.max(1),
            write_fraction: None,
        });
        segments.push(SegmentAccess {
            region,
            lo_page: 0,
            hi_page: total_pages,
            weight: 0.1,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        });
    } else {
        segments.push(SegmentAccess {
            region,
            lo_page: 0,
            hi_page: total_pages,
            weight: 1.0,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        });
    }
    AccessBatch {
        segments,
        count: cfg.batch_ops * 2, // each update = read + write
        object_size: 8,
        write_fraction: cfg.write_fraction,
        pattern: Pattern::Random,
        cpu_ns_per_access: 2.0,
        mlp: 4.0,
        sweep: false,
    }
}

// Custom-event tags: (instance index << 2) | kind.
const KIND_ARRIVAL: u64 = 0;
const KIND_START: u64 = 1;
const KIND_DEPART: u64 = 2;

/// Runs the fleet scenario over `sim`. The backend must have been built
/// with deferred slots ([`HeMem::churn`]) — every arrival goes through
/// admission control and the slot pool. Each admitted instance runs one
/// driver thread whose id is its admission index, so a recycled slot's
/// next occupant never aliases its predecessor's in-flight rounds.
pub fn run_fleet(sim: &mut Sim<HeMem>, cfg: &FleetConfig) -> FleetResult {
    run_fleet_with(sim, cfg, |_| {})
}

/// [`run_fleet`] with an observer called after every simulation event —
/// the hook for periodic samplers ([`hemem_core::telemetry`]) that need
/// to watch a fleet run without perturbing it.
pub fn run_fleet_with(
    sim: &mut Sim<HeMem>,
    cfg: &FleetConfig,
    mut observe: impl FnMut(&Sim<HeMem>),
) -> FleetResult {
    assert!(cfg.arrivals > 0, "need at least one arrival");
    let plan = schedule(cfg);
    let mut fingerprint = StreamHash::new();

    // Arrival events carry the *plan* index; start/depart events carry
    // the *admission* index (an instance only exists once admitted).
    let mut op_count = 0usize;
    for (k, p) in plan.iter().enumerate() {
        sim.schedule_custom(p.at, ((k as u64) << 2) | KIND_ARRIVAL);
        op_count += 1;
    }

    let mut instances: Vec<Instance> = Vec::new();
    // Admission index currently running on each slot (drives thread
    // retirement: a round whose instance lost its slot retires).
    let slots = sim.backend.slot_pool().len();
    let mut occupant: Vec<Option<usize>> = vec![None; slots];
    // The batch each slot's running instance submits every round, built
    // and Debug-formatted once at its start (see module docs).
    let mut cached: Vec<Option<SlotBatch>> = (0..slots).map(|_| None).collect();
    let mut shed = 0u64;
    let mut live_threads = 0u32;
    let mut end = Ns::ZERO;

    while live_threads > 0 || op_count > 0 {
        let Some((now, ev)) = sim.step() else {
            break;
        };
        end = end.max(now);
        match ev {
            Event::Custom(tag) => {
                op_count -= 1;
                let idx = (tag >> 2) as usize;
                match tag & 3 {
                    KIND_ARRIVAL => {
                        let Some(t) = sim.backend.slot_pool().next_free() else {
                            shed += 1;
                            fingerprint.record(format_args!("shed|{idx}"));
                            continue;
                        };
                        if sim.backend.admit_tenant(&mut sim.m, t, now).is_err() {
                            shed += 1;
                            fingerprint.record(format_args!("shed|{idx}"));
                            continue;
                        }
                        let a = instances.len();
                        let generation = sim.m.space.tenant_generation(t);
                        instances.push(Instance {
                            slot: t,
                            generation,
                            arrival: now,
                            first_touch: None,
                            ops: 0,
                        });
                        occupant[t.0 as usize] = Some(a);
                        fingerprint.record(format_args!("admit|{idx}|{a}|{}|{generation}", t.0));
                        // The spawn cost separates admission from first
                        // touch: slot claim vs from-scratch rebuild.
                        let cost = spawn_cost_ns(cfg.charge_pooled_cost, cfg.slot_pages);
                        sim.schedule_custom(
                            Ns(now.as_nanos() + cost),
                            ((a as u64) << 2) | KIND_START,
                        );
                        // The lifetime clock starts at admission.
                        sim.schedule_custom(
                            Ns(now.as_nanos() + cost + plan[idx].lifetime.as_nanos()),
                            ((a as u64) << 2) | KIND_DEPART,
                        );
                        op_count += 2;
                    }
                    KIND_START => {
                        let t = instances[idx].slot;
                        sim.set_active_tenant(t);
                        let region = sim.mmap(cfg.working_set);
                        let (page_bytes, total_pages) = {
                            let r = sim.m.space.region(region);
                            (r.page_size().bytes(), r.page_count())
                        };
                        let hot_pages = cfg.hot_set.div_ceil(page_bytes).min(total_pages);
                        let batch = batch_for(region, total_pages, hot_pages, cfg);
                        let slot = &mut cached[t.0 as usize];
                        let mut record = slot.take().map_or_else(String::new, |c| c.record);
                        record.clear();
                        write!(record, "{idx}|{batch:?}").expect("formatting into a String");
                        *slot = Some(SlotBatch {
                            owner: idx,
                            batch,
                            record,
                        });
                        sim.schedule_thread(now, idx as u32);
                        live_threads += 1;
                        sim.set_app_threads(live_threads);
                    }
                    KIND_DEPART => {
                        let inst = &instances[idx];
                        if occupant[inst.slot.0 as usize] == Some(idx)
                            && sim.backend.tenant_is_live(inst.slot)
                        {
                            sim.inject_tenant_kill(inst.slot);
                        }
                    }
                    _ => unreachable!("two-bit kind"),
                }
            }
            Event::ThreadReady(tid) => {
                let idx = tid as usize;
                let inst = &mut instances[idx];
                if inst.first_touch.is_none() {
                    inst.first_touch = Some(Ns(now.as_nanos() - inst.arrival.as_nanos()));
                }
                // Retire the thread once the instance lost its slot
                // (killed and possibly already recycled to a successor).
                if occupant[inst.slot.0 as usize] != Some(idx)
                    || !sim.backend.tenant_is_live(inst.slot)
                {
                    live_threads -= 1;
                    sim.set_app_threads(live_threads.max(1));
                    continue;
                }
                let c = cached[inst.slot.0 as usize]
                    .as_ref()
                    .filter(|c| c.owner == idx)
                    .expect("a live instance's slot caches its batch");
                fingerprint.update(c.record.as_bytes());
                sim.submit_batch(tid, &c.batch);
                instances[idx].ops += cfg.batch_ops;
            }
            _ => unreachable!("step only returns workload events"),
        }
        observe(sim);
    }
    // Let the tail of kills finish their DMA-quiescence drains so the
    // final audit sees a fully recycled pool.
    sim.run_until(Ns(end.as_nanos() + Ns::millis(100).as_nanos()));

    let mut spawn_hist = Histogram::new();
    let lifetimes: Vec<LifetimeOutcome> = instances
        .iter()
        .map(|inst| {
            let first = inst.first_touch.unwrap_or(Ns::ZERO);
            if inst.first_touch.is_some() {
                spawn_hist.record_ns(first);
            }
            let hist = sim
                .m
                .tenant_major_faults
                .get(&(inst.slot.0, inst.generation));
            LifetimeOutcome {
                slot: inst.slot,
                generation: inst.generation,
                arrival: inst.arrival,
                spawn_to_first_touch: first,
                ops: inst.ops,
                major_faults: hist.map_or(0, |h| h.count()),
                major_p99_ns: hist.map_or(0, |h| h.quantile(0.99)),
            }
        })
        .collect();
    let admitted = lifetimes.len() as u64;
    let total_ops = lifetimes.iter().map(|l| l.ops).sum();
    FleetResult {
        offered: cfg.arrivals,
        admitted,
        shed,
        total_ops,
        end,
        fingerprint: fingerprint.finish(),
        spawn_hist,
        lifetimes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::arbiter::ArbiterPolicy;
    use hemem_core::hemem::HeMemConfig;
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;

    fn fleet_sim(slots: usize) -> Sim<HeMem> {
        let mut mc = MachineConfig::small(2, 8).with_tier3(32 * GIB);
        mc.pebs.sample_period *= 96;
        let hc = HeMemConfig::scaled_for(&mc);
        let mut backend = HeMem::churn(hc, slots, ArbiterPolicy::GreedyMissRatio);
        backend.set_slot_pages(64);
        Sim::new(mc, backend)
    }

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::gate(48);
        cfg.working_set = 64 << 20;
        cfg.hot_set = 16 << 20;
        cfg.batch_ops = 5_000;
        cfg
    }

    #[test]
    fn fleet_run_recycles_slots_and_replays_byte_identically() {
        let mut a_sim = fleet_sim(8);
        let a = run_fleet(&mut a_sim, &small_cfg());
        let mut b_sim = fleet_sim(8);
        let b = run_fleet(&mut b_sim, &small_cfg());
        assert_eq!(a.fingerprint, b.fingerprint, "replay fingerprint");
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.total_ops, b.total_ops);
        // More admissions than slots proves slots were recycled.
        assert!(
            a.admitted > 8,
            "only {} admissions over 8 slots: no recycling",
            a.admitted
        );
        let stats = a_sim.backend.slot_pool().stats();
        assert!(stats.recycles > 0, "no slot was recycled");
        assert_eq!(stats.spawns, a.admitted);
        assert_eq!(a_sim.run_audit(false), Vec::new(), "fleet audit silent");
    }

    /// The replay identity is pinned across driver rewrites: this value
    /// was captured from the driver that hashed a freshly formatted
    /// `"{idx}|{batch:?}"` every round.
    #[test]
    fn fleet_fingerprint_matches_the_format_per_round_driver() {
        let mut sim = fleet_sim(8);
        let r = run_fleet(&mut sim, &small_cfg());
        assert_eq!(
            r.fingerprint, 0x4144a8cea50f9695,
            "fleet stream bytes moved"
        );
        assert_eq!((r.admitted, r.shed, r.total_ops), (23, 25, 55_455_000));
    }

    #[test]
    fn charged_spawn_cost_separates_pooled_from_scratch_first_touch() {
        let mut cfg = small_cfg();
        cfg.arrivals = 12;
        let mut pooled_sim = fleet_sim(8);
        let pooled = run_fleet(&mut pooled_sim, &cfg);
        cfg.charge_pooled_cost = false;
        let mut scratch_sim = fleet_sim(8);
        scratch_sim.backend.set_fleet_pooling(false);
        let scratch = run_fleet(&mut scratch_sim, &cfg);
        let (p, s) = (
            pooled.spawn_hist.quantile(0.99),
            scratch.spawn_hist.quantile(0.99),
        );
        assert!(s >= 5 * p, "scratch first-touch p99 {s} not ≥5x pooled {p}");
    }
}
