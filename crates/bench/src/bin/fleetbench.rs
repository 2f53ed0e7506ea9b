//! Fleet gate: the slot-pooled control plane must make tenant spawn
//! cheap and leak nothing across slot generations. Non-fleet runs must
//! stay byte-identical too: tierbench gate (a) checks that the frozen
//! 2-tier run matches its baseline and carries no fleet segment.
//!
//! Gates:
//!
//! (a) **Pooled spawn wins** — the seeded open-loop fleet (Poisson
//!     arrivals, Pareto lifetimes, ≥512 offered instances over 32
//!     slots) runs with pooled spawn and again with the pool disabled
//!     (from-scratch rebuild per admission, the pre-pool behavior). The
//!     pooled run's spawn-to-first-touch p99 must sit at least 5x below
//!     the from-scratch baseline's.
//! (b) **Recycled = fresh** — the same arrival schedule is run once on
//!     recycled slots (pooled reset-in-place) and once with every spawn
//!     rebuilding from scratch, both charged the *same* simulated spawn
//!     cost. Stats fingerprint, workload stream hash, and the
//!     per-tenant telemetry CSV must compare byte-identical: a recycled
//!     slot is indistinguishable from a fresh one.
//! (c) **Determinism** — the fleet run with seeded mid-run slot kills
//!     (on top of the scheduled departures) replays byte-identically
//!     with a silent audit.
//!
//! The gate configurations are fixed (scale, seeds, durations) so runs
//! stay comparable; CLI flags are accepted for uniformity but do not
//! affect the gates.

use std::time::Instant;

use hemem_bench::{
    assert_silent_audit, assert_tenant_drained, f3, fingerprint, record_wallclock, write_results,
    ExpArgs, Report,
};
use hemem_core::arbiter::ArbiterPolicy;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::Sim;
use hemem_core::telemetry::TenantTelemetry;
use hemem_memdev::GIB;
use hemem_sim::{Ns, TenantKill};
use hemem_workloads::{run_fleet_with, FleetConfig, FleetResult};

/// Slots in the gate pool; offered arrivals are ~16x this, so most
/// admissions land on recycled slots.
const SLOTS: usize = 32;
/// Offered instance arrivals per gate run.
const ARRIVALS: u64 = 512;
/// Slot working-set pages: pre-warmed at claim, and the size the
/// from-scratch cost model rebuilds.
const SLOT_PAGES: u64 = 4096;

/// The fleet gate machine: a deliberately undersized socket (1 GiB
/// DRAM + 1 GiB NVM against ~2 GiB of aggregate instance working set)
/// plus a swap tier, so the fleet demand-pages through all three tiers
/// and the per-tenant major-fault tail is actually exercised.
fn fleet_machine(seeded_kills: bool) -> MachineConfig {
    let mut mc = MachineConfig::small(1, 1).with_tier3(32 * GIB);
    mc.pebs.sample_period *= 96;
    if seeded_kills {
        // Mid-run slot kills on top of the scheduled departures: each
        // kills whatever instance occupies the slot at that moment.
        mc.chaos.tenant_kill_at = vec![
            TenantKill {
                tenant: 3,
                at: Ns::millis(300),
            },
            TenantKill {
                tenant: 7,
                at: Ns::millis(700),
            },
        ];
    }
    mc
}

/// A fleet backend over `SLOTS` deferred slots; `pooled` selects the
/// spawn mechanism (reset-in-place vs from-scratch rebuild).
fn fleet_backend(mc: &MachineConfig, pooled: bool) -> HeMem {
    let hc = HeMemConfig::scaled_for(mc);
    let mut h = HeMem::churn(hc, SLOTS, ArbiterPolicy::GreedyMissRatio);
    h.set_slot_pages(SLOT_PAGES);
    h.set_fleet_pooling(pooled);
    h
}

/// The frozen gate scenario.
fn gate_cfg(charge_pooled_cost: bool) -> FleetConfig {
    let mut cfg = FleetConfig::gate(ARRIVALS);
    cfg.working_set = 64 << 20;
    cfg.hot_set = 16 << 20;
    cfg.batch_ops = 5_000;
    cfg.slot_pages = SLOT_PAGES;
    cfg.charge_pooled_cost = charge_pooled_cost;
    cfg
}

/// One gate run: `pooled` flips the spawn mechanism, `pooled_cost` the
/// charged spawn latency, `seeded_kills` the chaos kill schedule. The
/// telemetry CSV (sampled every 20 ms) rides along for gate (b).
fn fleet_run(
    pooled: bool,
    pooled_cost: bool,
    seeded_kills: bool,
) -> (Sim<HeMem>, FleetResult, String) {
    let mc = fleet_machine(seeded_kills);
    let backend = fleet_backend(&mc, pooled);
    let mut sim = Sim::new(mc, backend);
    let mut tel = TenantTelemetry::new(Ns::millis(20));
    let res = run_fleet_with(&mut sim, &gate_cfg(pooled_cost), |s| {
        tel.maybe_sample(s);
    });
    (sim, res, tel.csv())
}

fn main() {
    let _args = ExpArgs::parse(); // accepted for CLI uniformity; gates are fixed
    let wall = Instant::now();
    let mut sim_secs = 0.0f64;

    // Gate (a): pooled spawn beats from-scratch by ≥5x at the p99.
    let (mut pooled_sim, pooled, pooled_csv) = fleet_run(true, true, false);
    let (mut scratch_sim, scratch, _) = fleet_run(false, false, false);
    sim_secs += pooled.end.as_nanos() as f64 / 1e9 + scratch.end.as_nanos() as f64 / 1e9;
    assert!(
        pooled.admitted >= ARRIVALS / 2 && pooled.admitted + pooled.shed == ARRIVALS,
        "gate (a) failed: only {}/{} arrivals admitted",
        pooled.admitted,
        ARRIVALS
    );
    let pool_stats = pooled_sim.backend.slot_pool().stats();
    assert_eq!(
        pool_stats.scratch_spawns, 0,
        "gate (a): pooled run must never rebuild from scratch"
    );
    assert!(
        pool_stats.recycles > pool_stats.spawns / 2,
        "gate (a): most spawns must land on recycled slots ({} recycles / {} spawns)",
        pool_stats.recycles,
        pool_stats.spawns
    );
    let (p99_pooled, p99_scratch) = (
        pooled.spawn_hist.quantile(0.99),
        scratch.spawn_hist.quantile(0.99),
    );
    assert!(
        p99_scratch >= 5 * p99_pooled,
        "gate (a) failed: scratch spawn p99 {p99_scratch} ns not ≥5x pooled {p99_pooled} ns"
    );
    assert_silent_audit(&mut pooled_sim, "gate (a) pooled fleet");
    assert_silent_audit(&mut scratch_sim, "gate (a) scratch fleet");
    // Every departed instance's slot drained back to zero frames.
    for t in (0..SLOTS as u32).map(hemem_vmm::TenantId) {
        if pooled_sim.backend.tenant_is_retired(t) {
            assert_tenant_drained(&pooled_sim, t);
        }
    }
    println!(
        "gate (a): {} instances over {} slots, spawn p99 {} ns pooled vs {} ns scratch ({}x)",
        pooled.admitted,
        SLOTS,
        p99_pooled,
        p99_scratch,
        p99_scratch / p99_pooled.max(1)
    );

    // Gate (b): recycled slots are indistinguishable from fresh ones —
    // same schedule, same charged cost, mechanism flipped.
    let (fresh_sim, fresh, fresh_csv) = fleet_run(false, true, false);
    sim_secs += fresh.end.as_nanos() as f64 / 1e9;
    assert_eq!(
        fingerprint(&pooled_sim),
        fingerprint(&fresh_sim),
        "gate (b) failed: recycled-slot machine state diverged from fresh slots"
    );
    assert_eq!(
        pooled.fingerprint, fresh.fingerprint,
        "gate (b) failed: recycled-slot workload stream diverged from fresh slots"
    );
    assert_eq!(
        pooled_csv, fresh_csv,
        "gate (b) failed: recycled-slot telemetry CSV diverged from fresh slots"
    );
    println!(
        "gate (b): recycled-slot run byte-identical to fresh slots \
         (fingerprint + stream + telemetry, {} recycles)",
        pool_stats.recycles
    );

    // Gate (c): seeded mid-run kills replay byte-identically, audit
    // silent.
    let (mut killed_a, res_a, _) = fleet_run(true, true, true);
    let (killed_b, res_b, _) = fleet_run(true, true, true);
    sim_secs += res_a.end.as_nanos() as f64 / 1e9 + res_b.end.as_nanos() as f64 / 1e9;
    assert_eq!(
        fingerprint(&killed_a),
        fingerprint(&killed_b),
        "gate (c) failed: seeded-kill fleet replay diverged"
    );
    assert_eq!(
        res_a.fingerprint, res_b.fingerprint,
        "gate (c) failed: seeded-kill fleet stream diverged"
    );
    assert!(
        killed_a.m.recovery.tenant_kills > res_a.admitted - res_a.lifetimes.len() as u64,
        "gate (c): seeded kills must actually fire"
    );
    assert_silent_audit(&mut killed_a, "gate (c) seeded-kill fleet");
    println!(
        "gate (c): seeded-kill fleet replay byte-identical, audit silent ({} kills)",
        killed_a.m.recovery.tenant_kills
    );

    let mut rep = Report::new(
        "fleetbench",
        "Fleet: slot-pooled spawn/teardown under open-loop tenant churn",
        &[
            "config",
            "offered",
            "admitted",
            "shed",
            "ops/s",
            "spawn p50 ns",
            "spawn p99 ns",
            "worst major p99 ns",
        ],
    );
    for (label, r) in [
        ("pooled", &pooled),
        ("scratch", &scratch),
        ("seeded kills", &res_a),
    ] {
        rep.row(&[
            label.to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            r.shed.to_string(),
            f3(r.ops_per_sec()),
            r.spawn_hist.quantile(0.5).to_string(),
            r.spawn_hist.quantile(0.99).to_string(),
            r.worst_major_p99_ns().to_string(),
        ]);
    }
    rep.emit();
    write_results("fleetbench_telemetry.csv", &pooled_csv, "fleet telemetry");

    record_wallclock("fleetbench", wall.elapsed().as_secs_f64(), sim_secs);
}
