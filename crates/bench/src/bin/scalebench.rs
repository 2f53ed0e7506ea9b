//! Footprint-scaling gate: multi-grained region tracking must keep the
//! policy pass sublinear in the tenant's footprint, and the self-tuning
//! PEBS controller must hold the sample-drop fraction where a fixed
//! period cannot. Both features default off; tierbench gate (a)
//! asserts those defaults and checks that the frozen 2-tier run stays
//! byte-identical with them.
//!
//! Gates:
//!
//! (a) **Sublinear policy pass** — the same drifting-hot-set churn runs
//!     at 2/4/8/16 GiB footprints on a fixed machine, once with the flat
//!     per-page comparator (`RegionConfig::flat_baseline`: one span per
//!     page, so region maintenance degenerates to a full per-page scan)
//!     and once with multi-grained spans (`RegionConfig::multi_grain`).
//!     Across the 8x footprint sweep the flat policy-pass cost must grow
//!     ~linearly (>= 6x) while the multi-grain cost grows <= 4x and ends
//!     at least 2x cheaper than flat at the largest footprint.
//! (b) **Drop fraction held** — at the largest footprint, a fixed
//!     aggressive sample period must lose more than the 10% drop budget,
//!     while the adaptive controller started from the *same* period
//!     raises itself out of the overload and lands its last decision
//!     window inside the budget, with a lower cumulative drop fraction.
//! (c) **Kill-replay determinism** — the multi-grain + adaptive churn
//!     with a seeded manager kill landing mid-split/merge replays
//!     byte-identically (region and controller counters included) and
//!     the post-recovery audit is silent.
//!
//! `results/scalebench.csv` records the sweep: per footprint, the flat
//! and multi-grain policy-pass costs and the span/split/merge activity
//! behind them.

use hemem_bench::{f3, fingerprint, record_wallclock, ExpArgs, Report};
use hemem_core::backend::AccessBatch;
use hemem_core::hemem::{HeMem, HeMemConfig, RegionConfig, RegionStats};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::GIB;
use hemem_pebs::AdaptiveConfig;
use hemem_sim::Ns;

/// Footprints swept by gate (a), in GiB. The machine is fixed and every
/// point oversubscribes its 1 GiB of DRAM, so the sweep scales only the
/// tracked address space while the migration churn stays comparable.
const FOOTPRINTS_GIB: [u64; 4] = [2, 4, 8, 16];

/// Pages per hot span, batches per round, and accesses per batch: the
/// same drifting two-span churn at every footprint, so the per-sample
/// work is constant and only the tracking structures scale.
const SPAN_PAGES: u64 = 64;
const BATCH_OPS: u64 = 400_000;
const ROUNDS: u64 = 40;
const WARM_MS: u64 = 1_000;

/// The aggressive fixed period for gate (b); the adaptive run starts
/// from the same period and must climb away from it. At the sweep's
/// access rates the PEBS thread only keeps up above a period of a few
/// hundred events, so this overloads the drain several times over.
const HOT_PERIOD: u64 = 4;

/// The fixed machine: 1 GiB DRAM + 24 GiB NVM holds the largest
/// footprint with room to spare, so every sweep point is the same
/// hardware under more tracked pages.
fn scale_machine() -> MachineConfig {
    let mut mc = MachineConfig::small(1, 24);
    mc.seed = 0x0053_4341_4C45; // "SCALE"

    // Keep the sweep's sampling pressure moderate: the paper's period is
    // tuned for a full socket and would under-sample this machine. Gate
    // (b) overrides this with its own fixed/adaptive operating points.
    mc.pebs.sample_period = 2_000;
    mc
}

struct RunOutcome {
    sim: Sim<HeMem>,
    accesses: u64,
    sim_ns: u64,
}

/// One measured churn run at `footprint_gib` with the given region
/// config. Two `SPAN_PAGES` hot spans drift across the whole footprint
/// (a full tour over the run), so hot splits chase the heat while the
/// cold majority is free to merge back.
fn region_run(mc: MachineConfig, regions: RegionConfig, footprint_gib: u64) -> RunOutcome {
    let mut hc = HeMemConfig::scaled_for(&mc);
    hc.tracker.regions = regions;
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let bytes = footprint_gib * GIB;
    let region = sim.mmap(bytes);
    sim.populate(region, true);
    // Populate time scales with footprint, so warm up *relative* to its
    // end — an absolute `run_until` would land inside populate for the
    // larger sweep points and skip the warmup entirely.
    sim.advance(Ns::millis(WARM_MS));
    let start = sim.now();
    let pages = bytes / sim.m.cfg.managed_page.bytes();
    let span = pages - SPAN_PAGES;
    let stride = (pages / ROUNDS).max(1);
    let mut accesses = 0u64;
    for round in 0..ROUNDS {
        for base in [
            (round * stride) % span,
            ((round * stride) + span / 2) % span,
        ] {
            if !sim.m.space.regions().any(|r| r.id() == region) {
                sim.advance(Ns::millis(25));
                continue;
            }
            let hi = (base + SPAN_PAGES).min(pages);
            let batch = AccessBatch::uniform(region, base, hi, BATCH_OPS, 8, 0.1, bytes);
            sim.submit_batch(0, &batch);
            accesses += BATCH_OPS;
            loop {
                match sim.step() {
                    Some((_, Event::ThreadReady(_))) | None => break,
                    Some(_) => {}
                }
            }
            sim.advance(Ns::millis(25));
        }
    }
    sim.advance(Ns::secs(1));
    let sim_ns = sim.now().saturating_sub(start).as_nanos();
    RunOutcome {
        sim,
        accesses,
        sim_ns,
    }
}

fn region_stats(out: &RunOutcome) -> RegionStats {
    out.sim
        .backend
        .region_stats()
        .expect("region tracking enabled for sweep runs")
}

/// The gate (c) run: multi-grain regions plus the adaptive controller,
/// with a seeded manager kill landing mid-churn — after warmup, while
/// splits and merges are in full swing.
fn killed_adaptive_fingerprint() -> (String, usize) {
    let mut mc = scale_machine();
    mc.pebs.sample_period = HOT_PERIOD;
    mc.pebs.adaptive = Some(AdaptiveConfig {
        min_period: HOT_PERIOD,
        ..AdaptiveConfig::default()
    });
    mc.chaos.manager_kill_at = vec![Ns::millis(WARM_MS + 300)];
    let mut out = region_run(mc, RegionConfig::multi_grain(), 2);
    let violations = out.sim.run_audit(false);
    let fp = format!(
        "{}|{:?}|{:?}|{:?}",
        fingerprint(&out.sim),
        out.sim.m.recovery,
        region_stats(&out),
        out.sim.m.pebs.adapt_stats(),
    );
    (fp, violations.len())
}

fn main() {
    let _args = ExpArgs::parse(); // accepted for CLI uniformity; gates are fixed
    let wall = std::time::Instant::now();
    let mut sim_secs = 0.0f64;

    // Gate (a): flat vs multi-grain policy-pass cost across the sweep.
    let mut rep = Report::new(
        "scalebench",
        "Footprint scaling: flat per-page scans vs multi-grained regions",
        &[
            "footprint GiB",
            "pages",
            "flat cost/period",
            "multi cost/period",
            "multi spans",
            "splits",
            "merges",
            "accesses/s (multi)",
        ],
    );
    let mut flat_costs = Vec::new();
    let mut multi_costs = Vec::new();
    for gib in FOOTPRINTS_GIB {
        let flat = region_run(scale_machine(), RegionConfig::flat_baseline(), gib);
        let multi = region_run(scale_machine(), RegionConfig::multi_grain(), gib);
        sim_secs += (flat.sim_ns + multi.sim_ns) as f64 / 1e9 + 2.0 * (WARM_MS as f64 / 1e3);
        let (fs, ms) = (region_stats(&flat), region_stats(&multi));
        let (fc, mc_) = (fs.policy_cost_per_period(), ms.policy_cost_per_period());
        flat_costs.push(fc);
        multi_costs.push(mc_);
        let pages = gib * GIB / flat.sim.m.cfg.managed_page.bytes();
        let rate = multi.accesses as f64 / (multi.sim_ns as f64 / 1e9).max(1e-9);
        rep.row(&[
            gib.to_string(),
            pages.to_string(),
            f3(fc),
            f3(mc_),
            ms.spans.to_string(),
            ms.splits.to_string(),
            ms.merges.to_string(),
            f3(rate),
        ]);
    }
    rep.emit();
    let sweep = (FOOTPRINTS_GIB[FOOTPRINTS_GIB.len() - 1] / FOOTPRINTS_GIB[0]) as f64;
    let flat_growth = flat_costs[flat_costs.len() - 1] / flat_costs[0].max(1e-9);
    let multi_growth = multi_costs[multi_costs.len() - 1] / multi_costs[0].max(1e-9);
    assert!(
        flat_growth >= sweep * 0.75,
        "gate (a) failed: flat comparator is not linear in footprint \
         (grew {flat_growth:.2}x over a {sweep:.0}x sweep)"
    );
    assert!(
        multi_growth <= sweep / 2.0,
        "gate (a) failed: multi-grain policy cost grew {multi_growth:.2}x \
         over a {sweep:.0}x sweep — not sublinear"
    );
    let (flat_last, multi_last) = (
        flat_costs[flat_costs.len() - 1],
        multi_costs[multi_costs.len() - 1],
    );
    assert!(
        multi_last * 2.0 < flat_last,
        "gate (a) failed: multi-grain cost {multi_last:.1} not 2x under flat {flat_last:.1} \
         at the largest footprint"
    );
    println!(
        "gate (a): policy cost/period grew {multi_growth:.2}x (multi-grain) vs \
         {flat_growth:.2}x (flat) over a {sweep:.0}x footprint sweep; \
         {multi_last:.1} vs {flat_last:.1} at {} GiB",
        FOOTPRINTS_GIB[FOOTPRINTS_GIB.len() - 1]
    );

    // Gate (b): fixed aggressive period vs the adaptive controller at
    // the largest footprint.
    let top = FOOTPRINTS_GIB[FOOTPRINTS_GIB.len() - 1];
    let mut fixed_mc = scale_machine();
    fixed_mc.pebs.sample_period = HOT_PERIOD;
    fixed_mc.pebs.adaptive = None;
    let mut adapt_mc = scale_machine();
    adapt_mc.pebs.sample_period = HOT_PERIOD;
    adapt_mc.pebs.adaptive = Some(AdaptiveConfig {
        min_period: HOT_PERIOD,
        ..AdaptiveConfig::default()
    });
    let target = AdaptiveConfig::default().target_drop_milli;
    let fixed = region_run(fixed_mc, RegionConfig::multi_grain(), top);
    let adapt = region_run(adapt_mc, RegionConfig::multi_grain(), top);
    sim_secs += (fixed.sim_ns + adapt.sim_ns) as f64 / 1e9 + 2.0 * (WARM_MS as f64 / 1e3);
    let drop_milli = |o: &RunOutcome| {
        let p = o.sim.m.pebs.stats();
        p.dropped * 1_000 / p.generated.max(1)
    };
    let (fixed_drop, adapt_drop) = (drop_milli(&fixed), drop_milli(&adapt));
    let a = adapt.sim.m.pebs.adapt_stats();
    assert!(
        fixed_drop > target,
        "gate (b) failed: fixed period {HOT_PERIOD} only dropped {fixed_drop} milli — \
         no overload to adapt away from"
    );
    assert!(
        a.raises > 0,
        "gate (b) failed: controller never raised the period under overload"
    );
    assert!(
        a.last_window_drop_milli <= target,
        "gate (b) failed: adaptive run's last window dropped {} milli, over the {target} budget",
        a.last_window_drop_milli
    );
    assert!(
        adapt_drop < fixed_drop,
        "gate (b) failed: adaptive cumulative drop {adapt_drop} milli not below fixed {fixed_drop}"
    );
    println!(
        "gate (b): fixed period {HOT_PERIOD} dropped {fixed_drop} milli at {top} GiB; \
         adaptive ended at period {} ({} raises, {} lowers), last window {} milli, \
         cumulative {adapt_drop} milli",
        adapt.sim.m.pebs.sample_period(),
        a.raises,
        a.lowers,
        a.last_window_drop_milli
    );

    // Gate (c): the seeded kill replays byte-identically, audit silent.
    let (fp1, v1) = killed_adaptive_fingerprint();
    let (fp2, v2) = killed_adaptive_fingerprint();
    assert_eq!(
        fp1, fp2,
        "gate (c) failed: seeded regions+adaptive kill-run replay diverged"
    );
    assert_eq!(
        v1 + v2,
        0,
        "gate (c) failed: kill recovery left audit violations"
    );
    println!("gate (c): manager-kill replay byte-identical, audit silent");
    sim_secs += 2.0 * 3.0;

    record_wallclock("scalebench", wall.elapsed().as_secs_f64(), sim_secs);
}
