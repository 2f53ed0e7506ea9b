//! Tier-3 gate: the N-tier generalization must leave the 2-tier machine
//! byte-identical, and the managed 3-tier policy must beat naive
//! spill-at-allocation under NVM oversubscription.
//!
//! Gates:
//!
//! (a) **2-tier byte-identity** — a fixed 2-tier GUPS configuration is
//!     replayed and its stats fingerprint plus telemetry CSV are compared
//!     against the committed pre-PR results
//!     (`results/tierbench_2tier_baseline.txt` /
//!     `results/tierbench_2tier_telemetry.csv`). Any drift in RNG draw
//!     order, event ordering, or counter layout fails the gate. The
//!     configuration runs every later feature at its default (adaptive
//!     PEBS, multi-grain regions and NVM shadows off, no fleet), so this
//!     one leg is also the "off is byte-identical" check for each of
//!     them: their defaults are asserted, and the fingerprint must carry
//!     no fleet segment.
//! (b) **Managed beats spill** — GUPS at 1.5x (DRAM+NVM)
//!     oversubscription on a 3-tier machine: HeMem with the SSD tier
//!     enabled must deliver strictly more aggregate throughput than the
//!     spill-at-allocation baseline that never migrates.
//! (c) **3-tier determinism** — the managed 3-tier run, repeated with
//!     the same seed, reproduces a byte-identical fingerprint.
//!
//! A missing gate (a) baseline fails the gate like a drifted one. After
//! a deliberate change to the 2-tier machine's output, `--reseed`
//! rewrites both baseline files instead of comparing; nothing else
//! writes them.
//!
//! The gate configurations are fixed (scale, seeds, durations) so the
//! committed baselines stay comparable; CLI flags are accepted for
//! uniformity with the other benches but do not affect the gates.

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_bench::{
    compare_baseline, f3, fingerprint, record_wallclock, write_results, ExpArgs, Report,
};
use hemem_core::backend::AccessBatch;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::telemetry::{Telemetry, TierTelemetry};
use hemem_memdev::GIB;
use hemem_sim::{LatencyClass, Ns};
use hemem_workloads::{Gups, GupsConfig, GupsResult};

/// Machine scale divisor for every gate (2 GiB DRAM + 8 GiB NVM).
const SCALE: u64 = 96;

/// Fixed args for the gate runs: CLI flags must not move the baseline.
fn gate_args() -> ExpArgs {
    ExpArgs {
        scale: SCALE,
        ..ExpArgs::default()
    }
}

/// The frozen 2-tier configuration replayed for gate (a): crashbench's
/// GUPS shape without kills, with every optional feature at its default.
fn two_tier_run() -> (Sim<AnyBackend>, GupsResult) {
    let args = gate_args();
    let mut cfg = GupsConfig::paper(args.gib(256), args.gib(16));
    cfg.warmup = Ns::secs(2);
    cfg.duration = Ns::secs(2);
    let mc = args.machine();
    assert!(mc.pebs.adaptive.is_none(), "adaptation must default off");
    assert!(
        !HeMemConfig::scaled_for(&mc).tracker.regions.enabled,
        "regions must default off"
    );
    assert!(!mc.nvm_shadows, "shadows must default off");
    let backend = BackendKind::HeMem.build(&mc);
    let mut sim = Sim::new(mc, backend);
    let mut gups = Gups::setup(&mut sim, cfg);
    let res = gups.run(&mut sim);
    (sim, res)
}

/// The frozen 2-tier telemetry time series for gate (a): a
/// DRAM-overcommitted region demoting toward the watermark, sampled
/// every 50 ms (crashbench's telemetry shape without the kill).
fn two_tier_telemetry() -> String {
    let args = gate_args();
    let mc = args.machine();
    let backend = BackendKind::HeMem.build(&mc);
    let mut sim = Sim::new(mc, backend);
    let id = sim.mmap(2 * sim.m.cfg.dram.capacity);
    sim.populate(id, true);
    let mut t = Telemetry::new(id, Ns::millis(50));
    for _ in 0..30 {
        t.maybe_sample(&sim);
        sim.advance(Ns::millis(50));
    }
    t.maybe_sample(&sim);
    t.csv()
}

/// The 3-tier gate machine: the gate (a) socket plus a 16 GiB swap
/// device. `seeded_faults` arms the SSD media-error hooks for the
/// replay half of gate (c).
fn three_tier_machine(seeded_faults: bool) -> MachineConfig {
    let mut mc = gate_args().machine().with_tier3(16 * GIB);
    if seeded_faults {
        mc.chaos.ssd_media_error = 2e-4;
        mc.chaos.ssd_media_wear_scale = 1e-9;
    }
    mc
}

/// The managed 3-tier backend: scaled HeMem with the NVM watermark
/// armed so background demotion cascades NVM -> SSD under pressure.
fn managed_backend(mc: &MachineConfig) -> AnyBackend {
    let mut hc = HeMemConfig::scaled_for(mc);
    hc.nvm_watermark = mc.nvm.capacity / 32;
    AnyBackend::HeMem(HeMem::new(hc))
}

/// GUPS at 1.5x (DRAM+NVM) oversubscription: the managed capacity is
/// 10 GiB, the working set 15 GiB. Access popularity is a steep power
/// law (zipf, theta 2): shuffled first-touch strands about a third of
/// the popular head on the SSD at populate time, which the managed
/// policy must rescue while leaving the cold tail on the device; the
/// spill baseline keeps paying device reads on the head forever. Small
/// batches keep the per-batch footprint below the partition size so the
/// tail really is idle between touches.
fn oversubscribed_gups(mc: &MachineConfig) -> GupsConfig {
    let managed = mc.dram.capacity + mc.nvm.capacity;
    let mut cfg = GupsConfig::paper(managed + managed / 2, mc.dram.capacity / 2);
    cfg.warmup = Ns::secs(2);
    cfg.duration = Ns::secs(2);
    cfg.zipf_theta = Some(2.0);
    cfg.batch_ops = 20_000;
    cfg
}

/// Runs oversubscribed GUPS on the 3-tier machine with the given
/// backend, returning the finished sim plus the workload result.
fn three_tier_run(backend: AnyBackend, seeded_faults: bool) -> (Sim<AnyBackend>, GupsResult) {
    let mc = three_tier_machine(seeded_faults);
    let cfg = oversubscribed_gups(&mc);
    let mut sim = Sim::new(mc, backend);
    let mut gups = Gups::setup(&mut sim, cfg);
    let res = gups.run(&mut sim);
    (sim, res)
}

/// The 3-tier telemetry time series: an oversubscribed region under
/// uniform churn, sampled every 50 ms, recording per-tier residency and
/// the major-fault tail.
fn three_tier_telemetry() -> String {
    let mc = three_tier_machine(false);
    let backend = managed_backend(&mc);
    let bytes = (mc.dram.capacity + mc.nvm.capacity) * 3 / 2;
    let mut sim = Sim::new(mc, backend);
    let id = sim.mmap(bytes);
    sim.populate(id, true);
    let pages = sim.m.space.region(id).page_count();
    let mut t = TierTelemetry::new(id, Ns::millis(50));
    for _ in 0..30 {
        t.maybe_sample(&sim);
        let batch = AccessBatch::uniform(id, 0, pages, 20_000, 8, 0.5, bytes);
        sim.submit_batch(0, &batch);
        loop {
            match sim.step() {
                Some((_, Event::ThreadReady(_))) | None => break,
                Some(_) => {}
            }
        }
        sim.advance(Ns::millis(50));
    }
    t.maybe_sample(&sim);
    t.csv()
}

fn main() {
    // `--reseed` is tierbench's own flag; the shared flags are accepted
    // for CLI uniformity, but the gates are fixed.
    let reseed = std::env::args().skip(1).any(|a| a == "--reseed");
    let _args = ExpArgs::parse_from(std::env::args().skip(1).filter(|a| a != "--reseed"));
    let gate_a = |filename: &str, contents: &str, what: &str| {
        if reseed {
            write_results(filename, contents, what);
            println!("gate (a): reseeded {what} baseline results/{filename}");
        } else {
            compare_baseline("gate (a)", filename, contents, what);
        }
    };
    let wall = std::time::Instant::now();
    // Every gate/telemetry run simulates 2 s warmup + 2 s measured.
    const RUN_SECS: f64 = 4.0;
    let mut sim_secs = 0.0f64;

    // Gate (a): the 2-tier machine is byte-identical to the pre-PR build.
    let (sim2, res2) = two_tier_run();
    let fp2 = format!("{}\n", fingerprint(&sim2));
    assert!(
        !fp2.contains("|fleet:"),
        "gate (a) failed: solo run grew a fleet fingerprint segment"
    );
    gate_a("tierbench_2tier_baseline.txt", &fp2, "2-tier fingerprint");
    let csv2 = two_tier_telemetry();
    gate_a("tierbench_2tier_telemetry.csv", &csv2, "2-tier telemetry");

    // Gate (b): the managed 3-tier policy beats spill-at-allocation.
    let (sim3, res3) = three_tier_run(managed_backend(&three_tier_machine(false)), false);
    let (sims, ress) = three_tier_run(BackendKind::Spill3.build(&three_tier_machine(false)), false);
    assert!(
        res3.gups > ress.gups,
        "gate (b) failed: managed 3-tier GUPS {} <= spill-at-allocation {}",
        res3.gups,
        ress.gups
    );
    println!(
        "gate (b): managed 3-tier GUPS {} beats spill-at-allocation {}",
        f3(res3.gups),
        f3(ress.gups)
    );

    // Gate (c): the managed 3-tier run replays byte-identically, with
    // and without the seeded SSD fault plan.
    let (sim3b, _) = three_tier_run(managed_backend(&three_tier_machine(false)), false);
    assert_eq!(
        fingerprint(&sim3),
        fingerprint(&sim3b),
        "gate (c) failed: managed 3-tier replay diverged"
    );
    let (simf1, _) = three_tier_run(managed_backend(&three_tier_machine(true)), true);
    let (simf2, _) = three_tier_run(managed_backend(&three_tier_machine(true)), true);
    assert_eq!(
        fingerprint(&simf1),
        fingerprint(&simf2),
        "gate (c) failed: seeded-fault 3-tier replay diverged"
    );
    println!(
        "gate (c): 3-tier replays byte-identical (plain + seeded faults, {} injected media errors)",
        simf1.m.chaos.stats().nvm_media_errors
    );

    let mut rep = Report::new(
        "tierbench",
        "Tier-3: managed N-tier policy vs spill-at-allocation (GUPS)",
        &[
            "config",
            "backend",
            "GUPS",
            "major faults",
            "swap ins",
            "swap outs",
            "migr done",
        ],
    );
    let major = |s: &Sim<AnyBackend>| s.m.trace.hist(LatencyClass::MajorFault).count().to_string();
    rep.row(&[
        "2-tier".to_string(),
        "HeMem".to_string(),
        f3(res2.gups),
        major(&sim2),
        sim2.m.stats.swap_ins.to_string(),
        sim2.m.stats.swap_outs.to_string(),
        sim2.m.stats.migrations_done.to_string(),
    ]);
    for (label, s, r) in [("HeMem", &sim3, &res3), ("Spill3", &sims, &ress)] {
        rep.row(&[
            "3-tier 1.5x".to_string(),
            label.to_string(),
            f3(r.gups),
            major(s),
            s.m.stats.swap_ins.to_string(),
            s.m.stats.swap_outs.to_string(),
            s.m.stats.migrations_done.to_string(),
        ]);
    }
    rep.emit();

    write_results(
        "tierbench_telemetry.csv",
        &three_tier_telemetry(),
        "3-tier telemetry",
    );
    // 8 simulated runs: 2-tier gate + its telemetry capture, five 3-tier
    // runs (managed, spill, replay, 2x seeded-fault), 3-tier telemetry.
    sim_secs += 8.0 * RUN_SECS;

    record_wallclock("tierbench", wall.elapsed().as_secs_f64(), sim_secs);
}
