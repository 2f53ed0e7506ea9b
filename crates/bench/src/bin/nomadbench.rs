//! Non-exclusive tiering gate: clean NVM shadow pages must turn
//! demotion-heavy churn into zero-copy remaps without regressing the
//! fault tail. The feature defaults off; tierbench gate (a) asserts
//! that default and checks that the frozen 2-tier run stays
//! byte-identical with it.
//!
//! Gates:
//!
//! (a) **Zero-copy demotion wins** — a demotion-heavy oversubscribed
//!     GUPS-style churn (a drifting read-mostly hot set at 3x DRAM
//!     oversubscription) runs twice on the same seed: exclusive tiering
//!     vs `nvm_shadows`. The shadowed run must demote a nonzero number
//!     of pages by remap alone (zero bytes on the copy engines), cut
//!     total journaled migration bytes by >= 30%, and hold the
//!     major-fault p99 no worse than the exclusive run.
//! (b) **Kill-replay determinism** — the shadowed churn with a seeded
//!     manager kill (journal recovery + shadow reconcile) and with a
//!     seeded tenant kill (drain) replays byte-identically, shadow
//!     counters included, and the post-recovery audit is silent.
//!
//! The ablation table (`results/nomadbench.csv`) reports the shadow
//! capacity tax (NVM frames parked as shadows) against the migration
//! bandwidth saved, per write intensity.

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_bench::{
    assert_silent_audit, f3, fingerprint, record_wallclock, write_results, ExpArgs, Report,
};
use hemem_core::backend::AccessBatch;
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_sim::{LatencyClass, Ns, TenantKill};

/// Pages per churn span and accesses per batch: narrow, hot spans build
/// PEBS heat fast enough that the drifting set keeps the promotion and
/// demotion machinery saturated.
const SPAN_PAGES: u64 = 64;
const BATCH_OPS: u64 = 600_000;
const ROUNDS: u64 = 60;
const STRIDE: u64 = 96;
const WARM_MS: u64 = 2_000;

/// The demotion-heavy machine: 1 GiB DRAM + 2 GiB NVM with a 2.5 GiB
/// region — 2.5x DRAM oversubscription, everything still
/// byte-addressable, so watermark churn is pure NVM<->DRAM migration
/// traffic and every demotion is a candidate for the zero-copy remap.
fn churn_machine(shadows: bool) -> MachineConfig {
    let mut mc = MachineConfig::small(1, 2);
    mc.seed = 0x004E_4F4D_4144; // "NOMAD"
    if shadows {
        mc = mc.with_shadows();
    }
    mc
}

/// One measured churn run. The hot set (two `SPAN_PAGES` spans) drifts
/// every round: newly hot NVM pages promote, last round's promotions
/// cool and are demoted to make room — exactly the watermark churn the
/// shadow remap path is built for. `write_frac` sets how often a
/// promoted page dirties before it is demoted.
struct ChurnOutcome {
    sim: Sim<AnyBackend>,
    accesses: u64,
    sim_ns: u64,
}

fn churn_run(mc: MachineConfig, write_frac: f64) -> ChurnOutcome {
    let backend = BackendKind::HeMem.build(&mc);
    let mut sim = Sim::new(mc, backend);
    let region_bytes = 2 * sim.m.cfg.dram.capacity + sim.m.cfg.dram.capacity / 2;
    let region = sim.mmap(region_bytes);
    sim.populate(region, true);
    sim.run_until(Ns::millis(WARM_MS));
    let start = sim.now();
    let pages = region_bytes / sim.m.cfg.managed_page.bytes();
    let span = pages - 300;
    let mut accesses = 0u64;
    for round in 0..ROUNDS {
        for base in [(round * STRIDE) % span, ((round * STRIDE) + 640) % span] {
            // A seeded tenant kill (gate b) unmaps the region mid-churn;
            // the remaining schedule just advances time.
            if !sim.m.space.regions().any(|r| r.id() == region) {
                sim.advance(Ns::millis(50));
                continue;
            }
            let hi = (base + SPAN_PAGES).min(pages);
            let batch =
                AccessBatch::uniform(region, base, hi, BATCH_OPS, 8, write_frac, region_bytes);
            sim.submit_batch(0, &batch);
            accesses += BATCH_OPS;
            loop {
                match sim.step() {
                    Some((_, Event::ThreadReady(_))) | None => break,
                    Some(_) => {}
                }
            }
            sim.advance(Ns::millis(50));
        }
    }
    sim.advance(Ns::secs(1));
    let sim_ns = sim.now().saturating_sub(start).as_nanos();
    ChurnOutcome {
        sim,
        accesses,
        sim_ns,
    }
}

/// The kill-replay variant of the churn for gate (b): the same drifting
/// schedule with a seeded manager or tenant kill landing mid-churn.
fn killed_churn_fingerprint(manager: bool) -> String {
    let mut mc = churn_machine(true);
    let at = Ns::millis(WARM_MS + 400);
    if manager {
        mc.chaos.manager_kill_at = vec![at];
    } else {
        mc.chaos.tenant_kill_at = vec![TenantKill { tenant: 0, at }];
    }
    let mut out = churn_run(mc, 0.2);
    assert_silent_audit(&mut out.sim, "gate (b) kill recovery");
    format!(
        "{}|{:?}|{:?}|{}",
        fingerprint(&out.sim),
        out.sim.m.shadow,
        out.sim.m.recovery,
        out.sim.m.nvm_pool.shadow_held_pages(),
    )
}

fn main() {
    let _args = ExpArgs::parse(); // accepted for CLI uniformity; gates are fixed
    let wall = std::time::Instant::now();
    let mut sim_secs = 0.0f64;

    // Gate (a): exclusive vs shadowed tiering on the same churn.
    let excl = churn_run(churn_machine(false), 0.1);
    let shad = churn_run(churn_machine(true), 0.1);
    sim_secs += (excl.sim_ns + shad.sim_ns) as f64 / 1e9 + 2.0 * (WARM_MS as f64 / 1e3);
    assert_eq!(
        excl.sim.m.shadow.remap_demotions, 0,
        "exclusive run must not remap-demote"
    );
    let remaps = shad.sim.m.shadow.remap_demotions;
    assert!(
        remaps > 0,
        "gate (a) failed: shadowed run produced no zero-copy demotions"
    );
    let excl_bytes = excl.sim.m.stats.migrated_bytes;
    let shad_bytes = shad.sim.m.stats.migrated_bytes;
    assert!(
        shad_bytes * 10 <= excl_bytes * 7,
        "gate (a) failed: journaled migration bytes {shad_bytes} not >=30% below exclusive {excl_bytes}"
    );
    let p99 = |s: &Sim<AnyBackend>| s.m.trace.hist(LatencyClass::MajorFault).quantile(0.99);
    let (excl_p99, shad_p99) = (p99(&excl.sim), p99(&shad.sim));
    assert!(
        shad_p99 <= excl_p99,
        "gate (a) failed: shadowed major-fault p99 {shad_p99} ns worse than exclusive {excl_p99} ns"
    );
    println!(
        "gate (a): {remaps} zero-copy demotions ({} moved by remap), journaled bytes {} vs {} exclusive ({}% saved), major p99 {} vs {} ns",
        shad.sim.m.shadow.remap_demoted_bytes,
        shad_bytes,
        excl_bytes,
        (excl_bytes - shad_bytes) * 100 / excl_bytes.max(1),
        shad_p99,
        excl_p99
    );

    // Gate (b): seeded kills replay byte-identically with a silent audit.
    for (label, manager) in [("manager", true), ("tenant", false)] {
        let fp1 = killed_churn_fingerprint(manager);
        let fp2 = killed_churn_fingerprint(manager);
        assert_eq!(
            fp1, fp2,
            "gate (b) failed: shadowed {label}-kill churn replay diverged"
        );
        println!("gate (b): {label}-kill replay byte-identical, audit silent");
        sim_secs += 2.0 * 8.0;
    }

    // Ablation: shadow capacity tax vs bandwidth saved across write
    // intensity. Each row pairs an exclusive and a shadowed run at one
    // write fraction; the tax is the NVM frames still parked as shadows
    // at the end, the saving is the journaled-byte delta.
    let mut rep = Report::new(
        "nomadbench",
        "Non-exclusive tiering: zero-copy demotion vs exclusive copies",
        &[
            "write_frac",
            "remap demotions",
            "remap bytes",
            "journaled bytes (shadow)",
            "journaled bytes (excl)",
            "bytes saved %",
            "shadow frames held",
            "shadows retained",
            "store invalidations",
            "major p99 ns (shadow)",
            "major p99 ns (excl)",
            "accesses/s (shadow)",
            "accesses/s (excl)",
        ],
    );
    let mut csv = String::from(
        "write_frac,remap_demotions,remap_bytes,journaled_bytes_shadow,journaled_bytes_excl,\
         bytes_saved_pct,shadow_frames_held,shadows_retained,store_invalidations,\
         major_p99_ns_shadow,major_p99_ns_excl,rate_shadow,rate_excl\n",
    );
    for wf in [0.0, 0.1, 0.3, 0.6] {
        let e = churn_run(churn_machine(false), wf);
        let s = churn_run(churn_machine(true), wf);
        sim_secs += (e.sim_ns + s.sim_ns) as f64 / 1e9 + 2.0 * (WARM_MS as f64 / 1e3);
        let saved_pct =
            (e.sim.m.stats.migrated_bytes as i128 - s.sim.m.stats.migrated_bytes as i128) * 100
                / e.sim.m.stats.migrated_bytes.max(1) as i128;
        let rate = |o: &ChurnOutcome| o.accesses as f64 / (o.sim_ns as f64 / 1e9).max(1e-9);
        let row = [
            format!("{wf:.1}"),
            s.sim.m.shadow.remap_demotions.to_string(),
            s.sim.m.shadow.remap_demoted_bytes.to_string(),
            s.sim.m.stats.migrated_bytes.to_string(),
            e.sim.m.stats.migrated_bytes.to_string(),
            saved_pct.to_string(),
            s.sim.m.nvm_pool.shadow_held_pages().to_string(),
            s.sim.m.shadow.retained.to_string(),
            s.sim.m.shadow.invalidated_store.to_string(),
            p99(&s.sim).to_string(),
            p99(&e.sim).to_string(),
            f3(rate(&s)),
            f3(rate(&e)),
        ];
        csv.push_str(&row.join(","));
        csv.push('\n');
        rep.row(&row);
    }
    rep.emit();
    write_results("nomadbench.csv", &csv, "nomadbench ablation");

    record_wallclock("nomadbench", wall.elapsed().as_secs_f64(), sim_secs);
}
