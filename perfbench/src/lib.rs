//! Host-time benchmark of the HeMem simulator.
//!
//! Each workload runs in repetitions ("reps"): one setup (machine,
//! backend, populate) followed by one measured phase. A rep returns its
//! host timings next to the simulated outputs that must repeat exactly
//! (fingerprint, counters, stream hashes), so the caller can check the
//! run before it trusts the timing. A traced rep wraps the backend in
//! [`timed::Timed`] and times the calls the driver makes into the
//! simulator with [`profile`] spans; see `perfbench/README.md`.

pub mod profile;
pub mod timed;

use std::time::Instant;

use hemem_baselines::Nimble;
use hemem_bench::fingerprint;
use hemem_core::arbiter::ArbiterPolicy;
use hemem_core::backend::{AccessBatch, SegmentAccess, TieredBackend};
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::telemetry::TenantTelemetry;
use hemem_memdev::{Pattern, GIB};
use hemem_sim::Ns;
use hemem_workloads::{run_fleet_with, FleetConfig, Gups, GupsConfig};

use profile::{layer, span};
use timed::Timed;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper GUPS on HeMem with the hot set shifting every 10 s.
    GupsShift,
    /// The same input on the Nimble baseline.
    GupsNimble,
    /// fleetbench's pooled open-loop tenant churn.
    FleetChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::GupsShift,
        Workload::GupsNimble,
        Workload::FleetChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GupsShift => "gups-shift",
            Workload::GupsNimble => "gups-nimble",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// GUPS working set and hot set (paper §5.1).
const GUPS_WS: u64 = 512 * GIB;
const GUPS_HOT: u64 = 16 * GIB;
/// The hot set moves this far every `SHIFT_EVERY` (Figure 9, repeated).
const SHIFT_BYTES: u64 = 4 * GIB;
const SHIFT_EVERY: Ns = Ns::secs(10);

/// fleetbench's pooled gate: slots and per-slot working-set pages.
const FLEET_SLOTS: usize = 32;
const FLEET_SLOT_PAGES: u64 = 4096;
/// Offered fleet arrivals (fleetbench's gate offers 512).
const FLEET_ARRIVALS: u64 = 4096;
/// Setups timed per fleet rep (all but the last are dropped unused).
const FLEET_SETUPS: usize = 15;
/// The memory probe runs once per this much simulated time of a
/// measured phase.
const PROBE_EVERY: Ns = Ns::secs(1);
/// The probe's table: 32 MiB, far past a core's private caches.
const PROBE_WORDS: usize = 4 << 20;
/// Random read-modify-writes per probe (about 1-2 ms).
const PROBE_UPDATES: u32 = 60_000;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One rep's inputs. [`Spec::new`] gives the benchmark's sizes; tests
/// shrink them.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Machine RNG seed (PEBS draws, first-touch order, fault plan).
    pub machine_seed: u64,
    /// Fleet arrival/lifetime schedule seed.
    pub fleet_seed: u64,
    /// Simulated seconds of the GUPS measured phase.
    pub gups_seconds: u64,
    /// Offered fleet arrivals.
    pub fleet_arrivals: u64,
}

/// SplitMix64 finalizer: spreads a small benchmark seed over 64 bits.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Spec {
    /// The benchmark's sizing for `workload`, with the machine seed
    /// derived from `seed`. The fleet schedule is part of the scenario
    /// (fleetbench's gate schedule) and only changes when `fleet_seed` is
    /// set: another schedule admits a different number of tenants over a
    /// different span, which is another scenario, not another draw of
    /// this one.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            machine_seed: mix(seed, 0x004D_4143_4849_4E45), // "MACHINE"
            fleet_seed: FleetConfig::gate(FLEET_ARRIVALS).seed,
            gups_seconds: 40,
            fleet_arrivals: FLEET_ARRIVALS,
        }
    }
}

/// Simulated outputs of one rep that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    /// `hemem_bench::fingerprint` of the final machine.
    pub fingerprint: String,
    /// Violations from the final silent `run_audit(false)`.
    pub audit_violations: usize,
    /// GUPS updates completed (0 for the fleet).
    pub updates: u64,
    /// The fleet driver's stream hash (0 for GUPS).
    pub stream: u64,
    /// Fleet arrivals admitted.
    pub admitted: u64,
    /// Fleet arrivals shed.
    pub shed: u64,
    /// FNV-1a of the fleet's per-tenant telemetry CSV (0 for GUPS).
    pub telemetry: u64,
    /// Simulated nanoseconds the measured phase covered.
    pub sim_ns: u64,
}

/// Exactly repeating counters reported with the layer trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// PEBS records generated.
    pub pebs_generated: u64,
    /// PEBS records lost to buffer overflow.
    pub pebs_dropped: u64,
    /// PEBS records consumed by the PEBS thread.
    pub pebs_drained: u64,
    /// Migrations completed.
    pub migrations_done: u64,
    /// Migrations that found no destination frame.
    pub migrations_aborted: u64,
    /// Writes stalled on a write-protected page.
    pub wp_stalls: u64,
    /// Bytes the DMA engine copied.
    pub dma_bytes_copied: u64,
    /// Slot-pool recycles (fleet only).
    pub recycles: u64,
}

/// One rep's host timings and simulated outputs.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds in machine + backend construction and populate.
    pub setup_s: f64,
    /// Host seconds of the measured phase (everything after setup),
    /// not counting the memory probes run inside it.
    pub measured_s: f64,
    /// Mean host seconds of one [`MemProbe`] run during the measured
    /// phase.
    pub probe_s: f64,
    /// Host nanoseconds of the measured phase inside timed driver-level
    /// spans (traced reps only).
    pub covered_ns: u64,
    /// The process's peak resident set (KiB) when the measured phase
    /// ended, before the output checks allocate, less the probe's table.
    pub peak_rss_kib: u64,
    /// Outputs to check.
    pub out: Outputs,
    /// Counters for the trace.
    pub counts: Counts,
}

/// A probe of the host's memory speed: random 8-byte read-modify-writes
/// over a 32 MiB table. The simulator's own lookups miss a core's
/// private caches the same way, so on a host whose shared cache and DRAM
/// are contended by neighbours both slow down together. Rescaling a
/// rep's host seconds by its probe time takes that contention out of the
/// result.
pub struct MemProbe {
    table: Vec<u64>,
    x: u64,
    resident_kib: u64,
}

impl MemProbe {
    /// Allocates and touches the table.
    pub fn new() -> MemProbe {
        let before = status_kib("VmRSS:").unwrap_or(0);
        let table = vec![1u64; PROBE_WORDS];
        let resident_kib = status_kib("VmRSS:").unwrap_or(0).saturating_sub(before);
        MemProbe {
            table,
            x: 0x9E37_79B9_7F4A_7C15,
            resident_kib,
        }
    }

    /// Host seconds of one probe run.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.table.len() as u64;
        for _ in 0..PROBE_UPDATES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let i = (self.x % n) as usize;
            self.table[i] = self.table[i].wrapping_mul(31).wrapping_add(self.x);
        }
        std::hint::black_box(&self.table);
        t.elapsed().as_secs_f64()
    }
}

impl Default for MemProbe {
    fn default() -> MemProbe {
        MemProbe::new()
    }
}

/// Runs the probe every [`PROBE_EVERY`] of simulated time in a measured
/// phase, in a span of its own, and adds up its host time.
struct Probing<'a> {
    probe: &'a mut MemProbe,
    layer: profile::Layer,
    next: Ns,
    runs: u32,
    total_s: f64,
}

impl<'a> Probing<'a> {
    fn new(probe: &'a mut MemProbe, start: Ns) -> Probing<'a> {
        Probing {
            probe,
            layer: layer("host.mem_probe"),
            next: start + PROBE_EVERY,
            runs: 0,
            total_s: 0.0,
        }
    }

    /// Notes that simulated time has reached `now`.
    fn at(&mut self, now: Ns) {
        while now >= self.next {
            let probe = &mut *self.probe;
            self.total_s += span(self.layer, || probe.run());
            self.runs += 1;
            self.next += PROBE_EVERY;
        }
    }

    /// Mean seconds per probe run (one extra run if none fell due).
    fn mean_s(mut self) -> f64 {
        if self.runs == 0 {
            self.total_s = self.probe.run();
            self.runs = 1;
        }
        self.total_s / self.runs as f64
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn counts<B: TieredBackend>(sim: &Sim<B>) -> Counts {
    let p = sim.m.pebs.stats();
    Counts {
        pebs_generated: p.generated,
        pebs_dropped: p.dropped,
        pebs_drained: p.drained,
        migrations_done: sim.m.stats.migrations_done,
        migrations_aborted: sim.m.stats.migrations_aborted,
        wp_stalls: sim.m.stats.wp_stalls,
        dma_bytes_copied: sim.m.dma.stats().bytes_copied,
        recycles: sim.backend.fleet_stats().map_or(0, |f| f.recycles),
    }
}

/// Runs one rep. With `traced`, the backend is wrapped in [`Timed`] and
/// the [`profile`] registry holds the rep's layer rows until the next
/// rep starts.
pub fn run_rep(spec: &Spec, traced: bool, probe: &mut MemProbe) -> Rep {
    profile::reset(traced);
    let mut rep = match (spec.workload, traced) {
        (Workload::GupsShift, false) => gups_rep(spec, probe, hemem),
        (Workload::GupsShift, true) => {
            gups_rep(spec, probe, |mc| Timed::new("core.hemem", hemem(mc)))
        }
        (Workload::GupsNimble, false) => gups_rep(spec, probe, |_| nimble()),
        (Workload::GupsNimble, true) => {
            gups_rep(spec, probe, |_| Timed::new("baselines.nimble", nimble()))
        }
        (Workload::FleetChurn, _) => fleet_rep(spec, probe),
    };
    profile::stop();
    rep.peak_rss_kib = rep.peak_rss_kib.saturating_sub(probe.resident_kib);
    rep
}

fn hemem(mc: &MachineConfig) -> HeMem {
    span(layer("core.hemem.new"), || {
        HeMem::new(HeMemConfig::scaled_for(mc))
    })
}

fn nimble() -> Nimble {
    span(layer("baselines.nimble.new"), Nimble::paper)
}

/// Per-thread partition bounds in pages, as `Gups::setup` lays them out.
fn partitions(total_pages: u64, threads: u32) -> Vec<(u64, u64)> {
    let per = total_pages / threads as u64;
    (0..threads as u64)
        .map(|t| {
            let hi = if t + 1 == threads as u64 {
                total_pages
            } else {
                (t + 1) * per
            };
            (t * per, hi)
        })
        .collect()
}

/// The paper's GUPS batch for one thread: 90% of updates on its hot
/// slice, 10% uniform over its partition, each update a read and a
/// write of 8 bytes.
fn gups_batch(g: &Gups, cfg: &GupsConfig, part: (u64, u64), hot: (u64, u64)) -> AccessBatch {
    let seg = |(lo, hi): (u64, u64), weight: f64, llc_footprint: u64| SegmentAccess {
        region: g.region(),
        lo_page: lo,
        hi_page: hi,
        weight,
        llc_footprint,
        write_fraction: None,
    };
    AccessBatch {
        segments: vec![
            seg(hot, cfg.hot_fraction, cfg.hot_set),
            seg(part, 1.0 - cfg.hot_fraction, cfg.working_set),
        ],
        count: cfg.batch_ops * 2,
        object_size: cfg.object_size,
        write_fraction: 0.5,
        pattern: Pattern::Random,
        cpu_ns_per_access: 2.0,
        mlp: 4.0,
        sweep: false,
    }
}

fn gups_rep<B: TieredBackend>(
    spec: &Spec,
    probe: &mut MemProbe,
    backend: impl FnOnce(&MachineConfig) -> B,
) -> Rep {
    let (new, setup, step, submit) = (
        layer("core.runtime.new"),
        layer("workloads.gups.setup"),
        layer("core.runtime.step"),
        layer("core.runtime.submit_batch"),
    );
    let mut mc = MachineConfig::paper_testbed();
    mc.seed = spec.machine_seed;
    let cfg = GupsConfig::paper(GUPS_WS, GUPS_HOT);

    let t0 = Instant::now();
    let b = backend(&mc);
    let mut sim = span(new, || Sim::new(mc, b));
    let mut g = span(setup, || Gups::setup(&mut sim, cfg.clone()));
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let start = sim.now();
    let end = start + Ns::secs(spec.gups_seconds);
    let total_pages = sim.m.space.region(g.region()).page_count();
    let parts = partitions(total_pages, cfg.threads);
    let mut at = start + SHIFT_EVERY;
    while at < end {
        sim.schedule_custom(at, 0);
        at += SHIFT_EVERY;
    }
    for tid in 0..cfg.threads {
        sim.schedule_thread(start, tid);
    }
    let mut hot = g.hot_slices();
    let mut pending = vec![0u64; cfg.threads as usize];
    let mut live = cfg.threads;
    let mut updates = 0u64;
    let mut probing = Probing::new(probe, start);
    while live > 0 {
        let Some((now, ev)) = span(step, || sim.step()) else {
            break;
        };
        probing.at(now);
        match ev {
            Event::ThreadReady(tid) => {
                let t = tid as usize;
                updates += std::mem::take(&mut pending[t]);
                if now >= end {
                    live -= 1;
                    continue;
                }
                let batch = gups_batch(&g, &cfg, parts[t], hot[t]);
                span(submit, || sim.submit_batch(tid, &batch));
                pending[t] = cfg.batch_ops;
            }
            Event::Custom(_) => {
                g.shift_hot_set(SHIFT_BYTES);
                hot = g.hot_slices();
            }
            _ => unreachable!("step only returns workload events"),
        }
    }
    let measured_s = t1.elapsed().as_secs_f64() - probing.total_s;
    let covered_ns = profile::row("core.runtime.step").total_ns
        + profile::row("core.runtime.submit_batch").total_ns;
    let sim_ns = sim.now().saturating_sub(start).as_nanos();
    let probe_s = probing.mean_s();
    finish(sim, setup_s, measured_s, probe_s, covered_ns, |o| {
        o.updates = updates;
        o.sim_ns = sim_ns;
    })
}

/// fleetbench's fleet machine: 1 GiB DRAM + 1 GiB NVM + a 32 GiB SSD
/// tier, PEBS period scaled down 96x.
fn fleet_machine(seed: u64) -> MachineConfig {
    let mut mc = MachineConfig::small(1, 1).with_tier3(32 * GIB);
    mc.pebs.sample_period *= 96;
    mc.seed = seed;
    mc
}

/// fleetbench's gate scenario with more arrivals offered.
fn fleet_cfg(spec: &Spec) -> FleetConfig {
    let mut cfg = FleetConfig::gate(spec.fleet_arrivals);
    cfg.seed = spec.fleet_seed;
    cfg.working_set = 64 << 20;
    cfg.hot_set = 16 << 20;
    cfg.batch_ops = 5_000;
    cfg.slot_pages = FLEET_SLOT_PAGES;
    cfg.charge_pooled_cost = true;
    cfg
}

fn fleet_rep(spec: &Spec, probe: &mut MemProbe) -> Rep {
    let (new, run, observe) = (
        layer("core.runtime.new"),
        layer("workloads.fleet.run"),
        layer("core.telemetry.maybe_sample"),
    );
    let cfg = fleet_cfg(spec);
    let setup = || {
        let t0 = Instant::now();
        let mc = fleet_machine(spec.machine_seed);
        let backend = span(layer("core.hemem.new"), || {
            let mut h = HeMem::churn(
                HeMemConfig::scaled_for(&mc),
                FLEET_SLOTS,
                ArbiterPolicy::GreedyMissRatio,
            );
            h.set_slot_pages(FLEET_SLOT_PAGES);
            h.set_fleet_pooling(true);
            h
        });
        let sim = span(new, || Sim::new(mc, backend));
        (sim, t0.elapsed().as_secs_f64())
    };
    // Fleet setup is sub-millisecond, so one sample per rep is mostly
    // timer noise: set up several times and keep the median.
    let mut setups: Vec<f64> = (1..FLEET_SETUPS).map(|_| setup().1).collect();
    let (mut sim, last) = setup();
    setups.push(last);
    let setup_s = median(&mut setups);

    let t1 = Instant::now();
    let mut probing = Probing::new(probe, sim.now());
    let mut tel = TenantTelemetry::new(Ns::millis(20));
    let res = span(run, || {
        run_fleet_with(&mut sim, &cfg, |s| {
            probing.at(s.now());
            span(observe, || tel.maybe_sample(s));
        })
    });
    let measured_s = t1.elapsed().as_secs_f64() - probing.total_s;
    let probe_s = probing.mean_s();
    // The probe runs inside the driver's span but is not the driver's.
    let covered_ns =
        profile::row("workloads.fleet.run").total_ns - profile::row("host.mem_probe").total_ns;
    let sim_ns = sim.now().as_nanos();
    let telemetry = fnv1a(tel.csv().as_bytes());
    finish(sim, setup_s, measured_s, probe_s, covered_ns, |o| {
        o.stream = res.fingerprint;
        o.admitted = res.admitted;
        o.shed = res.shed;
        o.telemetry = telemetry;
        o.sim_ns = sim_ns;
    })
}

/// Fingerprints the final machine, then runs the silent audit (which
/// bumps a recovery counter when it finds something, so it goes last).
fn finish<B: TieredBackend>(
    mut sim: Sim<B>,
    setup_s: f64,
    measured_s: f64,
    probe_s: f64,
    covered_ns: u64,
    fill: impl FnOnce(&mut Outputs),
) -> Rep {
    let peak_rss_kib = status_kib("VmHWM:").unwrap_or(0);
    let mut out = Outputs {
        fingerprint: fingerprint(&sim),
        audit_violations: 0,
        updates: 0,
        stream: 0,
        admitted: 0,
        shed: 0,
        telemetry: 0,
        sim_ns: 0,
    };
    fill(&mut out);
    let counts = counts(&sim);
    out.audit_violations = sim.run_audit(false).len();
    Rep {
        setup_s,
        measured_s,
        probe_s,
        covered_ns,
        peak_rss_kib,
        out,
        counts,
    }
}

/// A KiB field of /proc/self/status (`VmHWM:` is the peak resident set).
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
