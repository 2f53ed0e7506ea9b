//! Observing a run must not change it: on every workload, a traced rep
//! (backend wrapped in the timing wrapper, driver calls in spans) must
//! produce exactly the outputs of an untraced rep, with a silent audit.
//! A `TieredBackend` method the wrapper failed to forward would fall
//! back to the trait default: on a workload that calls it, that shows up
//! as a changed fingerprint, and for every method, the probe backend at
//! the end of this file catches it.

use std::cell::RefCell;
use std::rc::Rc;

use hemem_core::audit::AuditViolation;
use hemem_core::backend::{SegmentAccess, TickOutput, TierSplit, TieredBackend};
use hemem_core::fleet::FleetStats;
use hemem_core::machine::{MachineConfig, MachineCore};
use hemem_memdev::Pattern;
use hemem_pebs::SampleRecord;
use hemem_perfbench::timed::Timed;
use hemem_perfbench::{profile, run_rep, MemProbe, Spec, Workload};
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, TenantId, Tier};

/// A shortened rep of `workload`: the benchmark's configuration with a
/// smaller measured phase, so the test stays quick in a debug build.
fn short(workload: Workload) -> Spec {
    let mut spec = Spec::new(workload, 7);
    spec.gups_seconds = 4;
    spec.fleet_arrivals = 96;
    spec
}

#[test]
fn traced_outputs_equal_untraced_on_every_workload() {
    for workload in Workload::ALL {
        let spec = short(workload);
        let plain = run_rep(&spec, false, &mut MemProbe::new());
        let traced = run_rep(&spec, true, &mut MemProbe::new());
        assert_eq!(
            plain.out,
            traced.out,
            "{}: tracing changed the simulated outputs",
            workload.name()
        );
        assert_eq!(plain.counts, traced.counts, "{}", workload.name());
        assert_eq!(plain.out.audit_violations, 0, "{}", workload.name());
        assert!(plain.out.sim_ns > 0, "{}", workload.name());
        assert!(
            traced.covered_ns > 0 && plain.covered_ns == 0,
            "{}: only the traced rep may time spans",
            workload.name()
        );
    }
}

#[test]
fn traced_rep_times_the_wrapped_backend() {
    let traced = run_rep(&short(Workload::GupsShift), true, &mut MemProbe::new());
    let (tick, samples) = (
        profile::row("core.hemem.tick"),
        profile::row("core.hemem.on_samples"),
    );
    assert!(tick.calls > 0, "policy ticks went untimed");
    assert_eq!(
        samples.items, traced.counts.pebs_drained,
        "every drained PEBS sample reaches on_samples"
    );
    let step = profile::row("core.runtime.step");
    assert!(step.child_ns > 0 && step.self_ns() < step.total_ns);
}

#[test]
fn seeds_change_the_inputs() {
    let gups = |seed| {
        let mut spec = short(Workload::GupsShift);
        spec.machine_seed = Spec::new(Workload::GupsShift, seed).machine_seed;
        run_rep(&spec, false, &mut MemProbe::new()).out
    };
    assert_ne!(gups(1), gups(2), "the seed must reach the machine");
    let fleet = |fleet_seed| {
        run_rep(
            &Spec {
                fleet_seed,
                ..short(Workload::FleetChurn)
            },
            false,
            &mut MemProbe::new(),
        )
        .out
    };
    assert_ne!(
        fleet(1).stream,
        fleet(2).stream,
        "the fleet seed must reach the schedule"
    );
}

/// A backend that logs the name of every method called on it, the
/// defaulted ones included.
struct Probe(Rc<RefCell<Vec<&'static str>>>);

impl Probe {
    fn log(&self, method: &'static str) {
        self.0.borrow_mut().push(method);
    }
}

impl TieredBackend for Probe {
    fn name(&self) -> &'static str {
        self.log("name");
        "Probe"
    }
    fn wants_to_manage(&self, _len: u64) -> bool {
        self.log("wants_to_manage");
        true
    }
    fn on_mmap(&mut self, _m: &mut MachineCore, _region: RegionId) {
        self.log("on_mmap");
    }
    fn on_munmap(&mut self, _m: &mut MachineCore, _region: RegionId) {
        self.log("on_munmap");
    }
    fn place(&mut self, _m: &mut MachineCore, _page: PageId, _is_write: bool) -> Tier {
        self.log("place");
        Tier::Dram
    }
    fn placed(&mut self, _m: &mut MachineCore, _page: PageId, _tier: Tier) {
        self.log("placed");
    }
    fn split(
        &mut self,
        _m: &mut MachineCore,
        _seg: &SegmentAccess,
        _object_size: u32,
        _pattern: Pattern,
        _reads: f64,
        _writes: f64,
    ) -> TierSplit {
        self.log("split");
        TierSplit::default()
    }
    fn uses_pebs(&self) -> bool {
        self.log("uses_pebs");
        true
    }
    fn on_samples(&mut self, _m: &mut MachineCore, _samples: &[SampleRecord], _now: Ns) {
        self.log("on_samples");
    }
    fn tick(&mut self, _m: &mut MachineCore, _now: Ns) -> TickOutput {
        self.log("tick");
        TickOutput::default()
    }
    fn migration_done(&mut self, _m: &mut MachineCore, _page: PageId, _dst: Tier) {
        self.log("migration_done");
    }
    fn migration_aborted(&mut self, _m: &mut MachineCore, _page: PageId, _current: Tier) {
        self.log("migration_aborted");
    }
    fn swapped_out(&mut self, _m: &mut MachineCore, _page: PageId) {
        self.log("swapped_out");
    }
    fn reclaim_victim(&mut self, _m: &mut MachineCore) -> Option<PageId> {
        self.log("reclaim_victim");
        None
    }
    fn background_threads(&self) -> u32 {
        self.log("background_threads");
        0
    }
    fn recover(&mut self, _m: &mut MachineCore, _now: Ns) {
        self.log("recover");
    }
    fn audit(&self, _m: &MachineCore) -> Vec<AuditViolation> {
        self.log("audit");
        Vec::new()
    }
    fn tenant_killed(&mut self, _m: &mut MachineCore, _tenant: TenantId, _now: Ns) {
        self.log("tenant_killed");
    }
    fn tenant_drained(&mut self, _m: &mut MachineCore, _tenant: TenantId, _now: Ns) {
        self.log("tenant_drained");
    }
    fn fleet_stats(&self) -> Option<FleetStats> {
        self.log("fleet_stats");
        None
    }
    fn evacuation_dst(&mut self, _m: &mut MachineCore, _page: PageId, _from: Tier) -> Option<Tier> {
        self.log("evacuation_dst");
        None
    }
}

/// Every `TieredBackend` method called on the wrapper must reach the
/// wrapped backend, including the ones with trait defaults that a
/// benchmark workload may never call (`audit` on a clean run,
/// `recover`, `tenant_*`, `evacuation_dst`).
#[test]
fn timed_forwards_every_backend_method() {
    profile::reset(true);
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut b = Timed::new("probe", Probe(log.clone()));
    let mut m = MachineCore::new(MachineConfig::small(1, 1));
    let (region, now, tenant) = (RegionId(0), Ns::ZERO, TenantId::SOLO);
    let page = PageId { region, index: 0 };
    let seg = SegmentAccess {
        region,
        lo_page: 0,
        hi_page: 1,
        weight: 1.0,
        llc_footprint: 0,
        write_fraction: None,
    };
    let called = |method: &str| {
        assert_eq!(
            std::mem::take(&mut *log.borrow_mut()),
            [method],
            "Timed did not forward {method}"
        );
    };
    b.name();
    called("name");
    b.wants_to_manage(1);
    called("wants_to_manage");
    b.on_mmap(&mut m, region);
    called("on_mmap");
    b.on_munmap(&mut m, region);
    called("on_munmap");
    b.place(&mut m, page, false);
    called("place");
    b.placed(&mut m, page, Tier::Dram);
    called("placed");
    b.split(&mut m, &seg, 8, Pattern::Random, 1.0, 1.0);
    called("split");
    b.uses_pebs();
    called("uses_pebs");
    b.on_samples(&mut m, &[], now);
    called("on_samples");
    b.tick(&mut m, now);
    called("tick");
    b.migration_done(&mut m, page, Tier::Dram);
    called("migration_done");
    b.migration_aborted(&mut m, page, Tier::Nvm);
    called("migration_aborted");
    b.swapped_out(&mut m, page);
    called("swapped_out");
    b.reclaim_victim(&mut m);
    called("reclaim_victim");
    b.background_threads();
    called("background_threads");
    b.recover(&mut m, now);
    called("recover");
    b.audit(&m);
    called("audit");
    b.tenant_killed(&mut m, tenant, now);
    called("tenant_killed");
    b.tenant_drained(&mut m, tenant, now);
    called("tenant_drained");
    b.fleet_stats();
    called("fleet_stats");
    b.evacuation_dst(&mut m, page, Tier::Nvm);
    called("evacuation_dst");
    profile::stop();
    let timed: u64 = profile::rows()
        .iter()
        .filter(|(name, _)| name.starts_with("probe."))
        .map(|(_, row)| row.calls)
        .sum();
    assert_eq!(timed, 21, "every forwarded call is timed");
}
