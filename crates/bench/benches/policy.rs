//! Benchmarks of HeMem's control-plane hot paths: PEBS-sample
//! classification into the tracker, one policy pass, and full
//! page-table scan-and-classify passes (with and without Nimble's
//! referenced-streak rule).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hemem_baselines::scan::{scan_and_classify_with, ScanStreaks};
use hemem_baselines::scan_and_classify;
use hemem_core::hemem::{run_policy, PageTracker, PolicyConfig, TrackerConfig};
use hemem_core::machine::{MachineConfig, MachineCore};
use hemem_sim::{Ns, Rng};
use hemem_vmm::{PageId, RegionKind, Tier};

fn setup(pages: u64) -> (MachineCore, PageTracker, hemem_vmm::RegionId) {
    setup_on(MachineConfig::small(16, 64), pages)
}

/// One managed region of `pages` huge pages on `cfg`, every third page
/// in DRAM and the rest in NVM.
fn setup_on(cfg: MachineConfig, pages: u64) -> (MachineCore, PageTracker, hemem_vmm::RegionId) {
    let mut m = MachineCore::new(cfg);
    let ps = m.cfg.managed_page;
    let id = m
        .space
        .mmap(pages * ps.bytes(), ps, RegionKind::ManagedHeap);
    let mut t = PageTracker::new(TrackerConfig::default());
    t.add_region(id, pages);
    for i in 0..pages {
        let tier = if i % 3 == 0 { Tier::Dram } else { Tier::Nvm };
        let phys = m.pool_mut(tier).alloc().expect("capacity");
        m.space.region_mut(id).map_page(i, tier, phys);
        t.placed(
            PageId {
                region: id,
                index: i,
            },
            tier,
        );
    }
    (m, t, id)
}

fn bench_record(c: &mut Criterion) {
    c.bench_function("tracker/record_sample", |b| {
        let (_m, mut t, id) = setup(4096);
        let mut rng = Rng::new(7);
        b.iter(|| {
            let page = PageId {
                region: id,
                index: rng.gen_range(4096),
            };
            t.record(page, rng.bernoulli(0.5), Ns::secs(1));
        });
    });
}

fn bench_policy(c: &mut Criterion) {
    c.bench_function("policy/pass_with_hot_pages", |b| {
        let (mut m, mut t, id) = setup(4096);
        let cfg = PolicyConfig::default();
        for i in 2000..2100 {
            for _ in 0..8 {
                t.record(
                    PageId {
                        region: id,
                        index: i,
                    },
                    false,
                    Ns::secs(1),
                );
            }
        }
        b.iter(|| {
            let jobs = run_policy(&cfg, &mut t, &mut m, Ns::secs(2));
            // Restore popped pages so each iteration sees similar state.
            for j in &jobs {
                t.restore(j.page);
            }
            black_box(jobs.len())
        });
    });
}

fn bench_scan(c: &mut Criterion) {
    c.bench_function("scan/classify_16k_pages", |b| {
        let (mut m, mut t, id) = setup(16_384);
        b.iter(|| {
            m.space.region_mut(id).ledger.add(0, 16_384, 1e6, 1e5);
            black_box(scan_and_classify(&mut m, &mut t, Ns::secs(1), true).marked_hot)
        });
    });
    // Nimble's tick at the gups-nimble footprint (512 GiB of huge pages):
    // a saturated ledger sets every accessed and dirty bit, so the pass
    // is all streak and tracker bookkeeping, no draws.
    c.bench_function("scan/nimble_262k_pages", |b| {
        const PAGES: u64 = 262_144;
        let (mut m, mut t, id) = setup_on(MachineConfig::small(192, 384), PAGES);
        let mut streaks = ScanStreaks::new();
        b.iter(|| {
            m.space.region_mut(id).ledger.add(0, PAGES, 1e9, 1e8);
            let out =
                scan_and_classify_with(&mut m, &mut t, Ns::secs(1), false, Some(&mut streaks), 2);
            black_box(out.marked_hot)
        });
    });
}

criterion_group!(benches, bench_record, bench_policy, bench_scan);
criterion_main!(benches);
