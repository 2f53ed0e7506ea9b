//! Microbenchmarks of the core data structures on HeMem's hot paths: the
//! page FIFO queues (every PEBS sample may move a page), the Fenwick
//! residency index (every batch queries it, every PEBS record selects a
//! page through it), the access ledger, the HDR
//! histogram, the sampled direct-mapped cache, and the PEBS buffer.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hemem_memdev::{DramCache, DramCacheConfig};
use hemem_pebs::{Pebs, PebsConfig, SampleRecord, SampleType};
use hemem_sim::list::{FifoArena, FifoList};
use hemem_sim::{Histogram, Rng, Zipf};
use hemem_vmm::fenwick::FlagTree;
use hemem_vmm::{AccessLedger, AddressSpace, PageSize, PhysPage, RegionKind, Tier};

fn bench_fifo(c: &mut Criterion) {
    c.bench_function("fifo/push_pop_cycle", |b| {
        let mut arena = FifoArena::new(4096);
        let mut list = FifoList::new(0);
        for s in 0..4096 {
            list.push_back(&mut arena, s);
        }
        b.iter(|| {
            let s = list.pop_front(&mut arena).expect("nonempty");
            list.push_back(&mut arena, s);
            black_box(s)
        });
    });
    c.bench_function("fifo/remove_middle_reinsert", |b| {
        let mut arena = FifoArena::new(4096);
        let mut list = FifoList::new(0);
        for s in 0..4096 {
            list.push_back(&mut arena, s);
        }
        let mut i = 0u32;
        b.iter(|| {
            let s = (i * 2654435761) % 4096;
            i = i.wrapping_add(1);
            list.remove(&mut arena, s);
            list.push_front(&mut arena, s);
        });
    });
}

fn bench_fenwick(c: &mut Criterion) {
    c.bench_function("fenwick/set_and_range", |b| {
        let mut t = FlagTree::new(262_144);
        let mut rng = Rng::new(1);
        b.iter(|| {
            let i = rng.gen_range(262_144) as usize;
            t.set(i, !t.get(i));
            black_box(t.count_range(1000, 200_000))
        });
    });
    // A region of the GUPS cold region's scale: 262,144 huge pages, a
    // quarter unmapped, a quarter DRAM, three eighths NVM, an eighth SSD.
    // The harness times few iterations, so each one runs 1,024 queries.
    const PAGES: u64 = 262_144;
    const QUERIES: u64 = 1_024;
    let mut space = AddressSpace::new();
    let id = space.mmap(PAGES << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
    let region = space.region_mut(id);
    let mut rng = Rng::new(6);
    for i in 0..PAGES {
        let tier = match rng.gen_range(8) {
            0 | 1 => continue,
            2 | 3 => Tier::Dram,
            7 => Tier::Ssd,
            _ => Tier::Nvm,
        };
        region.map_page(i, tier, PhysPage(i));
    }
    let region = space.region(id);
    let nvm = region.mapped_pages() - region.dram_pages() - region.ssd_pages();
    c.bench_function("fenwick/kth_nvm", |b| {
        let mut rng = Rng::new(7);
        b.iter(|| {
            for _ in 0..QUERIES {
                black_box(region.kth_nvm_page_in(0, PAGES, rng.gen_range(nvm)));
            }
        });
    });
    c.bench_function("fenwick/first_set_in", |b| {
        let mut t = FlagTree::new(PAGES as usize);
        for i in 0..PAGES {
            t.set(i as usize, region.dram_pages_in(i, i + 1) == 1);
        }
        let mut rng = Rng::new(8);
        b.iter(|| {
            for _ in 0..QUERIES {
                black_box(t.first_set_in(rng.gen_range(PAGES) as usize));
            }
        });
    });
}

fn bench_ledger(c: &mut Criterion) {
    c.bench_function("ledger/add_segments_clear", |b| {
        b.iter_batched(
            AccessLedger::new,
            |mut l| {
                for i in 0..32 {
                    l.add(i * 100, i * 100 + 100, 1000.0, 500.0);
                }
                black_box(l.segments().len())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record", |b| {
        let mut h = Histogram::new();
        let mut rng = Rng::new(2);
        b.iter(|| h.record(rng.gen_range(10_000_000)));
    });
    c.bench_function("histogram/quantile", |b| {
        let mut h = Histogram::new();
        let mut rng = Rng::new(3);
        for _ in 0..100_000 {
            h.record(rng.gen_range(10_000_000));
        }
        b.iter(|| black_box(h.quantile(0.999)));
    });
}

fn bench_dram_cache(c: &mut Criterion) {
    c.bench_function("dramcache/access", |b| {
        let mut cache = DramCache::new(DramCacheConfig {
            dram_bytes: 1 << 30,
            line_size: 64,
            sample_shift: 4,
        });
        let mut rng = Rng::new(4);
        b.iter(|| {
            let addr = rng.gen_range(8 << 30);
            black_box(cache.access(addr, addr & 1 == 0))
        });
    });
}

fn bench_pebs(c: &mut Criterion) {
    c.bench_function("pebs/event_push_drain", |b| {
        let mut p = Pebs::new(PebsConfig::default());
        let mut addr = 0u64;
        b.iter(|| {
            let fired = p.events(SampleType::Store, 10_000);
            for _ in 0..fired {
                addr = addr.wrapping_add(4096);
                p.push(SampleRecord {
                    vaddr: addr,
                    kind: SampleType::Store,
                });
            }
            black_box(p.drain(64).len())
        });
    });
}

fn bench_zipf(c: &mut Criterion) {
    c.bench_function("zipf/sample", |b| {
        let z = Zipf::new(1 << 24, 0.99);
        let mut rng = Rng::new(5);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

criterion_group!(
    benches,
    bench_fifo,
    bench_fenwick,
    bench_ledger,
    bench_histogram,
    bench_dram_cache,
    bench_pebs,
    bench_zipf
);
criterion_main!(benches);
