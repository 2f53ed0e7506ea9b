//! Equivalence of the drivers' streamed record hashing with the
//! format-then-hash form it replaced.
//!
//! The fleet driver used to hash `format!("{idx}|{batch:?}")` for every
//! submitted batch; it now formats that record once, when the instance
//! starts, into a buffer its slot reuses, and feeds the cached bytes
//! into a [`StreamHash`] every round. The churn and colocation drivers used to format
//! `"{tenant}|{tid}|{batch:?}"` once and hash the string into a
//! per-tenant stream and the run fingerprint; they now format straight
//! into both hashers. Both must hash exactly the old bytes: the replay
//! identities recorded for the benchmark pin them.

use std::fmt::Write as _;

use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_memdev::Pattern;
use hemem_vmm::RegionId;
use hemem_workloads::StreamHash;
use proptest::prelude::*;

/// The FNV-1a the drivers used to run over each formatted record.
fn reference_fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

const OFFSET: u64 = 0xcbf29ce484222325;

fn fraction() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.1), Just(0.9), Just(1.0), 0.0f64..1.0]
}

fn segment() -> impl Strategy<Value = SegmentAccess> {
    (
        (0u32..64, 0u64..1 << 20, 0u64..1 << 20),
        fraction(),
        any::<u64>(),
        (any::<bool>(), fraction()),
    )
        .prop_map(
            |((region, lo, len), weight, llc, (has_wf, wf))| SegmentAccess {
                region: RegionId(region),
                lo_page: lo,
                hi_page: lo + len,
                weight,
                llc_footprint: llc,
                write_fraction: has_wf.then_some(wf),
            },
        )
}

fn batch() -> impl Strategy<Value = AccessBatch> {
    (
        prop::collection::vec(segment(), 0..4),
        (any::<u64>(), prop_oneof![Just(8u32), any::<u32>()]),
        fraction(),
        any::<bool>(),
        (0.0f64..64.0, 1.0f64..16.0),
        any::<bool>(),
    )
        .prop_map(
            |(segments, (count, object_size), write_fraction, random, (cpu, mlp), sweep)| {
                AccessBatch {
                    segments,
                    count,
                    object_size,
                    write_fraction,
                    pattern: if random {
                        Pattern::Random
                    } else {
                        Pattern::Sequential
                    },
                    cpu_ns_per_access: cpu,
                    mlp,
                    sweep,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fleet form: each instance's record `"{idx}|{b:?}"` is written
    /// once into a buffer reused across instances and hashed on every
    /// round; admissions stream in between. The hash equals formatting
    /// every record afresh and hashing the string.
    #[test]
    fn fleet_cached_record_matches_formatted_record(
        instances in prop::collection::vec(
            (prop_oneof![0usize..4096, any::<usize>()], batch(), 1usize..5),
            1..6
        )
    ) {
        let mut old = OFFSET;
        let mut new = StreamHash::new();
        let mut record = String::new();
        for (idx, b, rounds) in &instances {
            reference_fnv1a(&mut old, format!("admit|{idx}|{}", b.count).as_bytes());
            new.record(format_args!("admit|{idx}|{}", b.count));
            record.clear();
            write!(record, "{idx}|{b:?}").unwrap();
            for _ in 0..*rounds {
                reference_fnv1a(&mut old, format!("{idx}|{b:?}").as_bytes());
                new.update(record.as_bytes());
                prop_assert_eq!(new.finish(), old);
            }
        }
    }

    /// Churn/colocation form: one record streamed into a per-tenant
    /// hash and the run fingerprint equals hashing the formatted record
    /// into each.
    #[test]
    fn paired_record_matches_formatted_record(
        records in prop::collection::vec((0usize..8, any::<u32>(), batch()), 1..6),
        prior in prop::collection::vec(any::<u8>(), 0..16)
    ) {
        // The per-tenant stream starts out of step with the fingerprint,
        // as it does once another tenant has submitted.
        let (mut old_stream, mut old_fp) = (OFFSET, OFFSET);
        reference_fnv1a(&mut old_fp, &prior);
        let (mut stream, mut fp) = (StreamHash::new(), StreamHash::new());
        fp.update(&prior);
        for (ten, tid, b) in &records {
            let repr = format!("{ten}|{tid}|{b:?}");
            reference_fnv1a(&mut old_stream, repr.as_bytes());
            reference_fnv1a(&mut old_fp, repr.as_bytes());
            stream.record_pair(&mut fp, format_args!("{ten}|{tid}|{b:?}"));
            prop_assert_eq!(stream.finish(), old_stream);
            prop_assert_eq!(fp.finish(), old_fp);
        }
    }
}
