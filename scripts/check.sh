#!/usr/bin/env bash
# Local mirror of CI: build, test, lint, chaos + recovery smoke. Run
# from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

# N-tier hygiene: placement, audit, and quota machinery must iterate
# the machine's tier vector, never a hardcoded DRAM/NVM pair — and
# tenant-aware code must thread the real tenant id, never the solo
# slot's `TenantId(0)`. The only allowed literals live in the tier
# table / solo-compat shim (vmm/src/addr.rs); #[cfg(test)] modules
# (which sit at the bottom of each file) are exempt, so scanning stops
# at the first cfg(test) marker.
echo "== tier-literal gate"
bad=$(find crates -name '*.rs' -path '*/src/*' ! -path '*/vmm/src/addr.rs' -print0 \
  | xargs -0 -n1 awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' \
  | grep -E '\[Tier::Dram, *Tier::Nvm\]|\[Tier::Nvm, *Tier::Dram\]|TenantId\(0\)' || true)
if [ -n "$bad" ]; then
  echo "hardcoded tier-pair or TenantId(0) literal outside vmm/src/addr.rs:"
  echo "$bad"
  exit 1
fi

# Cargo.toml's default-members covers every crate, so the tier-1
# `cargo build --release && cargo test -q` already runs the whole
# workspace; --workspace stays explicit here.
echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== chaos smoke"
cargo build --release -p hemem-bench --bin chaosbench
./target/release/chaosbench --scale 96 --seconds 4

# crashbench asserts internally that every kill schedule recovers,
# audits clean, completes, and replays byte-identically; a violation
# aborts the run and fails this step.
echo "== recovery smoke"
cargo build --release -p hemem-bench --bin crashbench
./target/release/crashbench --seed 7 --scale 96 --seconds 3

# obsbench asserts internally that a traced GUPS run is byte-identical
# to an untraced one, that the exported Chrome-trace JSON parses with
# monotone timestamps and matched span begin/ends, and that migration,
# fault, policy-pass, and PEBS events all appear.
echo "== observability smoke"
cargo build --release -p hemem-bench --bin obsbench
./target/release/obsbench --scale 96 --seconds 1

# colobench asserts internally that a one-tenant run under the arbiter
# is byte-identical to the single-process manager, that the two-tenant
# mix replays byte-identically, that every run passes the tenant-scoped
# audit, and that greedy arbitration strictly beats static equal shares
# on the hot + cold mix.
echo "== colocation smoke"
cargo build --release -p hemem-bench --bin colobench
./target/release/colobench --scale 96 --seconds 3

# tierbench asserts internally that (a) the 2-tier machine is
# byte-identical to the committed pre-SSD baseline, (b) the managed
# 3-tier policy beats spill-at-allocation under 1.5x oversubscription,
# and (c) 3-tier runs (plain and with seeded SSD faults) replay
# byte-identically.
echo "== tier-3 smoke"
cargo build --release -p hemem-bench --bin tierbench
./target/release/tierbench

# churnbench asserts internally that (a) the seeded arrival/kill/balloon
# schedule replays byte-identically under a media+PEBS storm, (b) every
# kill drains to zero frames with the quota returned and the audit
# silent, (c) a storm-afflicted neighbor cannot push the surviving
# anchor's major-fault p99 past 2x the storm-free run (and the
# per-tenant circuit breaker actually trips), and (d) tracing the
# lifecycle instants leaves the run byte-identical.
echo "== tenant churn smoke"
cargo build --release -p hemem-bench --bin churnbench
./target/release/churnbench

# failbench asserts internally that (a) seeded mid-run NVM and SSD
# failures replay byte-identically, (b) the failed tier drains to zero
# frames through the journaled evacuation with a silent audit and the
# survivors' major-fault p99 within 4x of the clean leg, (c) evacuating
# strictly beats abandoning the tier's contents on completed ops, and
# (d) tracing the health instants is byte-transparent.
echo "== tier failure smoke"
cargo build --release -p hemem-bench --bin failbench
./target/release/failbench

# nomadbench asserts internally that (a) non-exclusive tiering turns a
# demotion-heavy oversubscribed churn into zero-copy remaps (>= 30% of
# journaled migration bytes saved, major-fault p99 no worse), (b) the
# shadows-off config is byte-identical to the committed tierbench
# baselines, and (c) shadowed runs with seeded manager/tenant kills
# replay byte-identically with a silent audit.
echo "== non-exclusive tiering smoke"
cargo build --release -p hemem-bench --bin nomadbench
./target/release/nomadbench

# scalebench asserts internally that (a) the multi-grain region policy
# pass is sublinear across a 2-16 GiB footprint sweep while the flat
# per-page comparator grows ~linearly, (b) the adaptive PEBS controller
# holds the sample-drop fraction where the same fixed period blows the
# budget, (c) the regions-off config is byte-identical to the committed
# tierbench baselines, and (d) killed multi-grain+adaptive runs replay
# byte-identically with a silent audit.
echo "== footprint-scaling smoke"
cargo build --release -p hemem-bench --bin scalebench
./target/release/scalebench

# fleetbench asserts internally that (a) pooled spawn-to-first-touch
# p99 sits >= 5x below the from-scratch baseline with zero scratch
# spawns and most admissions landing on recycled slots, (b) a
# recycled-slot run is byte-identical (fingerprint + stream + telemetry
# CSV) to the same schedule on fresh slots, and (c) seeded mid-run slot
# kills replay byte-identically with a silent audit while the committed
# solo tierbench baseline stays untouched.
echo "== fleet churn smoke"
cargo build --release -p hemem-bench --bin fleetbench
./target/release/fleetbench

# Slot-pool hygiene: every tenant spawn must flow through the pool
# (claim + in-place reset), never construct a tracker ad hoc — the only
# PageTracker::new call sites in the managed layers live in
# core/src/fleet.rs. Baselines keep their own trackers and are exempt;
# comments and #[cfg(test)] modules are exempt by the same cutoffs as
# above.
echo "== pooled-spawn gate"
bad=$(find crates/core/src crates/workloads/src -name '*.rs' ! -name 'fleet.rs' -print0 \
  | xargs -0 -n1 awk '/#\[cfg\(test\)\]/{exit} /^[[:space:]]*\/\//{next} {print FILENAME ":" FNR ": " $0}' \
  | grep -F 'PageTracker::new' || true)
if [ -n "$bad" ]; then
  echo "tenant tracker built outside the slot pool (core/src/fleet.rs):"
  echo "$bad"
  exit 1
fi

# Region-granularity hygiene: the per-period policy pass must select
# work through the span indexes (regions.rs) — never a fresh flat
# per-page scan in the policy or manager layer. Crash-recovery and
# audit full scans live in tracker.rs and are exempt by file;
# #[cfg(test)] modules are exempt by the same cutoff as above.
echo "== flat-scan gate"
bad=$(for f in crates/core/src/hemem/policy.rs crates/core/src/hemem/manager.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f"
  done | grep -E 'for [^ ]+ in 0\.\.pages|for [^ ]+ in 0\.\.[a-z_.]*pages\(\)|\.meta\.iter|0\.\.self\.meta\.len' || true)
if [ -n "$bad" ]; then
  echo "flat per-page policy scan outside regions.rs/tracker.rs:"
  echo "$bad"
  exit 1
fi

# perfbench correctness smoke: the benchmark's own tests (traced ==
# untraced on every workload, every wrapped backend method forwarded),
# then short fleet-churn and gups-shift runs. run.py exits 1 when no rep
# matches the outputs and fingerprint recorded in perfbench/expected.json:
# the fleet stream hash, admissions, sheds and telemetry hash, and the
# GUPS updates, which every PEBS sample draw feeds.
echo "== perfbench smoke"
cargo test --release --manifest-path perfbench/Cargo.toml
python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 3 --trace 0
python3 perfbench/run.py --workload gups-shift --seed 1 --seconds 3 --trace 0

# Driver hashing hygiene: the per-batch ThreadReady paths of the fleet,
# churn and colocation drivers hash each record by streaming it into a
# StreamHash, never by formatting a String first (the per-round
# format! was half of fleetbench's wall time). The scan runs from the
# ThreadReady match to the end of the driver function. FNV-1a itself
# lives once, in workloads/src/hash.rs.
echo "== driver-hashing gate"
bad=$(for f in crates/workloads/src/fleet.rs crates/workloads/src/churn.rs crates/workloads/src/colo.rs; do
    awk '/Event::ThreadReady/{on=1} on && /^}/{exit} /^[[:space:]]*\/\//{next} on {print FILENAME ":" FNR ": " $0}' "$f"
  done | grep -F 'format!(' || true)
if [ -n "$bad" ]; then
  echo "format! on a per-batch ThreadReady path:"
  echo "$bad"
  exit 1
fi
defs=$(grep -rn 'fn fnv1a' crates/workloads/src || true)
if [ "$(printf '%s\n' "$defs" | grep -c .)" -ne 1 ]; then
  echo "fn fnv1a must be defined exactly once under crates/workloads/src:"
  echo "$defs"
  exit 1
fi

# Wall-clock regression gate: the gate benches above each rewrote their
# entry in BENCH_sim_wallclock.json. Compare against the committed
# baseline with a 3x tolerance — machine-to-machine variance is real,
# but an order-of-magnitude simulator slowdown is a bug. Benches with
# no committed entry yet are skipped.
echo "== sim wall-clock regression gate"
if git show HEAD:BENCH_sim_wallclock.json >target/wallclock_base.json 2>/dev/null; then
  jq -r 'to_entries[] | "\(.key) \(.value.wall_seconds)"' BENCH_sim_wallclock.json \
  | while read -r bench fresh; do
      base=$(jq -r --arg b "$bench" '.[$b].wall_seconds // empty' target/wallclock_base.json)
      [ -z "$base" ] && { echo "   $bench: ${fresh}s (no baseline, skipped)"; continue; }
      if awk -v f="$fresh" -v b="$base" 'BEGIN { exit !(f > 3 * b) }'; then
        echo "wall-clock regression: $bench took ${fresh}s vs committed ${base}s (>3x)"
        exit 1
      fi
      echo "   $bench: ${fresh}s vs baseline ${base}s"
    done
else
  echo "   no committed BENCH_sim_wallclock.json; skipping"
fi

echo "== all checks passed"
