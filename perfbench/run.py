#!/usr/bin/env python3
"""Host-time benchmark of the HeMem simulator.

    python3 perfbench/run.py --workload <gups-shift|gups-nimble|fleet-churn> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a cargo package of its
own), runs one workload in its own single-threaded process for about
`--seconds`, checks every rep's simulated outputs, appends the metrics to
`perfbench/records/<host>.json`, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the per-layer ones. See perfbench/README.md for what each one means.

`--print-expected` runs two short reps and prints the outputs record for
`perfbench/expected.json` instead of a result; nothing is written.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
RECORDS = os.path.join(HERE, "records")
WORKLOADS = ("gups-shift", "gups-nimble", "fleet-churn")
# A run must finish within 180 s of wall time, build included.
DEADLINE_S = 170
# The memory probe's reference time: a normalised wall second is a wall
# second on a host whose memory runs one probe in this many seconds.
PROBE_REF_S = 0.001

# Layer rows of a traced rep, reported as <row>.<ms key> and <row>.calls.
# Rows with nested timed calls report self time.
LAYER_ROWS = [
    ("core.runtime.new", "ms"),
    ("core.runtime.step", "self_ms"),
    ("core.runtime.submit_batch", "self_ms"),
    ("workloads.gups.setup", "self_ms"),
    ("workloads.fleet.run", "self_ms"),
    ("core.telemetry.maybe_sample", "ms"),
    ("core.hemem.new", "ms"),
    ("core.hemem.place", "ms"),
    ("core.hemem.split", "ms"),
    ("core.hemem.tick", "ms"),
    ("core.hemem.on_samples", "ms"),
    ("core.hemem.migration_done", "ms"),
    ("core.hemem.other", "ms"),
    ("baselines.nimble.new", "ms"),
    ("baselines.nimble.place", "ms"),
    ("baselines.nimble.split", "ms"),
    ("baselines.nimble.tick", "ms"),
    ("baselines.nimble.migration_done", "ms"),
    ("baselines.nimble.other", "ms"),
    ("host.mem_probe", "ms"),
]
COUNTS = [
    ("pebs.generated", "count"),
    ("pebs.dropped", "count"),
    ("core.runtime.migrations_done", "count"),
    ("core.runtime.migrations_aborted", "count"),
    ("core.runtime.wp_stalls", "count"),
    ("memdev.dma.bytes_copied", "bytes"),
    ("workloads.fleet.admitted", "count"),
    ("workloads.fleet.shed", "count"),
    ("core.fleet.recycles", "count"),
]
# The outputs that must repeat exactly, as recorded in expected.json.
OUTPUT_KEYS = ("fingerprint", "updates", "stream", "admitted", "shed", "telemetry", "sim_ns")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    for line in res.stdout.splitlines():
        msg = json.loads(line)
        if (msg.get("reason") == "compiler-artifact" and msg.get("executable")
                and msg["target"]["name"] == "hemem-perfbench"):
            return msg["executable"]
    fail("build produced no hemem-perfbench executable")


def host_key():
    """nproc plus the CPU model, as a file-name-safe string."""
    model = "unknown-cpu"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    key = f"{os.cpu_count()}cpu-{model}"
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", key)[:120]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check(run, args):
    """Returns whether each rep passed. A recorded seed must match
    expected.json; any other seed must replay: every rep must equal the
    outputs most reps agree on."""
    try:
        with open(EXPECTED) as f:
            expected = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the expected-outputs record {EXPECTED}: {e}")
    if run["workload"] not in expected:
        fail(f"{EXPECTED} has no record for {run['workload']}")
    rec = expected[run["workload"]]
    sizes = [k for k in ("gups_seconds", "fleet_arrivals") if run[k] != rec[k]]
    if sizes:
        fail(f"{EXPECTED} was recorded at other sizes ({sizes}); record it again")
    outs = [{k: r["outputs"][k] for k in OUTPUT_KEYS} for r in run["reps"]]
    # expected.json is recorded on fleetbench's gate schedule.
    ref = rec["seeds"].get(str(args.seed)) if args.fleet_seed is None else None
    if ref is None:
        print(f"perfbench: seed {args.seed} has no recorded outputs; checking replay",
              file=sys.stderr)
        blobs = [json.dumps(o, sort_keys=True) for o in outs]
        top = max(set(blobs), key=blobs.count)
        ref = json.loads(top) if blobs.count(top) >= 2 else None
    passed = []
    for i, (r, o) in enumerate(zip(run["reps"], outs)):
        ok = ref is not None and o == ref and r["outputs"]["audit_violations"] == 0
        if not ok:
            diff = [k for k in OUTPUT_KEYS if ref is None or o[k] != ref[k]]
            print(f"perfbench: rep {i} (traced={r['traced']}) failed: "
                  f"audit violations {r['outputs']['audit_violations']}, "
                  f"outputs differing: {diff}", file=sys.stderr)
        passed.append(ok)
    return passed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    # Host seconds are rescaled to normalised ones, at the reference
    # memory speed, by the rep's own probe runs: neighbours on a shared
    # host contend for its cache and DRAM in phases lasting many seconds
    # and slow the simulator and the probe alike (see README.md).
    def norm(r, host_s):
        return host_s * PROBE_REF_S / r["probe_s"]
    rates = [r["outputs"]["sim_ns"] / 1e9 / norm(r, r["measured_s"]) for r in reps]
    return {
        "sim_s_per_norm_wall_s": metric(statistics.median(rates), "s/s"),
        "setup_s": metric(statistics.median(norm(r, r["setup_s"]) for r in reps), "s"),
        # The first passing rep's high-water mark: later reps only add
        # the checks' allocations of the reps before them.
        "peak_rss_mb": metric(reps[0]["peak_rss_kib"] / 1024, "MB"),
    }


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    # A workload that never enters a layer did not register its row.
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "items": 0}
    m = {}
    for row, ms_key in LAYER_ROWS:
        ns_key = "self_ns" if ms_key == "self_ms" else "total_ns"
        rows = [r["layers"].get(row, zero) for r in traced]
        m[f"{row}.{ms_key}"] = metric(statistics.median(x[ns_key] / 1e6 for x in rows), "ms")
        m[f"{row}.calls"] = metric(rows[0]["calls"], "count")
        if row == "core.hemem.on_samples":
            m[f"{row}.samples"] = metric(rows[0]["items"], "count")
    counts = traced[0]["counts"]
    for name, unit in COUNTS:
        m[name] = metric(counts[name], unit)
    m["pebs.drained_frac"] = metric(
        counts["pebs.drained"] / counts["pebs.generated"] if counts["pebs.generated"] else 0.0,
        "ratio")
    m["trace.overhead_frac"] = metric(
        statistics.median(r["measured_s"] for r in traced)
        / statistics.median(r["measured_s"] for r in plain) - 1, "ratio")
    m["trace.unattributed_frac"] = metric(statistics.median(
        1 - r["covered_ns"] / 1e9 / r["measured_s"] for r in traced), "ratio")
    return m


def record(args, metrics, run, attempted, failed):
    """Appends this run to records/<host>.json under (workload, args):
    per metric, every value so far plus their median and quartiles."""
    key = f"{args.workload} --seconds {args.seconds} --trace {args.trace}"
    key += f" (gups_seconds {run['gups_seconds']}, fleet_arrivals {run['fleet_arrivals']})"
    if args.fleet_seed is not None:
        key += f" --fleet-seed {args.fleet_seed}"
    path = os.path.join(RECORDS, host_key() + ".json")
    os.makedirs(RECORDS, exist_ok=True)
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, ValueError):
        records = {}
    rec = records.setdefault(key, {"runs": 0, "attempted": 0, "failed": 0,
                                   "seeds": [], "metrics": {}})
    rec["runs"] += 1
    rec["attempted"] += attempted
    rec["failed"] += failed
    rec["seeds"].append(args.seed)
    for name, mv in metrics.items():
        m = rec["metrics"].setdefault(name, {"unit": mv["unit"], "values": []})
        m["values"].append(mv["value"])
        m["q1"], m["median"], m["q3"] = quartiles(m["values"])
        m["n"] = len(m["values"])
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fleet-seed", type=int, help="set the fleet schedule seed (default: fleetbench's gate schedule)")
    ap.add_argument("--print-expected", action="store_true",
                    help="print the outputs record for expected.json and exit")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    start = time.monotonic()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(1 if args.print_expected else args.seconds),
           "--trace", str(args.trace)]
    if args.fleet_seed is not None:
        cmd += ["--fleet-seed", str(args.fleet_seed)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(DEADLINE_S - (time.monotonic() - start), 1))
    except subprocess.TimeoutExpired:
        fail("the workload process overran the run deadline")
    if res.returncode != 0:
        fail(f"the workload process exited with {res.returncode}")
    run = json.loads(res.stdout.strip().splitlines()[-1])

    if args.print_expected:
        outs = [{k: r["outputs"][k] for k in OUTPUT_KEYS} for r in run["reps"]]
        if any(o != outs[0] for o in outs) or any(
                r["outputs"]["audit_violations"] for r in run["reps"]):
            fail("reps disagree or the audit is not silent; nothing to record")
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "gups_seconds": run["gups_seconds"],
                          "fleet_arrivals": run["fleet_arrivals"], "outputs": outs[0]}))
        return

    passed = check(run, args)
    good = [r for r, ok in zip(run["reps"], passed) if ok]
    attempted, failed = len(passed), passed.count(False)
    # Failed reps are left out of the timings. A traced run needs a
    # passing rep of each kind; without one there is nothing to time.
    kinds = {r["traced"] for r in good}
    if not good or (args.trace and kinds != {False, True}):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        fail("too few reps passed their output check to time; nothing recorded")
    metrics = per_layer(good) if args.trace else end_to_end(good)
    record(args, metrics, run, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
