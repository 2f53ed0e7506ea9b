//! `hemem-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--fleet-seed <n>]`
//!
//! Runs reps of one workload until the next rep would overrun
//! `--seconds` (at least two, so every run can check replay), and prints
//! one JSON line with every rep's timings and outputs. With `--trace 1`
//! reps alternate untraced and traced, and traced reps carry their layer
//! rows. `perfbench/run.py` checks and summarises the line.

use std::fmt::Write as _;
use std::time::Instant;

use hemem_perfbench::{profile, run_rep, MemProbe, Rep, Spec, Workload};

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: hemem-perfbench --workload <gups-shift|gups-nimble|fleet-churn> \
         --seed <n> --seconds <s> --trace <0|1> [--fleet-seed <n>]"
    );
    std::process::exit(2);
}

fn parse_u64(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a whole number")))
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn rep_json(rep: &Rep, traced: bool) -> String {
    let (o, c) = (&rep.out, &rep.counts);
    let mut s = format!(
        "{{\"traced\": {traced}, \"setup_s\": {}, \"measured_s\": {}, \"probe_s\": {}, \
         \"covered_ns\": {}, \
         \"peak_rss_kib\": {}, \
         \"outputs\": {{\"fingerprint\": {}, \"audit_violations\": {}, \"updates\": {}, \
         \"stream\": {}, \"admitted\": {}, \"shed\": {}, \"telemetry\": {}, \"sim_ns\": {}}}, \
         \"counts\": {{\"pebs.generated\": {}, \"pebs.dropped\": {}, \"pebs.drained\": {}, \
         \"core.runtime.migrations_done\": {}, \"core.runtime.migrations_aborted\": {}, \
         \"core.runtime.wp_stalls\": {}, \"memdev.dma.bytes_copied\": {}, \
         \"workloads.fleet.admitted\": {}, \"workloads.fleet.shed\": {}, \
         \"core.fleet.recycles\": {}}}",
        rep.setup_s,
        rep.measured_s,
        rep.probe_s,
        rep.covered_ns,
        rep.peak_rss_kib,
        json_str(&o.fingerprint),
        o.audit_violations,
        o.updates,
        o.stream,
        o.admitted,
        o.shed,
        o.telemetry,
        o.sim_ns,
        c.pebs_generated,
        c.pebs_dropped,
        c.pebs_drained,
        c.migrations_done,
        c.migrations_aborted,
        c.wp_stalls,
        c.dma_bytes_copied,
        o.admitted,
        o.shed,
        c.recycles,
    );
    if traced {
        s.push_str(", \"layers\": {");
        for (i, (name, r)) in profile::rows().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"items\": {}}}",
                r.calls,
                r.total_ns,
                r.self_ns(),
                r.items
            );
        }
        s.push('}');
    }
    s.push('}');
    s
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut fleet_seed = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--workload needs a name"));
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => seed = Some(parse_u64(args.next(), "--seed")),
            "--seconds" => seconds = Some(parse_u64(args.next(), "--seconds")),
            "--trace" => match args.next().as_deref() {
                Some("0") => trace = Some(false),
                Some("1") => trace = Some(true),
                _ => usage("--trace takes 0 or 1"),
            },
            "--fleet-seed" => fleet_seed = Some(parse_u64(args.next(), "--fleet-seed")),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let trace = trace.unwrap_or_else(|| usage("--trace is required"));
    let mut spec = Spec::new(workload, seed);
    spec.fleet_seed = fleet_seed.unwrap_or(spec.fleet_seed);

    // Reps run back to back until the next one would overrun the budget;
    // two are the floor, so every run replays at least once.
    let budget = seconds as f64;
    let start = Instant::now();
    let mut probe = MemProbe::new();
    let mut reps = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let traced = trace && reps.len() % 2 == 1;
        let t = Instant::now();
        let rep = run_rep(&spec, traced, &mut probe);
        longest = longest.max(t.elapsed().as_secs_f64());
        reps.push(rep_json(&rep, traced));
        if reps.len() >= 2 && start.elapsed().as_secs_f64() + longest > budget {
            break;
        }
    }

    println!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"machine_seed\": {}, \"fleet_seed\": {}, \
         \"gups_seconds\": {}, \"fleet_arrivals\": {}, \"reps\": [{}]}}",
        workload.name(),
        spec.machine_seed,
        spec.fleet_seed,
        spec.gups_seconds,
        spec.fleet_arrivals,
        reps.join(", ")
    );
}
