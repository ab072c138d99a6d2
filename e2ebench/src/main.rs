//! End-to-end benchmark of the MASC/BGMP simulator.
//!
//! `e2ebench --workload <masc_fig2|bgmp_data|bgmp_churn> --seed N
//! --seconds S --trace <0|1>` runs one workload in this process, prints
//! the host record, operations attempted and failed per kind, the
//! verdict of every correctness check and the metrics, and ends with
//! one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). It exits non-zero when a check
//! fails. See README.md for the workloads and metrics.

mod bgmp_work;
mod checks;
mod masc_fig2;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use trace::Tracer;

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("checkpoint_s", "s"),
    ("resume_s", "s"),
    ("snapshot_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.events", "events"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.timers", "timers"),
    ("simnet.messages", "messages"),
    ("simnet.queue_peak", "events"),
    ("masc.day_p50_ms", "ms"),
    ("masc.day_p90_ms", "ms"),
    ("masc.claims", "claims"),
    ("masc.collisions", "claims"),
    ("masc.grant_ratio", "grants/claims"),
    ("masc.grib_avg", "routes"),
    ("mcast-addr.candidates_ns", "ns"),
    ("topology.generate_s", "s"),
    ("core.build_s", "s"),
    ("bgp.converge_s", "s"),
    ("bgmp.join_phase_s", "s"),
    ("bgp.grib_lookup_ns", "ns"),
    ("core.data_settle_ms", "ms"),
    ("core.events_per_packet", "events"),
    ("bgp.flap_settle_ms", "ms"),
    ("bgmp.churn_settle_ms", "ms"),
    ("bgmp.joins", "joins"),
    ("bgmp.prunes", "prunes"),
    ("bgp.loc_rib_routes", "routes"),
    ("bgp.grib_routes", "routes"),
    ("bgmp.star_entries", "entries"),
    ("snapshot.encode_mb_per_s", "MB/s"),
    ("snapshot.rebuild_s", "s"),
    ("snapshot.restore_s", "s"),
];

/// Per-layer metrics that are deterministic counts: they are computed
/// in every run and must read the same traced and untraced.
pub const LAYER_COUNTS: &[&str] = &[
    "simnet.events",
    "simnet.timers",
    "simnet.messages",
    "simnet.queue_peak",
    "masc.claims",
    "masc.collisions",
    "masc.grant_ratio",
    "masc.grib_avg",
    "core.events_per_packet",
    "bgmp.joins",
    "bgmp.prunes",
    "bgp.loc_rib_routes",
    "bgp.grib_routes",
    "bgmp.star_entries",
];

/// Operations of one kind: attempted and failed.
pub struct OpKind {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload hands back to be printed.
#[derive(Default)]
pub struct Report {
    pub ops: Vec<OpKind>,
    /// (check, passed, detail)
    pub checks: Vec<(String, bool, String)>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    /// Free-form lines for the printout.
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, problems: &[String]) {
        let detail = problems
            .iter()
            .take(5)
            .cloned()
            .collect::<Vec<_>>()
            .join("; ");
        self.checks.push((name.into(), problems.is_empty(), detail));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.end_to_end.push((name, v));
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layer.push((name, v));
    }
}

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn host_record() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("host: cores={cores} cpu=\"{cpu}\" rustc=\"{rustc}\"")
}

fn json_metrics(list: &[(&str, &str)], values: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new(args.trace);
    println!("{}", host_record());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "masc_fig2" => masc_fig2::run(args.seed, budget, &mut tracer),
        "bgmp_data" => bgmp_work::run(bgmp_work::Kind::Data, args.seed, budget, &mut tracer),
        "bgmp_churn" => bgmp_work::run(bgmp_work::Kind::Churn, args.seed, budget, &mut tracer),
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (masc_fig2, bgmp_data, bgmp_churn)");
            return ExitCode::from(2);
        }
    };
    if tracer.enabled() {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_out/spans-{}-seed{}.jsonl",
                args.workload, args.seed
            ))
        });
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("e2ebench: could not write spans to {}: {e}", path.display()),
        }
    }

    for line in &report.notes {
        println!("{line}");
    }
    for k in &report.ops {
        println!(
            "ops {}: attempted={} failed={}",
            k.name, k.attempted, k.failed
        );
    }
    let mut correct = true;
    for (name, ok, detail) in &report.checks {
        correct &= ok;
        let verdict = if *ok { "pass" } else { "FAIL" };
        println!("check {name}: {verdict} {detail}");
    }
    for (name, unit) in END_TO_END {
        if let Some((_, v)) = report.end_to_end.iter().find(|(n, _)| n == name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    for (name, unit) in PER_LAYER {
        if let Some((_, v)) = report.layer.iter().find(|(n, _)| n == name) {
            let kind = if LAYER_COUNTS.contains(name) {
                "layer-count"
            } else {
                "layer"
            };
            println!("{kind} {name} = {v} {unit}");
        }
    }
    let attempted: u64 = report.ops.iter().map(|k| k.attempted).sum();
    let failed: u64 = report.ops.iter().map(|k| k.failed).sum();
    let metrics = if args.trace {
        json_metrics(PER_LAYER, &report.layer)
    } else {
        json_metrics(END_TO_END, &report.end_to_end)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
