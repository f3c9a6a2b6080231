//! eider-e2e: the repository's end-to-end + per-layer benchmark.
//!
//! One process drives the engine through its four front doors — embedded
//! cursor, `eider-server` over a socket, Arrow export, appender ingest —
//! on four workloads, checks every answer against a seeded oracle, and
//! prints every metric by name with its unit. See README.md beside this
//! package for the metric glossary and how the layers map onto them.
//!
//! ```text
//! eider-e2e [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
//!           [--smoke] [--repeat N] [--emit-spec]
//! ```
//!
//! With `--workload` and one pass selected (`--trace 0` or `--trace 1`),
//! the last line of standard output is the driver's JSON object.

mod gen;
mod host;
mod json;
mod spec;
mod stats;
mod tmp;
mod trace;
mod workloads;

use spec::{MetricSpec, WORKLOADS};
use std::collections::BTreeMap;
use workloads::{Cfg, Report, Scale};

const USAGE: &str = "usage: eider-e2e [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] \
                     [--smoke] [--repeat N] [--emit-spec]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: both passes. `Some(false)`: end-to-end only. `Some(true)`:
    /// traced only.
    trace: Option<bool>,
    smoke: bool,
    repeat: Option<usize>,
    emit_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: None,
        emit_spec: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name}; one of {}", known.join(", ")));
                }
                a.workload = Some(name);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--repeat" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                a.repeat = Some(n);
            }
            // `--trace` alone means the traced pass; the driver passes 0 or 1.
            "--trace" => {
                a.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            "--smoke" => a.smoke = true,
            "--emit-spec" => a.emit_spec = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn run_pass(workload: &str, traced: bool, cfg: &Cfg) -> eider_vector::Result<Report> {
    use workloads::{dashboard, etl, olap, server};
    match (workload, traced) {
        ("olap_embedded", false) => olap::run(cfg),
        ("olap_embedded", true) => olap::run_traced(cfg),
        ("dashboard_mixed", false) => dashboard::run(cfg),
        ("dashboard_mixed", true) => dashboard::run_traced(cfg),
        ("server_fetch", false) => server::run(cfg),
        ("server_fetch", true) => server::run_traced(cfg),
        ("etl_durable", false) => etl::run(cfg),
        ("etl_durable", true) => etl::run_traced(cfg),
        (other, _) => unreachable!("{other} passed --workload validation"),
    }
}

/// Which quantile a metric name claims, if any.
fn claimed_quantile(name: &str) -> Option<f64> {
    [("_p50_", 0.50), ("_p95_", 0.95), ("_p99_", 0.99)]
        .iter()
        .find(|(tag, _)| name.contains(tag))
        .map(|&(_, q)| q)
}

fn print_report(workload: &str, report: &Report, units: &BTreeMap<String, &'static str>) {
    for m in &report.metrics {
        let unit = units.get(&m.name).copied().unwrap_or("?");
        let mut line = format!("metric {workload} {} {} {unit}", m.name, json::number(m.value));
        if let Some(n) = m.samples {
            line.push_str(&format!(" n={n}"));
            if claimed_quantile(&m.name).is_some_and(|q| !stats::supported(n, q)) {
                let highest = stats::highest_supported(n)
                    .map_or("no percentile".into(), |q| format!("at most p{}", q * 100.0));
                line.push_str(&format!(" (too few samples: n supports {highest})"));
            }
        }
        println!("{line}");
    }
    println!(
        "ops {workload} attempted={} failed={} failed_frac={}",
        report.log.attempted,
        report.log.failed,
        json::number(report.log.failed_frac())
    );
    for (what, n) in report.log.errors.iter().take(8) {
        println!("failure {workload} x{n}: {what}");
    }
    for note in &report.notes {
        println!("note {workload} {note}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, and in `metrics` exactly the names `wanted`.
fn driver_json(report: &Report, wanted: &[MetricSpec], required: bool) -> Result<String, String> {
    let mut fields = Vec::with_capacity(wanted.len());
    for m in wanted {
        let value = match report.get(&m.name) {
            Some(v) => v,
            None if required => return Err(format!("the pass did not measure {}", m.name)),
            // A layer this workload does not exercise.
            None => 0.0,
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(&m.name),
            json::number(value),
            json::string(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.log.failed == 0,
        report.log.attempted.max(1),
        report.log.failed,
        fields.join(", ")
    ))
}

/// `--repeat N`: N end-to-end passes per workload on N seeds, then per
/// metric the extremes, the median, and the spread the acceptance check
/// computes (quartile distance over median) beside the metric's bound.
fn repeat(names: &[&str], sets: usize, cfg: &Cfg) -> Result<bool, String> {
    let e2e = spec::end_to_end();
    let mut all_within = true;
    for &w in names {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut failed = Vec::new();
        for i in 0..sets {
            let cfg = Cfg { seed: cfg.seed + i as u64, ..*cfg };
            let report = run_pass(w, false, &cfg).map_err(|e| format!("{w}: {e}"))?;
            for m in &e2e {
                let v = report.get(&m.name).ok_or(format!("{w} did not measure {}", m.name))?;
                values.entry(m.name.as_str()).or_default().push(v);
            }
            failed.push(report.log.failed);
            println!("set {w} seed={} done, failed={}", cfg.seed, report.log.failed);
        }
        for m in &e2e {
            let v = &values[m.name.as_str()];
            let mut s = stats::Samples::new();
            v.iter().for_each(|&x| s.push(x));
            let bound = m.bound.unwrap_or(0.0);
            let spread = stats::spread(v);
            let flag = match spread {
                Some(sp) if sp > bound => {
                    all_within = false;
                    "  SPREAD EXCEEDS BOUND"
                }
                Some(sp) if sp > bound / 3.0 => "  (above a third of the bound)",
                _ => "",
            };
            println!(
                "repeat {w} {} {}: min={} median={} max={} spread={} bound={bound}{flag}",
                m.name,
                m.unit,
                json::number(s.min()),
                json::number(s.median()),
                json::number(s.max()),
                spread.map_or("n/a".into(), json::number),
            );
        }
        println!("repeat {w} failed ops per set: {failed:?}");
    }
    Ok(all_within)
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return Ok(0);
    }
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.3 } else { spec::RUN_SECONDS as f64 }),
        scale: if args.smoke { Scale::smoke() } else { Scale::full() },
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let workers = eider_core::Database::in_memory()
        .map(|db| db.policy().worker_threads())
        .map_err(|e| format!("cannot open an in-memory database: {e}"))?;
    println!(
        "# eider-e2e seed={} seconds={} scale={} nproc={} exec.workers_default={workers} commit={}",
        cfg.seed,
        cfg.seconds,
        if args.smoke { "smoke" } else { "full" },
        host::nproc(),
        host::commit_hash()
    );
    println!("# flush policy: {}", workloads::etl::FLUSH_POLICY);

    if let Some(sets) = args.repeat {
        return Ok(if repeat(&names, sets, &cfg)? { 0 } else { 1 });
    }

    let (e2e, layers) = (spec::end_to_end(), spec::per_layer());
    let units: BTreeMap<String, &'static str> =
        e2e.iter().chain(&layers).map(|m| (m.name.clone(), m.unit)).collect();
    let passes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let driver_mode = names.len() == 1 && passes.len() == 1;
    let mut any_failed = false;
    let mut last_line = None;
    for &w in &names {
        let mut read_rate = [None; 2];
        for &traced in passes {
            println!("# {w}: {} pass", if traced { "traced (per-layer)" } else { "end-to-end" });
            let report = run_pass(w, traced, &cfg).map_err(|e| format!("{w}: {e}"))?;
            print_report(w, &report, &units);
            if traced {
                let path = tmp::output_root().join(format!("trace_{w}.json"));
                trace::write_json(&path, w, cfg.seed, &report.spans)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("# {} spans written to {}", report.spans.len(), path.display());
                for (name, t) in trace::self_times(&report.spans) {
                    println!(
                        "span {w} {name} count={} total_ms={:.3} self_ms={:.3}",
                        t.count,
                        t.total_ns as f64 / 1e6,
                        t.self_ns as f64 / 1e6
                    );
                }
            }
            any_failed |= report.log.failed > 0;
            read_rate[usize::from(traced)] = report.get("read_ops_per_s");
            if driver_mode {
                let wanted = if traced { &layers } else { &e2e };
                last_line = Some(driver_json(&report, wanted, !traced)?);
            }
        }
        // The observed difference between the two passes; beside
        // `harness.trace_overhead_frac` it shows how much of it is noise.
        if let [Some(plain), Some(traced)] = read_rate {
            println!(
                "# {w}: read_ops_per_s {} untraced, {} traced ({:+.1} %)",
                json::number(plain),
                json::number(traced),
                (traced / plain - 1.0) * 100.0
            );
        }
    }
    match last_line {
        // The driver reads `correct` and `failed`; the exit code says only
        // that the benchmark ran.
        Some(line) => {
            println!("{line}");
            Ok(0)
        }
        None => Ok(i32::from(any_failed)),
    }
}

fn main() {
    // Every temp-dir guard has dropped by the time `real_main` returns,
    // so exiting here leaves nothing behind.
    let code = match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("eider-e2e: {message}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload server_fetch --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("server_fetch"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(20.0), Some(true)));
        assert_eq!(args("--trace 0").unwrap().trace, Some(false));
        assert_eq!(args("--trace --smoke").unwrap().trace, Some(true));
        assert!(args("--smoke").unwrap().smoke && args("").unwrap().trace.is_none());
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--repeat 0").is_err());
        assert!(args("--bogus").is_err());
    }

    /// A smoke-sized pass of every workload, both ways, end to end: every
    /// contract metric is measured, no op fails, and the result line has
    /// the shape the driver parses.
    #[test]
    fn every_workload_emits_every_contract_metric_at_smoke_size() {
        let cfg = Cfg { seed: 5, seconds: 0.2, scale: Scale::smoke() };
        let (e2e, layers) = (spec::end_to_end(), spec::per_layer());
        let mut measured_layers = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            let report = run_pass(w.name, false, &cfg).unwrap();
            assert_eq!(report.log.failed, 0, "{}: {:?}", w.name, report.log.errors);
            let line = driver_json(&report, &e2e, true).unwrap();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            assert!(!line.contains('\n'));
            for m in &e2e {
                let v = report.get(&m.name).unwrap();
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
            }

            let traced = run_pass(w.name, true, &cfg).unwrap();
            assert_eq!(traced.log.failed, 0, "{}: {:?}", w.name, traced.log.errors);
            assert!(!traced.spans.is_empty());
            for m in &traced.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
                assert!(
                    e2e.iter().chain(&layers).any(|s| s.name == m.name),
                    "{} reports {}, which the spec does not list",
                    w.name,
                    m.name
                );
                measured_layers.insert(m.name.clone());
            }
            let line = driver_json(&traced, &layers, false).unwrap();
            assert_eq!(line.matches("\"unit\": ").count(), layers.len());
        }
        for m in &layers {
            assert!(measured_layers.contains(&m.name), "no workload measures {}", m.name);
        }
    }
}
