//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! table rendered (`--emit-spec`); a unit test keeps the two equal.

use crate::json;
use crate::workloads::olap::QUERY_NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which explain and do not gate.
    pub bound: Option<f64>,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Loop type, clients, sizes and why the workload exists — one line.
    pub why: &'static str,
}

/// How long one pass measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "olap_embedded",
        why: "closed loop, 1 client, in-memory star schema (200k orders, 20k customers, 49 \
              buckets), nine analytic queries per round via query_stream: exec does the work; \
              sql, wire and storage are idle",
    },
    WorkloadSpec {
        name: "dashboard_mixed",
        why: "closed loop, 1 reader + 1 UPDATE writer on one 200k-row in-memory table, ten \
              millisecond panel queries per round, each checked as one snapshot: per-statement \
              costs, txn, reads beside writes",
    },
    WorkloadSpec {
        name: "server_fetch",
        why: "closed loop, 1 client over loopback TCP to serve_session: 200k x 5 fixed-width \
              rows, 100k dictionary-string rows, a one-row floor per round: wire encode/decode \
              and framing dominate; exec only scans",
    },
    WorkloadSpec {
        name: "etl_durable",
        why: "closed loop, 1 client, on-disk database: cycles of 6 rounds of 50k-row CSV append, \
              20 fsynced inserts, wrangling UPDATE, Arrow export + re-read, CHECKPOINT, then \
              crash image + recovery: write path",
    },
];

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name: name.into(), unit, better, bound: Some(bound) }
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name: name.into(), unit, better, bound: None }
}

/// The bounded metrics. Every workload emits every one of them, so each
/// is defined on all four (see README.md for what "read" and "rows in"
/// mean on each). The bounds are set by the sandbox, not by ambition: in
/// a calm quarter of an hour ten seeds spread (quartile distance over
/// median) by 2–6 %, in a rough one by 10–20 % even from the faster half
/// of each phase (see `host::Quiet`), same seed or not; and the acceptance
/// check compares a ten-run spread with the bound twice on 28
/// metric-workload pairs, so a bound near the spread fails one by chance.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        e2e("read_ops_per_s", "1/s", Higher, 0.20),
        e2e("read_p50_ms", "ms", Lower, 0.25),
        e2e("read_p95_ms", "ms", Lower, 0.25),
        e2e("rows_out_per_s", "1/s", Higher, 0.20),
        e2e("rows_in_per_s", "1/s", Higher, 0.20),
        e2e("peak_rss_mb", "MB", Lower, 0.25),
        e2e("setup_s", "s", Lower, 0.25),
    ]
}

/// The per-layer metrics of the traced pass, layer = crate name. `e2e.*`
/// are end-to-end metrics that exist on only some workloads and therefore
/// cannot carry a bound under a contract in which every workload emits
/// every bounded metric. A metric a workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut v = vec![
        layer("sql.parse_us", "us", Lower),
        layer("sql.bind_us", "us", Lower),
        layer("sql.optimize_us", "us", Lower),
        layer("sql.frontend_frac", "frac", Lower),
        layer("core.open_us", "us", Lower),
        layer("core.lower_us", "us", Lower),
        layer("core.drain_ms", "ms", Lower),
        layer("core.commit_ms", "ms", Lower),
        layer("core.checkpoint_ms", "ms", Lower),
        layer("core.checkpoint_ms_last", "ms", Lower),
        layer("core.appender_crash_lost_frac", "frac", Lower),
        layer("exec.first_chunk_ms", "ms", Lower),
    ];
    v.extend(QUERY_NAMES.iter().map(|q| layer(format!("exec.q_{q}_ms"), "ms", Lower)));
    v.extend(QUERY_NAMES.iter().map(|q| layer(format!("exec.q_{q}_t1_ms"), "ms", Lower)));
    v.extend([
        layer("exec.parallel_speedup", "x", Higher),
        layer("exec.workers_default", "count", Higher),
        layer("exec.pruned_stream_fail_frac", "frac", Lower),
        layer("txn.begin_commit_us", "us", Lower),
        layer("txn.read_quiet_p50_ms", "ms", Lower),
        layer("txn.read_quiet_p99_ms", "ms", Lower),
        layer("txn.writer_interference", "x", Lower),
        layer("txn.update_rows_per_s", "1/s", Higher),
        layer("txn.gc_ms", "ms", Lower),
        layer("storage.wal_bytes_per_row", "B", Lower),
        layer("storage.wal_bytes_per_small_commit", "B", Lower),
        layer("storage.fsync_commit_us", "us", Lower),
        layer("storage.write_amp", "x", Lower),
        layer("storage.blocks_per_round", "count", Lower),
        layer("storage.peak_accounted_mb", "MB", Lower),
        layer("storage.sort_spill_ms", "ms", Lower),
        layer("etl.csv_parse_rows_per_s", "1/s", Higher),
        layer("etl.csv_scan_rows_per_s", "1/s", Higher),
        layer("etl.arrow_scan_rows_per_s", "1/s", Higher),
        layer("etl.arrow_encode_ms", "ms", Lower),
        layer("client.appender_rows_per_s", "1/s", Higher),
        layer("client.wire_encode_ms", "ms", Lower),
        layer("client.wire_decode_ms", "ms", Lower),
        layer("client.wire_bytes_per_row", "B", Lower),
        layer("server.socket_ms", "ms", Lower),
        layer("server.small_rtt_us", "us", Lower),
        layer("harness.trace_overhead_frac", "frac", Lower),
        layer("harness.gen_s", "s", Lower),
        layer("e2e.read_p99_ms", "ms", Lower),
        layer("e2e.write_ops_per_s", "1/s", Higher),
        layer("e2e.write_p50_ms", "ms", Lower),
        layer("e2e.write_p95_ms", "ms", Lower),
        layer("e2e.recovery_s", "s", Lower),
        layer("e2e.disk_bytes_per_row", "B", Lower),
        layer("e2e.failed_frac", "frac", Lower),
    ]);
    v
}

fn metric_json(m: &MetricSpec) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        json::string(&m.name),
        json::string(m.unit),
        json::string(m.better.as_str())
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {}", json::number(b)));
    }
    s.push('}');
    s
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmarks/e2e/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmarks/e2e\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    \
         {}\n  ]\n}}\n",
        command.iter().map(|c| json::string(c)).collect::<Vec<_>>().join(", "),
        RUN_SECONDS,
        list(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json::string(w.name),
                    json::string(w.why)
                ))
                .collect()
        ),
        list(end_to_end().iter().map(metric_json).collect()),
        list(per_layer().iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        let mut names = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name.into()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_spec() {
        // Present in a checkout; absent when the package is built alone.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert!(
                committed == benchmark_json(),
                "BENCHMARK.json differs from src/spec.rs: regenerate it with --emit-spec"
            );
        }
    }
}
