//! The four workloads and what they share: sizes, the report a pass
//! returns, repeated set-up, and the front-end replay.

pub mod dashboard;
pub mod etl;
pub mod olap;
pub mod server;

use crate::host::{ms, secs, OpLog, Phase, Quiet};
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use eider_core::Database;
use eider_vector::Result;
use std::sync::Arc;
use std::time::Instant;

/// Input sizes. `full` is what `BENCHMARK.json` describes; `smoke` is
/// about a fiftieth of it with every check still on.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub orders: usize,
    pub customers: usize,
    pub notes: usize,
    pub metrics: usize,
    /// Rows a dashboard range-count panel covers.
    pub range_rows: u64,
    pub csv_rows: usize,
    pub rounds_per_cycle: usize,
    /// Read rounds (export, `read_arrow`, table aggregate) ending a cycle.
    pub reads_per_cycle: usize,
    pub inserts_per_round: usize,
    /// Set-ups per untraced pass, at least (see [`repeated_setup`]).
    pub setups: usize,
    /// Keep setting up until this much time went into it: a 50 ms set-up
    /// repeated seven times samples a third of a second of the host's
    /// mood, and reads 50 % apart from one run to the next.
    pub setup_seconds: f64,
    pub warmup_rounds: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            orders: 200_000,
            customers: 20_000,
            notes: 100_000,
            metrics: 200_000,
            range_rows: 10_000,
            csv_rows: 50_000,
            rounds_per_cycle: 6,
            reads_per_cycle: 4,
            inserts_per_round: 20,
            setups: 7,
            setup_seconds: 1.5,
            warmup_rounds: 2,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            orders: 8_192,
            customers: 400,
            notes: 2_048,
            metrics: 4_096,
            range_rows: 200,
            csv_rows: 1_000,
            rounds_per_cycle: 3,
            reads_per_cycle: 2,
            inserts_per_round: 4,
            setups: 1,
            setup_seconds: 0.0,
            warmup_rounds: 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// How long one pass measures.
    pub seconds: f64,
    pub scale: Scale,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind a percentile or median, where that means something.
    pub samples: Option<usize>,
}

/// What one pass over one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub log: OpLog,
    pub metrics: Vec<Metric>,
    /// Context worth a line of output: flush policy, sizes, sample notes.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric { name: name.into(), value, samples: None });
    }

    pub fn set_n(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, samples: Some(samples) });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The read-side metrics every workload reports the same way, from
    /// the faster half of the phase (see [`Quiet`]).
    pub fn set_reads(&mut self, reads: &Phase) -> Quiet {
        let mut q = reads.quiet();
        let n = q.samples();
        self.set_n("read_ops_per_s", q.ops_per_s(), n);
        self.set_n("read_p50_ms", q.p50_ms(), n);
        self.set_n("read_p95_ms", q.quantile_ms(0.95), n);
        self.set("rows_out_per_s", q.rows_per_s());
        self.notes.push(format!(
            "reads: {} in {} rounds; reported from the {} rounds of the faster half of the blocks",
            reads.ops(),
            reads.rounds(),
            q.rounds()
        ));
        q
    }

    /// The write-side metrics of the workloads that write while timed.
    pub fn set_writes(&mut self, writes: &Phase) {
        let mut q = writes.quiet();
        let n = q.samples();
        self.set("rows_in_per_s", q.rows_per_s());
        self.set_n("e2e.write_ops_per_s", q.ops_per_s(), n);
        self.set_n("e2e.write_p50_ms", q.p50_ms(), n);
        self.set_n("e2e.write_p95_ms", q.quantile_ms(0.95), n);
    }

    /// What every traced pass ends with: the recorder's own cost, the
    /// generator's share of set-up, the failure share, and the spans.
    pub fn set_traced(&mut self, tr: &Tracer, cost: &SetupCost) {
        self.set("harness.trace_overhead_frac", tr.overhead_frac());
        self.set("harness.gen_s", cost.gen_s);
        self.set("e2e.failed_frac", self.log.failed_frac());
        self.spans = tr.spans().to_vec();
    }

    pub fn set_setup(&mut self, cost: &SetupCost) {
        self.set("setup_s", cost.gen_s + cost.load_s);
        self.notes.push(format!(
            "set-up: generate {:.4} s + load {:.4} s ({} rows)",
            cost.gen_s, cost.load_s, cost.rows
        ));
    }
}

/// One set-up's cost, split so that generator time is visible.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Generating the inputs and filling chunks with them (harness work).
    pub gen_s: f64,
    /// DDL + `Appender` + commit (engine work).
    pub load_s: f64,
    pub rows: u64,
}

/// At most this many set-ups, however short they are.
const MAX_SETUPS: usize = 40;

/// Set up repeatedly (see [`Scale::setups`] and [`Scale::setup_seconds`]),
/// keep the last fixture, and report the mean of the faster half: one
/// set-up is a single sample, and a single sample of a sub-second quantity
/// is mostly noise.
pub fn repeated_setup<T>(
    scale: &Scale,
    mut setup: impl FnMut() -> Result<(T, SetupCost)>,
) -> Result<(T, SetupCost)> {
    let mut costs = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while costs.len() < scale.setups.max(1)
        || (secs(start) < scale.setup_seconds && costs.len() < MAX_SETUPS)
    {
        // Drop the previous fixture first: two databases alive at once
        // would double the resident-memory high-water mark.
        drop(last.take());
        let (fixture, cost) = setup()?;
        costs.push(cost);
        last = Some(fixture);
    }
    // The faster half, for the reason `Quiet` gives.
    costs.sort_by(|a, b| (a.gen_s + a.load_s).total_cmp(&(b.gen_s + b.load_s)));
    costs.truncate(costs.len().div_ceil(2));
    let mean = |f: fn(&SetupCost) -> f64| costs.iter().map(f).sum::<f64>() / costs.len() as f64;
    let cost =
        SetupCost { gen_s: mean(|c| c.gen_s), load_s: mean(|c| c.load_s), rows: costs[0].rows };
    Ok((last.expect("at least one set-up ran"), cost))
}

/// Median cost of the three public front-end calls over a statement mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Frontend {
    pub parse_us: f64,
    pub bind_us: f64,
    pub optimize_us: f64,
}

impl Frontend {
    pub fn total_us(&self) -> f64 {
        self.parse_us + self.bind_us + self.optimize_us
    }
}

/// Replay each statement `reps` times through `parse_statements`,
/// `Binder::bind_statement` and `optimizer::optimize` — the same three
/// calls `query_stream` makes before it lowers — and average the
/// per-statement medians (pass one round's statements and the mix weights
/// itself).
/// Leaves the spans `frontend_replay ⊃ {sql.parse, sql.bind, sql.optimize}`.
pub fn replay_frontend(
    db: &Arc<Database>,
    statements: &[String],
    reps: usize,
    tr: &mut Tracer,
) -> Result<Frontend> {
    let mut sums = [0.0f64; 3];
    for sql in statements {
        let mut samples = [Samples::new(), Samples::new(), Samples::new()];
        for _ in 0..reps {
            let t0 = tr.now();
            let parsed = eider_sql::parse_statements(sql)?;
            let t1 = tr.now();
            let stmt = parsed.last().expect("every replayed statement parses to one statement");
            let plan = eider_sql::Binder::new(Arc::clone(db.catalog())).bind_statement(stmt)?;
            let t2 = tr.now();
            let plan = eider_sql::optimizer::optimize(plan)?;
            let t3 = tr.now();
            std::hint::black_box(plan);
            let op = tr.next_op();
            let root = tr.record("frontend_replay", 0, op, t0, t3);
            tr.record("sql.parse", root, op, t0, t1);
            tr.record("sql.bind", root, op, t1, t2);
            tr.record("sql.optimize", root, op, t2, t3);
            for (s, (a, b)) in samples.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                s.push(ms(a, b) * 1e3);
            }
        }
        for (sum, s) in sums.iter_mut().zip(samples.iter_mut()) {
            *sum += s.median();
        }
    }
    let n = statements.len().max(1) as f64;
    Ok(Frontend { parse_us: sums[0] / n, bind_us: sums[1] / n, optimize_us: sums[2] / n })
}
