//! Seeded inputs and the answers they imply.
//!
//! Everything the engine is fed comes from here, as a pure function of
//! `--seed`: the star schema, the dashboard's `metrics` table and the CSV
//! fixture, each as engine chunks (for the `Appender`) and as plain Rust
//! vectors. The oracle computes every query's answer from those vectors —
//! a row count plus one checksum folded over the rows — without going
//! through the engine, so a wrong row anywhere shows as a mismatch.

use eider_vector::{DataChunk, LogicalType, ValidityMask, Vector, VectorData, VECTOR_SIZE};

/// xorshift64* — small, seedable, and the harness's own (no `rand`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // One splitmix step so that seeds 0, 1, 2… start far apart and the
        // state is never zero.
        Rng(mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// splitmix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------- answers and the checksum fold ----------------

/// One value of an oracle row. Engine integers of every width (and dates)
/// compare as `Int`, doubles as `Float` by bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Float(f64),
    Str(String),
}

const ROW_SEED: u64 = 0x6569_6465_725F_6532; // "eider_e2"
const NULL_HASH: u64 = 0x4E55_4C4C_4E55_4C4C;

fn int_hash(v: i64) -> u64 {
    mix(v as u64 ^ 0x0101_0101_0101_0101)
}

fn float_hash(v: f64) -> u64 {
    // -0.0 and 0.0 are the same answer.
    mix((v + 0.0).to_bits() ^ 0x0202_0202_0202_0202)
}

fn str_hash(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h ^ 0x0303_0303_0303_0303)
}

fn cell_hash(c: &Cell) -> u64 {
    match c {
        Cell::Int(v) => int_hash(*v),
        Cell::Float(v) => float_hash(*v),
        Cell::Str(s) => str_hash(s),
    }
}

/// What a query must return: how many rows and their folded checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub checksum: u64,
}

/// Folds result rows into an [`Answer`]. Ordered folds depend on row
/// order (queries with a total `ORDER BY`); unordered ones do not.
#[derive(Debug, Clone)]
pub struct Fold {
    ordered: bool,
    rows: u64,
    acc: u64,
}

impl Fold {
    pub fn new(ordered: bool) -> Self {
        Fold { ordered, rows: 0, acc: ROW_SEED }
    }

    fn push_hash(&mut self, row_hash: u64) {
        self.rows += 1;
        self.acc =
            if self.ordered { mix(self.acc ^ row_hash) } else { self.acc.wrapping_add(row_hash) };
    }

    pub fn push_row(&mut self, cells: &[Cell]) {
        let h = cells.iter().fold(ROW_SEED, |h, c| mix(h.wrapping_add(cell_hash(c))));
        self.push_hash(h);
    }

    /// Fold every row of an engine chunk, column at a time.
    pub fn push_chunk(&mut self, chunk: &DataChunk) {
        let n = chunk.len();
        let mut hashes = vec![ROW_SEED; n];
        for col in chunk.columns() {
            let valid = col.validity();
            let all_valid = valid.all_valid();
            macro_rules! fold_col {
                ($slice:expr, $hash:expr) => {
                    for (i, v) in $slice.iter().enumerate() {
                        let h = if all_valid || valid.is_valid(i) { $hash(v) } else { NULL_HASH };
                        hashes[i] = mix(hashes[i].wrapping_add(h));
                    }
                };
            }
            match col.logical_type() {
                LogicalType::Boolean => {
                    fold_col!(col.as_bool(), |v: &bool| int_hash(i64::from(*v)))
                }
                LogicalType::TinyInt => fold_col!(col.as_i8(), |v: &i8| int_hash(i64::from(*v))),
                LogicalType::SmallInt => fold_col!(col.as_i16(), |v: &i16| int_hash(i64::from(*v))),
                LogicalType::Integer | LogicalType::Date => {
                    fold_col!(col.as_i32(), |v: &i32| int_hash(i64::from(*v)))
                }
                LogicalType::BigInt | LogicalType::Timestamp => {
                    fold_col!(col.as_i64(), |v: &i64| int_hash(*v))
                }
                LogicalType::Double => fold_col!(col.as_f64(), |v: &f64| float_hash(*v)),
                LogicalType::Varchar => fold_col!(col.as_str(), |v: &String| str_hash(v)),
            }
        }
        hashes.into_iter().for_each(|h| self.push_hash(h));
    }

    pub fn finish(&self) -> Answer {
        Answer { rows: self.rows, checksum: self.acc }
    }
}

/// A statement with the answer the generated data implies.
#[derive(Debug, Clone)]
pub struct Query {
    pub name: &'static str,
    pub sql: String,
    /// The statement has a total `ORDER BY`; row order is part of the answer.
    pub ordered: bool,
    pub expect: Answer,
}

fn answer(ordered: bool, rows: impl IntoIterator<Item = Vec<Cell>>) -> Answer {
    let mut fold = Fold::new(ordered);
    rows.into_iter().for_each(|r| fold.push_row(&r));
    fold.finish()
}

// ---------------- chunk building ----------------

fn vector(ty: LogicalType, data: VectorData, len: usize) -> Vector {
    Vector::from_parts(ty, data, ValidityMask::new_all_valid(len))
        .expect("data and validity are built with the same length")
}

fn chunk(columns: Vec<Vector>) -> DataChunk {
    DataChunk::from_vectors(columns).expect("columns are built with the same length")
}

/// Ranges of at most one engine vector each, covering `0..rows`.
fn vector_ranges(rows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..rows).step_by(VECTOR_SIZE).map(move |lo| lo..(lo + VECTOR_SIZE).min(rows))
}

fn bigints(v: &[i64]) -> Vector {
    vector(LogicalType::BigInt, VectorData::I64(v.to_vec()), v.len())
}

fn integers(v: &[i32]) -> Vector {
    vector(LogicalType::Integer, VectorData::I32(v.to_vec()), v.len())
}

fn doubles(v: &[f64]) -> Vector {
    vector(LogicalType::Double, VectorData::F64(v.to_vec()), v.len())
}

fn varchars(v: Vec<String>) -> Vector {
    let len = v.len();
    vector(LogicalType::Varchar, VectorData::Str(v), len)
}

// ---------------- the star schema ----------------

pub const SEGMENTS: [&str; 5] = ["retail", "corporate", "government", "education", "online"];
pub const BUCKETS: usize = 49;
const REGIONS: u64 = 25;
const WEIGHTS: u64 = 7;

pub const ORDERS_DDL: &str =
    "CREATE TABLE orders (oid BIGINT, cid INTEGER, bucket INTEGER, amount DOUBLE, qty INTEGER)";
pub const CUSTOMERS_DDL: &str =
    "CREATE TABLE customers (cid INTEGER, name VARCHAR, segment VARCHAR, region INTEGER)";
pub const BUCKETS_DDL: &str =
    "CREATE TABLE buckets (bucket INTEGER, label VARCHAR, weight INTEGER)";
pub const NOTES_DDL: &str = "CREATE TABLE order_notes (oid BIGINT, name VARCHAR, segment VARCHAR)";

/// `orders` (fact), `customers` and `buckets` (dimensions), plus the
/// string-heavy `order_notes` the socket workload fetches.
///
/// `amount` is a multiple of 0.25 below 10 000, so every sum of amounts is
/// exact in an `f64` whatever order a parallel plan adds them in, and the
/// oracle can demand bit-equal sums.
#[derive(Debug, Clone)]
pub struct Star {
    pub customers: usize,
    salt: u64,
    pub oid: Vec<i64>,
    pub cid: Vec<i32>,
    pub bucket: Vec<i32>,
    pub amount: Vec<f64>,
    pub qty: Vec<i32>,
    pub note_name: Vec<u32>,
    pub note_segment: Vec<u8>,
}

/// Distinct `order_notes.name` values: few enough to dictionary-encode.
const NOTE_NAMES: u64 = 1000;

impl Star {
    pub fn generate(seed: u64, orders: usize, customers: usize, notes: usize) -> Star {
        let mut rng = Rng::new(seed ^ 0x5354_4152);
        let salt = rng.next_u64() % 1_000_003;
        let mut s = Star {
            customers,
            salt,
            oid: Vec::with_capacity(orders),
            cid: Vec::with_capacity(orders),
            bucket: Vec::with_capacity(orders),
            amount: Vec::with_capacity(orders),
            qty: Vec::with_capacity(orders),
            note_name: Vec::with_capacity(notes),
            note_segment: Vec::with_capacity(notes),
        };
        for i in 0..orders {
            s.oid.push(i as i64);
            s.cid.push(rng.below(customers as u64) as i32);
            s.bucket.push(rng.below(BUCKETS as u64) as i32);
            s.amount.push(rng.below(40_000) as f64 * 0.25);
            s.qty.push(1 + rng.below(50) as i32);
        }
        for _ in 0..notes {
            s.note_name.push(rng.below(NOTE_NAMES) as u32);
            s.note_segment.push(rng.below(SEGMENTS.len() as u64) as u8);
        }
        s
    }

    pub fn orders(&self) -> usize {
        self.oid.len()
    }

    pub fn notes(&self) -> usize {
        self.note_name.len()
    }

    /// Unique per customer (7919 is prime and no table here is a multiple
    /// of it), and not in `cid` order.
    pub fn customer_name(&self, cid: usize) -> String {
        debug_assert!(!self.customers.is_multiple_of(7919));
        format!("cust_{:06}", (cid as u64 * 7919 + self.salt) % self.customers as u64)
    }

    pub fn segment(&self, cid: usize) -> &'static str {
        SEGMENTS[((cid as u64 + self.salt) % SEGMENTS.len() as u64) as usize]
    }

    pub fn region(&self, cid: usize) -> i32 {
        ((cid as u64 * 3 + self.salt) % REGIONS) as i32
    }

    pub fn weight(&self, bucket: usize) -> i32 {
        ((bucket as u64 + self.salt) % WEIGHTS) as i32
    }

    fn note_name_str(code: u32) -> String {
        format!("item_{code:04}")
    }

    pub fn order_chunks(&self) -> Vec<DataChunk> {
        vector_ranges(self.orders())
            .map(|r| {
                chunk(vec![
                    bigints(&self.oid[r.clone()]),
                    integers(&self.cid[r.clone()]),
                    integers(&self.bucket[r.clone()]),
                    doubles(&self.amount[r.clone()]),
                    integers(&self.qty[r]),
                ])
            })
            .collect()
    }

    pub fn customer_chunks(&self) -> Vec<DataChunk> {
        vector_ranges(self.customers)
            .map(|r| {
                let cids: Vec<i32> = r.clone().map(|c| c as i32).collect();
                let regions: Vec<i32> = r.clone().map(|c| self.region(c)).collect();
                chunk(vec![
                    integers(&cids),
                    varchars(r.clone().map(|c| self.customer_name(c)).collect()),
                    varchars(r.map(|c| self.segment(c).to_string()).collect()),
                    integers(&regions),
                ])
            })
            .collect()
    }

    pub fn bucket_chunks(&self) -> Vec<DataChunk> {
        let ids: Vec<i32> = (0..BUCKETS as i32).collect();
        let weights: Vec<i32> = (0..BUCKETS).map(|b| self.weight(b)).collect();
        vec![chunk(vec![
            integers(&ids),
            varchars((0..BUCKETS).map(|b| format!("bucket_{b:02}")).collect()),
            integers(&weights),
        ])]
    }

    pub fn note_chunks(&self) -> Vec<DataChunk> {
        vector_ranges(self.notes())
            .map(|r| {
                let oids: Vec<i64> = r.clone().map(|i| i as i64).collect();
                chunk(vec![
                    bigints(&oids),
                    varchars(r.clone().map(|i| Self::note_name_str(self.note_name[i])).collect()),
                    varchars(
                        r.map(|i| SEGMENTS[self.note_segment[i] as usize].to_string()).collect(),
                    ),
                ])
            })
            .collect()
    }

    /// The nine `olap_embedded` statements with their answers.
    pub fn olap_queries(&self) -> Vec<Query> {
        let n = self.orders();
        let mut out = Vec::with_capacity(9);

        // filter_agg
        let (mut cnt, mut sum, mut lo, mut hi) = (0i64, 0.0f64, i32::MAX, i32::MIN);
        for i in 0..n {
            if self.qty[i] < 10 && self.amount[i] > 2500.0 {
                cnt += 1;
                sum += self.amount[i];
                lo = lo.min(self.qty[i]);
                hi = hi.max(self.qty[i]);
            }
        }
        out.push(Query {
            name: "filter_agg",
            sql: "SELECT count(*), sum(amount), min(qty), max(qty) FROM orders \
                  WHERE qty < 10 AND amount > 2500.0"
                .into(),
            ordered: false,
            expect: answer(
                false,
                [vec![
                    Cell::Int(cnt),
                    Cell::Float(sum),
                    Cell::Int(i64::from(lo)),
                    Cell::Int(i64::from(hi)),
                ]],
            ),
        });

        // group_low: 49 groups
        let mut g_cnt = [0i64; BUCKETS];
        let mut g_sum = [0.0f64; BUCKETS];
        for i in 0..n {
            g_cnt[self.bucket[i] as usize] += 1;
            g_sum[self.bucket[i] as usize] += self.amount[i];
        }
        out.push(Query {
            name: "group_low",
            sql: "SELECT bucket, count(*), sum(amount) FROM orders GROUP BY bucket".into(),
            ordered: false,
            expect: answer(
                false,
                (0..BUCKETS)
                    .filter(|&b| g_cnt[b] > 0)
                    .map(|b| vec![Cell::Int(b as i64), Cell::Int(g_cnt[b]), Cell::Float(g_sum[b])]),
            ),
        });

        // Per-customer totals serve group_high and varchar_group.
        let mut c_cnt = vec![0i64; self.customers];
        let mut c_qty = vec![0i64; self.customers];
        let mut c_amt = vec![0.0f64; self.customers];
        for i in 0..n {
            let c = self.cid[i] as usize;
            c_cnt[c] += 1;
            c_qty[c] += i64::from(self.qty[i]);
            c_amt[c] += self.amount[i];
        }
        out.push(Query {
            name: "group_high",
            sql: "SELECT cid, count(*), sum(qty) FROM orders GROUP BY cid".into(),
            ordered: false,
            expect: answer(
                false,
                (0..self.customers)
                    .filter(|&c| c_cnt[c] > 0)
                    .map(|c| vec![Cell::Int(c as i64), Cell::Int(c_cnt[c]), Cell::Int(c_qty[c])]),
            ),
        });

        // join_agg: orders ⋈ customers, by region
        let mut r_cnt = [0i64; REGIONS as usize];
        let mut r_sum = [0.0f64; REGIONS as usize];
        for c in 0..self.customers {
            r_cnt[self.region(c) as usize] += c_cnt[c];
            r_sum[self.region(c) as usize] += c_amt[c];
        }
        out.push(Query {
            name: "join_agg",
            sql: "SELECT c.region, count(*), sum(o.amount) FROM orders o \
                  JOIN customers c ON o.cid = c.cid GROUP BY c.region"
                .into(),
            ordered: false,
            expect: answer(
                false,
                (0..REGIONS as usize)
                    .filter(|&r| r_cnt[r] > 0)
                    .map(|r| vec![Cell::Int(r as i64), Cell::Int(r_cnt[r]), Cell::Float(r_sum[r])]),
            ),
        });

        // multi_join: smallest table first, the order a planner must fix
        let mut m: std::collections::BTreeMap<(i32, &'static str), (i64, i64)> = Default::default();
        for i in 0..n {
            let c = self.cid[i] as usize;
            if self.region(c) < 5 {
                let e =
                    m.entry((self.weight(self.bucket[i] as usize), self.segment(c))).or_default();
                e.0 += 1;
                e.1 += i64::from(self.qty[i]);
            }
        }
        out.push(Query {
            name: "multi_join",
            sql: "SELECT b.weight, c.segment, count(*), sum(o.qty) FROM buckets b \
                  JOIN orders o ON b.bucket = o.bucket JOIN customers c ON o.cid = c.cid \
                  WHERE c.region < 5 GROUP BY b.weight, c.segment"
                .into(),
            ordered: false,
            expect: answer(
                false,
                m.iter().map(|(&(w, seg), &(cnt, qty))| {
                    vec![
                        Cell::Int(i64::from(w)),
                        Cell::Str(seg.into()),
                        Cell::Int(cnt),
                        Cell::Int(qty),
                    ]
                }),
            ),
        });

        // topn
        let desc = |a: &u32, b: &u32| {
            self.amount[*b as usize].total_cmp(&self.amount[*a as usize]).then(a.cmp(b))
        };
        let mut top: Vec<u32> = (0..n as u32).collect();
        if n > 100 {
            top.select_nth_unstable_by(99, desc);
            top.truncate(100);
        }
        top.sort_unstable_by(desc);
        out.push(Query {
            name: "topn",
            sql: "SELECT oid, amount FROM orders ORDER BY amount DESC, oid LIMIT 100".into(),
            ordered: true,
            expect: answer(
                true,
                top.iter().map(|&i| {
                    vec![Cell::Int(self.oid[i as usize]), Cell::Float(self.amount[i as usize])]
                }),
            ),
        });

        // zonemap: 5% of the table by its clustered key
        let (z_lo, z_hi) = (n / 2, n / 2 + n / 20);
        let z_sum: f64 = self.amount[z_lo..z_hi].iter().sum();
        out.push(Query {
            name: "zonemap",
            sql: format!(
                "SELECT count(*), sum(amount) FROM orders WHERE oid >= {z_lo} AND oid < {z_hi}"
            ),
            ordered: false,
            expect: answer(false, [vec![Cell::Int((z_hi - z_lo) as i64), Cell::Float(z_sum)]]),
        });

        // varchar_group: join, group by a 20k-value string, top 10
        let mut by_total: Vec<(f64, String)> = (0..self.customers)
            .filter(|&c| c_cnt[c] > 0)
            .map(|c| (c_amt[c], self.customer_name(c)))
            .collect();
        by_total.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        by_total.truncate(10);
        out.push(Query {
            name: "varchar_group",
            sql: "SELECT c.name, sum(o.amount) AS total FROM orders o \
                  JOIN customers c ON o.cid = c.cid GROUP BY c.name \
                  ORDER BY total DESC, c.name LIMIT 10"
                .into(),
            ordered: true,
            expect: answer(
                true,
                by_total.into_iter().map(|(total, name)| vec![Cell::Str(name), Cell::Float(total)]),
            ),
        });

        // sort_all: every row streamed out in order
        let mut by_amount: Vec<u32> = (0..n as u32).collect();
        by_amount.sort_unstable_by(|&a, &b| {
            self.amount[a as usize].total_cmp(&self.amount[b as usize]).then(a.cmp(&b))
        });
        out.push(Query {
            name: "sort_all",
            sql: "SELECT oid, cid, amount FROM orders ORDER BY amount, oid".into(),
            ordered: true,
            expect: answer(
                true,
                by_amount.iter().map(|&i| {
                    let i = i as usize;
                    vec![
                        Cell::Int(self.oid[i]),
                        Cell::Int(i64::from(self.cid[i])),
                        Cell::Float(self.amount[i]),
                    ]
                }),
            ),
        });
        out
    }

    /// The three `server_fetch` statements with their answers.
    pub fn fetch_queries(&self) -> Vec<Query> {
        let b_weight: i64 = (0..BUCKETS).map(|b| i64::from(self.weight(b))).sum();
        vec![
            Query {
                name: "fetch_wide",
                sql: "SELECT oid, cid, bucket, amount, qty FROM orders".into(),
                ordered: false,
                expect: answer(
                    false,
                    (0..self.orders()).map(|i| {
                        vec![
                            Cell::Int(self.oid[i]),
                            Cell::Int(i64::from(self.cid[i])),
                            Cell::Int(i64::from(self.bucket[i])),
                            Cell::Float(self.amount[i]),
                            Cell::Int(i64::from(self.qty[i])),
                        ]
                    }),
                ),
            },
            Query {
                name: "fetch_str",
                sql: "SELECT oid, name, segment FROM order_notes".into(),
                ordered: false,
                expect: answer(
                    false,
                    (0..self.notes()).map(|i| {
                        vec![
                            Cell::Int(i as i64),
                            Cell::Str(Self::note_name_str(self.note_name[i])),
                            Cell::Str(SEGMENTS[self.note_segment[i] as usize].into()),
                        ]
                    }),
                ),
            },
            Query {
                name: "small_agg",
                sql: "SELECT count(*), sum(weight) FROM buckets".into(),
                ordered: false,
                expect: answer(false, [vec![Cell::Int(BUCKETS as i64), Cell::Int(b_weight)]]),
            },
        ]
    }
}

// ---------------- the dashboard table ----------------

pub const PANELS: u64 = 8;
pub const METRICS_DDL: &str = "CREATE TABLE metrics (id BIGINT, panel INTEGER, val BIGINT)";

/// `metrics(id, panel, val)`: `rows` is a multiple of [`PANELS`], every
/// panel owns `rows / PANELS` ids, and `val` starts equal to `panel`. The
/// writer only ever sets a whole panel to a value congruent to the panel
/// modulo [`PANELS`], which is what lets a reader check that what it saw
/// is one snapshot (see `workloads::dashboard`).
#[derive(Debug, Clone, Copy)]
pub struct Metrics {
    pub rows: usize,
    salt: u64,
}

impl Metrics {
    pub fn new(seed: u64, rows: usize) -> Metrics {
        assert!(
            rows > 0 && (rows as u64).is_multiple_of(PANELS),
            "metrics rows must be a multiple of 8"
        );
        Metrics { rows, salt: Rng::new(seed ^ 0x4D45_5452).below(PANELS) }
    }

    pub fn panel_of(&self, id: u64) -> u64 {
        (id + self.salt) % PANELS
    }

    pub fn rows_per_panel(&self) -> u64 {
        self.rows as u64 / PANELS
    }

    pub fn chunks(&self) -> Vec<DataChunk> {
        vector_ranges(self.rows)
            .map(|r| {
                let ids: Vec<i64> = r.clone().map(|i| i as i64).collect();
                let panels: Vec<i32> = r.clone().map(|i| self.panel_of(i as u64) as i32).collect();
                let vals: Vec<i64> = r.map(|i| self.panel_of(i as u64) as i64).collect();
                chunk(vec![bigints(&ids), integers(&panels), bigints(&vals)])
            })
            .collect()
    }
}

// ---------------- the CSV fixture ----------------

pub const SENTINEL: i64 = -999;
pub const EVENTS_DDL: &str =
    "CREATE TABLE events (id BIGINT, grp INTEGER, val BIGINT, note VARCHAR)";
const NOTES: [&str; 8] =
    ["ok", "retry", "timeout", "cache-hit", "cache-miss", "degraded", "cold-start", "throttled"];

/// One ingest batch of `events(id, grp, val, note)`. About a tenth of the
/// `val`s are the missing-value sentinel the wrangling `UPDATE` turns into
/// NULL (the paper's §2 example).
#[derive(Debug, Clone)]
pub struct Events {
    pub id: Vec<i64>,
    pub grp: Vec<i32>,
    pub val: Vec<i64>,
    note: Vec<u8>,
}

impl Events {
    pub fn generate(seed: u64, rows: usize) -> Events {
        let mut rng = Rng::new(seed ^ 0x4556_4E54);
        let mut e = Events {
            id: Vec::with_capacity(rows),
            grp: Vec::with_capacity(rows),
            val: Vec::with_capacity(rows),
            note: Vec::with_capacity(rows),
        };
        for i in 0..rows {
            e.id.push(i as i64);
            e.grp.push(rng.below(16) as i32);
            e.val.push(if rng.below(10) == 0 { SENTINEL } else { rng.below(1_000_000) as i64 });
            e.note.push(rng.below(NOTES.len() as u64) as u8);
        }
        e
    }

    pub fn rows(&self) -> usize {
        self.id.len()
    }

    pub fn sentinels(&self) -> u64 {
        self.val.iter().filter(|&&v| v == SENTINEL).count() as u64
    }

    pub fn id_sum(&self) -> i64 {
        self.id.iter().sum()
    }

    /// The batch as a CSV file body, header included.
    pub fn csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.rows() * 32 + 32);
        out.push_str("id,grp,val,note\n");
        for i in 0..self.rows() {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                self.id[i], self.grp[i], self.val[i], NOTES[self.note[i] as usize]
            );
        }
        out
    }

    pub fn chunks(&self) -> Vec<DataChunk> {
        vector_ranges(self.rows())
            .map(|r| {
                chunk(vec![
                    bigints(&self.id[r.clone()]),
                    integers(&self.grp[r.clone()]),
                    bigints(&self.val[r.clone()]),
                    varchars(r.map(|i| NOTES[self.note[i] as usize].to_string()).collect()),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Star::generate(11, 1000, 100, 200);
        let b = Star::generate(11, 1000, 100, 200);
        let c = Star::generate(12, 1000, 100, 200);
        assert_eq!(a.cid, b.cid);
        assert_eq!(a.amount, b.amount);
        assert_ne!(a.cid, c.cid);
        assert_eq!(Events::generate(3, 500).csv(), Events::generate(3, 500).csv());
        assert_ne!(Events::generate(3, 500).val, Events::generate(4, 500).val);
    }

    #[test]
    fn customer_names_are_unique_and_amounts_sum_exactly() {
        let s = Star::generate(5, 1000, 250, 10);
        let names: std::collections::BTreeSet<String> =
            (0..s.customers).map(|c| s.customer_name(c)).collect();
        assert_eq!(names.len(), s.customers);
        let forward: f64 = s.amount.iter().sum();
        let backward: f64 = s.amount.iter().rev().sum();
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn chunk_fold_equals_row_fold_and_order_matters_only_when_asked() {
        let e = Events::generate(9, 3000);
        let mut by_chunk = Fold::new(false);
        e.chunks().iter().for_each(|c| by_chunk.push_chunk(c));
        let rows = |order: &mut dyn Iterator<Item = usize>| -> Vec<Vec<Cell>> {
            order
                .map(|i| {
                    vec![
                        Cell::Int(e.id[i]),
                        Cell::Int(i64::from(e.grp[i])),
                        Cell::Int(e.val[i]),
                        Cell::Str(NOTES[e.note[i] as usize].into()),
                    ]
                })
                .collect()
        };
        let forward = rows(&mut (0..e.rows()));
        let backward = rows(&mut (0..e.rows()).rev());
        assert_eq!(by_chunk.finish(), answer(false, forward.clone()));
        assert_eq!(answer(false, forward.clone()), answer(false, backward.clone()));
        assert_ne!(answer(true, forward.clone()), answer(true, backward));
        // One changed value changes the checksum.
        let mut wrong = forward.clone();
        wrong[17][2] = Cell::Int(12345);
        assert_ne!(answer(false, forward), answer(false, wrong));
    }

    #[test]
    fn nulls_fold_as_their_own_value() {
        let mut v = Vector::new(LogicalType::BigInt);
        v.push_value(&eider_vector::Value::BigInt(0)).unwrap();
        v.push_null();
        let mut fold = Fold::new(true);
        fold.push_chunk(&chunk(vec![v]));
        assert_eq!(fold.finish().rows, 2);
        // The NULL slot's stored value (0) must not stand in for it.
        assert_ne!(fold.finish(), answer(true, [vec![Cell::Int(0)], vec![Cell::Int(0)]]));
    }
}
