//! Allocation accounting for the hot key paths: in steady state (all
//! groups known, scratch buffers warm) grouped aggregation and join
//! probing must not allocate per row — the whole point of the row-format
//! key representation. A counting global allocator makes the claim
//! checkable instead of aspirational.

use eider_exec::aggregate::AggKind;
use eider_exec::expression::Expr;
use eider_exec::ops::agg::{AggExpr, GroupTable};
use eider_exec::ops::basic::ValuesOp;
use eider_exec::ops::join::JoinProbeOp;
use eider_exec::ops::join::{BuildSide, JoinType};
use eider_exec::ops::{OperatorBox, PhysicalOperator};
use eider_vector::{DataChunk, LogicalType, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread: another test building its
    /// fixture concurrently must not land inside a measured window. A
    /// `const` `Cell` needs no lazy initialisation and no destructor, so
    /// touching it from inside the allocator never allocates, and it stays
    /// accessible while the thread is torn down.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// count touches only a const thread-local `Cell`, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const ROWS: usize = 2048;

fn group_chunk() -> DataChunk {
    let rows: Vec<Vec<Value>> =
        (0..ROWS as i32).map(|i| vec![Value::Integer(i % 64), Value::Integer(i)]).collect();
    DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap()
}

#[test]
fn steady_state_grouping_allocates_per_chunk_not_per_row() {
    let groups = vec![Expr::column(0, LogicalType::Integer)];
    let aggs = vec![
        AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
        AggExpr {
            kind: AggKind::Sum,
            arg: Some(Expr::column(1, LogicalType::Integer)),
            distinct: false,
        },
    ];
    let chunk = group_chunk();
    let mut table = GroupTable::new(&groups, &aggs);
    // Warm-up: discover all 64 groups, size the scratch and the table.
    table.update_chunk(&groups, &aggs, &chunk).unwrap();
    table.update_chunk(&groups, &aggs, &chunk).unwrap();
    assert_eq!(table.len(), 64);
    // Steady state: the only allocations allowed are the per-chunk ones
    // (expression evaluation clones the key/arg columns) — a handful per
    // 2048-row chunk, nowhere near one per row.
    let allocs = allocations(|| {
        table.update_chunk(&groups, &aggs, &chunk).unwrap();
    });
    assert!(
        allocs < 64,
        "steady-state group_chunk made {allocs} allocations for {ROWS} rows \
         (per-row allocation regressed)"
    );
}

#[test]
fn steady_state_dict_varchar_grouping_does_not_decode_the_dictionary() {
    use eider_vector::{Encoding, Vector};
    // 16 distinct strings over 2048 rows: the encoding chooser codes the
    // column against a dictionary.
    let names: Vec<Value> =
        (0..ROWS).map(|i| Value::Varchar(format!("segment-{}", i % 16))).collect();
    let keys = Vector::from_values(LogicalType::Varchar, &names).unwrap().encode_auto().unwrap();
    assert_eq!(keys.encoding(), Encoding::Dict);
    let chunk = DataChunk::from_vectors(vec![keys]).unwrap();
    let groups = vec![Expr::column(0, LogicalType::Varchar)];
    let aggs = vec![AggExpr { kind: AggKind::CountStar, arg: None, distinct: false }];
    let mut table = GroupTable::new(&groups, &aggs);
    table.update_chunk(&groups, &aggs, &chunk.clone()).unwrap();
    table.update_chunk(&groups, &aggs, &chunk.clone()).unwrap();
    assert_eq!(table.len(), 16);
    // A fresh clone carries no decoded copy of its strings (the decode
    // cache is not cloned), exactly like a chunk a table scan hands over:
    // key encoding must copy dictionary fragments by code instead of
    // decoding, which would clone every one of the 2048 strings.
    let fresh = chunk.clone();
    let allocs = allocations(|| {
        table.update_chunk(&groups, &aggs, &fresh).unwrap();
    });
    assert!(
        allocs < 64,
        "steady-state dict-coded VARCHAR grouping made {allocs} allocations for {ROWS} rows \
         (the key encoder decoded the dictionary column)"
    );
}

#[test]
fn appending_to_a_coded_tail_allocates_per_chunk_not_per_row() {
    use eider_txn::{DataTable, TransactionManager};
    use eider_vector::{Encoding, Vector};
    let names: Vec<Value> =
        (0..ROWS).map(|i| Value::Varchar(format!("segment-{}", i % 16))).collect();
    let chunk =
        DataChunk::from_vectors(vec![Vector::from_values(LogicalType::Varchar, &names).unwrap()])
            .unwrap();
    let table = DataTable::new(vec![LogicalType::Varchar]);
    let mgr = TransactionManager::new();
    let txn = mgr.begin();
    // The first append leaves all 16 values in the tail's dictionary.
    table.append_chunk(&txn, &chunk).unwrap();
    assert_eq!(table.column_encoding(0, 0), Some(Encoding::Dict));
    let allocs = allocations(|| table.append_chunk(&txn, &chunk).unwrap());
    assert_eq!(table.column_encoding(0, 0), Some(Encoding::Dict));
    assert!(
        allocs < 64,
        "appending {ROWS} rows of known values to a coded tail made {allocs} allocations \
         (a String per row came back)"
    );
}

#[test]
fn steady_state_join_probe_allocates_per_chunk_not_per_row() {
    use eider_coop::compression::CompressionLevel;
    // Build side: 64 keys, one row each.
    let build_rows: Vec<Vec<Value>> =
        (0..64).map(|i| vec![Value::Integer(i), Value::Integer(i * 10)]).collect();
    let build_chunk =
        DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &build_rows).unwrap();
    let mut build = BuildSide::new(CompressionLevel::None, None).unwrap();
    build.append_chunk(build_chunk, &[Expr::column(0, LogicalType::Integer)]).unwrap();
    let build = Arc::new(build);

    let probe_chunk = group_chunk();
    let probe = |()| -> JoinProbeOp {
        let child: OperatorBox = Box::new(ValuesOp::new(
            vec![LogicalType::Integer, LogicalType::Integer],
            vec![probe_chunk.clone()],
        ));
        JoinProbeOp::new(
            child,
            Arc::clone(&build),
            vec![Expr::column(0, LogicalType::Integer)],
            JoinType::Inner,
            vec![LogicalType::Integer, LogicalType::Integer],
        )
    };
    // Warm-up run.
    let mut op = probe(());
    let mut produced = 0usize;
    while let Some(c) = op.next_chunk().unwrap() {
        produced += c.len();
    }
    assert_eq!(produced, ROWS, "1:1 join");
    // Measured run: operator construction + per-chunk buffers + output
    // materialization, but nothing per input row. Budget: well under one
    // allocation per 16 rows.
    let allocs = allocations(|| {
        let mut op = probe(());
        while let Some(c) = op.next_chunk().unwrap() {
            std::hint::black_box(c.len());
        }
    });
    assert!(
        allocs < ROWS / 16,
        "join probe made {allocs} allocations for {ROWS} probe rows \
         (per-row allocation regressed)"
    );
}

#[test]
fn steady_state_sort_and_topn_sinks_allocate_per_chunk_not_per_row() {
    use eider_exec::ops::sort::{SortKey, SortSink, SortSpec};
    let keys = vec![
        SortKey::desc(Expr::column(1, LogicalType::Integer)),
        SortKey::asc(Expr::column(0, LogicalType::Integer)),
    ];
    let types = vec![LogicalType::Integer, LogicalType::Integer];
    let spec = Arc::new(SortSpec::new(keys, types.clone()));
    // Every chunk holds fresh values, so the Top-N keeps meeting (a few)
    // new winners instead of rejecting everything after the first chunk.
    let chunks: Vec<DataChunk> = (0..8)
        .map(|c| {
            let rows: Vec<Vec<Value>> = (0..ROWS as i32)
                .map(|i| {
                    let id = c * ROWS as i32 + i;
                    vec![Value::Integer(id), Value::Integer(id.wrapping_mul(7919) % 100_003)]
                })
                .collect();
            DataChunk::from_rows(&types, &rows).unwrap()
        })
        .collect();
    for cap in [None, Some(100)] {
        let mut sink = SortSink::new(Arc::clone(&spec), cap);
        for (seq, chunk) in chunks[..7].iter().enumerate() {
            sink.consume(chunk, seq, 0).unwrap();
        }
        // One more 2048-row chunk: key evaluation and encoding into reused
        // scratch, amortized arena growth, columnar appends — a handful of
        // allocations per chunk, where a `Vec<Value>` per row would make
        // thousands.
        let allocs = allocations(|| sink.consume(&chunks[7], 7, 0).unwrap());
        assert!(
            allocs < 64,
            "sort sink (cap {cap:?}) made {allocs} allocations for {ROWS} rows \
             (per-row allocation regressed)"
        );
    }
}
