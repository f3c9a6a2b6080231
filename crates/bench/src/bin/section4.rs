//! §4 (Cooperation) experiment driver: hash join vs out-of-core merge join
//! across memory budgets — the RAM/CPU trade-off the paper's example
//! describes, including the crossover where the hash join stops fitting.
//!
//! The run exits 1 unless the join the policy chooses returns the
//! unconstrained row count at every budget, and the hash join beats the
//! merge join at the largest budget.

use eider_bench::Claims;
use eider_coop::compression::CompressionLevel;
use eider_coop::policy::{choose_join_strategy, JoinStrategy};
use eider_exec::expression::Expr;
use eider_exec::ops::join::JoinType;
use eider_exec::ops::{drain, HashJoinOp, MergeJoinOp, TableScanOp};
use eider_txn::ScanOptions;
use eider_vector::LogicalType;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut claims = Claims::new();
    let db = eider_bench::star_db(1_000_000, 50_000, 11).expect("db");
    let expected_rows = db
        .connect()
        .query("SELECT count(*) FROM orders o JOIN customers c ON o.cid = c.cid")
        .expect("unconstrained join")
        .scalar()
        .ok()
        .and_then(|v| v.as_i64())
        .expect("count") as usize;
    let orders = db.catalog().get_table("orders").expect("orders");
    let customers = db.catalog().get_table("customers").expect("customers");

    let scan = |table: &std::sync::Arc<eider_catalog::TableEntry>, cols: Vec<usize>, txn| {
        Box::new(TableScanOp::new(
            Arc::clone(&table.data),
            txn,
            ScanOptions { columns: cols, filters: Vec::new(), emit_row_ids: false },
        ))
    };

    println!("# E4: join strategy under shrinking memory budgets");
    println!("# build side: 50k customers; probe side: 1M orders");
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>8}",
        "budget", "hash join ms", "merge join ms", "chosen", "spills"
    );
    let mut chosen_exact = true;
    let mut hash_wins_largest = false;
    for budget_mb in [512usize, 64, 8, 1] {
        let budget = budget_mb << 20;
        db.buffers().set_memory_limit(budget);
        db.policy().set_memory_limit(budget);

        // Hash join (may exceed tiny budgets; report OOM when it does).
        let txn = Arc::new(db.txn_manager().begin());
        let started = Instant::now();
        let hash_result: Result<usize, String> = (|| {
            let mut op = HashJoinOp::new(
                scan(&orders, vec![1, 2], Arc::clone(&txn)),
                scan(&customers, vec![0, 2], Arc::clone(&txn)),
                vec![Expr::column(0, LogicalType::BigInt)],
                vec![Expr::column(0, LogicalType::BigInt)],
                JoinType::Inner,
                CompressionLevel::None,
                Some(db.buffers()),
            )
            .map_err(|e| e.to_string())?;
            let chunks = drain(&mut op).map_err(|e| e.to_string())?;
            Ok(chunks.iter().map(|c| c.len()).sum())
        })();
        let hash_ms = started.elapsed().as_secs_f64() * 1e3;
        drop(txn);

        // Out-of-core merge join under the same budget.
        let txn = Arc::new(db.txn_manager().begin());
        let started = Instant::now();
        let mut merge = MergeJoinOp::new(
            scan(&orders, vec![1, 2], Arc::clone(&txn)),
            scan(&customers, vec![0, 2], Arc::clone(&txn)),
            vec![Expr::column(0, LogicalType::BigInt)],
            vec![Expr::column(0, LogicalType::BigInt)],
            budget / 8,
            None,
        );
        let merge_rows: usize =
            drain(&mut merge).expect("merge join").iter().map(|c| c.len()).sum();
        let merge_ms = started.elapsed().as_secs_f64() * 1e3;
        drop(txn);

        let hash_cell = match &hash_result {
            Ok(rows) => {
                assert_eq!(*rows, merge_rows, "join results must agree");
                format!("{hash_ms:.0}")
            }
            Err(_) => "OOM".to_string(),
        };
        let chosen = choose_join_strategy(50_000 * 2 * 16, db.buffers().available_memory());
        chosen_exact &= match chosen {
            JoinStrategy::Hash => hash_result.as_ref().is_ok_and(|&r| r == expected_rows),
            JoinStrategy::OutOfCoreMerge => merge_rows == expected_rows,
        };
        if budget_mb == 512 {
            hash_wins_largest = hash_result.is_ok() && hash_ms < merge_ms;
        }
        println!(
            "{:<16} {:>14} {:>14} {:>10} {:>8}",
            format!("{budget_mb} MB"),
            hash_cell,
            format!("{merge_ms:.0}"),
            match chosen {
                JoinStrategy::Hash => "hash",
                JoinStrategy::OutOfCoreMerge => "merge",
            },
            format!("{:?}", merge.spilled_runs()),
        );
    }
    println!(
        "\nExpected shape: hash join wins while the build side fits; under tight\n\
         budgets hash goes OOM (or would starve the app) while the merge join\n\
         degrades gracefully via spilling — the paper's RAM/CPU+IO trade."
    );
    claims.check(
        &format!("the chosen join returns all {expected_rows} rows at every budget"),
        chosen_exact,
    );
    claims.check("hash join is faster than merge join at 512 MB", hash_wins_largest);
    claims.finish();
}
