//! Synthetic workload generators for tests, examples and the paper
//! regenerators.
//!
//! §2 describes the workload mix an embedded analytical system faces:
//! large scans with aggregates and joins, bulk appends as new data
//! arrives, and data-wrangling updates (the `-999`-means-missing
//! convention the paper quotes from McMullen). These generators produce
//! exactly those shapes, deterministically from a seed.

use eider_vector::{DataChunk, LogicalType, Result, Value, VECTOR_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic generator state.
pub struct Workload {
    rng: StdRng,
}

impl Workload {
    pub fn new(seed: u64) -> Self {
        Workload { rng: StdRng::seed_from_u64(seed) }
    }

    /// A Zipf-ish skewed key in `[0, n)`: heavy head, long tail (used for
    /// join/group keys; exact Zipf is unnecessary here).
    pub fn skewed_key(&mut self, n: u64) -> u64 {
        let u: f64 = self.rng.gen_range(0.0f64..1.0);
        let x = u.powi(3); // cube concentrates mass near zero
        (x * n as f64) as u64
    }

    /// The §2 wrangling table: `(id INTEGER, d INTEGER, v DOUBLE)`, where a
    /// fraction of `d` holds the sentinel `-999` for missing data.
    pub fn wrangling_chunks(
        &mut self,
        rows: usize,
        missing_fraction: f64,
    ) -> Result<Vec<DataChunk>> {
        let types = [LogicalType::Integer, LogicalType::Integer, LogicalType::Double];
        let mut chunks = Vec::new();
        let mut produced = 0usize;
        while produced < rows {
            let n = (rows - produced).min(VECTOR_SIZE);
            let mut chunk = DataChunk::new(&types);
            for i in 0..n {
                let id = (produced + i) as i32;
                let d = if self.rng.gen_bool(missing_fraction) {
                    -999
                } else {
                    self.rng.gen_range(0..10_000)
                };
                let v = self.rng.gen_range(0.0..1000.0);
                chunk.append_row(&[Value::Integer(id), Value::Integer(d), Value::Double(v)])?;
            }
            chunks.push(chunk);
            produced += n;
        }
        Ok(chunks)
    }

    /// Star-schema-ish fact rows `(order_id, customer_id, amount, quantity,
    /// order_date)` with skewed customer keys — the OLAP scan/join/aggregate
    /// substrate (a TPC-H-lite `orders`).
    pub fn orders_chunks(&mut self, rows: usize, customers: u64) -> Result<Vec<DataChunk>> {
        let types = [
            LogicalType::BigInt,
            LogicalType::BigInt,
            LogicalType::Double,
            LogicalType::Integer,
            LogicalType::Date,
        ];
        let base_date = 18262; // 2020-01-01
        let mut chunks = Vec::new();
        let mut produced = 0usize;
        while produced < rows {
            let n = (rows - produced).min(VECTOR_SIZE);
            let mut chunk = DataChunk::new(&types);
            for i in 0..n {
                let oid = (produced + i) as i64;
                let cid = self.skewed_key(customers) as i64;
                let amount = self.rng.gen_range(1.0..500.0);
                let qty = self.rng.gen_range(1..50);
                let date = base_date + self.rng.gen_range(0..365);
                chunk.append_row(&[
                    Value::BigInt(oid),
                    Value::BigInt(cid),
                    Value::Double(amount),
                    Value::Integer(qty),
                    Value::Date(date),
                ])?;
            }
            chunks.push(chunk);
            produced += n;
        }
        Ok(chunks)
    }

    /// Dimension rows `(customer_id, name, segment)` for joining against
    /// [`Workload::orders_chunks`].
    pub fn customers_chunks(&mut self, customers: u64) -> Result<Vec<DataChunk>> {
        let types = [LogicalType::BigInt, LogicalType::Varchar, LogicalType::Varchar];
        const SEGMENTS: [&str; 5] =
            ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"];
        let mut chunks = Vec::new();
        let mut produced = 0u64;
        while produced < customers {
            let n = ((customers - produced) as usize).min(VECTOR_SIZE);
            let mut chunk = DataChunk::new(&types);
            for i in 0..n {
                let cid = (produced + i as u64) as i64;
                let seg = SEGMENTS[self.rng.gen_range(0..SEGMENTS.len())];
                chunk.append_row(&[
                    Value::BigInt(cid),
                    Value::Varchar(format!("Customer#{cid:09}")),
                    Value::Varchar(seg.to_string()),
                ])?;
            }
            chunks.push(chunk);
            produced += n as u64;
        }
        Ok(chunks)
    }

    /// Edge-node sensor readings `(sensor_id, ts, reading)` with occasional
    /// out-of-range spikes (for the edge pre-aggregation example).
    pub fn sensor_chunks(&mut self, rows: usize, sensors: u32) -> Result<Vec<DataChunk>> {
        let types = [LogicalType::Integer, LogicalType::Timestamp, LogicalType::Double];
        let base_ts: i64 = 1_577_836_800_000_000; // 2020-01-01 00:00:00
        let mut chunks = Vec::new();
        let mut produced = 0usize;
        while produced < rows {
            let n = (rows - produced).min(VECTOR_SIZE);
            let mut chunk = DataChunk::new(&types);
            for i in 0..n {
                let sid = self.rng.gen_range(0..sensors) as i32;
                let ts = base_ts + ((produced + i) as i64) * 1_000_000;
                let reading = if self.rng.gen_bool(0.01) {
                    self.rng.gen_range(500.0..1000.0) // spike
                } else {
                    self.rng.gen_range(15.0..30.0)
                };
                chunk.append_row(&[
                    Value::Integer(sid),
                    Value::Timestamp(ts),
                    Value::Double(reading),
                ])?;
            }
            chunks.push(chunk);
            produced += n;
        }
        Ok(chunks)
    }

    /// Raw integer column (for the §3 AN-code regenerator).
    pub fn int_column(&mut self, rows: usize, max: i32) -> Vec<i32> {
        (0..rows).map(|_| self.rng.gen_range(0..max)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_rows(chunks: &[DataChunk]) -> usize {
        chunks.iter().map(DataChunk::len).sum()
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Workload::new(7).wrangling_chunks(5000, 0.25).unwrap();
        let b = Workload::new(7).wrangling_chunks(5000, 0.25).unwrap();
        assert_eq!(total_rows(&a), 5000);
        assert_eq!(a[0].to_rows(), b[0].to_rows());
    }

    #[test]
    fn missing_fraction_roughly_honored() {
        let chunks = Workload::new(1).wrangling_chunks(20_000, 0.25).unwrap();
        let missing: usize = chunks
            .iter()
            .flat_map(|c| c.to_rows())
            .filter(|r| r[1] == Value::Integer(-999))
            .count();
        let frac = missing as f64 / 20_000.0;
        assert!((0.22..0.28).contains(&frac), "{frac}");
    }

    #[test]
    fn skewed_keys_are_skewed() {
        let mut w = Workload::new(3);
        let keys: Vec<u64> = (0..10_000).map(|_| w.skewed_key(1000)).collect();
        let head = keys.iter().filter(|&&k| k < 100).count();
        assert!(head > 3000, "head of distribution too light: {head}");
        assert!(keys.iter().all(|&k| k < 1000));
    }

    #[test]
    fn orders_and_customers_shapes() {
        let mut w = Workload::new(5);
        let orders = w.orders_chunks(3000, 100).unwrap();
        assert_eq!(total_rows(&orders), 3000);
        assert_eq!(orders[0].column_count(), 5);
        let customers = w.customers_chunks(100).unwrap();
        assert_eq!(total_rows(&customers), 100);
        // Every order's customer exists.
        let max_cid =
            orders.iter().flat_map(|c| c.to_rows()).filter_map(|r| r[1].as_i64()).max().unwrap();
        assert!(max_cid < 100);
    }

    #[test]
    fn sensor_readings_have_spikes() {
        let chunks = Workload::new(11).sensor_chunks(20_000, 16).unwrap();
        let spikes = chunks
            .iter()
            .flat_map(|c| c.to_rows())
            .filter(|r| r[2].as_f64().unwrap() > 100.0)
            .count();
        assert!(spikes > 50, "expected ~1% spikes, got {spikes}");
    }
}
