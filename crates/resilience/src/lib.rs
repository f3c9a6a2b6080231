//! Resilience substrate for eider (§3 of the paper).
//!
//! Consumer hardware has no ECC RAM, no RAID and no administrator; the
//! paper's position is that an embedded analytical DBMS must *distrust the
//! hardware in every aspect*. This crate implements the detection machinery:
//!
//! * [`checksum`] — CRC-32C block checksums ("DuckDB computes and stores
//!   check sums of all blocks in persistent storage and verifies this as
//!   blocks are read").
//! * [`fault`] — a deterministic fault injector and simulated faulty
//!   memory, standing in for real hardware failures (see DESIGN.md,
//!   substitutions table).
//! * [`health`] — a process-wide health monitor implementing the paper's
//!   observation that "a system that has failed once is very likely to
//!   fail again": after the first detected fault, checking escalates.
//!
//! §3's demos that the engine does not run — AN-code hardening, the
//! moving-inversions memory test and the Monte-Carlo failure model behind
//! Table 1 — live with the paper regenerators in `crates/bench`.

pub mod checksum;
pub mod fault;
pub mod health;

pub use checksum::{crc32c, Crc32c};
pub use fault::{FaultInjector, SimulatedMemory};
pub use health::{CheckingMode, HealthMonitor};
