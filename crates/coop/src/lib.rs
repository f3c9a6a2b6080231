//! Cooperation: adaptive resource sharing with the host application (§4).
//!
//! "As the embedded database is no longer the sole inhabitant of the
//! machine, it can no longer make constant use of all the underlying
//! hardware as that would cause the underlying application to be starved
//! for resources." eider therefore:
//!
//! * never probes for all of RAM — limits are explicit and adjustable at
//!   runtime ([`ResourcePolicy`], `PRAGMA memory_limit` / `threads`);
//! * watches the application's resource usage through a
//!   [`monitor::ResourceMonitor`] — the real `/proc`-based
//!   [`hostprobe::HostResourceProbe`] on Linux hosts — and reacts:
//!   [`policy::effective_memory_limit`] shrinks the DBMS memory limit while
//!   the rest of the machine is under pressure, and
//!   [`policy::clamp_worker_threads`] gives up cores the application is
//!   busy with. Figure 1's reactive compression ladder (None → Light →
//!   Heavy, with hysteresis) and its scripted application trace are paper
//!   demos and live in `crates/bench`;
//! * can trade RAM for CPU at the physical-plan level: the
//!   [`policy::choose_join_strategy`] helper demotes a hash join to an
//!   out-of-core merge join when the build side does not fit the budget
//!   ("a hash join can be transparently replaced with a out-of-core merge
//!   join").
//!
//! Compression codecs are implemented from scratch in [`compression`]:
//! Light is PackBits-style run-length encoding (cheap CPU, modest ratio);
//! Heavy is an LZSS dictionary coder (more CPU, better ratio) — exactly the
//! lightweight/heavyweight pair Figure 1 sketches.

pub mod compression;
pub mod hostprobe;
pub mod monitor;
pub mod policy;

pub use compression::{compress, decompress, CompressionLevel};
pub use hostprobe::HostResourceProbe;
pub use monitor::{ResourceMonitor, ResourceUsage, StaticMonitor};
pub use policy::{choose_join_strategy, JoinStrategy, ResourcePolicy};
