//! The `Database`: shared state, storage lifecycle, checkpointing, commit.

use crate::config::DatabaseConfig;
use crate::persist;
use eider_catalog::Catalog;
use eider_coop::hostprobe::HostResourceProbe;
use eider_coop::policy::ResourcePolicy;
use eider_exec::parallel::WorkerFleet;
use eider_resilience::health::HealthMonitor;
use eider_storage::buffer::{BufferManager, BufferManagerConfig};
use eider_storage::file_manager::{BlockManager, SingleFileBlockManager};
use eider_storage::wal::WriteAheadLog;
use eider_storage::INVALID_BLOCK;
use eider_txn::{Transaction, TransactionManager};
use eider_vector::{EiderError, Result};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Quota granted to sessions that never ran
/// `PRAGMA session_memory_limit`: effectively unbounded, so the account
/// chain's min leaves the *global* limit in charge and a single-session
/// embedding behaves exactly as it did before sessions existed. (Half of
/// `usize::MAX` rather than all of it so in-flight charges can never
/// overflow the account's `used + bytes` arithmetic.)
pub(crate) const DEFAULT_SESSION_QUOTA: usize = usize::MAX / 2;

/// Per-connection session state: identity plus the session's memory
/// quota, a [`BufferManager::sub_account`] carved out of the database's
/// root account. Every operator a session's queries plan charges this
/// account, so its reservations are capped by both its quota and the
/// global limit — and are invisible to sibling sessions' quotas.
pub struct SessionState {
    id: u64,
    buffers: Arc<BufferManager>,
    /// Set once the user pins the quota with `PRAGMA
    /// session_memory_limit`; exempt from host-probe rebalancing.
    explicit_quota: AtomicBool,
}

impl SessionState {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's buffer account (charges propagate to the root).
    pub fn buffers(&self) -> Arc<BufferManager> {
        Arc::clone(&self.buffers)
    }

    /// Pin the session quota (`PRAGMA session_memory_limit`); a pinned
    /// quota is left alone by [`Database::rebalance_session_quotas`].
    pub(crate) fn set_quota(&self, bytes: usize) {
        self.buffers.set_memory_limit(bytes);
        self.explicit_quota.store(true, Ordering::Relaxed);
    }
}

struct StorageState {
    block_mgr: SingleFileBlockManager,
    wal: Mutex<WriteAheadLog>,
    /// Blocks occupied by the current checkpoint's meta chain.
    current_chain: Mutex<Vec<u64>>,
    path: PathBuf,
}

/// An embedded analytical database instance.
///
/// Create with [`Database::in_memory`] (transient) or [`Database::open`]
/// (single-file persistent, §6). Cheap to share: wrap in `Arc` via the
/// constructors and open [`crate::Connection`]s from any thread.
pub struct Database {
    catalog: Arc<Catalog>,
    txn_mgr: Arc<TransactionManager>,
    buffers: Arc<BufferManager>,
    policy: Arc<ResourcePolicy>,
    health: Arc<HealthMonitor>,
    /// The `/proc`-based host sampler (`None` off-Linux); consulted only
    /// while `config.host_probe` is on.
    host_probe: Option<HostResourceProbe>,
    /// The database-wide worker budget and admission gate shared by every
    /// session's parallel queries.
    fleet: Arc<WorkerFleet>,
    /// Live sessions (weak — a dropped [`crate::Connection`] unregisters
    /// itself lazily) for quota rebalancing.
    sessions: Mutex<Vec<Weak<SessionState>>>,
    next_session_id: AtomicU64,
    config: Mutex<DatabaseConfig>,
    storage: Option<StorageState>,
    /// Serializes commit finalization + WAL commit marker (see
    /// `commit_transaction`) and checkpointing.
    commit_lock: Mutex<()>,
    /// Serializes append-position capture with table appends so WAL
    /// records carry faithful physical row positions.
    append_lock: Mutex<()>,
}

impl Database {
    /// Open a transient in-memory database.
    pub fn in_memory() -> Result<Arc<Database>> {
        Self::in_memory_with_config(DatabaseConfig::default())
    }

    pub fn in_memory_with_config(config: DatabaseConfig) -> Result<Arc<Database>> {
        Ok(Arc::new(Self::build(config, None)?))
    }

    /// Open (or create) a persistent database at `path`; the WAL lives in
    /// `<path>.wal`.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<Database>> {
        Self::open_with_config(path, DatabaseConfig::default())
    }

    pub fn open_with_config(
        path: impl AsRef<Path>,
        config: DatabaseConfig,
    ) -> Result<Arc<Database>> {
        let path = path.as_ref().to_path_buf();
        let health = Arc::new(HealthMonitor::new());
        let exists = path.exists();
        let block_mgr = if exists {
            SingleFileBlockManager::open(&path, Arc::clone(&health))?
        } else {
            SingleFileBlockManager::create(&path, Arc::clone(&health))?
        };
        let mut db = Self::build_with_health(config, health)?;
        // Load the checkpoint image.
        let header = block_mgr.current_header();
        let mut chain = Vec::new();
        if header.meta_root != INVALID_BLOCK {
            chain =
                persist::load_checkpoint(header.meta_root, &block_mgr, &db.catalog, &db.txn_mgr)?;
        }
        // Free list = all blocks not in the live chain.
        let used: std::collections::HashSet<u64> = chain.iter().copied().collect();
        let free: Vec<u64> = (0..header.block_count).filter(|b| !used.contains(b)).collect();
        block_mgr.restore_free_list(free, header.block_count);
        // Replay the WAL on top.
        let wal_path = Self::wal_path(&path);
        let (records, torn) = WriteAheadLog::replay(&wal_path)?;
        if torn {
            // A torn tail is expected after a crash; everything before it
            // replays fine. (A mid-log corruption would have surfaced as a
            // checksum failure on an earlier record.)
        }
        persist::replay_wal(&records, &db.catalog, &db.txn_mgr)?;
        let wal = WriteAheadLog::open(&wal_path)?;
        db.storage = Some(StorageState {
            block_mgr,
            wal: Mutex::new(wal),
            current_chain: Mutex::new(chain),
            path,
        });
        Ok(Arc::new(db))
    }

    fn wal_path(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".wal");
        PathBuf::from(p)
    }

    fn build(config: DatabaseConfig, _storage: Option<()>) -> Result<Database> {
        Self::build_with_health(config, Arc::new(HealthMonitor::new()))
    }

    fn build_with_health(config: DatabaseConfig, health: Arc<HealthMonitor>) -> Result<Database> {
        let buffers = BufferManager::new(BufferManagerConfig { memory_limit: config.memory_limit });
        let policy = ResourcePolicy::new();
        policy.set_memory_limit(config.memory_limit);
        policy.set_threads(config.threads);
        Ok(Database {
            catalog: Catalog::new(),
            txn_mgr: TransactionManager::new(),
            buffers,
            policy,
            health,
            host_probe: HostResourceProbe::available().then(HostResourceProbe::new),
            fleet: WorkerFleet::new(config.threads),
            sessions: Mutex::new(Vec::new()),
            next_session_id: AtomicU64::new(1),
            config: Mutex::new(config),
            storage: None,
            commit_lock: Mutex::new(()),
            append_lock: Mutex::new(()),
        })
    }

    /// Open a connection (cheap; any number may coexist).
    pub fn connect(self: &Arc<Self>) -> crate::Connection {
        crate::Connection::new(Arc::clone(self))
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn txn_manager(&self) -> &Arc<TransactionManager> {
        &self.txn_mgr
    }

    pub fn buffers(&self) -> Arc<BufferManager> {
        Arc::clone(&self.buffers)
    }

    pub fn policy(&self) -> &Arc<ResourcePolicy> {
        &self.policy
    }

    pub fn health(&self) -> &Arc<HealthMonitor> {
        &self.health
    }

    /// The shared worker fleet: the database-wide worker budget divided
    /// across concurrently admitted pipeline graphs.
    pub fn fleet(&self) -> Arc<WorkerFleet> {
        Arc::clone(&self.fleet)
    }

    /// Open a new session: a fresh quota sub-account registered for
    /// rebalancing. Called by [`crate::Connection::new`].
    pub(crate) fn register_session(&self) -> Arc<SessionState> {
        let session = Arc::new(SessionState {
            id: self.next_session_id.fetch_add(1, Ordering::Relaxed),
            buffers: self.buffers.sub_account(DEFAULT_SESSION_QUOTA),
            explicit_quota: AtomicBool::new(false),
        });
        let mut sessions = self.sessions.lock();
        sessions.retain(|w| w.strong_count() > 0);
        sessions.push(Arc::downgrade(&session));
        drop(sessions);
        self.rebalance_session_quotas();
        session
    }

    /// Prune a closing session from the registry and return its quota
    /// share to the survivors. Called from [`crate::Connection`]'s drop,
    /// where the session `Arc` is still alive — hence the explicit id
    /// rather than relying on the weak pointer being dead.
    pub(crate) fn session_closed(&self, id: u64) {
        self.sessions.lock().retain(|w| w.upgrade().is_some_and(|s| s.id != id));
        self.rebalance_session_quotas();
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().iter().filter(|w| w.strong_count() > 0).count()
    }

    /// Divide the effective global limit fairly across live sessions.
    ///
    /// Only active while the host probe is on — the same opt-in as the
    /// rest of the §4 feedback loop — so the default remains "every
    /// session may use the whole global limit, first come first served"
    /// (the account chain still prevents any *combined* overshoot).
    /// Quotas pinned with `PRAGMA session_memory_limit` are never moved.
    pub(crate) fn rebalance_session_quotas(&self) {
        if !self.config.lock().host_probe {
            return;
        }
        let live: Vec<Arc<SessionState>> =
            self.sessions.lock().iter().filter_map(Weak::upgrade).collect();
        let auto: Vec<&Arc<SessionState>> =
            live.iter().filter(|s| !s.explicit_quota.load(Ordering::Relaxed)).collect();
        if auto.is_empty() {
            return;
        }
        let share =
            eider_coop::controller::fair_session_share(self.buffers.memory_limit(), auto.len());
        for session in auto {
            session.buffers.set_memory_limit(share);
        }
    }

    pub fn config(&self) -> DatabaseConfig {
        self.config.lock().clone()
    }

    pub fn set_wal_autocheckpoint(&self, bytes: u64) {
        self.config.lock().wal_autocheckpoint = bytes;
    }

    /// Enable/disable the real host resource probe (`PRAGMA host_probe`).
    /// Returns whether the request took effect — enabling fails (and
    /// leaves the flag off) on platforms without `/proc`.
    pub fn set_host_probe(&self, enabled: bool) -> bool {
        if enabled && self.host_probe.is_none() {
            return false;
        }
        self.config.lock().host_probe = enabled;
        true
    }

    /// Refresh the cooperation policy's view of the host (§4's loop): when
    /// the real probe is enabled, push the measured "everyone but us" CPU
    /// load into [`ResourcePolicy::set_app_cpu_load`] **and** shrink the
    /// effective memory limit while the rest of the machine is under
    /// memory pressure
    /// ([`effective_memory_limit`](eider_coop::controller::effective_memory_limit)
    /// over the probe's `sample_host_memory`; the limit recovers — up to
    /// the configured `PRAGMA memory_limit` — as the host frees memory).
    /// With the probe off (the default), whatever a simulated-application
    /// driver ([`eider_coop::monitor::SimulatedApplication`]) last pushed
    /// stays authoritative.
    pub fn refresh_host_load(&self) {
        if !self.config.lock().host_probe {
            return;
        }
        if let Some(probe) = &self.host_probe {
            if let Some(cpu) = probe.sample_other_cpu() {
                self.policy.set_app_cpu_load(cpu);
            }
            if let Some(mem) = probe.sample_host_memory() {
                self.apply_host_memory(mem.total_bytes, mem.other_used_bytes);
            }
        }
    }

    /// Apply one host memory observation: the configured limit (the base
    /// the user set, remembered in the config) capped by what the machine
    /// has left, floored at 1/20 of the configured limit. Split out from
    /// [`Database::refresh_host_load`] so tests can inject observations
    /// without a live `/proc`.
    pub fn apply_host_memory(&self, host_total: usize, host_other_used: usize) {
        let configured = self.config.lock().memory_limit;
        let effective =
            eider_coop::controller::effective_memory_limit(configured, host_total, host_other_used);
        self.buffers.set_memory_limit(effective);
        self.policy.set_memory_limit(effective);
        // The shrunken (or recovered) global limit re-divides across
        // sessions — §4's feedback now splits across N clients instead of
        // each of them assuming the whole budget.
        self.rebalance_session_quotas();
    }

    /// Record a new user-configured memory limit (`PRAGMA memory_limit`):
    /// the base the host-probe feedback shrinks from.
    pub(crate) fn set_base_memory_limit(&self, bytes: usize) {
        self.config.lock().memory_limit = bytes;
    }

    pub fn is_persistent(&self) -> bool {
        self.storage.is_some()
    }

    /// Current WAL size in bytes (0 for in-memory databases).
    pub fn wal_size(&self) -> u64 {
        self.storage.as_ref().map_or(0, |s| s.wal.lock().size_bytes())
    }

    /// Size of the database file in blocks.
    pub fn block_count(&self) -> u64 {
        self.storage.as_ref().map_or(0, |s| s.block_mgr.block_count())
    }

    /// Append a logical record to the WAL (no-op for in-memory databases).
    pub(crate) fn wal_append(&self, record: &persist::WalRecord) -> Result<()> {
        if let Some(s) = &self.storage {
            s.wal.lock().append(&record.encode())?;
        }
        Ok(())
    }

    /// Run `f` while holding the append lock, so captured physical row
    /// positions match the actual append order.
    pub(crate) fn with_append_lock<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let _guard = self.append_lock.lock();
        f()
    }

    /// Commit a transaction: finalize in memory, then make it durable.
    ///
    /// The WAL commit marker is written *after* in-memory finalization but
    /// before `commit` returns: a crash in between loses only a transaction
    /// whose success was never reported, so no durability promise breaks.
    pub fn commit_transaction(&self, txn: Transaction) -> Result<u64> {
        let _guard = self.commit_lock.lock();
        let txn_id = txn.id();
        let had_writes = txn.is_read_write();
        let commit_ts = txn.commit()?;
        if had_writes {
            if let Some(s) = &self.storage {
                let mut wal = s.wal.lock();
                wal.append(&persist::WalRecord::Commit { txn_id }.encode())?;
                wal.sync()?;
            }
        }
        drop(_guard);
        // Opportunistic version GC + auto-checkpoint.
        self.txn_mgr.garbage_collect();
        if had_writes {
            let threshold = self.config.lock().wal_autocheckpoint;
            if threshold > 0 && self.wal_size() > threshold {
                self.checkpoint()?;
            }
        }
        Ok(commit_ts)
    }

    /// Write a checkpoint: serialize the committed image into fresh blocks,
    /// atomically switch the header root, free the old chain, truncate the
    /// WAL (§6's checkpoint protocol).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(s) = &self.storage else {
            return Ok(()); // nothing to do in memory
        };
        if !self.health.operational() {
            return Err(EiderError::HardwareFault(
                "refusing to checkpoint: hardware declared failed (§3: cease operation \
                 rather than risk persisting corrupted data)"
                    .into(),
            ));
        }
        let _guard = self.commit_lock.lock();
        let txn = self.txn_mgr.begin();
        let (root, new_blocks) = persist::write_checkpoint(&self.catalog, &txn, &s.block_mgr)?;
        let mut header = s.block_mgr.current_header();
        header.meta_root = root;
        header.free_root = INVALID_BLOCK;
        s.block_mgr.write_header(header)?;
        // The previous image's blocks are now reusable.
        let mut chain = s.current_chain.lock();
        for &b in chain.iter() {
            s.block_mgr.free_block(b);
        }
        *chain = new_blocks;
        s.wal.lock().reset()?;
        txn.commit()?;
        Ok(())
    }

    /// Path of the database file (persistent databases only).
    pub fn path(&self) -> Option<&Path> {
        self.storage.as_ref().map(|s| s.path.as_path())
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        // Best-effort checkpoint on close, like DuckDB: consume the WAL so
        // the next open starts from a clean image.
        if self.storage.is_some() && self.health.operational() {
            let _ = self.checkpoint();
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("persistent", &self.is_persistent())
            .field("tables", &self.catalog.table_names())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_memory_observations_shrink_and_restore_the_effective_limit() {
        let db = Database::in_memory().unwrap();
        let configured = db.config().memory_limit;
        // Squeezed host: the effective limit shrinks to what is left.
        db.apply_host_memory(configured * 16, configured * 16 - configured / 2);
        assert_eq!(db.buffers().memory_limit(), configured / 2);
        assert_eq!(db.policy().memory_limit(), configured / 2);
        // Fully committed host: the 1/20 floor holds.
        db.apply_host_memory(configured * 16, configured * 16);
        assert_eq!(db.buffers().memory_limit(), configured / 20);
        // Pressure gone: the configured base recovers.
        db.apply_host_memory(configured * 16, 0);
        assert_eq!(db.buffers().memory_limit(), configured);
        // A new PRAGMA-set base feeds later observations.
        db.set_base_memory_limit(configured / 4);
        db.apply_host_memory(configured * 16, 0);
        assert_eq!(db.buffers().memory_limit(), configured / 4);
    }
}
