//! The grid: this reproduction's Hazelcast IMDG.
//!
//! One [`Grid`] per cluster. It owns the partition table, the snapshot
//! registry, every operator's live-state map and snapshot store, and the
//! replication service. The stream engine and the query system both talk to
//! the same grid — that shared state store *is* the architecture of the
//! paper's Figure 1.

use crate::imap::IMap;
use crate::partition_table::PartitionTable;
use crate::registry::{SnapshotFreshness, SnapshotRegistry};
use crate::replication::{ReplOp, Replicator};
use crate::snapshot::SnapshotStore;
use crate::stats::StateStats;
use crate::wal::{StoreWal, WalManager};
use parking_lot::RwLock;
use squery_common::config::ClusterConfig;
use squery_common::fault::FaultInjector;
use squery_common::lockorder::{self, LockClass};
use squery_common::telemetry::{EventKind, MetricsRegistry};
use squery_common::{NodeId, Partitioner, SnapshotId, SqError, SqResult, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Prefix distinguishing snapshot tables from live tables (paper §V-B).
pub const SNAPSHOT_TABLE_PREFIX: &str = "snapshot_";

/// The partitioned in-memory data grid.
pub struct Grid {
    config: ClusterConfig,
    partitioner: Partitioner,
    partition_table: PartitionTable,
    registry: SnapshotRegistry,
    maps: RwLock<HashMap<String, Arc<IMap>>>,
    snapshots: RwLock<HashMap<String, Arc<SnapshotStore>>>,
    replicator: Option<Arc<Replicator>>,
    telemetry: MetricsRegistry,
    faults: RwLock<Option<Arc<FaultInjector>>>,
    stats: StateStats,
    /// Durable snapshot WAL, when the deployment configured one (first
    /// attach wins; absent by default so in-memory deployments pay nothing).
    wal: OnceLock<Arc<WalManager>>,
}

impl Grid {
    /// Build a grid for `config`. Replication starts if `backup_count > 0`.
    pub fn new(config: ClusterConfig) -> SqResult<Arc<Grid>> {
        Grid::new_with_telemetry(config, MetricsRegistry::new())
    }

    /// Build a grid recording into a caller-provided telemetry registry
    /// (how `SQueryConfig` controls the event-ring capacity and span
    /// tracing: build the registry, then hand it to the grid).
    pub fn new_with_telemetry(
        config: ClusterConfig,
        telemetry: MetricsRegistry,
    ) -> SqResult<Arc<Grid>> {
        config.validate()?;
        let partitioner = Partitioner::new(config.partitions);
        let partition_table =
            PartitionTable::new(config.partitions, config.nodes, config.backup_count)?;
        let replicator = if config.backup_count > 0 {
            Some(Arc::new(Replicator::start(config.network)))
        } else {
            None
        };
        Ok(Arc::new(Grid {
            config,
            partitioner,
            partition_table,
            registry: SnapshotRegistry::new(),
            maps: RwLock::new(HashMap::new()),
            snapshots: RwLock::new(HashMap::new()),
            replicator,
            telemetry,
            faults: RwLock::new(None),
            stats: StateStats::new(),
            wal: OnceLock::new(),
        }))
    }

    /// A single-node grid with defaults — the standard test fixture.
    pub fn single_node() -> Arc<Grid> {
        Grid::new(ClusterConfig::single_node()).expect("default config is valid")
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared partitioner (also used by the stream engine's exchanges).
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// The partition table.
    pub fn partition_table(&self) -> &PartitionTable {
        &self.partition_table
    }

    /// The snapshot registry (2PC commit point, retention authority).
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.registry
    }

    /// The engine-wide metrics/event registry. Every map and snapshot store
    /// created through the grid is attached to it; the stream engine, SQL
    /// engine, and `sys_*` tables all share this one instance.
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Attach a fault injector. The grid is the rendezvous point: the
    /// stream engine, the replicator, and the `sys_faults` table all reach
    /// the injector through here, so one attach covers every subsystem.
    pub fn attach_fault_injector(&self, injector: Arc<FaultInjector>) {
        if let Some(r) = &self.replicator {
            r.set_fault_injector(Arc::clone(&injector));
        }
        if let Some(wal) = self.wal.get() {
            wal.attach_fault_injector(Arc::clone(&injector));
        }
        let _lo = lockorder::acquired(LockClass::GridCatalog);
        *self.faults.write() = Some(injector);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        let _lo = lockorder::acquired(LockClass::GridCatalog);
        self.faults.read().clone()
    }

    /// Attach the durable snapshot WAL (first attach wins). Wires telemetry
    /// and any already-attached fault injector into the manager, and hooks
    /// every existing snapshot store; stores created later hook on creation.
    pub fn attach_wal(&self, manager: Arc<WalManager>) {
        manager.attach_telemetry(&self.telemetry);
        if let Some(injector) = self.fault_injector() {
            manager.attach_fault_injector(injector);
        }
        if self.wal.set(Arc::clone(&manager)).is_err() {
            return;
        }
        let stores: Vec<(String, Arc<SnapshotStore>)> = {
            let _lo = lockorder::acquired(LockClass::GridCatalog);
            self.snapshots
                .read()
                .iter()
                .map(|(op, s)| (op.clone(), Arc::clone(s)))
                .collect()
        };
        let partitions = self.partitioner.partition_count() as usize;
        for (op, store) in stores {
            store.attach_wal(manager.store_wal(&op, partitions));
        }
    }

    /// The attached WAL manager, if any.
    pub fn wal(&self) -> Option<&Arc<WalManager>> {
        self.wal.get()
    }

    /// Durably seal checkpoint round `ssid` in the WAL (no-op when no WAL
    /// is attached). The checkpoint coordinator calls this between phase-1
    /// completion and the registry's in-memory commit, so the on-disk and
    /// in-memory commit points coincide.
    pub fn wal_seal(&self, ssid: SnapshotId) -> SqResult<()> {
        match self.wal.get() {
            Some(wal) => wal.seal_round(ssid.0),
            None => Ok(()),
        }
    }

    /// [`wal_seal`](Self::wal_seal), stamping the commit record with the
    /// round's global low watermark and seal time — both in µs since the
    /// unix epoch, so the snapshot's freshness survives a cold start as a
    /// true age rather than a process-relative reading.
    pub fn wal_seal_with(
        &self,
        ssid: SnapshotId,
        watermark_us: u64,
        sealed_at_us: u64,
    ) -> SqResult<()> {
        match self.wal.get() {
            Some(wal) => wal.seal_round_with(ssid.0, watermark_us, sealed_at_us),
            None => Ok(()),
        }
    }

    /// Cold-start recovery: rebuild every snapshot store from the attached
    /// WAL directory and seed the registry with the sealed rounds, so
    /// queries answer from the restored committed version immediately.
    ///
    /// Returns the latest recovered snapshot id, or `None` when the log
    /// holds no sealed rounds (fresh directory, or every round was torn).
    pub fn recover_from_wal(&self) -> SqResult<Option<SnapshotId>> {
        let Some(manager) = self.wal.get() else {
            return Ok(None);
        };
        let mut span = self.telemetry.spans().start("wal_recover");
        let recovery = manager.recover(self.partitioner.partition_count() as usize)?;
        let partitions = self.partitioner.partition_count() as usize;
        let mut restored_stores = 0u64;
        for (op, store_rec) in recovery.stores {
            // Segment directories are named by operator, so recovery can
            // recreate the store exactly as a live deployment would.
            let store = self.snapshot_store(&op);
            store.attach_wal(manager.store_wal(&op, partitions));
            StoreWal::apply_recovery(&store, store_rec);
            restored_stores += 1;
        }
        let sealed: Vec<SnapshotId> = recovery.sealed.iter().map(|&s| SnapshotId(s)).collect();
        // Each sealed round restores with the freshness its seal record
        // carried (zeros for pre-freshness history).
        let fresh_by_ssid: HashMap<u64, SnapshotFreshness> = recovery
            .freshness
            .iter()
            .map(|&(ssid, wm, at)| {
                (
                    ssid,
                    SnapshotFreshness {
                        watermark_us: wm,
                        sealed_at_us: at,
                    },
                )
            })
            .collect();
        let restored: Vec<(SnapshotId, SnapshotFreshness)> = sealed
            .iter()
            .map(|&s| (s, fresh_by_ssid.get(&s.0).copied().unwrap_or_default()))
            .collect();
        self.registry.restore_committed_with_freshness(&restored);
        span.label("stores", restored_stores);
        span.label("sealed_rounds", sealed.len() as u64);
        if recovery.torn_truncations > 0 {
            self.telemetry.event(
                EventKind::WalTornTail,
                None,
                sealed.last().map(|s| s.0),
                None,
                format!(
                    "discarded {} torn WAL tail(s) during recovery",
                    recovery.torn_truncations
                ),
            );
        }
        let latest = sealed.last().copied();
        self.telemetry.event(
            EventKind::WalRecovered,
            None,
            latest.map(|s| s.0),
            Some(recovery.elapsed_us),
            format!(
                "rebuilt {restored_stores} store(s), {} sealed round(s)",
                sealed.len()
            ),
        );
        if latest.is_some() {
            // Re-anchor the continuous statistics baselines on the restored
            // state, exactly as a supervisor restart does.
            self.stats.note_recovery(self);
        }
        Ok(latest)
    }

    /// Continuous state statistics: always-on accounting rollups plus the
    /// sampled key-distribution sketches.
    pub fn stats(&self) -> &StateStats {
        &self.stats
    }

    /// Arm or disarm stats sampling on every live map, current and future.
    pub fn arm_stats(&self, on: bool) {
        self.stats.set_armed(on);
        let maps: Vec<Arc<IMap>> = {
            let _lo = lockorder::acquired(LockClass::GridCatalog);
            self.maps.read().values().cloned().collect()
        };
        for map in maps {
            map.arm_stats(on);
        }
    }

    /// The node currently owning `key`'s partition.
    pub fn node_of_key(&self, key: &Value) -> NodeId {
        self.partition_table
            .primary_of(self.partitioner.partition_of(key))
    }

    /// Get-or-create the live-state map named `name`.
    ///
    /// Creation wires the replication listener when backups are enabled.
    pub fn map(&self, name: &str) -> Arc<IMap> {
        let _lo = lockorder::acquired(LockClass::GridCatalog);
        if let Some(m) = self.maps.read().get(name) {
            return Arc::clone(m);
        }
        let mut maps = self.maps.write();
        if let Some(m) = maps.get(name) {
            return Arc::clone(m);
        }
        let map = Arc::new(IMap::new(name, self.partitioner));
        map.attach_telemetry(&self.telemetry);
        map.arm_stats(self.stats.is_armed());
        if let Some(repl) = &self.replicator {
            let repl = Arc::clone(repl);
            let map_name = name.to_string();
            map.set_write_listener(Arc::new(move |pid, key, value| {
                let op = match value {
                    Some(v) => ReplOp::Put {
                        map: map_name.clone(),
                        pid,
                        key: key.clone(),
                        value: v.clone(),
                    },
                    None => ReplOp::Remove {
                        map: map_name.clone(),
                        pid,
                        key: key.clone(),
                    },
                };
                repl.enqueue(op);
            }));
        }
        maps.insert(name.to_string(), Arc::clone(&map));
        map
    }

    /// The live-state map named `name`, if it exists.
    pub fn get_map(&self, name: &str) -> Option<Arc<IMap>> {
        let _lo = lockorder::acquired(LockClass::GridCatalog);
        self.maps.read().get(name).cloned()
    }

    /// Get-or-create the snapshot store for operator `operator_name`
    /// (its table name becomes `snapshot_<operator_name>`).
    pub fn snapshot_store(&self, operator_name: &str) -> Arc<SnapshotStore> {
        let _lo = lockorder::acquired(LockClass::GridCatalog);
        if let Some(s) = self.snapshots.read().get(operator_name) {
            return Arc::clone(s);
        }
        let mut stores = self.snapshots.write();
        if let Some(s) = stores.get(operator_name) {
            return Arc::clone(s);
        }
        let store = Arc::new(SnapshotStore::new(operator_name, self.partitioner));
        store.attach_telemetry(&self.telemetry);
        if let Some(wal) = self.wal.get() {
            store.attach_wal(
                wal.store_wal(operator_name, self.partitioner.partition_count() as usize),
            );
        }
        stores.insert(operator_name.to_string(), Arc::clone(&store));
        store
    }

    /// The snapshot store for operator `operator_name`, if it exists.
    pub fn get_snapshot_store(&self, operator_name: &str) -> Option<Arc<SnapshotStore>> {
        let _lo = lockorder::acquired(LockClass::GridCatalog);
        self.snapshots.read().get(operator_name).cloned()
    }

    /// Resolve a SQL table name: `snapshot_<op>` names a snapshot store,
    /// anything else names a live map.
    pub fn table_exists(&self, table: &str) -> bool {
        match table.strip_prefix(SNAPSHOT_TABLE_PREFIX) {
            Some(op) => self.snapshots.read().contains_key(op),
            None => self.maps.read().contains_key(table),
        }
    }

    /// Names of all live-state maps.
    pub fn map_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.maps.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Table names of all snapshot stores (`snapshot_<op>`).
    pub fn snapshot_table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .snapshots
            .read()
            .keys()
            .map(|op| format!("{SNAPSHOT_TABLE_PREFIX}{op}"))
            .collect();
        names.sort();
        names
    }

    /// Every queryable table name (live + snapshot), sorted.
    pub fn all_table_names(&self) -> Vec<String> {
        let mut names = self.map_names();
        names.extend(self.snapshot_table_names());
        names.sort();
        names
    }

    /// Block until asynchronous replication has drained (tests/failover).
    pub fn flush_replication(&self) {
        if let Some(r) = &self.replicator {
            r.flush();
        }
    }

    /// Simulate the failure of `node`: its partitions lose their primary
    /// live-state copies; the partition table promotes backups; with
    /// replication enabled the promoted backups' data is restored into the
    /// live maps. Returns the partitions that changed owner.
    ///
    /// (Snapshot stores are durable in this reproduction — the paper stores
    /// them replicated in the grid, and recovery reads them back; modelling
    /// their loss would only exercise the same promotion path again.)
    pub fn fail_node(&self, node: NodeId) -> SqResult<Vec<squery_common::PartitionId>> {
        if node.0 >= self.config.nodes {
            return Err(SqError::Storage(format!("unknown node {node}")));
        }
        if let Some(r) = &self.replicator {
            r.flush();
        }
        let promoted = self.partition_table.fail_node(node)?;
        let maps: Vec<Arc<IMap>> = self.maps.read().values().cloned().collect();
        for map in maps {
            map.clear_partitions(&promoted);
            if let Some(r) = &self.replicator {
                let restored = r.backups_of(map.name(), &promoted);
                map.load_silent(restored);
            }
        }
        if let Some(injector) = self.fault_injector() {
            injector.on_node_loss(node.0, promoted.len());
        }
        Ok(promoted)
    }

    /// Total approximate bytes of live state across maps.
    pub fn total_live_bytes(&self) -> usize {
        self.maps
            .read()
            .values()
            .map(|m| m.approximate_bytes())
            .sum()
    }

    /// Total approximate bytes of snapshot state across stores.
    pub fn total_snapshot_bytes(&self) -> usize {
        self.snapshots
            .read()
            .values()
            .map(|s| s.stats().approx_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_get_or_create_is_idempotent() {
        let g = Grid::single_node();
        let a = g.map("average");
        let b = g.map("average");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(g.map_names(), vec!["average"]);
        assert!(g.get_map("average").is_some());
        assert!(g.get_map("missing").is_none());
    }

    #[test]
    fn snapshot_store_naming_convention() {
        let g = Grid::single_node();
        let s = g.snapshot_store("statefulmap");
        assert_eq!(s.name(), "snapshot_statefulmap");
        assert_eq!(g.snapshot_table_names(), vec!["snapshot_statefulmap"]);
        assert!(g.table_exists("snapshot_statefulmap"));
        assert!(!g.table_exists("snapshot_other"));
    }

    #[test]
    fn all_table_names_combines_live_and_snapshot() {
        let g = Grid::single_node();
        g.map("orderinfo");
        g.snapshot_store("orderinfo");
        g.snapshot_store("orderstate");
        assert_eq!(
            g.all_table_names(),
            vec!["orderinfo", "snapshot_orderinfo", "snapshot_orderstate"]
        );
    }

    #[test]
    fn node_of_key_follows_partition_table() {
        let g = Grid::new(ClusterConfig::simulated(3)).unwrap();
        for i in 0..100i64 {
            let key = Value::Int(i);
            let node = g.node_of_key(&key);
            assert!(node.0 < 3);
            let pid = g.partitioner().partition_of(&key);
            assert_eq!(node, g.partition_table().primary_of(pid));
        }
    }

    #[test]
    fn failover_restores_live_state_from_backups() {
        let mut config = ClusterConfig::simulated(3);
        config.network = squery_common::config::NetworkConfig::instant();
        let g = Grid::new(config).unwrap();
        let m = g.map("orders");
        for i in 0..300i64 {
            m.put(Value::Int(i), Value::Int(i * 10));
        }
        g.flush_replication();
        let victim = NodeId(0);
        let owned_parts = g.partition_table().partitions_of(victim);
        assert!(!owned_parts.is_empty());
        let promoted = g.fail_node(victim).unwrap();
        assert_eq!(promoted, owned_parts);
        // Every key is still readable after promotion.
        for i in 0..300i64 {
            assert_eq!(
                m.get(&Value::Int(i)),
                Some(Value::Int(i * 10)),
                "key {i} lost in failover"
            );
        }
    }

    #[test]
    fn failover_without_replication_loses_partitions() {
        // A 1-node cluster has no backups; failing the only node is an error
        // (no backup to promote).
        let g = Grid::single_node();
        g.map("m").put(Value::Int(1), Value::Int(1));
        assert!(g.fail_node(NodeId(0)).is_err());
        assert!(g.fail_node(NodeId(9)).is_err(), "unknown node rejected");
    }

    #[test]
    fn byte_totals_aggregate() {
        let g = Grid::single_node();
        assert_eq!(g.total_live_bytes(), 0);
        g.map("a").put(Value::Int(1), Value::str("x"));
        g.map("b").put(Value::Int(2), Value::str("y"));
        assert!(g.total_live_bytes() > 0);
        let s = g.snapshot_store("a");
        s.write_partition(
            squery_common::SnapshotId(1),
            g.partitioner().partition_of(&Value::Int(1)),
            vec![(Value::Int(1), Some(Value::str("x")))],
            true,
        );
        assert!(g.total_snapshot_bytes() > 0);
    }

    #[test]
    fn fail_node_records_node_loss_fault() {
        use squery_common::fault::{FaultInjector, FaultPlan, InjectionPoint};
        let mut config = ClusterConfig::simulated(3);
        config.network = squery_common::config::NetworkConfig::instant();
        let g = Grid::new(config).unwrap();
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(0)));
        g.attach_fault_injector(Arc::clone(&injector));
        g.map("m").put(Value::Int(1), Value::Int(1));
        let promoted = g.fail_node(NodeId(1)).unwrap();
        let records = injector.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].point, InjectionPoint::NodeLoss);
        assert_eq!(records[0].outcome, format!("promoted_{}", promoted.len()));
        assert!(g.fault_injector().is_some());
    }

    #[test]
    fn registry_is_shared() {
        let g = Grid::single_node();
        let s = g.registry().begin().unwrap();
        g.registry().commit(s).unwrap();
        assert_eq!(g.registry().latest_committed(), s);
    }

    #[test]
    fn wal_round_trip_through_grid_cold_start() {
        use crate::wal::{FsyncMode, WalManager};
        let dir = std::env::temp_dir().join(format!("squery-grid-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First incarnation: two committed rounds, one unsealed attempt.
        {
            let g = Grid::single_node();
            g.attach_wal(Arc::new(WalManager::new(&dir, FsyncMode::Never, 4)));
            let store = g.snapshot_store("counts");
            for round in 1..=2u64 {
                let ssid = g.registry().begin().unwrap();
                assert_eq!(ssid.0, round);
                let key = Value::Int(7);
                store.write_partition(
                    ssid,
                    store.partition_of(&key),
                    vec![(key, Some(Value::Int(round as i64 * 10)))],
                    round == 1,
                );
                g.wal_seal(ssid).unwrap();
                g.registry().commit(ssid).unwrap();
            }
            // Phase-1 of round 3 reaches the disk but never seals.
            let ssid = g.registry().begin().unwrap();
            let key = Value::Int(7);
            store.write_partition(
                ssid,
                store.partition_of(&key),
                vec![(key, Some(Value::Int(999)))],
                false,
            );
        }

        // Cold start: a brand-new grid over the same directory.
        let g2 = Grid::single_node();
        g2.attach_wal(Arc::new(WalManager::new(&dir, FsyncMode::Never, 4)));
        let latest = g2.recover_from_wal().unwrap();
        assert_eq!(latest, Some(squery_common::SnapshotId(2)));
        assert_eq!(g2.registry().latest_committed().0, 2);
        let store = g2.get_snapshot_store("counts").expect("store recovered");
        assert_eq!(
            store
                .read_at(squery_common::SnapshotId(2), &Value::Int(7))
                .unwrap(),
            Some(Value::Int(20)),
            "recovered state must answer from the last sealed round"
        );
        // The unsealed round-3 write is gone.
        assert_eq!(store.stored_ssids().len(), 2);
        // Post-restart checkpoints continue past recovered history.
        assert_eq!(g2.registry().begin().unwrap().0, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
