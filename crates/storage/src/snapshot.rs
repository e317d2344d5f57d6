//! `SnapshotStore`: the queryable **snapshot state** of one operator.
//!
//! Mirrors the paper's Table II — entries are addressed by `(key, snapshot
//! id)` and the store is named `snapshot_<operator>` (§V-B). Two snapshot
//! modes (§VI-A):
//!
//! * **Full** — every checkpoint writes the operator's complete state for the
//!   new snapshot id. Reads at a snapshot id hit exactly one version map.
//! * **Incremental** — each checkpoint records only the keys that changed
//!   since the previous one (plus tombstones for removals). A read "starts
//!   from the latest snapshot of interest … and goes backwards to supplement
//!   the query results with the latest state updates for other keys" — the
//!   differential walk whose growing cost the paper measures in Figures 12
//!   and 13, and which [`SnapshotStore::prune_below`] bounds by folding old
//!   deltas into a new complete base ("S-QUERY prunes obsolete states").
//!
//! The store itself is version-agnostic about commit status: the snapshot
//! registry decides which ids are committed/queryable; aborted checkpoint
//! attempts are erased with [`SnapshotStore::discard`].

use crate::wal::StoreWal;
use parking_lot::{Mutex, RwLock};
use squery_common::codec::encoded_len;
use squery_common::lockorder::{self, LockClass};
use squery_common::metrics::SharedHistogram;
use squery_common::schema::Schema;
use squery_common::telemetry::{Counter, MetricsRegistry};
use squery_common::{PartitionId, Partitioner, SnapshotId, SqError, SqResult, Value};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// An opaque executor-cache value: a derived read-only structure (decoded
/// column batches, a frozen join table) memoized over committed — hence
/// immutable — snapshot state. The store is deliberately type-agnostic; the
/// query layer downcasts.
pub type ExecCached = Arc<dyn Any + Send + Sync>;

/// Cache key: what was derived (`kind`), from which pinned snapshot ids,
/// which slice (or `u32::MAX` for whole-scan structures), and which schema
/// columns it covers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ExecCacheKey {
    kind: String,
    ssids: Vec<SnapshotId>,
    slice: u32,
    cols: Vec<usize>,
}

/// Per-store handles into the engine-wide [`MetricsRegistry`].
struct StoreTelemetry {
    writes: Counter,
    reads: Counter,
    scans: Counter,
    write_us: SharedHistogram,
    read_us: SharedHistogram,
    scan_us: SharedHistogram,
}

/// Whether checkpoints record complete state or per-checkpoint deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Every checkpoint stores the operator's whole state.
    Full,
    /// Every checkpoint stores only changed keys (`None` = removal).
    Incremental,
}

/// One checkpoint's worth of entries for one partition.
struct VersionMap {
    /// A complete view (base) rather than a delta.
    full: bool,
    /// `None` values are tombstones (key removed in this checkpoint).
    entries: HashMap<Value, Option<Value>>,
    /// Sum of [`entry_bytes`] over `entries`, kept exact by every mutation
    /// so statistics never re-encode stored state.
    bytes: u64,
}

impl VersionMap {
    fn new(full: bool, entries: Vec<(Value, Option<Value>)>) -> VersionMap {
        let mut vm = VersionMap {
            full,
            entries: HashMap::with_capacity(entries.len()),
            bytes: 0,
        };
        for (k, v) in entries {
            vm.insert(k, v);
        }
        vm
    }

    /// Insert or replace one entry, keeping `bytes` exact.
    fn insert(&mut self, key: Value, value: Option<Value>) {
        match self.entries.entry(key) {
            Entry::Occupied(mut e) => {
                self.bytes -= entry_bytes(e.key(), e.get().as_ref());
                self.bytes += entry_bytes(e.key(), value.as_ref());
                e.insert(value);
            }
            Entry::Vacant(e) => {
                self.bytes += entry_bytes(e.key(), value.as_ref());
                e.insert(value);
            }
        }
    }

    /// Drop every tombstone, keeping `bytes` exact.
    fn drop_tombstones(&mut self) {
        let mut dropped = 0u64;
        self.entries.retain(|k, v| {
            if v.is_none() {
                dropped += entry_bytes(k, None);
            }
            v.is_some()
        });
        self.bytes -= dropped;
    }

    /// Remove one entry, keeping `bytes` exact.
    fn remove(&mut self, key: &Value) -> Option<Option<Value>> {
        let old = self.entries.remove(key)?;
        self.bytes -= entry_bytes(key, old.as_ref());
        Some(old)
    }
}

#[derive(Default)]
struct PartitionSnapshots {
    versions: BTreeMap<u64, VersionMap>,
}

impl PartitionSnapshots {
    /// The differential read of §VI-A for one partition: walk versions
    /// newest-first from `ssid`, hand each key's first occurrence to `f`
    /// when it is live, stop at a full map. Only delta keys enter the dedupe
    /// set, and a base map consults it only when a newer delta exists, so a
    /// read that hits one full version does no per-key bookkeeping. Returns
    /// the number of version maps consulted.
    fn resolve<'a>(&'a self, ssid: u64, mut f: impl FnMut(&'a Value, &'a Value)) -> usize {
        let mut seen: HashSet<&Value> = HashSet::new();
        let mut consulted = 0;
        for vm in self.versions.range(..=ssid).rev().map(|(_, vm)| vm) {
            consulted += 1;
            for (k, v) in &vm.entries {
                let shadowed = if vm.full {
                    !seen.is_empty() && seen.contains(k)
                } else {
                    !seen.insert(k)
                };
                if let (false, Some(v)) = (shadowed, v) {
                    f(k, v);
                }
            }
            if vm.full {
                break;
            }
        }
        consulted
    }
}

/// Aggregate statistics, used by the evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Distinct snapshot ids currently stored (across partitions).
    pub retained_versions: usize,
    /// Total stored `(key, ssid)` entries including tombstones.
    pub stored_entries: usize,
    /// Approximate encoded bytes of all stored entries.
    pub approx_bytes: usize,
}

/// The snapshot state store for a single stateful operator.
pub struct SnapshotStore {
    name: String,
    partitioner: Partitioner,
    parts: Vec<RwLock<PartitionSnapshots>>,
    value_schema: RwLock<Option<Arc<Schema>>>,
    /// Snapshot ids below this have been pruned; reads there are errors.
    pruned_below: AtomicU64,
    approx_bytes: AtomicU64,
    telemetry: RwLock<Option<Arc<StoreTelemetry>>>,
    /// Memoized executor structures over committed snapshots. Entries for
    /// snapshot ids older than the newest inserted one are evicted on
    /// insert, bounding the cache to roughly one snapshot's worth of
    /// derived state per store.
    exec_cache: Mutex<HashMap<ExecCacheKey, ExecCached>>,
    /// Durable WAL for this store, when the deployment enabled one
    /// (first attach wins). Phase-1 writes append here *before* touching
    /// the in-memory partition, aborts truncate, prunes compact.
    wal: OnceLock<Arc<StoreWal>>,
}

impl SnapshotStore {
    /// An empty store named `snapshot_<operator>`.
    pub fn new(operator_name: &str, partitioner: Partitioner) -> SnapshotStore {
        SnapshotStore {
            name: format!("snapshot_{operator_name}"),
            partitioner,
            parts: (0..partitioner.partition_count())
                .map(|_| RwLock::new(PartitionSnapshots::default()))
                .collect(),
            value_schema: RwLock::new(None),
            pruned_below: AtomicU64::new(0),
            approx_bytes: AtomicU64::new(0),
            telemetry: RwLock::new(None),
            exec_cache: Mutex::new(HashMap::new()),
            wal: OnceLock::new(),
        }
    }

    /// Attach the durable WAL this store appends to (first attach wins).
    pub fn attach_wal(&self, wal: Arc<StoreWal>) {
        let _ = self.wal.set(wal);
    }

    /// Look up a memoized executor structure. Returns a clone of the `Arc`
    /// slot; the caller downcasts to the concrete type it stored.
    pub fn exec_cache_get(
        &self,
        kind: &str,
        ssids: &[SnapshotId],
        slice: u32,
        cols: &[usize],
    ) -> Option<ExecCached> {
        let key = ExecCacheKey {
            kind: kind.to_string(),
            ssids: ssids.to_vec(),
            slice,
            cols: cols.to_vec(),
        };
        let _lo = lockorder::acquired(LockClass::ExecCache);
        self.exec_cache.lock().get(&key).cloned()
    }

    /// Memoize an executor structure derived from the given committed
    /// snapshots. Inserting a structure for a newer snapshot evicts every
    /// entry that only covers older ones.
    pub fn exec_cache_put(
        &self,
        kind: &str,
        ssids: &[SnapshotId],
        slice: u32,
        cols: &[usize],
        value: ExecCached,
    ) {
        let key = ExecCacheKey {
            kind: kind.to_string(),
            ssids: ssids.to_vec(),
            slice,
            cols: cols.to_vec(),
        };
        let newest = ssids.iter().copied().max();
        let _lo = lockorder::acquired(LockClass::ExecCache);
        let mut cache = self.exec_cache.lock();
        if let Some(newest) = newest {
            cache.retain(|k, _| k.ssids.iter().copied().max() >= Some(newest));
        }
        cache.insert(key, value);
    }

    /// Drop every memoized structure derived from a snapshot id for which
    /// `dead` holds — called when those ids stop being readable (prune,
    /// discard) so the cache can never outlive the data it mirrors.
    fn exec_cache_purge(&self, dead: impl Fn(SnapshotId) -> bool) {
        let _lo = lockorder::acquired(LockClass::ExecCache);
        self.exec_cache
            .lock()
            .retain(|k, _| !k.ssids.iter().any(|&s| dead(s)));
    }

    /// Wire this store into `registry`: operation counters and latency
    /// histograms labelled `store=<name>`.
    pub fn attach_telemetry(&self, registry: &MetricsRegistry) {
        let labels = [("store", self.name.as_str())];
        *self.telemetry.write() = Some(Arc::new(StoreTelemetry {
            writes: registry.counter("snapshot_writes_total", &labels),
            reads: registry.counter("snapshot_reads_total", &labels),
            scans: registry.counter("snapshot_scans_total", &labels),
            write_us: registry.histogram("snapshot_write_us", &labels),
            read_us: registry.histogram("snapshot_read_us", &labels),
            scan_us: registry.histogram("snapshot_scan_us", &labels),
        }));
    }

    fn telemetry(&self) -> Option<Arc<StoreTelemetry>> {
        self.telemetry.read().clone()
    }

    /// The store's table name (`snapshot_<operator>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register the state-object schema for SQL exposure.
    pub fn set_value_schema(&self, schema: Arc<Schema>) {
        *self.value_schema.write() = Some(schema);
    }

    /// The registered state-object schema, if any.
    pub fn value_schema(&self) -> Option<Arc<Schema>> {
        self.value_schema.read().clone()
    }

    /// The partition that owns `key` (same partitioner as the live map).
    pub fn partition_of(&self, key: &Value) -> PartitionId {
        self.partitioner.partition_of(key)
    }

    /// Number of partitions (partition-parallel scans slice on this).
    pub fn partition_count(&self) -> u32 {
        self.partitioner.partition_count()
    }

    /// Phase-1 write: store one partition's entries for checkpoint `ssid`.
    ///
    /// `full` marks a complete view; otherwise the entries are a delta
    /// against the previous checkpoint, with `None` tombstoning removals.
    /// Writing the same `(ssid, partition)` twice replaces the first attempt
    /// (coordinator retry).
    pub fn write_partition(
        &self,
        ssid: SnapshotId,
        pid: PartitionId,
        entries: Vec<(Value, Option<Value>)>,
        full: bool,
    ) {
        let tel = self.telemetry();
        let start = tel.as_ref().map(|_| Instant::now());
        if let Some(wal) = self.wal.get() {
            // Durable record first, in-memory version map second: a kill
            // between the two costs nothing (the round is unsealed either
            // way). A WAL write error is fail-stop — continuing would let
            // the disk silently fall behind the commit point.
            wal.append(ssid.0, pid.0, full, &entries)
                .expect("WAL phase-1 append failed");
        }
        self.insert_version(ssid.0, pid.0, VersionMap::new(full, entries));
        if let (Some(t), Some(s)) = (tel.as_ref(), start) {
            t.writes.inc();
            t.write_us.record(s.elapsed().as_micros() as u64);
        }
    }

    /// Install one version, replacing any earlier attempt at the same
    /// `(ssid, partition)`, and keep the store byte total exact.
    fn insert_version(&self, ssid: u64, pid: u32, vm: VersionMap) {
        let bytes = vm.bytes;
        let _lo = lockorder::acquired(LockClass::SnapshotPartition);
        let mut part = self.parts[pid as usize].write();
        if let Some(old) = part.versions.insert(ssid, vm) {
            self.approx_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.approx_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Erase an aborted checkpoint attempt everywhere.
    pub fn discard(&self, ssid: SnapshotId) {
        for part in &self.parts {
            let _lo = lockorder::acquired(LockClass::SnapshotPartition);
            let mut guard = part.write();
            if let Some(old) = guard.versions.remove(&ssid.0) {
                self.approx_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            }
        }
        if let Some(wal) = self.wal.get() {
            wal.discard(ssid.0);
        }
        self.exec_cache_purge(|s| s == ssid);
    }

    /// Load one recovered version directly into the partition map,
    /// bypassing the WAL (the record being loaded came *from* the WAL).
    pub fn load_recovered(
        &self,
        ssid: u64,
        pid: u32,
        full: bool,
        entries: Vec<(Value, Option<Value>)>,
    ) {
        self.insert_version(ssid, pid, VersionMap::new(full, entries));
    }

    /// Record that recovery restored nothing below `min_sealed`: reads
    /// under it report the same pruned error a live prune would produce.
    pub fn note_recovered_floor(&self, min_sealed: u64) {
        self.pruned_below.fetch_max(min_sealed, Ordering::AcqRel);
    }

    /// Point read of `key` as of snapshot `ssid`.
    ///
    /// Walks version maps newest-first starting at `ssid`; the first map
    /// mentioning the key decides (tombstone ⇒ `None`); a full map terminates
    /// the walk.
    pub fn read_at(&self, ssid: SnapshotId, key: &Value) -> SqResult<Option<Value>> {
        self.check_not_pruned(ssid)?;
        let tel = self.telemetry();
        let start = tel.as_ref().map(|_| Instant::now());
        let out = (|| {
            let _lo = lockorder::acquired(LockClass::SnapshotPartition);
            let part = self.parts[self.partition_of(key).0 as usize].read();
            for (_, vm) in part.versions.range(..=ssid.0).rev() {
                if let Some(v) = vm.entries.get(key) {
                    return v.clone();
                }
                if vm.full {
                    return None;
                }
            }
            None
        })();
        if let (Some(t), Some(s)) = (tel.as_ref(), start) {
            t.reads.inc();
            t.read_us.record(s.elapsed().as_micros() as u64);
        }
        Ok(out)
    }

    /// Scan the complete state as of snapshot `ssid`.
    ///
    /// This is the differential read of §VI-A: per partition, walk versions
    /// newest-first from `ssid`, keep the first occurrence of each key, stop
    /// at a full map. The second element of the return is the number of
    /// version maps consulted (the "chain length" the incremental-vs-full
    /// experiments report).
    pub fn scan_at(&self, ssid: SnapshotId) -> SqResult<(Vec<(Value, Value)>, usize)> {
        self.check_not_pruned(ssid)?;
        let tel = self.telemetry();
        let start = tel.as_ref().map(|_| Instant::now());
        let mut out = Vec::new();
        let mut maps_consulted = 0usize;
        for part in &self.parts {
            let _lo = lockorder::acquired(LockClass::SnapshotPartition);
            maps_consulted += part
                .read()
                .resolve(ssid.0, |k, v| out.push((k.clone(), v.clone())));
        }
        if let (Some(t), Some(s)) = (tel.as_ref(), start) {
            t.scans.inc();
            t.scan_us.record(s.elapsed().as_micros() as u64);
        }
        Ok((out, maps_consulted))
    }

    /// Scan one partition's state as of `ssid` (used by recovery, which
    /// restores each operator instance's partitions independently).
    pub fn scan_partition_at(
        &self,
        ssid: SnapshotId,
        pid: PartitionId,
    ) -> SqResult<Vec<(Value, Value)>> {
        self.check_not_pruned(ssid)?;
        let mut out = Vec::new();
        self.parts[pid.0 as usize]
            .read()
            .resolve(ssid.0, |k, v| out.push((k.clone(), v.clone())));
        Ok(out)
    }

    /// Streaming variant of [`scan_partition_at`](Self::scan_partition_at):
    /// resolves the partition's view as of `ssid` and hands each live
    /// `(key, value)` to `f` by reference, without materializing an entry
    /// vector. Visit order is identical to `scan_partition_at` on the same
    /// store (both run the same walk), which columnar scans rely on for
    /// row-order equivalence.
    pub fn for_each_partition_at(
        &self,
        ssid: SnapshotId,
        pid: PartitionId,
        f: impl FnMut(&Value, &Value),
    ) -> SqResult<()> {
        self.check_not_pruned(ssid)?;
        self.parts[pid.0 as usize].read().resolve(ssid.0, f);
        Ok(())
    }

    /// Every `(ssid, key, value)` across a set of committed snapshot ids,
    /// each id fully resolved. Powers SQL scans of `snapshot_<op>` without an
    /// `ssid` predicate ("a result set can integrate the state of multiple
    /// snapshot versions with explicit mention of each pair's version").
    pub fn scan_versions(&self, ssids: &[SnapshotId]) -> SqResult<Vec<(SnapshotId, Value, Value)>> {
        let mut out = Vec::new();
        for &ssid in ssids {
            let (entries, _) = self.scan_at(ssid)?;
            out.extend(entries.into_iter().map(|(k, v)| (ssid, k, v)));
        }
        Ok(out)
    }

    /// Distinct snapshot ids currently stored, ascending.
    pub fn stored_ssids(&self) -> Vec<SnapshotId> {
        let mut ids: Vec<u64> = Vec::new();
        for part in &self.parts {
            for id in part.read().versions.keys() {
                if !ids.contains(id) {
                    ids.push(*id);
                }
            }
        }
        ids.sort_unstable();
        ids.into_iter().map(SnapshotId).collect()
    }

    /// Fold every version at or below `oldest_retained` into a single
    /// complete base at `oldest_retained`.
    ///
    /// Per partition the fold starts from the newest *full* version at or
    /// below the horizon (the oldest version, on a delta-only chain), drops
    /// every older version — a full map already hides them from every read
    /// at or above it — and applies the newer deltas to that base in place,
    /// oldest → newest, dropping tombstones. A full-snapshot commit thus
    /// does no per-key work and an incremental one O(delta) work.
    ///
    /// Afterwards, reads at ids below `oldest_retained` fail with
    /// [`SqError::NotFound`]; reads at or above it are unaffected. This is
    /// the paper's pruning of obsolete states, bounding both snapshot memory
    /// and the differential-read chain length.
    pub fn prune_below(&self, oldest_retained: SnapshotId) {
        let horizon = oldest_retained.0;
        for part in &self.parts {
            let mut guard = part.write();
            let ids: Vec<u64> = guard
                .versions
                .range(..=horizon)
                .map(|(id, _)| *id)
                .collect();
            if ids.is_empty() {
                continue;
            }
            let base_at = ids
                .iter()
                .rposition(|id| guard.versions[id].full)
                .unwrap_or(0);
            let mut freed = 0u64;
            for id in &ids[..base_at] {
                freed += guard.versions.remove(id).expect("id listed above").bytes;
            }
            let mut base = guard
                .versions
                .remove(&ids[base_at])
                .expect("id listed above");
            freed += base.bytes;
            if !base.full {
                // Nothing lies below the oldest delta: its tombstones hide
                // nothing, and in a complete base absent means removed.
                base.drop_tombstones();
            }
            for id in &ids[base_at + 1..] {
                let delta = guard.versions.remove(id).expect("id listed above");
                freed += delta.bytes;
                for (k, v) in delta.entries {
                    match v {
                        Some(v) => base.insert(k, Some(v)),
                        None => {
                            base.remove(&k);
                        }
                    }
                }
            }
            base.full = true;
            self.approx_bytes.fetch_add(base.bytes, Ordering::Relaxed);
            self.approx_bytes.fetch_sub(freed, Ordering::Relaxed);
            // A lone version keeps its id; a fold lands on the horizon.
            let at = if ids.len() == 1 { ids[0] } else { horizon };
            guard.versions.insert(at, base);
        }
        self.pruned_below
            .fetch_max(oldest_retained.0, Ordering::AcqRel);
        if let Some(wal) = self.wal.get() {
            // Retention on disk follows retention in memory: fold segments
            // whose stale-version count passed the configured threshold.
            wal.maybe_compact(oldest_retained.0)
                .expect("WAL compaction failed");
        }
        self.exec_cache_purge(|s| s < oldest_retained);
    }

    /// Physically remove every stored version of `key` (right-to-erasure
    /// support, paper §III "Auditing and Compliance": organizations "need to
    /// provide even their internal state on request" — and, under GDPR
    /// article 17, to erase it). Returns how many stored entries were
    /// removed. The key simply stops existing at every retained snapshot id.
    pub fn erase_key(&self, key: &Value) -> usize {
        let mut part = self.parts[self.partition_of(key).0 as usize].write();
        let mut removed = 0;
        for vm in part.versions.values_mut() {
            let before = vm.bytes;
            if vm.remove(key).is_some() {
                self.approx_bytes
                    .fetch_sub(before - vm.bytes, Ordering::Relaxed);
                removed += 1;
            }
        }
        drop(part);
        // Erasure rewrites history in place, so every memoized structure may
        // still carry the key — drop them all.
        if removed > 0 {
            self.exec_cache_purge(|_| true);
        }
        removed
    }

    /// Resolved per-partition `(rows, bytes)` as of snapshot `ssid`: exactly
    /// what a scan at that id would return from each partition, including
    /// the backward differential walk. Backs `sys_partitions` rows for
    /// snapshot tables.
    pub fn resolved_partition_stats(&self, ssid: SnapshotId) -> SqResult<Vec<(u64, u64)>> {
        self.check_not_pruned(ssid)?;
        let mut out = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let _lo = lockorder::acquired(LockClass::SnapshotPartition);
            let (mut rows, mut bytes) = (0u64, 0u64);
            part.read().resolve(ssid.0, |k, v| {
                rows += 1;
                bytes += entry_bytes(k, Some(v));
            });
            out.push((rows, bytes));
        }
        Ok(out)
    }

    /// Per-version statistics: `(ssid, stored entries, approx bytes)` for
    /// every snapshot id currently held, ascending. Backs the `sys_snapshots`
    /// system table.
    pub fn version_stats(&self) -> Vec<(SnapshotId, usize, u64)> {
        let mut per_ssid: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for part in &self.parts {
            let guard = part.read();
            for (id, vm) in guard.versions.iter() {
                let slot = per_ssid.entry(*id).or_insert((0, 0));
                slot.0 += vm.entries.len();
                slot.1 += vm.bytes;
            }
        }
        per_ssid
            .into_iter()
            .map(|(id, (entries, bytes))| (SnapshotId(id), entries, bytes))
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SnapshotStats {
        let mut stored_entries = 0usize;
        let mut ids: Vec<u64> = Vec::new();
        for part in &self.parts {
            let guard = part.read();
            for (id, vm) in guard.versions.iter() {
                stored_entries += vm.entries.len();
                if !ids.contains(id) {
                    ids.push(*id);
                }
            }
        }
        SnapshotStats {
            retained_versions: ids.len(),
            stored_entries,
            approx_bytes: self.approx_bytes.load(Ordering::Relaxed) as usize,
        }
    }

    fn check_not_pruned(&self, ssid: SnapshotId) -> SqResult<()> {
        let floor = self.pruned_below.load(Ordering::Acquire);
        if ssid.0 < floor {
            return Err(SqError::NotFound(format!(
                "snapshot {ssid} of {} was pruned (oldest retained: ss{floor})",
                self.name
            )));
        }
        Ok(())
    }
}

fn entry_bytes(key: &Value, value: Option<&Value>) -> u64 {
    (encoded_len(key) + value.map(encoded_len).unwrap_or(1) + 8) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SnapshotStore {
        SnapshotStore::new("orders", Partitioner::new(8))
    }

    /// Write `entries` routed to their correct partitions.
    fn write_all(s: &SnapshotStore, ssid: u64, entries: Vec<(Value, Option<Value>)>, full: bool) {
        let mut by_pid: HashMap<u32, Vec<(Value, Option<Value>)>> = HashMap::new();
        for (k, v) in entries {
            by_pid.entry(s.partition_of(&k).0).or_default().push((k, v));
        }
        // Even partitions not touched get an (empty) write in full mode so the
        // version exists everywhere — mirrors what operator instances do.
        for pid in 0..8 {
            let e = by_pid.remove(&pid).unwrap_or_default();
            s.write_partition(SnapshotId(ssid), PartitionId(pid), e, full);
        }
    }

    #[test]
    fn named_after_operator() {
        assert_eq!(store().name(), "snapshot_orders");
    }

    #[test]
    fn full_snapshots_read_their_own_version() {
        let s = store();
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(20)))], true);
        assert_eq!(
            s.read_at(SnapshotId(1), &Value::Int(1)).unwrap(),
            Some(Value::Int(10))
        );
        assert_eq!(
            s.read_at(SnapshotId(2), &Value::Int(1)).unwrap(),
            Some(Value::Int(20))
        );
    }

    #[test]
    fn full_map_terminates_backward_walk() {
        let s = store();
        // Key 2 exists only in the (full) version 1; version 2 is also full
        // and omits it, so at ssid 2 the key is gone.
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(99))),
            ],
            true,
        );
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(11)))], true);
        assert_eq!(s.read_at(SnapshotId(2), &Value::Int(2)).unwrap(), None);
        assert_eq!(
            s.read_at(SnapshotId(1), &Value::Int(2)).unwrap(),
            Some(Value::Int(99))
        );
    }

    #[test]
    fn incremental_walks_backwards_for_untouched_keys() {
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
            ],
            true, // first checkpoint is always complete
        );
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(11)))], false);
        write_all(&s, 3, vec![(Value::Int(1), Some(Value::Int(12)))], false);
        // Key 2 untouched since ssid 1: resolves through the chain.
        assert_eq!(
            s.read_at(SnapshotId(3), &Value::Int(2)).unwrap(),
            Some(Value::Int(20))
        );
        assert_eq!(
            s.read_at(SnapshotId(3), &Value::Int(1)).unwrap(),
            Some(Value::Int(12))
        );
        assert_eq!(
            s.read_at(SnapshotId(2), &Value::Int(1)).unwrap(),
            Some(Value::Int(11))
        );
    }

    #[test]
    fn tombstones_delete_in_deltas() {
        let s = store();
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        write_all(&s, 2, vec![(Value::Int(1), None)], false);
        assert_eq!(s.read_at(SnapshotId(2), &Value::Int(1)).unwrap(), None);
        assert_eq!(
            s.read_at(SnapshotId(1), &Value::Int(1)).unwrap(),
            Some(Value::Int(10))
        );
        let (scan, _) = s.scan_at(SnapshotId(2)).unwrap();
        assert!(scan.is_empty());
    }

    #[test]
    fn scan_at_resolves_differentially() {
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
                (Value::Int(3), Some(Value::Int(30))),
            ],
            true,
        );
        write_all(
            &s,
            2,
            vec![(Value::Int(2), Some(Value::Int(21))), (Value::Int(3), None)],
            false,
        );
        let (mut scan, consulted) = s.scan_at(SnapshotId(2)).unwrap();
        scan.sort();
        assert_eq!(
            scan,
            vec![
                (Value::Int(1), Value::Int(10)),
                (Value::Int(2), Value::Int(21)),
            ]
        );
        assert!(consulted >= 8, "walked both versions across partitions");
    }

    #[test]
    fn unknown_ssid_scans_resolve_to_older_state() {
        // Querying a not-yet-written ssid resolves to the newest available
        // (callers gate on the registry's committed id; the store is lenient).
        let s = store();
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        assert_eq!(
            s.read_at(SnapshotId(5), &Value::Int(1)).unwrap(),
            Some(Value::Int(10))
        );
    }

    #[test]
    fn discard_erases_aborted_attempt() {
        let s = store();
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(99)))], false);
        s.discard(SnapshotId(2));
        assert_eq!(
            s.read_at(SnapshotId(2), &Value::Int(1)).unwrap(),
            Some(Value::Int(10)),
            "aborted write must not be visible"
        );
        assert_eq!(s.stored_ssids(), vec![SnapshotId(1)]);
    }

    #[test]
    fn prune_folds_deltas_into_base() {
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
            ],
            true,
        );
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(11)))], false);
        write_all(&s, 3, vec![(Value::Int(2), None)], false);
        write_all(&s, 4, vec![(Value::Int(1), Some(Value::Int(12)))], false);
        s.prune_below(SnapshotId(3));
        // ssid 3 must still resolve exactly as before pruning.
        assert_eq!(
            s.read_at(SnapshotId(3), &Value::Int(1)).unwrap(),
            Some(Value::Int(11))
        );
        assert_eq!(s.read_at(SnapshotId(3), &Value::Int(2)).unwrap(), None);
        assert_eq!(
            s.read_at(SnapshotId(4), &Value::Int(1)).unwrap(),
            Some(Value::Int(12))
        );
        // Below the horizon: gone.
        assert!(matches!(
            s.read_at(SnapshotId(2), &Value::Int(1)),
            Err(SqError::NotFound(_))
        ));
        assert!(matches!(
            s.scan_at(SnapshotId(1)),
            Err(SqError::NotFound(_))
        ));
        // Only two ids remain: the folded base (3) and the delta (4).
        assert_eq!(s.stored_ssids(), vec![SnapshotId(3), SnapshotId(4)]);
    }

    /// Each version's cached bytes and entry count equal a recomputation
    /// over its entries, and the store total equals their sum.
    fn assert_stats_exact(s: &SnapshotStore) {
        let mut per_ssid: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for part in &s.parts {
            for (id, vm) in part.read().versions.iter() {
                let bytes: u64 = vm
                    .entries
                    .iter()
                    .map(|(k, v)| entry_bytes(k, v.as_ref()))
                    .sum();
                assert_eq!(vm.bytes, bytes, "cached bytes of version {id}");
                let slot = per_ssid.entry(*id).or_default();
                slot.0 += vm.entries.len();
                slot.1 += bytes;
            }
        }
        let expected: Vec<(SnapshotId, usize, u64)> = per_ssid
            .iter()
            .map(|(id, (n, b))| (SnapshotId(*id), *n, *b))
            .collect();
        assert_eq!(s.version_stats(), expected);
        let total: u64 = per_ssid.values().map(|(_, b)| b).sum();
        assert_eq!(s.stats().approx_bytes as u64, total);
        let entries: usize = per_ssid.values().map(|(n, _)| n).sum();
        assert_eq!(s.stats().stored_entries, entries);
    }

    #[test]
    fn version_statistics_stay_exact_across_every_mutation() {
        let s = store();
        let v = |i: i64| Some(Value::str(format!("value-{i}")));
        write_all(
            &s,
            1,
            (0..20).map(|k| (Value::Int(k), v(k))).collect(),
            true,
        );
        assert_stats_exact(&s);
        // Same-(ssid, partition) retry replaces, with a different size.
        let pid = s.partition_of(&Value::Int(3));
        s.write_partition(
            SnapshotId(1),
            pid,
            vec![(
                Value::Int(3),
                Some(Value::str("a much longer retried value")),
            )],
            true,
        );
        assert_stats_exact(&s);
        // Incremental chain with tombstones, plus a duplicate key in one
        // write (the later entry wins).
        write_all(
            &s,
            2,
            vec![
                (Value::Int(1), None),
                (Value::Int(2), v(200)),
                (Value::Int(2), v(2)),
            ],
            false,
        );
        write_all(
            &s,
            3,
            vec![(Value::Int(2), None), (Value::Int(4), v(44))],
            false,
        );
        write_all(&s, 4, vec![(Value::Int(5), v(55))], false);
        assert_stats_exact(&s);
        s.discard(SnapshotId(4));
        assert_stats_exact(&s);
        s.prune_below(SnapshotId(2));
        assert_stats_exact(&s);
        // A later full version, then a prune that folds onto it.
        write_all(
            &s,
            5,
            (0..10).map(|k| (Value::Int(k), v(k + 5))).collect(),
            true,
        );
        write_all(&s, 6, vec![(Value::Int(0), None)], false);
        s.prune_below(SnapshotId(6));
        assert_stats_exact(&s);
        assert_eq!(s.erase_key(&Value::Int(7)), 1);
        assert_stats_exact(&s);
        // Recovery loads, including a replace of a loaded version.
        let r = store();
        r.load_recovered(
            4,
            0,
            false,
            vec![(Value::Int(8), v(8)), (Value::Int(9), None)],
        );
        r.load_recovered(5, 0, false, vec![(Value::Int(8), None)]);
        r.load_recovered(5, 0, false, vec![(Value::Int(10), v(10))]);
        assert_stats_exact(&r);
        r.note_recovered_floor(4);
        r.prune_below(SnapshotId(5));
        assert_stats_exact(&r);
    }

    /// A tiny deterministic generator (SplitMix64) for the seeded chains.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn sorted_scan(s: &SnapshotStore, ssid: u64) -> Vec<(Value, Value)> {
        let (mut rows, _) = s.scan_at(SnapshotId(ssid)).unwrap();
        rows.sort();
        rows
    }

    /// Seeded random chains mixing full and delta versions: pruning at any
    /// horizon leaves the resolved state at every ssid at or above it
    /// identical, and the statistics exact.
    #[test]
    fn prune_preserves_resolved_state_on_random_chains() {
        for seed in 0..40u64 {
            let mut rng = Rng(seed);
            let s = store();
            // Odd seeds start from a delta-only chain below a recovered floor
            // (what a cold start restores when the base was compacted away).
            let recovered = seed % 2 == 1;
            let mut model: BTreeMap<i64, i64> = BTreeMap::new();
            let versions = 4 + rng.below(8);
            for ssid in 1..=versions {
                let full = !(recovered && ssid <= 2) && (ssid == 1 || rng.below(3) == 0);
                let mut delta: Vec<(Value, Option<Value>)> = Vec::new();
                for _ in 0..rng.below(12) {
                    let k = rng.below(30) as i64;
                    if rng.below(4) == 0 {
                        model.remove(&k);
                        delta.push((Value::Int(k), None));
                    } else {
                        let val = rng.below(1000) as i64;
                        model.insert(k, val);
                        delta.push((Value::Int(k), Some(Value::Int(val))));
                    }
                }
                let entries = if full {
                    model
                        .iter()
                        .map(|(k, v)| (Value::Int(*k), Some(Value::Int(*v))))
                        .collect()
                } else {
                    delta
                };
                if recovered && ssid <= 2 {
                    let mut by_pid: HashMap<u32, Vec<(Value, Option<Value>)>> = HashMap::new();
                    for (k, v) in entries {
                        by_pid.entry(s.partition_of(&k).0).or_default().push((k, v));
                    }
                    for (pid, e) in by_pid {
                        s.load_recovered(ssid, pid, false, e);
                    }
                } else {
                    write_all(&s, ssid, entries, full);
                }
            }
            if recovered {
                s.note_recovered_floor(1);
            }
            let mut horizon = 1 + rng.below(versions);
            for _ in 0..2 {
                let before: Vec<_> = (horizon..=versions).map(|id| sorted_scan(&s, id)).collect();
                s.prune_below(SnapshotId(horizon));
                let after: Vec<_> = (horizon..=versions).map(|id| sorted_scan(&s, id)).collect();
                assert_eq!(before, after, "seed {seed}, horizon {horizon}");
                assert_stats_exact(&s);
                if horizon > 1 {
                    assert!(s.scan_at(SnapshotId(horizon - 1)).is_err());
                }
                horizon += rng.below(versions - horizon + 1);
            }
            // The newest version resolves to the model's final state.
            let expected: Vec<(Value, Value)> = model
                .iter()
                .map(|(k, v)| (Value::Int(*k), Value::Int(*v)))
                .collect();
            assert_eq!(sorted_scan(&s, versions), expected, "seed {seed}");
        }
    }

    #[test]
    fn prune_drops_keys_a_later_full_version_removed() {
        // Full mode: key 2 exists at ssid 1 only; the full ssid 2 omits it.
        // Folding must start from the newest full version, not resurrect it.
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
            ],
            true,
        );
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(11)))], true);
        write_all(&s, 3, vec![(Value::Int(1), Some(Value::Int(12)))], true);
        s.prune_below(SnapshotId(3));
        assert_eq!(s.read_at(SnapshotId(3), &Value::Int(2)).unwrap(), None);
        assert_eq!(sorted_scan(&s, 3), vec![(Value::Int(1), Value::Int(12))]);
        assert_stats_exact(&s);
    }

    #[test]
    fn prune_marks_single_survivor_as_base() {
        let s = store();
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        write_all(&s, 2, vec![(Value::Int(2), Some(Value::Int(20)))], false);
        s.prune_below(SnapshotId(2));
        // After folding, a scan at 2 must still see both keys.
        let (mut scan, _) = s.scan_at(SnapshotId(2)).unwrap();
        scan.sort();
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn scan_versions_labels_rows_with_their_ssid() {
        let s = store();
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(11)))], false);
        let rows = s.scan_versions(&[SnapshotId(1), SnapshotId(2)]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&(SnapshotId(1), Value::Int(1), Value::Int(10))));
        assert!(rows.contains(&(SnapshotId(2), Value::Int(1), Value::Int(11))));
    }

    #[test]
    fn stats_track_entries_and_bytes() {
        let s = store();
        assert_eq!(s.stats().stored_entries, 0);
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
            ],
            true,
        );
        let st = s.stats();
        assert_eq!(st.retained_versions, 1);
        assert_eq!(st.stored_entries, 2);
        assert!(st.approx_bytes > 0);
        write_all(&s, 2, vec![(Value::Int(1), None)], false);
        assert_eq!(s.stats().retained_versions, 2);
        assert_eq!(s.stats().stored_entries, 3);
    }

    #[test]
    fn version_stats_report_per_ssid_entries_and_bytes() {
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
            ],
            true,
        );
        write_all(&s, 2, vec![(Value::Int(1), None)], false);
        let stats = s.version_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].0, stats[0].1), (SnapshotId(1), 2));
        assert_eq!((stats[1].0, stats[1].1), (SnapshotId(2), 1));
        assert!(stats[0].2 > 0);
        let total: u64 = stats.iter().map(|(_, _, b)| *b).sum();
        assert_eq!(total as usize, s.stats().approx_bytes);
    }

    #[test]
    fn resolved_partition_stats_match_scans() {
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
                (Value::Int(3), Some(Value::Int(30))),
            ],
            true,
        );
        write_all(
            &s,
            2,
            vec![(Value::Int(2), Some(Value::Int(21))), (Value::Int(3), None)],
            false,
        );
        for ssid in [1u64, 2] {
            let stats = s.resolved_partition_stats(SnapshotId(ssid)).unwrap();
            assert_eq!(stats.len(), 8);
            let (scan, _) = s.scan_at(SnapshotId(ssid)).unwrap();
            assert_eq!(
                stats.iter().map(|(r, _)| r).sum::<u64>(),
                scan.len() as u64,
                "ssid {ssid} totals"
            );
            // Per partition, rows match the per-partition resolved scan.
            for (pid, (rows, bytes)) in stats.iter().enumerate() {
                let part = s
                    .scan_partition_at(SnapshotId(ssid), PartitionId(pid as u32))
                    .unwrap();
                assert_eq!(*rows, part.len() as u64);
                if part.is_empty() {
                    assert_eq!(*bytes, 0);
                }
            }
        }
        s.prune_below(SnapshotId(2));
        assert!(s.resolved_partition_stats(SnapshotId(1)).is_err());
    }

    #[test]
    fn attached_telemetry_counts_store_operations() {
        use squery_common::telemetry::MetricsRegistry;
        let s = store();
        let reg = MetricsRegistry::new();
        s.attach_telemetry(&reg);
        write_all(&s, 1, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        s.read_at(SnapshotId(1), &Value::Int(1)).unwrap();
        s.scan_at(SnapshotId(1)).unwrap();
        let l = [("store", "snapshot_orders")];
        assert_eq!(reg.counter_value("snapshot_writes_total", &l), Some(8));
        assert_eq!(reg.counter_value("snapshot_reads_total", &l), Some(1));
        assert_eq!(reg.counter_value("snapshot_scans_total", &l), Some(1));
    }

    #[test]
    fn erase_key_removes_every_version() {
        let s = store();
        write_all(
            &s,
            1,
            vec![
                (Value::Int(1), Some(Value::Int(10))),
                (Value::Int(2), Some(Value::Int(20))),
            ],
            true,
        );
        write_all(&s, 2, vec![(Value::Int(1), Some(Value::Int(11)))], false);
        let removed = s.erase_key(&Value::Int(1));
        assert_eq!(removed, 2, "both stored versions physically removed");
        assert_eq!(s.read_at(SnapshotId(1), &Value::Int(1)).unwrap(), None);
        assert_eq!(s.read_at(SnapshotId(2), &Value::Int(1)).unwrap(), None);
        // Other keys untouched.
        assert_eq!(
            s.read_at(SnapshotId(2), &Value::Int(2)).unwrap(),
            Some(Value::Int(20))
        );
        assert_eq!(s.erase_key(&Value::Int(99)), 0);
    }

    #[test]
    fn rewriting_same_ssid_replaces() {
        let s = store();
        let pid = s.partition_of(&Value::Int(1));
        s.write_partition(
            SnapshotId(1),
            pid,
            vec![(Value::Int(1), Some(Value::Int(10)))],
            true,
        );
        s.write_partition(
            SnapshotId(1),
            pid,
            vec![(Value::Int(1), Some(Value::Int(77)))],
            true,
        );
        assert_eq!(
            s.read_at(SnapshotId(1), &Value::Int(1)).unwrap(),
            Some(Value::Int(77))
        );
        assert_eq!(s.stats().stored_entries, 1);
    }

    #[test]
    fn exec_cache_roundtrip_and_newer_snapshot_evicts() {
        let s = store();
        let v1: ExecCached = Arc::new(vec![1u64, 2, 3]);
        s.exec_cache_put("batches", &[SnapshotId(1)], 0, &[0, 2], v1);
        let hit = s
            .exec_cache_get("batches", &[SnapshotId(1)], 0, &[0, 2])
            .expect("cached");
        assert_eq!(*hit.downcast::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        // Different kind / slice / cols are distinct entries.
        assert!(s
            .exec_cache_get("join_table", &[SnapshotId(1)], 0, &[0, 2])
            .is_none());
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(1)], 1, &[0, 2])
            .is_none());
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(1)], 0, &[0])
            .is_none());
        // Repeated inserts for one snapshot (a cold scan's per-slice
        // batches) keep every entry.
        for slice in 1..50 {
            s.exec_cache_put("batches", &[SnapshotId(1)], slice, &[0, 2], Arc::new(0u8));
        }
        for slice in 0..50 {
            assert!(s
                .exec_cache_get("batches", &[SnapshotId(1)], slice, &[0, 2])
                .is_some());
        }
        // A newer snapshot's insert evicts the older snapshot's entries.
        s.exec_cache_put("batches", &[SnapshotId(2)], 0, &[0, 2], Arc::new(0u8));
        for slice in 0..50 {
            assert!(s
                .exec_cache_get("batches", &[SnapshotId(1)], slice, &[0, 2])
                .is_none());
        }
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(2)], 0, &[0, 2])
            .is_some());
        // An older snapshot's entry sits beside the newer ones until a
        // snapshot newer than it arrives.
        s.exec_cache_put("batches", &[SnapshotId(1)], 7, &[0], Arc::new(0u8));
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(1)], 7, &[0])
            .is_some());
        s.exec_cache_put("batches", &[SnapshotId(2)], 1, &[0, 2], Arc::new(0u8));
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(1)], 7, &[0])
            .is_none());
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(2)], 0, &[0, 2])
            .is_some());
    }

    #[test]
    fn exec_cache_purged_by_prune_discard_and_erase() {
        let s = store();
        s.exec_cache_put("batches", &[SnapshotId(3)], 0, &[0], Arc::new(0u8));
        s.exec_cache_put("batches", &[SnapshotId(5)], 0, &[0], Arc::new(0u8));
        s.prune_below(SnapshotId(5));
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(3)], 0, &[0])
            .is_none());
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(5)], 0, &[0])
            .is_some());
        s.discard(SnapshotId(5));
        assert!(s
            .exec_cache_get("batches", &[SnapshotId(5)], 0, &[0])
            .is_none());

        write_all(&s, 7, vec![(Value::Int(1), Some(Value::Int(10)))], true);
        s.exec_cache_put(
            "join_table",
            &[SnapshotId(7)],
            u32::MAX,
            &[0],
            Arc::new(0u8),
        );
        assert_eq!(s.erase_key(&Value::Int(1)), 1);
        assert!(s
            .exec_cache_get("join_table", &[SnapshotId(7)], u32::MAX, &[0])
            .is_none());
    }
}
