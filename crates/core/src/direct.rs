//! The direct object interface (paper Figure 1, §IX-D).
//!
//! Point and multi-key reads against an operator's state without going
//! through SQL — the interface the paper benchmarks against TSpoon in
//! Figure 14. Live reads go straight to the operator's grid map (each access
//! under its key lock); snapshot reads resolve a committed snapshot id at
//! the registry and read the immutable version data. A multi-key read on a
//! handle with a degree above 1 fans its partition groups out over the
//! system's one worker pool (`squery_common::morsel`); at degree 1 it reads
//! the keys in a plain loop on the caller's thread.

use squery_common::config::Parallelism;
use squery_common::morsel::claim_units;
use squery_common::{SnapshotId, SqError, SqResult, Value};
use squery_storage::Grid;
use std::sync::Arc;

/// Which state a direct read observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateView {
    /// The running live state (read uncommitted / read committed, §VII-B).
    Live,
    /// The latest committed snapshot at call time (serializable).
    LatestSnapshot,
    /// A specific committed snapshot (serializable; errors if pruned).
    Snapshot(SnapshotId),
}

/// Handle for direct object queries against a grid.
#[derive(Clone)]
pub struct DirectQuery {
    grid: Arc<Grid>,
    parallelism: Parallelism,
}

impl DirectQuery {
    /// A direct-query handle over `grid` (sequential reads).
    pub fn new(grid: Arc<Grid>) -> DirectQuery {
        DirectQuery {
            grid,
            parallelism: Parallelism::sequential(),
        }
    }

    /// The same handle with multi-key reads fanning out over the worker
    /// pool, one claimable unit per grid partition.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> DirectQuery {
        self.parallelism = parallelism;
        self
    }

    fn resolve(&self, view: StateView) -> SqResult<Option<SnapshotId>> {
        match view {
            StateView::Live => Ok(None),
            StateView::LatestSnapshot => Ok(Some(self.grid.registry().resolve_query_ssid(None)?)),
            StateView::Snapshot(ssid) => {
                Ok(Some(self.grid.registry().resolve_query_ssid(Some(ssid))?))
            }
        }
    }

    /// Read one key of `operator`'s state.
    pub fn get(&self, operator: &str, key: &Value, view: StateView) -> SqResult<Option<Value>> {
        match self.resolve(view)? {
            None => {
                let map = self.grid.get_map(operator).ok_or_else(|| {
                    SqError::NotFound(format!("no live state for operator '{operator}'"))
                })?;
                Ok(map.get(key))
            }
            Some(ssid) => {
                let store = self.grid.get_snapshot_store(operator).ok_or_else(|| {
                    SqError::NotFound(format!("no snapshot state for operator '{operator}'"))
                })?;
                store.read_at(ssid, key)
            }
        }
    }

    /// Read several keys in one call; the snapshot id (for snapshot views)
    /// is resolved once, so all keys come from the same version.
    ///
    /// With a parallel handle ([`DirectQuery::with_parallelism`]) the keys
    /// are grouped by grid partition and the worker pool claims one
    /// partition group at a time; results come back in input order either
    /// way.
    pub fn get_many(
        &self,
        operator: &str,
        keys: &[Value],
        view: StateView,
    ) -> SqResult<Vec<(Value, Option<Value>)>> {
        match self.resolve(view)? {
            None => {
                let map = self.grid.get_map(operator).ok_or_else(|| {
                    SqError::NotFound(format!("no live state for operator '{operator}'"))
                })?;
                if self.parallelism.is_parallel() && keys.len() > 1 {
                    self.get_many_parallel(keys, |k| Ok(map.get(k)))
                } else {
                    Ok(map.get_all(keys))
                }
            }
            Some(ssid) => {
                let store = self.grid.get_snapshot_store(operator).ok_or_else(|| {
                    SqError::NotFound(format!("no snapshot state for operator '{operator}'"))
                })?;
                if self.parallelism.is_parallel() && keys.len() > 1 {
                    self.get_many_parallel(keys, |k| store.read_at(ssid, k))
                } else {
                    keys.iter()
                        .map(|k| Ok((k.clone(), store.read_at(ssid, k)?)))
                        .collect()
                }
            }
        }
    }

    /// Partition-grouped fan-out for multi-key reads: group key indices by
    /// grid partition, let the worker pool claim whole groups, and scatter
    /// the values back into input order.
    fn get_many_parallel(
        &self,
        keys: &[Value],
        read: impl Fn(&Value) -> SqResult<Option<Value>> + Sync,
    ) -> SqResult<Vec<(Value, Option<Value>)>> {
        let partitioner = self.grid.partitioner();
        let mut by_partition = vec![Vec::new(); partitioner.partition_count() as usize];
        for (i, key) in keys.iter().enumerate() {
            by_partition[partitioner.partition_of(key).0 as usize].push(i);
        }
        let groups: Vec<Vec<usize>> = by_partition.into_iter().filter(|g| !g.is_empty()).collect();
        let values = claim_units(groups.len(), self.parallelism.degree, |g| {
            groups[g]
                .iter()
                .map(|&i| read(&keys[i]))
                .collect::<SqResult<Vec<_>>>()
        })?;
        let mut out = vec![None; keys.len()];
        for (group, group_values) in groups.iter().zip(values) {
            for (&i, v) in group.iter().zip(group_values) {
                out[i] = v;
            }
        }
        Ok(keys.iter().cloned().zip(out).collect())
    }

    /// Read an operator's complete state (the "total state" retrieval of the
    /// paper's Figure 14 experiment).
    pub fn scan(&self, operator: &str, view: StateView) -> SqResult<Vec<(Value, Value)>> {
        match self.resolve(view)? {
            None => {
                let map = self.grid.get_map(operator).ok_or_else(|| {
                    SqError::NotFound(format!("no live state for operator '{operator}'"))
                })?;
                Ok(map.entries())
            }
            Some(ssid) => {
                let store = self.grid.get_snapshot_store(operator).ok_or_else(|| {
                    SqError::NotFound(format!("no snapshot state for operator '{operator}'"))
                })?;
                Ok(store.scan_at(ssid)?.0)
            }
        }
    }

    /// The latest committed snapshot id, if any.
    pub fn latest_snapshot(&self) -> Option<SnapshotId> {
        let latest = self.grid.registry().latest_committed();
        latest.is_some().then_some(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery_common::PartitionId;

    fn grid_with_state() -> Arc<Grid> {
        let grid = Grid::single_node();
        let live = grid.map("counter");
        live.put(Value::Int(1), Value::Int(5));
        live.put(Value::Int(2), Value::Int(7));
        let store = grid.snapshot_store("counter");
        let ssid = grid.registry().begin().unwrap();
        for pid in 0..grid.partitioner().partition_count() {
            store.write_partition(ssid, PartitionId(pid), vec![], true);
        }
        store.write_partition(
            ssid,
            store.partition_of(&Value::Int(1)),
            vec![(Value::Int(1), Some(Value::Int(4)))],
            true,
        );
        grid.registry().commit(ssid).unwrap();
        grid
    }

    #[test]
    fn live_vs_snapshot_get() {
        let grid = grid_with_state();
        let dq = DirectQuery::new(grid);
        assert_eq!(
            dq.get("counter", &Value::Int(1), StateView::Live).unwrap(),
            Some(Value::Int(5)),
            "live sees the uncommitted value"
        );
        assert_eq!(
            dq.get("counter", &Value::Int(1), StateView::LatestSnapshot)
                .unwrap(),
            Some(Value::Int(4)),
            "snapshot sees the committed value"
        );
        assert_eq!(
            dq.get(
                "counter",
                &Value::Int(1),
                StateView::Snapshot(SnapshotId(1))
            )
            .unwrap(),
            Some(Value::Int(4))
        );
    }

    #[test]
    fn get_many_mixes_hits_and_misses() {
        let grid = grid_with_state();
        let dq = DirectQuery::new(grid);
        let live = dq
            .get_many("counter", &[Value::Int(1), Value::Int(9)], StateView::Live)
            .unwrap();
        assert_eq!(live[0].1, Some(Value::Int(5)));
        assert_eq!(live[1].1, None);
        let snap = dq
            .get_many(
                "counter",
                &[Value::Int(1), Value::Int(2)],
                StateView::LatestSnapshot,
            )
            .unwrap();
        assert_eq!(snap[0].1, Some(Value::Int(4)));
        assert_eq!(snap[1].1, None, "key 2 was not in the snapshot");
    }

    #[test]
    fn scan_views() {
        let grid = grid_with_state();
        let dq = DirectQuery::new(grid);
        assert_eq!(dq.scan("counter", StateView::Live).unwrap().len(), 2);
        assert_eq!(
            dq.scan("counter", StateView::LatestSnapshot).unwrap(),
            vec![(Value::Int(1), Value::Int(4))]
        );
    }

    #[test]
    fn unknown_operator_errors() {
        let dq = DirectQuery::new(grid_with_state());
        assert!(dq.get("nope", &Value::Int(1), StateView::Live).is_err());
        assert!(dq
            .get("nope", &Value::Int(1), StateView::LatestSnapshot)
            .is_err());
        assert!(dq.scan("nope", StateView::Live).is_err());
    }

    #[test]
    fn uncommitted_snapshot_errors() {
        let dq = DirectQuery::new(grid_with_state());
        assert!(dq
            .get(
                "counter",
                &Value::Int(1),
                StateView::Snapshot(SnapshotId(99))
            )
            .is_err());
    }

    #[test]
    fn no_snapshot_committed_yet() {
        let grid = Grid::single_node();
        grid.map("op").put(Value::Int(1), Value::Int(1));
        grid.snapshot_store("op");
        let dq = DirectQuery::new(grid);
        assert!(dq.latest_snapshot().is_none());
        assert!(dq
            .get("op", &Value::Int(1), StateView::LatestSnapshot)
            .is_err());
        assert_eq!(
            dq.get("op", &Value::Int(1), StateView::Live).unwrap(),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn latest_snapshot_reports_id() {
        let dq = DirectQuery::new(grid_with_state());
        assert_eq!(dq.latest_snapshot(), Some(SnapshotId(1)));
    }

    #[test]
    fn parallel_get_many_matches_sequential() {
        use squery_common::config::Parallelism;
        let grid = grid_with_state();
        let sequential = DirectQuery::new(Arc::clone(&grid));
        let parallel = DirectQuery::new(grid).with_parallelism(Parallelism::of(4));
        // Mix of hits and misses, spread across partitions, with a repeat.
        let keys: Vec<Value> = (0..64).map(Value::Int).chain([Value::Int(1)]).collect();
        for view in [StateView::Live, StateView::LatestSnapshot] {
            let a = sequential.get_many("counter", &keys, view).unwrap();
            let b = parallel.get_many("counter", &keys, view).unwrap();
            assert_eq!(a, b, "{view:?}");
        }
        // Errors still surface (pruned/unknown snapshot id).
        assert!(parallel
            .get_many("counter", &keys, StateView::Snapshot(SnapshotId(99)))
            .is_err());
    }
}
