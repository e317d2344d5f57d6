//! Cluster-level configuration shared by storage and streaming.

use crate::error::{SqError, SqResult};
use crate::partition::DEFAULT_PARTITION_COUNT;
use std::time::Duration;

/// Topology and placement of the simulated cluster.
///
/// The paper runs on 7-node AWS clusters (Table III). The reproduction hosts
/// all "nodes" inside one process; a node is a placement domain that owns a
/// contiguous slice of grid partitions and hosts the operator instances whose
/// key ranges map to those partitions (the co-partitioning contract of §V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of simulated nodes.
    pub nodes: u32,
    /// Grid partition count (default 271, like Hazelcast IMDG).
    pub partitions: u32,
    /// Synchronous backup replicas per partition (0 = no replication).
    pub backup_count: u32,
    /// Network model for cross-node traffic.
    pub network: NetworkConfig,
}

impl ClusterConfig {
    /// A single-node cluster with defaults — the standard test setup.
    pub fn single_node() -> ClusterConfig {
        ClusterConfig {
            nodes: 1,
            partitions: DEFAULT_PARTITION_COUNT,
            backup_count: 0,
            network: NetworkConfig::instant(),
        }
    }

    /// An `n`-node cluster with one backup replica and a modelled network,
    /// approximating the paper's AWS setup.
    pub fn simulated(n: u32) -> ClusterConfig {
        ClusterConfig {
            nodes: n,
            partitions: DEFAULT_PARTITION_COUNT,
            backup_count: if n > 1 { 1 } else { 0 },
            network: NetworkConfig::lan(),
        }
    }

    /// Validate invariants; call before building a grid or runtime from it.
    pub fn validate(&self) -> SqResult<()> {
        if self.nodes == 0 {
            return Err(SqError::Config("cluster needs at least one node".into()));
        }
        if self.partitions == 0 {
            return Err(SqError::Config("partition count must be positive".into()));
        }
        if self.partitions < self.nodes {
            return Err(SqError::Config(format!(
                "{} partitions cannot cover {} nodes",
                self.partitions, self.nodes
            )));
        }
        if self.backup_count >= self.nodes && self.backup_count > 0 {
            return Err(SqError::Config(format!(
                "backup_count {} needs more than {} nodes",
                self.backup_count, self.nodes
            )));
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::single_node()
    }
}

/// Default smallest row-chunk a parallel query worker will claim when a
/// table scan has no partition structure to slice on.
pub const DEFAULT_MIN_MORSEL_ROWS: usize = 256;

/// Degree of parallelism for query execution.
///
/// Every degree runs the same morsel loop over partition slices — probe,
/// filter and partial aggregation per slice — on the caller's thread plus
/// `degree - 1` scoped helpers (`crate::morsel`); results are merged
/// deterministically so every degree returns row-for-row identical output
/// (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Workers per query, the caller's thread included (1 = the caller
    /// alone runs every morsel).
    pub degree: usize,
    /// Smallest row chunk claimed per worker for unsliceable scans.
    pub min_morsel_rows: usize,
}

impl Parallelism {
    /// One worker — the default: the morsel loop runs on the caller's
    /// thread and spawns none.
    pub fn sequential() -> Parallelism {
        Parallelism {
            degree: 1,
            min_morsel_rows: DEFAULT_MIN_MORSEL_ROWS,
        }
    }

    /// A fixed degree (clamped to at least 1).
    pub fn of(degree: usize) -> Parallelism {
        Parallelism {
            degree: degree.max(1),
            min_morsel_rows: DEFAULT_MIN_MORSEL_ROWS,
        }
    }

    /// One worker per available core.
    pub fn auto() -> Parallelism {
        Parallelism::of(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Whether this configuration spawns helper workers.
    pub fn is_parallel(&self) -> bool {
        self.degree > 1
    }

    /// Validate invariants.
    pub fn validate(&self) -> SqResult<()> {
        if self.degree == 0 {
            return Err(SqError::Config(
                "parallelism degree must be at least 1".into(),
            ));
        }
        if self.min_morsel_rows == 0 {
            return Err(SqError::Config("min morsel rows must be positive".into()));
        }
        Ok(())
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

/// Cross-node network model.
///
/// The paper's cluster has a 10 Gbit/s network (Table III); remote operations
/// in the reproduction can charge a latency plus a bandwidth-proportional
/// delay so that co-partitioning (local writes) retains its advantage over a
/// naive remote-write design. Tests default to an instant network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// One-way latency charged per remote operation, in microseconds.
    pub latency_us: u64,
    /// Modelled bandwidth in bytes/second (0 = infinite).
    pub bandwidth_bytes_per_sec: u64,
}

impl NetworkConfig {
    /// No delays at all (unit tests, determinism).
    pub fn instant() -> NetworkConfig {
        NetworkConfig {
            latency_us: 0,
            bandwidth_bytes_per_sec: 0,
        }
    }

    /// A LAN resembling the paper's testbed: 50µs latency, 10 Gbit/s.
    pub fn lan() -> NetworkConfig {
        NetworkConfig {
            latency_us: 50,
            bandwidth_bytes_per_sec: 10_000_000_000 / 8,
        }
    }

    /// The total modelled delay for transferring `bytes` remotely.
    pub fn transfer_delay(&self, bytes: usize) -> Duration {
        let transfer = (bytes as u64)
            .saturating_mul(1_000_000)
            .checked_div(self.bandwidth_bytes_per_sec)
            .unwrap_or(0);
        Duration::from_micros(self.latency_us + transfer)
    }

    /// Whether this network charges any delay.
    pub fn is_instant(&self) -> bool {
        self.latency_us == 0 && self.bandwidth_bytes_per_sec == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_validates() {
        assert!(ClusterConfig::single_node().validate().is_ok());
    }

    #[test]
    fn simulated_cluster_validates() {
        let c = ClusterConfig::simulated(7);
        assert!(c.validate().is_ok());
        assert_eq!(c.nodes, 7);
        assert_eq!(c.backup_count, 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = ClusterConfig::single_node();
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::single_node();
        c.partitions = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::simulated(3);
        c.partitions = 2;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::simulated(2);
        c.backup_count = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn parallelism_defaults_sequential_and_validates() {
        let p = Parallelism::default();
        assert_eq!(p.degree, 1);
        assert!(!p.is_parallel());
        p.validate().unwrap();
        assert_eq!(Parallelism::of(0).degree, 1, "clamped");
        assert!(Parallelism::of(4).is_parallel());
        assert!(Parallelism::auto().degree >= 1);
        let bad = Parallelism {
            degree: 0,
            min_morsel_rows: 1,
        };
        assert!(bad.validate().is_err());
        let bad = Parallelism {
            degree: 2,
            min_morsel_rows: 0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn instant_network_has_zero_delay() {
        let n = NetworkConfig::instant();
        assert!(n.is_instant());
        assert_eq!(n.transfer_delay(1_000_000), Duration::ZERO);
    }

    #[test]
    fn lan_delay_scales_with_bytes() {
        let n = NetworkConfig::lan();
        assert!(!n.is_instant());
        let small = n.transfer_delay(100);
        let large = n.transfer_delay(10_000_000);
        assert!(large > small);
        // 10 MB over 10 Gbit/s = 8 ms transfer + 50 µs latency.
        assert_eq!(large, Duration::from_micros(50 + 8_000));
    }
}
