//! Central registry of every telemetry identifier the engine emits.
//!
//! `squery-lint` (check SQ003) rejects any metric, span, or event name used in
//! non-test code that is not listed here, so `sys_metrics` / `sys_spans` /
//! `sys_events` rows and the DESIGN.md documentation cannot silently drift
//! from what the code actually records. Adding a new instrument is a
//! two-line change: register the name below, then use it at the call site.
//!
//! All three tables are kept sorted and duplicate-free (enforced by unit
//! tests) so the lint can binary-search them and diffs stay reviewable.

/// Counter, gauge, and histogram names accepted by
/// `MetricsRegistry::{counter,gauge,histogram}` and their `_value` readers.
pub const METRIC_NAMES: &[&str] = &[
    "checkpoint_phase1_us",
    "checkpoint_retries_total",
    "checkpoint_total_us",
    "e2e_lag_us",
    "map_bytes",
    "map_entries",
    "map_lock_wait_us",
    "map_read_us",
    "map_reads_total",
    "map_removes_total",
    "map_write_us",
    "map_writes_total",
    "operator_align_stall_us",
    "operator_records_in_total",
    "operator_records_out_total",
    "queries_total",
    "query_errors_total",
    "query_exec_us",
    "query_parse_us",
    "query_plan_us",
    "query_rows_returned_total",
    "query_rows_scanned_total",
    "recovery_duration_us",
    "snapshot_read_us",
    "snapshot_reads_total",
    "snapshot_scan_us",
    "snapshot_scans_total",
    "snapshot_staleness_us",
    "snapshot_write_us",
    "snapshot_writes_total",
    "sql_parallel_workers",
    "sql_worker_scan_us",
    "state_capture_stall_us",
    "state_live_mirror_us",
    "state_snapshot_us",
    "state_updates_total",
    "stats_distinct_keys",
    "stats_hot_key_count",
    "stats_remove_rate_milli",
    "stats_sample_us",
    "stats_samples_total",
    "stats_skew_milli",
    "stats_write_rate_milli",
    "supervisor_restarts_total",
    "wal_append_us",
    "wal_appends_total",
    "wal_bytes_written_total",
    "wal_compact_us",
    "wal_compactions_total",
    "wal_fsyncs_total",
    "wal_recover_us",
    "wal_seals_total",
    "wal_torn_truncations_total",
    "watermark_lag_us",
    "watermark_us",
    "watermark_violations_total",
    "worker_panics_total",
];

/// Span kinds accepted by `SpanCollector::{start,forced,child}` and the
/// streaming layer's `span_under_round` / SQL executor's `start_node`.
pub const SPAN_KINDS: &[&str] = &[
    "aggregate",
    "batch",
    "checkpoint_abort",
    "checkpoint_phase1",
    "checkpoint_phase2",
    "checkpoint_retry",
    "checkpoint_round",
    "filter",
    "join",
    "join_build",
    "marker_align",
    "mirror_write",
    "query",
    "recovery",
    "scan",
    "slice",
    "snapshot_capture",
    "snapshot_write",
    "sort",
    "stats_sample",
    "supervisor_restart",
    "wal_compact",
    "wal_recover",
    "wal_seal",
];

/// Event kinds surfaced through `sys_events`; must stay a superset of
/// `EventKind::as_str` (enforced by a unit test).
pub const EVENT_KINDS: &[&str] = &[
    "alignment_stall",
    "checkpoint_aborted",
    "checkpoint_begin",
    "checkpoint_committed",
    "checkpoint_phase1",
    "checkpoint_retried",
    "fault_injected",
    "job_stopped",
    "job_submitted",
    "lock_contention",
    "query_finished",
    "query_started",
    "recovery",
    "supervisor_gave_up",
    "supervisor_restart",
    "wal_recovered",
    "wal_torn_tail",
    "watermark_regressed",
    "worker_panicked",
    "worker_started",
    "worker_stopped",
];

// ---------------------------------------------------------------------------
// Clock-domain registry (squery-lint SQ006)
// ---------------------------------------------------------------------------
//
// The engine stamps time in two incompatible domains (see `time.rs`):
// *Instant-domain* micros are process-relative (`Clock::now_micros`, zero at
// clock creation) and mean nothing to another process; *epoch-domain* micros
// are µs since the unix epoch (`Clock::epoch_micros`) and survive restarts.
// PR 9 shipped Instant-domain seal stamps into the epoch-domain WAL SEAL
// record, so recovered snapshots read ~0 staleness against a restarted
// clock. SQ006 taints values by the producer/field that created them and
// flags cross-domain comparisons, arithmetic, and persistence sinks.

/// Functions returning Instant-domain (process-relative) microseconds.
pub const INSTANT_DOMAIN_PRODUCERS: &[&str] = &["now_micros"];

/// Functions returning epoch-domain (unix-epoch) microseconds.
pub const EPOCH_DOMAIN_PRODUCERS: &[&str] = &["epoch_anchor_micros", "epoch_micros"];

/// The blessed Instant→epoch rebase: the argument must be Instant-domain
/// (rebasing an epoch value again double-counts the anchor) and the result
/// is epoch-domain.
pub const EPOCH_CONVERSION_FNS: &[&str] = &["to_epoch_micros"];

/// Struct fields holding Instant-domain stamps.
pub const INSTANT_DOMAIN_FIELDS: &[&str] = &[
    "at_us",
    "began_at_us",
    "end_us",
    "start_us",
    "started_at_us",
];

/// Struct fields holding epoch-domain stamps.
pub const EPOCH_DOMAIN_FIELDS: &[&str] = &["epoch_anchor_us", "sealed_at_us"];

/// Persistence sinks whose time-valued arguments must be epoch-domain:
/// WAL seal encoding and the registry freshness commit/restore paths. An
/// Instant-domain value reaching one of these is exactly the PR 9 bug.
pub const EPOCH_SINK_FNS: &[&str] = &[
    "commit_with_freshness",
    "restore_committed_with_freshness",
    "wal_seal_with",
];

// ---------------------------------------------------------------------------
// Atomics registry (squery-lint SQ007)
// ---------------------------------------------------------------------------

/// Ordering disciplines a registered atomic may declare:
///
/// * `"counter"` — statistics, quotas, monotone version counters. The value
///   is self-contained (no other memory is published through it), so
///   `Relaxed` is fine.
/// * `"flag"` — publication/poison/stop flags whose observation gates
///   control flow on another thread. Stores must be `Release` (or stronger)
///   and loads `Acquire` (or stronger); SQ007 flags any `Relaxed` access.
/// * `"gate"` — advisory enable bits (telemetry arming, lock-order tracker)
///   where a stale read only delays arming; `Relaxed` is the point (one
///   relaxed load on the hot path when disabled).
/// * `"seqlock"` — version counters paired with data and explicit fences.
///   Reserved: no current member; adding one should come with its own rule.
pub const ATOMIC_DISCIPLINES: &[&str] = &["counter", "flag", "gate", "seqlock"];

/// Every cross-thread atomic in the workspace, by field/binding name, with
/// its intended discipline. Entries are either file-qualified
/// (`"file.rs::name"`) when the same identifier means different things in
/// different files, or bare (`"name"`). Sorted by key and duplicate-free
/// (binary-searched by SQ007; enforced by a unit test). An atomic declared
/// in non-test code but absent here is an SQ007 finding: undeclared
/// cross-thread handoff is how the PR 3 / PR 9 coordinator races shipped.
pub const ATOMIC_REGISTRY: &[(&str, &str)] = &[
    ("ENABLED", "gate"),
    ("allowance", "counter"),
    ("approx_bytes", "counter"),
    ("armed", "gate"),
    ("bytes", "counter"),
    ("coordinator_dead", "flag"),
    ("count", "counter"),
    ("current_round", "gate"),
    ("cursor", "counter"),
    ("dead_workers", "counter"),
    ("dropped", "counter"),
    ("enabled", "gate"),
    ("exhausted_sources", "counter"),
    ("frozen", "flag"),
    ("last_compaction_us", "counter"),
    ("latest_committed", "counter"),
    ("live_instances", "counter"),
    ("monitor_stop", "flag"),
    ("next_id", "counter"),
    ("next_ssid", "counter"),
    ("pending", "counter"),
    ("poison", "flag"),
    ("pruned_below", "counter"),
    ("removes", "counter"),
    ("retained_versions", "gate"),
    ("rows", "counter"),
    ("samples_total", "counter"),
    ("seq", "counter"),
    ("sink_count", "counter"),
    ("source_count", "counter"),
    ("stats_armed", "gate"),
    ("stop", "flag"),
    ("stop_flag", "flag"),
    // The manual Clock's tick counter lives in an unnamed tuple variant;
    // the declaration site the lint sees is the `kind:` struct-literal
    // init in `Clock::manual()`.
    ("time.rs::kind", "counter"),
    ("topk_capacity", "gate"),
    ("torn_truncations", "counter"),
    ("value", "counter"),
    ("writes", "counter"),
];

/// Clock domain of a tracked value (SQ006).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Process-relative micros (`Clock::now_micros`).
    Instant,
    /// Unix-epoch micros (`Clock::epoch_micros` and persisted stamps).
    Epoch,
}

impl ClockDomain {
    pub fn name(self) -> &'static str {
        match self {
            ClockDomain::Instant => "Instant-domain",
            ClockDomain::Epoch => "epoch-domain",
        }
    }
}

/// Domain produced by calling `function`, if registered.
pub fn domain_of_producer(function: &str) -> Option<ClockDomain> {
    if INSTANT_DOMAIN_PRODUCERS.binary_search(&function).is_ok() {
        Some(ClockDomain::Instant)
    } else if EPOCH_DOMAIN_PRODUCERS.binary_search(&function).is_ok() {
        Some(ClockDomain::Epoch)
    } else {
        None
    }
}

/// Domain stored in `field`, if registered.
pub fn domain_of_field(field: &str) -> Option<ClockDomain> {
    if INSTANT_DOMAIN_FIELDS.binary_search(&field).is_ok() {
        Some(ClockDomain::Instant)
    } else if EPOCH_DOMAIN_FIELDS.binary_search(&field).is_ok() {
        Some(ClockDomain::Epoch)
    } else {
        None
    }
}

/// True if `function` is the Instant→epoch conversion.
pub fn is_epoch_conversion(function: &str) -> bool {
    EPOCH_CONVERSION_FNS.binary_search(&function).is_ok()
}

/// True if `function` is an epoch-domain persistence sink.
pub fn is_epoch_sink(function: &str) -> bool {
    EPOCH_SINK_FNS.binary_search(&function).is_ok()
}

/// Declared discipline of the atomic named `name` in `file_basename`:
/// the file-qualified entry wins, then the bare name.
pub fn atomic_discipline(file_basename: &str, name: &str) -> Option<&'static str> {
    let qualified = format!("{file_basename}::{name}");
    ATOMIC_REGISTRY
        .binary_search_by(|(k, _)| (*k).cmp(qualified.as_str()))
        .or_else(|_| ATOMIC_REGISTRY.binary_search_by(|(k, _)| (*k).cmp(name)))
        .ok()
        .map(|i| ATOMIC_REGISTRY[i].1)
}

/// True if `name` is a registered metric name.
pub fn is_metric(name: &str) -> bool {
    METRIC_NAMES.binary_search(&name).is_ok()
}

/// True if `kind` is a registered span kind.
pub fn is_span_kind(kind: &str) -> bool {
    SPAN_KINDS.binary_search(&kind).is_ok()
}

/// True if `kind` is a registered event kind.
pub fn is_event_kind(kind: &str) -> bool {
    EVENT_KINDS.binary_search(&kind).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::EventKind;

    fn assert_sorted_unique(table: &[&str], what: &str) {
        for pair in table.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{what} must be sorted and duplicate-free: {:?} >= {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn tables_are_sorted_and_unique() {
        assert_sorted_unique(METRIC_NAMES, "METRIC_NAMES");
        assert_sorted_unique(SPAN_KINDS, "SPAN_KINDS");
        assert_sorted_unique(EVENT_KINDS, "EVENT_KINDS");
        assert_sorted_unique(INSTANT_DOMAIN_PRODUCERS, "INSTANT_DOMAIN_PRODUCERS");
        assert_sorted_unique(EPOCH_DOMAIN_PRODUCERS, "EPOCH_DOMAIN_PRODUCERS");
        assert_sorted_unique(EPOCH_CONVERSION_FNS, "EPOCH_CONVERSION_FNS");
        assert_sorted_unique(INSTANT_DOMAIN_FIELDS, "INSTANT_DOMAIN_FIELDS");
        assert_sorted_unique(EPOCH_DOMAIN_FIELDS, "EPOCH_DOMAIN_FIELDS");
        assert_sorted_unique(EPOCH_SINK_FNS, "EPOCH_SINK_FNS");
        assert_sorted_unique(ATOMIC_DISCIPLINES, "ATOMIC_DISCIPLINES");
        for pair in ATOMIC_REGISTRY.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "ATOMIC_REGISTRY must be sorted by name and duplicate-free: {:?} >= {:?}",
                pair[0].0,
                pair[1].0
            );
        }
        for (name, discipline) in ATOMIC_REGISTRY {
            assert!(
                ATOMIC_DISCIPLINES.contains(discipline),
                "ATOMIC_REGISTRY entry {name:?} has unknown discipline {discipline:?}"
            );
        }
    }

    #[test]
    fn domain_tables_do_not_overlap() {
        for p in INSTANT_DOMAIN_PRODUCERS {
            assert!(
                !EPOCH_DOMAIN_PRODUCERS.contains(p),
                "{p:?} registered as both instant- and epoch-domain producer"
            );
        }
        for f in INSTANT_DOMAIN_FIELDS {
            assert!(
                !EPOCH_DOMAIN_FIELDS.contains(f),
                "{f:?} registered as both instant- and epoch-domain field"
            );
        }
    }

    #[test]
    fn domain_and_atomic_lookups() {
        assert_eq!(domain_of_producer("now_micros"), Some(ClockDomain::Instant));
        assert_eq!(domain_of_producer("epoch_micros"), Some(ClockDomain::Epoch));
        assert_eq!(domain_of_producer("len"), None);
        assert_eq!(domain_of_field("sealed_at_us"), Some(ClockDomain::Epoch));
        assert_eq!(domain_of_field("began_at_us"), Some(ClockDomain::Instant));
        assert!(is_epoch_conversion("to_epoch_micros"));
        assert!(is_epoch_sink("wal_seal_with"));
        // Qualified `file::name` entries take precedence over bare names.
        assert_eq!(atomic_discipline("time.rs", "kind"), Some("counter"));
        assert_eq!(atomic_discipline("other.rs", "kind"), None);
        assert_eq!(atomic_discipline("worker.rs", "poison"), Some("flag"));
        assert_eq!(atomic_discipline("worker.rs", "unregistered"), None);
    }

    #[test]
    fn every_event_kind_variant_is_registered() {
        let variants = [
            EventKind::CheckpointBegin,
            EventKind::CheckpointPhase1,
            EventKind::CheckpointCommitted,
            EventKind::CheckpointAborted,
            EventKind::WorkerStarted,
            EventKind::WorkerStopped,
            EventKind::JobSubmitted,
            EventKind::JobStopped,
            EventKind::Recovery,
            EventKind::LockContention,
            EventKind::AlignmentStall,
            EventKind::QueryStarted,
            EventKind::QueryFinished,
            EventKind::FaultInjected,
            EventKind::WorkerPanicked,
            EventKind::CheckpointRetried,
            EventKind::SupervisorRestart,
            EventKind::SupervisorGaveUp,
            EventKind::WalRecovered,
            EventKind::WalTornTail,
            EventKind::WatermarkRegressed,
        ];
        for v in variants {
            assert!(
                is_event_kind(v.as_str()),
                "EventKind::{v:?} ({}) missing from EVENT_KINDS",
                v.as_str()
            );
        }
    }

    #[test]
    fn lookups_hit_and_miss() {
        assert!(is_metric("map_reads_total"));
        assert!(!is_metric("bogus_metric"));
        assert!(is_span_kind("checkpoint_round"));
        assert!(!is_span_kind("bogus_span"));
        assert!(is_event_kind("recovery"));
        assert!(!is_event_kind("bogus_event"));
    }
}
