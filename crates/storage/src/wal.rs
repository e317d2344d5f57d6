//! Durable snapshot write-ahead log.
//!
//! The paper's queryable state (§VI-A) assumes committed snapshots survive
//! failures; in this reproduction the `SnapshotStore` is in-memory, so this
//! module gives the aligned-snapshot protocol a disk footprint. Every
//! checkpoint phase-1 write appends a CRC-checked *delta record* to a
//! per-partition segment file, and phase 2 seals the round with a single
//! *commit record* in a store-spanning commit log — so the on-disk commit
//! point is one atomic append, mirroring the in-memory atomic flip of
//! `SnapshotRegistry::commit`. A process kill at any instant leaves either
//! a sealed round (fully recoverable) or an unsealed tail (discarded by
//! recovery); there is no third state.
//!
//! ## Record framing
//!
//! Every record in every file is framed as:
//!
//! ```text
//! [len: u32 LE][crc32(body): u32 LE][body: len bytes]
//!   body[0]     = kind (0 header, 1 named delta, 2 seal, 3 delta)
//!   body[1..]   = kind-specific payload
//! ```
//!
//! * `header` — magic `SQWL`, format version, partition id; written once
//!   when a file is created. Replay reads versions 1 and 2 and rejects any
//!   other with an error naming both.
//! * `delta`  — `ssid`, full/incremental flag, the record's schema table
//!   (each schema's field names and type codes), and the `(key,
//!   Option<value>)` entries of one `write_partition` call in the
//!   positional codec (`codec::SchemaTable`): a struct is its schema's
//!   table index and its values, with no field names; a tombstone is one
//!   byte. The table is local to the record, so every record decodes on
//!   its own. Format version 1 wrote kind 1 instead, with field names in
//!   every struct (the self-describing codec); it still replays.
//! * `seal`   — `ssid`; only ever written to the manager's `commit.wal`.
//!
//! The CRC is CRC-32 IEEE, slice-by-8. Recovery decodes every struct into
//! the process-wide interned schema with its table entry's fields, which is
//! the very `Arc` the operator registers.
//!
//! ## Crash consistency
//!
//! Segment appends happen during phase 1, strictly before the commit
//! record. Recovery reads `commit.wal` first to learn the sealed-round set
//! `S`, then replays segment deltas keeping only versions in `S`. A torn
//! tail (a partially-written final record with nothing valid after it) is
//! truncated and counted; a CRC mismatch *followed by further valid
//! records* means a sealed region was damaged at rest, and recovery fails
//! hard rather than silently dropping committed data.
//!
//! Compaction mirrors `SnapshotStore::prune_below`: versions at or below
//! the prune horizon fold into one full base at the horizon, written to a
//! `.tmp` sibling and atomically renamed over the segment; the frames above
//! the horizon are copied as they stand, not re-encoded. A kill before the
//! rename leaves the old segment intact plus an ignored `.tmp` file.
//!
//! Fault injection simulates a kill with a *freeze*: once a durability
//! fault fires, every subsequent append, seal, truncate, and compaction
//! silently no-ops, so the directory stays byte-identical to the kill
//! instant while the in-memory system runs on. The durability soak then
//! cold-starts a fresh system from the directory alone.

use crate::locks::ClassedMutex;
use crate::snapshot::SnapshotStore;
use squery_common::codec::{self, SchemaTable};
use squery_common::fault::{FaultAction, FaultInjector};
use squery_common::lockorder::LockClass;
use squery_common::metrics::SharedHistogram;
use squery_common::telemetry::{Counter, MetricsRegistry};
use squery_common::{SqError, SqResult, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const MAGIC: &[u8; 4] = b"SQWL";
/// Version 2 adds positional delta records; version-1 files (named deltas
/// only) still replay.
const FORMAT_VERSION: u16 = 2;
const READ_VERSIONS: [u16; 2] = [1, FORMAT_VERSION];
const FRAME_HEADER: usize = 8;
const REC_HEADER: u8 = 0;
/// The self-describing delta of format version 1: field names per struct.
/// Replayed, never written.
const REC_DELTA_NAMED: u8 = 1;
const REC_SEAL: u8 = 2;
/// The positional delta: one schema table per record.
const REC_DELTA: u8 = 3;
/// An entry's value slot holding a removal; never a codec value tag.
const TOMBSTONE: u8 = 0xFF;
/// Sanity ceiling for one record body; anything larger is treated as a
/// corrupt length prefix.
const MAX_RECORD: u32 = 64 << 20;
/// How far past a bad frame recovery scans for a later valid frame before
/// concluding the damage is a torn tail rather than at-rest corruption.
const RESYNC_WINDOW: usize = 4 << 20;
/// The commit log: one seal record per committed round, store-spanning.
const COMMIT_LOG: &str = "commit.wal";

/// When segment and commit-log writes are flushed to stable storage.
///
/// Process-kill durability needs no fsync at all (the page cache survives
/// the process); `OnCommit` extends the guarantee to OS/machine crashes by
/// syncing dirty segments before the commit record and the commit log
/// after it, preserving write ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Never fsync (default): durable against process kills only.
    #[default]
    Never,
    /// Fsync dirty segments + the commit log at every phase-2 seal.
    OnCommit,
}

const CRC_POLY: u32 = 0xEDB8_8320;
/// Slice-by-8 lookup tables for the reflected IEEE CRC-32: `CRC_TABLES[0]`
/// is the classic bytewise table, and `CRC_TABLES[k][b]` advances byte `b`
/// through `k` further zero bytes, so eight table reads fold eight input
/// bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                CRC_POLY ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Start a record of `kind`: the frame header is reserved here and filled
/// in by [`finish_record`] once the body is complete, so a record is
/// encoded straight into the buffer that is written.
fn start_record(kind: u8, body_hint: usize) -> Vec<u8> {
    let mut rec = Vec::with_capacity(FRAME_HEADER + 1 + body_hint);
    rec.extend_from_slice(&[0; FRAME_HEADER]);
    rec.push(kind);
    rec
}

/// Fill in the length and CRC of a record built by [`start_record`].
fn finish_record(mut rec: Vec<u8>) -> Vec<u8> {
    let len = (rec.len() - FRAME_HEADER) as u32;
    let crc = crc32(&rec[FRAME_HEADER..]);
    rec[..4].copy_from_slice(&len.to_le_bytes());
    rec[4..8].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Parse one frame at the head of `buf`: `Some((body, bytes_consumed))` if
/// the length is sane and the CRC matches.
fn parse_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    if buf.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap_or([0; 4])) as usize;
    if len == 0 || len > MAX_RECORD as usize || buf.len() < FRAME_HEADER + len {
        return None;
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap_or([0; 4]));
    let body = &buf[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(body) != crc {
        return None;
    }
    Some((body, FRAME_HEADER + len))
}

fn header_record(pid: u32) -> Vec<u8> {
    let mut rec = start_record(REC_HEADER, 10);
    rec.extend_from_slice(MAGIC);
    rec.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    rec.extend_from_slice(&pid.to_le_bytes());
    finish_record(rec)
}

/// Check a header record body (`what` names the file in errors): the
/// magic, a format version this build reads, and — for a segment — its
/// partition id.
fn check_header(body: &[u8], pid: Option<u32>, what: &str, path: &Path) -> SqResult<()> {
    if body[0] != REC_HEADER
        || body.len() < 11
        || &body[1..5] != MAGIC
        || pid.is_some_and(|pid| u32::from_le_bytes([body[7], body[8], body[9], body[10]]) != pid)
    {
        return Err(SqError::Storage(format!(
            "WAL {what} {path:?} has a bad header record"
        )));
    }
    let version = u16::from_le_bytes([body[5], body[6]]);
    if !READ_VERSIONS.contains(&version) {
        return Err(SqError::Storage(format!(
            "WAL {what} {path:?} has format version {version}; \
             this build reads versions {READ_VERSIONS:?}"
        )));
    }
    Ok(())
}

/// One positional DELTA record, framed: the body is `ssid`, the full flag,
/// the record's own [`SchemaTable`], the entry count, then each entry's key
/// and value (or [`TOMBSTONE`]) in the positional codec.
///
/// The entries are encoded in one pass that also collects the table, which
/// is then inserted in front of them: one in-cache shift of the encoded
/// bytes instead of a second walk over the values.
fn delta_record(ssid: u64, full: bool, entries: &[WalEntry]) -> Vec<u8> {
    let mut rec = start_record(REC_DELTA, 64 + entries.len() * 48);
    rec.extend_from_slice(&ssid.to_le_bytes());
    rec.push(u8::from(full));
    let table_at = rec.len();
    rec.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    let mut table = SchemaTable::default();
    for (key, value) in entries {
        table.encode_value(key, &mut rec);
        match value {
            Some(v) => table.encode_value(v, &mut rec),
            None => rec.push(TOMBSTONE),
        }
    }
    let mut head = Vec::new();
    table.encode_into(&mut head);
    rec.splice(table_at..table_at, head);
    finish_record(rec)
}

/// Seal-record body. The original format was 9 bytes `[tag, ssid]`; the
/// watermark and wall-clock seal stamp extend it to 25 bytes. Recovery
/// reads only the prefix it understands, so old logs replay under new code
/// (freshness recovers as zero = unknown) and vice versa.
fn seal_record(ssid: u64, watermark_us: u64, sealed_at_us: u64) -> Vec<u8> {
    let mut rec = start_record(REC_SEAL, 24);
    rec.extend_from_slice(&ssid.to_le_bytes());
    rec.extend_from_slice(&watermark_us.to_le_bytes());
    rec.extend_from_slice(&sealed_at_us.to_le_bytes());
    finish_record(rec)
}

fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> SqResult<&'a [u8]> {
    if buf.len() < n {
        return Err(SqError::Storage("truncated WAL record body".into()));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_u32(buf: &mut &[u8]) -> SqResult<u32> {
    let b = take_bytes(buf, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The `(ssid, full)` every delta body (either kind) starts with, read
/// without decoding its entries.
fn delta_head(body: &[u8]) -> SqResult<(u64, bool)> {
    if body.len() < 10 {
        return Err(SqError::Storage("truncated WAL delta header".into()));
    }
    let ssid = u64::from_le_bytes(body[1..9].try_into().unwrap_or([0; 8]));
    Ok((ssid, body[9] != 0))
}

/// Decode the entries of a delta body of either kind. A malformed byte —
/// a struct whose values do not match its schema's field count among them
/// — is a `SqError::Storage`, never a panic: the record passed its CRC, so
/// the damage is in what was written.
fn decode_entries(body: &[u8]) -> SqResult<Vec<WalEntry>> {
    let corrupt = |e: SqError| SqError::Storage(format!("corrupt WAL delta record: {e}"));
    let mut buf = body.get(10..).unwrap_or_default();
    let table = match body[0] {
        REC_DELTA => Some(SchemaTable::decode_from(&mut buf).map_err(corrupt)?),
        _ => None,
    };
    let count = take_u32(&mut buf)? as usize;
    let mut entries = Vec::with_capacity(count.min(buf.len()));
    for _ in 0..count {
        let entry = match &table {
            Some(table) => {
                let key = table.decode_value(&mut buf).map_err(corrupt)?;
                let value = if buf.first() == Some(&TOMBSTONE) {
                    buf = &buf[1..];
                    None
                } else {
                    Some(table.decode_value(&mut buf).map_err(corrupt)?)
                };
                (key, value)
            }
            None => {
                let key = codec::decode_from(&mut buf).map_err(corrupt)?;
                let value = if take_bytes(&mut buf, 1)?[0] != 0 {
                    Some(codec::decode_from(&mut buf).map_err(corrupt)?)
                } else {
                    None
                };
                (key, value)
            }
        };
        entries.push(entry);
    }
    if !buf.is_empty() {
        return Err(SqError::Storage(format!(
            "corrupt WAL delta record: {} bytes after its last entry",
            buf.len()
        )));
    }
    Ok(entries)
}

/// Counters the WAL feeds once telemetry is attached.
struct WalMetrics {
    appends: Counter,
    bytes_written: Counter,
    seals: Counter,
    fsyncs: Counter,
    compactions: Counter,
    torn: Counter,
    recover_us: SharedHistogram,
    append_us: SharedHistogram,
    compact_us: SharedHistogram,
}

impl WalMetrics {
    fn new(registry: &MetricsRegistry) -> WalMetrics {
        WalMetrics {
            appends: registry.counter("wal_appends_total", &[]),
            bytes_written: registry.counter("wal_bytes_written_total", &[]),
            seals: registry.counter("wal_seals_total", &[]),
            fsyncs: registry.counter("wal_fsyncs_total", &[]),
            compactions: registry.counter("wal_compactions_total", &[]),
            torn: registry.counter("wal_torn_truncations_total", &[]),
            recover_us: registry.histogram("wal_recover_us", &[]),
            append_us: registry.histogram("wal_append_us", &[]),
            compact_us: registry.histogram("wal_compact_us", &[]),
        }
    }
}

/// State shared by the manager, its commit log, and every [`StoreWal`].
struct WalShared {
    root: PathBuf,
    fsync: FsyncMode,
    retention: usize,
    frozen: AtomicBool,
    started: Instant,
    injector: OnceLock<Arc<FaultInjector>>,
    metrics: OnceLock<WalMetrics>,
}

impl WalShared {
    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.get()
    }

    fn metrics(&self) -> Option<&WalMetrics> {
        self.metrics.get()
    }

    fn count_write(&self, bytes: usize) {
        if let Some(m) = self.metrics() {
            m.appends.inc();
            m.bytes_written.add(bytes as u64);
        }
    }

    fn maybe_fsync(&self, file: &File) -> SqResult<()> {
        if self.fsync == FsyncMode::OnCommit {
            file.sync_data()
                .map_err(|e| SqError::Storage(format!("WAL fsync failed: {e}")))?;
            if let Some(m) = self.metrics() {
                m.fsyncs.inc();
            }
        }
        Ok(())
    }
}

/// One partition's segment file state. `len` / `sealed_len` are logical
/// watermarks: appends advance `len`, a phase-2 seal promotes it to
/// `sealed_len`, and an abort truncates the file back to `sealed_len`.
struct Segment {
    file: Option<File>,
    len: u64,
    sealed_len: u64,
    /// Unsealed ssids with deltas in the tail (at most the one in-flight
    /// round, but tracked as a set for defence).
    pending: BTreeSet<u64>,
    /// Sealed ssids with deltas in this file.
    sealed: BTreeSet<u64>,
    /// Whether the file had any deltas appended for the round being sealed
    /// (drives per-round fsync selection).
    dirty: bool,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            file: None,
            len: 0,
            sealed_len: 0,
            pending: BTreeSet::new(),
            sealed: BTreeSet::new(),
            dirty: false,
        }
    }
}

/// One key's WAL delta entry: the key and `Some(value)` or a tombstone.
pub type WalEntry = (Value, Option<Value>);

/// A recovered sealed version: `(ssid, partition, full, entries)`.
pub type RecoveredVersion = (u64, u32, bool, Vec<WalEntry>);

/// What recovery reconstructed for one store.
#[derive(Debug)]
pub struct StoreRecovery {
    /// Sealed versions in replay order: `(ssid, partition, full, entries)`.
    pub versions: Vec<RecoveredVersion>,
    /// Distinct sealed ssids with data in this store.
    pub sealed: BTreeSet<u64>,
    /// Files whose tails were truncated during this recovery.
    pub torn_truncations: u64,
}

/// One `sys_wal` row's worth of per-store accounting.
pub struct WalStoreStats {
    /// Operator (store) name, joinable with `sys_snapshots`.
    pub store: String,
    /// Partition segment files that exist on disk.
    pub segments: u64,
    /// Total segment bytes (commit log excluded).
    pub bytes: u64,
    /// Smallest sealed version with data, if any.
    pub sealed_min: Option<u64>,
    /// Largest sealed version with data, if any.
    pub sealed_max: Option<u64>,
    /// Microseconds since WAL start of the last compaction (0 = never).
    pub last_compaction_us: u64,
    /// Torn tails truncated by recovery.
    pub torn_truncations: u64,
}

/// Per-store WAL: one lazily-created segment file per partition under
/// `<root>/<operator>/part-<pid>.wal`.
pub struct StoreWal {
    name: String,
    dir: PathBuf,
    shared: Arc<WalShared>,
    segs: Vec<ClassedMutex<Segment>>,
    torn_truncations: AtomicU64,
    last_compaction_us: AtomicU64,
}

impl StoreWal {
    fn new(name: &str, partitions: usize, shared: Arc<WalShared>) -> StoreWal {
        StoreWal {
            name: name.to_string(),
            dir: shared.root.join(name),
            shared,
            segs: (0..partitions)
                .map(|_| ClassedMutex::new(LockClass::WalSegment, Segment::new()))
                .collect(),
            torn_truncations: AtomicU64::new(0),
            last_compaction_us: AtomicU64::new(0),
        }
    }

    /// Operator name this WAL belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn seg_path(&self, pid: u32) -> PathBuf {
        self.dir.join(format!("part-{pid}.wal"))
    }

    fn open_segment(&self, seg: &mut Segment, pid: u32) -> SqResult<()> {
        if seg.file.is_some() {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SqError::Storage(format!("WAL mkdir {:?} failed: {e}", self.dir)))?;
        let path = self.seg_path(pid);
        let existed = path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| SqError::Storage(format!("WAL open {path:?} failed: {e}")))?;
        if existed {
            // Adopting a pre-existing file outside recovery: trust its
            // length and treat everything in it as sealed history.
            let disk_len = file
                .metadata()
                .map_err(|e| SqError::Storage(format!("WAL stat {path:?} failed: {e}")))?
                .len();
            if seg.len == 0 && disk_len > 0 {
                seg.len = disk_len;
                seg.sealed_len = disk_len;
            }
            seg.file = Some(file);
        } else {
            seg.file = Some(file);
            self.write_record(seg, &header_record(pid))?;
            seg.sealed_len = seg.len;
        }
        Ok(())
    }

    fn write_record(&self, seg: &mut Segment, rec: &[u8]) -> SqResult<()> {
        let file = seg.file.as_mut().expect("segment opened before write");
        file.write_all(rec)
            .map_err(|e| SqError::Storage(format!("WAL write failed: {e}")))?;
        seg.len += rec.len() as u64;
        self.shared.count_write(rec.len());
        Ok(())
    }

    /// Append one phase-1 delta batch. Called by
    /// `SnapshotStore::write_partition` *before* it takes the partition's
    /// in-memory lock, so the durable record always precedes the version
    /// map it describes.
    pub fn append(
        &self,
        ssid: u64,
        pid: u32,
        full: bool,
        entries: &[(Value, Option<Value>)],
    ) -> SqResult<()> {
        if self.shared.is_frozen() {
            return Ok(());
        }
        let start = self.shared.metrics().map(|_| Instant::now());
        let action = self
            .shared
            .injector()
            .and_then(|i| i.on_wal_append(&self.name, ssid, pid));
        let rec = delta_record(ssid, full, entries);
        let mut seg = self.segs[pid as usize].lock();
        self.open_segment(&mut seg, pid)?;
        match action {
            Some(FaultAction::FreezeWal) => {
                self.shared.freeze();
                Ok(())
            }
            Some(FaultAction::TornWrite { keep_bytes }) => {
                // Persist a strict prefix of the record — the torn tail a
                // mid-write kill leaves — then freeze the disk.
                let keep = (keep_bytes as usize)
                    .min(rec.len().saturating_sub(1))
                    .max(1);
                self.write_record(&mut seg, &rec[..keep])?;
                self.shared.freeze();
                Ok(())
            }
            _ => {
                self.write_record(&mut seg, &rec)?;
                seg.pending.insert(ssid);
                seg.dirty = true;
                if let (Some(m), Some(start)) = (self.shared.metrics(), start) {
                    m.append_us.record(start.elapsed().as_micros() as u64);
                }
                Ok(())
            }
        }
    }

    /// Truncate the unsealed tail holding `ssid`'s deltas (aborted round).
    pub fn discard(&self, ssid: u64) {
        if self.shared.is_frozen() {
            return;
        }
        for seg in &self.segs {
            let mut seg = seg.lock();
            if !seg.pending.remove(&ssid) {
                continue;
            }
            if let Some(file) = seg.file.as_ref() {
                // Best effort: a failed truncate leaves an unsealed tail
                // that the next recovery discards anyway.
                let _ = file.set_len(seg.sealed_len);
            }
            seg.len = seg.sealed_len;
            seg.pending.clear();
            seg.dirty = false;
        }
    }

    /// Promote `ssid`'s pending deltas to sealed (phase-2 bookkeeping;
    /// the durable commit point is the manager's commit-log record).
    fn mark_sealed(&self, ssid: u64) -> SqResult<()> {
        for seg in &self.segs {
            let mut seg = seg.lock();
            if seg.pending.remove(&ssid) {
                seg.sealed.insert(ssid);
                seg.sealed_len = seg.len;
            }
            if seg.dirty {
                seg.dirty = false;
                if let Some(file) = seg.file.as_ref() {
                    self.shared.maybe_fsync(file)?;
                }
            }
        }
        Ok(())
    }

    /// Rewrite segments whose stale-version count (sealed versions strictly
    /// below `horizon`) reached the retention limit: fold everything at or
    /// below the horizon into one full base at the horizon — the exact
    /// fold `SnapshotStore::prune_below` applies in memory — via
    /// write-new-then-rename.
    pub fn maybe_compact(&self, horizon: u64) -> SqResult<()> {
        if self.shared.is_frozen() {
            return Ok(());
        }
        for (pid, seg) in self.segs.iter().enumerate() {
            let pid = pid as u32;
            let mut seg = seg.lock();
            if !seg.pending.is_empty() {
                continue; // never rewrite under an in-flight round
            }
            let stale = seg.sealed.iter().filter(|&&s| s < horizon).count();
            if stale == 0 || stale < self.shared.retention {
                continue;
            }
            self.compact_segment(&mut seg, pid, horizon)?;
            if self.shared.is_frozen() {
                return Ok(()); // a mid-compaction kill fired
            }
        }
        Ok(())
    }

    fn compact_segment(&self, seg: &mut Segment, pid: u32, horizon: u64) -> SqResult<()> {
        let start = Instant::now();
        let path = self.seg_path(pid);
        let bytes = std::fs::read(&path)
            .map_err(|e| SqError::Storage(format!("WAL read {path:?} failed: {e}")))?;
        let sealed_slice = &bytes[..seg.sealed_len.min(bytes.len() as u64) as usize];
        // Index our own writes; any parse failure here is a program error
        // surfaced as hard corruption, never silently dropped.
        let mut deltas: Vec<DeltaFrame> = Vec::new();
        let mut off = 0usize;
        while off < sealed_slice.len() {
            let (body, used) = parse_frame(&sealed_slice[off..]).ok_or_else(|| {
                SqError::Storage(format!("corrupt WAL segment {path:?} during compaction"))
            })?;
            if matches!(body[0], REC_DELTA | REC_DELTA_NAMED) {
                let (ssid, full) = delta_head(body)?;
                deltas.push(DeltaFrame {
                    at: off..off + used,
                    ssid,
                    full,
                });
            }
            off += used;
        }
        let kept: Vec<&DeltaFrame> = deltas.iter().filter(|d| d.ssid > horizon).collect();
        let mut folded: HashMap<Value, Option<Value>> = HashMap::new();
        for d in deltas.iter().filter(|d| d.ssid <= horizon) {
            if d.full {
                folded.clear();
            }
            let body = &sealed_slice[d.at.start + FRAME_HEADER..d.at.end];
            folded.extend(decode_entries(body)?);
        }
        folded.retain(|_, v| v.is_some());
        let mut base: Vec<WalEntry> = folded.into_iter().collect();
        base.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = header_record(pid);
        out.extend_from_slice(&delta_record(horizon, true, &base));
        // Frames above the horizon are copied as they stand.
        for d in &kept {
            out.extend_from_slice(&sealed_slice[d.at.clone()]);
        }
        let mut sealed = BTreeSet::new();
        sealed.insert(horizon);
        sealed.extend(kept.iter().map(|d| d.ssid));

        let tmp = path.with_extension("wal.tmp");
        {
            let mut f = File::create(&tmp)
                .map_err(|e| SqError::Storage(format!("WAL create {tmp:?} failed: {e}")))?;
            f.write_all(&out)
                .map_err(|e| SqError::Storage(format!("WAL write {tmp:?} failed: {e}")))?;
            self.shared.maybe_fsync(&f)?;
        }
        // The kill-mid-compaction window: the replacement exists but the
        // rename has not happened. Recovery must keep using the old file.
        if let Some(action) = self
            .shared
            .injector()
            .and_then(|i| i.on_wal_compact(&self.name, pid))
        {
            if matches!(
                action,
                FaultAction::FreezeWal | FaultAction::TornWrite { .. }
            ) {
                self.shared.freeze();
                return Ok(());
            }
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| SqError::Storage(format!("WAL rename {tmp:?} failed: {e}")))?;
        // The old handle points at the unlinked inode; reopen lazily.
        seg.file = None;
        seg.len = out.len() as u64;
        seg.sealed_len = seg.len;
        seg.sealed = sealed;
        self.last_compaction_us.store(
            self.shared.started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        if let Some(m) = self.shared.metrics() {
            m.compactions.inc();
            m.compact_us.record(start.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Rebuild this store's state from disk, keeping only versions in the
    /// sealed-round set `sealed_rounds` (from the manager's commit log).
    /// Torn tails are truncated; corruption inside replayed history is a
    /// hard error.
    fn recover(&self, sealed_rounds: &BTreeSet<u64>) -> SqResult<StoreRecovery> {
        let mut out = StoreRecovery {
            versions: Vec::new(),
            sealed: BTreeSet::new(),
            torn_truncations: 0,
        };
        for pid in 0..self.segs.len() as u32 {
            let path = self.seg_path(pid);
            // A compaction kill can leave a .tmp replacement that was never
            // renamed; it was never the live file, so drop it.
            let tmp = path.with_extension("wal.tmp");
            if tmp.exists() {
                let _ = std::fs::remove_file(&tmp);
            }
            if !path.exists() {
                continue;
            }
            let mut bytes = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(|e| SqError::Storage(format!("WAL read {path:?} failed: {e}")))?;
            let replay = replay_segment(&path, &bytes, pid, sealed_rounds)?;
            let mut seg = self.segs[pid as usize].lock();
            if replay.keep_len < bytes.len() as u64 {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| SqError::Storage(format!("WAL open {path:?} failed: {e}")))?;
                file.set_len(replay.keep_len)
                    .map_err(|e| SqError::Storage(format!("WAL truncate {path:?} failed: {e}")))?;
                out.torn_truncations += 1;
                self.torn_truncations.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = self.shared.metrics() {
                    m.torn.inc();
                }
            }
            seg.file = None;
            seg.len = replay.keep_len;
            seg.sealed_len = replay.keep_len;
            seg.pending.clear();
            seg.sealed = replay.sealed.clone();
            seg.dirty = false;
            out.sealed.extend(replay.sealed.iter().copied());
            out.versions.extend(
                replay
                    .versions
                    .into_iter()
                    .map(|(ssid, full, entries)| (ssid, pid, full, entries)),
            );
        }
        Ok(out)
    }

    /// Current per-store accounting for `sys_wal`.
    pub fn stats(&self) -> WalStoreStats {
        let mut segments = 0u64;
        let mut bytes = 0u64;
        let mut sealed_min = None;
        let mut sealed_max = None;
        for seg in &self.segs {
            let seg = seg.lock();
            if seg.len == 0 && seg.file.is_none() && seg.sealed.is_empty() {
                continue;
            }
            segments += 1;
            bytes += seg.len;
            if let Some(&lo) = seg.sealed.iter().next() {
                sealed_min = Some(sealed_min.map_or(lo, |m: u64| m.min(lo)));
            }
            if let Some(&hi) = seg.sealed.iter().next_back() {
                sealed_max = Some(sealed_max.map_or(hi, |m: u64| m.max(hi)));
            }
        }
        WalStoreStats {
            store: self.name.clone(),
            segments,
            bytes,
            sealed_min,
            sealed_max,
            last_compaction_us: self.last_compaction_us.load(Ordering::Relaxed),
            torn_truncations: self.torn_truncations.load(Ordering::Relaxed),
        }
    }
}

/// Where one delta frame sits in a segment, and its head.
struct DeltaFrame {
    at: std::ops::Range<usize>,
    ssid: u64,
    full: bool,
}

struct SegmentReplay {
    versions: Vec<(u64, bool, Vec<WalEntry>)>,
    sealed: BTreeSet<u64>,
    /// Length to keep: end of the last delta belonging to a sealed round.
    keep_len: u64,
}

/// Distinguish a torn tail from at-rest corruption: a bad frame followed
/// by *any* later valid frame means sealed history was damaged.
fn corruption_follows(bytes: &[u8], from: usize) -> bool {
    let end = bytes.len().min(from + RESYNC_WINDOW);
    for off in (from + 1)..end.saturating_sub(8) {
        if parse_frame(&bytes[off..]).is_some() {
            return true;
        }
    }
    false
}

fn replay_segment(
    path: &Path,
    bytes: &[u8],
    pid: u32,
    sealed_rounds: &BTreeSet<u64>,
) -> SqResult<SegmentReplay> {
    let mut out = SegmentReplay {
        versions: Vec::new(),
        sealed: BTreeSet::new(),
        keep_len: 0,
    };
    if bytes.is_empty() {
        return Ok(out);
    }
    let mut off = 0usize;
    let mut first = true;
    while off < bytes.len() {
        let Some((body, used)) = parse_frame(&bytes[off..]) else {
            if corruption_follows(bytes, off) {
                return Err(SqError::Storage(format!(
                    "corrupt sealed WAL segment {path:?} at offset {off}: \
                     CRC mismatch with valid records after it"
                )));
            }
            // Torn tail: a kill mid-append. Recovery keeps the sealed
            // prefix and the caller truncates the rest.
            return Ok(out);
        };
        if first {
            check_header(body, Some(pid), "segment", path)?;
            first = false;
            off += used;
            out.keep_len = off as u64;
            continue;
        }
        match body[0] {
            REC_DELTA | REC_DELTA_NAMED => {
                let (ssid, full) = delta_head(body)?;
                if sealed_rounds.contains(&ssid) {
                    let entries = decode_entries(body).map_err(|e| {
                        SqError::Storage(format!("WAL segment {path:?} at offset {off}: {e}"))
                    })?;
                    out.sealed.insert(ssid);
                    out.versions.push((ssid, full, entries));
                    out.keep_len = (off + used) as u64;
                }
                off += used;
                // An unsealed delta is a discarded round's leftover; keep
                // scanning (later sealed rounds may follow it only if an
                // abort's truncate was lost, which recovery tolerates).
            }
            REC_HEADER | REC_SEAL => {
                off += used; // ignore: seals live in the commit log
            }
            other => {
                return Err(SqError::Storage(format!(
                    "WAL segment {path:?}: unknown record kind {other}"
                )));
            }
        }
    }
    Ok(out)
}

/// The manager-level commit log state.
struct CommitLog {
    file: Option<File>,
    len: u64,
    sealed: BTreeSet<u64>,
}

/// What replaying the manager commit log yields: the sealed ssid set, the
/// per-round `(watermark_us, sealed_at_us)` freshness, and the torn-tail
/// truncation count.
type CommitLogRecovery = (BTreeSet<u64>, BTreeMap<u64, (u64, u64)>, u64);

/// What a full-directory recovery found.
#[derive(Debug)]
pub struct WalRecovery {
    /// Sealed round ids, ascending.
    pub sealed: Vec<u64>,
    /// Per-round freshness from the seal records, ascending by round:
    /// `(ssid, watermark_us, sealed_at_us)`. Zero fields mean the seal
    /// predates freshness stamping (the original 9-byte record format).
    pub freshness: Vec<(u64, u64, u64)>,
    /// Per-store recovered versions, keyed by operator name.
    pub stores: Vec<(String, StoreRecovery)>,
    /// Torn tails truncated across all files (commit log included).
    pub torn_truncations: u64,
    /// Microseconds the replay took.
    pub elapsed_us: u64,
}

/// Owns a WAL directory: per-store segment WALs plus the store-spanning
/// commit log whose single appended seal record *is* the durable commit
/// point of a checkpoint round.
pub struct WalManager {
    shared: Arc<WalShared>,
    commit: ClassedMutex<CommitLog>,
    stores: ClassedMutex<HashMap<String, Arc<StoreWal>>>,
}

impl WalManager {
    /// A manager rooted at `root` (created on first write).
    pub fn new(root: impl Into<PathBuf>, fsync: FsyncMode, retention: usize) -> WalManager {
        WalManager {
            shared: Arc::new(WalShared {
                root: root.into(),
                fsync,
                retention: retention.max(1),
                frozen: AtomicBool::new(false),
                started: Instant::now(),
                injector: OnceLock::new(),
                metrics: OnceLock::new(),
            }),
            commit: ClassedMutex::new(
                LockClass::WalSegment,
                CommitLog {
                    file: None,
                    len: 0,
                    sealed: BTreeSet::new(),
                },
            ),
            stores: ClassedMutex::new(LockClass::GridCatalog, HashMap::new()),
        }
    }

    /// The directory this WAL writes under.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Attach the metrics registry feeding the `wal_*` instruments.
    pub fn attach_telemetry(&self, registry: &MetricsRegistry) {
        let _ = self.shared.metrics.set(WalMetrics::new(registry));
    }

    /// Attach the fault injector consulted at the `wal_*` injection
    /// points (first attach wins).
    pub fn attach_fault_injector(&self, injector: Arc<FaultInjector>) {
        let _ = self.shared.injector.set(injector);
    }

    /// Simulate a process kill: all subsequent disk writes silently no-op.
    pub fn freeze(&self) {
        self.shared.freeze();
    }

    /// Whether a durability fault froze the WAL.
    pub fn is_frozen(&self) -> bool {
        self.shared.is_frozen()
    }

    /// The per-store WAL for `operator`, creating it on first use.
    pub fn store_wal(&self, operator: &str, partitions: usize) -> Arc<StoreWal> {
        let mut stores = self.stores.lock();
        Arc::clone(stores.entry(operator.to_string()).or_insert_with(|| {
            Arc::new(StoreWal::new(
                operator,
                partitions,
                Arc::clone(&self.shared),
            ))
        }))
    }

    /// Every store WAL created so far (for `sys_wal`).
    pub fn store_stats(&self) -> Vec<WalStoreStats> {
        let mut stats: Vec<WalStoreStats> =
            self.stores.lock().values().map(|w| w.stats()).collect();
        stats.sort_by(|a, b| a.store.cmp(&b.store));
        stats
    }

    fn open_commit_log(&self, log: &mut CommitLog) -> SqResult<()> {
        if log.file.is_some() {
            return Ok(());
        }
        std::fs::create_dir_all(&self.shared.root).map_err(|e| {
            SqError::Storage(format!("WAL mkdir {:?} failed: {e}", self.shared.root))
        })?;
        let path = self.shared.root.join(COMMIT_LOG);
        let existed = path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| SqError::Storage(format!("WAL open {path:?} failed: {e}")))?;
        if existed && log.len == 0 {
            log.len = file
                .metadata()
                .map_err(|e| SqError::Storage(format!("WAL stat {path:?} failed: {e}")))?
                .len();
        }
        log.file = Some(file);
        if !existed {
            let rec = header_record(u32::MAX);
            log.file
                .as_mut()
                .expect("just set")
                .write_all(&rec)
                .map_err(|e| SqError::Storage(format!("WAL write failed: {e}")))?;
            log.len += rec.len() as u64;
            self.shared.count_write(rec.len());
        }
        Ok(())
    }

    /// Phase 2: durably seal round `ssid`. Dirty segments are fsynced
    /// first (under `OnCommit`), then one seal record is appended to the
    /// commit log — the on-disk analogue of the registry's atomic flip.
    /// Consults the `wal_seal` / `wal_sealed` injection points around the
    /// commit record.
    pub fn seal_round(&self, ssid: u64) -> SqResult<()> {
        self.seal_round_with(ssid, 0, 0)
    }

    /// [`seal_round`](Self::seal_round), stamping the commit record with the
    /// round's global low watermark and seal time (µs since the unix epoch,
    /// per the caller's rebasing) so cold-start recovery can rebuild
    /// `sys_freshness` for every surviving snapshot.
    pub fn seal_round_with(&self, ssid: u64, watermark_us: u64, sealed_at_us: u64) -> SqResult<()> {
        if self.shared.is_frozen() {
            return Ok(());
        }
        let torn = match self.shared.injector().and_then(|i| i.on_wal_seal(ssid)) {
            Some(FaultAction::FreezeWal) => {
                // Kill before the commit marker: phase-1 deltas are on
                // disk but the round never seals.
                self.shared.freeze();
                return Ok(());
            }
            Some(FaultAction::TornWrite { keep_bytes }) => Some(keep_bytes as usize),
            _ => None,
        };
        let stores: Vec<Arc<StoreWal>> = { self.stores.lock().values().cloned().collect() };
        if torn.is_none() {
            for store in &stores {
                store.mark_sealed(ssid)?;
            }
        }
        let rec = seal_record(ssid, watermark_us, sealed_at_us);
        {
            let mut log = self.commit.lock();
            self.open_commit_log(&mut log)?;
            let write = match torn {
                Some(keep) => &rec[..keep.min(rec.len() - 1).max(1)],
                None => &rec[..],
            };
            let file = log.file.as_mut().expect("commit log opened");
            file.write_all(write)
                .map_err(|e| SqError::Storage(format!("WAL commit write failed: {e}")))?;
            log.len += write.len() as u64;
            self.shared.count_write(write.len());
            if torn.is_some() {
                // The torn commit marker means the round is *not* durable;
                // freeze the disk at the kill instant.
                self.shared.freeze();
                return Ok(());
            }
            log.sealed.insert(ssid);
            let file = log.file.as_ref().expect("commit log opened");
            self.shared.maybe_fsync(file)?;
        }
        if let Some(m) = self.shared.metrics() {
            m.seals.inc();
        }
        if let Some(FaultAction::FreezeWal) =
            self.shared.injector().and_then(|i| i.on_wal_sealed(ssid))
        {
            // Kill after the commit marker: the round is durable; only the
            // in-memory side still has to publish it.
            self.shared.freeze();
        }
        Ok(())
    }

    /// Sealed rounds known to the in-memory commit-log state.
    pub fn sealed_rounds(&self) -> Vec<u64> {
        self.commit.lock().sealed.iter().copied().collect()
    }

    fn recover_commit_log(&self) -> SqResult<CommitLogRecovery> {
        let path = self.shared.root.join(COMMIT_LOG);
        let mut sealed = BTreeSet::new();
        let mut freshness: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut torn = 0u64;
        if !path.exists() {
            return Ok((sealed, freshness, torn));
        }
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| SqError::Storage(format!("WAL read {path:?} failed: {e}")))?;
        let mut off = 0usize;
        let mut keep_len = 0u64;
        let mut first = true;
        while off < bytes.len() {
            let Some((body, used)) = parse_frame(&bytes[off..]) else {
                if corruption_follows(&bytes, off) {
                    return Err(SqError::Storage(format!(
                        "corrupt WAL commit log {path:?} at offset {off}"
                    )));
                }
                break; // torn tail: the last seal never completed
            };
            if first {
                check_header(body, None, "commit log", &path)?;
                first = false;
            } else if body[0] == REC_SEAL && body.len() >= 9 {
                let ssid = u64::from_le_bytes(body[1..9].try_into().unwrap_or([0; 8]));
                sealed.insert(ssid);
                // 25-byte seals carry freshness; 9-byte legacy seals do not.
                let fresh = if body.len() >= 25 {
                    (
                        u64::from_le_bytes(body[9..17].try_into().unwrap_or([0; 8])),
                        u64::from_le_bytes(body[17..25].try_into().unwrap_or([0; 8])),
                    )
                } else {
                    (0, 0)
                };
                freshness.insert(ssid, fresh);
            }
            off += used;
            keep_len = off as u64;
        }
        if keep_len < bytes.len() as u64 {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| SqError::Storage(format!("WAL open {path:?} failed: {e}")))?;
            file.set_len(keep_len)
                .map_err(|e| SqError::Storage(format!("WAL truncate {path:?} failed: {e}")))?;
            torn += 1;
            if let Some(m) = self.shared.metrics() {
                m.torn.inc();
            }
        }
        let mut log = self.commit.lock();
        log.file = None;
        log.len = keep_len;
        log.sealed = sealed.clone();
        Ok((sealed, freshness, torn))
    }

    /// Cold-start recovery: replay the whole directory. Store WALs are
    /// created for every store subdirectory found on disk; the caller
    /// applies the returned versions to its `SnapshotStore`s and seeds the
    /// registry with the sealed rounds.
    pub fn recover(&self, partitions: usize) -> SqResult<WalRecovery> {
        let start = Instant::now();
        let (sealed, freshness, mut torn) = self.recover_commit_log()?;
        let mut stores_out = Vec::new();
        if self.shared.root.exists() {
            let mut names: Vec<String> = std::fs::read_dir(&self.shared.root)
                .map_err(|e| {
                    SqError::Storage(format!("WAL readdir {:?} failed: {e}", self.shared.root))
                })?
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect();
            names.sort();
            for name in names {
                let wal = self.store_wal(&name, partitions);
                let recovery = wal.recover(&sealed)?;
                torn += recovery.torn_truncations;
                stores_out.push((name, recovery));
            }
        }
        let elapsed_us = start.elapsed().as_micros() as u64;
        if let Some(m) = self.shared.metrics() {
            m.recover_us.record(elapsed_us);
        }
        Ok(WalRecovery {
            sealed: sealed.into_iter().collect(),
            freshness: freshness
                .into_iter()
                .map(|(ssid, (wm, at))| (ssid, wm, at))
                .collect(),
            stores: stores_out,
            torn_truncations: torn,
            elapsed_us,
        })
    }
}

/// Hook a store's WAL appends into `SnapshotStore` write paths. Kept here
/// (not in `snapshot.rs`) so the WAL protocol is reviewable in one module.
impl StoreWal {
    /// Apply a recovered version set to `store`, bypassing the WAL (the
    /// records are already on disk). The decoded entries move into the
    /// store as they are.
    pub fn apply_recovery(store: &SnapshotStore, recovery: StoreRecovery) {
        for (ssid, pid, full, entries) in recovery.versions {
            store.load_recovered(ssid, pid, full, entries);
        }
        if let Some(&min) = recovery.sealed.iter().next() {
            store.note_recovered_floor(min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery_common::fault::{FaultPlan, FaultSpec, FaultTrigger, InjectionPoint};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "squery-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Frame a record body the way every record is framed.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut rec = start_record(body[0], body.len());
        rec.extend_from_slice(&body[1..]);
        finish_record(rec)
    }

    /// A kind-1 (self-describing) delta body, as format version 1 wrote
    /// it: field names per struct and a presence byte per value.
    fn delta_body(ssid: u64, full: bool, entries: &[(Value, Option<Value>)]) -> Vec<u8> {
        let mut body = vec![REC_DELTA_NAMED];
        body.extend_from_slice(&ssid.to_le_bytes());
        body.push(u8::from(full));
        body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (key, value) in entries {
            body.extend_from_slice(&codec::encode(key));
            match value {
                Some(v) => {
                    body.push(1);
                    body.extend_from_slice(&codec::encode(v));
                }
                None => body.push(0),
            }
        }
        body
    }

    fn entries(items: &[(i64, i64)]) -> Vec<(Value, Option<Value>)> {
        items
            .iter()
            .map(|&(k, v)| (Value::Int(k), Some(Value::Int(v))))
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 reference values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The plain bytewise CRC-32 the slice-by-8 form must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn slice_by_8_crc_matches_bytewise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    /// A store whose rows use two schemas, nested structs, lists, NULL
    /// fields and tombstones.
    fn mixed_entries() -> Vec<WalEntry> {
        use squery_common::schema::Schema;
        use squery_common::DataType;
        let point = Schema::interned(vec![
            ("walLat", DataType::Float),
            ("walLon", DataType::Float),
        ]);
        let order = Schema::interned(vec![
            ("walZone", DataType::Str),
            ("walAt", DataType::Struct),
            ("walLegs", DataType::List),
            ("walNote", DataType::Any),
        ]);
        let at = Value::record(&point, vec![Value::Float(52.0), Value::Null]);
        vec![
            (
                Value::str("o1"),
                Some(Value::record(
                    &order,
                    vec![
                        Value::str("north"),
                        at.clone(),
                        Value::list(vec![at.clone(), Value::Int(2)]),
                        Value::Null,
                    ],
                )),
            ),
            (Value::Int(7), Some(at)),
            (Value::str("gone"), None),
            (Value::Int(8), Some(Value::Null)),
        ]
    }

    #[test]
    fn positional_records_roundtrip_two_schemas_and_tombstones() {
        let dir = tmpdir("positional");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
        let wal = mgr.store_wal("orders", 1);
        let written = mixed_entries();
        wal.append(1, 0, false, &written).unwrap();
        mgr.seal_round(1).unwrap();

        let rec = WalManager::new(&dir, FsyncMode::Never, 4)
            .recover(1)
            .unwrap();
        let (_, store_rec) = &rec.stores[0];
        let back = &store_rec.versions[0].3;
        assert_eq!(back, &written);
        for ((_, w), (_, b)) in written.iter().zip(back) {
            if let (Some(Value::Struct(w)), Some(Value::Struct(b))) = (w, b) {
                assert!(
                    Arc::ptr_eq(w.schema(), b.schema()),
                    "decoded into the interned schema"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_segment_with_named_deltas_still_recovers() {
        let dir = tmpdir("v1-segment");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("orders", 1);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round(1).unwrap();
            mgr.seal_round(2).unwrap();
        }
        // Rewrite the segment as format version 1 wrote it: a version-1
        // header, then kind-1 deltas with field names in every struct.
        let seg = dir.join("orders").join("part-0.wal");
        let mut header = vec![REC_HEADER];
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&1u16.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let mut bytes = frame(&header);
        bytes.extend_from_slice(&frame(&delta_body(1, true, &entries(&[(1, 10)]))));
        bytes.extend_from_slice(&frame(&delta_body(2, false, &mixed_entries())));
        std::fs::write(&seg, &bytes).unwrap();

        let rec = WalManager::new(&dir, FsyncMode::Never, 4)
            .recover(1)
            .unwrap();
        let (_, store_rec) = &rec.stores[0];
        let versions: Vec<_> = store_rec
            .versions
            .iter()
            .map(|(s, _, f, e)| (*s, *f, e))
            .collect();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0], (1, true, &entries(&[(1, 10)])));
        assert_eq!(versions[1], (2, false, &mixed_entries()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_format_version_is_a_clear_error() {
        let dir = tmpdir("bad-version");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("orders", 1);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round(1).unwrap();
        }
        let seg = dir.join("orders").join("part-0.wal");
        let mut bytes = std::fs::read(&seg).unwrap();
        let (header, used) = parse_frame(&bytes).unwrap();
        let mut header = header.to_vec();
        header[5..7].copy_from_slice(&9u16.to_le_bytes());
        bytes.splice(..used, frame(&header));
        std::fs::write(&seg, &bytes).unwrap();

        let err = WalManager::new(&dir, FsyncMode::Never, 4)
            .recover(1)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("format version 9") && msg.contains("[1, 2]"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_count_mismatch_in_a_sealed_record_is_a_hard_error() {
        use squery_common::schema::Schema;
        use squery_common::DataType;
        let pair = Schema::interned(vec![("walA", DataType::Int), ("walB", DataType::Int)]);
        let row = vec![(
            Value::Int(1),
            Some(Value::record(&pair, vec![Value::Int(5), Value::Int(6)])),
        )];
        // The record's schema table declares one field fewer, or one more,
        // than each struct carries; the CRC is valid either way.
        for declared in [1usize, 3] {
            let dir = tmpdir(&format!("arity-{declared}"));
            {
                let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
                let wal = mgr.store_wal("orders", 1);
                wal.append(1, 0, true, &row).unwrap();
                mgr.seal_round(1).unwrap();
                wal.append(2, 0, false, &entries(&[(2, 20)])).unwrap();
                mgr.seal_round(2).unwrap();
            }
            let seg = dir.join("orders").join("part-0.wal");
            let bytes = std::fs::read(&seg).unwrap();
            let (_, header_len) = parse_frame(&bytes).unwrap();
            let (body, used) = parse_frame(&bytes[header_len..]).unwrap();
            // body: kind, ssid, full, then the table: 1 schema of 2 fields.
            assert_eq!(&body[10..12], &[1, 2]);
            let mut body = body.to_vec();
            body[11] = declared as u8;
            if declared == 3 {
                let extra = [4, b'w', b'a', b'l', b'C', DataType::Int.code()];
                let end = 12 + (1 + 4 + 1) * 2;
                body.splice(end..end, extra);
            } else {
                body.drain(12 + 6..12 + 12);
            }
            let mut out = bytes[..header_len].to_vec();
            out.extend_from_slice(&frame(&body));
            out.extend_from_slice(&bytes[header_len + used..]);
            std::fs::write(&seg, &out).unwrap();

            let err = WalManager::new(&dir, FsyncMode::Never, 4)
                .recover(1)
                .unwrap_err();
            assert!(matches!(err, SqError::Storage(_)), "{err:?}");
            assert!(
                err.to_string().contains("corrupt WAL delta record"),
                "{err}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn frame_roundtrip_and_rejects_flips() {
        let body = delta_body(7, true, &entries(&[(1, 10), (2, 20)]));
        let rec = frame(&body);
        let (parsed, used) = parse_frame(&rec).expect("valid frame parses");
        assert_eq!(parsed, &body[..]);
        assert_eq!(used, rec.len());
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 0x40;
            if let Some((body2, _)) = parse_frame(&bad) {
                panic!("flipped byte {i} still parsed: {body2:?}");
            }
        }
    }

    #[test]
    fn seal_then_recover_roundtrips() {
        let dir = tmpdir("roundtrip");
        let mgr = WalManager::new(&dir, FsyncMode::OnCommit, 4);
        let wal = mgr.store_wal("count", 4);
        wal.append(1, 0, true, &entries(&[(1, 10), (2, 20)]))
            .unwrap();
        wal.append(1, 3, true, &entries(&[(9, 90)])).unwrap();
        mgr.seal_round(1).unwrap();
        wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
        mgr.seal_round(2).unwrap();

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(4).unwrap();
        assert_eq!(rec.sealed, vec![1, 2]);
        assert_eq!(rec.torn_truncations, 0);
        let (name, store_rec) = &rec.stores[0];
        assert_eq!(name, "count");
        assert_eq!(
            store_rec.sealed.iter().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );
        let v: Vec<_> = store_rec
            .versions
            .iter()
            .map(|(s, p, f, e)| (*s, *p, *f, e.len()))
            .collect();
        assert!(v.contains(&(1, 0, true, 2)));
        assert!(v.contains(&(1, 3, true, 1)));
        assert!(v.contains(&(2, 0, false, 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_freshness_survives_recovery() {
        let dir = tmpdir("freshness");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("count", 1);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round_with(1, 111_000, 222_000).unwrap();
            wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
            // A plain seal records unknown (zero) freshness.
            mgr.seal_round(2).unwrap();
        }
        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        assert_eq!(rec.sealed, vec![1, 2]);
        assert_eq!(rec.freshness, vec![(1, 111_000, 222_000), (2, 0, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_nine_byte_seal_records_still_recover() {
        let dir = tmpdir("legacy-seal");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("count", 1);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round_with(1, 5, 6).unwrap();
        }
        // Append a pre-freshness 9-byte seal for round 7 by hand, exactly
        // as the original format wrote it.
        let mut body = vec![REC_SEAL];
        body.extend_from_slice(&7u64.to_le_bytes());
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(COMMIT_LOG))
            .unwrap();
        f.write_all(&frame(&body)).unwrap();
        drop(f);

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        assert_eq!(rec.sealed, vec![1, 7]);
        assert_eq!(rec.freshness, vec![(1, 5, 6), (7, 0, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_tail_is_discarded_and_truncated() {
        let dir = tmpdir("unsealed");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("count", 2);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round(1).unwrap();
            // Phase-1 deltas of round 2 hit the disk, but the process dies
            // before the commit marker.
            wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
            wal.append(2, 1, false, &entries(&[(2, 22)])).unwrap();
        }
        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(2).unwrap();
        assert_eq!(rec.sealed, vec![1]);
        let (_, store_rec) = &rec.stores[0];
        assert!(store_rec.versions.iter().all(|(s, ..)| *s == 1));
        // The unsealed deltas were physically truncated.
        let mgr3 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec2 = mgr3.recover(2).unwrap();
        let (_, store_rec2) = &rec2.stores[0];
        assert_eq!(store_rec2.versions.len(), store_rec.versions.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_sealed_version() {
        let dir = tmpdir("torn");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("count", 1);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round(1).unwrap();
        }
        // A kill mid-append: half a record lands at the tail.
        let seg = dir.join("count").join("part-0.wal");
        let torn_rec = frame(&delta_body(2, false, &entries(&[(1, 11)])));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&torn_rec[..torn_rec.len() / 2]).unwrap();
        drop(f);
        let before = std::fs::metadata(&seg).unwrap().len();

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        assert_eq!(rec.sealed, vec![1]);
        assert_eq!(rec.torn_truncations, 1);
        let (_, store_rec) = &rec.stores[0];
        assert_eq!(store_rec.versions.len(), 1);
        assert_eq!(store_rec.versions[0].0, 1);
        let after = std::fs::metadata(&seg).unwrap().len();
        assert!(after < before, "torn tail must be physically truncated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_flip_in_sealed_region_is_a_hard_error() {
        let dir = tmpdir("flip");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("count", 1);
            wal.append(1, 0, true, &entries(&[(1, 10), (2, 20)]))
                .unwrap();
            mgr.seal_round(1).unwrap();
            wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
            mgr.seal_round(2).unwrap();
        }
        let seg = dir.join("count").join("part-0.wal");
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a byte inside the *first* delta's body: valid records follow,
        // so this is at-rest corruption of committed data, not a torn tail.
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let err = mgr2.recover(1).unwrap_err();
        assert!(
            err.to_string().contains("corrupt"),
            "expected a corruption error, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_commit_log_drops_the_last_seal() {
        let dir = tmpdir("commit-torn");
        {
            let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
            let wal = mgr.store_wal("count", 1);
            wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
            mgr.seal_round(1).unwrap();
            wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
            mgr.seal_round(2).unwrap();
        }
        // Cut the commit log mid-way through the final seal record.
        let commit = dir.join(COMMIT_LOG);
        let len = std::fs::metadata(&commit).unwrap().len();
        let f = OpenOptions::new().write(true).open(&commit).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        assert_eq!(rec.sealed, vec![1], "the torn seal must not count");
        assert!(rec.torn_truncations >= 1);
        let (_, store_rec) = &rec.stores[0];
        assert!(store_rec.versions.iter().all(|(s, ..)| *s == 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_truncates_back_to_sealed_watermark() {
        let dir = tmpdir("discard");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
        let wal = mgr.store_wal("count", 1);
        wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
        mgr.seal_round(1).unwrap();
        let seg = dir.join("count").join("part-0.wal");
        let sealed_len = std::fs::metadata(&seg).unwrap().len();
        wal.append(2, 0, false, &entries(&[(1, 11), (2, 22)]))
            .unwrap();
        assert!(std::fs::metadata(&seg).unwrap().len() > sealed_len);
        wal.discard(2);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), sealed_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_below_horizon_and_survives_recovery() {
        let dir = tmpdir("compact");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 1);
        let wal = mgr.store_wal("count", 1);
        wal.append(1, 0, true, &entries(&[(1, 10), (2, 20)]))
            .unwrap();
        mgr.seal_round(1).unwrap();
        wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
        mgr.seal_round(2).unwrap();
        wal.append(3, 0, false, &entries(&[(2, 23)])).unwrap();
        mgr.seal_round(3).unwrap();
        // Horizon 2: versions 1 and 2 fold into a full base at 2.
        wal.maybe_compact(2).unwrap();

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        let (_, store_rec) = &rec.stores[0];
        let ssids: BTreeSet<u64> = store_rec.versions.iter().map(|(s, ..)| *s).collect();
        assert_eq!(ssids.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
        let base = store_rec
            .versions
            .iter()
            .find(|(s, _, full, _)| *s == 2 && *full)
            .expect("folded base at the horizon");
        let mut folded = base.3.clone();
        folded.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            folded,
            vec![
                (Value::Int(1), Some(Value::Int(11))),
                (Value::Int(2), Some(Value::Int(20)))
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_compaction_keeps_the_old_segment() {
        let dir = tmpdir("compact-kill");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 1);
        let plan = FaultPlan::new(0).with(FaultSpec {
            point: InjectionPoint::WalCompact,
            action: FaultAction::FreezeWal,
            trigger: FaultTrigger::default(),
            once: true,
        });
        mgr.attach_fault_injector(Arc::new(FaultInjector::new(plan)));
        let wal = mgr.store_wal("count", 1);
        wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
        mgr.seal_round(1).unwrap();
        wal.append(2, 0, false, &entries(&[(1, 12)])).unwrap();
        mgr.seal_round(2).unwrap();
        // The kill fires after the .tmp replacement exists, before rename.
        wal.maybe_compact(2).unwrap();
        assert!(mgr.is_frozen());
        assert!(dir.join("count").join("part-0.wal.tmp").exists());

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        let (_, store_rec) = &rec.stores[0];
        let ssids: BTreeSet<u64> = store_rec.versions.iter().map(|(s, ..)| *s).collect();
        assert_eq!(
            ssids.iter().copied().collect::<Vec<_>>(),
            vec![1, 2],
            "old segment must still replay both versions"
        );
        assert!(
            !dir.join("count").join("part-0.wal.tmp").exists(),
            "recovery removes the orphaned replacement"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frozen_wal_absorbs_all_writes() {
        let dir = tmpdir("frozen");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
        let wal = mgr.store_wal("count", 1);
        wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
        mgr.seal_round(1).unwrap();
        let seg = dir.join("count").join("part-0.wal");
        let len = std::fs::metadata(&seg).unwrap().len();
        mgr.freeze();
        wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
        mgr.seal_round(2).unwrap();
        wal.discard(2);
        wal.maybe_compact(2).unwrap();
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            len,
            "a frozen WAL must leave the disk byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_leaves_a_recoverable_torn_tail() {
        let dir = tmpdir("torn-fault");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
        let plan = FaultPlan::new(0).with(FaultSpec {
            point: InjectionPoint::WalAppend,
            action: FaultAction::TornWrite { keep_bytes: 7 },
            trigger: FaultTrigger {
                at_ssid: Some(2),
                ..FaultTrigger::default()
            },
            once: true,
        });
        mgr.attach_fault_injector(Arc::new(FaultInjector::new(plan)));
        let wal = mgr.store_wal("count", 1);
        wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
        mgr.seal_round(1).unwrap();
        wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
        assert!(mgr.is_frozen());

        let mgr2 = WalManager::new(&dir, FsyncMode::Never, 4);
        let rec = mgr2.recover(1).unwrap();
        assert_eq!(rec.sealed, vec![1]);
        assert_eq!(rec.torn_truncations, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_segments_bytes_and_sealed_range() {
        let dir = tmpdir("stats");
        let mgr = WalManager::new(&dir, FsyncMode::Never, 4);
        let wal = mgr.store_wal("count", 4);
        wal.append(1, 0, true, &entries(&[(1, 10)])).unwrap();
        wal.append(1, 2, true, &entries(&[(5, 50)])).unwrap();
        mgr.seal_round(1).unwrap();
        wal.append(2, 0, false, &entries(&[(1, 11)])).unwrap();
        mgr.seal_round(2).unwrap();
        let stats = mgr.store_stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.store, "count");
        assert_eq!(s.segments, 2);
        assert!(s.bytes > 0);
        assert_eq!(s.sealed_min, Some(1));
        assert_eq!(s.sealed_max, Some(2));
        assert_eq!(s.torn_truncations, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
