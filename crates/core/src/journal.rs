//! Write-ahead observation journal: crash-safe campaign persistence.
//!
//! Every completed [`DomainProbe`] is appended to an on-disk journal as
//! a length-prefixed, checksummed JSON record, and the mutable pipeline
//! state (rate-limiter ledger, network accounting, resolver cache,
//! circuit breakers) is checkpointed every few probes. A campaign killed
//! mid-flight is resumed by replaying the journal: the runner restores
//! the checkpointed state, fills in the already-probed domains, and
//! re-probes only the remainder — producing a dataset byte-identical to
//! the uninterrupted run (see `runner.rs`).
//!
//! # Record framing
//!
//! ```text
//! J1 <16-hex fnv64(payload)> <8-hex payload length>\n
//! <payload>\n
//! ```
//!
//! The payload is a single JSON object with a `"kind"` field: `header`
//! (config echo + discovered-name fingerprint, always first), `probe`
//! (one observation), `checkpoint` (full pipeline state), `delta` (only
//! the state that changed since the previous state record), `resumed`
//! (a resume boundary marker), or `complete` (clean end-of-campaign).
//! A torn or corrupt tail — the half-written record a crash leaves
//! behind — fails its length or checksum test and is silently dropped;
//! everything before it is intact by construction (records are flushed
//! in order). A record that passes its checksum but fails to decode is
//! a version mismatch: [`JournalReplay::try_load`] returns it as an
//! error.
//!
//! # Delta chains
//!
//! A campaign journal opens with one full `checkpoint` (the base) and
//! then records a [`Delta`] every few probes: the limiter totals and the
//! traffic and fault counters in full, plus only the per-destination
//! entries and breaker slots that moved and the capturing worker's cache
//! inserts and evictions. Replay folds the deltas onto the base in file
//! order; each worker's cache chain starts from the base cache. A
//! `resumed` marker restarts the fold from the best state so far, which
//! is what the resuming process restored. Journals written before deltas
//! existed hold only full checkpoints and replay as before.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use govdns_model::json::{self, Json};
use govdns_model::{DomainName, RecordData, RecordType, ResourceRecord, Soa};
use govdns_simnet::{CacheChanges, CacheEntry, FaultStats, TrafficStats};

use crate::probe::{
    BreakerPhase, BreakerSnapshot, DomainProbe, ResponseClass, ServerObservation, ServerProbe,
};
use crate::ratelimit::LimiterState;

/// Where (and how often) a campaign journals itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSpec {
    /// Journal file path (created/truncated at campaign start).
    pub path: PathBuf,
    /// Checkpoint cadence, in completed probes: each periodic checkpoint
    /// is a [`Delta`] of what changed since the previous one. The journal
    /// also opens with a full checkpoint and writes another when the
    /// probing loop drains.
    pub checkpoint_every: usize,
    /// Buffered probe bytes that trigger a flush
    /// ([`DEFAULT_FLUSH_THRESHOLD`] unless overridden). Zero degrades
    /// to a flush after every probe record — maximum durability, one
    /// write syscall per probe.
    pub flush_threshold: usize,
}

impl JournalSpec {
    /// A spec with the default checkpoint cadence (every 32 probes) and
    /// flush threshold.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalSpec {
            path: path.into(),
            checkpoint_every: 32,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        }
    }

    /// Sets the probe append-buffer flush threshold (builder style).
    #[must_use]
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold = bytes;
        self
    }
}

/// The journal's first record: enough of the campaign's identity to
/// refuse resuming against a different campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// FNV-1a fingerprint of the discovered (sorted) domain list.
    pub names_fingerprint: u64,
    /// Number of domains the campaign will probe.
    pub domains: u64,
    /// A deterministic echo of every `RunnerConfig` knob that shapes
    /// observations (worker count excluded — it may legally differ
    /// between the crashed and the resuming run).
    pub config_echo: String,
}

/// A full-state checkpoint: everything the pipeline mutates while
/// probing, captured after `probes_done` completed probes.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed probes at capture time.
    pub probes_done: u64,
    /// Rate-limiter ledger (issued totals, per-round, per-destination,
    /// retry budgets).
    pub limiter: LimiterState,
    /// Network traffic accounting.
    pub traffic: TrafficStats,
    /// Injected-fault accounting.
    pub faults: FaultStats,
    /// Per-destination query counts (feeds `RefusedBurst` decisions and
    /// the busiest-destinations toplist).
    pub net_per_destination: Vec<(Ipv4Addr, u64)>,
    /// Stub-resolver cache entries, in export order (each carries its
    /// virtual-clock expiry).
    pub cache: Vec<((DomainName, RecordType), CacheEntry)>,
    /// The resolver's virtual clock at capture time, seconds. Campaigns
    /// leave it at zero; recovery sweeps advance it, and resume must
    /// restore it before re-importing the cache so expiry decisions
    /// replay identically. Old journals without the field decode as
    /// zero.
    pub clock_s: u64,
    /// Circuit-breaker bank state.
    pub breakers: Vec<BreakerSnapshot>,
}

/// A delta checkpoint: the pipeline state that changed since the
/// previous state record, captured by one worker after `probes_done`
/// completed probes. Folded onto the journal's base [`Checkpoint`] in
/// file order, it yields the full checkpoint that worker would have
/// captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Completed probes at capture time.
    pub probes_done: u64,
    /// The capturing worker's index: its cache chain is separate.
    pub worker: u64,
    /// Limiter totals and per-round counts in full; the per-destination
    /// maps hold only the entries that moved, at their current values.
    pub limiter: LimiterState,
    /// Network traffic accounting, in full.
    pub traffic: TrafficStats,
    /// Injected-fault accounting, in full.
    pub faults: FaultStats,
    /// Per-destination query counts that moved, at their current values.
    pub net_per_destination: Vec<(Ipv4Addr, u64)>,
    /// The capturing worker's resolver-cache inserts and evictions.
    pub cache: CacheChanges,
    /// The capturing worker's virtual clock, seconds.
    pub clock_s: u64,
    /// Breaker slots that changed.
    pub breakers: Vec<BreakerSnapshot>,
}

/// Appends records to a journal file.
///
/// Probe appends are buffered (flushed once the buffer passes the
/// spec's flush threshold, [`DEFAULT_FLUSH_THRESHOLD`] by default) so a
/// high-throughput campaign does not pay one syscall + fsync-adjacent
/// flush per probe; every durability boundary — header, checkpoint,
/// resume marker, completion — flushes the buffer explicitly, so a kill
/// between probes can lose at most the tail written since the last
/// checkpoint, which is exactly the window checkpoint replay already
/// tolerates.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    records: u64,
    /// Framed records accepted but not yet written to the OS.
    buf: Vec<u8>,
    /// Buffered bytes that trigger a flush after a probe append.
    flush_threshold: usize,
}

/// Default buffered probe bytes that trigger a flush; checkpoints and
/// drops flush regardless of the threshold.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created or written — a campaign
    /// that cannot persist its journal must fail loudly, not silently
    /// lose crash safety.
    pub fn create(path: &Path, header: &JournalHeader) -> Self {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("journal: cannot create {}: {e}", path.display()));
        let mut w = JournalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
            buf: Vec::new(),
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        };
        w.write_record(&header_to_value(header));
        w.flush();
        w
    }

    /// Opens an existing journal for appending after its first
    /// `intact_len` bytes (the resume-in-place path); the caller has
    /// already validated its header. Whatever follows — the torn tail a
    /// crash left, `dropped_bytes` of its replay — is cut off first:
    /// replay stops at the first bad frame, so records appended after
    /// torn bytes would be unreachable.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be opened or truncated.
    pub fn append_to(path: &Path, intact_len: u64) -> Self {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|f| f.set_len(intact_len).map(|()| f))
            .unwrap_or_else(|e| panic!("journal: cannot append to {}: {e}", path.display()));
        JournalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
            buf: Vec::new(),
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
        }
    }

    /// Overrides the probe append-buffer flush threshold (builder
    /// style). Zero flushes after every probe record.
    #[must_use]
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold = bytes;
        self
    }

    /// Appends one completed probe, with its position in the campaign's
    /// domain order. Buffered: becomes durable at the next flush point
    /// (a checkpoint, an explicit [`flush`](JournalWriter::flush), drop,
    /// or the buffer passing the flush threshold).
    pub fn probe(&mut self, index: u64, probe: &DomainProbe) {
        self.write_record(&Json::obj(vec![
            ("kind", Json::from("probe")),
            ("index", num(index)),
            ("probe", probe_to_value(probe)),
        ]));
        if self.buf.len() >= self.flush_threshold {
            self.flush();
        }
    }

    /// Appends a full-state checkpoint and flushes: checkpoints are the
    /// durability boundary a resumed campaign restarts from.
    pub fn checkpoint(&mut self, cp: &Checkpoint) {
        self.write_record(&checkpoint_to_value(cp));
        self.flush();
    }

    /// Appends a delta checkpoint and flushes. Deltas chain: each holds
    /// only what changed since the state record before it, so they must
    /// be appended in capture order after a full base checkpoint.
    pub fn delta(&mut self, delta: &Delta) {
        self.write_record(&delta_to_value(delta));
        self.flush();
    }

    /// Marks a resume boundary: a fresh process picked the campaign up
    /// with `probes_done` observations already replayed. Flushes.
    pub fn resumed(&mut self, probes_done: u64) {
        self.write_record(&Json::obj(vec![
            ("kind", Json::from("resumed")),
            ("probes_done", num(probes_done)),
        ]));
        self.flush();
    }

    /// Marks a clean end of campaign after `probes` observations.
    /// Flushes.
    pub fn complete(&mut self, probes: u64) {
        self.write_record(&Json::obj(vec![
            ("kind", Json::from("complete")),
            ("probes", num(probes)),
        ]));
        self.flush();
    }

    /// Records written through this writer (excludes replayed history).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Writes every buffered record to the OS.
    ///
    /// # Panics
    ///
    /// Panics if the write fails — same loud-failure contract as
    /// [`create`](JournalWriter::create).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.file
            .write_all(&self.buf)
            .and_then(|()| self.file.flush())
            .unwrap_or_else(|e| panic!("journal: write to {} failed: {e}", self.path.display()));
        self.buf.clear();
    }

    fn write_record(&mut self, value: &Json) {
        let mut payload = String::new();
        value.encode(&mut payload);
        let _ = write!(
            self.buf,
            "J1 {:016x} {:08x}\n{payload}\n",
            fnv64(payload.as_bytes()),
            payload.len()
        );
        self.records += 1;
    }
}

impl Drop for JournalWriter {
    /// Best-effort flush of any buffered tail; a panic mid-campaign
    /// still lands everything written so far, while a hard kill falls
    /// back to the last checkpoint as designed.
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let _ = self.file.write_all(&self.buf).and_then(|()| self.file.flush());
            self.buf.clear();
        }
    }
}

/// Everything a journal replay recovered, ready for the runner to
/// resume from.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// The validated header.
    pub header: JournalHeader,
    /// The contiguous prefix of completed probes (index 0..n in
    /// campaign domain order).
    pub probes: Vec<DomainProbe>,
    /// The most advanced state record whose `probes_done` does not
    /// exceed the contiguous probe prefix, as a full checkpoint (a delta
    /// is folded onto its base).
    pub checkpoint: Option<Checkpoint>,
    /// Valid records read (all kinds).
    pub records: u64,
    /// Bytes of torn/corrupt tail dropped.
    pub dropped_bytes: u64,
    /// Resume boundaries already present in the journal.
    pub resumes: u64,
    /// Whether the journal ends in a clean `complete` record.
    pub completed: bool,
}

impl JournalReplay {
    /// Reads and validates a journal; see [`try_load`](Self::try_load).
    ///
    /// # Panics
    ///
    /// Panics with the error [`try_load`](Self::try_load) returns.
    pub fn load(path: &Path) -> Self {
        Self::try_load(path).unwrap_or_else(|e| panic!("journal: {e}"))
    }

    /// Reads and validates a journal.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be read, does not begin with a valid
    /// header record, or contains a checksummed record that fails to
    /// decode (a format-version mismatch).
    pub fn try_load(path: &Path) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut offset = 0usize;
        let mut records: Vec<Json> = Vec::new();
        // A frame that fails its length or checksum test is the torn
        // tail: drop it and everything after it.
        while let Some((payload, next)) = read_frame(bytes, offset) {
            records
                .push(json::parse(payload).map_err(|e| format!("record {}: {e}", records.len()))?);
            offset = next;
        }
        let dropped_bytes = (bytes.len() - offset) as u64;
        let first = records.first().ok_or("has no intact records")?;
        if first.get("kind").and_then(Json::as_str) != Some("header") {
            return Err("does not begin with a header record".to_owned());
        }
        let header = header_from_value(first).map_err(|e| format!("record 0: {e}"))?;

        let mut replay = JournalReplay {
            header,
            probes: Vec::new(),
            checkpoint: None,
            records: records.len() as u64,
            dropped_bytes,
            resumes: 0,
            completed: false,
        };
        let mut links = StateLinks::default();
        for (i, record) in records.iter().enumerate().skip(1) {
            replay.apply(i, record, &mut links).map_err(|e| format!("record {i}: {e}"))?;
        }
        if let Some((best, _)) = links.best {
            replay.checkpoint = Some(links.materialize(&records, best)?);
        }
        Ok(replay)
    }

    fn apply(&mut self, i: usize, record: &Json, links: &mut StateLinks) -> Result<(), String> {
        match record.need_str("kind")? {
            "probe" => {
                // Only the contiguous prefix is trustworthy: with a
                // single worker this is every record, with many it is
                // everything up to the first gap.
                if record.need_u64("index")? == self.probes.len() as u64 {
                    self.probes.push(probe_from_value(record.need("probe")?)?);
                }
            }
            "checkpoint" => {
                let done = checkpoint_from_value(record)?.probes_done;
                links.tip = Some(i);
                links.resumed = false;
                links.offer(i, done, self.probes.len());
            }
            "delta" => {
                let done = delta_from_value(record)?.probes_done;
                // A delta with no base before it cannot be materialised.
                if let Some(tip) = links.tip {
                    links.parents.insert(i, (tip, links.resumed));
                    links.tip = Some(i);
                    links.resumed = false;
                    links.offer(i, done, self.probes.len());
                }
            }
            "resumed" => {
                // The resuming process restored the best state so far:
                // the deltas it goes on to write chain from there.
                self.resumes += 1;
                links.tip = links.best.map(|(best, _)| best);
                links.resumed = true;
            }
            "complete" => self.completed = true,
            kind => return Err(format!("unknown record kind {kind:?}")),
        }
        Ok(())
    }
}

/// What one scan of the journal learns about its state records, so that
/// only the chosen checkpoint's chain is folded, once.
#[derive(Debug, Default)]
struct StateLinks {
    /// The best state record so far, with its `probes_done`.
    best: Option<(usize, u64)>,
    /// The state record the next delta applies to.
    tip: Option<usize>,
    /// Whether a `resumed` marker sits between `tip` and the next delta.
    resumed: bool,
    /// Each chained delta's record index → the state record it applies
    /// to, and whether a resume boundary lies between them.
    parents: HashMap<usize, (usize, bool)>,
}

impl StateLinks {
    /// Makes record `i` the best so far if it does not run ahead of the
    /// probe prefix and is at least as advanced (ties go to the later).
    fn offer(&mut self, i: usize, done: u64, prefix: usize) {
        if done <= prefix as u64 && self.best.is_none_or(|(_, b)| done >= b) {
            self.best = Some((i, done));
        }
    }

    /// Folds the chain ending at record `target` into a full checkpoint.
    fn materialize(&self, records: &[Json], target: usize) -> Result<Checkpoint, String> {
        let mut chain = vec![target];
        while let Some(&(parent, _)) = chain.last().and_then(|i| self.parents.get(i)) {
            chain.push(parent);
        }
        let base_index = chain.pop().unwrap_or(target);
        let decode_err = |i: usize| move |e: String| format!("record {i}: {e}");
        let base = checkpoint_from_value(&records[base_index]).map_err(decode_err(base_index))?;
        if chain.is_empty() {
            return Ok(base);
        }
        let mut fold = Fold::new(base);
        for &i in chain.iter().rev() {
            if self.parents.get(&i).is_some_and(|&(_, resumed)| resumed) {
                fold.rebase();
            }
            fold.apply(delta_from_value(&records[i]).map_err(decode_err(i))?);
        }
        Ok(fold.finish())
    }
}

type CacheMap = BTreeMap<(DomainName, RecordType), CacheEntry>;

/// The entries a resolver whose clock reads `clock_s` keeps when it
/// imports `cache` (see `StubResolver::import_cache`).
fn unexpired(
    cache: impl IntoIterator<Item = ((DomainName, RecordType), CacheEntry)>,
    clock_s: u64,
) -> CacheMap {
    cache.into_iter().filter(|(_, e)| e.expires_at_s > clock_s).collect()
}

/// A base checkpoint with deltas folded on top, in file order.
struct Fold {
    /// The latest state's scalar fields. Its cache is `caches[worker]`
    /// of the last delta folded in.
    head: Checkpoint,
    worker: u64,
    per_destination: BTreeMap<Ipv4Addr, u64>,
    per_destination_retries: BTreeMap<Ipv4Addr, u64>,
    net_per_destination: BTreeMap<Ipv4Addr, u64>,
    breakers: BTreeMap<Ipv4Addr, BreakerSnapshot>,
    /// Where every worker's cache chain starts: the cache each worker of
    /// the process that wrote the deltas imported (entries unexpired at
    /// the clock it was restored at).
    chain_base: CacheMap,
    caches: HashMap<u64, CacheMap>,
}

impl Fold {
    fn new(mut base: Checkpoint) -> Self {
        let take = |v: &mut Vec<(Ipv4Addr, u64)>| std::mem::take(v).into_iter().collect();
        Fold {
            per_destination: take(&mut base.limiter.per_destination),
            per_destination_retries: take(&mut base.limiter.per_destination_retries),
            net_per_destination: take(&mut base.net_per_destination),
            breakers: std::mem::take(&mut base.breakers).into_iter().map(|b| (b.addr, b)).collect(),
            chain_base: unexpired(std::mem::take(&mut base.cache), base.clock_s),
            caches: HashMap::new(),
            worker: 0,
            head: base,
        }
    }

    /// Restarts every worker's cache chain from the head state — a
    /// resume boundary: each worker of the resuming process imported the
    /// restored checkpoint's cache.
    fn rebase(&mut self) {
        if let Some(cache) = self.caches.remove(&self.worker) {
            self.chain_base = unexpired(cache, self.head.clock_s);
        }
        self.caches.clear();
    }

    fn apply(&mut self, delta: Delta) {
        let head = &mut self.head;
        head.probes_done = delta.probes_done;
        head.limiter.issued = delta.limiter.issued;
        head.limiter.per_round = delta.limiter.per_round;
        head.traffic = delta.traffic;
        head.faults = delta.faults;
        head.clock_s = delta.clock_s;
        self.per_destination.extend(delta.limiter.per_destination);
        self.per_destination_retries.extend(delta.limiter.per_destination_retries);
        self.net_per_destination.extend(delta.net_per_destination);
        self.breakers.extend(delta.breakers.into_iter().map(|b| (b.addr, b)));
        let chain_base = &self.chain_base;
        let cache = self.caches.entry(delta.worker).or_insert_with(|| chain_base.clone());
        for key in &delta.cache.evicted {
            cache.remove(key);
        }
        cache.extend(delta.cache.inserted);
        self.worker = delta.worker;
    }

    fn finish(mut self) -> Checkpoint {
        let mut cp = self.head;
        cp.limiter.per_destination = self.per_destination.into_iter().collect();
        cp.limiter.per_destination_retries = self.per_destination_retries.into_iter().collect();
        cp.net_per_destination = self.net_per_destination.into_iter().collect();
        cp.breakers = self.breakers.into_values().collect();
        cp.cache = self.caches.remove(&self.worker).unwrap_or_default().into_iter().collect();
        cp
    }
}

/// Reads one frame starting at `offset`; returns the payload slice and
/// the offset past the frame, or `None` if the frame is incomplete or
/// fails its checksum.
fn read_frame(bytes: &[u8], offset: usize) -> Option<(&str, usize)> {
    // "J1 " + 16 hex + " " + 8 hex + "\n" = 29 bytes.
    let head = bytes.get(offset..offset + 29)?;
    if &head[..3] != b"J1 " || head[19] != b' ' || head[28] != b'\n' {
        return None;
    }
    let sum = u64::from_str_radix(std::str::from_utf8(&head[3..19]).ok()?, 16).ok()?;
    let len = usize::from_str_radix(std::str::from_utf8(&head[20..28]).ok()?, 16).ok()?;
    let start = offset + 29;
    let payload = bytes.get(start..start + len)?;
    if bytes.get(start + len) != Some(&b'\n') || fnv64(payload) != sum {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, start + len + 1))
}

/// The record checksum: the workspace's one FNV-1a, re-exported here
/// for callers that reach it through the journal.
pub use govdns_model::fnv64;

// ---------------------------------------------------------------------
// Codecs over `govdns_model::json`. Encoders build objects with keys in
// a fixed order, keeping encoding deterministic. Decoders look keys up
// by name and return an error naming what is missing or malformed: a
// checksummed record that fails to decode is a format-version mismatch,
// not a torn write, and `JournalReplay::try_load` returns it as an error.
// ---------------------------------------------------------------------

fn num(n: impl Into<u64>) -> Json {
    Json::from(n.into())
}

fn need_int<T: TryFrom<u64>>(value: &Json, key: &str) -> Result<T, String> {
    T::try_from(value.need_u64(key)?).map_err(|_| format!("field `{key}` is out of range"))
}

/// Decodes every element of the array field `key`.
fn list<T>(
    value: &Json,
    key: &str,
    decode: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    value.need_arr(key)?.iter().map(decode).collect()
}

fn name_to_value(name: &DomainName) -> Json {
    Json::Str(name.to_string())
}

fn name_from_value(value: &Json) -> Result<DomainName, String> {
    let s = value.as_str().ok_or("name is not a string")?;
    s.parse().map_err(|e| format!("bad domain name {s:?}: {e:?}"))
}

fn addr_to_value(addr: Ipv4Addr) -> Json {
    Json::Str(addr.to_string())
}

fn addr_from_value(value: &Json) -> Result<Ipv4Addr, String> {
    let s = value.as_str().ok_or("address is not a string")?;
    s.parse().map_err(|e| format!("bad address {s:?}: {e}"))
}

fn addr_counts_to_value(counts: &[(Ipv4Addr, u64)]) -> Json {
    Json::Arr(
        counts.iter().map(|&(addr, n)| Json::Arr(vec![addr_to_value(addr), num(n)])).collect(),
    )
}

fn addr_count_from_value(pair: &Json) -> Result<(Ipv4Addr, u64), String> {
    let Some([addr, n]) = pair.as_arr() else {
        return Err("address count is not a pair".to_owned());
    };
    Ok((addr_from_value(addr)?, n.as_u64().ok_or("address count is not a u64")?))
}

fn header_to_value(header: &JournalHeader) -> Json {
    Json::obj(vec![
        ("kind", Json::from("header")),
        ("names_fingerprint", num(header.names_fingerprint)),
        ("domains", num(header.domains)),
        ("config_echo", Json::from(header.config_echo.as_str())),
    ])
}

fn header_from_value(value: &Json) -> Result<JournalHeader, String> {
    Ok(JournalHeader {
        names_fingerprint: value.need_u64("names_fingerprint")?,
        domains: value.need_u64("domains")?,
        config_echo: value.need_str("config_echo")?.to_owned(),
    })
}

fn class_to_value(class: &ResponseClass) -> Json {
    match class {
        ResponseClass::Authoritative(targets) => Json::obj(vec![
            ("t", Json::from("auth")),
            ("targets", Json::Arr(targets.iter().map(name_to_value).collect())),
        ]),
        ResponseClass::Referral { cut, targets, glue } => Json::obj(vec![
            ("t", Json::from("referral")),
            ("cut", name_to_value(cut)),
            ("targets", Json::Arr(targets.iter().map(name_to_value).collect())),
            (
                "glue",
                Json::Arr(
                    glue.iter()
                        .map(|(host, addr)| {
                            Json::Arr(vec![name_to_value(host), addr_to_value(*addr)])
                        })
                        .collect(),
                ),
            ),
        ]),
        ResponseClass::Empty(rcode) => {
            Json::obj(vec![("t", Json::from("empty")), ("rcode", num(*rcode))])
        }
        ResponseClass::Rejected(rcode) => {
            Json::obj(vec![("t", Json::from("rejected")), ("rcode", num(*rcode))])
        }
        ResponseClass::Truncated => Json::obj(vec![("t", Json::from("truncated"))]),
        ResponseClass::Timeout => Json::obj(vec![("t", Json::from("timeout"))]),
        ResponseClass::Skipped => Json::obj(vec![("t", Json::from("skipped"))]),
    }
}

fn class_from_value(value: &Json) -> Result<ResponseClass, String> {
    Ok(match value.need_str("t")? {
        "auth" => ResponseClass::Authoritative(list(value, "targets", name_from_value)?),
        "referral" => ResponseClass::Referral {
            cut: name_from_value(value.need("cut")?)?,
            targets: list(value, "targets", name_from_value)?,
            glue: list(value, "glue", |pair| {
                let Some([host, addr]) = pair.as_arr() else {
                    return Err("glue is not a pair".to_owned());
                };
                Ok((name_from_value(host)?, addr_from_value(addr)?))
            })?,
        },
        "empty" => ResponseClass::Empty(need_int(value, "rcode")?),
        "rejected" => ResponseClass::Rejected(need_int(value, "rcode")?),
        "truncated" => ResponseClass::Truncated,
        "timeout" => ResponseClass::Timeout,
        "skipped" => ResponseClass::Skipped,
        t => return Err(format!("unknown response class tag {t:?}")),
    })
}

fn observation_to_value(o: &ServerObservation) -> Json {
    Json::obj(vec![
        ("addr", addr_to_value(o.addr)),
        ("class", class_to_value(&o.class)),
        ("attempts", num(o.attempts)),
    ])
}

fn observation_from_value(value: &Json) -> Result<ServerObservation, String> {
    Ok(ServerObservation {
        addr: addr_from_value(value.need("addr")?)?,
        class: class_from_value(value.need("class")?)?,
        attempts: need_int(value, "attempts")?,
    })
}

fn server_to_value(s: &ServerProbe) -> Json {
    Json::obj(vec![
        ("host", name_to_value(&s.host)),
        ("in_parent", Json::from(s.in_parent)),
        ("in_child", Json::from(s.in_child)),
        ("addrs", Json::Arr(s.addrs.iter().map(|&a| addr_to_value(a)).collect())),
        ("observations", Json::Arr(s.observations.iter().map(observation_to_value).collect())),
        ("recovered_in_round2", Json::from(s.recovered_in_round2)),
    ])
}

fn server_from_value(value: &Json) -> Result<ServerProbe, String> {
    Ok(ServerProbe {
        host: name_from_value(value.need("host")?)?,
        in_parent: value.need_bool("in_parent")?,
        in_child: value.need_bool("in_child")?,
        addrs: list(value, "addrs", addr_from_value)?,
        observations: list(value, "observations", observation_from_value)?,
        recovered_in_round2: value.need_bool("recovered_in_round2")?,
    })
}

/// Full-fidelity SOA codec: all seven fields round-trip (the dataset's
/// `canonical_json` prints only three, which is not enough to rebuild
/// the in-memory record).
fn soa_to_value(soa: &Soa) -> Json {
    Json::obj(vec![
        ("mname", name_to_value(&soa.mname)),
        ("rname", name_to_value(&soa.rname)),
        ("serial", num(soa.serial)),
        ("refresh", num(soa.refresh)),
        ("retry", num(soa.retry)),
        ("expire", num(soa.expire)),
        ("minimum", num(soa.minimum)),
    ])
}

fn soa_from_value(value: &Json) -> Result<Soa, String> {
    Ok(Soa {
        mname: name_from_value(value.need("mname")?)?,
        rname: name_from_value(value.need("rname")?)?,
        serial: need_int(value, "serial")?,
        refresh: need_int(value, "refresh")?,
        retry: need_int(value, "retry")?,
        expire: need_int(value, "expire")?,
        minimum: need_int(value, "minimum")?,
    })
}

fn probe_to_value(p: &DomainProbe) -> Json {
    Json::obj(vec![
        ("domain", name_to_value(&p.domain)),
        ("parent_zone", p.parent_zone.as_ref().map_or(Json::Null, name_to_value)),
        ("parent_addrs", Json::Arr(p.parent_addrs.iter().map(|&a| addr_to_value(a)).collect())),
        (
            "parent_observations",
            Json::Arr(p.parent_observations.iter().map(observation_to_value).collect()),
        ),
        ("parent_ns", Json::Arr(p.parent_ns.iter().map(name_to_value).collect())),
        ("child_ns", Json::Arr(p.child_ns.iter().map(name_to_value).collect())),
        ("servers", Json::Arr(p.servers.iter().map(server_to_value).collect())),
        ("soa", p.soa.as_ref().map_or(Json::Null, soa_to_value)),
        ("queries", num(p.queries)),
        ("elapsed_ms", num(p.elapsed_ms)),
        ("rounds", num(p.rounds)),
    ])
}

fn probe_from_value(value: &Json) -> Result<DomainProbe, String> {
    let opt = |key: &str| -> Result<Option<&Json>, String> {
        Ok(Some(value.need(key)?).filter(|v| !matches!(v, Json::Null)))
    };
    Ok(DomainProbe {
        domain: name_from_value(value.need("domain")?)?,
        parent_zone: opt("parent_zone")?.map(name_from_value).transpose()?,
        parent_addrs: list(value, "parent_addrs", addr_from_value)?,
        parent_observations: list(value, "parent_observations", observation_from_value)?,
        parent_ns: list(value, "parent_ns", name_from_value)?,
        child_ns: list(value, "child_ns", name_from_value)?,
        servers: list(value, "servers", server_from_value)?,
        soa: opt("soa")?.map(soa_from_value).transpose()?,
        queries: need_int(value, "queries")?,
        elapsed_ms: need_int(value, "elapsed_ms")?,
        rounds: need_int(value, "rounds")?,
    })
}

fn record_data_to_value(data: &RecordData) -> Json {
    let (tag, v) = match data {
        RecordData::A(a) => ("a", Json::Str(a.to_string())),
        RecordData::Ns(n) => ("ns", name_to_value(n)),
        RecordData::Cname(n) => ("cname", name_to_value(n)),
        RecordData::Soa(s) => ("soa", soa_to_value(s)),
        RecordData::Ptr(n) => ("ptr", name_to_value(n)),
        RecordData::Txt(t) => ("txt", Json::from(t.as_str())),
        RecordData::Aaaa(a) => ("aaaa", Json::Str(a.to_string())),
    };
    Json::obj(vec![("t", Json::from(tag)), ("v", v)])
}

fn record_data_from_value(value: &Json) -> Result<RecordData, String> {
    let v = value.need("v")?;
    Ok(match value.need_str("t")? {
        "a" => RecordData::A(addr_from_value(v)?),
        "ns" => RecordData::Ns(name_from_value(v)?),
        "cname" => RecordData::Cname(name_from_value(v)?),
        "soa" => RecordData::Soa(soa_from_value(v)?),
        "ptr" => RecordData::Ptr(name_from_value(v)?),
        "txt" => RecordData::Txt(value.need_str("v")?.to_owned()),
        "aaaa" => RecordData::Aaaa(
            value.need_str("v")?.parse().map_err(|e| format!("bad AAAA payload: {e}"))?,
        ),
        t => return Err(format!("unknown record data tag {t:?}")),
    })
}

fn resource_record_to_value(rr: &ResourceRecord) -> Json {
    Json::obj(vec![
        ("name", name_to_value(&rr.name)),
        ("ttl", num(rr.ttl)),
        ("data", record_data_to_value(&rr.data)),
    ])
}

fn resource_record_from_value(value: &Json) -> Result<ResourceRecord, String> {
    Ok(ResourceRecord {
        name: name_from_value(value.need("name")?)?,
        ttl: need_int(value, "ttl")?,
        data: record_data_from_value(value.need("data")?)?,
    })
}

fn limiter_to_value(state: &LimiterState) -> Json {
    Json::obj(vec![
        ("issued", num(state.issued)),
        ("per_round", Json::Arr(state.per_round.iter().map(|&n| num(n)).collect())),
        ("per_destination", addr_counts_to_value(&state.per_destination)),
        ("per_destination_retries", addr_counts_to_value(&state.per_destination_retries)),
    ])
}

fn limiter_from_value(value: &Json) -> Result<LimiterState, String> {
    let per_round =
        list(value, "per_round", |v| v.as_u64().ok_or_else(|| "per_round entry".to_owned()))?;
    Ok(LimiterState {
        issued: value.need_u64("issued")?,
        per_round: per_round.try_into().map_err(|_| "per_round must have 5 slots")?,
        per_destination: list(value, "per_destination", addr_count_from_value)?,
        per_destination_retries: list(value, "per_destination_retries", addr_count_from_value)?,
    })
}

fn breaker_to_value(s: &BreakerSnapshot) -> Json {
    Json::obj(vec![
        ("addr", addr_to_value(s.addr)),
        ("phase", Json::from(s.phase.as_str())),
        ("consecutive_failures", num(s.consecutive_failures)),
        ("opened_rank", num(s.opened_rank)),
        ("trips", num(s.trips)),
        ("denied", num(s.denied)),
    ])
}

fn breaker_from_value(value: &Json) -> Result<BreakerSnapshot, String> {
    let phase = value.need_str("phase")?;
    Ok(BreakerSnapshot {
        addr: addr_from_value(value.need("addr")?)?,
        phase: BreakerPhase::parse(phase)
            .ok_or_else(|| format!("unknown breaker phase {phase:?}"))?,
        consecutive_failures: need_int(value, "consecutive_failures")?,
        opened_rank: need_int(value, "opened_rank")?,
        trips: value.need_u64("trips")?,
        denied: value.need_u64("denied")?,
    })
}

fn traffic_to_value(t: &TrafficStats) -> Json {
    Json::obj(vec![
        ("queries_sent", num(t.queries_sent)),
        ("responses_received", num(t.responses_received)),
        ("timeouts", num(t.timeouts)),
        ("bytes_sent", num(t.bytes_sent)),
        ("bytes_received", num(t.bytes_received)),
        ("total_wait_ms", num(t.total_wait_ms)),
    ])
}

fn traffic_from_value(value: &Json) -> Result<TrafficStats, String> {
    Ok(TrafficStats {
        queries_sent: value.need_u64("queries_sent")?,
        responses_received: value.need_u64("responses_received")?,
        timeouts: value.need_u64("timeouts")?,
        bytes_sent: value.need_u64("bytes_sent")?,
        bytes_received: value.need_u64("bytes_received")?,
        total_wait_ms: value.need_u64("total_wait_ms")?,
    })
}

fn faults_to_value(f: &FaultStats) -> Json {
    Json::obj(vec![
        ("flap_timeouts", num(f.flap_timeouts)),
        ("losses", num(f.losses)),
        ("refused", num(f.refused)),
        ("truncated", num(f.truncated)),
        ("delayed", num(f.delayed)),
        ("outages", num(f.outages)),
    ])
}

fn faults_from_value(value: &Json) -> Result<FaultStats, String> {
    Ok(FaultStats {
        flap_timeouts: value.need_u64("flap_timeouts")?,
        losses: value.need_u64("losses")?,
        refused: value.need_u64("refused")?,
        truncated: value.need_u64("truncated")?,
        delayed: value.need_u64("delayed")?,
        outages: value.need_u64("outages")?,
    })
}

fn cache_entry_to_value(((name, rtype), entry): &((DomainName, RecordType), CacheEntry)) -> Json {
    Json::Arr(vec![
        name_to_value(name),
        num(rtype.code()),
        Json::Arr(entry.records.iter().map(resource_record_to_value).collect()),
        num(entry.expires_at_s),
    ])
}

fn cache_key_to_value((name, rtype): &(DomainName, RecordType)) -> Json {
    Json::Arr(vec![name_to_value(name), num(rtype.code())])
}

fn cache_key_from_values(name: &Json, code: &Json) -> Result<(DomainName, RecordType), String> {
    let code = code.as_u64().and_then(|c| u16::try_from(c).ok()).ok_or("cache record type")?;
    let rtype =
        RecordType::from_code(code).ok_or_else(|| format!("unknown record type code {code}"))?;
    Ok((name_from_value(name)?, rtype))
}

fn cache_key_from_value(value: &Json) -> Result<(DomainName, RecordType), String> {
    let Some([name, code]) = value.as_arr() else {
        return Err("cache key is not a pair".to_owned());
    };
    cache_key_from_values(name, code)
}

fn checkpoint_to_value(cp: &Checkpoint) -> Json {
    Json::obj(vec![
        ("kind", Json::from("checkpoint")),
        ("probes_done", num(cp.probes_done)),
        ("limiter", limiter_to_value(&cp.limiter)),
        ("traffic", traffic_to_value(&cp.traffic)),
        ("faults", faults_to_value(&cp.faults)),
        ("net_per_destination", addr_counts_to_value(&cp.net_per_destination)),
        ("cache", Json::Arr(cp.cache.iter().map(cache_entry_to_value).collect())),
        ("clock_s", num(cp.clock_s)),
        ("breakers", Json::Arr(cp.breakers.iter().map(breaker_to_value).collect())),
    ])
}

fn cache_entry_from_value(value: &Json) -> Result<((DomainName, RecordType), CacheEntry), String> {
    // Current journals append the expiry as a fourth element; pre-expiry
    // journals wrote triples, whose entries were captured at virtual time
    // zero — their expiry is recomputed from the records' smallest TTL
    // (the formula the resolver applied at insert time).
    let (name, code, records, expiry) = match value.as_arr() {
        Some([name, code, records]) => (name, code, records, None),
        Some([name, code, records, expiry]) => (name, code, records, Some(expiry)),
        _ => return Err("cache entry is not a 3- or 4-tuple".to_owned()),
    };
    let key = cache_key_from_values(name, code)?;
    let records: Vec<ResourceRecord> = records
        .as_arr()
        .ok_or("cache records are not an array")?
        .iter()
        .map(resource_record_from_value)
        .collect::<Result<_, _>>()?;
    let expires_at_s = match expiry {
        Some(v) => v.as_u64().ok_or("cache entry expiry is not a u64")?,
        None => u64::from(records.iter().map(|r| r.ttl).min().unwrap_or(LEGACY_NEGATIVE_TTL_S)),
    };
    Ok((key, CacheEntry { expires_at_s, records }))
}

fn checkpoint_from_value(value: &Json) -> Result<Checkpoint, String> {
    Ok(Checkpoint {
        probes_done: value.need_u64("probes_done")?,
        limiter: limiter_from_value(value.need("limiter")?)?,
        traffic: traffic_from_value(value.need("traffic")?)?,
        faults: faults_from_value(value.need("faults")?)?,
        net_per_destination: list(value, "net_per_destination", addr_count_from_value)?,
        cache: list(value, "cache", cache_entry_from_value)?,
        clock_s: match value.get("clock_s") {
            Some(v) => v.as_u64().ok_or("field `clock_s` is not a u64")?,
            None => 0,
        },
        breakers: list(value, "breakers", breaker_from_value)?,
    })
}

fn delta_to_value(d: &Delta) -> Json {
    Json::obj(vec![
        ("kind", Json::from("delta")),
        ("probes_done", num(d.probes_done)),
        ("worker", num(d.worker)),
        ("limiter", limiter_to_value(&d.limiter)),
        ("traffic", traffic_to_value(&d.traffic)),
        ("faults", faults_to_value(&d.faults)),
        ("net_per_destination", addr_counts_to_value(&d.net_per_destination)),
        ("cache_inserted", Json::Arr(d.cache.inserted.iter().map(cache_entry_to_value).collect())),
        ("cache_evicted", Json::Arr(d.cache.evicted.iter().map(cache_key_to_value).collect())),
        ("clock_s", num(d.clock_s)),
        ("breakers", Json::Arr(d.breakers.iter().map(breaker_to_value).collect())),
    ])
}

fn delta_from_value(value: &Json) -> Result<Delta, String> {
    Ok(Delta {
        probes_done: value.need_u64("probes_done")?,
        worker: value.need_u64("worker")?,
        limiter: limiter_from_value(value.need("limiter")?)?,
        traffic: traffic_from_value(value.need("traffic")?)?,
        faults: faults_from_value(value.need("faults")?)?,
        net_per_destination: list(value, "net_per_destination", addr_count_from_value)?,
        cache: CacheChanges {
            inserted: list(value, "cache_inserted", cache_entry_from_value)?,
            evicted: list(value, "cache_evicted", cache_key_from_value)?,
        },
        clock_s: value.need_u64("clock_s")?,
        breakers: list(value, "breakers", breaker_from_value)?,
    })
}

/// The negative-caching TTL the resolver assigns an empty (NODATA)
/// answer when the reply carries no SOA — used to reconstruct expiry
/// for legacy (pre-expiry) journal cache entries with no records.
const LEGACY_NEGATIVE_TTL_S: u32 = 3600;

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn sample_probe(idx: u8) -> DomainProbe {
        DomainProbe {
            domain: n(&format!("gov{idx}.zz")),
            parent_zone: Some(n("zz")),
            parent_addrs: vec![Ipv4Addr::new(10, 0, 0, idx)],
            parent_observations: vec![ServerObservation {
                addr: Ipv4Addr::new(10, 0, 0, idx),
                class: ResponseClass::Referral {
                    cut: n(&format!("gov{idx}.zz")),
                    targets: vec![n("ns1.gov.zz")],
                    glue: vec![(n("ns1.gov.zz"), Ipv4Addr::new(10, 1, 0, 1))],
                },
                attempts: 1,
            }],
            parent_ns: vec![n("ns1.gov.zz")],
            child_ns: vec![n("ns1.gov.zz")],
            servers: vec![ServerProbe {
                host: n("ns1.gov.zz"),
                in_parent: true,
                in_child: true,
                addrs: vec![Ipv4Addr::new(10, 1, 0, 1)],
                observations: vec![
                    ServerObservation {
                        addr: Ipv4Addr::new(10, 1, 0, 1),
                        class: ResponseClass::Authoritative(vec![n("ns1.gov.zz")]),
                        attempts: 2,
                    },
                    ServerObservation {
                        addr: Ipv4Addr::new(10, 1, 0, 2),
                        class: ResponseClass::Skipped,
                        attempts: 0,
                    },
                ],
                recovered_in_round2: idx % 2 == 0,
            }],
            soa: Some(Soa {
                mname: n("ns1.gov.zz"),
                rname: n("hostmaster.gov.zz"),
                serial: 77,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 3600,
            }),
            queries: 12,
            elapsed_ms: 340,
            rounds: 2,
        }
    }

    fn sample_checkpoint(done: u64) -> Checkpoint {
        Checkpoint {
            probes_done: done,
            limiter: LimiterState {
                issued: 42,
                per_round: [30, 4, 2, 5, 1],
                per_destination: vec![(Ipv4Addr::new(10, 1, 0, 1), 9)],
                per_destination_retries: vec![(Ipv4Addr::new(10, 1, 0, 1), 2)],
            },
            traffic: TrafficStats {
                queries_sent: 42,
                responses_received: 40,
                timeouts: 2,
                bytes_sent: 2000,
                bytes_received: 4000,
                total_wait_ms: 900,
            },
            faults: FaultStats {
                flap_timeouts: 1,
                losses: 0,
                refused: 2,
                truncated: 0,
                delayed: 3,
                outages: 4,
            },
            net_per_destination: vec![(Ipv4Addr::new(10, 0, 0, 1), 11)],
            cache: vec![(
                (n("ns1.gov.zz"), RecordType::A),
                CacheEntry {
                    expires_at_s: 3600,
                    records: vec![ResourceRecord::new(
                        n("ns1.gov.zz"),
                        3600,
                        RecordData::A(Ipv4Addr::new(10, 1, 0, 1)),
                    )],
                },
            )],
            clock_s: 120,
            breakers: vec![BreakerSnapshot {
                addr: Ipv4Addr::new(10, 1, 0, 2),
                phase: BreakerPhase::Open,
                consecutive_failures: 3,
                opened_rank: 1,
                trips: 1,
                denied: 4,
            }],
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            names_fingerprint: 0xdead_beef,
            domains: 2,
            config_echo: "qps=200 cap=none".to_string(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("govdns-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    #[test]
    fn probe_records_round_trip_with_full_fidelity() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.probe(1, &sample_probe(1));
        w.checkpoint(&sample_checkpoint(2));
        w.complete(2);
        assert_eq!(w.records(), 5, "header + 2 probes + checkpoint + complete");
        drop(w);

        let replay = JournalReplay::load(&path);
        assert_eq!(replay.header, header());
        assert_eq!(replay.probes, vec![sample_probe(0), sample_probe(1)]);
        assert_eq!(replay.checkpoint, Some(sample_checkpoint(2)));
        assert_eq!(replay.records, 5);
        assert_eq!(replay.dropped_bytes, 0);
        assert!(replay.completed);
        assert_eq!(replay.resumes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_earlier_records_survive() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.checkpoint(&sample_checkpoint(1));
        w.probe(1, &sample_probe(1));
        drop(w);

        // Chop the last record mid-payload: the crash case.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 37]).unwrap();
        let replay = JournalReplay::load(&path);
        assert_eq!(replay.probes, vec![sample_probe(0)]);
        assert_eq!(replay.checkpoint, Some(sample_checkpoint(1)));
        assert!(replay.dropped_bytes > 0);
        assert!(!replay.completed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_the_replay_at_the_damage() {
        let path = tmp("corrupt");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        // Probe appends are buffered; flush so the on-disk length marks
        // the boundary before the record we are about to damage.
        w.flush();
        let before_flip = std::fs::metadata(&path).unwrap().len() as usize;
        w.probe(1, &sample_probe(1));
        w.checkpoint(&sample_checkpoint(2));
        drop(w);

        // Flip one payload byte of probe record 1: its checksum fails,
        // and everything after it (the checkpoint) is unreachable.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[before_flip + 40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let replay = JournalReplay::load(&path);
        assert_eq!(replay.probes, vec![sample_probe(0)]);
        assert_eq!(replay.checkpoint, None, "the checkpoint sits past the corruption");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn best_checkpoint_never_exceeds_the_contiguous_probe_prefix() {
        let path = tmp("best-checkpoint");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        w.checkpoint(&sample_checkpoint(1));
        // An out-of-order record (a parallel worker raced ahead) leaves
        // a gap: index 2 without index 1.
        w.probe(2, &sample_probe(2));
        w.checkpoint(&sample_checkpoint(3));
        drop(w);

        let replay = JournalReplay::load(&path);
        assert_eq!(replay.probes.len(), 1, "index 2 is past the gap");
        assert_eq!(replay.checkpoint.unwrap().probes_done, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_encoding_is_byte_stable_across_sharded_exports() {
        use crate::ratelimit::{QueryRound, RateLimiter};

        // Book the same traffic into two limiters in different orders:
        // the sharded ledgers fill in different sequences, but both
        // exports — and therefore the framed checkpoint records built
        // from them — must be byte-identical.
        let dsts: Vec<Ipv4Addr> = (0..60u32).map(|i| Ipv4Addr::from(0x0a01_0000 | i)).collect();
        let forward = RateLimiter::new(100);
        for &d in &dsts {
            forward.acquire_for(QueryRound::Round1, Some(d));
        }
        let backward = RateLimiter::new(100);
        for &d in dsts.iter().rev() {
            backward.acquire_for(QueryRound::Round1, Some(d));
        }
        let encode = |limiter: &RateLimiter| {
            let cp = Checkpoint { limiter: limiter.export_state(), ..sample_checkpoint(3) };
            let mut out = String::new();
            checkpoint_to_value(&cp).encode(&mut out);
            out
        };
        assert_eq!(encode(&forward), encode(&backward));

        // And a restore from the encoded form re-exports identically:
        // the journal round-trip cannot perturb shard placement.
        let cp = Checkpoint { limiter: forward.export_state(), ..sample_checkpoint(3) };
        let mut encoded = String::new();
        checkpoint_to_value(&cp).encode(&mut encoded);
        let decoded = checkpoint_from_value(&json::parse(&encoded).unwrap()).unwrap();
        let restored = RateLimiter::new(100);
        restored.restore_state(&decoded.limiter);
        assert_eq!(restored.export_state(), cp.limiter);
    }

    #[test]
    fn legacy_checkpoints_without_expiry_or_clock_still_decode() {
        // Pre-expiry journals wrote cache entries as triples and had no
        // clock field. Synthesize that shape by stripping the modern
        // encoding and check the decoder reconstructs: clock zero, and
        // expiry = the entry's smallest record TTL (what the resolver
        // would have computed at virtual time zero).
        let modern = checkpoint_to_value(&sample_checkpoint(2));
        let Json::Obj(fields) = modern else { panic!("checkpoint encodes as an object") };
        let legacy = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "clock_s")
                .map(|(k, v)| {
                    if k != "cache" {
                        return (k, v);
                    }
                    let Json::Arr(entries) = v else { panic!("cache encodes as an array") };
                    let triples = entries
                        .into_iter()
                        .map(|e| {
                            let Json::Arr(mut parts) = e else { panic!("cache entry tuple") };
                            parts.truncate(3);
                            Json::Arr(parts)
                        })
                        .collect();
                    (k, Json::Arr(triples))
                })
                .collect(),
        );
        let decoded = checkpoint_from_value(&legacy).unwrap();
        assert_eq!(decoded.clock_s, 0);
        assert_eq!(decoded.cache.len(), 1);
        assert_eq!(decoded.cache[0].1.expires_at_s, 3600, "min record TTL from time zero");
        assert_eq!(decoded.cache[0].1.records, sample_checkpoint(2).cache[0].1.records);
    }

    fn cached(name: &str, expires_at_s: u64) -> ((DomainName, RecordType), CacheEntry) {
        ((n(name), RecordType::A), CacheEntry { expires_at_s, records: Vec::new() })
    }

    fn delta(done: u64, worker: u64, cache: CacheChanges, net: Vec<(Ipv4Addr, u64)>) -> Delta {
        Delta {
            probes_done: done,
            worker,
            limiter: LimiterState { issued: 10 * done, ..LimiterState::default() },
            traffic: TrafficStats { queries_sent: 10 * done, ..TrafficStats::default() },
            faults: FaultStats::default(),
            net_per_destination: net,
            cache,
            clock_s: 100,
            breakers: Vec::new(),
        }
    }

    #[test]
    fn deltas_fold_per_worker_cache_chains_and_a_resume_restarts_them() {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let base = Checkpoint {
            probes_done: 0,
            limiter: LimiterState::default(),
            traffic: TrafficStats::default(),
            faults: FaultStats::default(),
            net_per_destination: vec![(a, 1)],
            // `old.zz` expired before the base clock: no worker imports it.
            cache: vec![cached("base.zz", 500), cached("old.zz", 50)],
            clock_s: 100,
            breakers: Vec::new(),
        };
        let path = tmp("delta-chain");
        let mut w = JournalWriter::create(&path, &header());
        w.checkpoint(&base);
        w.probe(0, &sample_probe(0));
        let inserted = |names: &[&str]| names.iter().map(|name| cached(name, 900)).collect();
        w.delta(&delta(
            1,
            0,
            CacheChanges { inserted: inserted(&["w0.zz"]), evicted: Vec::new() },
            vec![(a, 2)],
        ));
        w.probe(1, &sample_probe(1));
        w.delta(&delta(
            2,
            1,
            CacheChanges {
                inserted: inserted(&["w1.zz"]),
                evicted: vec![(n("base.zz"), RecordType::A)],
            },
            vec![(b, 1)],
        ));
        drop(w);

        let replay = JournalReplay::load(&path);
        let expected = |done: u64, net, cache| Checkpoint {
            probes_done: done,
            limiter: LimiterState { issued: 10 * done, ..LimiterState::default() },
            traffic: TrafficStats { queries_sent: 10 * done, ..TrafficStats::default() },
            net_per_destination: net,
            cache,
            ..base.clone()
        };
        // Worker 1's chain: the imported base, minus its own eviction.
        assert_eq!(
            replay.checkpoint,
            Some(expected(2, vec![(a, 2), (b, 1)], inserted(&["w1.zz"])))
        );

        // A resumed process restored that state: every worker's chain now
        // starts from worker 1's cache, not from its own earlier one.
        let mut w = JournalWriter::append_to(&path, std::fs::metadata(&path).unwrap().len());
        w.resumed(2);
        w.probe(2, &sample_probe(2));
        w.delta(&delta(
            3,
            0,
            CacheChanges { inserted: inserted(&["x.zz"]), evicted: Vec::new() },
            Vec::new(),
        ));
        drop(w);
        let replay = JournalReplay::load(&path);
        assert_eq!(
            replay.checkpoint,
            Some(expected(3, vec![(a, 2), (b, 1)], inserted(&["w1.zz", "x.zz"])))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_resumed_marker_counts_on_reload() {
        let path = tmp("resumed");
        let mut w = JournalWriter::create(&path, &header());
        w.probe(0, &sample_probe(0));
        drop(w);
        // A crash tore the next record: appending must cut it off, or
        // everything appended after it would be unreachable.
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(b"J1 0123456789abcdef 000000ff\n{\"kind\":\"pro");
        std::fs::write(&path, &torn).unwrap();
        let before = JournalReplay::load(&path);
        assert_eq!(intact, torn.len() as u64 - before.dropped_bytes);

        let mut w = JournalWriter::append_to(&path, intact);
        w.resumed(1);
        w.probe(1, &sample_probe(1));
        drop(w);

        let replay = JournalReplay::load(&path);
        assert_eq!(replay.resumes, 1);
        assert_eq!(replay.probes.len(), 2);
        assert_eq!(replay.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_flush_threshold_degrades_to_per_record_flush_with_identical_bytes() {
        let buffered_path = tmp("threshold-buffered");
        let eager_path = tmp("threshold-eager");
        let mut buffered = JournalWriter::create(&buffered_path, &header());
        let mut eager = JournalWriter::create(&eager_path, &header()).with_flush_threshold(0);
        for i in 0..4u8 {
            buffered.probe(u64::from(i), &sample_probe(i));
            eager.probe(u64::from(i), &sample_probe(i));
            // The eager writer is durable after every probe append; the
            // buffered one still holds everything past the header.
            let on_disk = std::fs::metadata(&eager_path).unwrap().len();
            let accepted = std::fs::metadata(&buffered_path).unwrap().len() as usize
                + buffered_pending(&buffered);
            assert_eq!(on_disk as usize, accepted, "eager journal flushes per record");
        }
        assert!(buffered_pending(&buffered) > 0, "default threshold is still buffering");
        buffered.complete(4);
        eager.complete(4);
        drop(buffered);
        drop(eager);

        let a = std::fs::read(&buffered_path).unwrap();
        let b = std::fs::read(&eager_path).unwrap();
        assert_eq!(a, b, "flush cadence must never change journal bytes");
        std::fs::remove_file(&buffered_path).unwrap();
        std::fs::remove_file(&eager_path).unwrap();
    }

    fn buffered_pending(w: &JournalWriter) -> usize {
        w.buf.len()
    }

    #[test]
    fn string_escaping_survives_hostile_txt_payloads() {
        let data = RecordData::Txt("a\"b\\c\nd\te\u{1}f".to_owned());
        let mut out = String::new();
        record_data_to_value(&data).encode(&mut out);
        assert_eq!(record_data_from_value(&json::parse(&out).unwrap()), Ok(data));
    }

    #[test]
    fn checksummed_records_that_do_not_decode_are_errors() {
        let frame = |payload: &str| {
            format!("J1 {:016x} {:08x}\n{payload}\n", fnv64(payload.as_bytes()), payload.len())
        };
        let header = r#"{"kind":"header","names_fingerprint":1,"domains":1,"config_echo":""}"#;
        for (journal, why) in [
            (String::new(), "no intact records"),
            (frame(r#"{"kind":"complete","probes":0}"#), "header"),
            (frame(r#"{"kind":"header"}"#), "`names_fingerprint`"),
            (frame(header) + &frame(r#"{"kind":"mystery"}"#), "mystery"),
            (frame(header) + &frame(r#"{"kind":"probe","index":0,"probe":{}}"#), "`domain`"),
            (frame(header) + &frame(r#"{"kind":"probe","index":0"#), "record 1"),
            (frame(header) + &frame(r#"{"kind":"delta","probes_done":0}"#), "`worker`"),
        ] {
            let err = JournalReplay::decode(journal.as_bytes()).unwrap_err();
            assert!(err.contains(why), "{err:?} does not mention {why:?}");
        }
    }
}
