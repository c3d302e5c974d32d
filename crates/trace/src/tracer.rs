//! The trace sink: per-worker recorders feeding one ordered file, the
//! trace file as an encoder on an [`OrderedSink`].
//!
//! **Hot path.** Probing workers only touch their own [`WorkerTracer`],
//! a plain ring buffer. A finished domain or a flight dump is one send
//! to the sink; JSON encoding and framing run on the sink thread.
//!
//! **Determinism.** The file is byte-identical at any worker count:
//! blocks are written in campaign index order, and unsampled domains
//! submit an empty placeholder so the in-order drain never stalls.
//! Campaign-level frames (header, stage marks, resume marker,
//! completion trailer, analysis-panic dumps) come only from
//! single-threaded runner sections, and stage marks queue behind every
//! block sent before them, so their file position is fixed too. Flight
//! dumps are collected during the run (bounded by
//! [`TraceSpec::max_dumps`]) and written at [`Tracer::finish`] sorted
//! by `(domain index, ordinal)`, a total order on unique keys.
//!
//! **Shutdown.** [`Tracer::finish`] drains the sink, then writes the
//! sorted dumps and the completion trailer. A campaign that unwinds
//! without `finish` leaves the file without its trailer, which readers
//! treat as an interrupted trace.

use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use govdns_model::frame::write_frame;
use govdns_model::DomainName;

use crate::codec::{encode_domain, encode_dump, TraceRecord};
use crate::event::{DomainBlock, FlightDump, Step, TraceData};
use crate::ring::EventRing;
use crate::sample::{TraceSampler, SAMPLE_FULL};
use crate::sink::{OrderedSink, SinkEncoder};

/// The trace file's frame tag.
pub(crate) const TRACE_TAG: &[u8; 2] = b"T1";

/// Default flight-recorder ring capacity (events per domain).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// Default cap on collected flight dumps per campaign: high enough that
/// no legitimate run ever trips it, low enough that an incident storm
/// under `ChaosProfile::Hostile` cannot grow the dump buffer without
/// limit.
pub const DEFAULT_MAX_DUMPS: usize = 65_536;

/// Where and how to trace a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Trace file path (created or truncated).
    pub path: PathBuf,
    /// Sampling seed — independent of the world and chaos seeds.
    pub seed: u64,
    /// Sampling rate in parts per million of domains (1_000_000 traces
    /// everything).
    pub sample_ppm: u32,
    /// Flight-recorder ring capacity, events per domain.
    pub flight_capacity: usize,
    /// Cap on collected flight dumps: once this many are held, further
    /// dumps are counted ([`Tracer::dumps_dropped`]) and discarded.
    pub max_dumps: usize,
}

impl TraceSpec {
    /// Full-fidelity tracing to `path` (sample everything, seed 0,
    /// default ring capacity and dump cap).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TraceSpec {
            path: path.into(),
            seed: 0,
            sample_ppm: SAMPLE_FULL,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            max_dumps: DEFAULT_MAX_DUMPS,
        }
    }

    /// Sets the sampling seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sampling rate in parts per million (builder style).
    #[must_use]
    pub fn with_sample_ppm(mut self, ppm: u32) -> Self {
        self.sample_ppm = ppm;
        self
    }

    /// Sets the flight-dump cap (builder style).
    #[must_use]
    pub fn with_max_dumps(mut self, max: usize) -> Self {
        self.max_dumps = max;
        self
    }
}

/// Trace messages that travel in arrival order.
enum TraceControl {
    /// A flight dump, held until `finish`.
    Dump(FlightDump),
    /// A stage-boundary frame (single-threaded call sites only).
    Stage(String, String),
}

/// The trace file: what the sink thread encodes into, handed back at
/// `finish`.
struct TraceFile {
    writer: io::BufWriter<fs::File>,
    /// Scratch buffer one frame is built in.
    frame: Vec<u8>,
    domains_written: u64,
    events_written: u64,
    /// The highest-index sampled block written so far — the context an
    /// analysis-panic dump records.
    last_block: Option<DomainBlock>,
    /// Flight dumps in arrival order, written sorted at `finish`.
    dumps: Vec<FlightDump>,
    max_dumps: usize,
    /// Dumps discarded over `max_dumps`.
    dumps_dropped: Arc<AtomicU64>,
    /// Ordinal for analysis-panic dumps appended after `finish`.
    analysis_ord: u32,
}

impl TraceFile {
    fn write(&mut self, payload: &str) {
        self.frame.clear();
        write_frame(&mut self.frame, TRACE_TAG, payload);
        self.writer.write_all(&self.frame).expect("trace sink write failed");
    }
}

impl SinkEncoder for TraceFile {
    /// A finished domain block (`None` = unsampled placeholder).
    type Item = Option<DomainBlock>;
    type Control = TraceControl;

    fn item(&mut self, _index: u64, block: Option<DomainBlock>) {
        if let Some(block) = block {
            self.domains_written += 1;
            self.events_written += block.events.len() as u64;
            self.write(&encode_domain(&block));
            self.last_block = Some(block);
        }
    }

    fn control(&mut self, msg: TraceControl, _next: u64) {
        match msg {
            TraceControl::Dump(dump) if self.dumps.len() < self.max_dumps => self.dumps.push(dump),
            TraceControl::Dump(_) => {
                self.dumps_dropped.fetch_add(1, Ordering::Relaxed);
            }
            TraceControl::Stage(name, mark) => {
                self.write(&TraceRecord::Stage { name, mark }.encode());
            }
        }
    }
}

/// The shared trace sink for one campaign. Create with
/// [`Tracer::create`], hand each worker a [`WorkerTracer`] via
/// [`Tracer::worker`], and close with [`Tracer::finish`].
pub struct Tracer {
    spec: TraceSpec,
    sampler: TraceSampler,
    /// The ordered sink workers send to; they never hold a sink lock.
    sink: OrderedSink<TraceFile>,
    /// The reclaimed file after `finish` — what `analysis_dump` appends
    /// through.
    done: Mutex<Option<TraceFile>>,
    /// Dumps discarded over [`TraceSpec::max_dumps`].
    dumps_dropped: Arc<AtomicU64>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("spec", &self.spec).finish_non_exhaustive()
    }
}

impl Tracer {
    /// Opens the trace file, writes the header frame (and a resume
    /// marker when `resume_from > 0`), spawns the sink thread, and
    /// returns the shared sink.
    pub fn create(spec: &TraceSpec, domains: u64, resume_from: u64) -> io::Result<Arc<Tracer>> {
        let dumps_dropped = Arc::new(AtomicU64::new(0));
        let mut file = TraceFile {
            writer: io::BufWriter::new(fs::File::create(&spec.path)?),
            frame: Vec::new(),
            domains_written: 0,
            events_written: 0,
            last_block: None,
            dumps: Vec::new(),
            max_dumps: spec.max_dumps,
            dumps_dropped: Arc::clone(&dumps_dropped),
            analysis_ord: 0,
        };
        file.write(
            &TraceRecord::Header {
                version: 1,
                seed: spec.seed,
                sample_ppm: u64::from(spec.sample_ppm),
                flight_capacity: spec.flight_capacity as u64,
                domains,
            }
            .encode(),
        );
        if resume_from > 0 {
            file.write(&TraceRecord::Resume { from: resume_from }.encode());
        }
        Ok(Arc::new(Tracer {
            spec: spec.clone(),
            sampler: TraceSampler::new(spec.seed, spec.sample_ppm),
            sink: OrderedSink::spawn("govdns-trace-sink", file, resume_from),
            done: Mutex::new(None),
            dumps_dropped,
        }))
    }

    /// The spec the tracer was created with.
    pub fn spec(&self) -> &TraceSpec {
        &self.spec
    }

    /// The sampling verdict for a domain hash (pure; thread-safe).
    pub fn keep(&self, domain_fnv64: u64) -> bool {
        self.sampler.keep(domain_fnv64)
    }

    /// Nanoseconds workers spent blocked on sink backpressure so far.
    /// Zero means no worker ever waited on the trace pipeline.
    pub fn wait_ns(&self) -> u64 {
        self.sink.wait_ns()
    }

    /// High-water mark of the sink queue depth, in messages.
    pub fn queue_high_water(&self) -> u64 {
        self.sink.queue_high_water()
    }

    /// Flight dumps discarded over [`TraceSpec::max_dumps`].
    pub fn dumps_dropped(&self) -> u64 {
        self.dumps_dropped.load(Ordering::Relaxed)
    }

    /// A per-worker recorder bound to this sink.
    pub fn worker(self: &Arc<Self>) -> WorkerTracer {
        WorkerTracer {
            tracer: Arc::clone(self),
            ring: EventRing::new(self.spec.flight_capacity),
            index: 0,
            domain: String::new(),
            sampled: false,
            active: false,
            step: Step::ParentNs,
            dump_ord: 0,
            dumped_triggers: Vec::new(),
        }
    }

    /// Writes a stage boundary frame. Call only from single-threaded
    /// runner sections: the FIFO channel places it after every block
    /// already submitted, so its file position is deterministic.
    pub fn stage(&self, name: &str, mark: &str) {
        self.sink.control(TraceControl::Stage(name.to_string(), mark.to_string()));
    }

    /// Submits one domain's finished block (`None` for an unsampled
    /// domain — the placeholder keeps the in-order drain moving). The
    /// calling worker only enqueues; encoding, framing, and the ordered
    /// write all happen on the sink thread.
    pub fn submit(&self, index: u64, block: Option<DomainBlock>) {
        self.sink.item(index, block);
    }

    /// Records a flight dump (written to the file at [`finish`], sorted
    /// by `(domain index, ordinal)`). Dumps past the spec's cap are
    /// counted and discarded.
    ///
    /// [`finish`]: Tracer::finish
    pub fn record_dump(&self, dump: FlightDump) {
        self.sink.control(TraceControl::Dump(dump));
    }

    /// Drains and joins the sink thread, writes the sorted flight dumps
    /// and the completion trailer, then flushes. Idempotent.
    pub fn finish(&self) {
        let mut done = self.done.lock();
        if done.is_some() {
            return;
        }
        let mut file = self.sink.finish();
        // `(index, ord)` is unique per dump, so the sort is a total
        // order: the file never depends on arrival interleaving.
        let mut dumps = std::mem::take(&mut file.dumps);
        dumps.sort_by_key(|d| (d.index.unwrap_or(u64::MAX), d.ord));
        for dump in &dumps {
            file.write(&encode_dump(dump));
        }
        let (domains, events) = (file.domains_written, file.events_written);
        file.write(&TraceRecord::Complete { domains, events, dumps: dumps.len() as u64 }.encode());
        file.writer.flush().expect("trace sink flush failed");
        *done = Some(file);
    }

    /// Records and appends an analysis-panic dump: the flight
    /// recorder's view at the time probing ended (the last sampled
    /// block), tagged with the dead stage. Finishes the trace first if
    /// the caller has not; the frame is appended and flushed
    /// immediately.
    pub fn analysis_dump(&self, stage: &str) {
        self.finish();
        let mut done = self.done.lock();
        let file = done.as_mut().expect("trace finished above");
        let events = file.last_block.as_ref().map(|b| b.events.clone()).unwrap_or_default();
        let dump = FlightDump {
            trigger: format!("analysis_panic:{stage}"),
            index: None,
            domain: None,
            ord: file.analysis_ord,
            events,
        };
        file.analysis_ord += 1;
        file.write(&encode_dump(&dump));
        file.writer.flush().expect("trace sink flush failed");
    }
}

/// One worker's private recorder: a ring for the domain being probed,
/// plus the bookkeeping to submit finished blocks in campaign order.
///
/// Not `Sync` by design — each worker owns exactly one.
#[derive(Debug)]
pub struct WorkerTracer {
    tracer: Arc<Tracer>,
    ring: EventRing,
    index: u64,
    domain: String,
    sampled: bool,
    active: bool,
    step: Step,
    dump_ord: u32,
    /// Triggers already dumped for the current domain, for
    /// [`dump_once`](WorkerTracer::dump_once).
    dumped_triggers: Vec<String>,
}

impl WorkerTracer {
    /// Starts recording domain `index`. Decides sampling from the
    /// domain's stable hash; an unsampled domain records nothing but
    /// still submits its placeholder at [`end`](WorkerTracer::end).
    pub fn begin(&mut self, index: u64, domain: &DomainName) {
        if self.active {
            self.end();
        }
        self.sampled = self.tracer.keep(domain.fnv64());
        self.domain = if self.sampled { domain.to_string() } else { String::new() };
        self.index = index;
        self.ring.reset();
        self.step = Step::ParentNs;
        self.dump_ord = 0;
        self.dumped_triggers.clear();
        self.active = true;
    }

    /// Whether events are currently being recorded (active + sampled) —
    /// callers use this to skip building event payloads entirely.
    pub fn recording(&self) -> bool {
        self.active && self.sampled
    }

    /// The protocol step subsequent events are tagged with.
    pub fn step(&self) -> Step {
        self.step
    }

    /// Moves to a new protocol step.
    pub fn set_step(&mut self, step: Step) {
        self.step = step;
    }

    /// Records one event at the current step.
    pub fn emit(&mut self, data: TraceData) {
        if self.recording() {
            let step = self.step;
            self.ring.push(step, data);
        }
    }

    /// Records one event at an explicit step without moving the cursor.
    pub fn emit_at(&mut self, step: Step, data: TraceData) {
        if self.recording() {
            self.ring.push(step, data);
        }
    }

    /// Snapshots the ring into a flight dump (breaker trip, retry
    /// exhaustion, REFUSED burst). No-op for unsampled domains, so dump
    /// contents stay deterministic under sampling.
    pub fn dump(&mut self, trigger: &str) {
        if !self.recording() {
            return;
        }
        let dump = FlightDump {
            trigger: trigger.to_string(),
            index: Some(self.index),
            domain: Some(self.domain.clone()),
            ord: self.dump_ord,
            events: self.ring.snapshot(),
        };
        self.dump_ord += 1;
        self.dumped_triggers.push(trigger.to_string());
        self.tracer.record_dump(dump);
    }

    /// Like [`dump`](WorkerTracer::dump), but at most once per trigger
    /// per domain — for high-frequency triggers (retry exhaustion,
    /// REFUSED bursts) where the first occurrence carries the incident
    /// context and repeats would only duplicate ring contents into the
    /// file.
    pub fn dump_once(&mut self, trigger: &str) {
        if self.dumped_triggers.iter().any(|t| t == trigger) {
            return;
        }
        self.dump(trigger);
    }

    /// Closes the current domain and submits its block (or placeholder)
    /// to the ordered sink.
    pub fn end(&mut self) {
        if !self.active {
            return;
        }
        let block = if self.sampled {
            Some(DomainBlock {
                index: self.index,
                domain: std::mem::take(&mut self.domain),
                dropped: self.ring.dropped(),
                events: self.ring.take(),
            })
        } else {
            None
        };
        self.tracer.submit(self.index, block);
        self.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::read_trace;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("govdns-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn dumps_are_sorted_and_counted() {
        let path = tmp("dumps.trace");
        let tracer = Tracer::create(&TraceSpec::new(&path), 2, 0).unwrap();
        let mut w = tracer.worker();
        w.begin(1, &name("b.gov.zz"));
        w.emit(TraceData::Note { text: "x".into() });
        w.dump("retry_exhausted");
        w.end();
        w.begin(0, &name("a.gov.zz"));
        w.dump("breaker_trip");
        w.end();
        tracer.finish();
        tracer.analysis_dump("providers");

        let log = read_trace(&path).unwrap();
        assert_eq!(log.dumps.len(), 3);
        assert_eq!(log.dumps[0].trigger, "breaker_trip");
        assert_eq!(log.dumps[0].index, Some(0));
        assert_eq!(log.dumps[1].trigger, "retry_exhausted");
        assert_eq!(log.dumps[1].events.len(), 1);
        assert_eq!(log.dumps[2].trigger, "analysis_panic:providers");
    }

    #[test]
    fn unsampled_domains_leave_no_blocks_but_do_not_stall() {
        let path = tmp("sampled.trace");
        let spec = TraceSpec::new(&path).with_seed(5).with_sample_ppm(0);
        let tracer = Tracer::create(&spec, 2, 0).unwrap();
        let mut w = tracer.worker();
        for i in 0..2 {
            w.begin(i, &name("a.gov.zz"));
            w.emit(TraceData::Note { text: "ignored".into() });
            w.end();
        }
        tracer.finish();
        let log = read_trace(&path).unwrap();
        assert!(log.completed);
        assert!(log.domains.is_empty());
    }

    #[test]
    fn dump_cap_bounds_the_buffer_and_counts_drops() {
        let path = tmp("capped.trace");
        let spec = TraceSpec::new(&path).with_max_dumps(2);
        let tracer = Tracer::create(&spec, 1, 0).unwrap();
        let mut w = tracer.worker();
        w.begin(0, &name("a.gov.zz"));
        w.emit(TraceData::Note { text: "storm".into() });
        for i in 0..5 {
            w.dump(&format!("incident_{i}"));
        }
        w.end();
        tracer.finish();

        assert_eq!(tracer.dumps_dropped(), 3, "cap of 2 must drop 3 of 5 dumps");
        let log = read_trace(&path).unwrap();
        assert!(log.completed);
        assert_eq!(log.dumps.len(), 2, "only the first two dumps survive the cap");
        assert_eq!(log.dumps[0].trigger, "incident_0");
        assert_eq!(log.dumps[1].trigger, "incident_1");
    }
}
