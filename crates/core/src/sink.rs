//! The journal sink pipeline: a dedicated I/O thread fed by a bounded
//! channel, so probing workers append to the write-ahead journal
//! without ever touching a sink mutex.
//!
//! **Hot-path discipline.** A worker finishing a probe sends one
//! `(index, probe)` message and returns; framing, ordering, and file
//! writes all happen on the sink thread. The only way a worker can
//! stall is backpressure — the bounded channel filling faster than the
//! thread drains it — and that wait is measured
//! ([`JournalSink::wait_ns`]) so tests can assert it stays at zero.
//!
//! **Ordering.** The thread owns a reorder buffer keyed by campaign
//! index and appends probe records strictly in index order, which keeps
//! the journal's contiguous-prefix replay rule meaningful at any worker
//! count (and the file byte-stable across identical runs at a fixed
//! worker count — record *content* carries side-query tallies that
//! follow per-worker resolver-cache warmth, so cross-worker-count byte
//! identity was never a journal property). A delta checkpoint whose
//! `probes_done` is ahead of the written prefix is *held* and appended
//! only once the prefix covers it: a state record the replay would have
//! to discard (state ahead of the probes on disk) is never written in
//! that invalid position. State records are written strictly in arrival
//! order — a delta never overtakes one held before it — because each
//! delta holds only what changed since the one before: workers capture
//! and send under one lock, so arrival order is the chain's order. With
//! one worker, messages already arrive in index order and every delta
//! lands right after the probe that triggered it.
//!
//! **Shutdown.** [`JournalSink::finish`] closes the channel and joins
//! the thread, which drains every queued message first; the reclaimed
//! [`JournalWriter`] then carries the campaign's final merged
//! checkpoint and completion record on the caller's thread. If the
//! campaign unwinds on a worker panic, dropping the sink closes the
//! channel the same way and the writer's own drop flushes what
//! arrived. A hard kill (`std::process::exit`) can lose whatever still
//! sat in the channel — the same class of tail loss the buffered
//! writer always had, and exactly the window checkpoint replay
//! tolerates.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use crate::journal::{Delta, JournalWriter};
use crate::probe::DomainProbe;

/// Bounded journal-channel capacity, in messages. Each message is one
/// completed probe (shared, not cloned) or one delta checkpoint; the bound
/// caps how much completed-but-unwritten work a kill can lose.
const JOURNAL_CHANNEL_CAPACITY: usize = 1024;

enum JournalMsg {
    /// One completed probe at its campaign index.
    Probe(u64, Arc<DomainProbe>),
    /// A periodic delta checkpoint, captured by the sending worker.
    Delta(Box<Delta>),
    /// Drain and hand the writer back through the thread's return
    /// value.
    Finish,
}

/// The worker-facing handle: send-only, lock-free on the send path.
pub(crate) struct JournalSink {
    tx: SyncSender<JournalMsg>,
    /// Joined by [`finish`](JournalSink::finish) to reclaim the writer.
    io: Mutex<Option<JoinHandle<JournalWriter>>>,
    /// Nanoseconds workers spent blocked on a full channel.
    wait_ns: AtomicU64,
    /// Messages sent but not yet processed by the thread.
    depth: AtomicU64,
    /// High-water mark of `depth`.
    hwm: AtomicU64,
}

impl JournalSink {
    /// Spawns the sink I/O thread around an already-set-up writer
    /// (header, replayed history, base checkpoint, and resume markers
    /// written by the caller). `next_index` is the first campaign index the reorder
    /// buffer waits for — the resume point.
    pub(crate) fn spawn(mut writer: JournalWriter, next_index: u64) -> Arc<JournalSink> {
        let (tx, rx) = sync_channel::<JournalMsg>(JOURNAL_CHANNEL_CAPACITY);
        let sink = Arc::new(JournalSink {
            tx,
            io: Mutex::new(None),
            wait_ns: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
        });
        let depth = Arc::downgrade(&sink);
        let handle = std::thread::Builder::new()
            .name("govdns-journal-sink".into())
            .spawn(move || {
                let mut pending: BTreeMap<u64, Arc<DomainProbe>> = BTreeMap::new();
                let mut held: VecDeque<Box<Delta>> = VecDeque::new();
                let mut next = next_index;
                // A closed channel (finish, or an unwinding campaign)
                // drains what arrived and hands the writer back.
                while let Ok(msg) = rx.recv() {
                    // Finish bypasses `send` and is never counted.
                    if !matches!(msg, JournalMsg::Finish) {
                        if let Some(s) = depth.upgrade() {
                            s.depth.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    match msg {
                        JournalMsg::Probe(index, probe) => {
                            pending.insert(index, probe);
                            while let Some(p) = pending.remove(&next) {
                                writer.probe(next, &p);
                                next += 1;
                            }
                            write_covered(&mut writer, &mut held, next);
                        }
                        JournalMsg::Delta(delta) => {
                            held.push_back(delta);
                            write_covered(&mut writer, &mut held, next);
                        }
                        JournalMsg::Finish => break,
                    }
                }
                while let Some(p) = pending.remove(&next) {
                    writer.probe(next, &p);
                    next += 1;
                }
                write_covered(&mut writer, &mut held, next);
                writer
            })
            .expect("spawn journal sink thread");
        *sink.io.lock() = Some(handle);
        sink
    }

    /// Enqueues one message, measuring any backpressure wait.
    fn send(&self, msg: JournalMsg) {
        // Count before sending: the I/O thread decrements on receipt,
        // and counting after delivery would let the decrement land
        // first and underflow the gauge.
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.hwm.fetch_max(depth, Ordering::Relaxed);
        match self.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                let start = Instant::now();
                self.tx.send(msg).expect("journal sink thread died");
                self.wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => panic!("journal sink thread died"),
        }
    }

    /// Submits one completed probe for ordered append.
    pub(crate) fn probe(&self, index: u64, probe: Arc<DomainProbe>) {
        self.send(JournalMsg::Probe(index, probe));
    }

    /// Submits a delta checkpoint (held until the written probe prefix
    /// covers its `probes_done` and every delta sent before it is
    /// written).
    pub(crate) fn delta(&self, delta: Delta) {
        self.send(JournalMsg::Delta(Box::new(delta)));
    }

    /// Nanoseconds workers spent blocked on sink backpressure.
    pub(crate) fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// High-water mark of the sink queue depth, in messages.
    pub(crate) fn queue_high_water(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }

    /// Sends the final drain message, joins the I/O thread after it
    /// drains every queued message, and hands the writer back for the
    /// final merged checkpoint and completion record.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if the sink thread panicked.
    pub(crate) fn finish(&self) -> JournalWriter {
        let handle = self.io.lock().take().expect("journal sink finished twice");
        // FIFO: every probe and delta submitted before this point
        // is processed before the thread breaks.
        self.tx.send(JournalMsg::Finish).expect("journal sink thread died");
        handle.join().expect("journal sink thread panicked")
    }
}

/// Writes held deltas in arrival order while the written probe prefix
/// (`next` probes) covers them; stops at the first one it does not.
fn write_covered(writer: &mut JournalWriter, held: &mut VecDeque<Box<Delta>>, next: u64) {
    while let Some(delta) = held.pop_front() {
        if delta.probes_done > next {
            held.push_front(delta);
            break;
        }
        writer.delta(&delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalHeader;
    use crate::ratelimit::LimiterState;
    use govdns_model::json::{self, Json};

    fn delta(probes_done: u64) -> Delta {
        Delta {
            probes_done,
            worker: 0,
            limiter: LimiterState::default(),
            traffic: Default::default(),
            faults: Default::default(),
            net_per_destination: Vec::new(),
            cache: Default::default(),
            clock_s: 0,
            breakers: Vec::new(),
        }
    }

    fn probe(i: u64) -> Arc<DomainProbe> {
        Arc::new(DomainProbe {
            domain: format!("d{i}.zz").parse().unwrap(),
            parent_zone: None,
            parent_addrs: Vec::new(),
            parent_observations: Vec::new(),
            parent_ns: Vec::new(),
            child_ns: Vec::new(),
            servers: Vec::new(),
            soa: None,
            queries: 0,
            elapsed_ms: 0,
            rounds: 1,
        })
    }

    #[test]
    fn a_covered_delta_never_overtakes_one_held_before_it() {
        let path = std::env::temp_dir().join(format!("govdns-sink-fifo-{}", std::process::id()));
        let header = JournalHeader { names_fingerprint: 1, domains: 2, config_echo: String::new() };
        let sink = JournalSink::spawn(JournalWriter::create(&path, &header), 0);
        sink.delta(delta(2)); // ahead of the written prefix: held
        sink.probe(0, probe(0));
        sink.delta(delta(1)); // covered, but it chains after delta 2
        sink.probe(1, probe(1));
        drop(sink.finish());

        // Payloads sit on every second line, after their frame headers.
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<(String, Option<u64>)> = text
            .lines()
            .skip(1)
            .step_by(2)
            .map(|payload| {
                let v = json::parse(payload).unwrap();
                (
                    v.need_str("kind").unwrap().to_owned(),
                    v.get("probes_done").and_then(Json::as_u64),
                )
            })
            .collect();
        let kind = |k: &str, done| (k.to_owned(), done);
        assert_eq!(
            records,
            [
                kind("header", None),
                kind("probe", None),
                kind("probe", None),
                kind("delta", Some(2)),
                kind("delta", Some(1))
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
