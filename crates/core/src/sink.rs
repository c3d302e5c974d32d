//! The journal's encoder on the workspace's one ordered sink
//! ([`OrderedSink`]): workers send completed probes and delta
//! checkpoints, and the sink thread appends them to the write-ahead
//! journal.
//!
//! Probes arrive in index order, which keeps replay's contiguous-prefix
//! rule meaningful at any worker count (the file is byte-stable across
//! identical runs at a fixed worker count; record content follows
//! per-worker cache warmth, so it is not identical across worker
//! counts). A delta whose `probes_done` is ahead of the written prefix
//! is *held*, and written only after the contiguous run of probes that
//! covers it, so the journal never holds a state record replay would
//! have to discard. Deltas are written strictly in arrival order — one
//! never overtakes a delta held before it — because each holds only
//! what changed since the one before, and workers capture and send
//! under one lock. With one worker every delta lands right after the
//! probe that triggered it. [`OrderedSink::finish`] hands the writer
//! back for the final merged checkpoint and completion record.

use std::collections::VecDeque;
use std::sync::Arc;

use govdns_trace::{OrderedSink, SinkEncoder};

use crate::journal::{Delta, JournalWriter};
use crate::probe::DomainProbe;

/// The journal sink the runner's workers send to.
pub(crate) type JournalSink = OrderedSink<JournalEncoder>;

/// Spawns the journal sink around an already-set-up writer (header,
/// replayed history, base checkpoint, and resume markers written by the
/// caller); `next_index` is the resume point.
pub(crate) fn spawn(writer: JournalWriter, next_index: u64) -> JournalSink {
    let encoder = JournalEncoder { writer, held: VecDeque::new() };
    OrderedSink::spawn("govdns-journal-sink", encoder, next_index)
}

/// Appends probes and delta checkpoints to the journal in replayable
/// order.
pub(crate) struct JournalEncoder {
    pub(crate) writer: JournalWriter,
    /// Deltas in arrival order, waiting for the probe prefix to cover
    /// them.
    held: VecDeque<Box<Delta>>,
}

impl JournalEncoder {
    /// Writes held deltas in arrival order while the written probe
    /// prefix (`next` probes) covers them; stops at the first one it
    /// does not.
    fn write_covered(&mut self, next: u64) {
        while let Some(delta) = self.held.pop_front_if(|d| d.probes_done <= next) {
            self.writer.delta(&delta);
        }
    }
}

impl SinkEncoder for JournalEncoder {
    /// One completed probe, shared with the runner rather than cloned.
    type Item = Arc<DomainProbe>;
    /// A periodic delta checkpoint, captured by the sending worker.
    type Control = Box<Delta>;

    fn item(&mut self, index: u64, probe: Arc<DomainProbe>) {
        self.writer.probe(index, &probe);
    }

    fn control(&mut self, delta: Box<Delta>, next: u64) {
        self.held.push_back(delta);
        self.write_covered(next);
    }

    fn drained(&mut self, next: u64) {
        self.write_covered(next);
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
        let sink = spawn(JournalWriter::create(&path, &header), 0);
        sink.control(Box::new(delta(2))); // ahead of the written prefix: held
        sink.item(0, probe(0));
        sink.control(Box::new(delta(1))); // covered, but it chains after delta 2
        sink.item(1, probe(1));
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
