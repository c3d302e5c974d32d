//! Reading a trace file back: frames → records → causal timelines.
//!
//! The reader applies the journal replayer's torn-tail discipline
//! through the shared [`govdns_model::frame`] codec: it walks `T1`
//! frames until one fails its header, length, or checksum test, keeps
//! everything before the tear, and reports the remainder as
//! [`TraceLog::dropped_bytes`].

use std::collections::HashMap;
use std::io;
use std::path::Path;

use govdns_model::frame::read_frame;

use crate::codec::TraceRecord;
use crate::event::{DomainBlock, FlightDump};
use crate::tracer::TRACE_TAG;

/// The header frame's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u64,
    /// Sampling seed.
    pub seed: u64,
    /// Sampling rate, parts per million.
    pub sample_ppm: u64,
    /// Flight-recorder ring capacity.
    pub flight_capacity: u64,
    /// Campaign domain count.
    pub domains: u64,
}

/// A decoded trace file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// The header frame, when the file has one.
    pub header: Option<TraceHeader>,
    /// Stage boundaries in file order, as `(name, mark)`.
    pub stages: Vec<(String, String)>,
    /// The resume marker, when the campaign resumed from a journal.
    pub resume_from: Option<u64>,
    /// Sampled domain blocks, in campaign index order.
    pub domains: Vec<DomainBlock>,
    /// Flight-recorder dumps, in file order (sorted by
    /// `(domain index, ordinal)` at write time).
    pub dumps: Vec<FlightDump>,
    /// Whether the completion trailer was seen.
    pub completed: bool,
    /// Bytes after the last valid frame (a torn tail, if nonzero).
    pub dropped_bytes: u64,
}

impl TraceLog {
    /// The block for a domain, if it was sampled. This scans every
    /// block: to look up many names, build [`TraceLog::blocks_by_name`]
    /// once instead.
    pub fn domain(&self, name: &str) -> Option<&DomainBlock> {
        self.domains.iter().find(|b| b.domain == name)
    }

    /// Every sampled domain's block, by name. A resumed trace can hold
    /// two blocks of one name; the first wins, as in
    /// [`TraceLog::domain`].
    pub fn blocks_by_name(&self) -> HashMap<&str, &DomainBlock> {
        let mut by_name = HashMap::with_capacity(self.domains.len());
        for block in &self.domains {
            by_name.entry(block.domain.as_str()).or_insert(block);
        }
        by_name
    }

    /// Total events across all domain blocks.
    pub fn events_total(&self) -> u64 {
        self.domains.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Resolves an evidence citation `(domain, seq)` to the recorded
    /// event it names. `None` means the citation is dangling: the domain
    /// was never sampled, or the ring dropped that sequence number.
    pub fn resolve(&self, domain: &str, seq: u32) -> Option<&crate::event::TraceEvent> {
        self.domain(domain).and_then(|b| b.event(seq))
    }
}

/// Reads and decodes a trace file, dropping any torn tail.
///
/// # Errors
///
/// Returns read errors, and [`io::ErrorKind::InvalidData`] when a
/// frame passes its checksum but fails to decode — a format bug, not
/// corruption (corruption fails the checksum and lands in
/// [`TraceLog::dropped_bytes`]).
pub fn read_trace(path: impl AsRef<Path>) -> io::Result<TraceLog> {
    let bytes = std::fs::read(path)?;
    let mut log = TraceLog::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some((payload, next)) = read_frame(&bytes, offset, TRACE_TAG) else {
            break;
        };
        let record = TraceRecord::decode(payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace record at byte {offset}: {e}"),
            )
        })?;
        match record {
            TraceRecord::Header { version, seed, sample_ppm, flight_capacity, domains } => {
                log.header =
                    Some(TraceHeader { version, seed, sample_ppm, flight_capacity, domains });
            }
            TraceRecord::Stage { name, mark } => log.stages.push((name, mark)),
            TraceRecord::Resume { from } => log.resume_from = Some(from),
            TraceRecord::Domain(block) => log.domains.push(block),
            TraceRecord::Dump(dump) => log.dumps.push(dump),
            TraceRecord::Complete { .. } => log.completed = true,
        }
        offset = next;
    }
    log.dropped_bytes = (bytes.len() - offset) as u64;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::frame::write_frame;

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("govdns-trace-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.trace");
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            TRACE_TAG,
            &TraceRecord::Stage { name: "round1".into(), mark: "begin".into() }.encode(),
        );
        buf.extend_from_slice(b"T1 0123456789abcdef 000000ff\n{\"kind\":\"dom");
        std::fs::write(&path, &buf).unwrap();
        let log = read_trace(&path).unwrap();
        assert_eq!(log.stages, vec![("round1".to_string(), "begin".to_string())]);
        assert!(log.dropped_bytes > 0);
        assert!(!log.completed);
    }

    #[test]
    fn checksummed_but_undecodable_record_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("govdns-trace-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("undecodable.trace");
        let mut buf = Vec::new();
        write_frame(&mut buf, TRACE_TAG, "{\"kind\":\"mystery\"}");
        std::fs::write(&path, &buf).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown kind"), "{err}");
    }
}
