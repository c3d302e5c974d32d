//! Every decoder of on-disk JSON returns `Err` rather than panicking,
//! whatever bytes it is given: arbitrary bytes, truncations of real
//! artifacts, and single bit flips of them.
//!
//! The inputs are the checked-in smell report, the checked-in corpus
//! case, and one encoded trace domain block taken from that case. The
//! block is small enough to try every prefix of it exhaustively; the
//! two files are cut and flipped at positions drawn by the property
//! runner (`PROPTEST_CASES`), since each decode walks the whole input.
//!
//! The journal decoder gets a small real journal holding every record
//! kind. Its frames are checksummed, so a raw bit flip only fails the
//! checksum and never reaches the decoder: mutated payloads are framed
//! again with a valid checksum before they are loaded.

use std::sync::OnceLock;

use std::net::Ipv4Addr;
use std::path::PathBuf;

use govdns_core::journal::{fnv64, Checkpoint, Delta, JournalHeader, JournalReplay, JournalWriter};
use govdns_core::{BreakerPhase, BreakerSnapshot, DomainProbe, LimiterState};
use govdns_diff::{counts_from_json, telemetry_from_json, CorpusCase, DatasetView, SmellView};
use govdns_model::{json, DomainName, RecordData, RecordType, ResourceRecord};
use govdns_simnet::{CacheChanges, CacheEntry, FaultStats, TrafficStats};
use govdns_smell::SmellReport;
use govdns_trace::TraceRecord;
use proptest::prelude::*;

const SMELLS: &str = include_str!("../corpus/smell/smells-seed7.json");
const CASE: &str = include_str!("../corpus/providers-seed7.json");

/// The three artifacts: smell report, corpus case, trace domain block.
fn artifacts() -> &'static [String; 3] {
    static ARTIFACTS: OnceLock<[String; 3]> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let case = CorpusCase::from_json(CASE).expect("checked-in corpus case parses");
        let block = case.domains[0].payload.clone();
        [SMELLS.to_owned(), CASE.to_owned(), block]
    })
}

/// Runs every decoder over `text`; each must return, `Ok` or `Err`.
fn decode_all(text: &str) {
    let _ = json::parse(text);
    let _ = TraceRecord::decode(text);
    let _ = SmellReport::from_canonical_json(text);
    let _ = CorpusCase::from_json(text);
    let _ = DatasetView::from_canonical_json(text);
    let _ = SmellView::from_canonical_json(text);
    let _ = telemetry_from_json(text);
    let _ = counts_from_json(text);
}

/// The longest prefix of `s` no longer than `cut` bytes that ends on a
/// char boundary.
fn prefix(s: &str, cut: usize) -> &str {
    let mut cut = cut.min(s.len());
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    &s[..cut]
}

/// A small real journal, one record kind after another: header, base
/// checkpoint, probe, delta, resume marker, probe, delta, completion.
fn journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let name = |s: &str| s.parse::<DomainName>().unwrap();
        let addr = Ipv4Addr::new(10, 1, 0, 1);
        let probe = |i: u64| DomainProbe {
            domain: name(&format!("gov{i}.zz")),
            parent_zone: Some(name("zz")),
            parent_addrs: vec![addr],
            parent_observations: Vec::new(),
            parent_ns: vec![name("ns1.gov.zz")],
            child_ns: vec![name("ns1.gov.zz")],
            servers: Vec::new(),
            soa: None,
            queries: 3,
            elapsed_ms: 40,
            rounds: 1,
        };
        let entry = |host: &str| {
            let records = vec![ResourceRecord::new(name(host), 3600, RecordData::A(addr))];
            ((name(host), RecordType::A), CacheEntry { expires_at_s: 3600, records })
        };
        let breaker = BreakerSnapshot {
            addr,
            phase: BreakerPhase::Open,
            consecutive_failures: 2,
            opened_rank: 1,
            trips: 1,
            denied: 3,
        };
        let delta = |done: u64, worker: u64| Delta {
            probes_done: done,
            worker,
            limiter: LimiterState {
                issued: 4 * done,
                per_round: [3 * done, 0, done, 0, 0],
                per_destination: vec![(addr, 2 * done)],
                per_destination_retries: vec![(addr, 1)],
            },
            traffic: TrafficStats { queries_sent: 4 * done, ..TrafficStats::default() },
            faults: FaultStats { losses: done, ..FaultStats::default() },
            net_per_destination: vec![(addr, 2 * done)],
            cache: CacheChanges {
                inserted: vec![entry(&format!("ns{done}.gov.zz"))],
                evicted: vec![(name("ns1.gov.zz"), RecordType::A)],
            },
            clock_s: 0,
            breakers: vec![breaker],
        };
        let header =
            JournalHeader { names_fingerprint: 7, domains: 2, config_echo: "qps=200".into() };
        let path = scratch_file();
        let mut w = JournalWriter::create(&path, &header);
        w.checkpoint(&Checkpoint {
            probes_done: 0,
            limiter: LimiterState::default(),
            traffic: TrafficStats::default(),
            faults: FaultStats::default(),
            net_per_destination: Vec::new(),
            cache: vec![entry("ns1.gov.zz")],
            clock_s: 0,
            breakers: Vec::new(),
        });
        w.probe(0, &probe(0));
        w.delta(&delta(1, 0));
        w.resumed(1);
        w.probe(1, &probe(1));
        w.delta(&delta(2, 1));
        w.complete(2);
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    })
}

/// A journal file path private to the calling test thread.
fn scratch_file() -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id())
        .replace(|c: char| !c.is_ascii_alphanumeric(), "");
    std::env::temp_dir().join(format!("govdns-decoders-{}-{thread}.journal", std::process::id()))
}

/// Loads `bytes` as a journal file: `Ok` or `Err`, never a panic.
fn load_journal(bytes: &[u8]) -> Result<JournalReplay, String> {
    let path = scratch_file();
    std::fs::write(&path, bytes).unwrap();
    let replay = JournalReplay::try_load(&path);
    std::fs::remove_file(&path).unwrap();
    replay
}

/// The journal's records, each its frame line and payload line.
fn journal_records() -> Vec<Vec<u8>> {
    let lines: Vec<&[u8]> = journal().split_inclusive(|&b| b == b'\n').collect();
    lines.chunks(2).map(<[&[u8]]>::concat).collect()
}

/// `payload` framed as a journal record with a valid checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("J1 {:016x} {:08x}\n", fnv64(payload), payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

#[test]
fn the_journal_decodes_intact() {
    let replay = load_journal(journal()).unwrap();
    assert_eq!((replay.records, replay.resumes, replay.dropped_bytes), (8, 1, 0));
    assert!(replay.completed);
    assert_eq!(replay.probes.len(), 2);
    let cp = replay.checkpoint.expect("the last delta folds onto the base");
    assert_eq!(cp.probes_done, 2);
    let kinds = ["header", "checkpoint", "probe", "delta", "resumed", "probe", "delta", "complete"];
    for (record, kind) in journal_records().iter().zip(kinds) {
        let text = std::str::from_utf8(record).unwrap();
        assert!(text.contains(&format!("{{\"kind\":\"{kind}\"")), "{text:?} is not {kind:?}");
    }
}

#[test]
fn the_artifacts_decode_intact() {
    let [smells, case, block] = artifacts();
    assert!(SmellReport::from_canonical_json(smells).is_ok());
    assert!(SmellView::from_canonical_json(smells).is_ok());
    assert!(CorpusCase::from_json(case).is_ok());
    assert!(matches!(TraceRecord::decode(block), Ok(TraceRecord::Domain(_))));
}

#[test]
fn every_prefix_of_a_trace_block_is_an_error() {
    let block = &artifacts()[2];
    for cut in (0..block.len()).filter(|&cut| block.is_char_boundary(cut)) {
        let truncated = &block[..cut];
        assert!(json::parse(truncated).is_err(), "prefix {cut} parsed");
        assert!(TraceRecord::decode(truncated).is_err(), "prefix {cut} decoded");
    }
}

#[test]
fn malformed_trace_records_are_errors() {
    for text in [
        r#"{"kind":"stage","name":"\u12"#,
        r#"{"kind":"resume","from":18446744073709551616}"#,
        r#"{"kind":1"#,
        r#"{"kind":"mystery"}"#,
    ] {
        assert!(TraceRecord::decode(text).is_err(), "{text:?} decoded");
        decode_all(text);
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        decode_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_artifacts_never_panic(pick in 0usize..3, cut in any::<usize>()) {
        let artifact = &artifacts()[pick];
        decode_all(prefix(artifact, cut % (artifact.len() + 1)));
    }

    #[test]
    fn arbitrary_journal_records_never_panic(payloads in prop::collection::vec("[ -~]{0,60}", 0..4)) {
        // Raw bytes, and the same bytes framed behind the real header.
        let mut framed = journal_records().swap_remove(0);
        for payload in &payloads {
            let _ = load_journal(payload.as_bytes());
            framed.extend(frame(payload.as_bytes()));
        }
        let _ = load_journal(&framed);
    }

    #[test]
    fn truncated_journals_lose_only_their_tail(cut in any::<usize>()) {
        let bytes = journal();
        let cut = cut % (bytes.len() + 1);
        let replay = load_journal(&bytes[..cut]);
        // Once the header is whole, any cut is a torn tail, not an error.
        if cut >= journal_records()[0].len() {
            let replay = replay.unwrap();
            prop_assert_eq!(replay.dropped_bytes as usize + offset_after(replay.records), cut);
        }
    }

    #[test]
    fn reframed_journal_mutations_never_panic(
        record in 0usize..8,
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<bool>(),
    ) {
        let records = journal_records();
        let original = &records[record];
        // The payload sits between the 29-byte frame line and the newline.
        let mut payload = original[29..original.len() - 1].to_vec();
        let at = at % payload.len();
        if cut {
            payload.truncate(at);
        } else {
            payload[at] = byte;
        }
        let mut bytes: Vec<u8> = records[..record].concat();
        bytes.extend(frame(&payload));
        bytes.extend(records[record + 1..].concat());
        let _ = load_journal(&bytes);
    }

    #[test]
    fn bit_flipped_artifacts_never_panic(pick in 0usize..3, at in any::<usize>(), bit in 0u8..8) {
        let mut bytes = artifacts()[pick].clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        decode_all(&String::from_utf8_lossy(&bytes));
    }
}

/// Bytes taken by the journal's first `records` records.
fn offset_after(records: u64) -> usize {
    journal_records().iter().take(records as usize).map(|r| r.len()).sum()
}
