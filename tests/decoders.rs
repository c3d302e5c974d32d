//! Every decoder of on-disk JSON returns `Err` rather than panicking,
//! whatever bytes it is given: arbitrary bytes, truncations of real
//! artifacts, and single bit flips of them.
//!
//! The inputs are the checked-in smell report, the checked-in corpus
//! case, and one encoded trace domain block taken from that case. The
//! block is small enough to try every prefix of it exhaustively; the
//! two files are cut and flipped at positions drawn by the property
//! runner (`PROPTEST_CASES`), since each decode walks the whole input.

use std::sync::OnceLock;

use govdns_diff::{counts_from_json, telemetry_from_json, CorpusCase, DatasetView, SmellView};
use govdns_model::json;
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
    fn bit_flipped_artifacts_never_panic(pick in 0usize..3, at in any::<usize>(), bit in 0u8..8) {
        let mut bytes = artifacts()[pick].clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        decode_all(&String::from_utf8_lossy(&bytes));
    }
}
