//! Property tests for passive-DNS coalescing and search invariants.

use proptest::prelude::*;

use govdns_model::{DateRange, DomainName, RecordData, RecordType, SimDate, Soa};
use govdns_pdns::{filter, PdnsDb, PdnsEntry};

fn name_strategy() -> impl Strategy<Value = DomainName> {
    prop::collection::vec("[a-z]{1,6}", 1..4)
        .prop_map(|labels| format!("{}.gov.zz", labels.join(".")).parse().unwrap())
}

/// Names in the `gov.zz` subtree, or decoys outside it. `gov-*.zz` is
/// the sharp one: its reversed key `zz.gov-*` sorts inside the scanned
/// key range `zz.gov..zz.gov/`, so only the label-boundary check drops it.
fn owner_strategy() -> impl Strategy<Value = DomainName> {
    (name_strategy(), 0u8..5).prop_map(|(name, kind)| {
        let first = name.labels()[0].as_str().to_owned();
        match kind {
            0 => format!("{first}.gov.zx").parse().unwrap(),
            1 => format!("{first}.gov-{first}.zz").parse().unwrap(),
            2 => format!("{first}.xgov.zz").parse().unwrap(),
            _ => name,
        }
    })
}

/// NS, SOA and A records, drawn from small pools so owners collect
/// several records of each type.
fn mixed_rdata_strategy() -> impl Strategy<Value = RecordData> {
    (0u8..3, 1u8..4).prop_map(|(kind, i)| {
        let host: DomainName = format!("ns{i}.prov.example").parse().unwrap();
        match kind {
            0 => RecordData::Ns(host),
            1 => RecordData::Soa(Soa::new(host, "hostmaster.gov.zz".parse().unwrap())),
            _ => RecordData::A([192, 0, 2, i].into()),
        }
    })
}

fn span_strategy() -> impl Strategy<Value = DateRange> {
    (14_000i64..18_000, 0i64..900).prop_map(|(start, len)| {
        DateRange::new(SimDate::from_days(start), SimDate::from_days(start + len))
    })
}

proptest! {
    /// Coalescing is order-independent: any permutation of observations
    /// yields the same first/last/count.
    #[test]
    fn coalescing_is_commutative(
        name in name_strategy(),
        spans in prop::collection::vec(span_strategy(), 1..8),
    ) {
        let rdata = RecordData::Ns("ns1.prov.example".parse().unwrap());
        let mut forward = PdnsDb::new();
        for s in &spans {
            forward.observe_span(name.clone(), rdata.clone(), *s, 1);
        }
        let mut backward = PdnsDb::new();
        for s in spans.iter().rev() {
            backward.observe_span(name.clone(), rdata.clone(), *s, 1);
        }
        let f: Vec<_> = forward.lookup(&name, None).collect();
        let b: Vec<_> = backward.lookup(&name, None).collect();
        prop_assert_eq!(f.clone(), b);
        prop_assert_eq!(f[0].count, spans.len() as u64);
        prop_assert_eq!(f[0].first_seen, spans.iter().map(|s| s.start).min().unwrap());
        prop_assert_eq!(f[0].last_seen, spans.iter().map(|s| s.end).max().unwrap());
    }

    /// Every entry found by a subtree search is genuinely within the
    /// subtree, and lookup finds it too.
    #[test]
    fn subtree_search_is_sound(
        names in prop::collection::vec(name_strategy(), 1..20),
        span in span_strategy(),
    ) {
        let suffix: DomainName = "gov.zz".parse().unwrap();
        let rdata = RecordData::Ns("ns1.prov.example".parse().unwrap());
        let mut db = PdnsDb::new();
        for n in &names {
            db.observe_span(n.clone(), rdata.clone(), span, 1);
        }
        // Decoys outside the subtree.
        db.observe_span("gov.zx".parse().unwrap(), rdata.clone(), span, 1);
        db.observe_span("xgov.zz".parse().unwrap(), rdata.clone(), span, 1);

        let hits: Vec<_> = db.search_subtree(&suffix).collect();
        let unique: std::collections::BTreeSet<_> =
            names.iter().map(|n| n.to_string()).collect();
        prop_assert_eq!(hits.len(), unique.len());
        for h in &hits {
            prop_assert!(h.name.is_within(&suffix));
        }
    }

    /// A windowed, typed search returns exactly the subtree entries whose
    /// span overlaps the window and whose type matches, in scan order:
    /// the same as filtering the owned search, or the whole database.
    #[test]
    fn windowed_search_matches_overlap(
        rows in prop::collection::vec(
            (owner_strategy(), mixed_rdata_strategy(), span_strategy(), 1u64..50),
            1..30,
        ),
        window in span_strategy(),
        rtype in prop::sample::select(vec![RecordType::Ns, RecordType::Soa, RecordType::A]),
    ) {
        let suffix: DomainName = "gov.zz".parse().unwrap();
        let mut db = PdnsDb::new();
        for (name, rdata, span, count) in rows {
            db.observe_span(name, rdata, span, count);
        }
        let wanted = |e: &PdnsEntry| e.active_in(&window) && e.rtype() == rtype;
        let got: Vec<PdnsEntry> = db.search_subtree_in(&suffix, window, Some(rtype)).collect();
        let filtered: Vec<PdnsEntry> = db.search_subtree(&suffix).filter(wanted).collect();
        let from_all: Vec<PdnsEntry> =
            db.iter().filter(|e| e.name.is_within(&suffix) && wanted(e)).collect();
        prop_assert_eq!(&got, &filtered);
        prop_assert_eq!(&got, &from_all);
        let untyped: Vec<PdnsEntry> = db.search_subtree_in(&suffix, window, None).collect();
        let overlapping: Vec<PdnsEntry> =
            db.search_subtree(&suffix).filter(|e| e.active_in(&window)).collect();
        prop_assert_eq!(untyped, overlapping);
    }

    /// The stability filter keeps exactly the spans of ≥ 7 days.
    #[test]
    fn stability_filter_threshold(spans in prop::collection::vec(span_strategy(), 0..20)) {
        let mut db = PdnsDb::new();
        for (i, s) in spans.iter().enumerate() {
            db.observe_span(
                format!("d{i}.gov.zz").parse().unwrap(),
                RecordData::Ns("ns1.prov.example".parse().unwrap()),
                *s,
                1,
            );
        }
        let kept = filter::stable(db.iter()).count();
        let expected = spans.iter().filter(|s| s.len_days() > 7).count();
        prop_assert_eq!(kept, expected);
    }
}

fn rdata_strategy() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(o.into())),
        name_strategy().prop_map(RecordData::Ns),
        "[a-z0-9 ]{0,40}".prop_map(RecordData::Txt),
    ]
}

proptest! {
    /// TSV export/import preserves every entry exactly.
    #[test]
    fn tsv_roundtrip(
        rows in prop::collection::vec(
            (name_strategy(), rdata_strategy(), span_strategy(), 1u64..500),
            0..25,
        ),
    ) {
        let mut db = PdnsDb::new();
        for (name, rdata, span, count) in rows {
            db.observe_span(name, rdata, span, count);
        }
        let text = govdns_pdns::export::to_tsv(&db);
        let back = govdns_pdns::export::from_tsv(&text).unwrap();
        prop_assert_eq!(back.len(), db.len());
        let mut a: Vec<String> =
            db.iter().map(|e| govdns_pdns::export::entry_to_line(&e)).collect();
        let mut b: Vec<String> =
            back.iter().map(|e| govdns_pdns::export::entry_to_line(&e)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The TSV parser never panics on arbitrary printable input.
    #[test]
    fn tsv_parse_never_panics(text in "[ -~\t\n]{0,300}") {
        let _ = govdns_pdns::export::from_tsv(&text);
    }
}
