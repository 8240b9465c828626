//! Property test: folding by offer key is invisible in the output.
//!
//! The aggregate memoises per-offer statistics under each hello's
//! parse-cache key; offers without a key (cache off, SSLv2, salvage,
//! structural anomalies) compute the same facts on the stack. Folding
//! the same flows with the cache on (memo path) and with capacity 0
//! (every flow keyless) must give equal aggregates and byte-equal
//! checkpoint text, under every fault profile and across the month in
//! which the Notary gained fingerprint fields. Run with
//! `TLSCOPE_VERIFY_PARSE_CACHE=1` (the CI fault-matrix leg does) every
//! cache hit is also re-parsed and compared inline.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tlscope_chron::{Date, Month};
use tlscope_notary::aggregate::FINGERPRINT_FIELDS_SINCE;
use tlscope_notary::{
    checkpoint, conn, ingest_serial, parse_cache_set_capacity, parse_cache_stats, NotaryAggregate,
    TappedFlow,
};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};
use tlscope_wire::record::Record;
use tlscope_wire::{CipherSuite, ClientHello, Extension, NamedGroup, ProtocolVersion, ServerHello};

/// Run `f` on a dedicated thread, so it starts with a fresh
/// thread-local parse cache whose capacity no other test sees.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("ingestion thread panicked"))
}

/// Fold `flows` serially, with the parse cache on (memo path) or off
/// (every offer keyless). Also returns the cache's hit count.
fn fold(flows: &[TappedFlow], cache: bool) -> (NotaryAggregate, u64) {
    on_fresh_thread(|| {
        if !cache {
            parse_cache_set_capacity(0);
        }
        let agg = ingest_serial(flows.to_vec());
        (agg, parse_cache_stats().hits)
    })
}

fn window_flows(
    seed: u64,
    start: Month,
    end: Month,
    n: u32,
    faults: FaultInjector,
) -> Vec<TappedFlow> {
    let g = Generator::new(TrafficConfig {
        seed,
        connections_per_month: n,
        faults,
    });
    start
        .iter_through(end)
        .flat_map(|m| g.month(m))
        .map(TappedFlow::from)
        .collect()
}

fn profile() -> impl Strategy<Value = FaultInjector> {
    (0usize..3).prop_map(|i| match i {
        0 => FaultInjector::none(),
        1 => FaultInjector::tap_defaults(),
        _ => FaultInjector::stress(),
    })
}

/// Distinct fingerprints among the hellos dated on or after
/// [`FINGERPRINT_FIELDS_SINCE`], found by plain extraction.
fn fingerprints_since(flows: &[TappedFlow]) -> usize {
    on_fresh_thread(|| {
        parse_cache_set_capacity(0);
        let mut seen = BTreeSet::new();
        for f in flows.iter().filter(|f| f.date >= FINGERPRINT_FIELDS_SINCE) {
            if let Ok(rec) = conn::extract(f.date, f.port, &f.client, f.server.as_deref()) {
                if let Some(offer) = rec.client {
                    seen.insert(offer.fingerprint);
                }
            }
        }
        seen.len()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn memo_fold_matches_keyless_fold(
        seed in 0u64..1_000_000,
        start in 0usize..3,
        after in 0u8..=2,
        n in 60u32..160,
        faults in profile(),
    ) {
        // A window from 2013-11..2014-01 to 2014-02..2014-04: it always
        // holds months on both sides of the fingerprint cut-over.
        let start = [Month::ym(2013, 11), Month::ym(2013, 12), Month::ym(2014, 1)][start];
        let end = Month::ym(2014, 2 + after);
        let flows = window_flows(seed, start, end, n, faults);
        prop_assert!(flows.iter().any(|f| f.date < FINGERPRINT_FIELDS_SINCE));

        let (keyless, no_hits) = fold(&flows, false);
        let (memo, hits) = fold(&flows, true);
        prop_assert_eq!(no_hits, 0);
        prop_assert!(hits > 0, "the memo path never ran");
        prop_assert_eq!(&memo, &keyless);
        prop_assert_eq!(checkpoint::to_text(&memo), checkpoint::to_text(&keyless));
        // Interning stays date-gated on both paths.
        let want = fingerprints_since(&flows);
        prop_assert_eq!(memo.distinct_fingerprints(), want);
        prop_assert_eq!(keyless.distinct_fingerprints(), want);
    }
}

fn client_flow(grease: u16) -> Vec<u8> {
    let hello = ClientHello {
        legacy_version: ProtocolVersion::Tls12,
        random: [grease as u8; 32],
        session_id: vec![],
        cipher_suites: vec![
            CipherSuite(grease),
            CipherSuite(0xc02f),
            CipherSuite(0x002f),
        ],
        compression_methods: vec![0],
        extensions: Some(vec![
            Extension::server_name("memo.test"),
            Extension::supported_groups(&[NamedGroup::X25519]),
        ]),
    };
    Record::wrap_handshake(ProtocolVersion::Tls10, &hello.to_handshake_bytes())
        .iter()
        .flat_map(|r| r.to_bytes())
        .collect()
}

fn server_flow(cipher: u16) -> Vec<u8> {
    let sh = ServerHello {
        legacy_version: ProtocolVersion::Tls12,
        random: [5; 32],
        session_id: vec![],
        cipher_suite: CipherSuite(cipher),
        compression_method: 0,
        extensions: Some(vec![]),
    };
    Record::wrap_handshake(ProtocolVersion::Tls12, &sh.to_handshake_bytes())
        .iter()
        .flat_map(|r| r.to_bytes())
        .collect()
}

#[test]
fn unoffered_answer_is_checked_per_connection() {
    // Four connections share one offer key: their hellos differ only in
    // the GREASE draw. The server answers the first connection's GREASE
    // value to the first three and an unoffered GOST suite to the
    // fourth. Only the first answer was offered, so a memo that kept
    // the first connection's suites would miss two unoffered answers.
    let date = Date::ymd(2016, 5, 2);
    let flow = |grease: u16, cipher: u16| TappedFlow {
        date,
        port: 443,
        client: client_flow(grease),
        server: Some(server_flow(cipher)),
    };
    let flows = vec![
        flow(0x0a0a, 0x0a0a),
        flow(0x1a1a, 0x0a0a),
        flow(0x2a2a, 0x0a0a),
        flow(0x3a3a, 0x0081),
    ];
    let (memo, hits) = fold(&flows, true);
    let (keyless, _) = fold(&flows, false);
    assert_eq!(hits, 3, "the later hellos must be served from the cache");
    assert_eq!(memo, keyless);
    let m = memo.month(date.month()).unwrap();
    assert_eq!((m.answered, m.neg_unoffered), (4, 3));
    assert_eq!(memo.distinct_fingerprints(), 1);
}
