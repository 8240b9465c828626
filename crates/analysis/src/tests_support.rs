//! Test-only helpers: build small synthetic aggregates with known
//! contents so the figure/section generators can be unit-tested without
//! running a simulation.

#![cfg(test)]

use tlscope_chron::{Date, Month};
use tlscope_fingerprint::Fingerprint;
use tlscope_notary::{ClientOffer, ConnectionRecord, NotaryAggregate, ServerAnswer, ServerOutcome};
use tlscope_wire::{CipherSuite, ProtocolVersion};

/// Build an offer over given suite ids.
pub fn offer(suites: &[u16]) -> ClientOffer {
    ClientOffer {
        legacy_version: ProtocolVersion::Tls12,
        versions: vec![ProtocolVersion::Tls12],
        supported_versions_raw: vec![],
        heartbeat: false,
        extension_types: vec![0, 10, 11],
        fingerprint: Fingerprint {
            ciphers: suites.to_vec(),
            extensions: vec![0, 10, 11],
            curves: vec![23],
            point_formats: vec![0],
        },
        suites: suites.iter().map(|&s| CipherSuite(s)).collect(),
        fp_id64: None,
        offer_key: None,
    }
}

/// Build a record on `date` with an offer and an optional negotiated
/// suite.
pub fn record(date: Date, suites: &[u16], negotiated: Option<u16>) -> ConnectionRecord {
    ConnectionRecord {
        date,
        month: date.month(),
        port: 443,
        sslv2: false,
        client: Some(offer(suites)),
        server: match negotiated {
            Some(c) => ServerOutcome::Answered(ServerAnswer {
                version: ProtocolVersion::Tls12,
                cipher: CipherSuite(c),
                curve: None,
                heartbeat: false,
            }),
            None => ServerOutcome::Rejected { alert: None },
        },
        salvaged: false,
    }
}

/// An aggregate over `months` where each month has `per_month` copies
/// of each (suites, negotiated) case.
pub fn aggregate(
    months: &[Month],
    cases: &[(&[u16], Option<u16>)],
    per_month: usize,
) -> NotaryAggregate {
    let mut agg = NotaryAggregate::new();
    for month in months {
        for (suites, negotiated) in cases {
            for day in 0..per_month {
                let date =
                    Date::new(month.year(), month.month_of_year(), 1 + (day % 27) as u8).unwrap();
                agg.ingest(&record(date, suites, *negotiated));
            }
        }
    }
    agg
}
