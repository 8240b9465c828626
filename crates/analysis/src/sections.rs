//! Section-level analyses: the in-text numbers of §4–§6 that are not
//! figures or tables, each rendered as a small [`Table`].

use tlscope_chron::Month;
use tlscope_notary::NotaryAggregate;
use tlscope_scanner::{ScanMetricsSnapshot, ScanSnapshot};

use crate::series::{Figure, Series, Table};

fn pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// §4.1: fingerprint lifetime statistics.
pub fn s4_1(agg: &NotaryAggregate) -> Table {
    let stats = agg.sightings.stats(1200);
    let mut t = Table::new(
        "s4.1",
        "Fingerprint lifetimes (paper: median 1 d, mean 158.8 d, 42,188/69,874 single-day)",
        vec!["Metric", "Value"],
    );
    t.push_row(vec!["fingerprints".into(), stats.fingerprints.to_string()]);
    t.push_row(vec![
        "max duration (days)".into(),
        stats.max_days.to_string(),
    ]);
    t.push_row(vec![
        "median duration (days)".into(),
        format!("{:.1}", stats.median_days),
    ]);
    t.push_row(vec![
        "mean duration (days)".into(),
        format!("{:.1}", stats.mean_days),
    ]);
    t.push_row(vec![
        "3rd quartile (days)".into(),
        format!("{:.1}", stats.q3_days),
    ]);
    t.push_row(vec![
        "std deviation (days)".into(),
        format!("{:.1}", stats.stddev_days),
    ]);
    t.push_row(vec![
        "single-day fingerprints".into(),
        format!(
            "{} ({:.1}% of fingerprints, {} connections)",
            stats.single_day,
            100.0 * stats.single_day as f64 / stats.fingerprints.max(1) as f64,
            stats.single_day_connections
        ),
    ]);
    t.push_row(vec![
        format!("fingerprints seen > {} days", stats.long_threshold_days),
        format!(
            "{} (carrying {:.2}% of connections)",
            stats.long_lived,
            stats.long_lived_traffic_pct()
        ),
    ]);
    t
}

/// §5.1: legacy SSL versions in the passive data and in scans.
pub fn s5_1(agg: &NotaryAggregate, scans: &[ScanSnapshot]) -> Table {
    let mut t = Table::new(
        "s5.1",
        "Legacy SSL (paper: SSL2 ~1.2K conns and SSL3 <0.01% in 2018-02; Censys SSL3 45% -> <25%)",
        vec!["Metric", "Value"],
    );
    let feb18 = agg.month(Month::ym(2018, 2));
    if let Some(m) = feb18 {
        t.push_row(vec![
            "SSL2 connections 2018-02".into(),
            format!("{} ({:.4}%)", m.neg_version.ssl2, m.pct(m.neg_version.ssl2)),
        ]);
        t.push_row(vec![
            "SSL3 connections 2018-02".into(),
            format!("{} ({:.4}%)", m.neg_version.ssl3, m.pct(m.neg_version.ssl3)),
        ]);
    }
    let lifetime_ssl3: u64 = agg.iter_months().map(|(_, s)| s.neg_version.ssl3).sum();
    t.push_row(vec![
        "SSL3 connections lifetime".into(),
        lifetime_ssl3.to_string(),
    ]);
    if let (Some(first), Some(last)) = (scans.first(), scans.last()) {
        t.push_row(vec![
            format!("Censys SSL3 support {}", first.date),
            pct(first.pct(first.ssl3_supported)),
        ]);
        t.push_row(vec![
            format!("Censys SSL3 support {}", last.date),
            pct(last.pct(last.ssl3_supported)),
        ]);
    }
    t
}

/// §5.4: Heartbleed and the Heartbeat extension.
pub fn s5_4(agg: &NotaryAggregate, scans: &[ScanSnapshot]) -> Table {
    let mut t = Table::new(
        "s5.4",
        "Heartbleed (paper: 0.32% still vulnerable 2018-05; 34% support heartbeat; 3% of connections negotiate it)",
        vec!["Metric", "Value"],
    );
    if let Some(last) = scans.last() {
        t.push_row(vec![
            format!("hosts heartbeat-capable {}", last.date),
            pct(last.pct(last.heartbeat_supported)),
        ]);
        t.push_row(vec![
            format!("hosts Heartbleed-vulnerable {}", last.date),
            pct(last.pct(last.heartbleed_vulnerable)),
        ]);
    }
    // Vulnerability right around disclosure, if the campaign covers it
    // (the Censys window starts later; the passive window shows the
    // extension's use instead).
    if let Some(m) = agg.month(Month::ym(2018, 3)) {
        t.push_row(vec![
            "connections negotiating heartbeat 2018-03".into(),
            pct(m.pct(m.heartbeat_negotiated)),
        ]);
        t.push_row(vec![
            "connections offering heartbeat 2018-03".into(),
            pct(m.pct(m.adv_heartbeat)),
        ]);
    }
    t
}

/// §5.5: export ciphers — advertised vs negotiated.
pub fn s5_5(agg: &NotaryAggregate) -> Table {
    let mut t = Table::new(
        "s5.5",
        "Export ciphers (paper: advertised 28.19% in 2012 -> 1.03% in 2018; negotiated ~677 conns in 2018)",
        vec!["Metric", "Value"],
    );
    if let Some(m) = agg.month(Month::ym(2012, 6)) {
        t.push_row(vec!["advertised 2012-06".into(), pct(m.pct(m.adv_export))]);
    }
    if let Some(m) = agg.month(Month::ym(2018, 2)) {
        t.push_row(vec!["advertised 2018-02".into(), pct(m.pct(m.adv_export))]);
    }
    let neg_2018: u64 = agg
        .iter_months()
        .filter(|(m, _)| m.year() == 2018)
        .map(|(_, s)| s.neg_export)
        .sum();
    let total_2018: u64 = agg
        .iter_months()
        .filter(|(m, _)| m.year() == 2018)
        .map(|(_, s)| s.total)
        .sum();
    t.push_row(vec![
        "negotiated in 2018".into(),
        format!(
            "{} of {} conns ({:.4}%)",
            neg_2018,
            total_2018,
            if total_2018 == 0 {
                0.0
            } else {
                100.0 * neg_2018 as f64 / total_2018 as f64
            }
        ),
    ]);
    t
}

/// §5.6: 3DES negotiation and advertising.
pub fn s5_6(agg: &NotaryAggregate, scans: &[ScanSnapshot]) -> Table {
    let mut t = Table::new(
        "s5.6",
        "Sweet32 / 3DES (paper: negotiated 1.4% in 2012 -> 0.3% in 2018; ~70% of clients still offer it; Censys chosen 0.54% -> 0.25%)",
        vec!["Metric", "Value"],
    );
    for (label, month) in [
        ("2012-07", Month::ym(2012, 7)),
        ("2018-02", Month::ym(2018, 2)),
    ] {
        if let Some(m) = agg.month(month) {
            t.push_row(vec![
                format!("negotiated 3DES {label}"),
                pct(m.pct_answered(m.neg_3des)),
            ]);
            t.push_row(vec![
                format!("advertised 3DES {label}"),
                pct(m.pct(m.adv_3des)),
            ]);
        }
    }
    if let (Some(first), Some(last)) = (scans.first(), scans.last()) {
        t.push_row(vec![
            format!("Censys hosts choosing 3DES {}", first.date),
            pct(first.pct(first.chose_3des)),
        ]);
        t.push_row(vec![
            format!("Censys hosts choosing 3DES {}", last.date),
            pct(last.pct(last.chose_3des)),
        ]);
    }
    t
}

/// §6.1: NULL cipher suites.
pub fn s6_1(agg: &NotaryAggregate) -> Table {
    let mut t = Table::new(
        "s6.1",
        "NULL ciphers (paper: 2.84% of lifetime conns negotiated NULL — nearly all GRID; 0.42% in 2018)",
        vec!["Metric", "Value"],
    );
    let lifetime_null: u64 = agg.iter_months().map(|(_, s)| s.neg_null).sum();
    let lifetime_total: u64 = agg.iter_months().map(|(_, s)| s.total).sum();
    t.push_row(vec![
        "negotiated NULL lifetime".into(),
        format!(
            "{:.2}%",
            100.0 * lifetime_null as f64 / lifetime_total.max(1) as f64
        ),
    ]);
    let null_2018: u64 = agg
        .iter_months()
        .filter(|(m, _)| m.year() == 2018)
        .map(|(_, s)| s.neg_null)
        .sum();
    let total_2018: u64 = agg
        .iter_months()
        .filter(|(m, _)| m.year() == 2018)
        .map(|(_, s)| s.total)
        .sum();
    t.push_row(vec![
        "negotiated NULL 2018".into(),
        format!(
            "{:.2}%",
            100.0 * null_2018 as f64 / total_2018.max(1) as f64
        ),
    ]);
    if let Some(m) = agg.month(Month::ym(2018, 2)) {
        t.push_row(vec![
            "connections offering NULL 2018-02".into(),
            pct(m.pct(m.adv_null)),
        ]);
        t.push_row(vec![
            "fingerprints offering NULL 2018-02".into(),
            pct(m.pct_fingerprints(|f| f.null)),
        ]);
    }
    let null_null: u64 = agg.iter_months().map(|(_, s)| s.neg_null_null).sum();
    t.push_row(vec![
        "NULL_WITH_NULL_NULL connections lifetime".into(),
        null_null.to_string(),
    ]);
    t
}

/// §6.2: anonymous cipher suites.
pub fn s6_2(agg: &NotaryAggregate) -> Table {
    let mut t = Table::new(
        "s6.2",
        "Anonymous ciphers (paper: advertised spike 5.8% -> 12.9% mid-2015; negotiated 0.17% lifetime, 0.60% in 2018)",
        vec!["Metric", "Value"],
    );
    for (label, month) in [
        ("advertised 2015-04", Month::ym(2015, 4)),
        ("advertised 2015-07", Month::ym(2015, 7)),
        ("advertised 2018-02", Month::ym(2018, 2)),
    ] {
        if let Some(m) = agg.month(month) {
            t.push_row(vec![label.into(), pct(m.pct(m.adv_anon))]);
        }
    }
    let lt_anon: u64 = agg.iter_months().map(|(_, s)| s.neg_anon).sum();
    let lt_total: u64 = agg.iter_months().map(|(_, s)| s.total).sum();
    t.push_row(vec![
        "negotiated anon lifetime".into(),
        format!("{:.2}%", 100.0 * lt_anon as f64 / lt_total.max(1) as f64),
    ]);
    let anon_2018: u64 = agg
        .iter_months()
        .filter(|(m, _)| m.year() == 2018)
        .map(|(_, s)| s.neg_anon)
        .sum();
    let total_2018: u64 = agg
        .iter_months()
        .filter(|(m, _)| m.year() == 2018)
        .map(|(_, s)| s.total)
        .sum();
    t.push_row(vec![
        "negotiated anon 2018".into(),
        format!(
            "{:.2}%",
            100.0 * anon_2018 as f64 / total_2018.max(1) as f64
        ),
    ]);
    t
}

/// §6.3.3: negotiated-curve distribution.
pub fn s6_3(agg: &NotaryAggregate) -> Table {
    let mut lifetime: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
    for (_, s) in agg.iter_months() {
        for (curve, n) in &s.curves {
            *lifetime.entry(*curve).or_insert(0) += n;
        }
    }
    let total: u64 = lifetime.values().sum();
    let mut rows: Vec<(u16, u64)> = lifetime.into_iter().collect();
    // Ties in count go to the lower group id, so the listed curves do
    // not depend on hash-map order.
    rows.sort_by_key(|&(curve, n)| (std::cmp::Reverse(n), curve));
    let mut t = Table::new(
        "s6.3",
        "Negotiated curves (paper: secp256r1 84.4%, secp384r1 8.6%, x25519 6.7%, sect571r1 0.2%, secp521r1 0.1%; x25519 22.2% in 2018-02)",
        vec!["Curve", "Lifetime share"],
    );
    for (curve, n) in rows.iter().take(6).filter(|(_, n)| *n > 0) {
        let name = tlscope_wire::NamedGroup(*curve)
            .name()
            .unwrap_or("unknown")
            .to_string();
        t.push_row(vec![
            name,
            format!("{:.2}%", 100.0 * *n as f64 / total.max(1) as f64),
        ]);
    }
    if let Some(m) = agg.month(Month::ym(2018, 2)) {
        t.push_row(vec!["x25519 share 2018-02".into(), pct(m.pct_curve(29))]);
    }
    t
}

/// §6.4: TLS 1.3 advertising, negotiation, and the draft-version mix.
pub fn s6_4(agg: &NotaryAggregate) -> Table {
    let mut t = Table::new(
        "s6.4",
        "TLS 1.3 (paper: advertised 0.5% 2018-02 -> 9.8% 2018-03 -> 23.6% 2018-04; negotiated 1.3% 2018-04; 0x7e02 82.3% of supported_versions, draft-18 13.4%)",
        vec!["Metric", "Value"],
    );
    for month in [Month::ym(2018, 2), Month::ym(2018, 3), Month::ym(2018, 4)] {
        if let Some(m) = agg.month(month) {
            t.push_row(vec![
                format!("advertised 1.3 {month}"),
                pct(m.pct(m.adv_tls13)),
            ]);
        }
    }
    if let Some(m) = agg.month(Month::ym(2018, 4)) {
        t.push_row(vec![
            "negotiated 1.3 2018-04".into(),
            pct(m.pct(m.neg_version.tls13)),
        ]);
    }
    // Draft-version mix among all 1.3-family supported_versions values
    // across the whole window (the paper's 82.3 % / 13.4 % are lifetime
    // shares of connections carrying the extension).
    let mut mix: std::collections::HashMap<u16, u64> = std::collections::HashMap::new();
    for (_, s) in agg.iter_months() {
        for (v, n) in &s.supported_versions_values {
            if tlscope_wire::ProtocolVersion::from_wire(*v).is_tls13_family() {
                *mix.entry(*v).or_insert(0) += n;
            }
        }
    }
    let total13: u64 = mix.values().sum();
    for (wire, label) in [
        (0x7e02u16, "0x7e02 (Google exp.)"),
        (0x7f12, "draft-18"),
        (0x7f1c, "draft-28"),
        (0x7f1a, "draft-26"),
    ] {
        let n = *mix.get(&wire).unwrap_or(&0);
        if n > 0 {
            t.push_row(vec![
                format!("{label} share of 1.3 offers (lifetime)"),
                format!("{:.1}%", 100.0 * n as f64 / total13.max(1) as f64),
            ]);
        }
    }
    t
}

/// §7.3: out-of-spec servers (GOST, unoffered-cipher choices).
pub fn s7_3(agg: &NotaryAggregate) -> Table {
    let mut t = Table::new(
        "s7.3",
        "Out-of-spec servers: suites chosen that the client never offered",
        vec!["Metric", "Value"],
    );
    let unoffered: u64 = agg.iter_months().map(|(_, s)| s.neg_unoffered).sum();
    let total: u64 = agg.iter_months().map(|(_, s)| s.total).sum();
    t.push_row(vec![
        "connections with unoffered suite chosen".into(),
        format!(
            "{} ({:.4}%)",
            unoffered,
            100.0 * unoffered as f64 / total.max(1) as f64
        ),
    ]);
    t
}

/// §9's closing observations, made concrete: deployment of the
/// renegotiation_info extension (the renegotiation-attack response),
/// the very limited uptake of Encrypt-then-MAC (the Lucky 13 response),
/// and for context the adoption of SNI and extended_master_secret.
pub fn s9_extensions(agg: &NotaryAggregate) -> Figure {
    use tlscope_wire::exts::ext_type;
    let months: Vec<Month> = agg.iter_months().map(|(m, _)| *m).collect();
    let mut fig = Figure::new(
        "s9-ext",
        "Extension deployment (% monthly connections advertising)",
        months,
    );
    let grab = |typ: u16| -> Vec<f64> {
        agg.iter_months()
            .map(|(_, s)| s.pct(*s.adv_extensions.get(&typ).unwrap_or(&0)))
            .collect()
    };
    fig.push_series(Series::new(
        "renegotiation_info",
        grab(ext_type::RENEGOTIATION_INFO),
    ));
    fig.push_series(Series::new(
        "encrypt_then_mac",
        grab(ext_type::ENCRYPT_THEN_MAC),
    ));
    fig.push_series(Series::new("server_name", grab(ext_type::SERVER_NAME)));
    fig.push_series(Series::new(
        "extended_master_secret",
        grab(ext_type::EXTENDED_MASTER_SECRET),
    ));
    fig.push_series(Series::new(
        "session_ticket",
        grab(ext_type::SESSION_TICKET),
    ));
    fig.push_series(Series::new("heartbeat", grab(ext_type::HEARTBEAT)));
    fig
}

/// SSL Pulse analogue (§5.3): RC4 support among popular sites.
pub fn ssl_pulse(pulses: &[tlscope_scanner::PulseSnapshot]) -> Table {
    let mut t = Table::new(
        "ssl-pulse",
        "SSL Pulse analogue (paper: RC4 supported by 92.8% of popular sites in 2013-10 -> 19.1% in 2018; RC4-only sites 4,248 -> 1)",
        vec!["Date", "RC4 supported", "RC4-only sites"],
    );
    for p in pulses {
        t.push_row(vec![
            p.date.to_string(),
            format!("{:.1}%", p.pct(p.rc4_supported)),
            p.rc4_only.to_string(),
        ]);
    }
    t
}

/// Scan-engine accounting (§3.2 operational view): the dispatch /
/// probe / handshake ledger of the active campaign, the analogue of
/// the Censys pipeline health counters. Loss is a normal, measured
/// outcome — dropped hosts, timed-out probes, retries, and lost
/// workers all get rows — and the final row states whether the
/// two-part ledger (`dispatched == probed + dropped`, `completed +
/// refused + timed_out == sent`) balanced.
pub fn scan_accounting(s: &ScanMetricsSnapshot) -> Table {
    let mut t = Table::new(
        "scan-accounting",
        "Active-scan accounting (sharded sweep engine; dispatched == probed + dropped and completed + refused + timed_out == sent are the engine invariants)",
        vec!["Counter", "Value"],
    );
    let rows: [(&str, String); 12] = [
        ("sweeps completed", s.sweeps_completed.to_string()),
        ("hosts dispatched", s.hosts_dispatched.to_string()),
        ("hosts probed", s.hosts_probed.to_string()),
        ("hosts dropped", s.hosts_dropped.to_string()),
        ("host retries", s.host_retries.to_string()),
        ("probes sent", s.probes_sent.to_string()),
        ("handshakes completed", s.handshakes_completed.to_string()),
        ("handshakes refused", s.handshakes_refused.to_string()),
        ("probes timed out", s.probes_timed_out.to_string()),
        ("workers lost", s.workers_lost.to_string()),
        ("hosts/s (cpu)", format!("{:.0}", s.hosts_per_sec())),
        (
            "accounting holds",
            if s.accounting_holds() { "yes" } else { "NO" }.to_string(),
        ),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.to_string(), v]);
    }
    t
}

/// Censys over-time series (the §5 scan trends) as a figure-like
/// object over scan dates collapsed to months.
pub fn censys_series(scans: &[ScanSnapshot]) -> Figure {
    let months: Vec<Month> = scans.iter().map(|s| s.date.month()).collect();
    let mut fig = Figure::new(
        "censys",
        "Censys host-level trends (% of probed hosts)",
        months,
    );
    let grab =
        |f: fn(&ScanSnapshot) -> u64| -> Vec<f64> { scans.iter().map(|s| s.pct(f(s))).collect() };
    fig.push_series(Series::new("SSL3 supported", grab(|s| s.ssl3_supported)));
    fig.push_series(Series::new("chose CBC", grab(|s| s.chose_cbc)));
    fig.push_series(Series::new("chose RC4", grab(|s| s.chose_rc4)));
    fig.push_series(Series::new("chose AEAD", grab(|s| s.chose_aead)));
    fig.push_series(Series::new("chose 3DES", grab(|s| s.chose_3des)));
    fig.push_series(Series::new(
        "heartbeat supported",
        grab(|s| s.heartbeat_supported),
    ));
    fig.push_series(Series::new(
        "heartbleed vulnerable",
        grab(|s| s.heartbleed_vulnerable),
    ));
    fig.push_series(Series::new(
        "export supported",
        grab(|s| s.export_supported),
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_notary::MonthlyStats;

    #[test]
    fn s6_3_breaks_count_ties_by_group_id() {
        let mut stats = MonthlyStats::default();
        // x25519 (29) and secp256r1 (23) tie; secp384r1 (24) leads.
        for (curve, n) in [(29u16, 5u64), (24, 10), (23, 5)] {
            stats.curves.insert(curve, n);
        }
        let mut agg = NotaryAggregate::new();
        agg.insert_month(Month::ym(2016, 1), stats);
        let t = s6_3(&agg);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, ["secp384r1", "secp256r1", "x25519"]);
        assert_eq!(t.rows[1][1], "25.00%");
    }
}
