//! Aggregate persistence: a plain-text, line-oriented store for the
//! monthly counters, so a long study run can be saved and re-analysed
//! without re-simulating.
//!
//! Format: one `month <k> <v> ...` record per TSV line, human-diffable
//! and dependency-free (the offline crate set has no serde format
//! crate, and this is 120 lines). Maps (curves, supported_versions,
//! extensions) are flattened as `key:value` pairs. Fingerprint-level
//! state (sightings, per-FP flags) is intentionally *not* persisted —
//! it is the one part of the aggregate whose size is data-dependent;
//! persist the study seed instead and regenerate.

use tlscope_chron::Month;

use crate::aggregate::{FxHashMap, MonthlyStats, NotaryAggregate, PositionMean};

const SCALARS: &[&str] = &[
    "total",
    "sslv2",
    "rejected",
    "missing_server",
    "garbled_server",
    "answered",
    "v_ssl2",
    "v_ssl3",
    "v_tls10",
    "v_tls11",
    "v_tls12",
    "v_tls13",
    "v_other",
    "neg_rc4",
    "neg_cbc",
    "neg_aead",
    "neg_null",
    "neg_null_null",
    "neg_3des",
    "neg_des",
    "neg_export",
    "neg_anon",
    "neg_unoffered",
    "neg_fs",
    "kx_rsa",
    "kx_dhe",
    "kx_ecdhe",
    "kx_dh",
    "kx_ecdh",
    "kx_tls13",
    "kx_other",
    "na_128gcm",
    "na_256gcm",
    "na_chacha",
    "na_ccm",
    "na_other",
    "hb_neg",
    "adv_rc4",
    "adv_cbc",
    "adv_aead",
    "adv_des",
    "adv_3des",
    "adv_export",
    "adv_anon",
    "adv_null",
    "adv_fs",
    "adv_hb",
    "adv_tls13",
    "aa_128gcm",
    "aa_256gcm",
    "aa_chacha",
    "aa_ccm",
    "aa_other",
    // Raw PositionMean accumulators (micro-unit sum + sample count):
    // persisted losslessly so a reloaded aggregate is bit-identical —
    // required by the checkpoint/resume machinery, which reuses this
    // codec per month.
    "pa_sum",
    "pa_n",
    "pc_sum",
    "pc_n",
    "pr_sum",
    "pr_n",
    "pd_sum",
    "pd_n",
    "p3_sum",
    "p3_n",
];

fn scalar_values(s: &MonthlyStats) -> Vec<u64> {
    let v = s.neg_version;
    let k = s.neg_kx;
    let na = s.neg_aead_alg;
    let aa = s.adv_aead_alg;
    vec![
        s.total,
        s.sslv2,
        s.rejected,
        s.missing_server,
        s.garbled_server,
        s.answered,
        v.ssl2,
        v.ssl3,
        v.tls10,
        v.tls11,
        v.tls12,
        v.tls13,
        v.other,
        s.neg_rc4,
        s.neg_cbc,
        s.neg_aead,
        s.neg_null,
        s.neg_null_null,
        s.neg_3des,
        s.neg_des,
        s.neg_export,
        s.neg_anon,
        s.neg_unoffered,
        s.neg_fs,
        k.rsa,
        k.dhe,
        k.ecdhe,
        k.dh,
        k.ecdh,
        k.tls13,
        k.other,
        na.aes128gcm,
        na.aes256gcm,
        na.chacha,
        na.ccm,
        na.other,
        s.heartbeat_negotiated,
        s.adv_rc4,
        s.adv_cbc,
        s.adv_aead,
        s.adv_des,
        s.adv_3des,
        s.adv_export,
        s.adv_anon,
        s.adv_null,
        s.adv_fs,
        s.adv_heartbeat,
        s.adv_tls13,
        aa.aes128gcm,
        aa.aes256gcm,
        aa.chacha,
        aa.ccm,
        aa.other,
        s.pos_aead.raw_parts().0,
        s.pos_aead.raw_parts().1,
        s.pos_cbc.raw_parts().0,
        s.pos_cbc.raw_parts().1,
        s.pos_rc4.raw_parts().0,
        s.pos_rc4.raw_parts().1,
        s.pos_des.raw_parts().0,
        s.pos_des.raw_parts().1,
        s.pos_3des.raw_parts().0,
        s.pos_3des.raw_parts().1,
    ]
}

fn set_pos_sum(p: &mut PositionMean, val: u64) {
    *p = PositionMean::from_raw_parts(val, p.raw_parts().1);
}

fn set_pos_n(p: &mut PositionMean, val: u64) {
    *p = PositionMean::from_raw_parts(p.raw_parts().0, val);
}

fn apply_scalar(s: &mut MonthlyStats, key: &str, val: u64) {
    let v = &mut s.neg_version;
    let k = &mut s.neg_kx;
    match key {
        "total" => s.total = val,
        "sslv2" => s.sslv2 = val,
        "rejected" => s.rejected = val,
        "missing_server" => s.missing_server = val,
        "garbled_server" => s.garbled_server = val,
        "answered" => s.answered = val,
        "v_ssl2" => v.ssl2 = val,
        "v_ssl3" => v.ssl3 = val,
        "v_tls10" => v.tls10 = val,
        "v_tls11" => v.tls11 = val,
        "v_tls12" => v.tls12 = val,
        "v_tls13" => v.tls13 = val,
        "v_other" => v.other = val,
        "neg_rc4" => s.neg_rc4 = val,
        "neg_cbc" => s.neg_cbc = val,
        "neg_aead" => s.neg_aead = val,
        "neg_null" => s.neg_null = val,
        "neg_null_null" => s.neg_null_null = val,
        "neg_3des" => s.neg_3des = val,
        "neg_des" => s.neg_des = val,
        "neg_export" => s.neg_export = val,
        "neg_anon" => s.neg_anon = val,
        "neg_unoffered" => s.neg_unoffered = val,
        "neg_fs" => s.neg_fs = val,
        "kx_rsa" => k.rsa = val,
        "kx_dhe" => k.dhe = val,
        "kx_ecdhe" => k.ecdhe = val,
        "kx_dh" => k.dh = val,
        "kx_ecdh" => k.ecdh = val,
        "kx_tls13" => k.tls13 = val,
        "kx_other" => k.other = val,
        "na_128gcm" => s.neg_aead_alg.aes128gcm = val,
        "na_256gcm" => s.neg_aead_alg.aes256gcm = val,
        "na_chacha" => s.neg_aead_alg.chacha = val,
        "na_ccm" => s.neg_aead_alg.ccm = val,
        "na_other" => s.neg_aead_alg.other = val,
        "hb_neg" => s.heartbeat_negotiated = val,
        "adv_rc4" => s.adv_rc4 = val,
        "adv_cbc" => s.adv_cbc = val,
        "adv_aead" => s.adv_aead = val,
        "adv_des" => s.adv_des = val,
        "adv_3des" => s.adv_3des = val,
        "adv_export" => s.adv_export = val,
        "adv_anon" => s.adv_anon = val,
        "adv_null" => s.adv_null = val,
        "adv_fs" => s.adv_fs = val,
        "adv_hb" => s.adv_heartbeat = val,
        "adv_tls13" => s.adv_tls13 = val,
        "aa_128gcm" => s.adv_aead_alg.aes128gcm = val,
        "aa_256gcm" => s.adv_aead_alg.aes256gcm = val,
        "aa_chacha" => s.adv_aead_alg.chacha = val,
        "aa_ccm" => s.adv_aead_alg.ccm = val,
        "aa_other" => s.adv_aead_alg.other = val,
        "pa_sum" => set_pos_sum(&mut s.pos_aead, val),
        "pa_n" => set_pos_n(&mut s.pos_aead, val),
        "pc_sum" => set_pos_sum(&mut s.pos_cbc, val),
        "pc_n" => set_pos_n(&mut s.pos_cbc, val),
        "pr_sum" => set_pos_sum(&mut s.pos_rc4, val),
        "pr_n" => set_pos_n(&mut s.pos_rc4, val),
        "pd_sum" => set_pos_sum(&mut s.pos_des, val),
        "pd_n" => set_pos_n(&mut s.pos_des, val),
        "p3_sum" => set_pos_sum(&mut s.pos_3des, val),
        "p3_n" => set_pos_n(&mut s.pos_3des, val),
        _ => {}
    }
}

fn write_map(out: &mut String, tag: &str, map: &FxHashMap<u16, u64>) {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort();
    for (key, val) in entries {
        out.push_str(&format!("\t{tag}:{key}={val}"));
    }
}

/// One `month\t<k=v>...` record line (no trailing newline), shared
/// between the aggregate store and the per-month checkpoint files.
pub(crate) fn month_line(month: &Month, stats: &MonthlyStats) -> String {
    let mut out = month.to_string();
    for (key, val) in SCALARS.iter().zip(scalar_values(stats)) {
        out.push_str(&format!("\t{key}={val}"));
    }
    write_map(&mut out, "curve", &stats.curves);
    write_map(&mut out, "sv", &stats.supported_versions_values);
    write_map(&mut out, "ext", &stats.adv_extensions);
    out
}

/// Parse one [`month_line`] record. Unknown scalar keys are ignored
/// (forward compatibility); structural damage returns `None`.
/// `fp_flags` is not part of this codec — the checkpoint format
/// carries it on separate lines.
pub(crate) fn parse_month_line(line: &str) -> Option<(Month, MonthlyStats)> {
    let mut fields = line.split('\t');
    let month: Month = fields.next()?.parse().ok()?;
    let mut stats = MonthlyStats::default();
    for field in fields {
        let (key, val) = field.split_once('=')?;
        let val: u64 = val.parse().ok()?;
        if let Some((tag, map_key)) = key.split_once(':') {
            let map_key: u16 = map_key.parse().ok()?;
            let map = match tag {
                "curve" => &mut stats.curves,
                "sv" => &mut stats.supported_versions_values,
                "ext" => &mut stats.adv_extensions,
                _ => return None,
            };
            map.insert(map_key, val);
        } else {
            apply_scalar(&mut stats, key, val);
        }
    }
    Some((month, stats))
}

/// Serialise the monthly counters to the line-oriented text format.
pub fn to_text(agg: &NotaryAggregate) -> String {
    let mut out = String::from("# tlscope notary aggregate v1\n");
    for (month, stats) in agg.iter_months() {
        out.push_str(&month_line(month, stats));
        out.push('\n');
    }
    out
}

/// Errors from [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line failed to parse; carries the 1-based line number.
    BadLine(usize),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadHeader => write!(f, "missing 'tlscope notary aggregate' header"),
            StoreError::BadLine(n) => write!(f, "malformed record on line {n}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Reload monthly counters from the text format.
///
/// Fingerprint-level state is not persisted; the returned aggregate has
/// empty sighting/coverage tables (see module docs).
pub fn from_text(text: &str) -> Result<NotaryAggregate, StoreError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.starts_with("# tlscope notary aggregate") => {}
        _ => return Err(StoreError::BadHeader),
    }
    let mut agg = NotaryAggregate::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (month, stats) = parse_month_line(line).ok_or(StoreError::BadLine(idx + 1))?;
        agg.insert_month(month, stats);
    }
    Ok(agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_chron::Month;
    use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

    fn sample_aggregate() -> NotaryAggregate {
        let g = Generator::new(TrafficConfig {
            seed: 21,
            connections_per_month: 300,
            faults: FaultInjector::none(),
        });
        let flows = g
            .months(Month::ym(2015, 1), Month::ym(2015, 3))
            .flat_map(|(_, evs)| evs.into_iter())
            // `TappedFlow::from` is unusable here: unit tests are a
            // separate compilation of this crate, and the traffic
            // crate's From impl targets the library build's type.
            .map(|ev| crate::TappedFlow {
                date: ev.date,
                port: ev.port,
                client: ev.client_flow,
                server: ev.server_flow,
            });
        crate::ingest_serial(flows)
    }

    #[test]
    fn roundtrip_preserves_every_counter() {
        let agg = sample_aggregate();
        let text = to_text(&agg);
        let back = from_text(&text).unwrap();
        assert_eq!(back.iter_months().count(), agg.iter_months().count());
        for ((ma, sa), (mb, sb)) in agg.iter_months().zip(back.iter_months()) {
            assert_eq!(ma, mb);
            assert_eq!(scalar_values(sa), scalar_values(sb), "{ma}");
            assert_eq!(sa.curves, sb.curves, "{ma}");
            assert_eq!(sa.supported_versions_values, sb.supported_versions_values);
            assert_eq!(sa.adv_extensions, sb.adv_extensions);
        }
        // And the reloaded aggregate drives figures identically.
        let text2 = to_text(&back);
        assert_eq!(text, text2);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(from_text("").unwrap_err(), StoreError::BadHeader);
        assert_eq!(from_text("nonsense\n").unwrap_err(), StoreError::BadHeader);
        let bad = "# tlscope notary aggregate v1\n2015-01\ttotal=x\n";
        assert_eq!(from_text(bad).unwrap_err(), StoreError::BadLine(2));
        let bad = "# tlscope notary aggregate v1\nnot-a-month\ttotal=1\n";
        assert_eq!(from_text(bad).unwrap_err(), StoreError::BadLine(2));
    }

    #[test]
    fn unknown_scalar_keys_are_ignored_for_forward_compat() {
        let text = "# tlscope notary aggregate v1\n2015-01\ttotal=5\tfuture_counter=9\n";
        let agg = from_text(text).unwrap();
        assert_eq!(agg.month(Month::ym(2015, 1)).unwrap().total, 5);
    }

    #[test]
    fn scalar_schema_is_complete() {
        // Every scalar named in SCALARS must be applied by apply_scalar:
        // writing a value of 7 for each key must reproduce on reload.
        let mut stats = MonthlyStats::default();
        for key in SCALARS {
            apply_scalar(&mut stats, key, 7);
        }
        assert!(scalar_values(&stats).iter().all(|v| *v == 7));
    }
}
