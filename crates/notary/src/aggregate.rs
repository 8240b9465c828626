//! Monthly aggregation: the counters behind every figure in the paper.
//!
//! [`NotaryAggregate`] ingests [`ConnectionRecord`]s and maintains, per
//! calendar month, exactly the statistics the paper plots:
//!
//! * negotiated protocol versions (Figure 1)
//! * negotiated cipher classes RC4/CBC/AEAD (Figure 2) and the
//!   DES/3DES/NULL/anon/export/GOST oddities (§5.5–§6.2)
//! * advertised cipher classes per connection (Figures 3, 6, 7, 10)
//! * per-fingerprint class support (Figure 4) and lifetimes (§4.1)
//! * first-offer relative positions (Figure 5)
//! * key-exchange classes and negotiated curves (Figure 8, §6.3.3)
//! * AEAD algorithm breakdowns (Figures 9, 10)
//! * heartbeat negotiation (§5.4) and TLS 1.3 advertisement /
//!   negotiation with the draft-version mix (§6.4)

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use tlscope_chron::Month;
use tlscope_fingerprint::{Fingerprint, FpId, FpInterner, Sighting, SightingTracker};
use tlscope_wire::{AeadAlg, Kx, ProtocolVersion, SuiteClasses};

use crate::conn::{ClientOffer, ConnectionRecord, ServerOutcome};

/// The Notary gained the ClientHello fields needed for fingerprinting
/// in February 2014 (§4.0.1); fingerprint-level tracking ignores flows
/// before this date, exactly as the paper's does.
pub const FINGERPRINT_FIELDS_SINCE: tlscope_chron::Date = tlscope_chron::Date::ymd(2014, 2, 1);

/// Fx-style multiplicative hasher for the aggregate's small integer
/// keys: 16-bit wire code points and the fingerprint ids the program
/// assigns. SipHash's flooding resistance is not needed for them: all
/// 65,536 code points spread evenly under this hash, so even wire
/// values chosen to collide stretch a probe to at most 14 groups. The
/// offer memo, keyed by hashes of whole hellos that a sender can
/// steer, keeps the default hasher, as the parse cache does.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed bits are the high ones; rotate some
        // down to the low bits that pick the bucket.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Coarse negotiated-version buckets (Figure 1 series).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VersionCounts {
    /// SSL 2 connections (client-side framing).
    pub ssl2: u64,
    /// SSL 3.
    pub ssl3: u64,
    /// TLS 1.0.
    pub tls10: u64,
    /// TLS 1.1.
    pub tls11: u64,
    /// TLS 1.2.
    pub tls12: u64,
    /// Any TLS 1.3 family member (final, draft, experiment).
    pub tls13: u64,
    /// Anything else.
    pub other: u64,
}

impl VersionCounts {
    fn bump(&mut self, v: ProtocolVersion) {
        match v {
            ProtocolVersion::Ssl2 => self.ssl2 += 1,
            ProtocolVersion::Ssl3 => self.ssl3 += 1,
            ProtocolVersion::Tls10 => self.tls10 += 1,
            ProtocolVersion::Tls11 => self.tls11 += 1,
            ProtocolVersion::Tls12 => self.tls12 += 1,
            v if v.is_tls13_family() => self.tls13 += 1,
            _ => self.other += 1,
        }
    }

    fn add(&mut self, o: Self) {
        self.ssl2 += o.ssl2;
        self.ssl3 += o.ssl3;
        self.tls10 += o.tls10;
        self.tls11 += o.tls11;
        self.tls12 += o.tls12;
        self.tls13 += o.tls13;
        self.other += o.other;
    }
}

/// Key-exchange buckets (Figure 8 series).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KxCounts {
    /// RSA key transport.
    pub rsa: u64,
    /// Finite-field ephemeral DH.
    pub dhe: u64,
    /// Elliptic-curve ephemeral DH.
    pub ecdhe: u64,
    /// Static DH.
    pub dh: u64,
    /// Static ECDH.
    pub ecdh: u64,
    /// TLS 1.3 (always ephemeral).
    pub tls13: u64,
    /// Everything else (PSK, SRP, Kerberos, GOST, ...).
    pub other: u64,
}

impl KxCounts {
    fn bump(&mut self, kx: Option<Kx>) {
        match kx {
            Some(Kx::Rsa) => self.rsa += 1,
            Some(Kx::Dhe) | Some(Kx::DhAnon) => self.dhe += 1,
            Some(Kx::Ecdhe) | Some(Kx::EcdhAnon) => self.ecdhe += 1,
            Some(Kx::Dh) => self.dh += 1,
            Some(Kx::Ecdh) => self.ecdh += 1,
            Some(Kx::Tls13) => self.tls13 += 1,
            _ => self.other += 1,
        }
    }

    fn add(&mut self, o: Self) {
        self.rsa += o.rsa;
        self.dhe += o.dhe;
        self.ecdhe += o.ecdhe;
        self.dh += o.dh;
        self.ecdh += o.ecdh;
        self.tls13 += o.tls13;
        self.other += o.other;
    }
}

/// AEAD algorithm buckets (Figures 9 and 10).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AeadCounts {
    /// AES-128-GCM.
    pub aes128gcm: u64,
    /// AES-256-GCM.
    pub aes256gcm: u64,
    /// ChaCha20-Poly1305 (standard or pre-standard code points).
    pub chacha: u64,
    /// AES-CCM (all variants).
    pub ccm: u64,
    /// Camellia/ARIA GCM.
    pub other: u64,
}

impl AeadCounts {
    fn slot(&mut self, alg: AeadAlg) -> &mut u64 {
        match alg {
            AeadAlg::Aes128Gcm => &mut self.aes128gcm,
            AeadAlg::Aes256Gcm => &mut self.aes256gcm,
            AeadAlg::ChaCha20Poly1305 => &mut self.chacha,
            AeadAlg::AesCcm => &mut self.ccm,
            AeadAlg::Other => &mut self.other,
        }
    }

    fn add(&mut self, o: Self) {
        self.aes128gcm += o.aes128gcm;
        self.aes256gcm += o.aes256gcm;
        self.chacha += o.chacha;
        self.ccm += o.ccm;
        self.other += o.other;
    }

    /// Total AEAD count.
    pub fn total(&self) -> u64 {
        self.aes128gcm + self.aes256gcm + self.chacha + self.ccm + self.other
    }
}

/// Running mean of first-offer relative positions (Figure 5).
///
/// Positions are accumulated in integer micro-units (1e-6 of the
/// relative position) rather than as an `f64` sum: integer addition is
/// associative, so serial ingestion and any parallel sharding produce
/// byte-identical aggregates — an invariant the pipeline property
/// tests check exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PositionMean {
    sum_micro: u64,
    n: u64,
}

impl PositionMean {
    /// The mean of one observation, or of none.
    fn of(pos: Option<f64>) -> Self {
        pos.map_or_else(Self::default, |p| PositionMean {
            sum_micro: (p * 1e6).round() as u64,
            n: 1,
        })
    }

    fn add(&mut self, o: Self) {
        self.sum_micro += o.sum_micro;
        self.n += o.n;
    }

    /// Raw accumulator parts `(sum_micro, n)` — lossless, for exact
    /// serialization (checkpoints must round-trip bit-identically).
    pub fn raw_parts(&self) -> (u64, u64) {
        (self.sum_micro, self.n)
    }

    /// Rebuild from [`PositionMean::raw_parts`] output.
    pub fn from_raw_parts(sum_micro: u64, n: u64) -> Self {
        PositionMean { sum_micro, n }
    }

    /// Mean relative position in percent (0 = head of list).
    pub fn mean_pct(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(100.0 * (self.sum_micro as f64 / 1e6) / self.n as f64)
        }
    }
}

/// Class-support flags of one fingerprint (Figure 4 rows).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FpClassFlags {
    /// Offers at least one RC4 suite.
    pub rc4: bool,
    /// Offers at least one CBC suite.
    pub cbc: bool,
    /// Offers at least one AEAD suite.
    pub aead: bool,
    /// Offers single DES.
    pub des: bool,
    /// Offers 3DES.
    pub tdes: bool,
    /// Offers NULL encryption.
    pub null: bool,
    /// Offers anonymous suites.
    pub anon: bool,
}

impl FpClassFlags {
    fn from_classes(any: &SuiteClasses) -> Self {
        FpClassFlags {
            rc4: any.rc4,
            cbc: any.cbc,
            aead: any.aead,
            des: any.des,
            tdes: any.tdes,
            null: any.null_enc,
            anon: any.anon,
        }
    }
}

/// Entries the offer memo holds before it is emptied and refilled.
const OFFER_MEMO_CAPACITY: usize = 1 << 14;

/// What the fold reads from a client offer that is the same for every
/// connection carrying it. Offers with a [`ClientOffer::offer_key`]
/// share one memoised copy per aggregate; keyless offers build theirs
/// on the stack. Both then go through [`OfferFacts::apply`].
#[derive(Debug, Clone, Copy)]
struct OfferFacts {
    /// Union of the offered suites' classes (`offers()` semantics).
    any: SuiteClasses,
    /// 1 for each AEAD algorithm offered, 0 otherwise.
    aead_algs: AeadCounts,
    /// First-offer positions: aead, cbc, rc4, des, 3des.
    pos: [PositionMean; 5],
    heartbeat: bool,
    tls13: bool,
    /// Interned fingerprint, filled in by the first connection dated
    /// on or after [`FINGERPRINT_FIELDS_SINCE`].
    fp: Option<FpId>,
}

impl OfferFacts {
    /// One pass over the suite list, one registry lookup per suite.
    fn of(offer: &ClientOffer) -> Self {
        let mut any = SuiteClasses::default();
        let mut aead_algs = AeadCounts::default();
        // First-hit real index per position class: aead cbc rc4 des 3des.
        let mut pos_hit = [None::<usize>; 5];
        let mut real = 0usize;
        for c in offer.suites.iter().copied() {
            // `offers()` semantics: every suite, GREASE included
            // (GREASE/SCSV/unregistered values are in no class).
            let cl = c.classes();
            any.rc4 |= cl.rc4;
            any.cbc |= cl.cbc;
            any.aead |= cl.aead;
            any.des |= cl.des;
            any.tdes |= cl.tdes;
            any.export |= cl.export;
            any.anon |= cl.anon;
            any.null_enc |= cl.null_enc;
            any.forward_secret |= cl.forward_secret;
            if let Some(alg) = cl.aead_alg {
                *aead_algs.slot(alg) = 1;
            }
            // `first_position()` semantics: GREASE/SCSV entries count
            // for neither position nor the denominator.
            if tlscope_wire::is_grease(c.0) || c.is_signaling() {
                continue;
            }
            for (hit, member) in pos_hit
                .iter_mut()
                .zip([cl.aead, cl.cbc, cl.rc4, cl.des, cl.tdes])
            {
                if hit.is_none() && member {
                    *hit = Some(real);
                }
            }
            real += 1;
        }
        // Identical to `first_position`: `i as f64 / real as f64` (a
        // hit implies `real > 0`).
        let pos = pos_hit.map(|hit| PositionMean::of(hit.map(|i| i as f64 / real as f64)));
        OfferFacts {
            any,
            aead_algs,
            pos,
            heartbeat: offer.heartbeat,
            tls13: offer.versions.iter().any(|v| v.is_tls13_family()),
            fp: None,
        }
    }

    /// Count one connection carrying this offer. The extension and
    /// supported_versions lists are read from the connection's own
    /// offer; they are the same for every connection with its key.
    fn apply(&self, stats: &mut MonthlyStats, offer: &ClientOffer) {
        let any = &self.any;
        stats.adv_rc4 += u64::from(any.rc4);
        stats.adv_cbc += u64::from(any.cbc);
        stats.adv_aead += u64::from(any.aead);
        stats.adv_des += u64::from(any.des);
        stats.adv_3des += u64::from(any.tdes);
        stats.adv_export += u64::from(any.export);
        stats.adv_anon += u64::from(any.anon);
        stats.adv_null += u64::from(any.null_enc);
        stats.adv_fs += u64::from(any.forward_secret);
        stats.adv_heartbeat += u64::from(self.heartbeat);
        stats.adv_tls13 += u64::from(self.tls13);
        stats.adv_aead_alg.add(self.aead_algs);
        stats.pos_aead.add(self.pos[0]);
        stats.pos_cbc.add(self.pos[1]);
        stats.pos_rc4.add(self.pos[2]);
        stats.pos_des.add(self.pos[3]);
        stats.pos_3des.add(self.pos[4]);
        for v in &offer.supported_versions_raw {
            *stats.supported_versions_values.entry(*v).or_insert(0) += 1;
        }
        for t in &offer.extension_types {
            *stats.adv_extensions.entry(*t).or_insert(0) += 1;
        }
    }
}

/// All per-month counters.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MonthlyStats {
    /// Connections ingested this month.
    pub total: u64,
    /// SSLv2-framed connections.
    pub sslv2: u64,
    /// Server rejected with an alert.
    pub rejected: u64,
    /// Server flow missing from the tap.
    pub missing_server: u64,
    /// Server flow present but unparseable.
    pub garbled_server: u64,
    /// Successfully negotiated connections.
    pub answered: u64,

    /// Negotiated protocol versions.
    pub neg_version: VersionCounts,
    /// Negotiated cipher class counters.
    pub neg_rc4: u64,
    /// Negotiated CBC-mode.
    pub neg_cbc: u64,
    /// Negotiated AEAD.
    pub neg_aead: u64,
    /// Negotiated NULL encryption.
    pub neg_null: u64,
    /// Negotiated the fully-null suite.
    pub neg_null_null: u64,
    /// Negotiated 3DES.
    pub neg_3des: u64,
    /// Negotiated single DES.
    pub neg_des: u64,
    /// Negotiated an export-grade suite.
    pub neg_export: u64,
    /// Negotiated an anonymous suite.
    pub neg_anon: u64,
    /// Negotiated a suite the client did not offer (out-of-spec, §7.3).
    pub neg_unoffered: u64,
    /// Negotiated forward secrecy.
    pub neg_fs: u64,
    /// Negotiated key-exchange classes.
    pub neg_kx: KxCounts,
    /// Negotiated AEAD algorithms.
    pub neg_aead_alg: AeadCounts,
    /// Negotiated curve counts by wire id.
    pub curves: FxHashMap<u16, u64>,
    /// Heartbeat negotiated (offered + echoed, §5.4).
    pub heartbeat_negotiated: u64,

    /// Connections whose client offered RC4.
    pub adv_rc4: u64,
    /// ... CBC.
    pub adv_cbc: u64,
    /// ... AEAD.
    pub adv_aead: u64,
    /// ... single DES.
    pub adv_des: u64,
    /// ... 3DES.
    pub adv_3des: u64,
    /// ... export-grade suites.
    pub adv_export: u64,
    /// ... anonymous suites.
    pub adv_anon: u64,
    /// ... NULL encryption.
    pub adv_null: u64,
    /// ... forward-secret suites.
    pub adv_fs: u64,
    /// ... the heartbeat extension.
    pub adv_heartbeat: u64,
    /// ... any TLS 1.3 family version.
    pub adv_tls13: u64,
    /// Advertised AEAD algorithms (connection-weighted).
    pub adv_aead_alg: AeadCounts,
    /// supported_versions values seen (wire value → connections).
    pub supported_versions_values: FxHashMap<u16, u64>,
    /// Connections advertising each extension type (§9's RIE and
    /// Encrypt-then-MAC tracking, SNI/EMS adoption, ...).
    pub adv_extensions: FxHashMap<u16, u64>,

    /// Mean first-offer positions per class.
    pub pos_aead: PositionMean,
    /// CBC position mean.
    pub pos_cbc: PositionMean,
    /// RC4 position mean.
    pub pos_rc4: PositionMean,
    /// DES position mean.
    pub pos_des: PositionMean,
    /// 3DES position mean.
    pub pos_3des: PositionMean,

    /// Distinct fingerprints seen this month with their class flags,
    /// keyed by the owning aggregate's interned fingerprint id.
    pub fp_flags: FxHashMap<FpId, FpClassFlags>,
}

impl MonthlyStats {
    /// Percentage of monthly connections, given a counter.
    pub fn pct(&self, count: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.total as f64
        }
    }

    /// Percentage of *answered* connections.
    pub fn pct_answered(&self, count: u64) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.answered as f64
        }
    }

    /// Percentage of this month's distinct fingerprints matching `f`.
    pub fn pct_fingerprints(&self, f: impl Fn(&FpClassFlags) -> bool) -> f64 {
        if self.fp_flags.is_empty() {
            return 0.0;
        }
        100.0 * self.fp_flags.values().filter(|v| f(v)).count() as f64 / self.fp_flags.len() as f64
    }

    /// Percentage of negotiated curves that are `group`.
    pub fn pct_curve(&self, group: u16) -> f64 {
        let total: u64 = self.curves.values().sum();
        if total == 0 {
            0.0
        } else {
            100.0 * *self.curves.get(&group).unwrap_or(&0) as f64 / total as f64
        }
    }
}

/// The full longitudinal aggregate.
///
/// Equality is exact: with [`PositionMean`]'s integer accumulation,
/// two aggregates built from the same flows — in any ingestion order
/// or sharding — compare equal. Fingerprint state is interned: the
/// dense [`FpId`] each shard assigns depends on its ingestion order,
/// so equality (and [`NotaryAggregate::merge`]) resolve ids through
/// the interner rather than comparing them raw.
#[derive(Debug, Default)]
pub struct NotaryAggregate {
    months: BTreeMap<Month, MonthlyStats>,
    /// Hash-consed fingerprint table: every distinct fingerprint is
    /// stored once; all per-fingerprint state keys on its dense id.
    pub(crate) interner: FpInterner,
    /// First/last-seen tracking per interned fingerprint (§4.1).
    pub sightings: SightingTracker<FpId>,
    /// Total connections per fingerprint, indexed by [`FpId`] (Table 2
    /// coverage input).
    pub(crate) fp_counts: Vec<u64>,
    /// Flows that were not SSL/TLS at all.
    pub not_tls: u64,
    /// Client flows too damaged to parse.
    pub garbled_client: u64,
    /// Connections recovered by prefix salvage after tap damage
    /// (ingested normally; this counter only sizes the degradation).
    pub salvaged: u64,
    /// Per-offer facts by [`ClientOffer::offer_key`]. A cache, not
    /// state: equality, merge and checkpoints never read it.
    offer_memo: HashMap<u64, OfferFacts>,
}

impl NotaryAggregate {
    /// Empty aggregate.
    pub fn new() -> Self {
        NotaryAggregate::default()
    }

    /// Ingest one extracted connection record.
    pub fn ingest(&mut self, rec: &ConnectionRecord) {
        if rec.salvaged {
            self.salvaged += 1;
        }
        let stats = self.months.entry(rec.month).or_default();
        stats.total += 1;
        if rec.sslv2 {
            stats.sslv2 += 1;
            stats.neg_version.ssl2 += 1;
        }

        if let Some(offer) = &rec.client {
            let mut keyless;
            let facts = match offer.offer_key {
                Some(key) => self
                    .offer_memo
                    .entry(key)
                    .or_insert_with(|| OfferFacts::of(offer)),
                None => {
                    keyless = OfferFacts::of(offer);
                    &mut keyless
                }
            };
            facts.apply(stats, offer);
            if rec.date >= FINGERPRINT_FIELDS_SINCE {
                let interner = &mut self.interner;
                let fp = *facts.fp.get_or_insert_with(|| {
                    let id64 = offer.fp_id64.unwrap_or_else(|| offer.fingerprint.id64());
                    interner.intern_hashed(id64, || offer.fingerprint.clone())
                });
                self.sightings.observe(fp, rec.date, 1);
                if self.fp_counts.len() <= fp.index() {
                    self.fp_counts.resize(fp.index() + 1, 0);
                }
                self.fp_counts[fp.index()] += 1;
                stats
                    .fp_flags
                    .entry(fp)
                    .or_insert_with(|| FpClassFlags::from_classes(&facts.any));
            }
            if self.offer_memo.len() > OFFER_MEMO_CAPACITY {
                self.offer_memo.clear();
            }
        }

        match &rec.server {
            ServerOutcome::Missing => stats.missing_server += 1,
            ServerOutcome::Rejected { .. } => stats.rejected += 1,
            ServerOutcome::Garbled => stats.garbled_server += 1,
            ServerOutcome::Answered(ans) => {
                stats.answered += 1;
                stats.neg_version.bump(ans.version);
                let cl = ans.cipher.classes();
                stats.neg_rc4 += u64::from(cl.rc4);
                stats.neg_cbc += u64::from(cl.cbc);
                stats.neg_aead += u64::from(cl.aead);
                stats.neg_null += u64::from(cl.null_enc);
                stats.neg_null_null += u64::from(ans.cipher.is_null_null());
                stats.neg_3des += u64::from(cl.tdes);
                stats.neg_des += u64::from(cl.des);
                stats.neg_export += u64::from(cl.export);
                stats.neg_anon += u64::from(cl.anon);
                stats.neg_fs += u64::from(cl.forward_secret);
                stats.neg_kx.bump(cl.kx);
                if let Some(alg) = cl.aead_alg {
                    *stats.neg_aead_alg.slot(alg) += 1;
                }
                if let Some(curve) = ans.curve {
                    *stats.curves.entry(curve.0).or_insert(0) += 1;
                }
                stats.heartbeat_negotiated += u64::from(ans.heartbeat);
                // Checked per connection against its own suites: the
                // GREASE values in a memoised offer vary by connection.
                if let Some(offer) = &rec.client {
                    stats.neg_unoffered += u64::from(!offer.suites.contains(&ans.cipher));
                }
            }
        }
    }

    /// Record a flow that failed extraction.
    pub fn ingest_failure(&mut self, err: crate::conn::ExtractError) {
        match err {
            crate::conn::ExtractError::NotTls => self.not_tls += 1,
            crate::conn::ExtractError::GarbledClient => self.garbled_client += 1,
        }
    }

    /// Stats for one month.
    pub fn month(&self, m: Month) -> Option<&MonthlyStats> {
        self.months.get(&m)
    }

    /// Insert a fully-built month record (used by the store loader).
    pub fn insert_month(&mut self, m: Month, stats: MonthlyStats) {
        self.months.insert(m, stats);
    }

    /// Iterate months in order.
    pub fn iter_months(&self) -> impl Iterator<Item = (&Month, &MonthlyStats)> {
        self.months.iter()
    }

    /// Total connections across all months.
    pub fn total(&self) -> u64 {
        self.months.values().map(|m| m.total).sum()
    }

    /// Number of distinct fingerprints interned.
    pub fn distinct_fingerprints(&self) -> usize {
        self.interner.len()
    }

    /// Iterate `(fingerprint, connection count)` pairs in interning
    /// order.
    pub fn iter_fp_counts(&self) -> impl Iterator<Item = (&Fingerprint, u64)> {
        self.interner
            .iter()
            .map(|(id, fp)| (fp, self.fp_counts.get(id.index()).copied().unwrap_or(0)))
    }

    /// Connection count for one fingerprint (0 when never seen).
    pub fn fp_count(&self, fp: &Fingerprint) -> u64 {
        self.interner
            .lookup_id64(fp.id64())
            .and_then(|id| self.fp_counts.get(id.index()).copied())
            .unwrap_or(0)
    }

    /// Sighting record for one fingerprint.
    pub fn sighting_of(&self, fp: &Fingerprint) -> Option<&Sighting> {
        let id = self.interner.lookup_id64(fp.id64())?;
        self.sightings.get(id)
    }

    /// Add `n` connections to a fingerprint id's count, growing the
    /// dense table as needed.
    pub(crate) fn bump_fp(&mut self, id: FpId, n: u64) {
        if self.fp_counts.len() <= id.index() {
            self.fp_counts.resize(id.index() + 1, 0);
        }
        self.fp_counts[id.index()] += n;
    }

    /// Merge another aggregate into this one (parallel ingestion).
    ///
    /// `other`'s dense fingerprint ids are meaningless here, so its
    /// interner is drained first into a remap table; every id-keyed
    /// structure is translated through it. The result is identical to
    /// having ingested `other`'s records into `self` directly.
    pub fn merge(&mut self, other: NotaryAggregate) {
        let remap: Vec<FpId> = other
            .interner
            .into_entries()
            .map(|(id64, fp)| self.interner.intern_hashed(id64, || fp))
            .collect();
        for (month, stats) in other.months {
            let mine = self.months.entry(month).or_default();
            mine.total += stats.total;
            mine.sslv2 += stats.sslv2;
            mine.rejected += stats.rejected;
            mine.missing_server += stats.missing_server;
            mine.garbled_server += stats.garbled_server;
            mine.answered += stats.answered;
            mine.neg_version.add(stats.neg_version);
            mine.neg_rc4 += stats.neg_rc4;
            mine.neg_cbc += stats.neg_cbc;
            mine.neg_aead += stats.neg_aead;
            mine.neg_null += stats.neg_null;
            mine.neg_null_null += stats.neg_null_null;
            mine.neg_3des += stats.neg_3des;
            mine.neg_des += stats.neg_des;
            mine.neg_export += stats.neg_export;
            mine.neg_anon += stats.neg_anon;
            mine.neg_unoffered += stats.neg_unoffered;
            mine.neg_fs += stats.neg_fs;
            mine.neg_kx.add(stats.neg_kx);
            mine.neg_aead_alg.add(stats.neg_aead_alg);
            for (curve, n) in stats.curves {
                *mine.curves.entry(curve).or_insert(0) += n;
            }
            mine.heartbeat_negotiated += stats.heartbeat_negotiated;
            mine.adv_rc4 += stats.adv_rc4;
            mine.adv_cbc += stats.adv_cbc;
            mine.adv_aead += stats.adv_aead;
            mine.adv_des += stats.adv_des;
            mine.adv_3des += stats.adv_3des;
            mine.adv_export += stats.adv_export;
            mine.adv_anon += stats.adv_anon;
            mine.adv_null += stats.adv_null;
            mine.adv_fs += stats.adv_fs;
            mine.adv_heartbeat += stats.adv_heartbeat;
            mine.adv_tls13 += stats.adv_tls13;
            mine.adv_aead_alg.add(stats.adv_aead_alg);
            for (v, n) in stats.supported_versions_values {
                *mine.supported_versions_values.entry(v).or_insert(0) += n;
            }
            for (t, n) in stats.adv_extensions {
                *mine.adv_extensions.entry(t).or_insert(0) += n;
            }
            mine.pos_aead.add(stats.pos_aead);
            mine.pos_cbc.add(stats.pos_cbc);
            mine.pos_rc4.add(stats.pos_rc4);
            mine.pos_des.add(stats.pos_des);
            mine.pos_3des.add(stats.pos_3des);
            for (fp, flags) in stats.fp_flags {
                mine.fp_flags.entry(remap[fp.index()]).or_insert(flags);
            }
        }
        for (i, count) in other.fp_counts.into_iter().enumerate() {
            self.bump_fp(remap[i], count);
        }
        // Merge sighting windows.
        for (id, s) in other.sightings.iter_raw() {
            let id = remap[id.index()];
            self.sightings.observe(id, s.first, 0);
            self.sightings.observe(id, s.last, s.connections);
        }
        self.not_tls += other.not_tls;
        self.garbled_client += other.garbled_client;
        self.salvaged += other.salvaged;
    }
}

/// Id-order-independent equality: months, failure counters, and all
/// per-fingerprint state must agree, with dense ids resolved through
/// each side's interner (two shards that interned the same
/// fingerprints in different orders still compare equal).
impl PartialEq for NotaryAggregate {
    fn eq(&self, other: &Self) -> bool {
        if self.not_tls != other.not_tls
            || self.garbled_client != other.garbled_client
            || self.salvaged != other.salvaged
            || self.months.len() != other.months.len()
            || self.interner.len() != other.interner.len()
        {
            return false;
        }
        for ((ma, sa), (mb, sb)) in self.months.iter().zip(other.months.iter()) {
            if ma != mb {
                return false;
            }
            let fa: BTreeMap<u64, FpClassFlags> = sa
                .fp_flags
                .iter()
                .map(|(id, f)| (self.interner.id64_of(*id), *f))
                .collect();
            let fb: BTreeMap<u64, FpClassFlags> = sb
                .fp_flags
                .iter()
                .map(|(id, f)| (other.interner.id64_of(*id), *f))
                .collect();
            if fa != fb {
                return false;
            }
            let mut ca = sa.clone();
            let mut cb = sb.clone();
            ca.fp_flags.clear();
            cb.fp_flags.clear();
            if ca != cb {
                return false;
            }
        }
        let counts_a: BTreeMap<&Fingerprint, u64> = self.iter_fp_counts().collect();
        let counts_b: BTreeMap<&Fingerprint, u64> = other.iter_fp_counts().collect();
        if counts_a != counts_b {
            return false;
        }
        let sights_a: BTreeMap<u64, Sighting> = self
            .sightings
            .iter_raw()
            .map(|(id, s)| (self.interner.id64_of(*id), *s))
            .collect();
        let sights_b: BTreeMap<u64, Sighting> = other
            .sightings
            .iter_raw()
            .map(|(id, s)| (other.interner.id64_of(*id), *s))
            .collect();
        sights_a == sights_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{ClientOffer, ServerAnswer};
    use tlscope_chron::Date;
    use tlscope_wire::CipherSuite;

    fn offer(suites: &[u16]) -> ClientOffer {
        let cs: Vec<CipherSuite> = suites.iter().map(|&s| CipherSuite(s)).collect();
        ClientOffer {
            legacy_version: ProtocolVersion::Tls12,
            versions: vec![ProtocolVersion::Tls12],
            supported_versions_raw: vec![],
            heartbeat: false,
            extension_types: vec![],
            fingerprint: Fingerprint {
                ciphers: suites.to_vec(),
                extensions: vec![],
                curves: vec![],
                point_formats: vec![],
            },
            suites: cs,
            fp_id64: None,
            offer_key: None,
        }
    }

    fn record(
        month_day: (i32, u8, u8),
        suites: &[u16],
        answer: Option<(u16, u16)>,
    ) -> ConnectionRecord {
        let date = Date::ymd(month_day.0, month_day.1, month_day.2);
        ConnectionRecord {
            date,
            month: date.month(),
            port: 443,
            sslv2: false,
            client: Some(offer(suites)),
            server: match answer {
                Some((cipher, version)) => ServerOutcome::Answered(ServerAnswer {
                    version: ProtocolVersion::from_wire(version),
                    cipher: CipherSuite(cipher),
                    curve: None,
                    heartbeat: false,
                }),
                None => ServerOutcome::Rejected { alert: None },
            },
            salvaged: false,
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut agg = NotaryAggregate::new();
        agg.ingest(&record(
            (2015, 6, 1),
            &[0xc02f, 0x0005],
            Some((0xc02f, 0x0303)),
        ));
        agg.ingest(&record(
            (2015, 6, 2),
            &[0x0005, 0x000a],
            Some((0x0005, 0x0301)),
        ));
        agg.ingest(&record((2015, 6, 3), &[0xc02f], None));
        let m = agg.month(Month::ym(2015, 6)).unwrap();
        assert_eq!(m.total, 3);
        assert_eq!(m.answered, 2);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.neg_aead, 1);
        assert_eq!(m.neg_rc4, 1);
        assert_eq!(m.adv_rc4, 2);
        assert_eq!(m.adv_aead, 2);
        assert_eq!(m.neg_version.tls12, 1);
        assert_eq!(m.neg_version.tls10, 1);
        assert!((m.pct(m.adv_rc4) - 66.666).abs() < 0.01);
        assert!((m.pct_answered(m.neg_rc4) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unoffered_cipher_detected() {
        let mut agg = NotaryAggregate::new();
        // Server picks GOST which the client never offered (§7.3).
        agg.ingest(&record((2016, 1, 5), &[0xc02f], Some((0x0081, 0x0303))));
        let m = agg.month(Month::ym(2016, 1)).unwrap();
        assert_eq!(m.neg_unoffered, 1);
    }

    #[test]
    fn fingerprint_tracking() {
        let mut agg = NotaryAggregate::new();
        agg.ingest(&record(
            (2015, 6, 1),
            &[0xc02f, 0x0005],
            Some((0xc02f, 0x0303)),
        ));
        agg.ingest(&record(
            (2015, 6, 20),
            &[0xc02f, 0x0005],
            Some((0xc02f, 0x0303)),
        ));
        agg.ingest(&record((2015, 6, 2), &[0xc02f], Some((0xc02f, 0x0303))));
        let m = agg.month(Month::ym(2015, 6)).unwrap();
        assert_eq!(m.fp_flags.len(), 2);
        assert!((m.pct_fingerprints(|f| f.rc4) - 50.0).abs() < 1e-9);
        assert_eq!(agg.distinct_fingerprints(), 2);
        assert_eq!(agg.sightings.len(), 2);
        let fp = offer(&[0xc02f, 0x0005]).fingerprint;
        assert_eq!(agg.fp_count(&fp), 2);
        let s = agg.sighting_of(&fp).unwrap();
        assert_eq!(s.duration_days(), 20);
        assert_eq!(s.connections, 2);
    }

    #[test]
    fn merge_matches_sequential() {
        let recs: Vec<ConnectionRecord> = (0..50)
            .map(|i| {
                record(
                    (2016, 1 + (i % 3) as u8, 1 + (i % 27) as u8),
                    if i % 2 == 0 {
                        &[0xc02f, 0x0005]
                    } else {
                        &[0x002f]
                    },
                    if i % 5 == 0 {
                        None
                    } else {
                        Some((0xc02f, 0x0303))
                    },
                )
            })
            .collect();
        let mut seq = NotaryAggregate::new();
        for r in &recs {
            seq.ingest(r);
        }
        let mut a = NotaryAggregate::new();
        let mut b = NotaryAggregate::new();
        for (i, r) in recs.iter().enumerate() {
            if i % 2 == 0 {
                a.ingest(r);
            } else {
                b.ingest(r);
            }
        }
        a.merge(b);
        assert_eq!(a.total(), seq.total());
        for (m, s) in seq.iter_months() {
            let am = a.month(*m).unwrap();
            assert_eq!(am.total, s.total);
            assert_eq!(am.answered, s.answered);
            assert_eq!(am.adv_rc4, s.adv_rc4);
            assert_eq!(am.fp_flags.len(), s.fp_flags.len());
        }
        // Full id-order-independent equality: the merged shard interned
        // fingerprints in a different order than the serial pass.
        assert_eq!(a, seq);
    }

    #[test]
    fn equality_ignores_interning_order() {
        // Same records, opposite ingestion order → different dense ids
        // but equal aggregates.
        let r1 = record((2016, 3, 1), &[0xc02f, 0x0005], Some((0xc02f, 0x0303)));
        let r2 = record((2016, 3, 2), &[0x002f], Some((0x002f, 0x0303)));
        let mut a = NotaryAggregate::new();
        a.ingest(&r1);
        a.ingest(&r2);
        let mut b = NotaryAggregate::new();
        b.ingest(&r2);
        b.ingest(&r1);
        assert_ne!(
            a.interner
                .lookup_id64(offer(&[0xc02f, 0x0005]).fingerprint.id64()),
            b.interner
                .lookup_id64(offer(&[0xc02f, 0x0005]).fingerprint.id64()),
        );
        assert_eq!(a, b);
        // And a genuinely different count is still detected.
        b.ingest(&r1);
        assert_ne!(a, b);
    }

    #[test]
    fn fx_spreads_every_u16_key_evenly() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let hashes: Vec<u64> = (0..=u16::MAX).map(|k| build.hash_one(k)).collect();
        for bits in 4..=16 {
            let mut load = vec![0u32; 1 << bits];
            for h in &hashes {
                load[(h & ((1 << bits) - 1)) as usize] += 1;
            }
            let mean = 65_536 >> bits;
            let max = *load.iter().max().unwrap();
            assert!(
                4 * max <= 5 * mean + 4,
                "{bits} bits: max {max}, mean {mean}"
            );
        }
    }

    #[test]
    fn pct_curve() {
        let mut m = MonthlyStats::default();
        m.curves.insert(23, 80);
        m.curves.insert(29, 20);
        assert!((m.pct_curve(23) - 80.0).abs() < 1e-9);
        assert!((m.pct_curve(29) - 20.0).abs() < 1e-9);
        assert_eq!(m.pct_curve(24), 0.0);
    }
}
