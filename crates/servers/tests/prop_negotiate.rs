//! Property test: the one-pass negotiation decides exactly what the
//! quadratic reference decides.
//!
//! [`decide_reference`] is the server decision as first written, kept
//! verbatim: in server order it walks the preference list and, for each
//! entry, re-filters the whole offer through the usability test, and
//! every candidate recomputes the common curve. `negotiate::decide`
//! tests membership first and computes the curve once. The two must
//! agree, `Ok` and `Err` alike, for the profiles the population samples
//! (every traffic destination and scan hosts, 2012 to 2018) under every
//! quirk, both preference modes and an empty curve list, against every
//! catalog era's hello and against hellos salted with GREASE, SCSVs,
//! TLS 1.3 suites and unregistered ids, shuffled, without
//! supported_groups, with no curve in common, and offering TLS 1.3
//! drafts.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use tlscope_chron::Date;
use tlscope_clients::catalog::all_families;
use tlscope_clients::{HelloEntropy, TlsConfig};
use tlscope_servers::negotiate::{decide, ClientFacts, Decision, HandshakeFailure};
use tlscope_servers::{Destination, Quirk, ServerPopulation, ServerProfile};
use tlscope_wire::exts::ext_type;
use tlscope_wire::grease::{grease_value, is_grease};
use tlscope_wire::{CipherSuite, Kx, NamedGroup, ProtocolVersion};

// ---------------------------------------------------------------------
// The reference: the decision before the one-pass rewrite, verbatim.
// ---------------------------------------------------------------------

fn decide_reference(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
) -> Result<Decision, HandshakeFailure> {
    let version = negotiate_version(profile, facts)?;
    let cipher = select_cipher(profile, facts, version)?;
    let curve = select_curve(profile, facts, cipher, version);
    let heartbeat = profile.heartbeat && facts.has_heartbeat && !version.is_tls13_family();
    Ok(Decision {
        version,
        cipher,
        curve,
        heartbeat,
    })
}

/// True for a GREASE value riding in a version list.
fn grease_version(v: ProtocolVersion) -> bool {
    matches!(v, ProtocolVersion::Unknown(x) if is_grease(x))
}

/// The classic version ladder a client without `supported_versions`
/// implicitly offers (everything from SSL 3 up to its legacy field).
const CLASSIC_VERSIONS: [ProtocolVersion; 4] = [
    ProtocolVersion::Ssl3,
    ProtocolVersion::Tls10,
    ProtocolVersion::Tls11,
    ProtocolVersion::Tls12,
];

fn negotiate_version(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
) -> Result<ProtocolVersion, HandshakeFailure> {
    // TLS 1.3 path: exact-member match within the 1.3 family, mirroring
    // how draft deployments only interoperated on equal draft numbers.
    if let Some(server13) = profile.tls13 {
        let offered13 = match facts.supported_versions {
            Some(vs) => vs.iter().any(|v| !grease_version(*v) && *v == server13),
            None => false,
        };
        if offered13 {
            return Ok(server13);
        }
    }
    // Classic path: min(client max, server max), bounded below by both.
    let client_max = match facts.supported_versions {
        Some(vs) => vs
            .iter()
            .copied()
            .filter(|v| !grease_version(*v) && !v.is_tls13_family())
            .max_by_key(|v| v.rank()),
        None => CLASSIC_VERSIONS
            .into_iter()
            .filter(|v| v.rank() <= facts.legacy_version.rank())
            .max_by_key(|v| v.rank()),
    }
    .unwrap_or(facts.legacy_version);
    let chosen = if client_max.rank() <= profile.max_version.rank() {
        client_max
    } else {
        profile.max_version
    };
    if chosen.rank() < profile.min_version.rank() {
        return Err(HandshakeFailure::VersionMismatch);
    }
    Ok(chosen)
}

/// A suite is usable at `version` if it is not TLS 1.3-only below 1.3,
/// and AEAD suites require TLS 1.2+.
fn usable_at(cipher: CipherSuite, version: ProtocolVersion) -> bool {
    if version.is_tls13_family() {
        return cipher.is_tls13();
    }
    if cipher.is_tls13() {
        return false;
    }
    if cipher.is_aead() && version.rank() < ProtocolVersion::Tls12.rank() {
        return false;
    }
    true
}

fn select_cipher(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
    version: ProtocolVersion,
) -> Result<CipherSuite, HandshakeFailure> {
    let usable = |c: &CipherSuite| !is_grease(c.0) && !c.is_signaling() && usable_at(*c, version);
    let offered = || facts.cipher_suites.iter().copied().filter(|c| usable(c));

    // Out-of-spec behaviours first.
    match profile.quirk {
        Quirk::ChooseUnoffered(s) => return Ok(s),
        Quirk::DowngradeRc4ToExport => {
            if offered().any(|c| c.0 == 0x0005 || c.0 == 0x0004) {
                // Interwise: answer RC4_128 with EXP_RC4_40_MD5 (§5.5).
                return Ok(CipherSuite(0x0003));
            }
        }
        Quirk::PreferRc4 => {
            if let Some(c) = offered().find(|c| c.is_rc4()) {
                return Ok(c);
            }
        }
        Quirk::Prefer3Des => {
            if let Some(c) = offered().find(|c| c.is_3des()) {
                return Ok(c);
            }
        }
        Quirk::PreferNull => {
            if let Some(c) = offered().find(|c| c.is_null_encryption()) {
                return Ok(c);
            }
        }
        Quirk::PreferAnon => {
            if let Some(c) = offered().find(|c| c.is_anon() || c.is_null_null()) {
                return Ok(c);
            }
        }
        Quirk::None => {}
    }

    let choice = if profile.prefer_server_order {
        profile
            .preference
            .iter()
            .find(|c| offered().any(|o| o == **c) && ecdhe_feasible(profile, facts, **c))
            .copied()
    } else {
        offered().find(|c| profile.preference.contains(c) && ecdhe_feasible(profile, facts, *c))
    };
    choice.ok_or(HandshakeFailure::NoCommonCipher)
}

/// The RFC 4492 default: clients without a supported_groups extension
/// are assumed to support the NIST trio.
const RFC4492_DEFAULT_CURVES: [NamedGroup; 3] = [
    NamedGroup::SECP256R1,
    NamedGroup::SECP384R1,
    NamedGroup::SECP521R1,
];

/// ECDHE suites need a curve both sides support.
fn common_curve(profile: &ServerProfile, facts: &ClientFacts<'_>) -> Option<NamedGroup> {
    let client_curves = facts.curves.unwrap_or(&RFC4492_DEFAULT_CURVES);
    // Server preference order wins (the common OpenSSL deployment).
    profile
        .curves
        .iter()
        .find(|g| client_curves.contains(g) && !is_grease(g.0))
        .copied()
}

fn ecdhe_feasible(profile: &ServerProfile, facts: &ClientFacts<'_>, cipher: CipherSuite) -> bool {
    match cipher.kx() {
        Some(Kx::Ecdhe) | Some(Kx::Ecdh) | Some(Kx::EcdhAnon) => {
            common_curve(profile, facts).is_some()
        }
        _ => true,
    }
}

fn select_curve(
    profile: &ServerProfile,
    facts: &ClientFacts<'_>,
    cipher: CipherSuite,
    version: ProtocolVersion,
) -> Option<NamedGroup> {
    let needs_curve = version.is_tls13_family()
        || matches!(
            cipher.kx(),
            Some(Kx::Ecdhe) | Some(Kx::Ecdh) | Some(Kx::EcdhAnon) | Some(Kx::EcdhePsk)
        );
    if needs_curve {
        common_curve(profile, facts)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// An owned hello description, borrowed as [`ClientFacts`].
#[derive(Debug, Clone)]
struct Hello {
    legacy_version: ProtocolVersion,
    suites: Vec<CipherSuite>,
    versions: Option<Vec<ProtocolVersion>>,
    curves: Option<Vec<NamedGroup>>,
    renegotiation_info: bool,
    heartbeat: bool,
    extensions: bool,
}

impl Hello {
    /// The hello a client running `cfg` sends, described the way the
    /// traffic generator fills [`ClientFacts`] (GREASE included).
    fn from_config(cfg: &TlsConfig, entropy: &HelloEntropy) -> Self {
        let mut suites = Vec::new();
        cfg.hello_ciphers_into(entropy, &mut suites);
        let has = |ext: u16| cfg.extensions.contains(&ext);
        let versions = has(ext_type::SUPPORTED_VERSIONS).then(|| {
            let grease = cfg
                .grease
                .then(|| ProtocolVersion::Unknown(grease_value(entropy.grease_draws[0])));
            grease
                .into_iter()
                .chain(cfg.supported_versions.iter().copied())
                .collect()
        });
        let curves = has(ext_type::SUPPORTED_GROUPS).then(|| {
            let grease = cfg
                .grease
                .then(|| NamedGroup(grease_value(entropy.grease_draws[3])));
            grease
                .into_iter()
                .chain(cfg.curves.iter().copied())
                .collect()
        });
        Hello {
            legacy_version: cfg.legacy_version,
            suites,
            versions,
            curves,
            renegotiation_info: has(ext_type::RENEGOTIATION_INFO),
            heartbeat: has(ext_type::HEARTBEAT),
            extensions: !cfg.extensions.is_empty() || cfg.grease,
        }
    }

    fn facts(&self) -> ClientFacts<'_> {
        ClientFacts {
            legacy_version: self.legacy_version,
            session_id: &[],
            cipher_suites: &self.suites,
            supported_versions: self.versions.as_deref(),
            curves: self.curves.as_deref(),
            has_renegotiation_info: self.renegotiation_info,
            has_heartbeat: self.heartbeat,
            has_extensions: self.extensions,
        }
    }
}

/// Suites no catalog era lists in these combinations: GREASE, the two
/// SCSVs, TLS 1.3 suites, and unregistered ids.
const SALT: [u16; 10] = [
    0x0a0a, 0xfafa, 0x00ff, 0x5600, 0x1301, 0x1302, 0x1303, 0x0e0e, 0x7777, 0xd00d,
];

/// Supported versions carrying the drafts and the experiment that
/// sampled TLS 1.3 servers speak, plus GREASE and the classic ladder.
const DRAFT_VERSIONS: [ProtocolVersion; 8] = [
    ProtocolVersion::Unknown(0x3a3a),
    ProtocolVersion::Tls13Draft(18),
    ProtocolVersion::Tls13Draft(23),
    ProtocolVersion::Tls13Experiment(2),
    ProtocolVersion::Tls13,
    ProtocolVersion::Tls12,
    ProtocolVersion::Tls11,
    ProtocolVersion::Tls10,
];

/// A curve list no profile shares: GREASE and the two smallest FFDHE
/// groups.
const NO_COMMON_CURVE: [NamedGroup; 3] =
    [NamedGroup(0x2a2a), NamedGroup(0x0100), NamedGroup(0x0101)];

fn salt(h: &mut Hello, rng: &mut SmallRng) {
    for s in SALT {
        let at = rng.random_range(0..=h.suites.len());
        h.suites.insert(at, CipherSuite(s));
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// Number of hello variants [`variant`] knows.
const VARIANTS: usize = 7;

/// Variant `v` of `base`: 0 as sent, 1 salted, 2 shuffled, 3 without
/// supported_groups, 4 with no curve in common, 5 offering TLS 1.3
/// drafts, 6 everything at once.
fn variant(base: &Hello, v: usize, rng: &mut SmallRng) -> Hello {
    let mut h = base.clone();
    match v {
        0 => {}
        1 => salt(&mut h, rng),
        2 => shuffle(&mut h.suites, rng),
        3 => h.curves = None,
        4 => h.curves = Some(NO_COMMON_CURVE.to_vec()),
        5 => h.versions = Some(DRAFT_VERSIONS.to_vec()),
        _ => {
            salt(&mut h, rng);
            shuffle(&mut h.suites, rng);
            h.curves = [None, Some(NO_COMMON_CURVE.to_vec())][rng.random_range(0..2)].clone();
            let mut versions = DRAFT_VERSIONS.to_vec();
            shuffle(&mut versions, rng);
            versions.truncate(rng.random_range(0..=versions.len()));
            h.versions = Some(versions);
        }
    }
    h
}

const DESTINATIONS: [Destination; 11] = [
    Destination::Web,
    Destination::Mail,
    Destination::Grid,
    Destination::Nagios,
    Destination::Sslv2Relic,
    Destination::Interwise,
    Destination::Gost,
    Destination::BankLegacy,
    Destination::Splunk,
    Destination::Enterprise,
    Destination::Iot,
];

const QUIRKS: [Quirk; 7] = [
    Quirk::None,
    Quirk::ChooseUnoffered(CipherSuite(0x0081)),
    Quirk::DowngradeRc4ToExport,
    Quirk::PreferRc4,
    Quirk::Prefer3Des,
    Quirk::PreferNull,
    Quirk::PreferAnon,
];

/// Scan hosts sampled per year, beside one profile per destination.
const HOSTS_PER_YEAR: usize = 6;

/// One profile per destination and [`HOSTS_PER_YEAR`] scan hosts,
/// sampled on 1 July of every year from 2012 to 2018. A pool this small
/// rarely draws a TLS 1.3 server, so from 2017 the Web profile also
/// gets a draft-18 and an experiment-2 twin, enabled the way
/// `cohorts::sample` enables TLS 1.3.
fn base_profiles() -> Vec<ServerProfile> {
    let pop = ServerPopulation::new();
    let mut rng = SmallRng::seed_from_u64(0x6e65_676f);
    let mut out = Vec::new();
    for year in 2012..=2018 {
        let date = Date::ymd(year, 7, 1);
        for dest in DESTINATIONS {
            out.push(pop.sample_for_traffic(dest, date, &mut rng));
        }
        if year >= 2017 {
            let web = out[out.len() - DESTINATIONS.len()].clone();
            for v in [
                ProtocolVersion::Tls13Draft(18),
                ProtocolVersion::Tls13Experiment(2),
            ] {
                let mut twin = web.clone();
                twin.tls13 = Some(v);
                twin.preference
                    .splice(0..0, [0x1301, 0x1302, 0x1303].map(CipherSuite));
                out.push(twin);
            }
        }
        for _ in 0..HOSTS_PER_YEAR {
            out.push(pop.sample_host(date, &mut rng));
        }
    }
    out
}

/// Number of overrides [`with_override`] knows.
const OVERRIDES: usize = 1 + QUIRKS.len() * 4;

/// Override `k` of `p`: 0 leaves it as sampled; the rest set every
/// quirk × both preference modes × sampled or empty curves.
fn with_override(p: &ServerProfile, k: usize) -> ServerProfile {
    let mut p = p.clone();
    if k > 0 {
        let (quirk, mode) = ((k - 1) % QUIRKS.len(), (k - 1) / QUIRKS.len());
        p.quirk = QUIRKS[quirk];
        p.prefer_server_order = mode & 1 == 0;
        if mode & 2 != 0 {
            p.curves.clear();
        }
    }
    p
}

/// Every era of every catalog family, built once per process.
fn eras() -> &'static [TlsConfig] {
    static ERAS: OnceLock<Vec<TlsConfig>> = OnceLock::new();
    ERAS.get_or_init(|| {
        all_families()
            .into_iter()
            .flat_map(|f| f.eras)
            .map(|e| e.tls)
            .collect()
    })
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

/// Outcomes seen, so a sweep can show it reached every branch.
#[derive(Debug, Default)]
struct Tally {
    classic: usize,
    tls13: usize,
    ecdhe: usize,
    version_mismatch: usize,
    no_common_cipher: usize,
}

impl Tally {
    fn check(&mut self, p: &ServerProfile, h: &Hello) {
        let f = h.facts();
        let got = decide(p, &f);
        assert_eq!(got, decide_reference(p, &f), "profile {p:?}\nhello {h:?}");
        match got {
            Ok(d) if d.version.is_tls13_family() => self.tls13 += 1,
            Ok(d) if matches!(d.cipher.kx(), Some(Kx::Ecdhe)) => self.ecdhe += 1,
            Ok(_) => self.classic += 1,
            Err(HandshakeFailure::VersionMismatch) => self.version_mismatch += 1,
            Err(HandshakeFailure::NoCommonCipher) => self.no_common_cipher += 1,
        }
    }

    fn assert_reached_every_outcome(&self) {
        let Tally {
            classic,
            tls13,
            ecdhe,
            version_mismatch,
            no_common_cipher,
        } = *self;
        assert!(
            [classic, tls13, ecdhe, version_mismatch, no_common_cipher]
                .iter()
                .all(|n| *n > 0),
            "{self:?}"
        );
    }
}

#[test]
fn salt_and_curves_are_what_they_claim() {
    for s in SALT.map(CipherSuite) {
        assert!(is_grease(s.0) || s.is_signaling() || s.is_tls13() || s.info().is_none());
    }
    let h = Hello {
        legacy_version: ProtocolVersion::Tls12,
        suites: vec![],
        versions: None,
        curves: Some(NO_COMMON_CURVE.to_vec()),
        renegotiation_info: false,
        heartbeat: false,
        extensions: true,
    };
    for p in base_profiles() {
        assert_eq!(common_curve(&p, &h.facts()), None, "{p:?}");
    }
}

#[test]
fn every_era_and_variant_against_every_profile() {
    let profiles = base_profiles();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut tally = Tally::default();
    let mut k = 0;
    for (i, cfg) in eras().iter().enumerate() {
        let base = Hello::from_config(cfg, &HelloEntropy::from_seed(i as u64));
        for v in 0..VARIANTS {
            let h = variant(&base, v, &mut rng);
            for p in &profiles {
                tally.check(&with_override(p, k % OVERRIDES), &h);
                k += 1;
            }
        }
    }
    tally.assert_reached_every_outcome();
}

#[test]
fn every_profile_under_every_override() {
    let eras = eras();
    let mut rng = SmallRng::seed_from_u64(2);
    // Every sixteenth era in every variant, so old and new clients meet
    // each override.
    let hellos: Vec<Hello> = eras
        .iter()
        .enumerate()
        .step_by(16)
        .flat_map(|(i, cfg)| {
            let base = Hello::from_config(cfg, &HelloEntropy::from_seed(i as u64));
            (0..VARIANTS)
                .map(|v| variant(&base, v, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut tally = Tally::default();
    for p in &base_profiles() {
        for k in 0..OVERRIDES {
            let p = with_override(p, k);
            for h in &hellos {
                tally.check(&p, h);
            }
        }
    }
    tally.assert_reached_every_outcome();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random draws over any date in the window, any destination or a
    /// scan host, any override, any era and any variant.
    #[test]
    fn random_profiles_and_hellos(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let eras = eras();
        let pop = ServerPopulation::new();
        let date = Date::ymd(2012, 1, 1).add_days(rng.random_range(0..7 * 365));
        for _ in 0..16 {
            let p = match rng.random_range(0..=DESTINATIONS.len()) {
                d if d < DESTINATIONS.len() => {
                    pop.sample_for_traffic(DESTINATIONS[d], date, &mut rng)
                }
                _ => pop.sample_host(date, &mut rng),
            };
            let p = with_override(&p, rng.random_range(0..OVERRIDES));
            let cfg = &eras[rng.random_range(0..eras.len())];
            let base = Hello::from_config(cfg, &HelloEntropy::from_seed(rng.random()));
            let v = rng.random_range(0..VARIANTS);
            let h = variant(&base, v, &mut rng);
            let f = h.facts();
            prop_assert_eq!(decide(&p, &f), decide_reference(&p, &f), "{:?}\n{:?}", p, h);
        }
    }
}
