//! Cipher-suite registry with the security-relevant properties the paper
//! classifies connections by.
//!
//! Every negotiated or advertised suite in the study is bucketed along
//! several axes: encryption mode (RC4 / CBC / AEAD, Figures 2–4),
//! key exchange (RSA / DHE / ECDHE, Figure 8), AEAD algorithm
//! (Figures 9–10), export grade, anonymous key exchange, NULL
//! encryption (Figure 7), and DES/3DES use (§5.6). This module defines
//! the property model; the exhaustive IANA table lives in
//! [`crate::suites_table`].

use core::fmt;

/// Key-exchange mechanism of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kx {
    /// NULL key exchange (only `TLS_NULL_WITH_NULL_NULL`).
    Null,
    /// RSA key transport.
    Rsa,
    /// Static Diffie-Hellman.
    Dh,
    /// Ephemeral Diffie-Hellman.
    Dhe,
    /// Static elliptic-curve Diffie-Hellman.
    Ecdh,
    /// Ephemeral elliptic-curve Diffie-Hellman.
    Ecdhe,
    /// Anonymous (unauthenticated) DH.
    DhAnon,
    /// Anonymous (unauthenticated) ECDH.
    EcdhAnon,
    /// Pre-shared key.
    Psk,
    /// DHE with PSK authentication.
    DhePsk,
    /// RSA key transport with PSK.
    RsaPsk,
    /// ECDHE with PSK authentication.
    EcdhePsk,
    /// Secure Remote Password.
    Srp,
    /// Kerberos 5.
    Krb5,
    /// Russian GOST key agreement.
    Gost,
    /// TLS 1.3 (key exchange lives in extensions; always (EC)DHE/PSK).
    Tls13,
    /// Signalling value, not a real suite (SCSVs).
    Scsv,
}

/// Server-authentication mechanism of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Auth {
    /// No authentication field (NULL suite or SCSV).
    Null,
    /// RSA signatures / RSA key transport.
    Rsa,
    /// DSA signatures.
    Dss,
    /// ECDSA signatures.
    Ecdsa,
    /// Anonymous: no server authentication at all.
    Anon,
    /// Pre-shared key.
    Psk,
    /// SRP password proof.
    Srp,
    /// Kerberos tickets.
    Krb5,
    /// GOST signatures.
    Gost,
    /// TLS 1.3 (authentication negotiated separately).
    Tls13,
}

/// Bulk encryption algorithm (and mode) of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the algorithm names
pub enum Enc {
    Null,
    Rc2Cbc40,
    Rc4_40,
    Rc4_56,
    Rc4_128,
    Des40Cbc,
    DesCbc,
    TripleDesCbc,
    IdeaCbc,
    SeedCbc,
    Aes128Cbc,
    Aes256Cbc,
    Aes128Gcm,
    Aes256Gcm,
    Aes128Ccm,
    Aes128Ccm8,
    Aes256Ccm,
    Aes256Ccm8,
    Camellia128Cbc,
    Camellia256Cbc,
    Camellia128Gcm,
    Camellia256Gcm,
    Aria128Cbc,
    Aria256Cbc,
    Aria128Gcm,
    Aria256Gcm,
    ChaCha20Poly1305,
    Gost28147,
}

/// Coarse encryption mode, the axis of Figures 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncMode {
    /// No encryption (NULL).
    None,
    /// Stream cipher (RC4, GOST CNT).
    Stream,
    /// CBC block-cipher mode.
    Cbc,
    /// Authenticated encryption with associated data.
    Aead,
}

/// AEAD algorithm breakdown, the axis of Figures 9–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AeadAlg {
    /// AES-128 in Galois/Counter Mode.
    Aes128Gcm,
    /// AES-256 in Galois/Counter Mode.
    Aes256Gcm,
    /// ChaCha20-Poly1305.
    ChaCha20Poly1305,
    /// AES in CCM mode (any key size / tag length).
    AesCcm,
    /// Camellia or ARIA GCM (rare; grouped as "other").
    Other,
}

impl Enc {
    /// Coarse mode of this algorithm.
    pub fn mode(self) -> EncMode {
        use Enc::*;
        match self {
            Null => EncMode::None,
            Rc4_40 | Rc4_56 | Rc4_128 | Gost28147 => EncMode::Stream,
            Rc2Cbc40 | Des40Cbc | DesCbc | TripleDesCbc | IdeaCbc | SeedCbc | Aes128Cbc
            | Aes256Cbc | Camellia128Cbc | Camellia256Cbc | Aria128Cbc | Aria256Cbc => EncMode::Cbc,
            Aes128Gcm | Aes256Gcm | Aes128Ccm | Aes128Ccm8 | Aes256Ccm | Aes256Ccm8
            | Camellia128Gcm | Camellia256Gcm | Aria128Gcm | Aria256Gcm | ChaCha20Poly1305 => {
                EncMode::Aead
            }
        }
    }

    /// Nominal key length in bits (0 for NULL).
    pub fn key_bits(self) -> u16 {
        use Enc::*;
        match self {
            Null => 0,
            Rc2Cbc40 | Rc4_40 | Des40Cbc => 40,
            Rc4_56 => 56,
            DesCbc => 56,
            Rc4_128 | IdeaCbc | SeedCbc | Aes128Cbc | Aes128Gcm | Aes128Ccm | Aes128Ccm8
            | Camellia128Cbc | Camellia128Gcm | Aria128Cbc | Aria128Gcm => 128,
            TripleDesCbc => 168,
            Aes256Cbc | Aes256Gcm | Aes256Ccm | Aes256Ccm8 | Camellia256Cbc | Camellia256Gcm
            | Aria256Cbc | Aria256Gcm | ChaCha20Poly1305 | Gost28147 => 256,
        }
    }

    /// Block size in bits for block ciphers; `None` for stream/NULL.
    ///
    /// The 64-bit entries are exactly the Sweet32-affected ciphers.
    pub fn block_bits(self) -> Option<u16> {
        use Enc::*;
        match self {
            Rc2Cbc40 | Des40Cbc | DesCbc | TripleDesCbc | IdeaCbc | Gost28147 => Some(64),
            SeedCbc | Aes128Cbc | Aes256Cbc | Aes128Gcm | Aes256Gcm | Aes128Ccm | Aes128Ccm8
            | Aes256Ccm | Aes256Ccm8 | Camellia128Cbc | Camellia256Cbc | Camellia128Gcm
            | Camellia256Gcm | Aria128Cbc | Aria256Cbc | Aria128Gcm | Aria256Gcm => Some(128),
            Null | Rc4_40 | Rc4_56 | Rc4_128 | ChaCha20Poly1305 => None,
        }
    }

    /// AEAD algorithm bucket, if this is an AEAD cipher.
    pub fn aead_alg(self) -> Option<AeadAlg> {
        use Enc::*;
        match self {
            Aes128Gcm => Some(AeadAlg::Aes128Gcm),
            Aes256Gcm => Some(AeadAlg::Aes256Gcm),
            ChaCha20Poly1305 => Some(AeadAlg::ChaCha20Poly1305),
            Aes128Ccm | Aes128Ccm8 | Aes256Ccm | Aes256Ccm8 => Some(AeadAlg::AesCcm),
            Camellia128Gcm | Camellia256Gcm | Aria128Gcm | Aria256Gcm => Some(AeadAlg::Other),
            _ => None,
        }
    }
}

/// MAC / PRF-hash field of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the algorithm names
pub enum Mac {
    Null,
    Md5,
    Sha1,
    Sha256,
    Sha384,
    /// AEAD suites carry no separate MAC.
    Aead,
    GostImit,
}

/// Full property record for one registered cipher suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteInfo {
    /// IANA code point.
    pub id: u16,
    /// IANA name without the `TLS_` prefix.
    pub name: &'static str,
    /// Key exchange.
    pub kx: Kx,
    /// Server authentication.
    pub auth: Auth,
    /// Bulk encryption.
    pub enc: Enc,
    /// MAC.
    pub mac: Mac,
    /// True for export-grade (40/56-bit, EXPORT-named) suites.
    pub export: bool,
}

/// A cipher-suite code point as it appears on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CipherSuite(pub u16);

impl CipherSuite {
    /// Registry lookup; `None` for unregistered/GREASE values.
    pub fn info(self) -> Option<&'static SuiteInfo> {
        crate::suites_table::lookup(self.0)
    }

    /// IANA name (with `TLS_` prefix) or `None` if unregistered.
    pub fn name(self) -> Option<&'static str> {
        self.info().map(|i| i.name)
    }

    /// True for the two signalling values (`EMPTY_RENEGOTIATION_INFO_SCSV`,
    /// `FALLBACK_SCSV`). Signalling values are excluded from all cipher
    /// classification: advertising an SCSV is not advertising a cipher.
    pub fn is_signaling(self) -> bool {
        matches!(self.0, 0x00ff | 0x5600)
    }

    fn prop(self, f: impl Fn(&SuiteInfo) -> bool) -> bool {
        match self.info() {
            Some(i) if i.kx != Kx::Scsv => f(i),
            _ => false,
        }
    }

    /// RC4 encryption (any key size).
    pub fn is_rc4(self) -> bool {
        self.prop(|i| matches!(i.enc, Enc::Rc4_40 | Enc::Rc4_56 | Enc::Rc4_128))
    }

    /// CBC-mode encryption.
    pub fn is_cbc(self) -> bool {
        self.prop(|i| i.enc.mode() == EncMode::Cbc)
    }

    /// AEAD encryption.
    pub fn is_aead(self) -> bool {
        self.prop(|i| i.enc.mode() == EncMode::Aead)
    }

    /// Single DES (including 40-bit export DES).
    pub fn is_des(self) -> bool {
        self.prop(|i| matches!(i.enc, Enc::Des40Cbc | Enc::DesCbc))
    }

    /// Triple-DES.
    pub fn is_3des(self) -> bool {
        self.prop(|i| i.enc == Enc::TripleDesCbc)
    }

    /// Export-grade suite (FREAK/Logjam surface).
    pub fn is_export(self) -> bool {
        self.prop(|i| i.export)
    }

    /// Anonymous key exchange: no server authentication ("Anon" in the
    /// IANA name). The paper counts 19 such suites.
    pub fn is_anon(self) -> bool {
        self.prop(|i| i.auth == Auth::Anon)
    }

    /// NULL encryption (integrity only, plaintext payload).
    pub fn is_null_encryption(self) -> bool {
        self.prop(|i| i.enc == Enc::Null)
    }

    /// The fully null suite `TLS_NULL_WITH_NULL_NULL`.
    pub fn is_null_null(self) -> bool {
        self.0 == 0x0000
    }

    /// Forward-secret key establishment (ephemeral (EC)DH, SRP, or
    /// TLS 1.3).
    pub fn is_forward_secret(self) -> bool {
        self.prop(|i| {
            matches!(
                i.kx,
                Kx::Dhe
                    | Kx::Ecdhe
                    | Kx::DhAnon
                    | Kx::EcdhAnon
                    | Kx::DhePsk
                    | Kx::EcdhePsk
                    | Kx::Srp
                    | Kx::Tls13
            )
        })
    }

    /// Sweet32 exposure: a 64-bit block cipher in a block mode.
    pub fn is_small_block(self) -> bool {
        self.prop(|i| i.enc.block_bits() == Some(64) && i.enc.mode() == EncMode::Cbc)
    }

    /// A TLS 1.3 suite (0x13xx).
    pub fn is_tls13(self) -> bool {
        self.prop(|i| i.kx == Kx::Tls13)
    }

    /// AEAD algorithm bucket, if AEAD.
    pub fn aead_alg(self) -> Option<AeadAlg> {
        match self.info() {
            Some(i) if i.kx != Kx::Scsv => i.enc.aead_alg(),
            _ => None,
        }
    }

    /// Key-exchange bucket, if registered.
    pub fn kx(self) -> Option<Kx> {
        self.info().map(|i| i.kx)
    }

    /// Every class membership in a single registry lookup — exactly
    /// equivalent to calling each `is_*` predicate (and [`aead_alg`],
    /// [`kx`]) separately, but without repeating the binary search per
    /// predicate. Unregistered, GREASE, and SCSV values belong to no
    /// class. The aggregation fold classifies each distinct offer and
    /// every answered suite along all axes at once.
    ///
    /// [`aead_alg`]: CipherSuite::aead_alg
    /// [`kx`]: CipherSuite::kx
    pub fn classes(self) -> SuiteClasses {
        let Some(i) = self.info() else {
            return SuiteClasses::default();
        };
        if i.kx == Kx::Scsv {
            return SuiteClasses::default();
        }
        let mode = i.enc.mode();
        SuiteClasses {
            rc4: matches!(i.enc, Enc::Rc4_40 | Enc::Rc4_56 | Enc::Rc4_128),
            cbc: mode == EncMode::Cbc,
            aead: mode == EncMode::Aead,
            des: matches!(i.enc, Enc::Des40Cbc | Enc::DesCbc),
            tdes: i.enc == Enc::TripleDesCbc,
            export: i.export,
            anon: i.auth == Auth::Anon,
            null_enc: i.enc == Enc::Null,
            forward_secret: matches!(
                i.kx,
                Kx::Dhe
                    | Kx::Ecdhe
                    | Kx::DhAnon
                    | Kx::EcdhAnon
                    | Kx::DhePsk
                    | Kx::EcdhePsk
                    | Kx::Srp
                    | Kx::Tls13
            ),
            aead_alg: i.enc.aead_alg(),
            kx: Some(i.kx),
        }
    }
}

/// Class memberships of one suite, from [`CipherSuite::classes`].
/// Field values match the corresponding `is_*` predicates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuiteClasses {
    /// [`CipherSuite::is_rc4`].
    pub rc4: bool,
    /// [`CipherSuite::is_cbc`].
    pub cbc: bool,
    /// [`CipherSuite::is_aead`].
    pub aead: bool,
    /// [`CipherSuite::is_des`].
    pub des: bool,
    /// [`CipherSuite::is_3des`].
    pub tdes: bool,
    /// [`CipherSuite::is_export`].
    pub export: bool,
    /// [`CipherSuite::is_anon`].
    pub anon: bool,
    /// [`CipherSuite::is_null_encryption`].
    pub null_enc: bool,
    /// [`CipherSuite::is_forward_secret`].
    pub forward_secret: bool,
    /// [`CipherSuite::aead_alg`].
    pub aead_alg: Option<AeadAlg>,
    /// [`CipherSuite::kx`], except that signalling values have none.
    pub kx: Option<Kx>,
}

impl CipherSuite {
    fn fmt_name(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(f, "TLS_{n}"),
            None => write!(f, "cipher({:#06x})", self.0),
        }
    }
}

impl fmt::Debug for CipherSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_name(f)
    }
}

impl fmt::Display for CipherSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_name(f)
    }
}
