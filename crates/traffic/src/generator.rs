//! The connection-event generator: the synthetic Internet's tap point.
//!
//! For each simulated connection the generator (1) draws a client
//! family from the market model and a configuration era from the
//! adoption model, (2) draws the destination and a server profile from
//! the population model, (3) emits the actual wire bytes both sides
//! would put on the network (ClientHello records; ServerHello records
//! plus ServerKeyExchange for classic ECDHE, or an alert on failure),
//! and (4) runs the best-effort-tap fault injector over both flows.
//!
//! Everything downstream (the notary) sees only bytes — the ground
//! truth used for generation never crosses this boundary.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use tlscope_chron::{Date, Month};
use tlscope_clients::{catalog, Family, HelloEntropy, HelloPatches};
use tlscope_notary::TappedFlow;
use tlscope_servers::{negotiate, Destination, ServerPopulation};
use tlscope_wire::codec::{patch_bytes, Writer};
use tlscope_wire::exts::ext_type;
use tlscope_wire::grease::grease_value;
use tlscope_wire::handshake::handshake_type;
use tlscope_wire::record::{ContentType, Record, RecordView};
use tlscope_wire::{CipherSuite, NamedGroup, ProtocolVersion, Sslv2ClientHello};

use crate::faults::FaultInjector;
use crate::market::Market;

/// One tapped connection: wire bytes only.
#[derive(Debug, Clone)]
pub struct ConnectionEvent {
    /// Day the connection was seen.
    pub date: Date,
    /// Destination TCP port (the Notary watches all ports).
    pub port: u16,
    /// Client → server bytes (TLS records or an SSLv2 record).
    pub client_flow: Vec<u8>,
    /// Server → client bytes; `None` when the tap missed them.
    pub server_flow: Option<Vec<u8>>,
}

impl ConnectionEvent {
    /// Total wire bytes the tap captured for this connection.
    pub fn wire_bytes(&self) -> u64 {
        self.client_flow.len() as u64 + self.server_flow.as_ref().map_or(0, |s| s.len() as u64)
    }
}

/// The generator→notary boundary: hand the captured byte buffers to
/// the tap without copying them. This is the single definition of the
/// mapping — every pipeline (study runner, benches, tests) goes
/// through it, so a field added to either side cannot silently
/// desynchronise a hand-rolled copy.
impl From<ConnectionEvent> for TappedFlow {
    fn from(ev: ConnectionEvent) -> TappedFlow {
        TappedFlow {
            date: ev.date,
            port: ev.port,
            client: ev.client_flow,
            server: ev.server_flow,
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed; every month derives its own stream from it.
    pub seed: u64,
    /// Connections generated per month.
    pub connections_per_month: u32,
    /// Fault injection for the tap.
    pub faults: FaultInjector,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x715C0,
            connections_per_month: 20_000,
            faults: FaultInjector::tap_defaults(),
        }
    }
}

/// The generator: market + adoption + server population.
pub struct Generator {
    market: Market,
    population: ServerPopulation,
    cfg: TrafficConfig,
    /// Where each family's eras start inside one day's era-share run
    /// of the [`DayTable`]; one entry per family plus the total.
    era_offsets: Vec<usize>,
}

impl Generator {
    /// Build a generator over the full client catalog.
    pub fn new(cfg: TrafficConfig) -> Self {
        let market = Market::new();
        let mut era_offsets = Vec::with_capacity(market.families().len() + 1);
        era_offsets.push(0);
        for family in market.families() {
            era_offsets.push(era_offsets[era_offsets.len() - 1] + family.eras.len());
        }
        Generator {
            market,
            population: ServerPopulation::new(),
            cfg,
            era_offsets,
        }
    }

    /// Access the market model (for analyses that need shares).
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// Generate one month of traffic. Deterministic in (seed, month).
    pub fn month(&self, month: Month) -> Vec<ConnectionEvent> {
        let mut out = Vec::with_capacity(self.cfg.connections_per_month as usize);
        out.extend(self.stream_month(month));
        out
    }

    /// Lazily generate one month of traffic, one event at a time.
    ///
    /// Yields exactly the same event sequence as [`Generator::month`]
    /// (same per-month RNG stream, same fault injection) without ever
    /// materializing the month — the streaming study runner aggregates
    /// each event as it is drawn, so peak memory stays at one event
    /// per worker instead of one month per worker.
    pub fn stream_month(&self, month: Month) -> MonthStream<'_> {
        MonthStream {
            generator: self,
            month,
            rng: SmallRng::seed_from_u64(
                self.cfg
                    .seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(month.index() as u64),
            ),
            remaining: self.cfg.connections_per_month,
            pending: None,
            scratch: GenScratch {
                day_table: DayTable::new(
                    month.len_days() as usize,
                    self.market.families().len(),
                    self.era_offsets[self.era_offsets.len() - 1],
                ),
                ..GenScratch::default()
            },
        }
    }

    /// Generate every month in an inclusive range.
    pub fn months(
        &self,
        start: Month,
        end: Month,
    ) -> impl Iterator<Item = (Month, Vec<ConnectionEvent>)> + '_ {
        start.iter_through(end).map(move |m| (m, self.month(m)))
    }

    /// Draw a client family and one of its eras for a connection on
    /// `date`.
    ///
    /// Market and era shares are pure functions of the calendar date,
    /// so within one month they take at most 31 distinct values. The
    /// first draw on a day fills that day's family shares and their
    /// sum; the first draw of a family on a day fills its era shares
    /// and their sum. Every later draw reuses them instead of
    /// re-interpolating ~45 anchor curves, re-running the adoption
    /// model and re-summing both weight vectors. The cached values are
    /// computed exactly as a per-connection computation would, so the
    /// draws and every chosen index are unchanged.
    fn draw_family_era(
        &self,
        date: Date,
        rng: &mut SmallRng,
        scratch: &mut GenScratch,
    ) -> Option<(usize, usize)> {
        let families = self.market.families();
        let day = scratch.day_table.day_mut(date.day() as usize - 1);
        let (head, rest) = day.split_at_mut(1 + families.len());
        let (share_total, shares) = head.split_at_mut(1);
        if share_total[0].is_nan() {
            self.market.shares_into(date, &mut scratch.weights);
            shares.copy_from_slice(&scratch.weights);
            share_total[0] = shares.iter().sum();
        }
        let fam_idx = pick_index(rng, shares, share_total[0])?;
        let (era_totals, eras) = rest.split_at_mut(families.len());
        let eras = &mut eras[self.era_offsets[fam_idx]..self.era_offsets[fam_idx + 1]];
        if era_totals[fam_idx].is_nan() {
            let family = &families[fam_idx];
            catalog::adoption_for(family).era_shares_into(family, date, &mut scratch.weights);
            eras.copy_from_slice(&scratch.weights);
            era_totals[fam_idx] = eras.iter().sum();
        }
        let era_idx = pick_index(rng, eras, era_totals[fam_idx])?;
        Some((fam_idx, era_idx))
    }

    /// Generate one connection straight into `scratch`'s flow buffers.
    ///
    /// The returned [`FlowMeta`] describes bytes left in
    /// `scratch.client_buf` / `scratch.server_buf`; nothing is heap-
    /// allocated per call once the scratch buffers have grown to their
    /// working sizes. Draws the identical RNG sequence as the previous
    /// owned implementation, so every pinned event stream is unchanged.
    fn connection_into(
        &self,
        date: Date,
        rng: &mut SmallRng,
        scratch: &mut GenScratch,
    ) -> Option<FlowMeta> {
        // 1. Client family + era, drawn from the month's day table.
        let (fam_idx, era_idx) = self.draw_family_era(date, rng, scratch)?;
        let family = &self.market.families()[fam_idx];
        let era = &family.eras[era_idx];

        // 2. Destination.
        let (dest, port) = destination_for(family, rng);

        // 3. Client bytes.
        let entropy = HelloEntropy::from_seed(rng.random::<u64>());
        if era.tls.legacy_version == ProtocolVersion::Ssl2 {
            const SSLV2_SPECS: &[u32] = &[
                tlscope_wire::record::sslv2_cipher::RC4_128_WITH_MD5,
                tlscope_wire::record::sslv2_cipher::DES_192_EDE3_CBC_WITH_MD5,
            ];
            let mut challenge = [0u8; 16];
            challenge.copy_from_slice(&entropy.random[..16]);
            scratch.client_buf.clear();
            Sslv2ClientHello::write_parts_into(
                ProtocolVersion::Ssl2,
                SSLV2_SPECS,
                &[],
                &challenge,
                &mut scratch.client_buf,
            );
            if !self.cfg.faults.apply_in_place(&mut scratch.client_buf, rng) {
                return None;
            }
            return Some(FlowMeta {
                date,
                port,
                has_server: false,
            });
        }

        let sni = sni_for(dest, rng);
        let cfg = &era.tls;
        cfg.hello_ciphers_into(&entropy, &mut scratch.ciphers);
        let shuffled = family.name == "(cipher-shuffling client)";
        if shuffled {
            // §4.1: the fingerprint-exploding bug — unstable cipher
            // order per connection.
            shuffle(&mut scratch.ciphers, rng);
        }
        let record_version = if cfg.legacy_version.rank() <= ProtocolVersion::Ssl3.rank() {
            ProtocolVersion::Ssl3
        } else {
            ProtocolVersion::Tls10
        };
        let GenScratch {
            ciphers,
            versions,
            curves,
            handshake,
            client_buf,
            server_buf,
            templates,
            ledger,
            ..
        } = scratch;
        // Client bytes via the template cache: for a stable-order
        // config the serialised hello is a pure function of
        // (family, era, sni) outside its patch map, so steady state is
        // memcpy + patch. The shuffling client's suite order changes
        // per connection and bypasses the cache, as would a non-empty
        // session id (resumption would move every offset).
        let cacheable = !shuffled && entropy.session_id.is_empty();
        let client_key = (fam_idx, era_idx, sni);
        let mut hit = false;
        if cacheable {
            if let Some(t) = templates.client.get(&client_key) {
                client_buf.clear();
                client_buf.extend_from_slice(&t.bytes);
                t.patches.apply(client_buf, &entropy);
                hit = true;
            }
        }
        if hit {
            ledger.template_hits += 1;
        } else {
            let mut patches = None;
            with_writer(handshake, |w| {
                patches = Some(cfg.write_hello_recording(Some(sni), &entropy, ciphers, w));
            });
            client_buf.clear();
            Record::wrap_handshake_into(record_version, handshake, client_buf);
            let header = client_buf.len() - handshake.len();
            // header == 5 means the hello fits one record — the only
            // shape the patch map's uniform +5 shift describes (real
            // hellos always do; a multi-record monster just stays
            // uncached).
            if cacheable && header == 5 {
                let mut patches = patches.expect("with_writer runs its closure");
                patches.shift(header);
                templates.client.insert(
                    client_key,
                    ClientTemplate {
                        bytes: client_buf.clone(),
                        patches,
                    },
                );
            }
            ledger.template_misses += 1;
        }

        // 4. Server side. Negotiation runs on ClientFacts assembled
        // from the configuration that just emitted the hello — the
        // same information a parse of the client flow would recover,
        // without materialising a ClientHello.
        let profile = self.population.sample_for_traffic(dest, date, rng);
        let mut server_random = [0u8; 32];
        for chunk in server_random.chunks_mut(8) {
            chunk.copy_from_slice(&rng.random::<u64>().to_le_bytes());
        }
        let supported_versions = if cfg.extensions.contains(&ext_type::SUPPORTED_VERSIONS) {
            versions.clear();
            if cfg.grease {
                versions.push(ProtocolVersion::Unknown(grease_value(
                    entropy.grease_draws[0],
                )));
            }
            versions.extend(cfg.supported_versions.iter().copied());
            Some(versions.as_slice())
        } else {
            None
        };
        let groups = if cfg.extensions.contains(&ext_type::SUPPORTED_GROUPS) {
            curves.clear();
            if cfg.grease {
                curves.push(NamedGroup(grease_value(entropy.grease_draws[3])));
            }
            curves.extend(cfg.curves.iter().copied());
            Some(curves.as_slice())
        } else {
            None
        };
        let facts = negotiate::ClientFacts {
            legacy_version: cfg.legacy_version,
            session_id: &entropy.session_id,
            cipher_suites: ciphers,
            supported_versions,
            curves: groups,
            has_renegotiation_info: cfg.extensions.contains(&ext_type::RENEGOTIATION_INFO),
            has_heartbeat: cfg.extensions.contains(&ext_type::HEARTBEAT),
            has_extensions: !cfg.extensions.is_empty() || cfg.grease,
        };
        server_buf.clear();
        match negotiate::decide(&profile, &facts) {
            Ok(d) => {
                // The whole server flight is a pure function of
                // (Decision, echoed facts, server_random) when the
                // session id is empty — so the flight is cached per
                // template key and only the 32 random bytes at the
                // fixed ServerHello offset are rewritten.
                let server_key = d.template_key(&facts);
                if entropy.session_id.is_empty() {
                    if let Some(bytes) = templates.server.get(&server_key) {
                        server_buf.extend_from_slice(bytes);
                        patch_bytes(server_buf, SERVER_RANDOM_OFFSET, &server_random);
                        ledger.template_hits += 1;
                    } else {
                        build_server_flight(&d, &facts, server_random, handshake, server_buf);
                        debug_assert_eq!(
                            &server_buf[SERVER_RANDOM_OFFSET..SERVER_RANDOM_OFFSET + 32],
                            &server_random[..],
                        );
                        templates.server.insert(server_key, server_buf.clone());
                        ledger.template_misses += 1;
                    }
                } else {
                    build_server_flight(&d, &facts, server_random, handshake, server_buf);
                }
            }
            Err(failure) => {
                let alert = match failure {
                    tlscope_servers::HandshakeFailure::VersionMismatch => {
                        tlscope_wire::Alert::protocol_version()
                    }
                    tlscope_servers::HandshakeFailure::NoCommonCipher => {
                        tlscope_wire::Alert::handshake_failure()
                    }
                };
                RecordView {
                    content_type: ContentType::Alert,
                    version: record_version,
                    payload: &[alert.level.to_wire(), alert.description],
                }
                .write_into(server_buf);
            }
        }

        if !self.cfg.faults.apply_in_place(client_buf, rng) {
            return None;
        }
        let has_server = self.cfg.faults.apply_in_place(server_buf, rng);
        Some(FlowMeta {
            date,
            port,
            has_server,
        })
    }
}

/// Where one generated connection's bytes are: the flows live in the
/// stream's [`GenScratch`] buffers, this carries everything else.
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    date: Date,
    port: u16,
    /// The server flow survived fault injection (when false,
    /// `server_buf` holds meaningless bytes).
    has_server: bool,
}

/// One tapped connection, borrowed from the stream's scratch buffers.
///
/// Valid until the next [`MonthStream::next_flow`] call; the borrow
/// checker enforces exactly that. The borrowed twin of
/// [`ConnectionEvent`].
#[derive(Debug, Clone, Copy)]
pub struct FlowRef<'a> {
    /// Day the connection was seen.
    pub date: Date,
    /// Destination TCP port.
    pub port: u16,
    /// Client → server bytes.
    pub client: &'a [u8],
    /// Server → client bytes; `None` when the tap missed them.
    pub server: Option<&'a [u8]>,
}

/// Per-stream reusable buffers. Every connection draws through these
/// instead of allocating fresh intermediates — including the flow
/// bytes themselves: `client_buf`/`server_buf` hold the current
/// connection's wire bytes, and only callers that need owned flows
/// (the owned iterator, the channel path) copy them out.
#[derive(Default)]
struct GenScratch {
    /// The month's family and era shares per day. Sized by
    /// [`Generator::stream_month`].
    day_table: DayTable,
    /// Staging vector for one fill of the day table.
    weights: Vec<f64>,
    ciphers: Vec<CipherSuite>,
    versions: Vec<ProtocolVersion>,
    curves: Vec<NamedGroup>,
    handshake: Vec<u8>,
    client_buf: Vec<u8>,
    server_buf: Vec<u8>,
    /// Serialised-flight templates for both sides of the tap.
    templates: TemplateCache,
    /// The stream's counts so far.
    ledger: GenLedger,
}

/// One month of calendar-driven model state in a single flat buffer,
/// filled lazily by [`Generator::draw_family_era`].
///
/// Each day owns one contiguous block of `1 + 2F + E` values (`F`
/// families, `E` eras over all families): the sum of the day's family
/// shares, the `F` family shares, the `F` per-family era-share sums,
/// then every family's era shares at its offset in
/// `Generator::era_offsets`. A NaN sum marks the shares behind it as
/// not yet computed; a computed sum is always finite.
#[derive(Default)]
struct DayTable {
    values: Vec<f64>,
    stride: usize,
}

impl DayTable {
    fn new(days: usize, families: usize, eras: usize) -> Self {
        let stride = 1 + 2 * families + eras;
        DayTable {
            values: vec![f64::NAN; days * stride],
            stride,
        }
    }

    /// The block of day `idx` (`day - 1`).
    fn day_mut(&mut self, idx: usize) -> &mut [f64] {
        &mut self.values[idx * self.stride..(idx + 1) * self.stride]
    }
}

/// Byte offset of the 32-byte server random inside a record-framed
/// ServerHello: 5 record-header bytes, 1 handshake type, 3 length,
/// 2 legacy version.
const SERVER_RANDOM_OFFSET: usize = 11;

/// A cached record-framed client flow plus the offsets of its volatile
/// ranges.
struct ClientTemplate {
    bytes: Vec<u8>,
    patches: HelloPatches,
}

/// Per-stream cache of serialised wire flights.
///
/// Client flows are keyed by (family, era, sni) — the hello bytes are
/// a pure function of that triple outside the patch map (the calendar
/// day shifts *which* stacks appear, never their bytes, so day is
/// deliberately not part of the key). Server flights are keyed by
/// [`Decision::template_key`](tlscope_servers::Decision::template_key)
/// and re-randomised by patching the server random in place. Both maps
/// are unbounded: the key space is the client catalog × a handful of
/// SNIs, resp. the set of distinct negotiation outcomes — a few
/// hundred entries per stream at most.
#[derive(Default)]
struct TemplateCache {
    client: HashMap<(usize, usize, &'static str), ClientTemplate>,
    server: HashMap<u64, Vec<u8>>,
}

/// Serialise the server flight for an already-made decision into
/// `server_buf` (which the caller cleared): ServerHello, then for
/// classic TLS the ECDHE ServerKeyExchange (when a curve was selected)
/// and ServerHelloDone — one record per handshake message, the framing
/// real stacks use (which lets a tap that truncated the tail of the
/// flight still keep an intact ServerHello prefix for salvage).
fn build_server_flight(
    d: &negotiate::Decision,
    facts: &negotiate::ClientFacts<'_>,
    server_random: [u8; 32],
    handshake: &mut Vec<u8>,
    server_buf: &mut Vec<u8>,
) {
    let version = if d.version.is_tls13_family() {
        ProtocolVersion::Tls12
    } else {
        d.version
    };
    with_writer(handshake, |w| {
        negotiate::write_decision_into(d, facts, server_random, w);
    });
    Record::wrap_handshake_into(version, handshake, server_buf);
    if !d.version.is_tls13_family() {
        if let Some(curve) = d.curve {
            with_writer(handshake, |w| {
                tlscope_wire::ske::write_ecdhe_ske(w, curve, 65);
            });
            Record::wrap_handshake_into(version, handshake, server_buf);
        }
        Record::wrap_handshake_into(
            version,
            &[handshake_type::SERVER_HELLO_DONE, 0, 0, 0],
            server_buf,
        );
    }
}

/// Run a serialiser over a [`Writer`] that borrows `buf`'s storage,
/// leaving the (possibly grown) storage in `buf` for the next use.
fn with_writer(buf: &mut Vec<u8>, f: impl FnOnce(&mut Writer)) {
    buf.clear();
    let mut w = Writer::from_vec(std::mem::take(buf));
    f(&mut w);
    *buf = w.into_bytes();
}

/// Exact generation counts of one [`MonthStream`], kept as plain
/// integers on the stream (no shared counter is touched per flow).
/// The caller reads them with [`MonthStream::ledger`] once the unit of
/// work is complete and flushes them into its metrics in one step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenLedger {
    /// Flows yielded, duplicate copies included.
    pub flows: u64,
    /// Wire bytes of the yielded flows (client plus captured server).
    pub bytes: u64,
    /// Connections lost to tap outage windows (never yielded).
    pub outage_dropped: u64,
    /// Flows the tap duplicated (each duplicate is also in `flows`).
    pub duplicated: u64,
    /// Flights served from the template cache (client and server).
    pub template_hits: u64,
    /// Flights serialised in full (and cached).
    pub template_misses: u64,
}

/// Lazy per-event iterator over one month's traffic.
///
/// Created by [`Generator::stream_month`]. The stream counts what it
/// yields in a stream-local [`GenLedger`] (flows, wire bytes, outage
/// drops, duplicates, template hits and misses); read it with
/// [`MonthStream::ledger`] when the month is done. The stream never
/// reports anywhere by itself, so a month abandoned part-way (say, by
/// a panic) leaves no trace in shared counters.
pub struct MonthStream<'a> {
    generator: &'a Generator,
    month: Month,
    rng: SmallRng,
    remaining: u32,
    /// Replay token for a tap-duplicated flow: the duplicate's bytes
    /// are still sitting untouched in `scratch`, so the second copy is
    /// re-emitted from there on the next draw — no owned clone of the
    /// event is ever held.
    pending: Option<FlowMeta>,
    /// Reusable per-connection buffers, including the current flow
    /// bytes.
    scratch: GenScratch,
}

impl MonthStream<'_> {
    /// Draw the next connection into scratch and count it: the shared
    /// core behind both the borrowed and the owned interface.
    fn advance(&mut self) -> Option<FlowMeta> {
        let meta = self.draw()?;
        let server = if meta.has_server {
            self.scratch.server_buf.len() as u64
        } else {
            0
        };
        let ledger = &mut self.scratch.ledger;
        ledger.flows += 1;
        ledger.bytes += self.scratch.client_buf.len() as u64 + server;
        Some(meta)
    }

    /// Draw the next connection into scratch, handling duplication
    /// replay and outage windows.
    fn draw(&mut self) -> Option<FlowMeta> {
        if let Some(meta) = self.pending.take() {
            // Second copy of a duplicated flow, replayed from scratch.
            return Some(meta);
        }
        let faults = &self.generator.cfg.faults;
        // Shares drift within a month; sampling per connection-day
        // keeps the curves smooth without recomputing per event.
        while self.remaining > 0 {
            self.remaining -= 1;
            let day = self.rng.random_range(1..=self.month.len_days());
            let date = Date::new(self.month.year(), self.month.month_of_year(), day).unwrap();
            if faults.in_outage(self.generator.cfg.seed, date) {
                // The tap is dark: the connection happened on the wire
                // but was never captured. The check precedes generation
                // — an outage costs no RNG draws, mirroring a capture
                // process that simply is not running.
                self.scratch.ledger.outage_dropped += 1;
                continue;
            }
            if let Some(meta) =
                self.generator
                    .connection_into(date, &mut self.rng, &mut self.scratch)
            {
                if faults.duplicates(&mut self.rng) {
                    self.scratch.ledger.duplicated += 1;
                    self.pending = Some(meta);
                }
                return Some(meta);
            }
        }
        None
    }

    /// This stream's counts so far. Exact at any point; read once the
    /// month is drained for the month's totals.
    pub fn ledger(&self) -> GenLedger {
        self.scratch.ledger
    }

    /// Pull the next connection without allocating: the returned
    /// [`FlowRef`] borrows the stream's scratch buffers and is valid
    /// until the next call. Yields exactly the sequence the owned
    /// iterator yields — the fused study runner folds straight from
    /// these borrows into the aggregate.
    pub fn next_flow(&mut self) -> Option<FlowRef<'_>> {
        let meta = self.advance()?;
        Some(FlowRef {
            date: meta.date,
            port: meta.port,
            client: &self.scratch.client_buf,
            server: meta
                .has_server
                .then_some(self.scratch.server_buf.as_slice()),
        })
    }
}

impl Iterator for MonthStream<'_> {
    type Item = ConnectionEvent;

    fn next(&mut self) -> Option<ConnectionEvent> {
        // Same core as next_flow; materialize owned flows for callers
        // that need them to outlive the stream.
        let meta = self.advance()?;
        Some(ConnectionEvent {
            date: meta.date,
            port: meta.port,
            client_flow: self.scratch.client_buf.clone(),
            server_flow: meta.has_server.then(|| self.scratch.server_buf.clone()),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Fault injection can drop any event and duplication can double
        // one, so only the upper bound is known.
        let pending = usize::from(self.pending.is_some());
        (0, Some(self.remaining as usize * 2 + pending))
    }
}

/// Draw an index with probability proportional to `weights`, whose
/// sum `total` the caller computed (as `weights.iter().sum()`).
fn pick_index(rng: &mut SmallRng, weights: &[f64], total: f64) -> Option<usize> {
    if total <= 0.0 {
        return None;
    }
    let mut draw = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return Some(i);
        }
        draw -= w;
    }
    weights.iter().rposition(|w| *w > 0.0)
}

fn destination_for(family: &Family, rng: &mut SmallRng) -> (Destination, u16) {
    match family.name {
        "Globus GridFTP" => (Destination::Grid, 2811),
        "Nagios NRPE" => (Destination::Nagios, 5666),
        "Legacy Nagios probe (SSLv2)" => (Destination::Sslv2Relic, 5666),
        "Thunderbird" | "Apple Mail" => (Destination::Mail, 993),
        "Splunk forwarder" => (Destination::Splunk, 9997),
        "Interwise" => (Destination::Interwise, 443),
        _ => {
            let draw = rng.random::<f64>();
            if draw < 0.9830 {
                (Destination::Web, 443)
            } else if draw < 0.9930 {
                (Destination::Enterprise, 443)
            } else if draw < 0.9970 {
                (Destination::Iot, 8443)
            } else if draw < 0.9986 {
                (Destination::BankLegacy, 443)
            } else if draw < 0.9990 {
                (Destination::Gost, 443)
            } else {
                (Destination::Nagios, 5666)
            }
        }
    }
}

fn sni_for(dest: Destination, rng: &mut SmallRng) -> &'static str {
    const WEB: &[&str] = &[
        "www.example.com",
        "search.example.org",
        "social.example.net",
        "video.example.com",
        "news.example.org",
        "shop.example.net",
    ];
    match dest {
        Destination::Web => WEB[rng.random_range(0..WEB.len())],
        Destination::Mail => "imap.example.org",
        Destination::Grid => "gridftp.example.edu",
        Destination::Nagios => "nagios.example.edu",
        Destination::Interwise => "meet.interwise.example",
        Destination::Gost => "gost.example.ru",
        Destination::BankLegacy => "bankmellat.example.ir",
        Destination::Splunk => "splunk.example.corp",
        _ => "internal.example.corp",
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_wire::{sniff, WireFlavor};

    fn small_gen() -> Generator {
        Generator::new(TrafficConfig {
            seed: 42,
            connections_per_month: 500,
            faults: FaultInjector::none(),
        })
    }

    #[test]
    fn month_is_deterministic() {
        let g = small_gen();
        let a = g.month(Month::ym(2015, 6));
        let b = g.month(Month::ym(2015, 6));
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].client_flow, b[0].client_flow);
        assert_eq!(a[10].server_flow, b[10].server_flow);
    }

    #[test]
    fn different_months_differ() {
        let g = small_gen();
        let a = g.month(Month::ym(2015, 6));
        let b = g.month(Month::ym(2015, 7));
        assert_ne!(a[0].client_flow, b[0].client_flow);
    }

    #[test]
    fn flows_are_parseable_tls() {
        let g = small_gen();
        let events = g.month(Month::ym(2016, 3));
        assert_eq!(events.len(), 500);
        let mut tls = 0;
        let mut answered = 0;
        for ev in &events {
            match sniff(&ev.client_flow) {
                WireFlavor::Tls => {
                    tls += 1;
                    let records = Record::read_all(&ev.client_flow).unwrap();
                    let hs = Record::coalesce_handshake(&records).unwrap();
                    tlscope_wire::ClientHello::parse_handshake(&hs).unwrap();
                }
                WireFlavor::Sslv2 => {
                    Sslv2ClientHello::parse(&ev.client_flow).unwrap();
                }
                WireFlavor::Other => panic!("unsniffable flow"),
            }
            if ev.server_flow.is_some() {
                answered += 1;
            }
        }
        assert!(tls > 490);
        assert!(answered > 450);
    }

    #[test]
    fn dates_fall_in_month() {
        let g = small_gen();
        for ev in g.month(Month::ym(2014, 2)) {
            assert_eq!(ev.date.month(), Month::ym(2014, 2));
        }
    }

    #[test]
    fn early_traffic_has_no_aead_negotiation() {
        let g = small_gen();
        for ev in g.month(Month::ym(2012, 3)) {
            let Some(sf) = &ev.server_flow else { continue };
            let records = Record::read_all(sf).unwrap();
            if records[0].content_type != ContentType::Handshake {
                continue;
            }
            let hs = Record::coalesce_handshake(&records).unwrap();
            let mut r = tlscope_wire::codec::Reader::new(&hs);
            let (typ, body) = tlscope_wire::handshake::read_handshake(&mut r).unwrap();
            assert_eq!(typ, 2);
            let sh = tlscope_wire::ServerHello::parse_body(body).unwrap();
            assert!(
                !sh.cipher_suite.is_aead(),
                "AEAD negotiated in 2012: {}",
                sh.cipher_suite
            );
        }
    }

    #[test]
    fn stream_matches_materialized_month() {
        let g = small_gen();
        let streamed: Vec<ConnectionEvent> = g.stream_month(Month::ym(2015, 6)).collect();
        let materialized = g.month(Month::ym(2015, 6));
        assert_eq!(streamed.len(), materialized.len());
        for (a, b) in streamed.iter().zip(&materialized) {
            assert_eq!(a.date, b.date);
            assert_eq!(a.port, b.port);
            assert_eq!(a.client_flow, b.client_flow);
            assert_eq!(a.server_flow, b.server_flow);
        }
    }

    #[test]
    fn stream_ledger_accounts_flows_and_bytes() {
        let g = small_gen();
        let mut stream = g.stream_month(Month::ym(2016, 3));
        let total_bytes: u64 = stream.by_ref().map(|ev| ev.wire_bytes()).sum();
        let ledger = stream.ledger();
        assert_eq!(ledger.flows, 500);
        assert_eq!(ledger.bytes, total_bytes);
        assert_eq!(ledger.outage_dropped, 0);
        assert_eq!(ledger.duplicated, 0);
        assert!(ledger.template_hits + ledger.template_misses > 0);
    }

    /// The day table serves exactly the draws a per-connection
    /// recomputation of the shares would: same family, same era, same
    /// RNG position afterwards, on every day it covers.
    #[test]
    fn day_table_draws_match_uncached_draws() {
        fn uncached(g: &Generator, date: Date, rng: &mut SmallRng) -> Option<(usize, usize)> {
            let shares = g.market.shares(date);
            let fam_idx = pick_index(rng, &shares, shares.iter().sum())?;
            let family = &g.market.families()[fam_idx];
            let eras = catalog::adoption_for(family).era_shares(family, date);
            let era_idx = pick_index(rng, &eras, eras.iter().sum())?;
            Some((fam_idx, era_idx))
        }
        let g = small_gen();
        let mut month = Month::ym(2011, 1);
        while month <= Month::ym(2019, 12) {
            let mut scratch = g.stream_month(month).scratch;
            let mut days = SmallRng::seed_from_u64(month.index() as u64);
            let seed = 0x5eed ^ month.index() as u64;
            let (mut cached_rng, mut uncached_rng) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            for _ in 0..400 {
                let day = days.random_range(1..=month.len_days());
                let date = Date::new(month.year(), month.month_of_year(), day).unwrap();
                assert_eq!(
                    g.draw_family_era(date, &mut cached_rng, &mut scratch),
                    uncached(&g, date, &mut uncached_rng),
                    "{date}"
                );
            }
            assert_eq!(
                cached_rng.random::<u64>(),
                uncached_rng.random::<u64>(),
                "{month}"
            );
            month = month.add_months(5);
        }
    }

    #[test]
    fn from_connection_event_moves_flows() {
        let g = small_gen();
        let ev = g.month(Month::ym(2016, 3)).remove(0);
        let (date, port) = (ev.date, ev.port);
        let (client, server) = (ev.client_flow.clone(), ev.server_flow.clone());
        let flow = TappedFlow::from(ev);
        assert_eq!(flow.date, date);
        assert_eq!(flow.port, port);
        assert_eq!(flow.client, client);
        assert_eq!(flow.server, server);
    }

    #[test]
    fn fault_injection_reduces_flows() {
        let lossy = Generator::new(TrafficConfig {
            seed: 42,
            connections_per_month: 2000,
            faults: FaultInjector {
                drop_prob: 0.5,
                ..FaultInjector::none()
            },
        });
        let events = lossy.month(Month::ym(2016, 3));
        // Client-side drops remove the whole event.
        assert!(events.len() < 1300, "{}", events.len());
    }

    #[test]
    fn outage_windows_remove_whole_days_deterministically() {
        let cfg = TrafficConfig {
            seed: 42,
            connections_per_month: 1000,
            faults: FaultInjector {
                outage_prob: 0.4,
                ..FaultInjector::none()
            },
        };
        let g = Generator::new(cfg.clone());
        let mut stream = g.stream_month(Month::ym(2016, 3));
        let events: Vec<ConnectionEvent> = stream.by_ref().collect();
        let ledger = stream.ledger();
        let dropped = ledger.outage_dropped;
        assert!(dropped > 0, "expected some outage losses");
        assert_eq!(events.len() as u64 + dropped, 1000);
        assert_eq!(ledger.flows, events.len() as u64);
        assert_eq!(
            ledger.bytes,
            events.iter().map(ConnectionEvent::wire_bytes).sum::<u64>()
        );
        // No surviving event is dated inside an outage window.
        for ev in &events {
            assert!(!cfg.faults.in_outage(cfg.seed, ev.date));
        }
        // Deterministic: a second run sees the identical event stream.
        let again: Vec<ConnectionEvent> = g.stream_month(Month::ym(2016, 3)).collect();
        assert_eq!(events.len(), again.len());
        for (a, b) in events.iter().zip(&again) {
            assert_eq!(a.client_flow, b.client_flow);
        }
    }

    #[test]
    fn duplication_emits_adjacent_identical_flows() {
        let g = Generator::new(TrafficConfig {
            seed: 42,
            connections_per_month: 500,
            faults: FaultInjector {
                duplicate_prob: 0.2,
                ..FaultInjector::none()
            },
        });
        let mut stream = g.stream_month(Month::ym(2016, 3));
        let events: Vec<ConnectionEvent> = stream.by_ref().collect();
        let ledger = stream.ledger();
        assert!(ledger.duplicated > 0, "expected some duplicates");
        assert_eq!(events.len() as u64, 500 + ledger.duplicated);
        assert_eq!(ledger.flows, events.len() as u64);
        assert_eq!(
            ledger.bytes,
            events.iter().map(ConnectionEvent::wire_bytes).sum::<u64>()
        );
        // Each duplicate is an exact adjacent copy.
        let adjacent_dups = events
            .windows(2)
            .filter(|w| {
                w[0].client_flow == w[1].client_flow && w[0].server_flow == w[1].server_flow
            })
            .count() as u64;
        assert!(adjacent_dups >= ledger.duplicated);
    }
}
