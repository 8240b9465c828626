//! Pipeline accounting: lock-free per-stage counters and timing.
//!
//! The paper's Notary processed 319.3 B connections on a cluster whose
//! health was only observable through per-stage accounting (what was
//! parsed, what was dropped, where time went). [`PipelineMetrics`] is
//! that layer for the reproduction: a bag of atomic counters shared by
//! every stage of the generation → extraction → aggregation pipeline.
//! All methods take `&self`, so one instance can be threaded through
//! any number of worker threads without locks.
//!
//! The passive study runner reports once per month, never per flow:
//! each month keeps plain local counts and flushes them here when the
//! month completes, so every count is exact and a month that does not
//! complete contributes nothing. Stage times are **estimated busy
//! time**, summed over workers (with `N` workers busy for a second
//! each, a stage records about `N` seconds): the runner times only
//! every 64th flow of a month and scales the sampled time by
//! `flows / sampled`, never past the month's measured wall time.
//! `timing_sampled_flows` counts the timed flows.
//! Divide by the elapsed wall time to read out effective parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tlscope_obs::{Histogram, HistogramSnapshot, JsonObj};

use crate::pool::PoolStats;

/// Shared, lock-free pipeline counters.
///
/// Counter groups:
/// * **generation** — flows and wire bytes emitted by the synthetic
///   tap, plus estimated generator busy time, flows lost to tap outage
///   windows, and tap-duplicated flows;
/// * **ingestion** — flows/batches through the notary, parse failures
///   by class, records salvaged from damaged flows, plus estimated
///   extraction busy time and the number of flows it was sampled
///   from;
/// * **recovery** — batch retries, worker respawns, and quarantined
///   poison flows from the supervised pipeline;
/// * **merge / fault** — aggregate-merge wall-clock and shards lost to
///   worker panics (best-effort collection, paper §3.1).
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    flows_generated: AtomicU64,
    bytes_generated: AtomicU64,
    gen_nanos: AtomicU64,
    flows_outage_dropped: AtomicU64,
    flows_duplicated: AtomicU64,

    flows_dispatched: AtomicU64,
    flows_ingested: AtomicU64,
    batches_ingested: AtomicU64,
    not_tls: AtomicU64,
    garbled_client: AtomicU64,
    flows_salvaged: AtomicU64,
    ingest_nanos: AtomicU64,
    timing_sampled_flows: AtomicU64,

    batch_retries: AtomicU64,
    worker_respawns: AtomicU64,
    flows_quarantined: AtomicU64,

    merge_nanos: AtomicU64,
    shards_lost: AtomicU64,

    checkpoints_written: AtomicU64,
    checkpoints_loaded: AtomicU64,
    checkpoints_quarantined: AtomicU64,

    template_hits: AtomicU64,
    template_misses: AtomicU64,

    parse_cache_hits: AtomicU64,
    parse_cache_misses: AtomicU64,
    parse_cache_evictions: AtomicU64,

    pool_bufs_created: AtomicU64,
    pool_bufs_recycled: AtomicU64,
    pool_bufs_dropped: AtomicU64,
    pool_batches_created: AtomicU64,
    pool_batches_recycled: AtomicU64,
    pool_batches_dropped: AtomicU64,

    // Latency distributions (observational only: never part of
    // snapshot equality or any bit-identity property).
    month_hist: Histogram,
    ingest_batch_hist: Histogram,
    ckpt_write_hist: Histogram,
    ckpt_load_hist: Histogram,
}

impl PipelineMetrics {
    /// A zeroed metrics bag.
    pub fn new() -> Self {
        PipelineMetrics::default()
    }

    /// Record `flows` generated flows of `bytes` wire bytes in total,
    /// taking `elapsed` of generator busy time (measured or estimated).
    pub fn record_generated(&self, flows: u64, bytes: u64, elapsed: Duration) {
        self.flows_generated.fetch_add(flows, Ordering::Relaxed);
        self.bytes_generated.fetch_add(bytes, Ordering::Relaxed);
        self.gen_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record `flows` flows whose generation and ingestion were timed:
    /// the sample behind the estimated stage times.
    pub fn record_timing_sampled(&self, flows: u64) {
        self.timing_sampled_flows
            .fetch_add(flows, Ordering::Relaxed);
    }

    /// Record `flows` handed to the ingestion stage (sent, not yet
    /// necessarily processed — the gap to `flows_ingested` is loss).
    pub fn record_dispatched(&self, flows: u64) {
        self.flows_dispatched.fetch_add(flows, Ordering::Relaxed);
    }

    /// Record one ingested batch of `flows` flows taking `elapsed`.
    pub fn record_batch(&self, flows: u64, elapsed: Duration) {
        self.flows_ingested.fetch_add(flows, Ordering::Relaxed);
        self.batches_ingested.fetch_add(1, Ordering::Relaxed);
        self.ingest_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.ingest_batch_hist.record(elapsed);
    }

    /// Record one completed month of passive generation + ingestion
    /// taking `elapsed` wall-clock.
    pub fn record_month(&self, elapsed: Duration) {
        self.month_hist.record(elapsed);
    }

    /// Record the wall-clock of one checkpoint file write.
    pub fn observe_checkpoint_write(&self, elapsed: Duration) {
        self.ckpt_write_hist.record(elapsed);
    }

    /// Record the wall-clock of one checkpoint directory load pass.
    pub fn observe_checkpoint_load(&self, elapsed: Duration) {
        self.ckpt_load_hist.record(elapsed);
    }

    /// Fold a [`PoolStats`] *delta* (after-minus-before of
    /// [`crate::FlowPool::stats`]) into the pool counters, so the
    /// buffer drops the pool used to count invisibly show up in
    /// `--stats`.
    pub fn record_pool(&self, delta: &PoolStats) {
        self.pool_bufs_created
            .fetch_add(delta.bufs_created, Ordering::Relaxed);
        self.pool_bufs_recycled
            .fetch_add(delta.bufs_recycled, Ordering::Relaxed);
        self.pool_bufs_dropped
            .fetch_add(delta.bufs_dropped, Ordering::Relaxed);
        self.pool_batches_created
            .fetch_add(delta.batches_created, Ordering::Relaxed);
        self.pool_batches_recycled
            .fetch_add(delta.batches_recycled, Ordering::Relaxed);
        self.pool_batches_dropped
            .fetch_add(delta.batches_dropped, Ordering::Relaxed);
    }

    /// Record parse failures by class.
    pub fn record_parse_failures(&self, not_tls: u64, garbled_client: u64) {
        self.not_tls.fetch_add(not_tls, Ordering::Relaxed);
        self.garbled_client
            .fetch_add(garbled_client, Ordering::Relaxed);
    }

    /// Record `flows` lost to a tap outage window (never dispatched).
    pub fn record_outage_dropped(&self, flows: u64) {
        self.flows_outage_dropped
            .fetch_add(flows, Ordering::Relaxed);
    }

    /// Record `flows` duplicated by the tap (the duplicate is also
    /// counted as generated).
    pub fn record_duplicated(&self, flows: u64) {
        self.flows_duplicated.fetch_add(flows, Ordering::Relaxed);
    }

    /// Record `flows` whose records were salvaged from damaged bytes
    /// (graceful extraction degradation instead of a garbled drop).
    pub fn record_salvaged(&self, flows: u64) {
        self.flows_salvaged.fetch_add(flows, Ordering::Relaxed);
    }

    /// Record one bisection re-dispatch of a failed (sub-)batch.
    pub fn record_batch_retry(&self) {
        self.batch_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one worker respawn after a caught processing panic.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `flows` quarantined as poison (they panicked the
    /// processor even in isolation and were excluded from the run).
    pub fn record_quarantined(&self, flows: u64) {
        self.flows_quarantined.fetch_add(flows, Ordering::Relaxed);
    }

    /// Record time spent merging partial aggregates.
    pub fn record_merge(&self, elapsed: Duration) {
        self.merge_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record one worker shard lost to a panic.
    pub fn record_shard_lost(&self) {
        self.shards_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one checkpoint file written to the durable store.
    pub fn record_checkpoint_written(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` checkpoint files loaded cleanly on resume (their
    /// months are skipped, not recomputed).
    pub fn record_checkpoints_loaded(&self, n: u64) {
        self.checkpoints_loaded.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` damaged checkpoint files quarantined on resume
    /// (renamed to `*.ckpt.bad`; their months are recomputed).
    pub fn record_checkpoints_quarantined(&self, n: u64) {
        self.checkpoints_quarantined.fetch_add(n, Ordering::Relaxed);
    }

    /// Record generation-side template-cache consults: `hits` flights
    /// served by memcpy + patch, `misses` serialised in full (and
    /// cached for next time).
    pub fn record_template(&self, hits: u64, misses: u64) {
        self.template_hits.fetch_add(hits, Ordering::Relaxed);
        self.template_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Record ingestion-side parse-cache consults: `hits` hellos whose
    /// offer was copied from cache, `misses` fully parsed (and
    /// inserted), `evictions` entries displaced by capacity pressure.
    /// Bypassed flows (salvaged, structurally unknown) count as none
    /// of these.
    pub fn record_parse_cache(&self, hits: u64, misses: u64, evictions: u64) {
        self.parse_cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.parse_cache_misses.fetch_add(misses, Ordering::Relaxed);
        self.parse_cache_evictions
            .fetch_add(evictions, Ordering::Relaxed);
    }

    /// Shards lost so far (also available via [`snapshot`]).
    ///
    /// [`snapshot`]: PipelineMetrics::snapshot
    pub fn shards_lost(&self) -> u64 {
        self.shards_lost.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            flows_generated: self.flows_generated.load(Ordering::Relaxed),
            bytes_generated: self.bytes_generated.load(Ordering::Relaxed),
            gen_nanos: self.gen_nanos.load(Ordering::Relaxed),
            flows_outage_dropped: self.flows_outage_dropped.load(Ordering::Relaxed),
            flows_duplicated: self.flows_duplicated.load(Ordering::Relaxed),
            flows_dispatched: self.flows_dispatched.load(Ordering::Relaxed),
            flows_ingested: self.flows_ingested.load(Ordering::Relaxed),
            batches_ingested: self.batches_ingested.load(Ordering::Relaxed),
            not_tls: self.not_tls.load(Ordering::Relaxed),
            garbled_client: self.garbled_client.load(Ordering::Relaxed),
            flows_salvaged: self.flows_salvaged.load(Ordering::Relaxed),
            ingest_nanos: self.ingest_nanos.load(Ordering::Relaxed),
            timing_sampled_flows: self.timing_sampled_flows.load(Ordering::Relaxed),
            batch_retries: self.batch_retries.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            flows_quarantined: self.flows_quarantined.load(Ordering::Relaxed),
            merge_nanos: self.merge_nanos.load(Ordering::Relaxed),
            shards_lost: self.shards_lost.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoints_loaded: self.checkpoints_loaded.load(Ordering::Relaxed),
            checkpoints_quarantined: self.checkpoints_quarantined.load(Ordering::Relaxed),
            template_hits: self.template_hits.load(Ordering::Relaxed),
            template_misses: self.template_misses.load(Ordering::Relaxed),
            parse_cache_hits: self.parse_cache_hits.load(Ordering::Relaxed),
            parse_cache_misses: self.parse_cache_misses.load(Ordering::Relaxed),
            parse_cache_evictions: self.parse_cache_evictions.load(Ordering::Relaxed),
            pool_bufs_created: self.pool_bufs_created.load(Ordering::Relaxed),
            pool_bufs_recycled: self.pool_bufs_recycled.load(Ordering::Relaxed),
            pool_bufs_dropped: self.pool_bufs_dropped.load(Ordering::Relaxed),
            pool_batches_created: self.pool_batches_created.load(Ordering::Relaxed),
            pool_batches_recycled: self.pool_batches_recycled.load(Ordering::Relaxed),
            pool_batches_dropped: self.pool_batches_dropped.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time copy of the latency distributions. Kept apart
    /// from [`snapshot`] so the counter snapshot's equality semantics
    /// (and the persisted checkpoint format built on it) stay exactly
    /// as they were.
    ///
    /// [`snapshot`]: PipelineMetrics::snapshot
    pub fn latency(&self) -> PipelineLatency {
        PipelineLatency {
            month: self.month_hist.snapshot(),
            ingest_batch: self.ingest_batch_hist.snapshot(),
            checkpoint_write: self.ckpt_write_hist.snapshot(),
            checkpoint_load: self.ckpt_load_hist.snapshot(),
        }
    }
}

/// Point-in-time latency distributions of the passive pipeline —
/// observational siblings of [`MetricsSnapshot`], deliberately not
/// part of it (the snapshot is persisted and compared bit-for-bit;
/// timing never is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineLatency {
    /// Wall-clock per completed month (generation + ingestion).
    pub month: HistogramSnapshot,
    /// Wall-clock per ingested batch.
    pub ingest_batch: HistogramSnapshot,
    /// Wall-clock per checkpoint file write.
    pub checkpoint_write: HistogramSnapshot,
    /// Wall-clock per checkpoint directory load pass.
    pub checkpoint_load: HistogramSnapshot,
}

impl PipelineLatency {
    /// Multi-line terminal rendering, mirroring
    /// [`MetricsSnapshot::render`]'s column layout.
    pub fn render(&self) -> String {
        let mut out = String::from("pipeline latency\n");
        for (label, hist) in [
            ("month", &self.month),
            ("batch", &self.ingest_batch),
            ("ckpt-write", &self.checkpoint_write),
            ("ckpt-load", &self.checkpoint_load),
        ] {
            out.push_str(&format!("  {:<11} {}\n", label, hist.render_line()));
        }
        out
    }

    fn to_json(self) -> String {
        JsonObj::new()
            .raw("month", &self.month.to_json())
            .raw("ingest_batch", &self.ingest_batch.to_json())
            .raw("checkpoint_write", &self.checkpoint_write.to_json())
            .raw("checkpoint_load", &self.checkpoint_load.to_json())
            .finish()
    }
}

/// A plain-value copy of [`PipelineMetrics`], with derived rates and a
/// terminal rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Flows emitted by the generator.
    pub flows_generated: u64,
    /// Wire bytes emitted by the generator (client + server flows).
    pub bytes_generated: u64,
    /// Generator busy time summed over workers, nanoseconds; an
    /// estimate from `timing_sampled_flows` timed flows.
    pub gen_nanos: u64,
    /// Flows lost to tap outage windows (never dispatched).
    pub flows_outage_dropped: u64,
    /// Flows duplicated by the tap.
    pub flows_duplicated: u64,
    /// Flows handed to the ingestion stage.
    pub flows_dispatched: u64,
    /// Flows actually processed by the ingestion stage.
    pub flows_ingested: u64,
    /// Batches processed by the ingestion stage.
    pub batches_ingested: u64,
    /// Parse failures: not SSL/TLS at all.
    pub not_tls: u64,
    /// Parse failures: client flow too damaged to parse.
    pub garbled_client: u64,
    /// Connections salvaged from damaged flows (prefix-recovered
    /// records instead of a garbled drop).
    pub flows_salvaged: u64,
    /// Ingestion busy time summed over workers, nanoseconds; an
    /// estimate from `timing_sampled_flows` timed flows.
    pub ingest_nanos: u64,
    /// Flows whose generation and ingestion were timed; `gen_nanos`
    /// and `ingest_nanos` scale their time up to all flows.
    pub timing_sampled_flows: u64,
    /// Bisection re-dispatches of failed (sub-)batches.
    pub batch_retries: u64,
    /// Worker respawns after caught processing panics.
    pub worker_respawns: u64,
    /// Poison flows quarantined by the supervisor.
    pub flows_quarantined: u64,
    /// Wall-clock spent merging partial aggregates, nanoseconds.
    pub merge_nanos: u64,
    /// Worker shards lost to panics.
    pub shards_lost: u64,
    /// Checkpoint files written to the durable store.
    pub checkpoints_written: u64,
    /// Checkpoint files loaded cleanly on resume (months skipped).
    pub checkpoints_loaded: u64,
    /// Damaged checkpoint files quarantined on resume (months
    /// recomputed).
    pub checkpoints_quarantined: u64,
    /// Generation-side template-cache hits (flights served by
    /// memcpy + patch).
    pub template_hits: u64,
    /// Generation-side template-cache misses (flights serialised in
    /// full and cached).
    pub template_misses: u64,
    /// Ingestion-side parse-cache hits (offers copied from cache).
    pub parse_cache_hits: u64,
    /// Ingestion-side parse-cache misses (hellos fully parsed and
    /// inserted).
    pub parse_cache_misses: u64,
    /// Parse-cache entries evicted by capacity pressure.
    pub parse_cache_evictions: u64,
    /// Flow buffers the pool allocated fresh.
    pub pool_bufs_created: u64,
    /// Flow buffers the pool recycled instead of allocating.
    pub pool_bufs_recycled: u64,
    /// Flow buffers dropped because the pool's return channel was full.
    pub pool_bufs_dropped: u64,
    /// Batch vectors the pool allocated fresh.
    pub pool_batches_created: u64,
    /// Batch vectors the pool recycled instead of allocating.
    pub pool_batches_recycled: u64,
    /// Batch vectors dropped because the pool's return channel was
    /// full.
    pub pool_batches_dropped: u64,
}

fn rate(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 / (nanos as f64 / 1e9)
    }
}

fn scaled(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

impl MetricsSnapshot {
    /// Generator throughput in flows per busy second.
    pub fn gen_flows_per_sec(&self) -> f64 {
        rate(self.flows_generated, self.gen_nanos)
    }

    /// Ingestion throughput in flows per busy second.
    pub fn ingest_flows_per_sec(&self) -> f64 {
        rate(self.flows_ingested, self.ingest_nanos)
    }

    /// Flows dispatched but never processed (lost with panicked
    /// shards or dropped batches).
    pub fn flows_lost(&self) -> u64 {
        self.flows_dispatched.saturating_sub(self.flows_ingested)
    }

    /// The end-to-end flow-accounting invariant of the supervised
    /// pipeline: every dispatched flow is either ingested or
    /// quarantined (nothing silently vanishes).
    pub fn accounting_holds(&self) -> bool {
        self.flows_dispatched == self.flows_ingested + self.flows_quarantined
    }

    /// Multi-line terminal rendering of the per-stage accounting.
    ///
    /// Every row is `"  " + label padded to 11 + " " + {:>11}` for its
    /// first figure (the golden layout test pins this), so the columns
    /// line up even for the 11-character `parse-cache` label that used
    /// to swallow its separator space.
    ///
    /// The generate and ingest times are estimated busy time summed
    /// over workers (`est-busy`); the `timing` row gives the number of
    /// sampled flows the estimates rest on.
    pub fn render(&self) -> String {
        let mut out = String::from("pipeline metrics\n");
        out.push_str(&format!(
            "  {:<11} {:>11} flows  {:>10} bytes  {:>9.3}s est-busy  {:>10} flows/s\n",
            "generate",
            self.flows_generated,
            scaled(self.bytes_generated as f64),
            self.gen_nanos as f64 / 1e9,
            scaled(self.gen_flows_per_sec()),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} flows  {:>10} batches {:>8.3}s est-busy  {:>10} flows/s\n",
            "ingest",
            self.flows_ingested,
            self.batches_ingested,
            self.ingest_nanos as f64 / 1e9,
            scaled(self.ingest_flows_per_sec()),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} sampled flows (est-busy = sampled time x flows / sampled)\n",
            "timing", self.timing_sampled_flows,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} not-tls {:>9} garbled {:>9} salvaged\n",
            "parse-fail", self.not_tls, self.garbled_client, self.flows_salvaged,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} outage-dropped {:>6} duplicated\n",
            "tap", self.flows_outage_dropped, self.flows_duplicated,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} retries {:>9} respawns {:>8} quarantined\n",
            "recovery", self.batch_retries, self.worker_respawns, self.flows_quarantined,
        ));
        out.push_str(&format!(
            "  {:<11} {:>10.3}s cpu\n",
            "merge",
            self.merge_nanos as f64 / 1e9
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} shards lost  {:>8} flows lost\n",
            "faults",
            self.shards_lost,
            self.flows_lost(),
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} written {:>9} loaded {:>10} quarantined\n",
            "checkpoint",
            self.checkpoints_written,
            self.checkpoints_loaded,
            self.checkpoints_quarantined,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} hits {:>12} misses\n",
            "template", self.template_hits, self.template_misses,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} hits {:>12} misses {:>8} evictions\n",
            "parse-cache",
            self.parse_cache_hits,
            self.parse_cache_misses,
            self.parse_cache_evictions,
        ));
        out.push_str(&format!(
            "  {:<11} {:>11} bufs recycled {:>7} dropped  {:>6} batches recycled {:>5} dropped\n",
            "pool",
            self.pool_bufs_recycled,
            self.pool_bufs_dropped,
            self.pool_batches_recycled,
            self.pool_batches_dropped,
        ));
        out
    }

    /// Schema identifier stamped into every [`to_json`] export; bump
    /// it whenever the key set changes.
    ///
    /// [`to_json`]: MetricsSnapshot::to_json
    pub const SCHEMA: &'static str = "tlscope-pipeline-stats-v2";

    /// Machine-readable export with empty latency sections (no
    /// histograms observed).
    pub fn to_json(&self) -> String {
        self.to_json_with(&PipelineLatency::default())
    }

    /// Machine-readable export: `schema` version tag, every raw
    /// counter under `counters`, the derived figures the rendering
    /// shows under `derived`, and the latency distributions under
    /// `latency`. Keys are emitted in a fixed order, so same-state
    /// exports are byte-identical.
    pub fn to_json_with(&self, latency: &PipelineLatency) -> String {
        let counters = JsonObj::new()
            .u64("flows_generated", self.flows_generated)
            .u64("bytes_generated", self.bytes_generated)
            .u64("gen_nanos", self.gen_nanos)
            .u64("flows_outage_dropped", self.flows_outage_dropped)
            .u64("flows_duplicated", self.flows_duplicated)
            .u64("flows_dispatched", self.flows_dispatched)
            .u64("flows_ingested", self.flows_ingested)
            .u64("batches_ingested", self.batches_ingested)
            .u64("not_tls", self.not_tls)
            .u64("garbled_client", self.garbled_client)
            .u64("flows_salvaged", self.flows_salvaged)
            .u64("ingest_nanos", self.ingest_nanos)
            .u64("timing_sampled_flows", self.timing_sampled_flows)
            .u64("batch_retries", self.batch_retries)
            .u64("worker_respawns", self.worker_respawns)
            .u64("flows_quarantined", self.flows_quarantined)
            .u64("merge_nanos", self.merge_nanos)
            .u64("shards_lost", self.shards_lost)
            .u64("checkpoints_written", self.checkpoints_written)
            .u64("checkpoints_loaded", self.checkpoints_loaded)
            .u64("checkpoints_quarantined", self.checkpoints_quarantined)
            .u64("template_hits", self.template_hits)
            .u64("template_misses", self.template_misses)
            .u64("parse_cache_hits", self.parse_cache_hits)
            .u64("parse_cache_misses", self.parse_cache_misses)
            .u64("parse_cache_evictions", self.parse_cache_evictions)
            .u64("pool_bufs_created", self.pool_bufs_created)
            .u64("pool_bufs_recycled", self.pool_bufs_recycled)
            .u64("pool_bufs_dropped", self.pool_bufs_dropped)
            .u64("pool_batches_created", self.pool_batches_created)
            .u64("pool_batches_recycled", self.pool_batches_recycled)
            .u64("pool_batches_dropped", self.pool_batches_dropped)
            .finish();
        let derived = JsonObj::new()
            .f64("gen_flows_per_sec", self.gen_flows_per_sec())
            .f64("ingest_flows_per_sec", self.ingest_flows_per_sec())
            .u64("flows_lost", self.flows_lost())
            .bool("accounting_holds", self.accounting_holds())
            .finish();
        JsonObj::new()
            .str("schema", MetricsSnapshot::SCHEMA)
            .raw("counters", &counters)
            .raw("derived", &derived)
            .raw("latency", &latency.to_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = PipelineMetrics::new();
        m.record_generated(1, 120, Duration::from_nanos(500));
        m.record_generated(1, 80, Duration::from_nanos(500));
        m.record_timing_sampled(1);
        m.record_dispatched(2);
        m.record_batch(2, Duration::from_micros(3));
        m.record_parse_failures(1, 0);
        m.record_shard_lost();
        let s = m.snapshot();
        assert_eq!(s.flows_generated, 2);
        assert_eq!(s.bytes_generated, 200);
        assert_eq!(s.gen_nanos, 1000);
        assert_eq!(s.timing_sampled_flows, 1);
        assert_eq!(s.flows_ingested, 2);
        assert_eq!(s.batches_ingested, 1);
        assert_eq!(s.not_tls, 1);
        assert_eq!(s.shards_lost, 1);
        assert_eq!(s.flows_lost(), 0);
    }

    #[test]
    fn rates_and_render() {
        let m = PipelineMetrics::new();
        m.record_batch(1000, Duration::from_millis(100));
        m.record_dispatched(1200);
        let s = m.snapshot();
        assert!((s.ingest_flows_per_sec() - 10_000.0).abs() < 1.0);
        assert_eq!(s.flows_lost(), 200);
        let text = s.render();
        assert!(text.contains("ingest"));
        assert!(text.contains("flows lost"));
    }

    #[test]
    fn recovery_counters_accumulate_and_render() {
        let m = PipelineMetrics::new();
        m.record_dispatched(10);
        m.record_batch(7, Duration::from_micros(1));
        m.record_batch_retry();
        m.record_batch_retry();
        m.record_worker_respawn();
        m.record_quarantined(3);
        m.record_salvaged(2);
        m.record_outage_dropped(5);
        m.record_duplicated(1);
        m.record_checkpoint_written();
        m.record_checkpoint_written();
        m.record_checkpoints_loaded(4);
        m.record_checkpoints_quarantined(1);
        let s = m.snapshot();
        assert_eq!(s.checkpoints_written, 2);
        assert_eq!(s.checkpoints_loaded, 4);
        assert_eq!(s.checkpoints_quarantined, 1);
        assert_eq!(s.batch_retries, 2);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.flows_quarantined, 3);
        assert_eq!(s.flows_salvaged, 2);
        assert_eq!(s.flows_outage_dropped, 5);
        assert_eq!(s.flows_duplicated, 1);
        assert!(
            s.accounting_holds(),
            "10 dispatched = 7 ingested + 3 quarantined"
        );
        let text = s.render();
        for needle in [
            "retries",
            "respawns",
            "quarantined",
            "salvaged",
            "outage-dropped",
            "checkpoint",
        ] {
            assert!(text.contains(needle), "render missing {needle}: {text}");
        }
    }

    #[test]
    fn cache_counters_accumulate_and_render() {
        let m = PipelineMetrics::new();
        m.record_template(10, 2);
        m.record_template(5, 0);
        m.record_parse_cache(8, 3, 1);
        let s = m.snapshot();
        assert_eq!(s.template_hits, 15);
        assert_eq!(s.template_misses, 2);
        assert_eq!(s.parse_cache_hits, 8);
        assert_eq!(s.parse_cache_misses, 3);
        assert_eq!(s.parse_cache_evictions, 1);
        let text = s.render();
        assert!(text.contains("template"), "{text}");
        assert!(text.contains("parse-cache"), "{text}");
        assert!(text.contains("evictions"), "{text}");
    }

    #[test]
    fn render_layout_is_golden() {
        // Every body row must share one column grid: two-space indent,
        // label padded to 11 columns, one separator space (the one the
        // old parse-cache row lacked), then an 11-wide right-aligned
        // first figure ending at column 25.
        let m = PipelineMetrics::new();
        m.record_generated(1, 120, Duration::from_nanos(500));
        m.record_batch(1, Duration::from_micros(3));
        m.record_timing_sampled(1);
        m.record_parse_cache(8, 3, 1);
        m.record_template(15, 2);
        let text = m.snapshot().render();
        let body: Vec<&str> = text.lines().skip(1).collect();
        assert!(body.len() >= 12, "expected all sections rendered: {text}");
        for line in body {
            assert!(line.starts_with("  "), "indent: {line:?}");
            let label = &line[2..13];
            assert!(
                !label.starts_with(' '),
                "label must start at column 2: {line:?}"
            );
            assert_eq!(
                &line[13..14],
                " ",
                "separator space missing at column 13: {line:?}"
            );
            let first_figure = &line[14..25];
            assert!(
                first_figure.ends_with(|c: char| c != ' '),
                "first figure must be right-aligned to column 24: {line:?}"
            );
            assert!(
                line.len() < 26 || line.as_bytes()[25] == b' ',
                "first figure wider than its column: {line:?}"
            );
        }
        // The specific satellite bug: parse-cache keeps its separator.
        let pc = text.lines().find(|l| l.contains("parse-cache")).unwrap();
        assert!(pc.starts_with("  parse-cache "), "{pc:?}");
        // Stage times are labelled as the sampled estimates they are.
        for stage in ["  generate ", "  ingest ", "  timing "] {
            let row = text.lines().find(|l| l.starts_with(stage)).unwrap();
            assert!(row.contains("est-busy"), "{row:?}");
            assert!(!row.contains("cpu"), "{row:?}");
        }
    }

    #[test]
    fn pool_counters_surface_in_snapshot_and_render() {
        let m = PipelineMetrics::new();
        m.record_pool(&PoolStats {
            bufs_created: 10,
            bufs_recycled: 90,
            bufs_dropped: 4,
            batches_created: 2,
            batches_recycled: 8,
            batches_dropped: 1,
        });
        m.record_pool(&PoolStats {
            bufs_created: 1,
            bufs_recycled: 0,
            bufs_dropped: 0,
            batches_created: 0,
            batches_recycled: 0,
            batches_dropped: 0,
        });
        let s = m.snapshot();
        assert_eq!(s.pool_bufs_created, 11);
        assert_eq!(s.pool_bufs_recycled, 90);
        assert_eq!(s.pool_bufs_dropped, 4);
        assert_eq!(s.pool_batches_created, 2);
        assert_eq!(s.pool_batches_recycled, 8);
        assert_eq!(s.pool_batches_dropped, 1);
        let text = s.render();
        assert!(text.contains("pool"), "{text}");
        assert!(text.contains("bufs recycled"), "{text}");
    }

    #[test]
    fn latency_histograms_record_and_render() {
        let m = PipelineMetrics::new();
        m.record_batch(10, Duration::from_micros(50));
        m.record_month(Duration::from_millis(20));
        m.observe_checkpoint_write(Duration::from_micros(300));
        m.observe_checkpoint_load(Duration::from_micros(100));
        let lat = m.latency();
        assert_eq!(lat.ingest_batch.count, 1);
        assert_eq!(lat.month.count, 1);
        assert_eq!(lat.checkpoint_write.count, 1);
        assert_eq!(lat.checkpoint_load.count, 1);
        let text = lat.render();
        for needle in [
            "pipeline latency",
            "month",
            "batch",
            "ckpt-write",
            "ckpt-load",
        ] {
            assert!(
                text.contains(needle),
                "latency render missing {needle}: {text}"
            );
        }
        // Latency is observational: the counter snapshot is untouched
        // by everything except record_batch's counters.
        let s = m.snapshot();
        assert_eq!(s.flows_ingested, 10);
        assert_eq!(s.batches_ingested, 1);
    }

    #[test]
    fn json_export_schema_is_golden() {
        // The golden key-set test: any drift in the export schema must
        // be deliberate (bump SCHEMA and update this list).
        let m = PipelineMetrics::new();
        m.record_generated(1, 100, Duration::from_nanos(10));
        m.record_dispatched(1);
        m.record_batch(1, Duration::from_micros(1));
        let snap = m.snapshot();
        let parsed = tlscope_obs::Json::parse(&snap.to_json_with(&m.latency())).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(MetricsSnapshot::SCHEMA)
        );
        assert_eq!(
            parsed.keys(),
            vec!["schema", "counters", "derived", "latency"]
        );
        let counters = parsed.get("counters").unwrap();
        assert_eq!(
            counters.keys(),
            vec![
                "flows_generated",
                "bytes_generated",
                "gen_nanos",
                "flows_outage_dropped",
                "flows_duplicated",
                "flows_dispatched",
                "flows_ingested",
                "batches_ingested",
                "not_tls",
                "garbled_client",
                "flows_salvaged",
                "ingest_nanos",
                "timing_sampled_flows",
                "batch_retries",
                "worker_respawns",
                "flows_quarantined",
                "merge_nanos",
                "shards_lost",
                "checkpoints_written",
                "checkpoints_loaded",
                "checkpoints_quarantined",
                "template_hits",
                "template_misses",
                "parse_cache_hits",
                "parse_cache_misses",
                "parse_cache_evictions",
                "pool_bufs_created",
                "pool_bufs_recycled",
                "pool_bufs_dropped",
                "pool_batches_created",
                "pool_batches_recycled",
                "pool_batches_dropped",
            ]
        );
        assert_eq!(
            parsed.get("derived").unwrap().keys(),
            vec![
                "gen_flows_per_sec",
                "ingest_flows_per_sec",
                "flows_lost",
                "accounting_holds"
            ]
        );
        assert_eq!(
            parsed.get("latency").unwrap().keys(),
            vec![
                "month",
                "ingest_batch",
                "checkpoint_write",
                "checkpoint_load"
            ]
        );
        // Counters in the JSON match the snapshot the text render used.
        assert_eq!(
            counters.get("flows_generated").and_then(|v| v.as_u64()),
            Some(snap.flows_generated)
        );
        assert_eq!(
            counters.get("flows_ingested").and_then(|v| v.as_u64()),
            Some(snap.flows_ingested)
        );
        assert_eq!(
            parsed
                .get("latency")
                .and_then(|l| l.get("ingest_batch"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn shared_across_threads() {
        let m = PipelineMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.record_batch(1, Duration::from_nanos(10));
                    }
                });
            }
        });
        assert_eq!(m.snapshot().flows_ingested, 4000);
        assert_eq!(m.snapshot().batches_ingested, 4000);
    }
}
