//! Study orchestration: run the passive and active measurements over
//! the paper's observation windows.
//!
//! The passive measurement uses a *fused* streaming runner: the
//! observation window is sharded by month across worker threads, and
//! each worker generates its month's flows and aggregates them in the
//! same loop — no month is ever materialized. Each completed month is
//! merged into the shared result (aggregation is commutative, so the
//! result is identical to a serial run) together with one flush of its
//! counts into a shared [`PipelineMetrics`]; months a dead worker
//! left unmerged are recomputed before the run returns.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use tlscope_obs::Progress;

use tlscope_chron::Month;
use tlscope_notary::{
    checkpoint, ingest_borrowed, CheckpointError, NotaryAggregate, PipelineMetrics,
};
use tlscope_scanner::{ScanCampaign, ScanCheckpointError, ScanFaults, ScanMetrics, ScanSnapshot};
use tlscope_servers::ServerPopulation;
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

/// Configuration of a full study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Master seed for all randomness.
    pub seed: u64,
    /// Passive connections simulated per month.
    pub connections_per_month: u32,
    /// First month of the passive window (paper: 2012-02).
    pub start: Month,
    /// Last month of the passive window (paper: 2018-04).
    pub end: Month,
    /// Ingestion worker threads (1 = serial); defaults to the
    /// machine's available parallelism.
    pub workers: usize,
    /// Tap fault injection.
    pub faults: FaultInjector,
    /// Hosts per active sweep.
    pub scan_hosts: u32,
    /// Scan-side fault injection (SYN loss, flakes, timeouts, dead
    /// hosts). Defaults to [`ScanFaults::none`] unless
    /// `TLSCOPE_SCAN_FAULT_PROFILE` names a profile, so calibration
    /// anchors see a loss-free scanner out of the box.
    pub scan_faults: ScanFaults,
    /// When set, each completed month's partial aggregate is written
    /// to this directory, and months already checkpointed there are
    /// loaded instead of re-simulated (`repro --resume <dir>`).
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, each completed campaign date's snapshot + ledger is
    /// written to this directory, and dates already checkpointed there
    /// are loaded instead of re-swept (`repro --resume-scan <dir>`).
    pub scan_checkpoint_dir: Option<PathBuf>,
    /// Test failpoint: a passive worker panics after drawing and
    /// folding this month, before checkpointing or merging it,
    /// exercising the runner's lost-month recomputation. `None` by
    /// default; no `repro` flag sets it.
    pub panic_on_month: Option<Month>,
}

/// The machine's available parallelism (1 when unknown), looked up
/// once per process: on Linux the lookup reads cgroup files, which
/// would otherwise dominate building a configuration.
fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0x1C51_2012,
            connections_per_month: 12_000,
            // The Notary window (Feb 2012 – Mar 2018, §3.1) padded by
            // one month on each side so milestone checks can read the
            // boundary months; calibration tests anchor on 2018-04.
            start: Month::ym(2012, 1),
            end: Month::ym(2018, 4),
            workers: available_workers(),
            faults: FaultInjector::tap_defaults(),
            scan_hosts: 4_000,
            scan_faults: ScanFaults::from_env(ScanFaults::none()),
            checkpoint_dir: None,
            scan_checkpoint_dir: None,
            panic_on_month: None,
        }
    }
}

impl StudyConfig {
    /// A small configuration for tests and quick demos.
    pub fn quick() -> Self {
        StudyConfig {
            connections_per_month: 1_500,
            scan_hosts: 800,
            ..StudyConfig::default()
        }
    }
}

/// The passive runner times flow indices `63, 127, ...` of each month:
/// every 64th flow, chosen by index so every run times the same flows.
const TIMING_SAMPLE_MASK: u64 = 63;

/// What the passive workers share: the result so far, which pending
/// months it holds, and the first checkpoint write error.
struct Merged {
    agg: NotaryAggregate,
    done: Vec<bool>,
    error: Option<CheckpointError>,
}

/// One month's flow count and the time of its sampled flows.
#[derive(Default)]
struct SampledTiming {
    flows: u64,
    sampled: u64,
    gen: Duration,
    ingest: Duration,
}

impl SampledTiming {
    /// Estimated `(generation, ingestion)` busy time of all the
    /// month's flows: each `sampled_time × flows / sampled`. A sampled
    /// flow that lost its core to another process counts 64 times, so
    /// when the two estimates add up to more than `measured`, the wall
    /// time of the loop they split, both are scaled down to fit it.
    fn estimates(&self, measured: Duration) -> (Duration, Duration) {
        if self.sampled == 0 {
            return (Duration::ZERO, Duration::ZERO);
        }
        let scale = |t: Duration| t.as_nanos() * u128::from(self.flows) / u128::from(self.sampled);
        let (mut gen, mut ingest) = (scale(self.gen), scale(self.ingest));
        let cap = measured.as_nanos();
        if gen + ingest > cap {
            (gen, ingest) = (gen * cap / (gen + ingest), ingest * cap / (gen + ingest));
        }
        let nanos = |n: u128| Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX));
        (nanos(gen), nanos(ingest))
    }
}

/// A study: the passive tap plus the active scanner.
pub struct Study {
    cfg: StudyConfig,
    generator: Generator,
    population: ServerPopulation,
}

impl Study {
    /// Build a study from a configuration.
    pub fn new(cfg: StudyConfig) -> Self {
        let generator = Generator::new(TrafficConfig {
            seed: cfg.seed,
            connections_per_month: cfg.connections_per_month,
            faults: cfg.faults,
        });
        Study {
            cfg,
            generator,
            population: ServerPopulation::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// The traffic generator (exposed for market-share inspection).
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Run the passive measurement over the configured window.
    pub fn run_passive(&self) -> NotaryAggregate {
        self.run_passive_metered(&PipelineMetrics::new())
    }

    /// Run the passive measurement with pipeline accounting.
    ///
    /// Convenience wrapper over [`Study::try_run_passive_metered`].
    /// Checkpoint errors are only reachable with `cfg.checkpoint_dir`
    /// set; callers that checkpoint should use the `try_` variant to
    /// surface them instead of panicking here.
    pub fn run_passive_metered(&self, metrics: &PipelineMetrics) -> NotaryAggregate {
        self.try_run_passive_metered(metrics)
            .unwrap_or_else(|e| panic!("passive checkpoint error: {e}"))
    }

    /// Run the passive measurement with pipeline accounting and
    /// (optionally) per-month checkpointing.
    ///
    /// Months are sharded across `cfg.workers` threads through an
    /// atomic work index; each worker streams its month's events and
    /// folds them into a *fresh per-month partial* as they are drawn,
    /// so peak memory stays at one event per worker and a completed
    /// month is a self-contained unit of progress. With
    /// `cfg.checkpoint_dir` set, each completed partial is written
    /// atomically to `<dir>/<YYYY-MM>.ckpt` before being merged, and
    /// months already checkpointed in the directory are loaded and
    /// skipped — so an interrupted run resumes from the last completed
    /// month and, because merging is commutative and integer-exact,
    /// produces a final aggregate bit-identical to an uninterrupted
    /// one.
    ///
    /// Metering is per month: a month's counts (generation ledger,
    /// ingestion, parse failures, salvage, caches, checkpoint) reach
    /// `metrics` in one flush, under the same lock that merges the
    /// month into the result. Generation and ingestion times are
    /// estimated from every 64th flow (see [`PipelineMetrics`]).
    ///
    /// A worker panic loses at most the month it was running: every
    /// month it finished is already merged, and the unfinished one
    /// left no counts behind. After the workers join, every month
    /// missing from the result is recomputed on the calling thread —
    /// months replay from `(seed, month)`, so the recomputed month is
    /// the lost one bit for bit. The panic shows only in
    /// `shards_lost`. The result is never returned with months
    /// missing: a checkpoint write error returns `Err`, and a panic in
    /// the recomputation propagates.
    pub fn try_run_passive_metered(
        &self,
        metrics: &PipelineMetrics,
    ) -> Result<NotaryAggregate, CheckpointError> {
        let (loaded, completed) = match &self.cfg.checkpoint_dir {
            Some(dir) => {
                let load_started = Instant::now();
                let load = checkpoint::load_dir(dir)?;
                metrics.observe_checkpoint_load(load_started.elapsed());
                metrics.record_checkpoints_loaded(load.completed.len() as u64);
                metrics.record_checkpoints_quarantined(load.quarantined.len() as u64);
                (load.aggregate, load.completed)
            }
            None => (NotaryAggregate::new(), std::collections::BTreeSet::new()),
        };
        let total_months = self.cfg.start.iter_through(self.cfg.end).count() as u64;
        let months: Vec<Month> = self
            .cfg
            .start
            .iter_through(self.cfg.end)
            .filter(|m| !completed.contains(m))
            .collect();
        let months_done = AtomicU64::new(total_months - months.len() as u64);
        let progress = Progress::from_env("passive-study", total_months, "months", "flows");
        let workers = self.cfg.workers.max(1).min(months.len().max(1));
        let next = AtomicUsize::new(0);
        let merged = Mutex::new(Merged {
            agg: loaded,
            done: vec![false; months.len()],
            error: None,
        });
        let lock = || merged.lock().unwrap_or_else(|p| p.into_inner());

        // One month, end to end: stream and fold it, checkpoint it,
        // then flush its counts and merge it in one critical section.
        let run_month = |i: usize, failpoint: Option<Month>| {
            let month = months[i];
            let month_started = Instant::now();
            let mut partial = NotaryAggregate::new();
            let mut timing = SampledTiming::default();
            // Borrowed fast path: fold straight from the generator's
            // scratch buffers into the aggregate — no flow buffer is
            // ever owned.
            let mut stream = self.generator.stream_month(month);
            loop {
                if timing.flows & TIMING_SAMPLE_MASK == TIMING_SAMPLE_MASK {
                    let started = Instant::now();
                    let Some(flow) = stream.next_flow() else {
                        break;
                    };
                    let generated = Instant::now();
                    ingest_borrowed(&mut partial, flow.date, flow.port, flow.client, flow.server);
                    timing.gen += generated - started;
                    timing.ingest += generated.elapsed();
                    timing.sampled += 1;
                } else {
                    let Some(flow) = stream.next_flow() else {
                        break;
                    };
                    ingest_borrowed(&mut partial, flow.date, flow.port, flow.client, flow.server);
                }
                timing.flows += 1;
            }
            let (gen_time, ingest_time) = timing.estimates(month_started.elapsed());
            if failpoint == Some(month) {
                // The month is drawn and folded but neither
                // checkpointed nor flushed: it must vanish without a
                // trace and be recomputed. (`resume_unwind` unwinds
                // like a panic without printing one.)
                std::panic::resume_unwind(Box::new(format!("passive failpoint: month {month}")));
            }
            let mut ckpt_write = None;
            if let Some(dir) = &self.cfg.checkpoint_dir {
                let write_started = Instant::now();
                if let Err(e) = checkpoint::write_month(dir, month, &partial) {
                    lock().error.get_or_insert(e);
                    return;
                }
                ckpt_write = Some(write_started.elapsed());
            }
            let ledger = stream.ledger();
            let mut merged = lock();
            metrics.record_generated(ledger.flows, ledger.bytes, gen_time);
            metrics.record_outage_dropped(ledger.outage_dropped);
            metrics.record_duplicated(ledger.duplicated);
            metrics.record_template(ledger.template_hits, ledger.template_misses);
            metrics.record_dispatched(timing.flows);
            // One month shard = one accounting batch.
            metrics.record_batch(timing.flows, ingest_time);
            metrics.record_timing_sampled(timing.sampled);
            metrics.record_parse_failures(partial.not_tls, partial.garbled_client);
            metrics.record_salvaged(partial.salvaged);
            tlscope_notary::flush_parse_cache_metrics(metrics);
            if let Some(elapsed) = ckpt_write {
                metrics.observe_checkpoint_write(elapsed);
                metrics.record_checkpoint_written();
            }
            let merge_started = Instant::now();
            merged.agg.merge(partial);
            merged.done[i] = true;
            metrics.record_merge(merge_started.elapsed());
            metrics.record_month(month_started.elapsed());
            months_done.fetch_add(1, Ordering::Relaxed);
        };

        let stop_heartbeat = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if progress.is_enabled() {
                scope.spawn(|| {
                    progress.run_ticker(&stop_heartbeat, || {
                        (
                            months_done.load(Ordering::Relaxed),
                            metrics.snapshot().flows_ingested,
                        )
                    })
                });
            }
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // Workers stop claiming months once a
                        // checkpoint write has failed.
                        if i >= months.len() || lock().error.is_some() {
                            break;
                        }
                        run_month(i, self.cfg.panic_on_month);
                    })
                })
                .collect();
            for h in handles {
                if h.join().is_err() {
                    metrics.record_shard_lost();
                }
            }
            stop_heartbeat.store(true, Ordering::Release);
        });
        // Recovery pass: recompute on this thread, with the failpoint
        // cleared, every month a dead worker left unmerged (none once
        // a checkpoint write has failed: that run returns the error).
        for i in 0..months.len() {
            let state = lock();
            if state.error.is_some() {
                break;
            }
            let missing = !state.done[i];
            drop(state);
            if missing {
                run_month(i, None);
            }
        }
        let merged = merged.into_inner().unwrap_or_else(|p| p.into_inner());
        match merged.error {
            Some(e) => Err(e),
            None => Ok(merged.agg),
        }
    }

    /// Run the active campaign (monthly cadence over the Censys window).
    pub fn run_active(&self) -> Vec<ScanSnapshot> {
        self.run_active_metered(&ScanMetrics::new())
    }

    /// Run the active campaign with scan accounting, sweep dates
    /// sharded across `cfg.workers` threads. Bit-identical to
    /// [`Study::run_active`] at any worker count (host sampling is
    /// counter-based per `(seed, date, host index)`).
    ///
    /// Convenience wrapper over [`Study::try_run_active_metered`].
    /// Checkpoint errors are only reachable with
    /// `cfg.scan_checkpoint_dir` set; checkpointing callers should use
    /// the `try_` variant to surface them instead of panicking here.
    pub fn run_active_metered(&self, metrics: &ScanMetrics) -> Vec<ScanSnapshot> {
        self.try_run_active_metered(metrics)
            .unwrap_or_else(|e| panic!("scan checkpoint error: {e}"))
    }

    /// Run the active campaign with scan accounting and (optionally)
    /// per-date checkpointing.
    ///
    /// With `cfg.scan_checkpoint_dir` set, each completed date's
    /// snapshot and ledger is written atomically to
    /// `<dir>/<YYYY-MM-DD>.ckpt`, and dates already checkpointed there
    /// are loaded (their ledgers replayed into `metrics`) and skipped —
    /// so an interrupted campaign resumes from the last completed date
    /// and produces snapshots and counters bit-identical to an
    /// uninterrupted run. Damaged checkpoint files are quarantined to
    /// `*.ckpt.bad` and their dates re-swept.
    pub fn try_run_active_metered(
        &self,
        metrics: &ScanMetrics,
    ) -> Result<Vec<ScanSnapshot>, ScanCheckpointError> {
        ScanCampaign::censys_monthly(self.cfg.scan_hosts, self.cfg.seed)
            .with_faults(self.cfg.scan_faults)
            .run_durable(
                &self.population,
                self.cfg.workers,
                metrics,
                self.cfg.scan_checkpoint_dir.as_deref(),
            )
    }

    /// Run the active campaign at the paper's weekly cadence.
    pub fn run_active_weekly(&self) -> Vec<ScanSnapshot> {
        ScanCampaign::censys_weekly(self.cfg.scan_hosts, self.cfg.seed)
            .with_faults(self.cfg.scan_faults)
            .run_parallel(&self.population, self.cfg.workers, &ScanMetrics::new())
    }

    /// All months of the passive window.
    pub fn months(&self) -> Vec<Month> {
        self.cfg.start.iter_through(self.cfg.end).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_runs_end_to_end() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 1);
        cfg.end = Month::ym(2015, 4);
        cfg.connections_per_month = 400;
        let study = Study::new(cfg);
        let agg = study.run_passive();
        assert_eq!(agg.iter_months().count(), 4);
        let m = agg.month(Month::ym(2015, 2)).unwrap();
        assert!(m.total > 350);
        assert!(m.answered > 300);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 2);
        cfg.connections_per_month = 300;
        cfg.workers = 1;
        let serial = Study::new(cfg.clone()).run_passive();
        cfg.workers = 4;
        let parallel = Study::new(cfg).run_passive();
        // Aggregation is commutative and integer-exact, so the sharded
        // run must be bit-identical to the serial one.
        assert_eq!(serial, parallel);
    }

    fn unique_dir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("tlscope-study-{tag}-{pid}-{t}"))
    }

    /// An interrupted-then-resumed checkpointed run must be
    /// bit-identical to an uninterrupted run — for the serial
    /// (workers = 1) and sharded runners alike.
    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        for workers in [1usize, 4] {
            let mut cfg = StudyConfig::quick();
            cfg.start = Month::ym(2016, 1);
            cfg.end = Month::ym(2016, 4);
            cfg.connections_per_month = 200;
            cfg.workers = workers;
            // No drops/duplication so the regenerated-flow count below
            // is exact.
            cfg.faults = FaultInjector::none();
            let uninterrupted = Study::new(cfg.clone()).run_passive();

            // Simulate a run killed after two completed months: only
            // the truncated window executes before the "crash".
            let dir = unique_dir(&format!("resume-w{workers}"));
            let mut killed = cfg.clone();
            killed.end = Month::ym(2016, 2);
            killed.checkpoint_dir = Some(dir.clone());
            let _ = Study::new(killed).run_passive();

            // Resume over the full window from the same directory.
            let mut resumed_cfg = cfg.clone();
            resumed_cfg.checkpoint_dir = Some(dir.clone());
            let metrics = PipelineMetrics::new();
            let resumed = Study::new(resumed_cfg)
                .try_run_passive_metered(&metrics)
                .unwrap();
            assert_eq!(resumed, uninterrupted, "workers = {workers}");
            // Only the two remaining months were re-simulated.
            assert_eq!(metrics.snapshot().flows_generated, 2 * 200);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn fully_checkpointed_run_resumes_without_regenerating() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 3);
        cfg.end = Month::ym(2015, 5);
        cfg.connections_per_month = 150;
        cfg.workers = 2;
        let dir = unique_dir("full");
        cfg.checkpoint_dir = Some(dir.clone());
        let first = Study::new(cfg.clone()).run_passive();
        let metrics = PipelineMetrics::new();
        let second = Study::new(cfg).try_run_passive_metered(&metrics).unwrap();
        assert_eq!(first, second);
        assert_eq!(metrics.snapshot().flows_generated, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_io_errors_surface_as_errors() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 1);
        cfg.end = Month::ym(2015, 1);
        cfg.connections_per_month = 50;
        // A file where the checkpoint directory should be.
        let path = unique_dir("clash");
        std::fs::write(&path, "not a directory").unwrap();
        cfg.checkpoint_dir = Some(path.clone());
        let err = Study::new(cfg).try_run_passive_metered(&PipelineMetrics::new());
        assert!(err.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// Core scan-ledger counters (everything except wall-clock time and
    /// the checkpoint bookkeeping itself).
    fn scan_ledger_core(s: &tlscope_scanner::ScanMetricsSnapshot) -> [u64; 9] {
        [
            s.hosts_dispatched,
            s.hosts_probed,
            s.hosts_dropped,
            s.host_retries,
            s.probes_sent,
            s.handshakes_completed,
            s.handshakes_refused,
            s.probes_timed_out,
            s.sweeps_completed,
        ]
    }

    /// A scan campaign resumed from a partially-populated checkpoint
    /// directory must be bit-identical — snapshots and ledger — to an
    /// uninterrupted run.
    #[test]
    fn scan_resume_from_checkpoint_is_bit_identical() {
        let mut cfg = StudyConfig::quick();
        cfg.scan_hosts = 120;
        cfg.workers = 3;
        cfg.scan_faults = ScanFaults::scan_defaults();
        let clean_metrics = ScanMetrics::new();
        let expected = Study::new(cfg.clone())
            .try_run_active_metered(&clean_metrics)
            .unwrap();

        // A full checkpointed run, then delete the last two date files
        // to simulate a campaign killed before completing them.
        let dir = unique_dir("scan-resume");
        cfg.scan_checkpoint_dir = Some(dir.clone());
        let _ = Study::new(cfg.clone()).run_active();
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let total = files.len();
        assert_eq!(total, expected.len());
        for path in files.iter().rev().take(2) {
            std::fs::remove_file(path).unwrap();
        }

        let metrics = ScanMetrics::new();
        let resumed = Study::new(cfg).try_run_active_metered(&metrics).unwrap();
        assert_eq!(resumed, expected);
        let s = metrics.snapshot();
        assert_eq!(s.checkpoints_loaded, (total - 2) as u64);
        assert_eq!(s.checkpoints_written, 2);
        assert_eq!(s.checkpoints_quarantined, 0);
        // Replayed ledgers + the two re-swept dates reproduce the clean
        // run's accounting exactly.
        assert_eq!(
            scan_ledger_core(&s),
            scan_ledger_core(&clean_metrics.snapshot())
        );
        assert!(s.accounting_holds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A damaged scan checkpoint is quarantined and its date re-swept;
    /// the resumed campaign still matches the clean run.
    #[test]
    fn scan_resume_quarantines_damaged_checkpoints() {
        let mut cfg = StudyConfig::quick();
        cfg.scan_hosts = 100;
        cfg.workers = 2;
        cfg.scan_faults = ScanFaults::scan_defaults();
        let expected = Study::new(cfg.clone()).run_active();

        let dir = unique_dir("scan-quarantine");
        cfg.scan_checkpoint_dir = Some(dir.clone());
        let _ = Study::new(cfg.clone()).run_active();
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let total = files.len();
        // Truncate the first checkpoint mid-file.
        let victim = &files[0];
        let text = std::fs::read_to_string(victim).unwrap();
        std::fs::write(victim, &text[..text.len() / 2]).unwrap();

        let metrics = ScanMetrics::new();
        let resumed = Study::new(cfg).try_run_active_metered(&metrics).unwrap();
        assert_eq!(resumed, expected);
        let s = metrics.snapshot();
        assert_eq!(s.checkpoints_quarantined, 1);
        assert_eq!(s.checkpoints_loaded, (total - 1) as u64);
        assert_eq!(s.checkpoints_written, 1);
        let bad = victim.with_extension("ckpt.bad");
        assert!(bad.exists(), "damaged file parked at {}", bad.display());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_checkpoint_io_errors_surface_as_errors() {
        let mut cfg = StudyConfig::quick();
        cfg.scan_hosts = 60;
        // A file where the scan checkpoint directory should be.
        let path = unique_dir("scan-clash");
        std::fs::write(&path, "not a directory").unwrap();
        cfg.scan_checkpoint_dir = Some(path.clone());
        let err = Study::new(cfg).try_run_active_metered(&ScanMetrics::new());
        assert!(err.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// The passive runner reports loaded / quarantined / written
    /// checkpoint counts through the pipeline metrics.
    #[test]
    fn passive_resume_reports_recovery_counters() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 6);
        cfg.end = Month::ym(2016, 9);
        cfg.connections_per_month = 150;
        cfg.workers = 2;
        cfg.faults = FaultInjector::none();
        let expected = Study::new(cfg.clone()).run_passive();

        let dir = unique_dir("passive-quarantine");
        cfg.checkpoint_dir = Some(dir.clone());
        let _ = Study::new(cfg.clone()).run_passive();
        // Bit-flip one month's checkpoint body.
        let victim = dir.join("2016-07.ckpt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let metrics = PipelineMetrics::new();
        let resumed = Study::new(cfg).try_run_passive_metered(&metrics).unwrap();
        assert_eq!(resumed, expected);
        let s = metrics.snapshot();
        assert_eq!(s.checkpoints_loaded, 3);
        assert_eq!(s.checkpoints_quarantined, 1);
        assert_eq!(s.checkpoints_written, 1);
        assert!(victim.with_extension("ckpt.bad").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metered_run_accounts_every_flow() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2017, 1);
        cfg.end = Month::ym(2017, 3);
        cfg.connections_per_month = 250;
        cfg.workers = 2;
        let study = Study::new(cfg);
        let metrics = PipelineMetrics::new();
        let agg = study.run_passive_metered(&metrics);
        let s = metrics.snapshot();
        assert_eq!(s.flows_generated, s.flows_dispatched);
        assert_eq!(s.flows_dispatched, s.flows_ingested);
        assert_eq!(s.flows_lost(), 0);
        assert_eq!(s.shards_lost, 0);
        // One accounting batch per month shard.
        assert_eq!(s.batches_ingested, 3);
        assert_eq!(
            s.flows_ingested,
            agg.total() + agg.not_tls + agg.garbled_client
        );
        // Timing is sampled, so the estimates rest on some flows, and
        // only on every 64th flow of a month.
        assert!(s.gen_nanos > 0 && s.ingest_nanos > 0);
        assert!(s.timing_sampled_flows > 0);
        assert!(s.timing_sampled_flows <= s.flows_ingested / 64);
    }

    #[test]
    fn sampled_estimates_scale_and_never_exceed_the_measured_time() {
        let timing = SampledTiming {
            flows: 128,
            sampled: 2,
            gen: Duration::from_micros(3),
            ingest: Duration::from_micros(1),
        };
        let us = Duration::from_micros;
        assert_eq!(timing.estimates(us(1000)), (us(192), us(64)));
        // A preempted sample: the estimates are scaled to the loop.
        assert_eq!(timing.estimates(us(128)), (us(96), us(32)));
        assert_eq!(
            SampledTiming::default().estimates(us(5)),
            (Duration::ZERO, Duration::ZERO)
        );
    }

    /// Every exact count of a passive run. Left out: the stage times,
    /// `shards_lost`, and the parse-cache hit/miss split and evictions,
    /// which depend on which thread's cache saw which month first (the
    /// number of consults, hits plus misses, does not).
    fn passive_counts(s: &tlscope_notary::MetricsSnapshot) -> Vec<(&'static str, u64)> {
        vec![
            ("flows_generated", s.flows_generated),
            ("bytes_generated", s.bytes_generated),
            ("flows_outage_dropped", s.flows_outage_dropped),
            ("flows_duplicated", s.flows_duplicated),
            ("flows_dispatched", s.flows_dispatched),
            ("flows_ingested", s.flows_ingested),
            ("batches_ingested", s.batches_ingested),
            ("not_tls", s.not_tls),
            ("garbled_client", s.garbled_client),
            ("flows_salvaged", s.flows_salvaged),
            ("timing_sampled_flows", s.timing_sampled_flows),
            ("batch_retries", s.batch_retries),
            ("worker_respawns", s.worker_respawns),
            ("flows_quarantined", s.flows_quarantined),
            ("checkpoints_written", s.checkpoints_written),
            ("checkpoints_loaded", s.checkpoints_loaded),
            ("checkpoints_quarantined", s.checkpoints_quarantined),
            ("template_hits", s.template_hits),
            ("template_misses", s.template_misses),
            (
                "parse_cache_consults",
                s.parse_cache_hits + s.parse_cache_misses,
            ),
        ]
    }

    /// A worker that panics mid-run loses no month: the runner
    /// recomputes what the dead worker left unmerged, so the aggregate
    /// and every exact count match a clean run, at any worker count,
    /// with and without checkpoints, whichever month the panic hits.
    #[test]
    fn month_panic_recovers_every_month() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2016, 1);
        cfg.end = Month::ym(2016, 5);
        cfg.connections_per_month = 150;
        cfg.faults = FaultInjector::from_env(FaultInjector::tap_defaults());
        let months = Study::new(cfg.clone()).months();
        let victims = [
            months[0],
            months[months.len() / 2],
            months[months.len() - 1],
        ];
        for workers in 1usize..=4 {
            for checkpointed in [false, true] {
                let run = |panic_on_month: Option<Month>| {
                    let dir = unique_dir(&format!("panic-w{workers}"));
                    let mut run_cfg = cfg.clone();
                    run_cfg.workers = workers;
                    run_cfg.panic_on_month = panic_on_month;
                    run_cfg.checkpoint_dir = checkpointed.then(|| dir.clone());
                    let metrics = PipelineMetrics::new();
                    let agg = Study::new(run_cfg).try_run_passive_metered(&metrics);
                    if checkpointed {
                        std::fs::remove_dir_all(&dir).unwrap();
                    }
                    (agg.expect("no checkpoint error"), metrics.snapshot())
                };
                let (clean, clean_stats) = run(None);
                assert_eq!(clean.iter_months().count(), months.len());
                assert_eq!(clean_stats.shards_lost, 0);
                for victim in victims {
                    let ctx = format!("workers {workers}, checkpointed {checkpointed}, {victim}");
                    let (agg, stats) = run(Some(victim));
                    assert_eq!(agg, clean, "{ctx}");
                    assert_eq!(stats.shards_lost, 1, "the failpoint fired: {ctx}");
                    assert_eq!(
                        passive_counts(&stats),
                        passive_counts(&clean_stats),
                        "{ctx}"
                    );
                    assert!(stats.accounting_holds(), "{ctx}");
                }
            }
        }
    }

    /// The runner's generation counters are exactly the sums of what
    /// each month's stream yields, at any worker count.
    #[test]
    fn metered_ledger_equals_direct_stream_counts() {
        let mut cfg = StudyConfig::quick();
        cfg.seed = 20_261_017;
        cfg.start = Month::ym(2014, 11);
        cfg.end = Month::ym(2015, 3);
        cfg.connections_per_month = 400;
        cfg.faults = FaultInjector::stress();
        let study = Study::new(cfg.clone());
        let (mut flows, mut bytes, mut sampled) = (0u64, 0u64, 0u64);
        let (mut outage, mut duplicated, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
        for month in study.months() {
            let mut stream = study.generator().stream_month(month);
            let mut month_flows = 0u64;
            while let Some(flow) = stream.next_flow() {
                month_flows += 1;
                bytes += (flow.client.len() + flow.server.map_or(0, <[u8]>::len)) as u64;
            }
            flows += month_flows;
            sampled += month_flows / 64;
            let ledger = stream.ledger();
            assert_eq!(ledger.flows, month_flows, "{month}");
            outage += ledger.outage_dropped;
            duplicated += ledger.duplicated;
            hits += ledger.template_hits;
            misses += ledger.template_misses;
        }
        assert!(outage > 0 && duplicated > 0, "stress faults fired");
        for workers in [1usize, 2, 4] {
            cfg.workers = workers;
            let metrics = PipelineMetrics::new();
            Study::new(cfg.clone()).run_passive_metered(&metrics);
            let s = metrics.snapshot();
            assert_eq!(
                [
                    s.flows_generated,
                    s.bytes_generated,
                    s.flows_outage_dropped,
                    s.flows_duplicated,
                    s.template_hits,
                    s.template_misses,
                    s.flows_dispatched,
                    s.timing_sampled_flows,
                ],
                [flows, bytes, outage, duplicated, hits, misses, flows, sampled],
                "workers = {workers}"
            );
        }
    }
}
