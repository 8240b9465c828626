//! Study orchestration: run the passive and active measurements over
//! the paper's observation windows.
//!
//! The passive measurement uses a *fused* streaming runner: the
//! observation window is sharded by month across worker threads, and
//! each worker generates its month's flows and aggregates them in the
//! same loop — no month is ever materialized. Partial aggregates are
//! merged at the end (aggregation is commutative, so the result is
//! identical to a serial run), and every stage reports into a shared
//! [`PipelineMetrics`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

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
    /// A worker panic loses only that worker's current months (counted
    /// in `metrics`); the surviving partials are still merged and
    /// returned.
    pub fn try_run_passive_metered(
        &self,
        metrics: &PipelineMetrics,
    ) -> Result<NotaryAggregate, CheckpointError> {
        let (mut result, completed) = match &self.cfg.checkpoint_dir {
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
        // First checkpoint write error, reported after the scope ends
        // (workers stop claiming months once one is recorded).
        let ckpt_error: Mutex<Option<CheckpointError>> = Mutex::new(None);
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
                    scope.spawn(|| {
                        let mut agg = NotaryAggregate::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&month) = months.get(i) else { break };
                            if ckpt_error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .is_some()
                            {
                                break;
                            }
                            let month_started = Instant::now();
                            let mut partial = NotaryAggregate::new();
                            let mut flows = 0u64;
                            let mut ingest_time = std::time::Duration::ZERO;
                            // Borrowed fast path: fold straight from
                            // the generator's scratch buffers into the
                            // aggregate — no flow buffer is ever owned.
                            let mut stream = self.generator.stream_month(month).metered(metrics);
                            while let Some(flow) = stream.next_flow() {
                                let started = Instant::now();
                                ingest_borrowed(
                                    &mut partial,
                                    flow.date,
                                    flow.port,
                                    flow.client,
                                    flow.server,
                                );
                                ingest_time += started.elapsed();
                                flows += 1;
                            }
                            metrics.record_dispatched(flows);
                            // One month shard = one accounting batch.
                            metrics.record_batch(flows, ingest_time);
                            metrics.record_parse_failures(partial.not_tls, partial.garbled_client);
                            metrics.record_salvaged(partial.salvaged);
                            tlscope_notary::flush_parse_cache_metrics(metrics);
                            if let Some(dir) = &self.cfg.checkpoint_dir {
                                let write_started = Instant::now();
                                if let Err(e) = checkpoint::write_month(dir, month, &partial) {
                                    ckpt_error
                                        .lock()
                                        .unwrap_or_else(|p| p.into_inner())
                                        .get_or_insert(e);
                                    break;
                                }
                                metrics.observe_checkpoint_write(write_started.elapsed());
                                metrics.record_checkpoint_written();
                            }
                            metrics.record_month(month_started.elapsed());
                            months_done.fetch_add(1, Ordering::Relaxed);
                            agg.merge(partial);
                        }
                        agg
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(partial) => {
                        let started = Instant::now();
                        result.merge(partial);
                        metrics.record_merge(started.elapsed());
                    }
                    Err(_) => metrics.record_shard_lost(),
                }
            }
            stop_heartbeat.store(true, Ordering::Release);
        });
        match ckpt_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => Ok(result),
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
        assert!(s.gen_nanos > 0 && s.ingest_nanos > 0);
    }
}
