//! The untraced run: each workload's batch job repeated for the run
//! length, timed from outside with no per-layer timers.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tlscope::analysis::{Study, StudyConfig};
use tlscope::chron::{Date, Month};
use tlscope::notary::PipelineMetrics;
use tlscope::report::{Artifact, ReportContext, RunError, EXPERIMENT_IDS};
use tlscope::scanner::{ScanCampaign, ScanFaults, ScanMetrics, ScanMetricsSnapshot, ScanSnapshot};
use tlscope::servers::ServerPopulation;
use tlscope::traffic::FaultInjector;

use crate::catalog::Workload;
use crate::check::{self, Tally, Units};
use crate::report::Report;
use crate::sys;

/// Jobs every untraced run makes, however short its run length.
const MIN_JOBS: usize = 3;
/// Timed batches of set-up per run, at least; the median is reported.
const SETUP_BATCHES: usize = 15;
/// A set-up batch repeats the set-up until it lasts at least this long.
const SETUP_BATCH_MIN: Duration = Duration::from_millis(10);

/// The default study, as `repro --full` runs it, with `workers`
/// threads and no scan faults.
pub fn study_config(seed: u64, workers: usize) -> StudyConfig {
    StudyConfig {
        seed,
        workers,
        scan_faults: ScanFaults::none(),
        ..StudyConfig::default()
    }
}

/// The default passive window under the `stress` tap profile.
pub fn stress_config(seed: u64, workers: usize, dir: Option<PathBuf>) -> StudyConfig {
    StudyConfig {
        faults: FaultInjector::stress(),
        checkpoint_dir: dir,
        ..study_config(seed, workers)
    }
}

/// The weekly Censys campaign under the default scan faults.
pub fn weekly_campaign(seed: u64) -> ScanCampaign {
    ScanCampaign::censys_weekly(StudyConfig::default().scan_hosts, seed)
        .with_faults(ScanFaults::scan_defaults())
}

/// The months of a study's passive window.
pub fn window(cfg: &StudyConfig) -> Vec<Month> {
    cfg.start.iter_through(cfg.end).collect()
}

/// A directory for checkpoints under `.bench_work/` in the working
/// directory, removed (with `.bench_work/` if it is then empty) when
/// dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Remove the directory's contents, keeping the handle usable.
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        self.clear();
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Times a workload's set-up in batches long enough to read. Each
/// value is dropped as soon as it is built, so set-up holds one
/// instance at a time and adds nothing to the jobs' peak RSS.
struct SetupTimer<'a> {
    make: Box<dyn FnMut() + 'a>,
    batch: usize,
}

impl<'a> SetupTimer<'a> {
    fn new<T>(mut make: impl FnMut() -> T + 'a) -> SetupTimer<'a> {
        let mut timer = SetupTimer {
            make: Box::new(move || drop(black_box(make()))),
            batch: 1,
        };
        while timer.time_batch() < SETUP_BATCH_MIN && timer.batch < 1 << 20 {
            timer.batch *= 2;
        }
        timer
    }

    fn time_batch(&mut self) -> Duration {
        let started = Instant::now();
        for _ in 0..self.batch {
            (self.make)();
        }
        started.elapsed()
    }

    /// Seconds per set-up, over one batch.
    fn sample(&mut self) -> f64 {
        self.time_batch().as_secs_f64() / self.batch as f64
    }
}

/// What one job measured.
struct Job {
    wall_s: f64,
    cpu_s: f64,
    passive_s: Option<f64>,
    active_s: Option<f64>,
    report_s: Option<f64>,
    resume_s: Option<f64>,
    flows: u64,
    hosts: u64,
    digest: String,
    units: Vec<Units>,
    /// Whether `s6.3` listed tied curves out of canonical order.
    reordered: bool,
}

/// The note printed when `s6.3` listed tied curves in hash order.
pub fn reorder_note(reordered: usize, jobs: usize) -> String {
    format!(
        "s6.3 listed curves of equal count in hash-map order in {reordered} of {jobs} jobs; \
         its rows were checked against the aggregate's curve counts and digested in \
         canonical order"
    )
}

/// Run `workload` for `seconds` (and at least [`MIN_JOBS`] jobs).
pub fn run(workload: Workload, seed: u64, seconds: f64, workers: usize) -> Report {
    let started = Instant::now();
    let mut timer = match workload {
        Workload::StudyFull => SetupTimer::new(|| ReportContext::new(study_config(seed, workers))),
        Workload::PassiveStressResume => {
            SetupTimer::new(|| Study::new(stress_config(seed, workers, None)))
        }
        Workload::ScanWeekly => {
            SetupTimer::new(|| (ServerPopulation::new(), weekly_campaign(seed)))
        }
    };
    // One set-up batch before each job, so set-up is sampled across the
    // whole run as the jobs are.
    let mut setup = Vec::new();
    let dir = WorkDir::new(workload.name());
    let reference = check::reference(workload.name(), seed);
    let mut jobs: Vec<Job> = Vec::new();
    while jobs.len() < MIN_JOBS || started.elapsed().as_secs_f64() < seconds {
        setup.push(timer.sample());
        let job = match workload {
            Workload::StudyFull => study_full(seed, workers),
            Workload::PassiveStressResume => passive_stress_resume(seed, workers, &dir),
            Workload::ScanWeekly => scan_weekly(seed, workers),
        };
        jobs.push(job);
    }
    drop(dir);
    while setup.len() < SETUP_BATCHES {
        setup.push(timer.sample());
    }

    let mut tally = Tally::default();
    let first = jobs[0].digest.clone();
    for (i, job) in jobs.iter_mut().enumerate() {
        let mut units = std::mem::take(&mut job.units);
        let last = units.last_mut().expect("every job checks its units");
        last.require_digest(&job.digest, reference, (i > 0).then_some(first.as_str()));
        units.into_iter().for_each(|u| tally.add(u));
    }

    let mut report = Report::new(tally);
    let reordered = jobs.iter().filter(|j| j.reordered).count();
    if reordered > 0 {
        report.notes.push(reorder_note(reordered, jobs.len()));
    }
    let col = |f: fn(&Job) -> Option<f64>| jobs.iter().filter_map(f).collect::<Vec<f64>>();
    report.push("setup_s", setup);
    report.push("wall_s", col(|j| Some(j.wall_s)));
    report.push("cpu_s", col(|j| Some(j.cpu_s)));
    report.push("peak_rss_mb", vec![sys::peak_rss_mb()]);
    report.push("passive_s", col(|j| j.passive_s));
    report.push("active_s", col(|j| j.active_s));
    report.push("report_s", col(|j| j.report_s));
    report.push("resume_s", col(|j| j.resume_s));
    report.push("conns_per_s", col(|j| Some(j.flows as f64 / j.passive_s?)));
    report.push("hosts_per_s", col(|j| Some(j.hosts as f64 / j.active_s?)));
    report.reference = reference.map(str::to_string);
    report.digest = Some(first);
    report
}

/// Every experiment's result, in paper order.
pub type Results = Vec<(&'static str, Result<Artifact, RunError>)>;

/// Run every experiment id once, in paper order, with each one's
/// milliseconds.
pub fn run_all(ctx: &mut ReportContext) -> (Results, Vec<f64>) {
    EXPERIMENT_IDS
        .iter()
        .map(|&id| {
            let started = Instant::now();
            let result = ctx.run(id);
            ((id, result), started.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// Campaign dates and the checks on the campaign's ledger `s`.
pub fn campaign_units(
    schedule: &[Date],
    snaps: &[ScanSnapshot],
    s: &ScanMetricsSnapshot,
    hosts: u32,
) -> Units {
    let mut units = check::dates(schedule, snaps);
    units.require(s.accounting_holds(), || {
        "scan ledger does not balance".into()
    });
    let want = schedule.len() as u64 * hosts as u64;
    units.require(s.hosts_dispatched == want, || {
        format!("{} hosts dispatched, {want} requested", s.hosts_dispatched)
    });
    units
}

/// Months and the ledger checks of one passive run.
fn passive_units(
    window: &[Month],
    agg: &tlscope::notary::NotaryAggregate,
    m: &PipelineMetrics,
) -> Units {
    let mut units = check::months(window, agg);
    let s = m.snapshot();
    units.require(s.accounting_holds(), || {
        "passive ledger does not balance".into()
    });
    units.require(s.shards_lost == 0, || {
        format!("{} shards lost", s.shards_lost)
    });
    units
}

fn study_full(seed: u64, workers: usize) -> Job {
    let cfg = study_config(seed, workers);
    let months = window(&cfg);
    let campaign = ScanCampaign::censys_monthly(cfg.scan_hosts, seed);
    let hosts = cfg.scan_hosts;
    let mut ctx = ReportContext::new(cfg);

    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let passive = ctx.try_passive().map(|_| ());
    let passive_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let scans = ctx.try_scans().map(|_| ());
    let active_s = t1.elapsed().as_secs_f64();
    // The campaign's own ledger, before the report's surveys add to it.
    let scan_ledger = ctx.scan_metrics().snapshot();
    let t2 = Instant::now();
    let (mut results, _) = run_all(&mut ctx);
    let report_s = t2.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let mut month_units = match (&passive, ctx.passive_ref()) {
        (Ok(()), Some(agg)) => passive_units(&months, agg, ctx.metrics()),
        _ => Units::new("month", months.len()),
    };
    month_units.require(passive.is_ok(), || {
        format!("passive run failed: {passive:?}")
    });
    let snaps = ctx.scans().to_vec();
    let mut date_units = campaign_units(&campaign.dates, &snaps, &scan_ledger, hosts);
    date_units.require(scans.is_ok(), || format!("active run failed: {scans:?}"));
    let flows = ctx.metrics().snapshot().flows_ingested;
    let dispatched = scan_ledger.hosts_dispatched;
    let mut experiment_units = check::experiments(&results);
    let reordered = check::canonical_report(&mut results, ctx.passive_ref(), &mut experiment_units);
    Job {
        wall_s,
        cpu_s,
        passive_s: Some(passive_s),
        active_s: Some(active_s),
        report_s: Some(report_s),
        resume_s: None,
        flows,
        hosts: dispatched,
        digest: check::report_digest(&results),
        units: vec![month_units, date_units, experiment_units],
        reordered,
    }
}

fn passive_stress_resume(seed: u64, workers: usize, dir: &WorkDir) -> Job {
    dir.clear();
    let cfg = stress_config(seed, workers, Some(dir.path().to_path_buf()));
    let months = window(&cfg);
    let cold_study = Study::new(cfg.clone());
    let cold_metrics = PipelineMetrics::new();
    let resume_metrics = PipelineMetrics::new();

    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let cold = cold_study.try_run_passive_metered(&cold_metrics);
    let cold_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let resumed = Study::new(cfg).try_run_passive_metered(&resume_metrics);
    let resume_s = t1.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let mut units = Units::new("month", months.len());
    let mut digest = String::from("none");
    match (&cold, &resumed) {
        (Ok(cold), Ok(resumed)) => {
            units = passive_units(&months, cold, &cold_metrics);
            let r = resume_metrics.snapshot();
            let c = cold_metrics.snapshot();
            units.require(r.accounting_holds(), || {
                "resume ledger does not balance".into()
            });
            units.require(resumed == cold, || {
                "resumed aggregate differs from cold".into()
            });
            units.require(c.checkpoints_written == months.len() as u64, || {
                format!("{} checkpoints written", c.checkpoints_written)
            });
            units.require(
                r.checkpoints_loaded == months.len() as u64 && r.flows_generated == 0,
                || format!("resume loaded {} months", r.checkpoints_loaded),
            );
            digest = check::passive_digest(cold);
        }
        _ => units.require(false, || {
            format!("checkpointed run failed: {cold:?} / {resumed:?}")
        }),
    }
    Job {
        wall_s,
        cpu_s,
        passive_s: Some(cold_s),
        active_s: None,
        report_s: None,
        resume_s: Some(resume_s),
        flows: cold_metrics.snapshot().flows_ingested,
        hosts: 0,
        digest,
        units: vec![units],
        reordered: false,
    }
}

fn scan_weekly(seed: u64, workers: usize) -> Job {
    let population = ServerPopulation::new();
    let campaign = weekly_campaign(seed);
    let metrics = ScanMetrics::new();

    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let snaps = campaign.run_parallel(&population, workers, &metrics);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let units = campaign_units(
        &campaign.dates,
        &snaps,
        &metrics.snapshot(),
        campaign.hosts_per_sweep,
    );
    Job {
        wall_s,
        cpu_s,
        passive_s: None,
        active_s: Some(wall_s),
        report_s: None,
        resume_s: None,
        flows: 0,
        hosts: metrics.snapshot().hosts_dispatched,
        digest: check::scan_digest(&snaps),
        units: vec![units],
        reordered: false,
    }
}
