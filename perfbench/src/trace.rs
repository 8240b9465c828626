//! The traced run: per-layer costs, timed around calls into each
//! layer's public functions from this benchmark, never inside the
//! program. Its numbers never feed the end-to-end metrics.
//!
//! Each pass runs the workload's production path untraced at one
//! worker and at `workers`, then replays the same work serially, once
//! without timers and once with a timer at every layer boundary; the
//! untimed replay is the reference for `trace.layer_sum_ratio` and
//! `trace.overhead`. The calls timed:
//!
//! * passive: `MonthStream::next_flow` (traffic), `conn::extract_into`
//!   and `NotaryAggregate::ingest`/`ingest_failure` (notary), per-month
//!   `NotaryAggregate::merge`, and on the checkpointed workload
//!   `checkpoint::write_month` and `checkpoint::load_dir`;
//! * active: `ServerPopulation::sample_host` (servers),
//!   `probe_host_with` and per-date `sweep_faulted` (scanner);
//! * report: `ReportContext::run` per experiment once both apertures
//!   are cached (analysis).

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlscope::analysis::{Study, StudyConfig};
use tlscope::chron::Date;
use tlscope::notary::conn::{self, ConnectionRecord, ExtractError};
use tlscope::notary::{checkpoint, ExtractScratch, NotaryAggregate, PipelineMetrics};
use tlscope::report::ReportContext;
use tlscope::scanner::{
    probe_host_with, sweep_faulted, ProbeSet, ScanCampaign, ScanMetrics, ScanMetricsSnapshot,
    ScanSnapshot,
};
use tlscope::servers::ServerPopulation;

use crate::catalog::Workload;
use crate::check::{self, Tally, Units};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::workloads::{
    campaign_units, reorder_note, run_all, stress_config, study_config, weekly_campaign, window,
    WorkDir,
};

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run traced passes of `workload` for `seconds` (at least one pass).
pub fn run(workload: Workload, seed: u64, seconds: f64, workers: usize) -> Report {
    let started = Instant::now();
    let reference = check::reference(workload.name(), seed);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut months_ms = Vec::new();
    let (mut passes, mut reordered) = (0, 0);
    loop {
        let pass = match workload {
            Workload::StudyFull => study_full(seed, workers, reference),
            Workload::PassiveStressResume => passive_stress_resume(seed, workers, reference),
            Workload::ScanWeekly => scan_weekly(seed, workers, reference),
        };
        for (name, value) in pass.values {
            report.push(name, vec![value]);
        }
        months_ms.extend(pass.months_ms);
        passes += 1;
        reordered += usize::from(pass.reordered);
        pass.units.into_iter().for_each(|u| tally.add(u));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if !months_ms.is_empty() {
        report.push(
            "study.month_ms_p50",
            vec![median(&months_ms).unwrap_or(0.0)],
        );
        // Without enough months for a tail, report the slowest month.
        let slowest = months_ms.iter().copied().fold(0.0, f64::max);
        report.push(
            "study.month_ms_tail",
            vec![tail(&months_ms).map_or(slowest, |t| t.value)],
        );
        report.push("study.month_samples", vec![months_ms.len() as f64]);
    }
    report.tally = tally;
    report.reference = reference.map(str::to_string);
    if reordered > 0 {
        report.notes.push(reorder_note(reordered, passes));
    }
    report
}

/// What one traced pass measured.
#[derive(Default)]
struct Pass {
    values: Vec<(&'static str, f64)>,
    months_ms: Vec<f64>,
    units: Vec<Units>,
    reordered: bool,
}

/// Layer and month times of one serial replay of the passive window
/// (layer times stay zero when the replay is untimed).
#[derive(Default)]
struct PassiveTrace {
    gen: Duration,
    extract: Duration,
    fold: Duration,
    merge: Duration,
    ckpt_write: Duration,
    ckpt_bytes: u64,
    flows: u64,
    bytes: u64,
    months_ms: Vec<f64>,
    wall: Duration,
    agg: NotaryAggregate,
}

/// Fold one extraction result into `partial`, as the pipeline does.
fn fold(partial: &mut NotaryAggregate, rec: Result<&ConnectionRecord, ExtractError>) {
    match rec {
        Ok(rec) => partial.ingest(rec),
        Err(e) => partial.ingest_failure(e),
    }
}

/// Replay `cfg`'s passive window serially. With `timed`, every layer
/// call is timed; without, the loop runs as the fused production path
/// does and only the months are timed. With `ckpt_dir`, each month's
/// partial is also written there.
fn replay_passive(cfg: &StudyConfig, ckpt_dir: Option<&Path>, timed: bool) -> PassiveTrace {
    let study = Study::new(cfg.clone());
    let generator = study.generator();
    let mut scratch = ExtractScratch::new();
    let mut t = PassiveTrace::default();
    let started = Instant::now();
    for month in window(cfg) {
        let month_started = Instant::now();
        let mut partial = NotaryAggregate::new();
        let mut stream = generator.stream_month(month);
        if timed {
            let mut mark = Instant::now();
            loop {
                let flow = stream.next_flow();
                let generated = Instant::now();
                t.gen += generated - mark;
                let Some(flow) = flow else { break };
                t.flows += 1;
                t.bytes += (flow.client.len() + flow.server.map_or(0, <[u8]>::len)) as u64;
                let rec = conn::extract_into(
                    flow.date,
                    flow.port,
                    flow.client,
                    flow.server,
                    &mut scratch,
                );
                let extracted = Instant::now();
                t.extract += extracted - generated;
                fold(&mut partial, rec);
                mark = Instant::now();
                t.fold += mark - extracted;
            }
        } else {
            while let Some(flow) = stream.next_flow() {
                let rec = conn::extract_into(
                    flow.date,
                    flow.port,
                    flow.client,
                    flow.server,
                    &mut scratch,
                );
                fold(&mut partial, rec);
            }
        }
        t.months_ms
            .push(month_started.elapsed().as_secs_f64() * 1e3);
        if let Some(dir) = ckpt_dir {
            let write_started = Instant::now();
            checkpoint::write_month(dir, month, &partial).expect("checkpoint write");
            t.ckpt_write += write_started.elapsed();
            t.ckpt_bytes +=
                std::fs::metadata(dir.join(format!("{month}.ckpt"))).map_or(0, |m| m.len());
        }
        let merge_started = Instant::now();
        t.agg.merge(partial);
        t.merge += merge_started.elapsed();
    }
    t.wall = started.elapsed() - t.ckpt_write;
    t
}

/// The untraced production passive run at `workers`, with its wall time.
fn production_passive(
    cfg: &StudyConfig,
    workers: usize,
) -> (NotaryAggregate, PipelineMetrics, f64) {
    let study = Study::new(StudyConfig {
        workers,
        checkpoint_dir: None,
        ..cfg.clone()
    });
    let metrics = PipelineMetrics::new();
    let started = Instant::now();
    let agg = study.run_passive_metered(&metrics);
    (agg, metrics, started.elapsed().as_secs_f64())
}

/// Passive per-layer values shared by both passive workloads; returns
/// the serial and parallel untraced passive seconds.
fn passive_pass(
    pass: &mut Pass,
    cfg: &StudyConfig,
    workers: usize,
    ckpt_dir: Option<&WorkDir>,
) -> (f64, f64, NotaryAggregate) {
    let months = window(cfg);
    let (serial_agg, _, serial_s) = production_passive(cfg, 1);
    let (agg, metrics, parallel_s) = production_passive(cfg, workers);
    let untimed = replay_passive(cfg, None, false);
    let t = replay_passive(cfg, ckpt_dir.map(WorkDir::path), true);

    let s = metrics.snapshot();
    let flows = t.flows as f64;
    let fused_ns = ns(untimed.wall);
    let v = &mut pass.values;
    v.push(("traffic.gen_ns_per_flow", ratio(ns(t.gen), flows)));
    v.push(("traffic.bytes_per_flow", ratio(t.bytes as f64, flows)));
    v.push((
        "traffic.template_hit_rate",
        ratio(
            s.template_hits as f64,
            (s.template_hits + s.template_misses) as f64,
        ),
    ));
    v.push(("traffic.flows", flows));
    v.push(("notary.extract_ns_per_flow", ratio(ns(t.extract), flows)));
    v.push((
        "notary.parse_cache_hit_rate",
        ratio(
            s.parse_cache_hits as f64,
            (s.parse_cache_hits + s.parse_cache_misses) as f64,
        ),
    ));
    v.push((
        "notary.extract_fail_share",
        ratio((t.agg.not_tls + t.agg.garbled_client) as f64, flows),
    ));
    v.push(("notary.salvaged_share", ratio(t.agg.salvaged as f64, flows)));
    v.push(("notary.fold_ns_per_flow", ratio(ns(t.fold), flows)));
    v.push((
        "notary.distinct_fingerprints",
        t.agg.distinct_fingerprints() as f64,
    ));
    v.push(("notary.merge_ms", ns(t.merge) / 1e6));
    v.push(("study.passive_speedup", ratio(serial_s, parallel_s)));
    v.push((
        "trace.layer_sum_ratio",
        ratio(ns(t.gen + t.extract + t.fold + t.merge), fused_ns),
    ));
    v.push(("trace.overhead", ratio(ns(t.wall), fused_ns) - 1.0));
    pass.months_ms.extend(&untimed.months_ms);

    let mut units = check::months(&months, &agg);
    units.require(s.accounting_holds() && s.shards_lost == 0, || {
        "passive ledger does not balance".into()
    });
    units.require(serial_agg == agg, || {
        "1-worker aggregate differs from parallel".into()
    });
    units.require(t.agg == agg && untimed.agg == agg, || {
        "serial replay differs from production".into()
    });
    if let Some(dir) = ckpt_dir {
        let load_started = Instant::now();
        let load = checkpoint::load_dir(dir.path());
        let load_ms = load_started.elapsed().as_secs_f64() * 1e3;
        match load {
            Ok(load) => {
                units.require(load.completed.len() == months.len(), || {
                    format!("{} checkpoints loaded", load.completed.len())
                });
                units.require(load.aggregate == agg, || "loaded aggregate differs".into());
            }
            Err(e) => units.require(false, || format!("checkpoint load failed: {e}")),
        }
        let n = months.len() as f64;
        v.push(("notary.ckpt_write_ms_per_month", ns(t.ckpt_write) / 1e6 / n));
        v.push(("notary.ckpt_bytes_per_month", t.ckpt_bytes as f64 / n));
        v.push(("notary.ckpt_load_ms", load_ms));
        dir.clear();
    }
    pass.units.push(units);
    (serial_s, parallel_s, agg)
}

/// Layer times of one campaign: serial `sweep_faulted` per date, and a
/// replay of its host sampling and probing, untraced and traced.
struct ScanTrace {
    sweeps: Vec<ScanSnapshot>,
    sweep: Duration,
    sample: Duration,
    probe: Duration,
    traced_wall: Duration,
    untraced_wall: Duration,
    hosts: u64,
}

fn traced_scan(campaign: &ScanCampaign, population: &ServerPopulation) -> ScanTrace {
    let started = Instant::now();
    let sweeps: Vec<ScanSnapshot> = campaign
        .dates
        .iter()
        .map(|&d| {
            sweep_faulted(
                population,
                d,
                campaign.hosts_per_sweep,
                campaign.seed,
                &campaign.faults,
            )
        })
        .collect();
    let sweep = started.elapsed();
    let (_, _, untraced_wall) = host_loop(campaign, population, false);
    let (sample, probe, traced_wall) = host_loop(campaign, population, true);
    ScanTrace {
        sweeps,
        sweep,
        sample,
        probe,
        traced_wall,
        untraced_wall,
        hosts: campaign.dates.len() as u64 * u64::from(campaign.hosts_per_sweep),
    }
}

/// The sweep's per-host generator (private to `scanner::sweep`),
/// reproduced so the host loop samples the hosts the campaign samples.
fn host_rng(seed: u64, date: Date, index: u64) -> SmallRng {
    let days = date.to_epoch_days() as u64;
    let mut z =
        seed ^ days.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

/// Sample and probe every host of `campaign` serially, once each and
/// without faults (the campaign's retries and drops are left out), with
/// a timer around each call when `timed`. Returns the time spent
/// sampling, probing, and in the whole loop.
fn host_loop(
    campaign: &ScanCampaign,
    population: &ServerPopulation,
    timed: bool,
) -> (Duration, Duration, Duration) {
    let probes = ProbeSet::campaign();
    let (mut sample, mut probe) = (Duration::ZERO, Duration::ZERO);
    let started = Instant::now();
    for &date in &campaign.dates {
        let mut snap = ScanSnapshot::new(date);
        for index in 0..u64::from(campaign.hosts_per_sweep) {
            let mut rng = host_rng(campaign.seed, date, index);
            if timed {
                let t0 = Instant::now();
                let profile = population.sample_host(date, &mut rng);
                let t1 = Instant::now();
                black_box(probe_host_with(&probes, &profile, &mut snap));
                sample += t1 - t0;
                probe += t1.elapsed();
            } else {
                let profile = population.sample_host(date, &mut rng);
                black_box(probe_host_with(&probes, &profile, &mut snap));
            }
        }
        black_box(&snap);
    }
    (sample, probe, started.elapsed())
}

/// Seconds of one active pass's serial runs.
struct ActiveTimes {
    /// Serial `sweep_faulted` over every date.
    serial_s: f64,
    /// The traced host loop.
    traced_s: f64,
    /// The same host loop untraced.
    untraced_s: f64,
    /// Sampling plus probing within the traced host loop.
    layer_s: f64,
}

/// Active per-layer values of a campaign whose parallel run returned
/// `snaps` in `parallel_s` seconds.
fn active_pass(
    pass: &mut Pass,
    campaign: &ScanCampaign,
    snaps: &[ScanSnapshot],
    s: &ScanMetricsSnapshot,
    parallel_s: f64,
) -> ActiveTimes {
    let population = ServerPopulation::new();
    let t = traced_scan(campaign, &population);
    let serial_s = t.sweep.as_secs_f64();
    let v = &mut pass.values;
    v.push((
        "servers.sample_ns_per_host",
        ratio(ns(t.sample), t.hosts as f64),
    ));
    v.push((
        "scanner.probe_ns_per_host",
        ratio(ns(t.probe), t.hosts as f64),
    ));
    v.push((
        "scanner.sweep_ms_per_date",
        ns(t.sweep) / 1e6 / campaign.dates.len() as f64,
    ));
    v.push((
        "scanner.probes_per_host",
        ratio(s.probes_sent as f64, s.hosts_probed as f64),
    ));
    v.push((
        "scanner.retries_per_host",
        ratio(s.host_retries as f64, s.hosts_dispatched as f64),
    ));
    v.push((
        "scanner.drop_share",
        ratio(s.hosts_dropped as f64, s.hosts_dispatched as f64),
    ));
    v.push(("study.active_speedup", ratio(serial_s, parallel_s)));

    let mut units = campaign_units(&campaign.dates, snaps, s, campaign.hosts_per_sweep);
    units.require(t.sweeps == snaps, || {
        "serial sweeps differ from the campaign".into()
    });
    pass.units.push(units);
    ActiveTimes {
        serial_s,
        traced_s: t.traced_wall.as_secs_f64(),
        untraced_s: t.untraced_wall.as_secs_f64(),
        layer_s: (t.sample + t.probe).as_secs_f64(),
    }
}

fn efficiency(serial: f64, parallel: f64, workers: usize) -> f64 {
    ratio(serial, parallel) / workers as f64
}

fn study_full(seed: u64, workers: usize, reference: Option<&str>) -> Pass {
    let cfg = study_config(seed, workers);
    let mut pass = Pass::default();
    let (passive_serial_s, passive_parallel_s, agg) = passive_pass(&mut pass, &cfg, workers, None);
    // The report runs over the production aggregate, after the
    // campaign, so each is timed on its own.
    let mut ctx = ReportContext::with_passive(cfg.clone(), agg);
    let scans_started = Instant::now();
    let snaps = ctx.scans().to_vec();
    let active_parallel_s = scans_started.elapsed().as_secs_f64();
    let scan_ledger = ctx.scan_metrics().snapshot();
    let report_started = Instant::now();
    let (mut results, experiments_ms) = run_all(&mut ctx);
    let report_ms = report_started.elapsed().as_secs_f64() * 1e3;
    pass.values.push(("analysis.report_ms", report_ms));
    pass.values.push((
        "analysis.slowest_experiment_ms",
        experiments_ms.iter().copied().fold(0.0, f64::max),
    ));
    let mut units = check::experiments(&results);
    pass.reordered = check::canonical_report(&mut results, ctx.passive_ref(), &mut units);
    units.require_digest(&check::report_digest(&results), reference, None);
    pass.units.push(units);

    let campaign = ScanCampaign::censys_monthly(cfg.scan_hosts, seed).with_faults(cfg.scan_faults);
    let active = active_pass(
        &mut pass,
        &campaign,
        &snaps,
        &scan_ledger,
        active_parallel_s,
    );
    pass.values.push((
        "study.parallel_efficiency",
        efficiency(
            passive_serial_s + active.serial_s,
            passive_parallel_s + active_parallel_s,
            workers,
        ),
    ));
    pass
}

fn passive_stress_resume(seed: u64, workers: usize, reference: Option<&str>) -> Pass {
    let cfg = stress_config(seed, workers, None);
    let dir = WorkDir::new("trace");
    let mut pass = Pass::default();
    let (serial_s, parallel_s, agg) = passive_pass(&mut pass, &cfg, workers, Some(&dir));
    pass.values.push((
        "study.parallel_efficiency",
        efficiency(serial_s, parallel_s, workers),
    ));
    let mut units = Units::new("digest", 1);
    units.require_digest(&check::passive_digest(&agg), reference, None);
    pass.units.push(units);
    pass
}

fn scan_weekly(seed: u64, workers: usize, reference: Option<&str>) -> Pass {
    let campaign = weekly_campaign(seed);
    let metrics = ScanMetrics::new();
    let started = Instant::now();
    let snaps = campaign.run_parallel(&ServerPopulation::new(), workers, &metrics);
    let parallel_s = started.elapsed().as_secs_f64();
    let mut pass = Pass::default();
    let t = active_pass(
        &mut pass,
        &campaign,
        &snaps,
        &metrics.snapshot(),
        parallel_s,
    );
    // Sampling and probing against the same host loop untraced.
    pass.values
        .push(("trace.layer_sum_ratio", ratio(t.layer_s, t.untraced_s)));
    pass.values
        .push(("trace.overhead", ratio(t.traced_s, t.untraced_s) - 1.0));
    pass.values.push((
        "study.parallel_efficiency",
        efficiency(t.serial_s, parallel_s, workers),
    ));
    if let Some(units) = pass.units.last_mut() {
        units.require_digest(&check::scan_digest(&snaps), reference, None);
    }
    pass
}
