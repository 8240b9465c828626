//! The reproduction harness: regenerate any figure or table of
//! *Coming of Age* (IMC 2018).
//!
//! ```text
//! repro [OPTIONS] <experiment-id>... | all
//!
//! Options:
//!   --quick        reduced scale (fast; default)
//!   --full         paper-scale window with more samples per month
//!   --csv          emit CSV instead of ASCII rendering
//!   --width <n>    ASCII chart width (default 84)
//!   --seed <n>     override the study seed
//!   --stats        print per-stage pipeline metrics after the run
//!   --scan-stats   print active-scan accounting after the run
//!   --stats-json <path>
//!                  write the pipeline metrics (counters, derived
//!                  rates, latency histograms) as JSON to <path>
//!   --scan-stats-json <path>
//!                  write the scan accounting as JSON to <path>
//!   --resume <dir> checkpoint completed months into <dir> and resume
//!                  from whatever is already there
//!   --resume-scan <dir>
//!                  checkpoint completed scan dates into <dir> and
//!                  resume the campaign from whatever is already there
//!   --save <path>  write the passive aggregate to <path> after the run;
//!                  fingerprint state is not kept, so a later --load
//!                  reads 0 for table2 coverage and fig4
//!   --load <path>  read a saved passive aggregate instead of simulating
//!   --list         list experiment ids and exit
//! ```

use std::process::ExitCode;

use tlscope::analysis::StudyConfig;
use tlscope::report::{needs, ReportContext, EXPERIMENT_IDS};

struct Options {
    full: bool,
    csv: bool,
    stats: bool,
    scan_stats: bool,
    stats_json: Option<String>,
    scan_stats_json: Option<String>,
    width: usize,
    seed: Option<u64>,
    save: Option<String>,
    load: Option<String>,
    resume: Option<String>,
    resume_scan: Option<String>,
    ids: Vec<String>,
}

fn usage() {
    eprintln!(
        "usage: repro [--quick|--full] [--csv] [--stats] [--scan-stats] [--stats-json PATH] [--scan-stats-json PATH] [--width N] [--seed N] [--resume DIR] [--resume-scan DIR] [--save PATH] [--load PATH] [--list] <id>...|all\n\
         --save PATH writes the passive aggregate after the run and --load PATH reads one instead of simulating;\n\
         the saved file does not keep fingerprint state, so after --load table2 coverage and fig4 read 0.\n\
         ids: {}",
        EXPERIMENT_IDS.join(" ")
    );
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        csv: false,
        stats: false,
        scan_stats: false,
        stats_json: None,
        scan_stats_json: None,
        width: 84,
        seed: None,
        save: None,
        load: None,
        resume: None,
        resume_scan: None,
        ids: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.full = false,
            "--full" => opts.full = true,
            "--csv" => opts.csv = true,
            "--stats" => opts.stats = true,
            "--scan-stats" => opts.scan_stats = true,
            "--stats-json" => {
                opts.stats_json = Some(args.next().ok_or("--stats-json needs a path")?);
            }
            "--scan-stats-json" => {
                opts.scan_stats_json = Some(args.next().ok_or("--scan-stats-json needs a path")?);
            }
            "--width" => {
                opts.width = args
                    .next()
                    .ok_or("--width needs a value")?
                    .parse()
                    .map_err(|_| "--width needs a number")?;
            }
            "--seed" => {
                opts.seed = Some(
                    args.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|_| "--seed needs a number")?,
                );
            }
            "--save" => {
                opts.save = Some(args.next().ok_or("--save needs a path")?);
            }
            "--load" => {
                opts.load = Some(args.next().ok_or("--load needs a path")?);
            }
            "--resume" => {
                opts.resume = Some(args.next().ok_or("--resume needs a directory")?);
            }
            "--resume-scan" => {
                opts.resume_scan = Some(args.next().ok_or("--resume-scan needs a directory")?);
            }
            "--list" => {
                for id in EXPERIMENT_IDS {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            "all" => opts.ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect(),
            id if !id.starts_with('-') => opts.ids.push(id.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.ids.is_empty() {
        return Err("no experiments requested".into());
    }
    Ok(opts)
}

/// Write an exported metrics document atomically (tmp + rename via
/// `tlscope::durable`) so a consumer polling the path never reads a
/// torn JSON file.
fn write_json(path: &str, json: &str) -> std::io::Result<()> {
    let p = std::path::Path::new(path);
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let name = p.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    tlscope::durable::write_atomic(dir, name, json)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = if opts.full {
        StudyConfig::default()
    } else {
        StudyConfig::quick()
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    // Which apertures the requested experiments will actually run, so
    // an inert --resume/--resume-scan can be called out up front.
    let (needs_passive, needs_active) = opts.ids.iter().fold((false, false), |(p, a), id| {
        let (np, na) = needs(id);
        (p || np, a || na)
    });
    if let Some(dir) = &opts.resume {
        // Create the directory up front so a typo'd path fails here,
        // not after months of simulation.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
        if opts.load.is_some() {
            eprintln!("warning: --resume has no effect: --load supplies the passive aggregate");
        } else if !needs_passive {
            eprintln!(
                "warning: --resume has no effect: requested experiments run no passive study"
            );
        }
        eprintln!("# checkpointing completed months to {dir}");
        cfg.checkpoint_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(dir) = &opts.resume_scan {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create scan checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
        if !needs_active {
            eprintln!(
                "warning: --resume-scan has no effect: requested experiments run no active campaign"
            );
        }
        eprintln!("# checkpointing completed scan dates to {dir}");
        cfg.scan_checkpoint_dir = Some(std::path::PathBuf::from(dir));
    }
    eprintln!(
        "# tlscope repro: {} months x {} connections/month, {} scan hosts/sweep, seed {:#x}",
        cfg.start.iter_through(cfg.end).count(),
        cfg.connections_per_month,
        cfg.scan_hosts,
        cfg.seed
    );

    let mut ctx = match &opts.load {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match tlscope::notary::store::from_text(&text) {
                Ok(agg) => {
                    eprintln!("# loaded passive aggregate from {path}");
                    ReportContext::with_passive(cfg, agg)
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => ReportContext::new(cfg),
    };
    let mut failed = false;
    for id in &opts.ids {
        match ctx.run(id) {
            Ok(artifact) => {
                if opts.csv {
                    println!("# {id}");
                    print!("{}", artifact.to_csv());
                } else {
                    println!("{}", artifact.to_ascii(opts.width));
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.save {
        match ctx.passive_ref() {
            Some(agg) => {
                let text = tlscope::notary::store::to_text(agg);
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("error: cannot write {path}: {e}");
                    failed = true;
                } else {
                    eprintln!("# saved passive aggregate to {path}");
                }
            }
            None => eprintln!("# --save: no passive run was needed; nothing saved"),
        }
    }
    if opts.stats {
        // Stats go to stderr so --csv output stays machine-readable.
        eprint!("{}", ctx.metrics().snapshot().render());
        eprint!("{}", ctx.metrics().latency().render());
    }
    if opts.scan_stats {
        // Name the profile the campaign ran under so a lossy ledger is
        // attributable to its knob set.
        if let Ok(profile) = std::env::var("TLSCOPE_SCAN_FAULT_PROFILE") {
            eprintln!("# scan fault profile: {profile}");
        }
        eprint!("{}", ctx.scan_metrics().snapshot().render());
        eprint!("{}", ctx.scan_metrics().latency().render());
    }
    if let Some(path) = &opts.stats_json {
        let json = ctx
            .metrics()
            .snapshot()
            .to_json_with(&ctx.metrics().latency());
        match write_json(path, &json) {
            Ok(()) => eprintln!("# wrote pipeline stats to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.scan_stats_json {
        let json = ctx
            .scan_metrics()
            .snapshot()
            .to_json_with(&ctx.scan_metrics().latency());
        match write_json(path, &json) {
            Ok(()) => eprintln!("# wrote scan stats to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                failed = true;
            }
        }
    }
    // Any flight reports filed by panic boundaries during the run come
    // out last so they sit next to the exit status in a captured log.
    for report in tlscope::obs::flight::drain_reports() {
        eprint!("{report}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
