//! Correctness checks: every unit a workload requests (a month, a
//! sweep date or an experiment) is either present and matching, or
//! counted as failed.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use tlscope::analysis::Table;
use tlscope::chron::{Date, Month};
use tlscope::notary::{checkpoint, NotaryAggregate};
use tlscope::report::{Artifact, RunError};
use tlscope::scanner::ScanSnapshot;
use tlscope::wire::NamedGroup;

/// Reference digests, one `workload seed digest` line each, copied
/// from untraced runs on a commit whose outputs were trusted.
const REFERENCE: &str = include_str!("../reference.txt");

/// Problems kept for printing; the counts stay exact beyond this.
const MAX_PROBLEMS: usize = 8;

/// The stored reference digest for `workload` at `seed`, if any.
pub fn reference(workload: &str, seed: u64) -> Option<&'static str> {
    reference_in(REFERENCE, workload, seed)
}

fn reference_in<'a>(table: &'a str, workload: &str, seed: u64) -> Option<&'a str> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed).then_some(d)
        })
}

/// Hex FNV-1a digest of `text`.
pub fn digest(text: &str) -> String {
    format!("{:016x}", tlscope::durable::fnv1a64(text.as_bytes()))
}

/// CSV rows that carry a measured rate rather than a result, left out
/// of the report digest: `scan-accounting` prints the campaign's
/// hosts per CPU second.
const TIMED_ROWS: [&str; 1] = ["hosts/s (cpu),"];

/// Digest of every experiment's CSV, in the order run, without its
/// timed rows. A failed experiment contributes its error text, so it
/// can never match.
pub fn report_digest(results: &[(&str, Result<Artifact, RunError>)]) -> String {
    let mut text = String::new();
    for (id, result) in results {
        text.push_str(&format!("# {id}\n"));
        match result {
            Ok(artifact) => {
                for line in artifact.to_csv().lines() {
                    if !TIMED_ROWS.iter().any(|row| line.starts_with(row)) {
                        text.push_str(line);
                        text.push('\n');
                    }
                }
            }
            Err(e) => text.push_str(&format!("error: {e}\n")),
        }
    }
    digest(&text)
}

/// Curves `s6.3` lists at most.
const CURVE_ROWS: usize = 6;

/// `s6.3` lists the negotiated curves with the highest lifetime counts,
/// but breaks ties in count by hash-map order, so curves with equal
/// counts swap places, or swap in and out of the last row, from one run
/// to the next. Check the listed rows against the curve counts in
/// `agg`; when they are a valid top list, rewrite them in a canonical
/// order (count descending, then group id) so that digests compare
/// results rather than hash order. Returns whether the rows changed.
pub fn canonical_curve_rows(table: &mut Table, agg: &NotaryAggregate) -> Result<bool, String> {
    let mut lifetime: BTreeMap<u16, u64> = BTreeMap::new();
    for (_, month) in agg.iter_months() {
        for (&curve, &n) in &month.curves {
            *lifetime.entry(curve).or_insert(0) += n;
        }
    }
    let total: u64 = lifetime.values().sum();
    let mut ranked: Vec<(u16, u64)> = lifetime.into_iter().filter(|&(_, n)| n > 0).collect();
    ranked.sort_by_key(|&(curve, n)| (Reverse(n), curve));
    let render = |(curve, n): (u16, u64)| {
        vec![
            NamedGroup(curve).name().unwrap_or("unknown").to_string(),
            format!("{:.2}%", 100.0 * n as f64 / total.max(1) as f64),
        ]
    };
    let shown = ranked.len().min(CURVE_ROWS);
    if table.rows.len() < shown {
        return Err(format!(
            "s6.3 lists {} curves, expected {shown}",
            table.rows.len()
        ));
    }
    // Row i must be some not yet listed curve whose count is the i-th
    // highest.
    let mut unlisted = ranked.clone();
    for (i, row) in table.rows[..shown].iter().enumerate() {
        let want = ranked[i].1;
        let at = unlisted
            .iter()
            .position(|&(c, n)| n == want && render((c, n)) == *row)
            .ok_or_else(|| format!("s6.3 row {row:?} is not a curve with count {want}"))?;
        unlisted.remove(at);
    }
    let canonical: Vec<Vec<String>> = ranked[..shown].iter().map(|&r| render(r)).collect();
    let changed = table.rows[..shown] != canonical[..];
    table.rows.splice(..shown, canonical);
    Ok(changed)
}

/// Apply [`canonical_curve_rows`] to the `s6.3` result in `results`,
/// failing its unit in `units` when its rows are not a valid top list.
/// Returns whether the rows were reordered.
pub fn canonical_report(
    results: &mut [(&str, Result<Artifact, RunError>)],
    agg: Option<&NotaryAggregate>,
    units: &mut Units,
) -> bool {
    let Some(i) = results.iter().position(|(id, _)| *id == "s6.3") else {
        return false;
    };
    let (Ok(Artifact::Table(table)), Some(agg)) = (&mut results[i].1, agg) else {
        return false;
    };
    canonical_curve_rows(table, agg).unwrap_or_else(|e| {
        units.fail(i, || e);
        false
    })
}

/// Digest of a campaign's snapshots, one line of counters per date.
pub fn scan_digest(snaps: &[ScanSnapshot]) -> String {
    let mut text = String::new();
    for s in snaps {
        text.push_str(&format!(
            "{} {} {} {} {} {} {} {} {} {} {} {}\n",
            s.date,
            s.hosts,
            s.ssl3_supported,
            s.answered,
            s.chose_aead,
            s.chose_cbc,
            s.chose_rc4,
            s.chose_3des,
            s.chose_tls12,
            s.export_supported,
            s.heartbeat_supported,
            s.heartbleed_vulnerable
        ));
    }
    digest(&text)
}

/// Digest of an aggregate's lossless checkpoint encoding.
pub fn passive_digest(agg: &NotaryAggregate) -> String {
    digest(&checkpoint::to_text(agg))
}

/// Pass/fail state of one set of units (the months of a window, the
/// dates of a campaign, the experiments of a report).
#[derive(Debug, Clone)]
pub struct Units {
    kind: &'static str,
    failed: Vec<bool>,
    problems: Vec<String>,
}

impl Units {
    /// `n` units of `kind`, all passing so far.
    pub fn new(kind: &'static str, n: usize) -> Units {
        Units {
            kind,
            failed: vec![false; n],
            problems: Vec::new(),
        }
    }

    /// Mark unit `i` failed.
    pub fn fail(&mut self, i: usize, why: impl FnOnce() -> String) {
        if let Some(slot) = self.failed.get_mut(i) {
            *slot = true;
        }
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(format!("{}: {}", self.kind, why()));
        }
    }

    /// Mark every unit failed unless `ok`.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed.iter_mut().for_each(|f| *f = true);
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(format!("{}: {}", self.kind, why()));
            }
        }
    }

    /// Require `got` to equal the stored reference (when one exists)
    /// and the digest of this run's first job (when one exists).
    pub fn require_digest(&mut self, got: &str, reference: Option<&str>, first: Option<&str>) {
        if let Some(want) = reference {
            self.require(got == want, || format!("digest {got} != reference {want}"));
        }
        if let Some(want) = first {
            self.require(got == want, || {
                format!("digest {got} != first job's {want} (nondeterministic)")
            });
        }
    }
}

/// Units attempted and failed over a run, with the first problems.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Fold one set of units in.
    pub fn add(&mut self, units: Units) {
        self.attempted += units.failed.len() as u64;
        self.failed += units.failed.iter().filter(|&&f| f).count() as u64;
        for p in units.problems {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(p);
            }
        }
    }

    /// Failed units over attempted units.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when units were attempted and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Every month of `window` must be present in `agg` with at least one
/// connection.
pub fn months(window: &[Month], agg: &NotaryAggregate) -> Units {
    let mut units = Units::new("month", window.len());
    for (i, &m) in window.iter().enumerate() {
        if agg.month(m).is_none_or(|s| s.total == 0) {
            units.fail(i, || format!("{m} missing"));
        }
    }
    let extra = agg
        .iter_months()
        .filter(|(m, _)| !window.contains(m))
        .count();
    units.require(extra == 0, || format!("{extra} months outside the window"));
    units
}

/// The campaign must return one snapshot per scheduled date, in order.
pub fn dates(schedule: &[Date], snaps: &[ScanSnapshot]) -> Units {
    let mut units = Units::new("date", schedule.len());
    for (i, &d) in schedule.iter().enumerate() {
        if snaps.get(i).is_none_or(|s| s.date != d) {
            units.fail(i, || format!("{d} missing"));
        }
    }
    units.require(snaps.len() == schedule.len(), || {
        format!("{} snapshots for {} dates", snaps.len(), schedule.len())
    });
    units
}

/// Every experiment must produce its artefact.
pub fn experiments(results: &[(&str, Result<Artifact, RunError>)]) -> Units {
    let mut units = Units::new("experiment", results.len());
    for (i, (id, result)) in results.iter().enumerate() {
        if let Err(e) = result {
            units.fail(i, || format!("{id}: {e}"));
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope::analysis::{Study, StudyConfig};
    use tlscope::report::ReportContext;

    fn tiny_config() -> StudyConfig {
        StudyConfig {
            start: Month::ym(2016, 1),
            end: Month::ym(2016, 3),
            connections_per_month: 200,
            scan_hosts: 40,
            workers: 2,
            ..StudyConfig::quick()
        }
    }

    #[test]
    fn reference_lookup() {
        let table = "# comment\nstudy_full 7 aaaa\n\nscan_weekly 7 bbbb\n";
        assert_eq!(reference_in(table, "study_full", 7), Some("aaaa"));
        assert_eq!(reference_in(table, "scan_weekly", 7), Some("bbbb"));
        assert_eq!(reference_in(table, "scan_weekly", 8), None);
    }

    #[test]
    fn stored_references_are_well_formed() {
        for line in REFERENCE
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "{line}");
            assert!(
                crate::catalog::Workload::parse(parts[0]).is_some(),
                "{line}"
            );
            assert!(parts[1].parse::<u64>().is_ok(), "{line}");
            assert_eq!(parts[2].len(), 16, "{line}");
        }
    }

    /// The checker must fail a perturbed output, so a passing run
    /// cannot pass vacuously.
    #[test]
    fn perturbed_passive_output_fails() {
        let cfg = tiny_config();
        let window: Vec<Month> = cfg.start.iter_through(cfg.end).collect();
        let agg = Study::new(cfg.clone()).run_passive();
        let good = passive_digest(&agg);

        let mut tally = Tally::default();
        let mut units = months(&window, &agg);
        units.require_digest(&passive_digest(&agg), Some(&good), None);
        tally.add(units);
        assert!(tally.correct(), "{:?}", tally.problems);

        // One connection more in one month: same months, wrong digest.
        let mut bumped = Study::new(cfg).run_passive();
        let mut stats = bumped.month(window[1]).unwrap().clone();
        stats.total += 1;
        bumped.insert_month(window[1], stats);
        let mut units = months(&window, &bumped);
        units.require_digest(&passive_digest(&bumped), Some(&good), None);
        let mut tally = Tally::default();
        tally.add(units);
        assert_eq!((tally.attempted, tally.failed), (3, 3));

        // A month missing altogether.
        let mut missing = NotaryAggregate::new();
        for (&m, stats) in agg.iter_months().filter(|(m, _)| **m != window[2]) {
            missing.insert_month(m, stats.clone());
        }
        let mut tally = Tally::default();
        tally.add(months(&window, &missing));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(!tally.correct());
    }

    /// One month whose curves 19, 21, 22 and 25 tie at one connection,
    /// so the last listed row could be any of them.
    fn tied_curves() -> NotaryAggregate {
        let stats = tlscope::notary::MonthlyStats {
            curves: [
                (23, 50),
                (24, 20),
                (29, 20),
                (25, 1),
                (21, 1),
                (19, 1),
                (22, 1),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let mut agg = NotaryAggregate::new();
        agg.insert_month(Month::ym(2016, 1), stats);
        agg
    }

    fn curve_table(curves: &[u16]) -> Table {
        let agg = tied_curves();
        let mut table = tlscope::analysis::sections::s6_3(&agg);
        let count = |c: u16| -> u64 {
            agg.iter_months()
                .map(|(_, m)| m.curves.get(&c).copied().unwrap_or(0))
                .sum()
        };
        table.rows = curves
            .iter()
            .map(|&c| {
                vec![
                    NamedGroup(c).name().unwrap_or("unknown").to_string(),
                    format!("{:.2}%", 100.0 * count(c) as f64 / 94.0),
                ]
            })
            .collect();
        table
    }

    #[test]
    fn curve_rows_accept_any_tie_order_and_nothing_else() {
        let agg = tied_curves();
        let canonical = curve_table(&[23, 24, 29, 19, 21, 22]);
        let mut same = canonical.clone();
        assert_eq!(canonical_curve_rows(&mut same, &agg), Ok(false));
        // What the program printed, whatever its hash order.
        let mut printed = tlscope::analysis::sections::s6_3(&agg);
        canonical_curve_rows(&mut printed, &agg).unwrap();
        assert_eq!(printed, canonical);

        // Tied curves in another order, or another tied curve listed.
        for order in [[23, 29, 24, 22, 21, 19], [23, 24, 29, 25, 19, 21]] {
            let mut t = curve_table(&order);
            assert_eq!(canonical_curve_rows(&mut t, &agg), Ok(true), "{order:?}");
            assert_eq!(t, canonical);
        }
        // Curves of different counts swapped, a share changed, a curve
        // that was never negotiated, or a row missing: all rejected.
        let mut bumped = canonical.clone();
        bumped.rows[0][1] = "99.99%".into();
        let mut short = canonical.clone();
        short.rows.truncate(5);
        for mut bad in [
            curve_table(&[24, 23, 29, 19, 21, 22]),
            curve_table(&[23, 24, 29, 19, 21, 30]),
            bumped,
            short,
        ] {
            assert!(canonical_curve_rows(&mut bad, &agg).is_err(), "{bad:?}");
        }

        // A report whose s6.3 is wrong fails that experiment only.
        let mut results = vec![
            (
                "table1",
                Ok(Artifact::Table(tlscope::analysis::tables::table1())),
            ),
            (
                "s6.3",
                Ok(Artifact::Table(curve_table(&[24, 23, 29, 19, 21, 22]))),
            ),
        ];
        let mut units = experiments(&results);
        assert!(!canonical_report(&mut results, Some(&agg), &mut units));
        let mut tally = Tally::default();
        tally.add(units);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn perturbed_report_and_scan_outputs_fail() {
        let mut ctx = ReportContext::new(tiny_config());
        let results: Vec<_> = ["table2", "fig2", "censys"]
            .into_iter()
            .map(|id| (id, ctx.run(id)))
            .collect();
        let good = report_digest(&results);
        let mut units = experiments(&results);
        units.require_digest(&report_digest(&results), Some(&good), Some(&good));
        let mut tally = Tally::default();
        tally.add(units);
        assert!(tally.correct(), "{:?}", tally.problems);

        // An unknown experiment fails on its own.
        let mut with_error: Vec<_> = ["table2", "nope"]
            .into_iter()
            .map(|id| (id, ctx.run(id)))
            .collect();
        let mut tally = Tally::default();
        tally.add(experiments(&with_error));
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        // An artefact whose CSV changed no longer matches the digest.
        with_error.truncate(1);
        let changed = Artifact::Table(tlscope::analysis::tables::table1());
        with_error[0].1 = Ok(changed);
        let mut units = experiments(&with_error);
        let table2_alone = report_digest(&results[..1]);
        units.require_digest(&report_digest(&with_error), Some(&table2_alone), None);
        let mut tally = Tally::default();
        tally.add(units);
        assert_eq!(tally.failed, 1);

        // A campaign missing its last date, and one with a changed count.
        let snaps = ctx.scans().to_vec();
        let schedule: Vec<Date> = snaps.iter().map(|s| s.date).collect();
        let mut tally = Tally::default();
        tally.add(dates(&schedule, &snaps[..snaps.len() - 1]));
        assert_eq!(tally.failed, schedule.len() as u64);
        let mut bumped = snaps.clone();
        bumped[0].chose_rc4 += 1;
        let mut units = dates(&schedule, &bumped);
        units.require_digest(&scan_digest(&bumped), Some(&scan_digest(&snaps)), None);
        let mut tally = Tally::default();
        tally.add(units);
        assert_eq!(tally.failed, schedule.len() as u64);
    }
}
