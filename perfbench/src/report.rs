//! The printed result: a table of every metric with its median, tail
//! and sample count, then the one-line JSON result.

use crate::catalog::{MetricDef, END_TO_END, END_TO_END_PARTIAL, PER_LAYER};
use crate::check::Tally;
use crate::stats::{median, quartiles, tail};
use crate::sys::Context;

/// Samples of every metric a run measured, and its correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    samples: Vec<(&'static str, Vec<f64>)>,
    pub tally: Tally,
    pub digest: Option<String>,
    pub reference: Option<String>,
    /// Observations about the outputs that are not failures.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(tally: Tally) -> Report {
        Report {
            tally,
            ..Report::default()
        }
    }

    /// Add samples of `name`; an empty list means "not measured".
    pub fn push(&mut self, name: &'static str, values: Vec<f64>) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.extend(values),
            None => self.samples.push((name, values)),
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// The reported value of `name`: its median, 0 when not measured.
    pub fn value(&self, name: &str) -> f64 {
        median(self.samples(name))
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    }

    /// The metrics of the result line: end-to-end ones for an untraced
    /// run, per-layer ones for a traced run.
    fn result_metrics(traced: bool) -> &'static [MetricDef] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The human-readable table.
    pub fn table(&self, traced: bool) -> String {
        let mut out = format!(
            "# {:<32} {:>6} {:>14} {:>14} {:>14} {:>24} {:>6}  {}\n",
            "metric", "unit", "median", "q1", "q3", "tail (pct: value, beyond)", "n", "moves"
        );
        let partial: &[MetricDef] = if traced { &[] } else { &END_TO_END_PARTIAL };
        for m in Report::result_metrics(traced).iter().chain(partial) {
            let xs = self.samples(m.name);
            if xs.is_empty() {
                out.push_str(&format!("# {:<32} {:>6} {:>14}\n", m.name, m.unit, "n/a"));
                continue;
            }
            let q = quartiles(xs).map_or(["-".to_string(), "-".to_string()], |q| {
                [fmt(q[0]), fmt(q[2])]
            });
            let t = tail(xs).map_or("-".to_string(), |t| {
                format!("p{}: {}, {}", t.percentile, fmt(t.value), t.beyond)
            });
            out.push_str(&format!(
                "# {:<32} {:>6} {:>14} {:>14} {:>14} {:>24} {:>6}  {}\n",
                m.name,
                m.unit,
                fmt(self.value(m.name)),
                q[0],
                q[1],
                t,
                xs.len(),
                m.moves
            ));
        }
        out.push_str(&format!(
            "# {:<32} {:>6} {:>14} {:>14} {:>14} {:>24} {:>6}\n",
            "unit_fail_share",
            "ratio",
            fmt(self.tally.fail_share()),
            "-",
            "-",
            "-",
            self.tally.attempted
        ));
        out
    }

    /// The closing JSON line.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = Report::result_metrics(traced)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.value(m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn fmt(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.6e}")
    } else {
        format!("{x:.6}")
    }
}

/// One JSON line naming the machine, build and run parameters.
pub fn context_line(
    ctx: &Context,
    workload: &str,
    seed: u64,
    workers: usize,
    seconds: f64,
    traced: bool,
) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"workers\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"source_digest\": \"{}\"}}",
        workload,
        seed,
        workers,
        seconds,
        u8::from(traced),
        ctx.nproc,
        escape(&ctx.cpu_model),
        escape(&ctx.rustc),
        escape(&ctx.git_commit),
        ctx.source_digest
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_once() {
        let mut r = Report::new(Tally {
            attempted: 10,
            ..Tally::default()
        });
        r.push("wall_s", vec![3.0, 1.0, 2.0]);
        r.push("setup_s", vec![0.5]);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 2, \"unit\": \"s\"}"));
        for m in END_TO_END {
            assert_eq!(line.matches(&format!("\"{}\"", m.name)).count(), 1);
        }
        let traced = r.result_line(true);
        for m in PER_LAYER {
            assert_eq!(traced.matches(&format!("\"{}\"", m.name)).count(), 1);
        }
    }

    #[test]
    fn failed_units_make_the_result_incorrect() {
        let tally = Tally {
            attempted: 4,
            failed: 1,
            problems: vec![],
        };
        let r = Report::new(tally);
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(r.table(false).contains("0.250000"));
    }
}
