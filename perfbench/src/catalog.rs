//! The workloads and metrics this benchmark defines. `BENCHMARK.json`
//! at the repository root lists the same names; a test keeps the two
//! in step.

/// One batch job, generated from the seed inside this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro --full all` in process: the default study, all 31 ids.
    StudyFull,
    /// The passive window under the `stress` tap profile, run cold into
    /// a fresh checkpoint directory, then resumed from it.
    PassiveStressResume,
    /// The weekly Censys campaign under the default scan faults.
    ScanWeekly,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StudyFull,
        Workload::PassiveStressResume,
        Workload::ScanWeekly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyFull => "study_full",
            Workload::PassiveStressResume => "passive_stress_resume",
            Workload::ScanWeekly => "scan_weekly",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric: its name, its unit, and (for per-layer metrics) which
/// end-to-end metric on which workload a change in it should move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef { name, unit, moves }
}

/// End-to-end metrics every workload reports with tracing off: the
/// fields of the result line, in `BENCHMARK.json` order.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", ""),
    def("wall_s", "s", ""),
    def("cpu_s", "s", ""),
    def("peak_rss_mb", "MB", ""),
];

/// End-to-end metrics that exist on some workloads only. They are
/// printed in the table but are not fields of the result line, which
/// must carry the same non-zero metrics on every workload.
pub const END_TO_END_PARTIAL: [MetricDef; 6] = [
    def("passive_s", "s", ""),
    def("active_s", "s", ""),
    def("report_s", "s", ""),
    def("resume_s", "s", ""),
    def("conns_per_s", "1/s", ""),
    def("hosts_per_s", "1/s", ""),
];

const PASSIVE_GEN: &str = "passive_s, conns_per_s, wall_s, cpu_s on study_full and passive_stress_resume; nothing on scan_weekly";
const PASSIVE_FOLD: &str =
    "passive_s, conns_per_s, wall_s, cpu_s on study_full (less on passive_stress_resume)";
const CKPT: &str = "resume_s, wall_s on passive_stress_resume only";
const ACTIVE: &str = "hosts_per_s, wall_s on scan_weekly; active_s on study_full";
const REPORT: &str = "report_s on study_full only";
const SCHED: &str = "wall_s but not cpu_s, on every workload";
const MONTH: &str =
    "passive_s, cpu_s on study_full and passive_stress_resume (serial per-month cost, so a scheduler change does not move it)";

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [MetricDef; 30] = [
    def("traffic.gen_ns_per_flow", "ns", PASSIVE_GEN),
    def("traffic.bytes_per_flow", "B", PASSIVE_GEN),
    def("traffic.template_hit_rate", "ratio", PASSIVE_GEN),
    def("traffic.flows", "count", PASSIVE_GEN),
    def("notary.extract_ns_per_flow", "ns", PASSIVE_GEN),
    def("notary.parse_cache_hit_rate", "ratio", PASSIVE_FOLD),
    def("notary.extract_fail_share", "ratio", PASSIVE_FOLD),
    def("notary.salvaged_share", "ratio", PASSIVE_FOLD),
    def("notary.fold_ns_per_flow", "ns", PASSIVE_FOLD),
    def("notary.distinct_fingerprints", "count", PASSIVE_FOLD),
    def("notary.merge_ms", "ms", PASSIVE_FOLD),
    def("notary.ckpt_write_ms_per_month", "ms", CKPT),
    def("notary.ckpt_bytes_per_month", "B", CKPT),
    def("notary.ckpt_load_ms", "ms", CKPT),
    def("servers.sample_ns_per_host", "ns", ACTIVE),
    def("scanner.probe_ns_per_host", "ns", ACTIVE),
    def("scanner.sweep_ms_per_date", "ms", ACTIVE),
    def("scanner.probes_per_host", "ratio", ACTIVE),
    def("scanner.retries_per_host", "ratio", ACTIVE),
    def("scanner.drop_share", "ratio", ACTIVE),
    def("analysis.report_ms", "ms", REPORT),
    def("analysis.slowest_experiment_ms", "ms", REPORT),
    def("study.passive_speedup", "ratio", SCHED),
    def("study.active_speedup", "ratio", SCHED),
    def("study.parallel_efficiency", "ratio", SCHED),
    def("study.month_ms_p50", "ms", MONTH),
    def("study.month_ms_tail", "ms", MONTH),
    def("study.month_samples", "count", MONTH),
    def(
        "trace.layer_sum_ratio",
        "ratio",
        "none: checks that the layers account for the fused time",
    ),
    def(
        "trace.overhead",
        "ratio",
        "none: the cost of tracing, never an end-to-end number",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The quoted values following `"key": ` in `text`, in order.
    fn values_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\": \"");
        text.match_indices(&needle)
            .map(|(i, _)| {
                let rest = &text[i + needle.len()..];
                &rest[..rest.find('"').unwrap()]
            })
            .collect()
    }

    fn section<'a>(text: &'a str, key: &str) -> &'a str {
        let start = text.find(&format!("\"{key}\"")).unwrap();
        let rest = &text[start..];
        &rest[..rest.find(']').unwrap()]
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .chain(&END_TO_END_PARTIAL)
            .chain(&PER_LAYER)
            .collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} {}", m.name, m.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let names = |key| values_of(section(BENCHMARK_JSON, key), "name");
        let units = |key| values_of(section(BENCHMARK_JSON, key), "unit");
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name()).to_vec());
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name).to_vec());
        assert_eq!(units("end_to_end"), END_TO_END.map(|m| m.unit).to_vec());
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name).to_vec());
        assert_eq!(units("per_layer"), PER_LAYER.map(|m| m.unit).to_vec());
    }
}
