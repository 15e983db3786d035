//! The run's result: every metric by name and unit, the attempted/failed
//! operation counts, and the one-line JSON the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
/// `primary` names each workload's main operation class (see
/// `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("ops_per_s", "1/s"),
    ("primary_p50_us", "us"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced run.  A layer a workload leaves idle reports
/// 0 for its metrics.  The first three are end-to-end latencies kept out of
/// the bounded set because their run-to-run spread is too wide.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("primary_p99_us", "us"),
    ("secondary_p50_us", "us"),
    ("secondary_p99_us", "us"),
    ("core.apply_p50_ms", "ms"),
    ("core.apply_p99_ms", "ms"),
    ("core.walk_steps_per_edge", "steps"),
    ("core.segments_per_edge", "segments"),
    ("core.work_vs_theorem4", "ratio"),
    ("salsa.apply_ms", "ms"),
    ("salsa.delete_ms", "ms"),
    ("salsa.walk_steps_per_edge", "steps"),
    ("core.walk_us", "us"),
    ("core.topk_us", "us"),
    ("core.fetches_per_query", "fetches"),
    ("core.fetches_vs_cor9", "ratio"),
    ("serve.commit_ms", "ms"),
    ("serve.commit_overhead_ms", "ms"),
    ("serve.chunks_copied_per_commit", "chunks"),
    ("serve.spine_blocks_per_commit", "blocks"),
    ("serve.freeze_s", "s"),
    ("serve.pin_p50_us", "us"),
    ("serve.pin_p99_us", "us"),
    ("serve.answer_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses_per_query", "fetches"),
    ("batch.misses_per_query", "fetches"),
    ("batch.singles_misses_per_query", "fetches"),
    ("wal.fsyncs", "count"),
    ("wal.appends_per_fsync", "ratio"),
    ("disk.checkpoint_ms", "ms"),
    ("disk.pages_rewritten", "pages"),
    ("disk.pages_reused", "pages"),
    ("persist.open_s", "s"),
    ("disk.cached_path_steps", "steps"),
    ("pager.loads", "pages"),
    ("pager.hit_rate", "ratio"),
    ("pager.evictions", "pages"),
    ("pager.refaults", "pages"),
    ("pager.resident_bytes", "bytes"),
    ("gen.late_p99_ms", "ms"),
    ("gen.commit_capacity_eps", "edges/s"),
    ("count.walk_steps", "steps"),
    ("count.segments", "segments"),
    ("count.fetches", "fetches"),
    ("count.wal_appends", "records"),
    ("self_ms.client", "ms"),
    ("self_ms.ppr_core.incremental", "ms"),
    ("self_ms.ppr_core.salsa", "ms"),
    ("self_ms.ppr_core.personalized", "ms"),
    ("self_ms.ppr_serve.engine", "ms"),
    ("self_ms.ppr_serve.generation", "ms"),
    ("self_ms.ppr_serve.batch", "ms"),
    ("self_ms.ppr_persist.disk", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ops_pct", "%"),
    ("trace.overhead_p50_pct", "%"),
];

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Workload facts and the issue-named aliases of the generic metrics,
    /// printed to stderr only.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `n` operations, `bad` of which failed.
    pub fn attempt(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable summary on stderr: every metric measured, the notes, and
    /// `failed_frac`.
    pub fn print_summary(&self, workload: &str) {
        eprintln!("workload {workload}");
        for line in &self.notes {
            eprintln!("  {line}");
        }
        for (name, value) in &self.metrics {
            eprintln!("  {name:<34} {value}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "  failed_frac {frac} ({} of {} operations)",
            self.failed, self.attempted
        );
    }

    /// The JSON result line: the end-to-end set, or the per-layer set when
    /// traced.  A missing end-to-end metric is a bug in the workload code; a
    /// per-layer metric a workload never touched reads 0.
    pub fn json(&self, traced: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}
