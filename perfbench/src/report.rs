//! The result line, the metric catalogue, and the machine fingerprint.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
/// Each is defined per workload in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runpool.busy_frac", "frac"),
    ("runpool.cell_p50_ms", "ms"),
    ("runpool.cell_max_ms", "ms"),
    ("supervise.quarantined", "count"),
    ("supervise.flaky", "count"),
    ("supervise.terminated", "count"),
    ("harness.build_ms", "ms"),
    ("harness.provision_ms", "ms"),
    ("harness.run_ms", "ms"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.ns_per_event", "ns"),
    ("sched.scheduled", "count"),
    ("sched.stale_skip_frac", "frac"),
    ("sched.peak_pending", "count"),
    ("sched.overflowed", "count"),
    ("par.speedup_vs_serial", "x"),
    ("par.k1_overhead", "x"),
    ("tcp.cc_calls", "count"),
    ("tcp.cc_ns_per_call", "ns"),
    ("tcp.cc_share", "frac"),
    ("tcp.flows", "count"),
    ("tcp.retransmits", "count"),
    ("tcp.timeouts", "count"),
    ("hooks.calls", "count"),
    ("hooks.ns_per_call", "ns"),
    ("hooks.share", "frac"),
    ("switch.admitted", "count"),
    ("switch.drop_frac", "frac"),
    ("switch.ecn_frac", "frac"),
    ("switch.pauses", "count"),
    ("client.connect_ms", "ms"),
    ("client.service_p50_us", "us"),
    ("client.service_p99_us", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.samples", "count"),
    ("ctx.lookup_p50_us", "us"),
    ("ctx.lookup_p99_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_op", "bytes"),
    ("store.lookup_ns", "ns"),
    ("store.report_ns", "ns"),
    ("server.residual_us", "us"),
    ("server.lookups", "count"),
    ("server.reports", "count"),
    ("server.protocol_errors", "count"),
    ("server.rejected", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// What one run measured and what went wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, Option<f64>>,
    /// Operations attempted (cells, runs, or context requests) plus checks.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Some(value));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value);
    }

    /// Record a check: attempted always, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Failed operations that are not checks (e.g. a client error).
    pub fn fail_ops(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(what());
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line for `catalogue`, in its order. A metric this run
    /// did not set reads 0 on the per-layer catalogue (the workload
    /// bypasses that layer); a missing end-to-end metric is a failure.
    pub fn result_line(
        &mut self,
        catalogue: &[(&'static str, &'static str)],
        strict: bool,
    ) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(Some(v)) if v.is_finite() => format!("{v}"),
                Some(Some(v)) => {
                    self.failed += 1;
                    self.problems.push(format!("{name} is not finite: {v}"));
                    "null".into()
                }
                Some(None) => "null".into(),
                None if strict => {
                    self.failed += 1;
                    self.problems.push(format!("{name} was not measured"));
                    "null".into()
                }
                None => "0".into(),
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }

    /// Human-readable `name value unit` lines for every set metric.
    pub fn lines(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in catalogue {
            let shown = match self.values.get(name) {
                Some(Some(v)) => format!("{v:.4}"),
                Some(None) => "unresolved".into(),
                None => "n/a (layer bypassed)".into(),
            };
            out += &format!("  {name:<26} {shown:>16} {unit}\n");
        }
        out
    }
}

/// Peak resident set size of this process, MB (VmHWM).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

/// The machine and build every result was measured on: core count, CPU
/// model, compiler, and the source revision `run.py` found.
pub fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues here and the metric lists in BENCHMARK.json agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section ends") + start;
            json[start..end].to_string()
        };
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let sec = section(key);
            let names = sec.matches("\"name\"").count();
            assert_eq!(names, cat.len(), "{key} count");
            for (name, unit) in cat {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(sec.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_fills_bypassed_layers_and_flags_missing_metrics() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.set("setup_s", 0.5);
        let line = o.result_line(&[("setup_s", "s"), ("tcp.flows", "count")], false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"tcp.flows\": {\"value\": 0, \"unit\": \"count\"}"));
        let line = o.result_line(&[("ops_per_s", "1/s")], true);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert_eq!(o.problems, vec!["ops_per_s was not measured".to_string()]);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
