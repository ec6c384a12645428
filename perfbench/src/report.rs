//! The result of one run: the metric catalogue, the human-readable
//! table, and the one-line JSON verdict that ends standard output.

use std::fmt::Write as _;

use crate::kernels::{Algo, Samples};
use crate::probe::{self, Stretch};
use crate::stats::{frac_within, mean, median, sliced_tail};

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("bfs_ms", "ms"),
    ("sssp_ms", "ms"),
    ("pagerank_ms", "ms"),
    ("cc_ms", "ms"),
    ("tricount_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("update_visible_p50_ms", "ms"),
    ("update_visible_tail_ms", "ms"),
    ("query_slo_ok_frac", "frac"),
    ("update_slo_ok_frac", "frac"),
    ("ops_ok_frac", "frac"),
];

/// Latency limits behind the two SLO fractions.
const QUERY_SLO_MS: f64 = 50.0;
const UPDATE_SLO_MS: f64 = 250.0;

/// One measured metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
    /// How it was measured, e.g. `p99 of 1043` or the layer it moves.
    pub note: String,
}

/// Everything a run prints.
#[derive(Default)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub provenance: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Report {
        Report { workload: workload.to_string(), traced, ..Report::default() }
    }

    pub fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples, note });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// `<prefix>_p50_ms`, `<prefix>_tail_ms` and the matching SLO fraction
    /// (`query` or `update_visible`) from samples `(t, ms)` taken over
    /// `window` seconds; the tail is the median over `slices` equal parts
    /// of the window. `misses` failed operations count against the SLO.
    pub fn latency(
        &mut self,
        prefix: &str,
        samples: &[(f64, f64)],
        (window, slices): (f64, usize),
        misses: usize,
        what: &str,
    ) {
        let ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let (pct, t) = sliced_tail(samples, window, slices);
        let n = ms.len();
        self.push(&format!("{prefix}_p50_ms"), median(&ms), "ms", n, format!("{what}, median"));
        let how = if slices > 1 {
            format!("median over {slices} time slices of p{pct:.2}")
        } else {
            format!("p{pct:.2}")
        };
        self.push(&format!("{prefix}_tail_ms"), t, "ms", n, format!("{what}, {how}"));
        let (slo_name, slo) = if prefix == "query" {
            ("query_slo_ok_frac", QUERY_SLO_MS)
        } else {
            ("update_slo_ok_frac", UPDATE_SLO_MS)
        };
        let note = format!("share within {slo} ms; failures count as misses");
        self.push(slo_name, frac_within(&ms, slo, misses), "frac", n + misses, note);
    }

    /// `setup_s`: the median of the set-up times `raw_s`, scaled to
    /// reference speed by `probe`, the probe over the run's timed stretch.
    pub fn setup(&mut self, raw_s: &[f64], probe: Stretch) {
        let raw = median(raw_s);
        let note =
            format!("median of {} set-ups at reference speed; raw median {raw:.4} s", raw_s.len());
        self.push("setup_s", raw * probe.scale, "s", raw_s.len(), note);
    }

    /// `<kernel>_ms` for every kernel: the mean per call, scaled to
    /// reference speed by `probe`, the probe's readings over the stretch
    /// of the run (`what`) that made the calls.
    pub fn kernels(&mut self, samples: &Samples, probe: Stretch, what: &str) {
        for a in Algo::ALL {
            let v = samples.get(a);
            let note = format!(
                "mean per call at reference speed; raw mean {:.4} ms, median {:.4} ms",
                mean(v),
                median(v)
            );
            self.push(&format!("{}_ms", a.name()), mean(v) * probe.scale, "ms", v.len(), note);
        }
        self.probe_line(what, probe);
    }

    fn probe_line(&mut self, stretch: &str, p: Stretch) {
        self.provenance.push(format!(
            "probe.{stretch:<16} mean {:.4} ms over {} readings, scale {:.4} (reference {} ms)",
            p.mean_ms,
            p.readings,
            p.scale,
            probe::REFERENCE_MS
        ));
    }

    /// `ops_ok_frac`: operations that neither failed nor were refused.
    pub fn ok_frac(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        let n = self.attempted as usize;
        self.push("ops_ok_frac", ok, "frac", n, "1 - failed/attempted".into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The table lines and the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced { "per-layer (traced)" } else { "end-to-end" };
        let _ = writeln!(out, "# workload {} — {kind} metrics", self.workload);
        for l in &self.provenance {
            let _ = writeln!(out, "# {l}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "# check {:<44} {}", name, if *ok { "ok" } else { "FAILED" });
        }
        let _ = writeln!(
            out,
            "# ops attempted {} failed {} verdict {}",
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "INCORRECT" }
        );
        let _ = writeln!(
            out,
            "# {:<40} {:>16} {:<8} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "# {:<40} {:>16.6} {:<8} {:>8}  {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite number in JSON form with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
