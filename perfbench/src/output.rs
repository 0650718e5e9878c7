//! Metric collection and the two output lines: the provenance report
//! and the final result object.

use crate::catalogue::{self, END_TO_END, PER_LAYER};
use crate::check::Tally;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Metrics measured by one run: catalogue metrics, plus report-only ones
/// that are not on every workload (tails, and the raw wall times behind
/// the normalised ones).
#[derive(Default)]
pub struct Measured {
    pub metrics: BTreeMap<&'static str, Metric>,
    pub report_only: BTreeMap<&'static str, Metric>,
}

impl Measured {
    /// Sets a catalogue metric; its unit comes from the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = catalogue::end_to_end(name)
            .map(|m| m.unit)
            .or_else(|| catalogue::per_layer(name).map(|m| m.unit))
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.insert(name, Metric { value, unit, n });
    }

    /// Sets the median of `samples`, if there are any.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(v) = crate::stats::median(samples) {
            self.set(name, v, samples.len());
        }
    }

    /// A metric printed in the report but not in the result line.
    pub fn report(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.report_only.insert(name, Metric { value, unit, n });
    }

    /// The raw wall-time median of the passes and the reference kernel
    /// samples their `pass_ms_p50` was normalised with.
    pub fn report_host(&mut self, wall_ms: &[f64], kernel_ms: &[f64]) {
        for (name, xs) in [
            ("pass_wall_ms_p50", wall_ms),
            ("speed.kernel_ms_p50", kernel_ms),
        ] {
            if let Some(v) = crate::stats::median(xs) {
                self.report(name, v, "ms", xs.len());
            }
        }
    }
}

/// The metrics of the result line: every end-to-end metric untraced,
/// every per-layer metric traced; the other kind is left out. A layer
/// the workload does not enter reads 0 with no samples.
pub fn result_metrics(
    workload: &str,
    traced: bool,
    measured: &Measured,
) -> Result<Vec<(&'static str, Metric)>, String> {
    let mut out = Vec::new();
    if traced {
        for m in PER_LAYER {
            let enters = m.on.contains(&workload);
            match (measured.metrics.get(m.name), enters) {
                (Some(v), true) => out.push((m.name, v.clone())),
                (None, false) => out.push((
                    m.name,
                    Metric {
                        value: 0.0,
                        unit: m.unit,
                        n: 0,
                    },
                )),
                (None, true) => return Err(format!("{workload} did not measure {}", m.name)),
                (Some(_), false) => {
                    return Err(format!("{workload} measured {} outside its layers", m.name))
                }
            }
        }
    } else {
        for m in END_TO_END {
            let v = measured
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("{workload} did not measure {}", m.name))?;
            if v.value.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("{} must be positive, got {}", m.name, v.value));
            }
            out.push((m.name, v.clone()));
        }
    }
    if let Some((name, _)) = out.iter().find(|(_, m)| !m.value.is_finite()) {
        return Err(format!("{name} is not finite"));
    }
    Ok(out)
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON with all its digits (non-finite values become null).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn metric_json(m: &Metric, with_n: bool) -> String {
    let n = if with_n {
        format!(", \"n\": {}", m.n)
    } else {
        String::new()
    };
    format!(
        "{{\"value\": {}, \"unit\": {}{n}}}",
        json_number(m.value),
        json_string(m.unit)
    )
}

/// The last line of standard output.
pub fn result_line(tally: &Tally, metrics: &[(&'static str, Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| format!("{}: {}", json_string(name), metric_json(m, false)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Provenance and every metric with its sample count, as one JSON line.
pub struct Report<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub nproc: usize,
    pub git_rev: String,
    pub seeding: &'a str,
    pub sizes: &'a [(&'static str, String)],
    pub limits: &'a [(&'static str, String)],
}

impl Report<'_> {
    pub fn line(
        &self,
        tally: &Tally,
        emitted: &[(&'static str, Metric)],
        measured: &Measured,
    ) -> String {
        let pairs = |items: &[(&'static str, String)]| {
            items
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let list = |items: &[&str]| {
            items
                .iter()
                .map(|i| json_string(i))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut metrics: Vec<String> = emitted
            .iter()
            .map(|(name, m)| {
                let mut entry = metric_json(m, true);
                if let Some(layer) = catalogue::per_layer(name) {
                    // The layer the metric observes and the prediction it
                    // carries: which end-to-end metrics it should move, on
                    // which workloads.
                    entry.pop();
                    entry.push_str(&format!(
                        ", \"better\": \"{}\", \"layer\": {}, \"on\": [{}], \"moves\": [{}]}}",
                        layer.better.as_str(),
                        json_string(layer.layer),
                        list(layer.on),
                        list(layer.moves)
                    ));
                } else if let Some(e2e) = catalogue::end_to_end(name) {
                    entry.pop();
                    entry.push_str(&format!(
                        ", \"better\": \"{}\", \"bound\": {}}}",
                        e2e.better.as_str(),
                        json_number(e2e.bound)
                    ));
                }
                format!("{}: {entry}", json_string(name))
            })
            .collect();
        metrics.extend(
            measured
                .report_only
                .iter()
                .map(|(name, m)| format!("{}: {}", json_string(name), metric_json(m, true))),
        );
        let error_rate = Metric {
            value: tally.error_rate(),
            unit: "ratio",
            n: tally.attempted as usize,
        };
        metrics.push(format!(
            "\"error_rate\": {}",
            metric_json(&error_rate, true)
        ));
        format!(
            "{{\"report\": {{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"git_rev\": {}, \"seeding\": {}, \"sizes\": {{{}}}, \"limits\": {{{}}}, \"metrics\": {{{}}}, \"failures\": [{}]}}}}",
            json_string(self.workload),
            json_string(catalogue::workload(self.workload).map_or("", |w| w.why)),
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.nproc,
            json_string(&self.git_rev),
            json_string(self.seeding),
            pairs(self.sizes),
            pairs(self.limits),
            metrics.join(", "),
            tally
                .failures
                .iter()
                .map(|f| json_string(f))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// A fixed-width table of the same metrics, for people.
pub fn table(tally: &Tally, emitted: &[(&'static str, Metric)], measured: &Measured) -> String {
    let mut rows: Vec<(&str, &Metric)> = emitted.iter().map(|(n, m)| (*n, m)).collect();
    rows.extend(measured.report_only.iter().map(|(n, m)| (*n, m)));
    let mut out = String::new();
    for (name, m) in rows {
        let layer = catalogue::per_layer(name).map_or("", |l| l.layer);
        out.push_str(&format!(
            "{name:<34} {:>16.4} {:<8} n={:<6} {layer}\n",
            m.value, m.unit, m.n
        ));
    }
    out.push_str(&format!(
        "{:<34} {:>16.4} {:<8} n={}\n",
        "error_rate",
        tally.error_rate(),
        "ratio",
        tally.attempted
    ));
    out
}
