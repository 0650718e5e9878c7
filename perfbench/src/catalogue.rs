//! Every workload and metric the benchmark knows, with the prediction of
//! which end-to-end metric each per-layer metric should move. The test
//! suite checks that `BENCHMARK.json` lists exactly these.

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "profile_1m",
        why: "1M-row CSV decode plus depth-2 FD discovery under a 64 MB PLI budget: csv, column, \
              partition, pli_cache and TANE do the work, with eviction on the path",
    },
    Workload {
        name: "profile_echo",
        why:
            "132-row echocardiogram, all eight discovery passes and packaging: per-call overheads \
              and the OD/ND/DD/OFD/CFD/MFD passes, cache fits",
    },
    Workload {
        name: "audit_matrix",
        why: "420-cell leakage matrix: packaging, synthesis and leakage scoring, with no CSV and \
              no discovery",
    },
    Workload {
        name: "serve_closed",
        why: "closed loop, one two-party session at a time over loopback TCP with 1 reset and 1 \
              stall per 8: serve, net and protocol layers",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees; emitted by every untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// A metric of one layer; emitted by every traced run. A workload not in
/// `on` does not enter the layer and reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `crate::module` the metric observes.
    pub layer: &'static str,
    /// Workloads that enter the layer.
    pub on: &'static [&'static str],
    /// End-to-end metrics a change to this layer should move.
    pub moves: &'static [&'static str],
}

const PROFILES: &[&str] = &["profile_1m", "profile_echo"];
const ECHO_ONLY: &[&str] = &["profile_echo"];
const PACKAGING: &[&str] = &["profile_1m", "profile_echo", "audit_matrix"];
const AUDIT: &[&str] = &["audit_matrix"];
const SERVE: &[&str] = &["serve_closed"];
const ALL: &[&str] = &["profile_1m", "profile_echo", "audit_matrix", "serve_closed"];

const PASS: &[&str] = &["pass_ms_p50", "work_per_s"];
const PASS_RSS: &[&str] = &["pass_ms_p50", "work_per_s", "peak_rss_mb"];
const SETUP: &[&str] = &["setup_s"];
const WORK: &[&str] = &["work_per_s"];
const NONE: &[&str] = &[];

/// One row per metric: name, unit, better, layer, workloads that enter
/// the layer, end-to-end metrics it should move.
macro_rules! per_layer {
    ($($name:literal $unit:literal $better:ident $layer:literal $on:ident $moves:ident;)*) => {
        &[$(PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            layer: $layer,
            on: $on,
            moves: $moves,
        }),*]
    };
}

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = per_layer![
    "csv.decode_ms"                   "ms"     Lower  "mp-relation::csv"       PROFILES  PASS;
    "csv.rows_per_s"                  "rows/s" Higher "mp-relation::csv"       PROFILES  PASS;
    "ingest.bytes"                    "B"      Lower  "mp-relation::csv"       PROFILES  PASS;
    "ingest.chunks"                   "count"  Lower  "mp-relation::csv"       PROFILES  PASS;
    "column.group_codes_ms"           "ms"     Lower  "mp-relation::column"    PROFILES  PASS;
    "partition.build_ms"              "ms"     Lower  "mp-relation::partition" PROFILES  PASS_RSS;
    "partition.product_ms"            "ms"     Lower  "mp-relation::partition" PROFILES  PASS_RSS;
    "partition.fd_check_ms"           "ms"     Lower  "mp-relation::partition" PROFILES  PASS;
    "partition.resident_bytes"        "B"      Lower  "mp-relation::partition" PROFILES  PASS_RSS;
    "pli_cache.hits"                  "count"  Higher "mp-relation::pli_cache" PROFILES  PASS;
    "pli_cache.misses"                "count"  Lower  "mp-relation::pli_cache" PROFILES  PASS;
    "pli_cache.evictions"             "count"  Lower  "mp-relation::pli_cache" PROFILES  PASS;
    "pli_cache.hit_rate"              "ratio"  Higher "mp-relation::pli_cache" PROFILES  PASS;
    "pli_cache.lookups"               "count"  Lower  "mp-relation::pli_cache" PROFILES  PASS;
    "pli_cache.resident_bytes"        "B"      Lower  "mp-relation::pli_cache" PROFILES  PASS_RSS;
    "discovery.fds_ms"                "ms"     Lower  "mp-discovery::tane"     PROFILES  PASS;
    "discovery.pli.builds"            "count"  Lower  "mp-discovery::engine"   PROFILES  PASS;
    "discovery.candidates.tested"     "count"  Lower  "mp-discovery::tane"     PROFILES  PASS;
    "discovery.fds_found"             "count"  Higher "mp-discovery::tane"     PROFILES  NONE;
    "discovery.fd_yield"              "ratio"  Higher "mp-discovery::tane"     PROFILES  PASS;
    "discovery.kernel_share"          "ratio"  Lower  "mp-discovery::engine"   PROFILES  PASS;
    "discovery.pass.fd_ms"            "ms"     Lower  "mp-discovery::tane"     ECHO_ONLY PASS;
    "discovery.pass.afd_ms"           "ms"     Lower  "mp-discovery::tane"     ECHO_ONLY PASS;
    "discovery.pass.od_ms"            "ms"     Lower  "mp-discovery::od"       ECHO_ONLY PASS;
    "discovery.pass.nd_ms"            "ms"     Lower  "mp-discovery::nd"       ECHO_ONLY PASS;
    "discovery.pass.dd_ms"            "ms"     Lower  "mp-discovery::dd"       ECHO_ONLY PASS;
    "discovery.pass.ofd_ms"           "ms"     Lower  "mp-discovery::ofd"      ECHO_ONLY PASS;
    "discovery.pass.cfd_ms"           "ms"     Lower  "mp-discovery::cfd"      ECHO_ONLY PASS;
    "discovery.pass.mfd_ms"           "ms"     Lower  "mp-discovery::mfd"      ECHO_ONLY PASS;
    "metadata.describe_ms"            "ms"     Lower  "mp-metadata::exchange"  PACKAGING PASS;
    "metadata.redact_ms"              "ms"     Lower  "mp-metadata::redaction" PACKAGING PASS;
    "metadata.to_json_ms"             "ms"     Lower  "mp-metadata::exchange"  PACKAGING PASS;
    "metadata.package_bytes"          "B"      Lower  "mp-metadata::exchange"  PACKAGING NONE;
    "synth.synthesize_ms"             "ms"     Lower  "mp-synth::adversary"    AUDIT     PASS;
    "synth.calls"                     "count"  Lower  "mp-synth::adversary"    AUDIT     PASS;
    "synth.rows_per_s"                "rows/s" Higher "mp-synth::adversary"    AUDIT     PASS;
    "leakage.score_ms"                "ms"     Lower  "mp-core::leakage"       AUDIT     PASS;
    "matrix.run_ms.baseline"          "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.run_ms.partial50"         "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.run_ms.collude2"          "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.run_ms.noisy10"           "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.run_ms.echocardiogram"    "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.run_ms.bank"              "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.run_ms.car"               "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.to_json_ms"               "ms"     Lower  "mp-core::matrix"        AUDIT     PASS;
    "matrix.cells"                    "count"  Higher "mp-core::matrix"        AUDIT     NONE;
    "matrix.leaking_cells"            "count"  Lower  "mp-core::matrix"        AUDIT     NONE;
    "protocol.setup_inproc_ms"        "ms"     Lower  "mp-federated::protocol" SERVE     PASS;
    "protocol.retransmits"            "count"  Lower  "mp-federated::protocol" SERVE     PASS;
    "protocol.backoff_ticks"          "count"  Lower  "mp-federated::protocol" SERVE     PASS;
    "serve.start_ms"                  "ms"     Lower  "mp-federated::serve"    SERVE     SETUP;
    "serve.handshake_ms"              "ms"     Lower  "mp-federated::net"      SERVE     PASS;
    "serve.session_ms"                "ms"     Lower  "mp-federated::serve"    SERVE     PASS;
    "serve.wait_share"                "ratio"  Lower  "mp-federated::serve"    SERVE     PASS;
    "serve.frames_in_per_session"     "count"  Lower  "mp-federated::net"      SERVE     PASS;
    "serve.frames_routed_per_session" "count"  Lower  "mp-federated::serve"    SERVE     PASS;
    "serve.max_queue_depth"           "count"  Lower  "mp-federated::serve"    SERVE     NONE;
    "serve.reset_abort_ms_p50"        "ms"     Lower  "mp-federated::serve"    SERVE     WORK;
    "serve.stall_abort_ms_p50"        "ms"     Lower  "mp-federated::serve"    SERVE     WORK;
    "serve.sessions_aborted"          "count"  Lower  "mp-federated::serve"    SERVE     WORK;
    "trace.overhead_pct"              "%"      Lower  "perfbench::trace"       ALL       NONE;
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn benchmark_json() -> Content {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(obj: &'a Content, key: &str) -> &'a Content {
        obj.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(c: &Content) -> &str {
        match c {
            Content::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn list(c: &Content) -> &[Content] {
        match c {
            Content::Seq(items) => items,
            other => panic!("expected a list, got {other:?}"),
        }
    }

    fn number(c: &Content) -> f64 {
        match c {
            Content::F64(v) => *v,
            Content::I64(v) => *v as f64,
            Content::U64(v) => *v as f64,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "invalid name {name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!valid_name("bad name") && !valid_name("_lead") && !valid_name(""));
    }

    #[test]
    fn every_layer_metric_names_existing_workloads_and_metrics() {
        for m in PER_LAYER {
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            for w in m.on {
                assert!(workload(w).is_some(), "{}: unknown workload {w}", m.name);
            }
            for e in m.moves {
                assert!(end_to_end(e).is_some(), "{}: unknown metric {e}", m.name);
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = benchmark_json();
        let workloads = list(field(&doc, "workloads"));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(field(entry, "name")), w.name);
            assert_eq!(text(field(entry, "why")), w.why);
        }
        let e2e = list(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(field(entry, "name")), m.name);
            assert_eq!(text(field(entry, "unit")), m.unit);
            assert_eq!(text(field(entry, "better")), m.better.as_str());
            assert_eq!(number(field(entry, "bound")), m.bound);
        }
        let layers = list(field(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(field(entry, "name")), m.name);
            assert_eq!(text(field(entry, "unit")), m.unit);
            assert_eq!(text(field(entry, "better")), m.better.as_str());
        }
        let paths: Vec<&str> = list(field(&doc, "paths")).iter().map(text).collect();
        assert_eq!(paths, ["perfbench"]);
    }
}
