//! The metric catalogue and the result line.
//!
//! Every run prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run reports
//! exactly the [`END_TO_END`] metrics, a traced run exactly
//! [`per_layer`]; anything else is a bug in the benchmark and fails the run.

use std::collections::BTreeMap;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["serve-saturated", "label-dataset"];

/// End-to-end metrics and their units. Each applies to every workload; a
/// "label" is one served image on `serve-saturated` and one
/// `label_dataset` call on `label-dataset`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("label_p50_ms", "ms"),
    ("label_p99_ms", "ms"),
    ("label_throughput_ips", "img/s"),
    ("slo_share", "ratio"),
    ("label_accuracy", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The 13 convolutions of the backbone, in forward order.
pub const CONVS: [&str; 13] = [
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3", "conv4_1",
    "conv4_2", "conv4_3", "conv5_1", "conv5_2", "conv5_3",
];

/// The five max-pool taps the affinity functions read.
pub const TAPS: [&str; 5] = ["pool1", "pool2", "pool3", "pool4", "pool5"];

/// Per-layer metrics of the traced run and their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 45] = [
        ("loadgen.offered_ips", "img/s"),
        ("loadgen.achieved_ips", "img/s"),
        ("serve.wire.request_encode_us", "us"),
        ("serve.wire.request_decode_us", "us"),
        ("serve.wire.reply_encode_us", "us"),
        ("serve.wire.reply_decode_us", "us"),
        ("serve.wire.ingest_decode_us", "us"),
        ("serve.wire.request_bytes", "bytes"),
        ("serve.service.submit_us", "us"),
        ("serve.service.ticket_p50_ms", "ms"),
        ("serve.service.ticket_p99_ms", "ms"),
        ("serve.service.queue_wait_p50_ms", "ms"),
        ("serve.service.batch_size_mean", "images"),
        ("serve.service.shed", "count"),
        ("serve.service.deadline_expired", "count"),
        ("serve.snapshot.label_batch_1_ms", "ms"),
        ("serve.snapshot.label_batch_full_ms", "ms"),
        ("serve.snapshot.save_ms", "ms"),
        ("serve.snapshot.load_ms", "ms"),
        ("serve.registry.get_us", "us"),
        ("serve.registry.publish_us", "us"),
        ("cnn.vgg.forward_taps_ms", "ms"),
        ("cnn.vgg.gflops", "GFLOP/s"),
        ("core.prototypes.embed_1_ms", "ms"),
        ("core.prototypes.embed_batch_ms_per_image", "ms"),
        ("core.prototypes.embed_corpus_ms", "ms"),
        ("core.prototypes.top_z_us", "us"),
        ("core.affinity.row_1_ms", "ms"),
        ("core.affinity.rows_batch_ms", "ms"),
        ("core.affinity.matrix_ms", "ms"),
        ("core.hierarchical.fold_in_us", "us"),
        ("core.hierarchical.fit_ms", "ms"),
        ("core.hierarchical.refit_warm_ms", "ms"),
        ("core.hierarchical.em_iterations", "count"),
        ("core.mapping.map_us", "us"),
        ("core.mapping.apply_us", "us"),
        ("models.gmm_diag.fit_ms", "ms"),
        ("models.bernoulli.fit_ms", "ms"),
        ("models.gmm_diag.predict_us", "us"),
        ("trainer.ingest_ack_ms", "ms"),
        ("trainer.append_rows_ms", "ms"),
        ("trainer.refit_ms", "ms"),
        ("trainer.refit_cycle_s", "s"),
        ("obs.render_us", "us"),
        ("obs.overhead_pct", "%"),
    ];
    let counts = [
        "trainer.published",
        "trainer.rejected",
        "trainer.rolled_back",
        "trainer.failed",
        "trainer.queue_depth_max",
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(counts.iter().map(|n| (n.to_string(), "count")));
    for conv in CONVS {
        out.push((format!("tensor.im2col.{conv}_us"), "us"));
        out.push((format!("tensor.gemm.{conv}_us"), "us"));
    }
    for tap in TAPS {
        out.push((format!("tensor.colmax.{tap}_us"), "us"));
    }
    out.push(("tensor.gemm.calls_per_image".into(), "count"));
    out.push(("tensor.gemm.flops_per_image".into(), "flop"));
    out.push(("tensor.gemm.bytes_per_image".into(), "bytes"));
    out.push(("tensor.colmax.bytes_per_row".into(), "bytes"));
    out.push(("unattributed_ms".into(), "ms"));
    out
}

/// Metric values collected during a run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Record (or overwrite) one value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The result line: exactly the `catalogue` metrics, in catalogue order.
/// Fails when a metric is missing, unexpected or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(String, &str)],
) -> Result<String, String> {
    if let Some(extra) = metrics.values.keys().find(|k| !catalogue.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut body = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parsed JSON value — just enough of the format to read
    /// `BENCHMARK.json` and the result line back.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
                }
                other => panic!("{other:?} is not an object"),
            }
        }

        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("{other:?} is not an object"),
            }
        }

        fn items(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("{other:?} is not an array"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }

        fn num(&self) -> f64 {
            match self {
                Json::Num(v) => *v,
                other => panic!("{other:?} is not a number"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing bytes after JSON value");
        value
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) {
        skip_ws(b, pos);
        assert_eq!(b[*pos] as char, c as char, "at byte {pos}");
        *pos += 1;
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Json {
        skip_ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(fields);
                }
                loop {
                    skip_ws(b, pos);
                    let Json::Str(key) = parse_value(b, pos) else { panic!("object key") };
                    expect(b, pos, b':');
                    fields.push((key, parse_value(b, pos)));
                    skip_ws(b, pos);
                    *pos += 1;
                    if b[*pos - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(parse_value(b, pos));
                    skip_ws(b, pos);
                    *pos += 1;
                    if b[*pos - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                *pos += 1;
                let mut s = String::new();
                while b[*pos] != b'"' {
                    if b[*pos] == b'\\' {
                        *pos += 1;
                    }
                    let start = *pos;
                    *pos += 1;
                    while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                        *pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&b[start..*pos]).expect("utf-8"));
                }
                *pos += 1;
                Json::Str(s)
            }
            b't' => {
                *pos += 4;
                Json::Bool(true)
            }
            b'f' => {
                *pos += 5;
                Json::Bool(false)
            }
            b'n' => {
                *pos += 4;
                Json::Null
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*pos]).unwrap().parse().expect("number"))
            }
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.items()
            .iter()
            .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let b = benchmark_json();
        assert_eq!(
            b.keys(),
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let workloads: Vec<&str> =
            b.get("workloads").items().iter().map(|w| w.get("name").str()).collect();
        assert_eq!(workloads, WORKLOADS);
        for w in b.get("workloads").items() {
            assert_eq!(w.keys(), ["name", "why"]);
            assert!(!w.get("why").str().is_empty() && w.get("why").str().len() <= 200);
        }
        let e2e = names_and_units(b.get("end_to_end"));
        let want: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(e2e, want);
        for m in b.get("end_to_end").items() {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").num();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
            assert!(matches!(m.get("better").str(), "lower" | "higher"));
        }
        assert_eq!(b.get("end_to_end").items()[0].get("better").str(), "lower");
        let layers = names_and_units(b.get("per_layer"));
        let want: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(layers, want);
        for m in b.get("per_layer").items() {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
        }
        let run_seconds = b.get("run_seconds").num();
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(names.len() <= 16 + 128);
    }

    #[test]
    fn result_line_has_exactly_the_catalogue() {
        let catalogue: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        let mut m = Metrics::default();
        for (i, (name, _)) in catalogue.iter().enumerate() {
            m.set(name.clone(), 0.125 + i as f64);
        }
        let line = result_line(true, 12, 0, &m, &catalogue).unwrap();
        let v = parse(&line);
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), &Json::Bool(true));
        assert_eq!(v.get("attempted").num(), 12.0);
        let metrics = v.get("metrics");
        assert_eq!(metrics.keys(), END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        assert_eq!(metrics.get("setup_s").get("value").num(), 0.125);
        assert_eq!(metrics.get("setup_s").get("unit").str(), "s");

        let mut missing = Metrics::default();
        missing.set("setup_s", 1.0);
        assert!(result_line(true, 1, 0, &missing, &catalogue).is_err());
        m.set("not_a_metric", 1.0);
        assert!(result_line(true, 1, 0, &m, &catalogue).is_err());
        let mut nan = Metrics::default();
        for (name, _) in &catalogue {
            nan.set(name.clone(), f64::NAN);
        }
        assert!(result_line(true, 1, 0, &nan, &catalogue).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(parse(&json_str("Xeon® \"v2\"")), Json::Str("Xeon® \"v2\"".into()));
    }
}
