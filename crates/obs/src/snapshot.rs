//! Frozen registry contents + the three exporters.
//!
//! All exports share one **versioned schema** (`schema` / `schema_version`
//! keys, [`crate::SCHEMA_NAME`] / [`crate::SCHEMA_VERSION`]) and a
//! **stable key order** — golden tests in `tests/observability.rs` pin
//! both, so downstream consumers can parse with fixed expectations.
//! Bumping the field set or reordering keys requires bumping
//! [`crate::SCHEMA_VERSION`] and the DESIGN.md §2.9 table.

use crate::json::{write_key, write_str, write_us_from_ns};
use std::fmt::Write as _;
use std::time::Duration;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (1-based; 0 never appears in a snapshot).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static name the span was opened with.
    pub name: String,
    /// Process-wide ordinal id of the recording thread.
    pub tid: u64,
    /// Start offset from the registry epoch, nanoseconds.
    pub start_ns: u64,
    /// Measured duration, nanoseconds.
    pub dur_ns: u64,
}

/// One named monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    pub name: String,
    pub value: u64,
}

/// One named log2-bucketed duration histogram (sparse buckets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRecord {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    /// 0 when the histogram is empty.
    pub min_ns: u64,
    pub max_ns: u64,
    /// `(bucket_index, count)` pairs, ascending, non-zero only.
    pub buckets: Vec<(u32, u64)>,
}

/// A frozen, exportable view of a [`crate::Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Always [`crate::SCHEMA_VERSION`] for snapshots produced by this
    /// build; carried explicitly so serialized forms self-describe.
    pub schema_version: u32,
    /// Spans ordered by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Counters ordered by name.
    pub counters: Vec<CounterRecord>,
    /// Histograms ordered by name.
    pub histograms: Vec<HistogramRecord>,
}

impl Snapshot {
    /// The empty snapshot (what a disabled handle exports).
    pub fn empty() -> Self {
        Snapshot {
            schema_version: crate::SCHEMA_VERSION,
            spans: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Value of the named counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Number of spans recorded under `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration across all spans recorded under `name`.
    pub fn span_total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns)
                .fold(0u64, u64::saturating_add),
        )
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramRecord> {
        self.histograms.iter().find(|h| h.name == name)
    }

    fn write_span_obj(out: &mut String, s: &SpanRecord) {
        out.push('{');
        write_key(out, "id");
        let _ = write!(out, "{}", s.id);
        out.push(',');
        write_key(out, "parent");
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push(',');
        write_key(out, "name");
        write_str(out, &s.name);
        out.push(',');
        write_key(out, "tid");
        let _ = write!(out, "{}", s.tid);
        out.push(',');
        write_key(out, "start_ns");
        let _ = write!(out, "{}", s.start_ns);
        out.push(',');
        write_key(out, "dur_ns");
        let _ = write!(out, "{}", s.dur_ns);
        out.push('}');
    }

    fn write_counter_obj(out: &mut String, c: &CounterRecord) {
        out.push('{');
        write_key(out, "name");
        write_str(out, &c.name);
        out.push(',');
        write_key(out, "value");
        let _ = write!(out, "{}", c.value);
        out.push('}');
    }

    fn write_histogram_obj(out: &mut String, h: &HistogramRecord) {
        out.push('{');
        write_key(out, "name");
        write_str(out, &h.name);
        out.push(',');
        write_key(out, "count");
        let _ = write!(out, "{}", h.count);
        out.push(',');
        write_key(out, "sum_ns");
        let _ = write!(out, "{}", h.sum_ns);
        out.push(',');
        write_key(out, "min_ns");
        let _ = write!(out, "{}", h.min_ns);
        out.push(',');
        write_key(out, "max_ns");
        let _ = write!(out, "{}", h.max_ns);
        out.push(',');
        write_key(out, "buckets");
        out.push('[');
        for (i, (bucket, count)) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bucket},{count}]");
        }
        out.push_str("]}");
    }

    fn write_schema_keys(out: &mut String) {
        write_key(out, "schema");
        write_str(out, crate::SCHEMA_NAME);
        out.push(',');
        write_key(out, "schema_version");
        let _ = write!(out, "{}", crate::SCHEMA_VERSION);
    }

    /// Single JSON object with the full snapshot. Key order (pinned by
    /// golden tests): `schema`, `schema_version`, `spans`, `counters`,
    /// `histograms`.
    pub fn to_stats_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        Self::write_schema_keys(&mut out);
        out.push(',');
        write_key(&mut out, "spans");
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Self::write_span_obj(&mut out, s);
        }
        out.push_str("],");
        write_key(&mut out, "counters");
        out.push('[');
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Self::write_counter_obj(&mut out, c);
        }
        out.push_str("],");
        write_key(&mut out, "histograms");
        out.push('[');
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Self::write_histogram_obj(&mut out, h);
        }
        out.push_str("]}");
        out.push('\n');
        out
    }

    /// JSON Lines event stream: one `meta` line, then one line per span,
    /// counter, and histogram (in snapshot order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push('{');
        write_key(&mut out, "type");
        write_str(&mut out, "meta");
        out.push(',');
        Self::write_schema_keys(&mut out);
        out.push_str("}\n");
        for s in &self.spans {
            out.push('{');
            write_key(&mut out, "type");
            write_str(&mut out, "span");
            out.push(',');
            // Re-use the object body minus its braces.
            let mut body = String::new();
            Self::write_span_obj(&mut body, s);
            out.push_str(&body[1..]);
            out.push('\n');
        }
        for c in &self.counters {
            out.push('{');
            write_key(&mut out, "type");
            write_str(&mut out, "counter");
            out.push(',');
            let mut body = String::new();
            Self::write_counter_obj(&mut body, c);
            out.push_str(&body[1..]);
            out.push('\n');
        }
        for h in &self.histograms {
            out.push('{');
            write_key(&mut out, "type");
            write_str(&mut out, "histogram");
            out.push(',');
            let mut body = String::new();
            Self::write_histogram_obj(&mut body, h);
            out.push_str(&body[1..]);
            out.push('\n');
        }
        out
    }

    /// chrome://tracing `trace_events` JSON: complete (`ph:"X"`) events
    /// for spans, counter (`ph:"C"`) events, plus the schema version in
    /// `otherData`. Load via chrome://tracing or <https://ui.perfetto.dev>.
    pub fn to_trace_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        write_key(&mut out, "traceEvents");
        out.push('[');
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('{');
            write_key(&mut out, "name");
            write_str(&mut out, &s.name);
            out.push(',');
            write_key(&mut out, "cat");
            write_str(&mut out, "fsa");
            out.push(',');
            write_key(&mut out, "ph");
            write_str(&mut out, "X");
            out.push(',');
            write_key(&mut out, "ts");
            write_us_from_ns(&mut out, s.start_ns);
            out.push(',');
            write_key(&mut out, "dur");
            write_us_from_ns(&mut out, s.dur_ns);
            out.push(',');
            write_key(&mut out, "pid");
            out.push('1');
            out.push(',');
            write_key(&mut out, "tid");
            let _ = write!(out, "{}", s.tid);
            out.push(',');
            write_key(&mut out, "args");
            out.push('{');
            write_key(&mut out, "id");
            let _ = write!(out, "{}", s.id);
            out.push(',');
            write_key(&mut out, "parent");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str("}}");
        }
        for c in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('{');
            write_key(&mut out, "name");
            write_str(&mut out, &c.name);
            out.push(',');
            write_key(&mut out, "cat");
            write_str(&mut out, "fsa");
            out.push(',');
            write_key(&mut out, "ph");
            write_str(&mut out, "C");
            out.push(',');
            write_key(&mut out, "ts");
            out.push('0');
            out.push(',');
            write_key(&mut out, "pid");
            out.push('1');
            out.push(',');
            write_key(&mut out, "tid");
            out.push('1');
            out.push(',');
            write_key(&mut out, "args");
            out.push('{');
            write_key(&mut out, "value");
            let _ = write!(out, "{}", c.value);
            out.push_str("}}");
        }
        out.push_str("],");
        write_key(&mut out, "displayTimeUnit");
        write_str(&mut out, "ms");
        out.push(',');
        write_key(&mut out, "otherData");
        out.push('{');
        Self::write_schema_keys(&mut out);
        out.push_str("}}");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Snapshot {
        Snapshot {
            schema_version: crate::SCHEMA_VERSION,
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "root".into(),
                    tid: 1,
                    start_ns: 0,
                    dur_ns: 2_500,
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "child \"q\"".into(),
                    tid: 2,
                    start_ns: 1_000,
                    dur_ns: 1_000,
                },
            ],
            counters: vec![CounterRecord {
                name: "pairs.total".into(),
                value: 12,
            }],
            histograms: vec![HistogramRecord {
                name: "build".into(),
                count: 2,
                sum_ns: 9,
                min_ns: 4,
                max_ns: 5,
                buckets: vec![(2, 2)],
            }],
        }
    }

    #[test]
    fn stats_json_is_exact_and_stable() {
        let expected = concat!(
            "{\"schema\":\"fsa-obs/v1\",\"schema_version\":1,",
            "\"spans\":[",
            "{\"id\":1,\"parent\":null,\"name\":\"root\",\"tid\":1,\"start_ns\":0,\"dur_ns\":2500},",
            "{\"id\":2,\"parent\":1,\"name\":\"child \\\"q\\\"\",\"tid\":2,\"start_ns\":1000,\"dur_ns\":1000}",
            "],\"counters\":[{\"name\":\"pairs.total\",\"value\":12}],",
            "\"histograms\":[{\"name\":\"build\",\"count\":2,\"sum_ns\":9,\"min_ns\":4,",
            "\"max_ns\":5,\"buckets\":[[2,2]]}]}\n",
        );
        assert_eq!(fixed().to_stats_json(), expected);
    }

    #[test]
    fn jsonl_is_exact_and_stable() {
        let expected = concat!(
            "{\"type\":\"meta\",\"schema\":\"fsa-obs/v1\",\"schema_version\":1}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"root\",\"tid\":1,",
            "\"start_ns\":0,\"dur_ns\":2500}\n",
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"child \\\"q\\\"\",\"tid\":2,",
            "\"start_ns\":1000,\"dur_ns\":1000}\n",
            "{\"type\":\"counter\",\"name\":\"pairs.total\",\"value\":12}\n",
            "{\"type\":\"histogram\",\"name\":\"build\",\"count\":2,\"sum_ns\":9,\"min_ns\":4,",
            "\"max_ns\":5,\"buckets\":[[2,2]]}\n",
        );
        assert_eq!(fixed().to_jsonl(), expected);
    }

    #[test]
    fn trace_json_is_exact_and_stable() {
        let expected = concat!(
            "{\"traceEvents\":[",
            "{\"name\":\"root\",\"cat\":\"fsa\",\"ph\":\"X\",\"ts\":0.000,\"dur\":2.500,",
            "\"pid\":1,\"tid\":1,\"args\":{\"id\":1,\"parent\":null}},",
            "{\"name\":\"child \\\"q\\\"\",\"cat\":\"fsa\",\"ph\":\"X\",\"ts\":1.000,\"dur\":1.000,",
            "\"pid\":1,\"tid\":2,\"args\":{\"id\":2,\"parent\":1}},",
            "{\"name\":\"pairs.total\",\"cat\":\"fsa\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":1,",
            "\"args\":{\"value\":12}}",
            "],\"displayTimeUnit\":\"ms\",",
            "\"otherData\":{\"schema\":\"fsa-obs/v1\",\"schema_version\":1}}\n",
        );
        assert_eq!(fixed().to_trace_json(), expected);
    }

    #[test]
    fn accessors_aggregate_spans() {
        let snap = fixed();
        assert_eq!(snap.counter("pairs.total"), Some(12));
        assert_eq!(snap.span_count("root"), 1);
        assert_eq!(snap.span_total("root"), Duration::from_nanos(2_500));
        assert_eq!(snap.span_total("absent"), Duration::ZERO);
        assert_eq!(snap.histogram("build").unwrap().count, 2);
    }

    #[test]
    fn empty_snapshot_still_carries_schema() {
        let s = Snapshot::empty();
        assert!(s.to_stats_json().contains("\"schema_version\":1"));
        assert!(s.to_jsonl().starts_with("{\"type\":\"meta\""));
        assert!(s.to_trace_json().contains("\"traceEvents\":[]"));
    }
}
