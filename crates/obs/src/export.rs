//! JSON-lines rendering of metric snapshots.
//!
//! One JSON object per metric, schema pinned by the CLI golden test:
//!
//! ```text
//! {"kind":"counter","name":"core.generate.tests_emitted","value":9}
//! {"kind":"gauge","name":"synth.gates","value":23}
//! {"kind":"timer","name":"core.generate_secs","count":1,"total_secs":1.23e-5,"min_secs":1.23e-5,"max_secs":1.23e-5,"buckets":[0,0,0,1,0,0,0,0,0]}
//! ```

use crate::json::escape_json_string;
use crate::metric::TIMER_BUCKETS;

/// A point-in-time copy of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Timer statistics.
    Timer {
        /// Number of observations.
        count: u64,
        /// Sum of observations in seconds.
        total_secs: f64,
        /// Shortest observation in seconds (0.0 when `count == 0`).
        min_secs: f64,
        /// Longest observation in seconds (0.0 when `count == 0`).
        max_secs: f64,
        /// Decade bucket counts (see [`TIMER_BUCKETS`]).
        buckets: [u64; TIMER_BUCKETS],
    },
}

/// A named metric value, as captured by `Registry::snapshot`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: String,
    /// Captured value.
    pub value: SnapshotValue,
}

impl MetricSnapshot {
    /// Renders the snapshot as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let name = escape_json_string(&self.name);
        match &self.value {
            SnapshotValue::Counter(v) => {
                format!("{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}")
            }
            SnapshotValue::Gauge(v) => {
                format!("{{\"kind\":\"gauge\",\"name\":\"{name}\",\"value\":{v}}}")
            }
            SnapshotValue::Timer {
                count,
                total_secs,
                min_secs,
                max_secs,
                buckets,
            } => {
                let buckets = buckets
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"kind\":\"timer\",\"name\":\"{name}\",\"count\":{count},\
                     \"total_secs\":{},\"min_secs\":{},\"max_secs\":{},\
                     \"buckets\":[{buckets}]}}",
                    json_f64(*total_secs),
                    json_f64(*min_secs),
                    json_f64(*max_secs),
                )
            }
        }
    }
}

fn json_f64(v: f64) -> String {
    // Durations are always finite; guard anyway so the output stays valid
    // JSON no matter what a caller records.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_lines() {
        let c = MetricSnapshot {
            name: "a.b".into(),
            value: SnapshotValue::Counter(7),
        };
        assert_eq!(
            c.to_json(),
            "{\"kind\":\"counter\",\"name\":\"a.b\",\"value\":7}"
        );
        let g = MetricSnapshot {
            name: "g".into(),
            value: SnapshotValue::Gauge(0),
        };
        assert_eq!(
            g.to_json(),
            "{\"kind\":\"gauge\",\"name\":\"g\",\"value\":0}"
        );
    }

    #[test]
    fn timer_line_shape() {
        let t = MetricSnapshot {
            name: "t".into(),
            value: SnapshotValue::Timer {
                count: 2,
                total_secs: 0.5,
                min_secs: 0.25,
                max_secs: 0.25,
                buckets: [0, 0, 0, 0, 0, 0, 0, 2, 0],
            },
        };
        assert_eq!(
            t.to_json(),
            "{\"kind\":\"timer\",\"name\":\"t\",\"count\":2,\"total_secs\":0.5,\
             \"min_secs\":0.25,\"max_secs\":0.25,\"buckets\":[0,0,0,0,0,0,0,2,0]}"
        );
    }

    #[test]
    fn escaping() {
        assert_eq!(escape_json_string("plain.name"), "plain.name");
        assert_eq!(escape_json_string("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json_string("x\ny"), "x\\ny");
        assert_eq!(escape_json_string("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_stay_valid_json() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
