//! Prometheus-style text exposition of a table of metric families.
//!
//! A tiny encoder for the plain-text metrics format scrapers expect:
//! `# HELP` / `# TYPE` headers, `name{label="value"} 1.5` samples,
//! cumulative `_bucket{le="..."}` series for histograms, and a final
//! `# EOF` terminator (from the OpenMetrics dialect) that doubles as
//! the end-of-response marker over the line protocol.
//!
//! A caller declares each family once, as a [`Family`] row whose reader
//! pulls a [`Sample`] out of a snapshot, and [`render`] walks the table.
//! Histogram buckets come straight from a [`LogHistogram`] via
//! [`LogHistogram::count_le`], and their bounds follow from the family's
//! name: a `_us` family gets latency decades, any other family
//! small-count bounds. Label values are written as given, so a caller
//! passes only values that need no escaping.

use crate::LogHistogram;
use std::collections::HashSet;
use std::fmt::Write as _;

/// µs bucket bounds for `_us` histograms: 100 µs … 100 s in decades, a
/// sensible scrape resolution for web-database latencies.
const LATENCY_BOUNDS_US: &[u64] = &[
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Bucket bounds for every other histogram: small-count distributions
/// (e.g. unapplied updates at answer time).
const COUNT_BOUNDS: &[u64] = &[0, 1, 2, 5, 10, 50, 100, 1_000];

/// What one family's reader found in the snapshot.
#[derive(Debug, Clone)]
pub enum Sample<'a> {
    /// A monotonic counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(f64),
    /// A cumulative histogram, with `_sum` and `_count` samples.
    Histogram(&'a LogHistogram),
    /// One counter per value of the named label, in order.
    Counters(&'static str, Vec<(String, u64)>),
    /// One gauge per value of the named label, in order.
    Gauges(&'static str, Vec<(String, f64)>),
}

/// One metric family, declared once: its name, its help line, and how
/// to read it out of a snapshot `S`.
pub struct Family<S> {
    /// The family name, by the grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Reads the family's samples; `None` leaves the family out of the
    /// document.
    pub read: fn(&S) -> Option<Sample<'_>>,
}

/// Whether `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Renders every family of `table` that `snapshot` has samples for, in
/// table order, and terminates the document with `# EOF`.
///
/// ```
/// use quts_metrics::exposition::{render, Family, Sample};
/// let table: &[Family<(u64, f64)>] = &[
///     Family { name: "quts_committed_total", help: "Committed queries", read: |s| Some(Sample::Counter(s.0)) },
///     Family { name: "quts_rho", help: "Current query-class bias", read: |s| Some(Sample::Gauge(s.1)) },
/// ];
/// let text = render(table, &(42, 0.75));
/// assert!(text.contains("quts_committed_total 42\n"));
/// assert!(text.ends_with("quts_rho 0.75\n# EOF\n"));
/// ```
///
/// # Panics
/// The hygiene rules are structural: a malformed name, or a family
/// emitted twice (which would duplicate its `# TYPE` line), is a bug in
/// the table, caught here rather than by the scraper.
pub fn render<S>(table: &[Family<S>], snapshot: &S) -> String {
    let mut out = String::new();
    let mut emitted = HashSet::new();
    for family in table {
        let Some(sample) = (family.read)(snapshot) else {
            continue;
        };
        let name = family.name;
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(emitted.insert(name), "metric family {name:?} emitted twice");
        let kind = match sample {
            Sample::Counter(_) | Sample::Counters(..) => "counter",
            Sample::Gauge(_) | Sample::Gauges(..) => "gauge",
            Sample::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# HELP {name} {}", family.help);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        match sample {
            Sample::Counter(value) => {
                let _ = writeln!(out, "{name} {value}");
            }
            Sample::Gauge(value) => {
                let _ = writeln!(out, "{name} {value}");
            }
            Sample::Counters(label, series) => {
                for (value_label, value) in series {
                    let _ = writeln!(out, "{name}{{{label}=\"{value_label}\"}} {value}");
                }
            }
            Sample::Gauges(label, series) => {
                for (value_label, value) in series {
                    let _ = writeln!(out, "{name}{{{label}=\"{value_label}\"}} {value}");
                }
            }
            Sample::Histogram(hist) => {
                let bounds = if name.ends_with("_us") {
                    LATENCY_BOUNDS_US
                } else {
                    COUNT_BOUNDS
                };
                for &le in bounds {
                    let c = hist.count_le(le);
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {c}");
                }
                let total = hist.count();
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
                let _ = writeln!(out, "{name}_sum {}", hist.sum());
                let _ = writeln!(out, "{name}_count {total}");
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every non-comment line must look like `name{labels}? value`.
    fn assert_parses(text: &str) {
        let mut saw_eof = false;
        for line in text.lines() {
            if line == "# EOF" {
                saw_eof = true;
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty(), "empty metric name in: {line}");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value {value:?} in: {line}"
            );
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {bare:?}"
            );
        }
        assert!(saw_eof, "document must end with # EOF");
    }

    /// A one-family table over the histogram it renders.
    fn histogram_text(name: &'static str, hist: &LogHistogram) -> String {
        let table: &[Family<LogHistogram>] = &[Family {
            name,
            help: "Response time",
            read: |h| Some(Sample::Histogram(h)),
        }];
        render(table, hist)
    }

    #[test]
    fn counters_and_gauges_render() {
        let table: &[Family<()>] = &[
            Family {
                name: "quts_committed_total",
                help: "Committed queries",
                read: |_| Some(Sample::Counter(3)),
            },
            Family {
                name: "quts_rho",
                help: "Bias",
                read: |_| Some(Sample::Gauge(0.625)),
            },
            Family {
                name: "quts_queue_depth",
                help: "Pending transactions",
                read: |_| {
                    let series = vec![("query".into(), 2.0), ("update".into(), 5.0)];
                    Some(Sample::Gauges("class", series))
                },
            },
            Family {
                name: "quts_absent",
                help: "Skipped",
                read: |_| None,
            },
        ];
        let text = render(table, &());
        assert!(text.contains("# HELP quts_committed_total Committed queries\n"));
        assert!(text.contains("# TYPE quts_committed_total counter\n"));
        assert!(text.contains("quts_committed_total 3\n"));
        assert!(text.contains("quts_rho 0.625\n"));
        assert!(text.contains("# TYPE quts_queue_depth gauge\n"));
        assert!(text.contains("quts_queue_depth{class=\"query\"} 2\n"));
        assert!(!text.contains("quts_absent"), "{text}");
        assert_parses(&text);
    }

    #[test]
    fn labeled_counters_render_one_series_per_label() {
        let table: &[Family<()>] = &[Family {
            name: "quts_repl_frames_shipped_total",
            help: "Frames shipped per replica",
            read: |_| {
                let series = vec![("r1".into(), 7), ("r2".into(), 0)];
                Some(Sample::Counters("replica", series))
            },
        }];
        let text = render(table, &());
        assert!(text.contains("# TYPE quts_repl_frames_shipped_total counter\n"));
        assert!(text.contains("quts_repl_frames_shipped_total{replica=\"r1\"} 7\n"));
        assert!(text.contains("quts_repl_frames_shipped_total{replica=\"r2\"} 0\n"));
        assert_parses(&text);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let mut h = LogHistogram::new();
        for v in [50u64, 500, 5_000, 5_000_000] {
            h.record(v);
        }
        for (name, bounds) in [
            ("quts_rt_us", LATENCY_BOUNDS_US),
            ("quts_staleness", COUNT_BOUNDS),
        ] {
            let text = histogram_text(name, &h);
            assert_parses(&text);
            assert!(text.contains(&format!("# TYPE {name} histogram\n")));
            let counts: Vec<u64> = text
                .lines()
                .filter(|l| l.starts_with(&format!("{name}_bucket")))
                .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
                .collect();
            assert_eq!(counts.len(), bounds.len() + 1, "{name}");
            for w in counts.windows(2) {
                assert!(w[0] <= w[1], "buckets must be cumulative: {counts:?}");
            }
            assert_eq!(*counts.last().unwrap(), 4);
            assert!(text.contains(&format!("{name}_sum {}\n", 50 + 500 + 5_000 + 5_000_000)));
            assert!(text.contains(&format!("{name}_count 4\n")));
        }
    }

    #[test]
    fn empty_histogram_renders_zeroes() {
        let text = histogram_text("quts_rt_us", &LogHistogram::new());
        assert!(text.contains("quts_rt_us_bucket{le=\"1000\"} 0\n"));
        assert!(text.contains("quts_rt_us_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("quts_rt_us_sum 0\n"));
        assert_parses(&text);
    }

    #[test]
    #[should_panic(expected = "emitted twice")]
    fn duplicate_family_is_rejected() {
        let table: &[Family<()>] = &[
            Family {
                name: "quts_x_total",
                help: "x",
                read: |_| Some(Sample::Counter(1)),
            },
            Family {
                name: "quts_x_total",
                help: "x again",
                read: |_| Some(Sample::Gauge(2.0)),
            },
        ];
        render(table, &());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn malformed_name_is_rejected() {
        let table: &[Family<()>] = &[Family {
            name: "1starts_with_digit",
            help: "bad",
            read: |_| Some(Sample::Counter(1)),
        }];
        render(table, &());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Names valid by the Prometheus grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn metric_name() -> impl Strategy<Value = String> {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:";
        (
            0usize..FIRST.len(),
            proptest::collection::vec(0usize..REST.len(), 0..20),
        )
            .prop_map(|(first, rest)| {
                let mut s = String::new();
                s.push(FIRST[first] as char);
                for i in rest {
                    s.push(REST[i] as char);
                }
                s
            })
    }

    /// One arbitrary metric family to append to a document.
    #[derive(Debug, Clone)]
    enum Gen {
        Counter(u64),
        Gauge(f64),
        Labeled(Vec<(String, f64)>),
        Histogram(LogHistogram),
    }

    fn family() -> impl Strategy<Value = Gen> {
        prop_oneof![
            proptest::num::u64::ANY.prop_map(Gen::Counter),
            (-1e12..1e12f64).prop_map(Gen::Gauge),
            proptest::collection::vec(
                (proptest::collection::vec(0usize..26, 1..8), -1e6..1e6f64),
                1..4
            )
            .prop_map(|series| Gen::Labeled(
                series
                    .into_iter()
                    .map(|(idx, v)| {
                        (idx.iter().map(|&i| (b'a' + i as u8) as char).collect(), v)
                    })
                    .collect()
            )),
            proptest::collection::vec(0u64..10_000_000, 0..20).prop_map(|values| {
                let mut h = LogHistogram::new();
                for v in values {
                    h.record(v);
                }
                Gen::Histogram(h)
            }),
        ]
    }

    /// The generated families, read in table order: every row shares
    /// one reader, which takes the next family.
    struct Cursor {
        families: Vec<Gen>,
        next: Cell<usize>,
    }

    fn read_next(cursor: &Cursor) -> Option<Sample<'_>> {
        let at = cursor.next.replace(cursor.next.get() + 1);
        Some(match &cursor.families[at] {
            Gen::Counter(v) => Sample::Counter(*v),
            Gen::Gauge(v) => Sample::Gauge(*v),
            Gen::Labeled(series) => Sample::Gauges("dim", series.clone()),
            Gen::Histogram(h) => Sample::Histogram(h),
        })
    }

    proptest! {
        /// Exposition hygiene: whatever mix of families a table holds
        /// (distinct names, as `render` enforces), every sample and
        /// header line carries a grammar-valid name, every value
        /// parses, and no `# TYPE` line appears twice.
        #[test]
        fn documents_are_hygienic(
            entries in proptest::collection::vec((metric_name(), family()), 0..12),
        ) {
            let mut used = HashSet::new();
            let mut table = Vec::new();
            let mut families = Vec::new();
            for (name, fam) in entries {
                // `render` rejects duplicates by design; the generator
                // may produce them, so skip those here.
                if !used.insert(name.clone()) {
                    continue;
                }
                table.push(Family::<Cursor> {
                    name: Box::leak(name.into_boxed_str()),
                    help: "h",
                    read: read_next,
                });
                families.push(fam);
            }
            let text = render(&table, &Cursor { families, next: Cell::new(0) });
            let mut type_lines = HashSet::new();
            for line in text.lines() {
                if line == "# EOF" {
                    continue;
                }
                if let Some(rest) = line.strip_prefix("# TYPE ") {
                    prop_assert!(
                        type_lines.insert(rest.to_string()),
                        "duplicate TYPE line: {}", line
                    );
                    let family_name = rest.split(' ').next().unwrap();
                    prop_assert!(valid_metric_name(family_name), "bad TYPE name: {}", line);
                    continue;
                }
                if line.starts_with("# HELP ") {
                    continue;
                }
                let (name, value) = line.rsplit_once(' ').unwrap();
                prop_assert!(value.parse::<f64>().is_ok(), "bad value in: {}", line);
                let bare = name.split('{').next().unwrap();
                prop_assert!(valid_metric_name(bare), "bad sample name in: {}", line);
            }
            prop_assert!(text.ends_with("# EOF\n"));
        }

        /// The grammar predicate agrees with a reference implementation
        /// over arbitrary byte soup (decoded lossily).
        #[test]
        fn name_grammar_matches_reference(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..12),
        ) {
            let s = String::from_utf8_lossy(&bytes).into_owned();
            let reference = !s.is_empty()
                && s.chars().enumerate().all(|(i, c)| {
                    let base = c.is_ascii_alphabetic() || c == '_' || c == ':';
                    if i == 0 { base } else { base || c.is_ascii_digit() }
                });
            prop_assert_eq!(valid_metric_name(&s), reference);
        }
    }
}
