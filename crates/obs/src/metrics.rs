//! Prometheus-style text exposition for [`Snapshot`]s.
//!
//! [`render`] turns any snapshot — counters, gauges, histograms, and
//! event-drop counts — into `# TYPE`-annotated exposition text, the
//! format served by `GET /metrics` and written by every session
//! binary's `--metrics`. [`parse`] is the inverse (up to log-bucket
//! resolution), so `syncperf-top` and the golden tests consume the
//! same schema the renderer produces instead of scraping ad-hoc JSON.
//!
//! Naming: snapshot keys pass through [`sanitize_name`], which maps
//! every character outside `[a-zA-Z0-9_:]` to `_` (so `serve.requests`
//! becomes `serve_requests`). Histograms expose the standard
//! cumulative `<name>_bucket{le="..."}` series (log2 boundaries, only
//! non-empty buckets plus `+Inf`) with `<name>_sum` / `<name>_count`,
//! plus `<name>_min` / `<name>_max` gauges so observed extremes
//! survive the round trip.

use crate::hist::{bucket_upper, HistogramSnapshot, BUCKETS};
use crate::{GaugeMode, Snapshot};
use std::fmt::Write as _;

/// Maps `name` into the exposition charset: every character outside
/// `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gets a `_` prefix.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders `snap` in Prometheus-style text exposition format.
#[must_use]
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let mode = snap.gauge_modes.get(name).copied().unwrap_or_default();
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{{mode=\"{}\"}} {value}", mode.label());
    }
    for (name, h) in &snap.histograms {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (b, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper(b));
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {cum}");
        let _ = writeln!(out, "# TYPE {name}_min gauge");
        let _ = writeln!(out, "{name}_min {}", h.min());
        let _ = writeln!(out, "# TYPE {name}_max gauge");
        let _ = writeln!(out, "{name}_max {}", h.max());
    }
    let _ = writeln!(out, "# TYPE events_dropped_total counter");
    let _ = writeln!(out, "events_dropped_total {}", snap.dropped_events);
    for (tid, dropped) in &snap.dropped_by_thread {
        let _ = writeln!(out, "events_dropped{{tid=\"{tid}\"}} {dropped}");
    }
    out
}

/// One parsed exposition sample: name, optional single label, value.
struct Sample<'a> {
    name: &'a str,
    label: Option<(&'a str, &'a str)>,
    value: u64,
}

fn parse_sample(line: &str) -> Option<Sample<'_>> {
    let (metric, value) = line.rsplit_once(' ')?;
    let value = value.trim().parse::<f64>().ok()?;
    let (name, label) = match metric.split_once('{') {
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let (key, val) = body.split_once('=')?;
            let val = val.trim_matches('"');
            (name, Some((key, val)))
        }
        None => (metric, None),
    };
    Some(Sample {
        name,
        label,
        value: value as u64,
    })
}

/// Parses exposition text produced by [`render`] back into a
/// [`Snapshot`]. Histogram bucket counts are exact; per-bucket `min`
/// and `max` come from the `_min`/`_max` companion gauges. Lines that
/// do not fit the schema are skipped (never an error), so the parser
/// tolerates exposition from other producers.
#[must_use]
pub fn parse(text: &str) -> Snapshot {
    let mut snap = Snapshot::default();
    let mut kinds: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                kinds.insert(name.to_string(), kind.trim().to_string());
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(sample) = parse_sample(line) else {
            continue;
        };
        // Histogram series: `<base>_bucket{le=..}`, `<base>_sum`,
        // `<base>_count`, plus `_min`/`_max` companions.
        if let Some(base) = sample.name.strip_suffix("_bucket") {
            if kinds.get(base).map(String::as_str) == Some("histogram") {
                if let Some(("le", le)) = sample.label {
                    let h = snap.histograms.entry(base.to_string()).or_default();
                    let bucket = if le == "+Inf" {
                        BUCKETS - 1
                    } else {
                        let Ok(upper) = le.parse::<u64>() else {
                            continue;
                        };
                        (0..BUCKETS)
                            .find(|&b| bucket_upper(b) >= upper)
                            .unwrap_or(BUCKETS - 1)
                    };
                    // Cumulative → per-bucket: subtract what earlier
                    // buckets already hold.
                    let prior: u64 = h.counts.iter().take(bucket + 1).sum();
                    h.counts[bucket] += sample.value.saturating_sub(prior);
                }
                continue;
            }
        }
        let mut consumed = false;
        for suffix in ["_sum", "_count", "_min", "_max"] {
            let Some(base) = sample.name.strip_suffix(suffix) else {
                continue;
            };
            if kinds.get(base).map(String::as_str) != Some("histogram") {
                continue;
            }
            let h = snap.histograms.entry(base.to_string()).or_default();
            match suffix {
                "_sum" => h.sum = sample.value,
                "_min" => h.min_seen = sample.value,
                "_max" => h.max_seen = sample.value,
                // `_count` is implied by the +Inf bucket.
                _ => {}
            }
            consumed = true;
            break;
        }
        if consumed {
            continue;
        }
        if sample.name == "events_dropped_total" {
            snap.dropped_events = sample.value;
            continue;
        }
        if sample.name == "events_dropped" {
            if let Some(("tid", tid)) = sample.label {
                if let Ok(tid) = tid.parse::<u64>() {
                    snap.dropped_by_thread.insert(tid, sample.value);
                }
            }
            continue;
        }
        match kinds.get(sample.name).map(String::as_str) {
            Some("counter") => {
                snap.counters.insert(sample.name.to_string(), sample.value);
            }
            Some("gauge") => {
                snap.gauges.insert(sample.name.to_string(), sample.value);
                let mode = match sample.label {
                    Some(("mode", "set")) => GaugeMode::Set,
                    _ => GaugeMode::Max,
                };
                snap.gauge_modes.insert(sample.name.to_string(), mode);
            }
            _ => {}
        }
    }
    // An empty-count histogram parsed from `_min 0 / _max 0` keeps the
    // canonical empty sentinel.
    for h in snap.histograms.values_mut() {
        if h.count() == 0 {
            *h = HistogramSnapshot::default();
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize_name("serve.requests"), "serve_requests");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn parsed_snapshots_answer_lookups_by_their_recorded_names() {
        let rec = Recorder::enabled();
        rec.counter("sched.jobs").add(3204);
        rec.gauge("sched.queue_depth_peak").record(9);
        rec.histogram("sched.wait_us").observe(40);
        let parsed = parse(&render(&rec.snapshot()));
        assert_eq!(parsed.counter("sched.jobs"), 3204);
        assert_eq!(parsed.counter("sched_jobs"), 3204);
        assert_eq!(parsed.gauge("sched.queue_depth_peak"), 9);
        assert_eq!(parsed.histogram("sched.wait_us").count(), 1);
        assert_eq!(parsed.counter("sched.missing"), 0);
    }

    #[test]
    fn render_has_type_lines_for_every_family() {
        let rec = Recorder::enabled();
        rec.counter("serve.requests").add(3);
        rec.gauge_set("sched.queue_depth").set(2);
        rec.histogram("serve.latency_us").observe(150);
        let text = render(&rec.snapshot());
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("serve_requests 3"));
        assert!(text.contains("# TYPE sched_queue_depth gauge"));
        assert!(text.contains("sched_queue_depth{mode=\"set\"} 2"));
        assert!(text.contains("# TYPE serve_latency_us histogram"));
        assert!(text.contains("serve_latency_us_bucket{le=\"255\"} 1"));
        assert!(text.contains("serve_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("serve_latency_us_sum 150"));
        assert!(text.contains("serve_latency_us_count 1"));
        assert!(text.contains("# TYPE events_dropped_total counter"));
    }

    #[test]
    fn parse_round_trips_render() {
        let rec = Recorder::enabled();
        rec.counter("jobs").add(17);
        rec.gauge("peak").record(9);
        rec.gauge_set("depth").set(4);
        let h = rec.histogram("wait_us");
        for v in [3u64, 3, 200, 5000, 70000] {
            h.observe(v);
        }
        let snap = rec.snapshot();
        let parsed = parse(&render(&snap));
        assert_eq!(parsed.counter("jobs"), 17);
        assert_eq!(parsed.gauge("peak"), 9);
        assert_eq!(parsed.gauge("depth"), 4);
        assert_eq!(parsed.gauge_modes["depth"], GaugeMode::Set);
        let orig = snap.histogram("wait_us");
        let back = parsed.histogram("wait_us");
        assert_eq!(back.counts, orig.counts, "bucket counts survive exactly");
        assert_eq!(back.sum, orig.sum);
        assert_eq!(back.min(), orig.min());
        assert_eq!(back.max(), orig.max());
        assert_eq!(back.quantile(0.5), orig.quantile(0.5));
    }

    #[test]
    fn parse_skips_foreign_lines() {
        let text = "# HELP something else\ngarbage line without value x\nup 1\n";
        let snap = parse(text);
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
