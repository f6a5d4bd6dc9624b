//! The event sink: Chrome `trace_event` JSON.
//!
//! The Chrome format follows the Trace Event Format spec's JSON object
//! flavor: a top-level object with a `traceEvents` array of events,
//! each carrying `name`, `cat`, `ph` (phase), `ts`/`dur` in
//! *microseconds*, and `pid`/`tid`. Spans use phase `"X"` (complete
//! events), instants phase `"i"` with scope `"t"`, counters phase
//! `"C"`, and process metadata phase `"M"` — all loadable in
//! `chrome://tracing` and Perfetto.

use crate::json;
use crate::{ArgValue, Event, Snapshot};

/// The pid all events carry (one simulated process).
pub const TRACE_PID: u64 = 1;

/// Renders a finite float the JSON grammar accepts (NaN/∞ → null).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn args_object(args: &[(&'static str, ArgValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(&mut out, key);
        out.push(':');
        match value {
            ArgValue::U64(v) => out.push_str(&v.to_string()),
            ArgValue::I64(v) => out.push_str(&v.to_string()),
            ArgValue::F64(v) => out.push_str(&json_number(*v)),
            ArgValue::Str(s) => json::push_string(&mut out, s),
        }
    }
    out.push('}');
    out
}

fn event_json(e: &Event) -> String {
    let ts_us = e.ts_ns as f64 / 1e3;
    match e.dur_ns {
        Some(dur) => format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{TRACE_PID},\"tid\":{},\"args\":{}}}",
            json::string(&e.name),
            json::string(e.cat),
            json_number(ts_us),
            json_number(dur as f64 / 1e3),
            e.tid,
            args_object(&e.args),
        ),
        None => format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":{TRACE_PID},\"tid\":{},\"args\":{}}}",
            json::string(&e.name),
            json::string(e.cat),
            json_number(ts_us),
            e.tid,
            args_object(&e.args),
        ),
    }
}

/// Serializes events and counters as a Chrome `trace_event` JSON
/// document.
#[must_use]
pub fn chrome_trace_json(events: &[Event], snapshot: &Snapshot) -> String {
    let last_ts_us = events.iter().map(|e| e.ts_ns).max().unwrap_or(0) as f64 / 1e3;
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 8);
    entries.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{TRACE_PID},\"tid\":0,\
         \"args\":{{\"name\":\"syncperf\"}}}}"
    ));
    entries.extend(events.iter().map(event_json));
    for (name, value) in &snapshot.counters {
        entries.push(format!(
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{TRACE_PID},\"tid\":0,\
             \"args\":{{\"value\":{value}}}}}",
            json::string(name),
            json_number(last_ts_us),
        ));
    }
    for (name, value) in &snapshot.gauges {
        entries.push(format!(
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{TRACE_PID},\"tid\":0,\
             \"args\":{{\"value\":{value}}}}}",
            json::string(name),
            json_number(last_ts_us),
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\",\"otherData\":{{\
         \"droppedEvents\":{}}}}}",
        entries.join(","),
        snapshot.dropped_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::Recorder;

    fn sample() -> (Vec<Event>, Snapshot) {
        let rec = Recorder::tracing();
        let c = rec.counter("proto.attempts");
        c.add(3);
        rec.gauge("cpu.queue_depth").record(7);
        {
            let mut s = rec.span("protocol", "measure");
            s.push_arg("kernel", "omp_barrier");
            s.push_arg("runs", 9u64);
            rec.instant_args(
                "protocol",
                "attempt_rejected",
                vec![
                    ("attempt", ArgValue::U64(2)),
                    ("delta", ArgValue::F64(-1.5e-9)),
                ],
            );
        }
        (rec.drain_events(), rec.snapshot())
    }

    /// The acceptance-criteria schema check: the Chrome export must be
    /// valid JSON whose traceEvents all carry the required fields with
    /// the right types, and phase-specific fields where mandated.
    #[test]
    fn chrome_trace_validates_against_trace_event_schema() {
        let (events, snap) = sample();
        let doc = parse(&chrome_trace_json(&events, &snap)).expect("sink must emit valid JSON");

        let list = doc
            .get("traceEvents")
            .expect("traceEvents key")
            .as_array()
            .unwrap();
        assert!(!list.is_empty());
        for entry in list {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .expect("name: string");
            assert!(!name.is_empty());
            let ph = entry.get("ph").and_then(Value::as_str).expect("ph: string");
            assert!(
                matches!(ph, "X" | "i" | "C" | "M"),
                "unexpected phase {ph:?}"
            );
            let ts = entry.get("ts").and_then(Value::as_f64).expect("ts: number");
            assert!(ts >= 0.0);
            entry
                .get("pid")
                .and_then(Value::as_f64)
                .expect("pid: number");
            match ph {
                "X" => {
                    let dur = entry
                        .get("dur")
                        .and_then(Value::as_f64)
                        .expect("X needs dur");
                    assert!(dur >= 0.0);
                    entry
                        .get("tid")
                        .and_then(Value::as_f64)
                        .expect("X needs tid");
                    entry
                        .get("cat")
                        .and_then(Value::as_str)
                        .expect("X needs cat");
                }
                "i" => {
                    assert_eq!(
                        entry.get("s").and_then(Value::as_str),
                        Some("t"),
                        "instant scope"
                    );
                    entry
                        .get("tid")
                        .and_then(Value::as_f64)
                        .expect("i needs tid");
                }
                "C" => {
                    entry
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Value::as_f64)
                        .expect("C needs args.value");
                }
                _ => {}
            }
        }
        // Both counters and gauges surface as counter events.
        let counter_names: Vec<&str> = list
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(counter_names.contains(&"proto.attempts"));
        assert!(counter_names.contains(&"cpu.queue_depth"));
    }

    #[test]
    fn span_args_survive_the_round_trip() {
        let (events, snap) = sample();
        let doc = parse(&chrome_trace_json(&events, &snap)).unwrap();
        let span = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("measure"))
            .expect("span present");
        let args = span.get("args").unwrap();
        assert_eq!(
            args.get("kernel").and_then(Value::as_str),
            Some("omp_barrier")
        );
        assert_eq!(args.get("runs").and_then(Value::as_f64), Some(9.0));
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        // A name with quotes must still produce parseable output.
        let rec = Recorder::tracing();
        rec.instant("cat", "name \"with\" quotes");
        let events = rec.drain_events();
        parse(&chrome_trace_json(&events, &rec.snapshot())).unwrap();
    }

    #[test]
    fn empty_trace_still_valid() {
        let doc = parse(&chrome_trace_json(&[], &Snapshot::default())).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() == 1);
        // metadata only
    }
}
