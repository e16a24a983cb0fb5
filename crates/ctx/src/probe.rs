//! Probe implementations beyond the context's built-in accumulator.
//!
//! The [`SolverContext`](crate::SolverContext) records effort into its
//! own [`SolverStats`](crate::SolverStats); an *extra* probe mirrors the
//! same event stream elsewhere. This module provides the structured log
//! sink: [`JsonLinesProbe`] serializes every counter increment, phase
//! timing, and named event as one JSON object per line behind any
//! [`Write`] — a file, a `Vec<u8>`, stderr — so solver effort can be
//! tailed and post-processed without a logging dependency.
//!
//! A single probe often needs to back several contexts (the online loop
//! creates one context per degradation rung); the blanket
//! `impl Probe for Rc<P>` below makes `Box::new(Rc::clone(&probe))`
//! attachable to each of them.
//!
//! # Examples
//!
//! ```
//! use jcr_ctx::probe::JsonLinesProbe;
//! use jcr_ctx::{Counter, Probe, SolverContext};
//!
//! let probe = JsonLinesProbe::new(Vec::new());
//! probe.event("rung", &[("hour", "3"), ("rung", "carry-forward")]);
//! let ctx = SolverContext::new().with_probe(Box::new(probe));
//! ctx.count(Counter::SimplexPivots, 2);
//! ```

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use crate::json::render_string;
use crate::{Counter, Phase, Probe};

impl<P: Probe + ?Sized> Probe for Rc<P> {
    fn count(&self, counter: Counter, by: u64) {
        (**self).count(counter, by);
    }

    fn phase_elapsed(&self, phase: Phase, nanos: u64) {
        (**self).phase_elapsed(phase, nanos);
    }

    fn event(&self, name: &str, fields: &[(&str, &str)]) {
        (**self).event(name, fields);
    }
}

/// A [`Probe`] that streams solver events as JSON lines to a writer.
///
/// Each call produces one self-contained JSON object terminated by a
/// newline, stamped with `ts_us` — microseconds since the probe was
/// created, clamped to be monotonically non-decreasing across lines even
/// if the platform clock steps:
///
/// ```text
/// {"ts_us":12,"event":"count","counter":"simplex pivots","by":17}
/// {"ts_us":61,"event":"phase","phase":"simplex","nanos":48211}
/// {"ts_us":70,"event":"rung","hour":"2","rung":"incumbent","status":"served"}
/// ```
///
/// Write errors are swallowed: observability must never fail a solve.
pub struct JsonLinesProbe<W: Write> {
    sink: RefCell<W>,
    epoch: Instant,
    last_ts_us: Cell<u64>,
}

impl<W: Write> JsonLinesProbe<W> {
    /// Wraps `sink`; every probe call appends one JSON line to it. The
    /// `ts_us` clock starts now.
    pub fn new(sink: W) -> Self {
        JsonLinesProbe {
            sink: RefCell::new(sink),
            epoch: Instant::now(),
            last_ts_us: Cell::new(0),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> W {
        let mut sink = self.sink.into_inner();
        let _ = sink.flush();
        sink
    }

    /// Microseconds since probe creation, never decreasing across calls.
    fn ts_us(&self) -> u64 {
        let now = self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let ts = now.max(self.last_ts_us.get());
        self.last_ts_us.set(ts);
        ts
    }

    fn write_line(&self, line: &str) {
        let mut sink = self.sink.borrow_mut();
        let _ = writeln!(sink, "{line}");
    }
}

/// `s` as a quoted JSON string, escaped by the workspace codec.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    render_string(&mut out, s);
    out
}

impl<W: Write> Probe for JsonLinesProbe<W> {
    fn count(&self, counter: Counter, by: u64) {
        self.write_line(&format!(
            "{{\"ts_us\":{},\"event\":\"count\",\"counter\":{},\"by\":{by}}}",
            self.ts_us(),
            quoted(counter.name())
        ));
    }

    fn phase_elapsed(&self, phase: Phase, nanos: u64) {
        self.write_line(&format!(
            "{{\"ts_us\":{},\"event\":\"phase\",\"phase\":{},\"nanos\":{nanos}}}",
            self.ts_us(),
            quoted(phase.name())
        ));
    }

    fn event(&self, name: &str, fields: &[(&str, &str)]) {
        let mut line = format!("{{\"ts_us\":{},\"event\":{}", self.ts_us(), quoted(name));
        for (key, value) in fields {
            line.push_str(&format!(",{}:{}", quoted(key), quoted(value)));
        }
        line.push('}');
        self.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverContext;

    /// A shared in-memory sink (the probe consumes its writer, so tests
    /// keep a second handle to read what was written).
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.borrow().clone()).unwrap()
        }
    }

    /// Splits a probe line into its `ts_us` value and the remainder of
    /// the object (everything after the `ts_us` field's comma).
    fn split_ts(line: &str) -> (u64, &str) {
        let rest = line
            .strip_prefix("{\"ts_us\":")
            .expect("line starts with ts_us");
        let comma = rest.find(',').expect("ts_us is not the only field");
        let ts: u64 = rest[..comma].parse().expect("ts_us is an integer");
        (ts, &rest[comma + 1..])
    }

    #[test]
    fn streams_counters_phases_and_events_as_json_lines() {
        let buf = SharedBuf::default();
        let probe = JsonLinesProbe::new(buf.clone());
        probe.count(Counter::SimplexPivots, 17);
        probe.phase_elapsed(Phase::Simplex, 48);
        probe.event("rung", &[("hour", "2"), ("rung", "incumbent")]);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        let bodies: Vec<&str> = lines.iter().map(|l| split_ts(l).1).collect();
        assert_eq!(
            bodies[0],
            "\"event\":\"count\",\"counter\":\"simplex pivots\",\"by\":17}"
        );
        assert_eq!(
            bodies[1],
            "\"event\":\"phase\",\"phase\":\"simplex\",\"nanos\":48}"
        );
        assert_eq!(
            bodies[2],
            "\"event\":\"rung\",\"hour\":\"2\",\"rung\":\"incumbent\"}"
        );
    }

    #[test]
    fn ts_us_is_monotonically_non_decreasing() {
        let buf = SharedBuf::default();
        let probe = JsonLinesProbe::new(buf.clone());
        for i in 0..50 {
            probe.count(Counter::SimplexPivots, i);
        }
        let text = buf.contents();
        let stamps: Vec<u64> = text.lines().map(|l| split_ts(l).0).collect();
        assert_eq!(stamps.len(), 50);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn escapes_json_special_characters() {
        let probe = JsonLinesProbe::new(Vec::new());
        probe.event("note", &[("msg", "a \"quoted\"\\\nline")]);
        let text = String::from_utf8(probe.into_inner()).unwrap();
        let (_, body) = split_ts(text.trim_end());
        assert_eq!(
            body,
            "\"event\":\"note\",\"msg\":\"a \\\"quoted\\\"\\\\\\nline\"}"
        );
    }

    #[test]
    fn shared_probe_backs_multiple_contexts() {
        let buf = SharedBuf::default();
        let probe: Rc<dyn Probe> = Rc::new(JsonLinesProbe::new(buf.clone()));
        let a = SolverContext::new().with_probe(Box::new(Rc::clone(&probe)));
        let b = SolverContext::new().with_probe(Box::new(Rc::clone(&probe)));
        a.count(Counter::DijkstraCalls, 1);
        b.emit("rung", &[("rung", "full")]);
        let text = buf.contents();
        assert!(text.contains("\"counter\":\"dijkstra calls\""), "{text}");
        assert!(text.contains("\"rung\":\"full\""), "{text}");
    }
}
