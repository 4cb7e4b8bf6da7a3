//! Builder and validator for the chrome-trace / Perfetto JSON format.
//!
//! The output is the classic "JSON Array Format" (`{"traceEvents":
//! [...]}`) that both `chrome://tracing` and [ui.perfetto.dev] load
//! directly. Six phases are used:
//!
//! * `"M"` — metadata naming processes (track groups) and threads
//!   (tracks);
//! * `"X"` — complete events: a span with `ts` + `dur`;
//! * `"i"` — instant events;
//! * `"C"` — counter samples;
//! * `"s"` / `"f"` — the start and end of a flow arrow.
//!
//! The builder renders each event's JSON text as the event is added and
//! keeps only its byte range and `ts`. [`PerfettoTrace::finish`] orders
//! the events, metadata first, then timed events by a stable sort on
//! `ts`, so the produced JSON is deterministic for a deterministic input
//! stream and satisfies the monotonicity property `sb-check` verifies.
//! The text is exactly what [`JsonValue`]'s writer gives the same
//! document as a tree.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! # Examples
//!
//! ```
//! use sb_obs::perfetto::{validate, PerfettoTrace};
//!
//! let mut t = PerfettoTrace::new();
//! t.process_name(0, "cores");
//! t.thread_name(0, 0, "core 0");
//! t.complete(0, 0, "c0#1", "chunk", 10, 25, vec![]);
//! t.instant(0, 0, "inv", "inv", 20);
//! let json = t.to_json();
//! assert!(validate(&json).is_empty());
//! ```

use std::fmt;
use std::ops::Range;

use crate::json::{write_escaped, JsonValue};

/// In-progress chrome-trace document.
///
/// Each event's JSON text is rendered into one arena as the event is
/// added; per event only its byte range (and, for timed events, its
/// `ts`) is kept, so no per-event JSON tree is ever built.
#[derive(Debug, Default)]
pub struct PerfettoTrace {
    /// Every event's JSON text, back to back.
    text: String,
    /// Metadata ("M") events, emitted ahead of all timed events.
    meta: Vec<Range<usize>>,
    /// Timed events in insertion order: `ts` and the event's text.
    events: Vec<(u64, Range<usize>)>,
}

/// A finished chrome-trace document. `Display` writes its compact JSON
/// text in one pass: the same bytes as [`JsonValue`]'s writer gives the
/// document's tree, which [`PerfettoDocument::to_json`] parses back.
#[derive(Debug)]
pub struct PerfettoDocument {
    /// The whole document's text.
    text: String,
    /// Number of entries in `traceEvents`.
    len: usize,
}

/// Writes an integer as `JsonValue::from(u64)` does.
fn write_int(out: &mut String, v: u64) {
    JsonValue::from(v).write(out);
}

/// Writes `,"key":`, the start of a member after the first.
fn key(out: &mut String, key: &str) {
    out.push(',');
    write_escaped(key, out);
    out.push(':');
}

impl PerfettoTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a process (a group of tracks in the Perfetto UI).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Names a thread (one track).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        let start = self.text.len();
        let out = &mut self.text;
        out.push_str("{\"name\":");
        write_escaped(kind, out);
        key(out, "ph");
        write_escaped("M", out);
        key(out, "pid");
        write_int(out, pid);
        key(out, "tid");
        write_int(out, tid);
        key(out, "args");
        out.push_str("{\"name\":");
        write_escaped(name, out);
        out.push_str("}}");
        self.meta.push(start..self.text.len());
    }

    /// Starts a timed event with the members every phase shares, in
    /// order `name`, `cat`, `ph`, `ts`, `pid`, `tid`; returns where its
    /// text starts. [`PerfettoTrace::end`] closes it.
    fn begin(&mut self, ph: &str, pid: u64, tid: u64, name: &str, cat: &str, ts: u64) -> usize {
        let start = self.text.len();
        let out = &mut self.text;
        out.push_str("{\"name\":");
        write_escaped(name, out);
        key(out, "cat");
        write_escaped(cat, out);
        key(out, "ph");
        write_escaped(ph, out);
        key(out, "ts");
        write_int(out, ts);
        key(out, "pid");
        write_int(out, pid);
        key(out, "tid");
        write_int(out, tid);
        start
    }

    /// Closes the timed event whose text starts at `start`.
    fn end(&mut self, start: usize, ts: u64) {
        self.text.push('}');
        self.events.push((ts, start..self.text.len()));
    }

    /// Adds a complete ("X") span of `dur` ticks starting at `ts`.
    // One parameter per chrome-trace field; a builder would obscure the
    // 1:1 mapping to the format.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts: u64,
        dur: u64,
        args: Vec<(String, JsonValue)>,
    ) {
        let start = self.begin("X", pid, tid, name, cat, ts);
        key(&mut self.text, "dur");
        write_int(&mut self.text, dur);
        if !args.is_empty() {
            key(&mut self.text, "args");
            JsonValue::Object(args).write(&mut self.text);
        }
        self.end(start, ts);
    }

    /// Adds a thread-scoped instant ("i") event.
    pub fn instant(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: u64) {
        let start = self.begin("i", pid, tid, name, cat, ts);
        key(&mut self.text, "s");
        write_escaped("t", &mut self.text);
        self.end(start, ts);
    }

    /// Adds a counter ("C") sample: the named series on track
    /// `(pid, tid)` takes `value` from `ts` on.
    pub fn counter(&mut self, pid: u64, tid: u64, name: &str, ts: u64, series: &str, value: u64) {
        let start = self.begin("C", pid, tid, name, "counter", ts);
        let out = &mut self.text;
        key(out, "args");
        out.push('{');
        write_escaped(series, out);
        out.push(':');
        write_int(out, value);
        out.push('}');
        self.end(start, ts);
    }

    /// Starts a flow ("s") with the given numeric id at `ts` on track
    /// `(pid, tid)`. The Perfetto UI draws an arrow from here to the
    /// matching [`PerfettoTrace::flow_end`] — tracks may differ (that is
    /// the point: flows link a send on one track to a delivery on
    /// another).
    pub fn flow_start(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: u64, id: u64) {
        let start = self.begin("s", pid, tid, name, cat, ts);
        key(&mut self.text, "id");
        write_int(&mut self.text, id);
        self.end(start, ts);
    }

    /// Ends a flow ("f") with the given numeric id at `ts` on track
    /// `(pid, tid)`. Uses `"bp":"e"` (bind to enclosing slice) per the
    /// chrome-trace format.
    pub fn flow_end(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: u64, id: u64) {
        let start = self.begin("f", pid, tid, name, cat, ts);
        key(&mut self.text, "bp");
        write_escaped("e", &mut self.text);
        key(&mut self.text, "id");
        write_int(&mut self.text, id);
        self.end(start, ts);
    }

    /// Finishes the document: metadata first, then all timed events in
    /// stable non-decreasing `ts` order.
    pub fn finish(mut self) -> PerfettoDocument {
        self.events.sort_by_key(|(ts, _)| *ts);
        let timed = self.events.iter().map(|(_, range)| range);
        let len = self.meta.len() + self.events.len();
        PerfettoDocument::join(&self.text, len, self.meta.iter().chain(timed))
    }

    /// Finishes the document as a JSON tree.
    pub fn to_json(self) -> JsonValue {
        self.finish().to_json()
    }
}

impl PerfettoDocument {
    /// Joins the `len` events of `arena` at `ranges`, in that order, into
    /// one `traceEvents` array.
    fn join<'a>(arena: &str, len: usize, ranges: impl Iterator<Item = &'a Range<usize>>) -> Self {
        const HEAD: &str = "{\"traceEvents\":[";
        const TAIL: &str = "]}";
        // The ranges cover the arena, with a comma between each two.
        let mut text =
            String::with_capacity(HEAD.len() + arena.len() + len.saturating_sub(1) + TAIL.len());
        text.push_str(HEAD);
        for (i, range) in ranges.enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&arena[range.clone()]);
        }
        text.push_str(TAIL);
        PerfettoDocument { text, len }
    }

    /// Number of entries in `traceEvents` (metadata + timed).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the document has no events at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The document as a JSON tree, parsed from its text.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::parse(&self.text).expect("a rendered trace is valid JSON")
    }
}

impl fmt::Display for PerfettoDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Structural well-formedness check of a chrome-trace document.
///
/// Returns human-readable violations (empty = clean):
/// * the root must be an object with a `traceEvents` array;
/// * every event needs `ph`/`pid`/`tid`/`name`, with a known phase;
/// * timed events need a non-negative integer `ts` (and `dur` for
///   `"X"`);
/// * per `(pid, tid)` track, timestamps must be monotonically
///   non-decreasing in array order;
/// * flow events (`"s"`/`"f"`) need a numeric `id`, and every id must
///   bind exactly one start to exactly one end, with the end no earlier
///   than the start (the two may live on different tracks).
pub fn validate(trace: &JsonValue) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(events) = trace.get("traceEvents").and_then(|e| e.as_array()) else {
        return vec!["root has no traceEvents array".to_string()];
    };
    let mut last_ts: Vec<((i64, i64), i64)> = Vec::new();
    // Per flow id: (start ts, end ts) as seen so far.
    let mut flows: std::collections::BTreeMap<i64, (Option<i64>, Option<i64>)> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let Some(ph) = ev.get("ph").and_then(|p| p.as_str()) else {
            violations.push(format!("event {i}: missing ph"));
            continue;
        };
        if !matches!(ph, "M" | "X" | "i" | "C" | "s" | "f") {
            violations.push(format!("event {i}: unknown phase {ph:?}"));
            continue;
        }
        let pid = ev.get("pid").and_then(|v| v.as_i64());
        let tid = ev.get("tid").and_then(|v| v.as_i64());
        if pid.is_none() || tid.is_none() {
            violations.push(format!("event {i}: missing pid/tid"));
            continue;
        }
        if ev.get("name").and_then(|n| n.as_str()).is_none() {
            violations.push(format!("event {i}: missing name"));
        }
        if ph == "M" {
            continue;
        }
        let Some(ts) = ev.get("ts").and_then(|v| v.as_i64()) else {
            violations.push(format!("event {i}: timed event missing ts"));
            continue;
        };
        if ts < 0 {
            violations.push(format!("event {i}: negative ts {ts}"));
        }
        if ph == "X" {
            match ev.get("dur").and_then(|v| v.as_i64()) {
                Some(d) if d >= 0 => {}
                Some(d) => violations.push(format!("event {i}: negative dur {d}")),
                None => violations.push(format!("event {i}: X event missing dur")),
            }
        }
        if ph == "s" || ph == "f" {
            match ev.get("id").and_then(|v| v.as_i64()) {
                None => violations.push(format!("event {i}: flow event missing id")),
                Some(id) => {
                    let entry = flows.entry(id).or_default();
                    let slot = if ph == "s" {
                        &mut entry.0
                    } else {
                        &mut entry.1
                    };
                    if slot.is_some() {
                        violations.push(format!(
                            "event {i}: duplicate flow {} for id {id}",
                            if ph == "s" { "start" } else { "end" }
                        ));
                    } else {
                        *slot = Some(ts);
                    }
                }
            }
        }
        let key = (pid.unwrap(), tid.unwrap());
        match last_ts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                if ts < *last {
                    violations.push(format!(
                        "event {i}: ts {ts} goes backwards on track {key:?} (last {last})"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((key, ts)),
        }
    }
    for (id, (start, end)) in &flows {
        match (start, end) {
            (Some(s), Some(f)) => {
                if f < s {
                    violations.push(format!("flow id {id}: ends at {f} before its start {s}"));
                }
            }
            (Some(_), None) => violations.push(format!("flow id {id}: start without end")),
            (None, Some(_)) => violations.push(format!("flow id {id}: end without start")),
            (None, None) => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfettoTrace {
        let mut t = PerfettoTrace::new();
        t.process_name(0, "cores");
        t.process_name(1, "directories");
        t.thread_name(0, 0, "core 0");
        t.thread_name(1, 3, "dir 3");
        t.complete(
            0,
            0,
            "c0#1",
            "chunk",
            10,
            30,
            vec![("outcome".to_string(), JsonValue::from("commit"))],
        );
        t.instant(0, 0, "inv", "inv", 25);
        t.complete(1, 3, "grab c0#1", "grab", 15, 10, vec![]);
        t.counter(0, 0, "held_invs", 26, "depth", 2);
        t
    }

    #[test]
    fn builder_produces_valid_sorted_output() {
        let json = sample().to_json();
        assert!(validate(&json).is_empty(), "{:?}", validate(&json));
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata first, then ts order: 10, 15, 25, 26.
        let ts: Vec<Option<i64>> = events
            .iter()
            .map(|e| e.get("ts").and_then(|v| v.as_i64()))
            .collect();
        assert_eq!(
            ts,
            vec![
                None,
                None,
                None,
                None,
                Some(10),
                Some(15),
                Some(25),
                Some(26)
            ]
        );
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let json = sample().to_json();
        let text = json.to_string();
        let reparsed = JsonValue::parse(&text).expect("parses");
        assert_eq!(reparsed, json);
        assert!(validate(&reparsed).is_empty());
    }

    #[test]
    fn validator_flags_structural_problems() {
        // Not an object.
        assert!(!validate(&JsonValue::Null).is_empty());
        // Unknown phase.
        let bad = JsonValue::obj([(
            "traceEvents",
            JsonValue::arr([JsonValue::obj([
                ("name", JsonValue::from("x")),
                ("ph", JsonValue::from("Q")),
                ("pid", JsonValue::from(0u64)),
                ("tid", JsonValue::from(0u64)),
            ])]),
        )]);
        assert_eq!(validate(&bad).len(), 1);
        // X without dur.
        let no_dur = JsonValue::obj([(
            "traceEvents",
            JsonValue::arr([JsonValue::obj([
                ("name", JsonValue::from("x")),
                ("ph", JsonValue::from("X")),
                ("ts", JsonValue::from(1u64)),
                ("pid", JsonValue::from(0u64)),
                ("tid", JsonValue::from(0u64)),
            ])]),
        )]);
        assert!(validate(&no_dur).iter().any(|v| v.contains("missing dur")));
    }

    #[test]
    fn unmatched_flow_ids_are_flagged() {
        let mut t = PerfettoTrace::new();
        t.complete(0, 0, "send", "chunk", 5, 10, vec![]);
        t.flow_start(0, 0, "grab", "flow", 10, 7);
        let doc = t.to_json();
        assert!(
            validate(&doc)
                .iter()
                .any(|v| v.contains("start without end")),
            "{:?}",
            validate(&doc)
        );
        let mut t = PerfettoTrace::new();
        t.flow_end(1, 3, "grab", "flow", 20, 9);
        let doc = t.to_json();
        assert!(validate(&doc)
            .iter()
            .any(|v| v.contains("end without start")));
    }

    #[test]
    fn duplicate_flow_binding_is_flagged() {
        let mut t = PerfettoTrace::new();
        t.flow_start(0, 0, "grab", "flow", 10, 7);
        t.flow_start(0, 1, "grab", "flow", 12, 7);
        t.flow_end(1, 3, "grab", "flow", 20, 7);
        let doc = t.to_json();
        assert!(
            validate(&doc)
                .iter()
                .any(|v| v.contains("duplicate flow start")),
            "{:?}",
            validate(&doc)
        );
        // An end arriving before its start (in time) is also rejected.
        let mut t = PerfettoTrace::new();
        t.flow_start(0, 0, "grab", "flow", 10, 8);
        t.flow_end(1, 3, "grab", "flow", 4, 8);
        let doc = t.to_json();
        assert!(validate(&doc)
            .iter()
            .any(|v| v.contains("before its start")));
    }

    #[test]
    fn cross_track_flows_are_legal() {
        // A send on the cores track delivered on the directories track:
        // the flow spans processes, which must validate cleanly.
        let mut t = PerfettoTrace::new();
        t.process_name(0, "cores");
        t.process_name(1, "directories");
        t.flow_start(0, 2, "commit request", "flow", 100, 1);
        t.flow_end(1, 5, "commit request", "flow", 109, 1);
        let doc = t.to_json();
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }

    #[test]
    fn flow_trace_round_trips_byte_identically() {
        let build = || {
            let mut t = sample();
            t.flow_start(0, 0, "grab", "flow", 12, 41);
            t.flow_end(1, 3, "grab", "flow", 15, 41);
            t.to_json()
        };
        let a = build().to_string();
        let b = build().to_string();
        assert_eq!(a, b, "flow export is not deterministic");
        let reparsed = JsonValue::parse(&a).expect("parses");
        assert_eq!(reparsed.to_string(), a, "parser round-trip changed bytes");
        assert!(validate(&reparsed).is_empty());
    }

    /// The timed events of `t` in insertion order, without sorting them.
    fn unsorted(t: PerfettoTrace) -> JsonValue {
        let ranges = t.events.iter().map(|(_, range)| range);
        PerfettoDocument::join(&t.text, t.events.len(), ranges).to_json()
    }

    #[test]
    fn validator_catches_backwards_time_per_track() {
        let mut bad = PerfettoTrace::new();
        bad.instant(0, 0, "a", "t", 10);
        bad.instant(0, 0, "b", "t", 5);
        // `finish` sorts, so lay the events out as they were added.
        let doc = unsorted(bad);
        assert!(validate(&doc).iter().any(|v| v.contains("goes backwards")));
        // Different tracks may interleave freely.
        let mut ok = PerfettoTrace::new();
        ok.instant(0, 0, "a", "t", 10);
        ok.instant(0, 1, "b", "t", 5);
        assert!(validate(&unsorted(ok)).is_empty());
    }

    /// The exporter's former builder: one JSON tree per event, metadata
    /// first, then the timed events stably sorted by `ts`.
    #[derive(Default)]
    struct Reference {
        meta: Vec<JsonValue>,
        events: Vec<(u64, JsonValue)>,
    }

    fn base_event(
        ph: &str,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts: u64,
    ) -> Vec<(String, JsonValue)> {
        vec![
            ("name".to_string(), JsonValue::from(name)),
            ("cat".to_string(), JsonValue::from(cat)),
            ("ph".to_string(), JsonValue::from(ph)),
            ("ts".to_string(), JsonValue::from(ts)),
            ("pid".to_string(), JsonValue::from(pid)),
            ("tid".to_string(), JsonValue::from(tid)),
        ]
    }

    impl Reference {
        fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
            self.meta.push(JsonValue::obj([
                ("name", JsonValue::from(kind)),
                ("ph", JsonValue::from("M")),
                ("pid", JsonValue::from(pid)),
                ("tid", JsonValue::from(tid)),
                ("args", JsonValue::obj([("name", JsonValue::from(name))])),
            ]));
        }

        fn process_name(&mut self, pid: u64, name: &str) {
            self.metadata("process_name", pid, 0, name);
        }

        fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
            self.metadata("thread_name", pid, tid, name);
        }

        #[allow(clippy::too_many_arguments)]
        fn complete(
            &mut self,
            pid: u64,
            tid: u64,
            name: &str,
            cat: &str,
            ts: u64,
            dur: u64,
            args: Vec<(String, JsonValue)>,
        ) {
            let mut m = base_event("X", pid, tid, name, cat, ts);
            m.push(("dur".to_string(), JsonValue::from(dur)));
            if !args.is_empty() {
                m.push(("args".to_string(), JsonValue::Object(args)));
            }
            self.events.push((ts, JsonValue::Object(m)));
        }

        fn instant(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: u64) {
            let mut m = base_event("i", pid, tid, name, cat, ts);
            m.push(("s".to_string(), JsonValue::from("t")));
            self.events.push((ts, JsonValue::Object(m)));
        }

        fn counter(&mut self, pid: u64, tid: u64, name: &str, ts: u64, series: &str, value: u64) {
            let mut m = base_event("C", pid, tid, name, "counter", ts);
            let args = JsonValue::obj([(series, JsonValue::from(value))]);
            m.push(("args".to_string(), args));
            self.events.push((ts, JsonValue::Object(m)));
        }

        fn flow_start(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: u64, id: u64) {
            let mut m = base_event("s", pid, tid, name, cat, ts);
            m.push(("id".to_string(), JsonValue::from(id)));
            self.events.push((ts, JsonValue::Object(m)));
        }

        fn flow_end(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts: u64, id: u64) {
            let mut m = base_event("f", pid, tid, name, cat, ts);
            m.push(("bp".to_string(), JsonValue::from("e")));
            m.push(("id".to_string(), JsonValue::from(id)));
            self.events.push((ts, JsonValue::Object(m)));
        }

        fn finish(mut self) -> JsonValue {
            self.events.sort_by_key(|(ts, _)| *ts);
            let all = self
                .meta
                .into_iter()
                .chain(self.events.into_iter().map(|(_, e)| e));
            JsonValue::obj([("traceEvents", JsonValue::Array(all.collect()))])
        }
    }

    #[test]
    fn streamed_text_matches_the_per_event_tree() {
        let (mut t, mut reference) = (PerfettoTrace::new(), Reference::default());
        // Makes the same call on both builders.
        macro_rules! both {
            ($method:ident($($arg:expr),* $(,)?)) => {
                t.$method($($arg),*);
                reference.$method($($arg),*);
            };
        }
        // A quote, a backslash, a newline, U+0001 and non-ASCII text.
        let odd = "q\"b\\s\nu\u{1}é ∞";
        let max = i64::MAX as u64;
        let args = || {
            vec![
                ("outcome".to_string(), JsonValue::from(odd)),
                ("reads".to_string(), JsonValue::from(0u64)),
            ]
        };
        both!(process_name(0, "cores"));
        both!(thread_name(0, 0, odd));
        both!(complete(0, 0, odd, "chunk", 0, max, args()));
        both!(complete(1, 3, "grab", "grab", 7, 0, vec![]));
        both!(instant(0, 1, odd, "inv", 7));
        both!(counter(2, 0, odd, 7, odd, max));
        both!(flow_start(0, 0, odd, "flow", 0, max));
        both!(flow_end(1, 3, odd, "flow", 7, max));
        // Metadata added after timed events still leads the document.
        both!(process_name(1, odd));
        // Many events over a few timestamps, added out of order, one per
        // track: their order among equal timestamps is insertion order
        // only under a stable sort.
        for tid in 0..64 {
            both!(instant(4, tid, "tie", "tie", tid * 7 % 5));
        }
        let doc = t.finish();
        let want = reference.finish();
        assert_eq!(doc.len(), 9 + 64);
        assert_eq!(doc.to_string(), want.to_string());
        let parsed = doc.to_json();
        assert_eq!(parsed, want, "the text does not parse back to the tree");
        assert!(validate(&parsed).is_empty(), "{:?}", validate(&parsed));
    }
}
