//! Cycle-stamped structured event tracing.
//!
//! Model components record [`TraceEvent`]s (task lifecycle, DRAM command
//! issue, CXL flit traffic, switch-bus arbitration, packer flushes) into
//! the [`TraceBuffer`] of the run's [`crate::observer::Observer`], which
//! every emit site is handed by argument. Each event carries a
//! [`TraceLevel`]; the buffer's level filters what is recorded, and emit
//! sites guard on [`crate::observer::Observer::trace_at`] so an untraced
//! run skips argument construction after one branch on a plain field.
//!
//! The buffer exports the Chrome trace-event JSON format via
//! [`TraceBuffer::to_chrome_json`]; the output opens directly in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Every
//! distinct track string (e.g. `sw0.dimm3.dram`) becomes one named
//! timeline row.

use std::collections::{BTreeMap, VecDeque};

use crate::json::Writer;

/// Verbosity of a trace event, coarsest first.
///
/// A buffer at level `L` records every event whose level is
/// `<= L`; [`TraceLevel::Off`] records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Tracing disabled.
    Off,
    /// Task lifecycle: submit, retire.
    Task,
    /// Per-transfer traffic: flits, bus grants, packer flushes, PE steps.
    Flit,
    /// Individual DRAM commands (ACT/PRE/RD/WR/REF).
    Command,
}

/// Subsystem that produced an event; becomes the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// Engine/system-level events.
    Engine,
    /// Task-engine (PE) events.
    Accel,
    /// DRAM command events.
    Dram,
    /// CXL link events.
    Cxl,
    /// Switch-internal events.
    Switch,
    /// Data-packer events.
    Packer,
    /// Request-journey flow events (`jny.begin` / `jny.hop` /
    /// `jny.end`); exported as Chrome flow arrows so a tracked request
    /// draws a line through every component it crossed in Perfetto.
    Journey,
}

impl TraceCategory {
    /// Stable lower-case name used in the exported JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCategory::Engine => "engine",
            TraceCategory::Accel => "accel",
            TraceCategory::Dram => "dram",
            TraceCategory::Cxl => "cxl",
            TraceCategory::Switch => "switch",
            TraceCategory::Packer => "packer",
            TraceCategory::Journey => "journey",
        }
    }
}

/// One structured trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event starts.
    pub cycle: u64,
    /// Duration in cycles; `0` marks an instant event.
    pub dur: u64,
    /// Verbosity level this event is recorded at.
    pub level: TraceLevel,
    /// Producing subsystem.
    pub category: TraceCategory,
    /// Short static event name, e.g. `"dram.act"`.
    pub name: &'static str,
    /// One free-form numeric argument (bytes, ids, queue depths, ...).
    pub arg: u64,
}

impl TraceEvent {
    /// An instantaneous event.
    pub fn instant(
        cycle: u64,
        level: TraceLevel,
        category: TraceCategory,
        name: &'static str,
        arg: u64,
    ) -> TraceEvent {
        TraceEvent {
            cycle,
            dur: 0,
            level,
            category,
            name,
            arg,
        }
    }

    /// An event spanning `dur` cycles starting at `cycle`.
    pub fn span(
        cycle: u64,
        dur: u64,
        level: TraceLevel,
        category: TraceCategory,
        name: &'static str,
        arg: u64,
    ) -> TraceEvent {
        TraceEvent {
            cycle,
            dur,
            level,
            category,
            name,
            arg,
        }
    }
}

/// Fixed-capacity ring of trace events with interned track names.
///
/// When full, the oldest events are evicted so the buffer always holds
/// the newest `capacity` records; [`TraceBuffer::dropped`] counts the
/// evictions.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    level: TraceLevel,
    capacity: usize,
    events: VecDeque<(u32, TraceEvent)>,
    tracks: Vec<String>,
    track_index: BTreeMap<String, u32>,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer recording events up to `level`, holding at most
    /// `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(level: TraceLevel, capacity: usize) -> TraceBuffer {
        assert!(capacity > 0, "trace buffer capacity must be positive");
        TraceBuffer {
            level,
            capacity,
            events: VecDeque::new(),
            tracks: Vec::new(),
            track_index: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// The level this buffer records at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted so far to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Distinct track names seen, in first-use order.
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// Records `event` on `track`, evicting the oldest event when full.
    /// Events above the buffer's level are ignored.
    pub fn record(&mut self, track: &str, event: TraceEvent) {
        if event.level > self.level || event.level == TraceLevel::Off {
            return;
        }
        let track_id = match self.track_index.get(track) {
            Some(&id) => id,
            None => {
                let id = self.tracks.len() as u32;
                self.tracks.push(track.to_owned());
                self.track_index.insert(track.to_owned(), id);
                id
            }
        };
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((track_id, event));
    }

    /// Buffered events oldest-first, with their track names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TraceEvent)> {
        self.events
            .iter()
            .map(|(id, ev)| (self.tracks[*id as usize].as_str(), ev))
    }

    /// Number of buffered events in `category`.
    pub fn count_category(&self, category: TraceCategory) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| e.category == category)
            .count()
    }

    /// Maximum number of events the buffer holds before evicting.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A fresh empty buffer with this buffer's level and capacity —
    /// a parallel shard's private ring.
    pub fn fork_empty(&self) -> TraceBuffer {
        TraceBuffer::new(self.level, self.capacity)
    }

    /// Buffered events in the canonical order used for determinism
    /// comparisons: sorted by `(cycle, track, category, name, dur,
    /// arg)`. Two runs that produced the same *set* of events compare
    /// equal here even when their emission order differed (e.g. a
    /// sequential run vs. a sharded parallel run).
    pub fn canonical_events(&self) -> Vec<(String, TraceEvent)> {
        let mut events: Vec<(String, TraceEvent)> = self
            .iter()
            .map(|(track, ev)| (track.to_owned(), *ev))
            .collect();
        events.sort_by(|a, b| canonical_key(a).cmp(&canonical_key(b)));
        events
    }

    /// Merges the events of `others` into this buffer in canonical
    /// order, so the result is independent of how events were
    /// distributed across the source buffers (shard assignment, OS
    /// scheduling). Eviction counts carry over; level filtering applies
    /// as usual.
    pub fn absorb_canonical(&mut self, others: Vec<TraceBuffer>) {
        let mut incoming: Vec<(String, TraceEvent)> = Vec::new();
        for other in others {
            self.dropped += other.dropped;
            incoming.extend(other.iter().map(|(track, ev)| (track.to_owned(), *ev)));
        }
        incoming.sort_by(|a, b| canonical_key(a).cmp(&canonical_key(b)));
        for (track, ev) in incoming {
            self.record(&track, ev);
        }
    }

    /// Serializes the buffer as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto. One cycle maps
    /// to one microsecond of trace time; tracks become named threads of
    /// process 0.
    pub fn to_chrome_json(&self) -> String {
        let mut w = Writer::new();
        w.object(|w| {
            w.key("displayTimeUnit").str("ms");
            w.key("traceEvents").array(|w| {
                for (tid, name) in self.tracks.iter().enumerate() {
                    w.object(|w| {
                        w.key("ph").str("M");
                        w.key("pid").u64(0);
                        w.key("tid").u64(tid as u64);
                        w.key("name").str("thread_name");
                        w.key("args").object(|w| w.key("name").str(name));
                    });
                }
                for (tid, ev) in &self.events {
                    w.object(|w| write_event(w, *tid, ev));
                }
            });
        });
        w.finish()
    }
}

/// One Chrome trace event's members.
fn write_event(w: &mut Writer, tid: u32, ev: &TraceEvent) {
    let journey = ev.category == TraceCategory::Journey;
    // Journey events become Chrome flow events: one "s"/"t".."t"/"f"
    // chain per journey id, drawing the request's path in Perfetto.
    let ph = match (journey, ev.name) {
        (true, "jny.begin") => "s",
        (true, "jny.end") => "f",
        (true, _) => "t",
        (false, _) if ev.dur > 0 => "X",
        (false, _) => "i",
    };
    w.key("ph").str(ph);
    match ph {
        "f" => w.key("bp").str("e"),
        "X" => w.key("dur").u64(ev.dur),
        "i" => w.key("s").str("t"),
        _ => {}
    }
    w.key("pid").u64(0);
    w.key("tid").u64(u64::from(tid));
    w.key("ts").u64(ev.cycle);
    w.key("cat").str(ev.category.as_str());
    if journey {
        w.key("name").str("journey");
        w.key("id").u64(ev.arg);
    } else {
        w.key("name").str(ev.name);
        w.key("args").object(|w| w.key("v").u64(ev.arg));
    }
}

/// Total order used by [`TraceBuffer::canonical_events`] and
/// [`TraceBuffer::absorb_canonical`].
#[allow(clippy::type_complexity)]
fn canonical_key(
    entry: &(String, TraceEvent),
) -> (u64, &str, &'static str, &'static str, u64, u64) {
    let (track, ev) = entry;
    (
        ev.cycle,
        track.as_str(),
        ev.category.as_str(),
        ev.name,
        ev.dur,
        ev.arg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use proptest::prelude::*;

    fn ev(cycle: u64, level: TraceLevel) -> TraceEvent {
        TraceEvent::instant(cycle, level, TraceCategory::Engine, "test.ev", cycle)
    }

    #[test]
    fn level_order_matches_verbosity() {
        assert!(TraceLevel::Off < TraceLevel::Task);
        assert!(TraceLevel::Task < TraceLevel::Flit);
        assert!(TraceLevel::Flit < TraceLevel::Command);
    }

    #[test]
    fn buffer_filters_by_level() {
        let mut buf = TraceBuffer::new(TraceLevel::Task, 16);
        buf.record("a", ev(1, TraceLevel::Task));
        buf.record("a", ev(2, TraceLevel::Flit));
        buf.record("a", ev(3, TraceLevel::Command));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.iter().next().unwrap().1.cycle, 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut buf = TraceBuffer::new(TraceLevel::Command, 3);
        for c in 0..10 {
            buf.record("a", ev(c, TraceLevel::Task));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 7);
        let cycles: Vec<u64> = buf.iter().map(|(_, e)| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn tracks_are_interned_once() {
        let mut buf = TraceBuffer::new(TraceLevel::Command, 8);
        buf.record("x", ev(0, TraceLevel::Task));
        buf.record("y", ev(1, TraceLevel::Task));
        buf.record("x", ev(2, TraceLevel::Task));
        assert_eq!(buf.tracks(), &["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let mut buf = TraceBuffer::new(TraceLevel::Command, 16);
        buf.record("sw0.dram", ev(5, TraceLevel::Command));
        buf.record(
            "sw0.\"quoted\"\\track",
            TraceEvent::span(10, 4, TraceLevel::Flit, TraceCategory::Cxl, "cxl.send", 68),
        );
        let json = buf.to_chrome_json();
        JsonValue::parse(&json).expect("exporter output must be valid JSON");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"cxl\""));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn chrome_json_golden_with_flow_events() {
        // Byte-exact golden for the exporter: a metadata record, a
        // span, an instant and a begin/hop/end journey flow chain on a
        // track whose name needs escaping. Guards the wire format the
        // Perfetto importer and external tooling rely on.
        let mut buf = TraceBuffer::new(TraceLevel::Command, 16);
        buf.record(
            "sw0.\"j\"\\track",
            TraceEvent::span(4, 3, TraceLevel::Flit, TraceCategory::Cxl, "cxl.send", 68),
        );
        buf.record(
            "sw0.\"j\"\\track",
            TraceEvent::instant(9, TraceLevel::Task, TraceCategory::Engine, "task.retire", 1),
        );
        buf.record(
            "journey",
            TraceEvent::instant(2, TraceLevel::Flit, TraceCategory::Journey, "jny.begin", 77),
        );
        buf.record(
            "journey",
            TraceEvent::instant(5, TraceLevel::Flit, TraceCategory::Journey, "jny.hop", 77),
        );
        buf.record(
            "journey",
            TraceEvent::instant(8, TraceLevel::Flit, TraceCategory::Journey, "jny.end", 77),
        );
        let json = buf.to_chrome_json();
        let golden = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"sw0.\\\"j\\\"\\\\track\"}},",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"journey\"}},",
            "{\"ph\":\"X\",\"dur\":3,\"pid\":0,\"tid\":0,\"ts\":4,\"cat\":\"cxl\",",
            "\"name\":\"cxl.send\",\"args\":{\"v\":68}},",
            "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":9,\"cat\":\"engine\",",
            "\"name\":\"task.retire\",\"args\":{\"v\":1}},",
            "{\"ph\":\"s\",\"pid\":0,\"tid\":1,\"ts\":2,\"cat\":\"journey\",",
            "\"name\":\"journey\",\"id\":77},",
            "{\"ph\":\"t\",\"pid\":0,\"tid\":1,\"ts\":5,\"cat\":\"journey\",",
            "\"name\":\"journey\",\"id\":77},",
            "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":1,\"ts\":8,\"cat\":\"journey\",",
            "\"name\":\"journey\",\"id\":77}",
            "]}",
        );
        assert_eq!(json, golden, "exporter wire format drifted");
    }

    #[test]
    fn chrome_json_round_trips_through_a_parser() {
        // Flow events, track ids and escaping must survive a parse.
        let mut buf = TraceBuffer::new(TraceLevel::Command, 16);
        buf.record(
            "sw0.\"quoted\"\\track",
            TraceEvent::span(10, 4, TraceLevel::Flit, TraceCategory::Cxl, "cxl.send", 68),
        );
        buf.record(
            "journey",
            TraceEvent::instant(3, TraceLevel::Flit, TraceCategory::Journey, "jny.begin", 42),
        );
        buf.record(
            "journey",
            TraceEvent::instant(7, TraceLevel::Flit, TraceCategory::Journey, "jny.end", 42),
        );
        let parsed = JsonValue::parse(&buf.to_chrome_json()).expect("exporter output parses");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        // Two thread_name records + three payload events.
        assert_eq!(events.len(), 5);
        let meta: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str)
                    .expect("track name")
            })
            .collect();
        assert_eq!(meta, vec!["sw0.\"quoted\"\\track", "journey"]);
        let flow: Vec<(&str, f64, f64)> = events
            .iter()
            .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("journey"))
            .map(|e| {
                (
                    e.get("ph").and_then(JsonValue::as_str).unwrap(),
                    e.get("id").and_then(JsonValue::as_f64).unwrap(),
                    e.get("tid").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(flow, vec![("s", 42.0, 1.0), ("f", 42.0, 1.0)]);
        // The span's tid must reference the escaped track's metadata id.
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .expect("span present");
        assert_eq!(span.get("tid").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(span.get("dur").and_then(JsonValue::as_f64), Some(4.0));
    }

    #[test]
    fn empty_buffer_exports_valid_json() {
        let buf = TraceBuffer::new(TraceLevel::Command, 4);
        let json = buf.to_chrome_json();
        JsonValue::parse(&json).expect("empty export must be valid JSON");
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\" 1}",
            "01x",
            "{} trailing",
            "{\"a\":\"\\q\"}",
        ] {
            assert!(
                JsonValue::parse(bad).is_err(),
                "accepted malformed input: {bad}"
            );
        }
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e2,true,false,null,\"s\\n\"]}",
            "42",
        ] {
            JsonValue::parse(good).unwrap_or_else(|e| panic!("rejected {good}: {e}"));
        }
    }

    #[test]
    fn fork_empty_copies_level_and_capacity() {
        let buf = TraceBuffer::new(TraceLevel::Flit, 7);
        let fork = buf.fork_empty();
        assert_eq!(fork.level(), TraceLevel::Flit);
        assert_eq!(fork.capacity(), 7);
        assert!(fork.is_empty());
    }

    #[test]
    fn canonical_events_sort_by_cycle_then_track() {
        let mut buf = TraceBuffer::new(TraceLevel::Command, 16);
        buf.record("b", ev(5, TraceLevel::Task));
        buf.record("a", ev(5, TraceLevel::Task));
        buf.record("z", ev(1, TraceLevel::Task));
        let canon = buf.canonical_events();
        let order: Vec<(u64, &str)> = canon.iter().map(|(t, e)| (e.cycle, t.as_str())).collect();
        assert_eq!(order, vec![(1, "z"), (5, "a"), (5, "b")]);
    }

    #[test]
    fn absorb_is_independent_of_worker_assignment() {
        // The same event set split across workers two different ways
        // must merge to the same buffer contents.
        let all = [
            ("sw0", ev(3, TraceLevel::Task)),
            ("sw1", ev(3, TraceLevel::Task)),
            ("sw0", ev(9, TraceLevel::Task)),
            ("sw2", ev(1, TraceLevel::Task)),
        ];
        let merged = |split: &[usize]| {
            let mut workers = vec![
                TraceBuffer::new(TraceLevel::Command, 64),
                TraceBuffer::new(TraceLevel::Command, 64),
            ];
            for (&(track, event), &w) in all.iter().zip(split) {
                workers[w].record(track, event);
            }
            let mut sink = TraceBuffer::new(TraceLevel::Command, 64);
            sink.absorb_canonical(workers);
            sink.canonical_events()
        };
        assert_eq!(merged(&[0, 1, 0, 1]), merged(&[1, 0, 1, 0]));
        assert_eq!(merged(&[0, 0, 0, 0]), merged(&[1, 1, 0, 0]));
    }

    proptest! {
        #[test]
        fn eviction_preserves_newest_in_cycle_order(
            capacity in 1usize..48,
            deltas in prop::collection::vec(0u64..4, 0..160),
        ) {
            let mut buf = TraceBuffer::new(TraceLevel::Command, capacity);
            let mut cycles = Vec::new();
            let mut cycle = 0u64;
            for d in deltas {
                cycle += d;
                cycles.push(cycle);
                buf.record("t", ev(cycle, TraceLevel::Task));
            }
            let keep = cycles.len().min(capacity);
            let expect: Vec<u64> = cycles[cycles.len() - keep..].to_vec();
            let got: Vec<u64> = buf.iter().map(|(_, e)| e.cycle).collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(buf.dropped() as usize, cycles.len() - keep);
        }
    }
}
