//! A bounded event-trace recorder.
//!
//! Simulations are deterministic, so a trace of the last N interesting
//! events is usually all that is needed to debug a surprising metric:
//! re-run with the same seed and read the tail. [`TraceLog`] is a ring
//! buffer of timestamped lines; recording is lazy (the formatting
//! closure only runs when tracing is enabled), so a disabled log is
//! near-free.

use std::collections::VecDeque;
use std::fmt::Write as _;

use ert_sim::SimTime;

/// A bounded, timestamped event log.
///
/// ```
/// use ert_sim::SimTime;
/// use ert_telemetry::TraceLog;
/// let mut log = TraceLog::new(2);
/// log.record(SimTime::from_micros(1), || "first".into());
/// log.record(SimTime::from_micros(2), || "second".into());
/// log.record(SimTime::from_micros(3), || "third".into());
/// assert_eq!(log.len(), 2); // the oldest entry was evicted
/// assert!(log.render().contains("third"));
/// assert!(!log.render().contains("first"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    capacity: usize,
    entries: VecDeque<(SimTime, String)>,
    recorded: u64,
}

impl TraceLog {
    /// Creates a log keeping at most `capacity` entries (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            capacity,
            entries: VecDeque::new(),
            recorded: 0,
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event; `message` is only evaluated when enabled.
    pub fn record(&mut self, at: SimTime, message: impl FnOnce() -> String) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((at, message()));
        self.recorded += 1;
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total events recorded over the log's lifetime (including
    /// evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Iterates retained entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &str)> + '_ {
        self.entries.iter().map(|(t, m)| (*t, m.as_str()))
    }

    /// Renders the retained entries, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (t, m) in self.iter() {
            let _ = writeln!(out, "[{t}] {m}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_skips_formatting() {
        let mut log = TraceLog::new(0);
        let mut evaluated = false;
        log.record(SimTime::ZERO, || {
            evaluated = true;
            "x".into()
        });
        assert!(!evaluated, "closure must not run when disabled");
        assert!(!log.is_enabled());
        assert!(log.is_empty());
        assert_eq!(log.total_recorded(), 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = TraceLog::new(3);
        for i in 0..5u64 {
            log.record(SimTime::from_micros(i), move || format!("e{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_recorded(), 5);
        let msgs: Vec<&str> = log.iter().map(|(_, m)| m).collect();
        assert_eq!(msgs, ["e2", "e3", "e4"]);
    }

    #[test]
    fn render_includes_timestamps() {
        let mut log = TraceLog::new(4);
        log.record(SimTime::from_secs_f64(1.5), || "hop".into());
        let text = log.render();
        assert!(text.contains("1.500000s"));
        assert!(text.contains("hop"));
    }
}
