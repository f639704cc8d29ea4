//! The traced run's host-time attribution.
//!
//! A [`LayerSink`] installed through `Network::set_telemetry` stamps
//! `Instant::now()` on every telemetry record. Each gap between two
//! consecutive records (the first gap starts when the sink is made,
//! just before `Network::run`) is charged to the layer of the event
//! that closes it:
//!
//! | closing event                 | layer          |
//! |-------------------------------|----------------|
//! | `LinkGrown`                   | `adapt.grow`   |
//! | `LinkShed`                    | `adapt.shed`   |
//! | `LookupHop`                   | `forward`      |
//! | `HopSpan`                     | `service`      |
//! | `NodeJoined`                  | `membership.join`  |
//! | `NodeDeparted`                | `membership.leave` |
//! | anything else                 | `other`        |
//!
//! The simulator emits each of these events right after the work it
//! names, so a gap is that work plus whatever ran since the previous
//! record. Counts come from the same records.

use std::sync::mpsc::Sender;
use std::time::Instant;

use ert_telemetry::{EventSink, Telemetry};

/// A layer host time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Grow,
    Shed,
    Forward,
    Service,
    Join,
    Leave,
    Other,
}

impl Layer {
    const COUNT: usize = 7;

    fn of(kind: &str) -> Layer {
        match kind {
            "LinkGrown" => Layer::Grow,
            "LinkShed" => Layer::Shed,
            "LookupHop" => Layer::Forward,
            "HopSpan" => Layer::Service,
            "NodeJoined" => Layer::Join,
            "NodeDeparted" => Layer::Leave,
            _ => Layer::Other,
        }
    }
}

/// Everything one traced run recorded.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    /// Host seconds charged to each [`Layer`].
    seconds: [f64; Layer::COUNT],
    /// Records closing a gap of each [`Layer`].
    counts: [u64; Layer::COUNT],
    /// Every record seen.
    pub records: u64,
    /// `LookupHandoff` records.
    pub handoffs: u64,
    /// `LookupTimeout` records.
    pub timeouts: u64,
    /// Linearized key of every `LookupStart`, in injection order.
    pub lookup_keys: Vec<u64>,
    /// Simulated queue wait (`enqueued → service_start`, µs) of every
    /// `HopSpan`.
    pub queue_waits_us: Vec<u64>,
}

impl LayerTrace {
    /// Host seconds charged to `layer`.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.seconds[layer as usize]
    }

    /// Records of `layer`'s closing event.
    pub fn count(&self, layer: Layer) -> u64 {
        self.counts[layer as usize]
    }

    /// Host seconds charged to any layer.
    pub fn charged_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }
}

/// The timing sink. It reports its [`LayerTrace`] through `done` when
/// the run flushes its telemetry.
struct LayerSink {
    last: Instant,
    acc: LayerTrace,
    done: Sender<LayerTrace>,
}

/// A telemetry pipeline whose only destination is a fresh
/// [`LayerSink`]; make it immediately before `Network::run`.
pub fn layer_telemetry(done: Sender<LayerTrace>) -> Telemetry {
    let mut telemetry = Telemetry::disabled();
    telemetry.add_sink(Box::new(LayerSink {
        last: Instant::now(),
        acc: LayerTrace::default(),
        done,
    }));
    telemetry
}

impl EventSink for LayerSink {
    fn record(&mut self, line: &str) {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        let kind = event_kind(line);
        let layer = Layer::of(kind);
        self.acc.seconds[layer as usize] += gap;
        self.acc.counts[layer as usize] += 1;
        self.acc.records += 1;
        match kind {
            "LookupHandoff" => self.acc.handoffs += 1,
            "LookupTimeout" => self.acc.timeouts += 1,
            "LookupStart" => self.acc.lookup_keys.extend(field(line, "\"key\":")),
            "HopSpan" => {
                if let (Some(enq), Some(start)) = (
                    field(line, "\"enqueued\":"),
                    field(line, "\"service_start\":"),
                ) {
                    self.acc.queue_waits_us.push(start.saturating_sub(enq));
                }
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        // The receiver keeps the last report; a closed receiver means
        // nobody wants the numbers any more.
        let _ = self.done.send(self.acc.clone());
    }
}

/// The event tag of a telemetry record: the first key of its `event`
/// object (`{"kind":"event",...,"event":{"LookupHop":{...}}}`).
fn event_kind(line: &str) -> &str {
    const TAG: &str = "\"event\":{\"";
    line.find(TAG)
        .map(|at| &line[at + TAG.len()..])
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// The unsigned integer following `key` (a quoted name and colon) in a
/// record.
fn field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kind_and_fields_of_a_record() {
        let line = r#"{"kind":"event","at":5,"seq":1,"event":{"HopSpan":{"q":1,"hop":0,"node":3,"span":65537,"parent":65536,"enqueued":100,"service_start":250,"service_end":450}}}"#;
        assert_eq!(event_kind(line), "HopSpan");
        assert_eq!(field(line, "\"enqueued\":"), Some(100));
        assert_eq!(field(line, "\"service_start\":"), Some(250));
        assert_eq!(field(line, "\"missing\":"), None);
        assert_eq!(event_kind("{\"kind\":\"snapshot\"}"), "");
    }
}
