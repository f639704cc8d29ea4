//! Offline reconstruction of per-lookup span trees from a captured
//! telemetry JSONL stream.
//!
//! `ert-network` emits one `HopSpan` event per completed service (see
//! DESIGN.md § Observability): the span covers the hop's queueing phase
//! (`enqueued → service_start`) and service phase (`service_start →
//! service_end`); the transit / forward-decision phase of hop *k* is
//! derived here as the gap from hop *k*'s `service_end` to hop
//! *k+1*'s `enqueued`. [`TraceAnalysis`] groups spans by query,
//! computes the per-hop latency breakdown, and attributes the latency
//! of the slowest (≥ p99 total time) lookups to specific nodes — the
//! empirical counterpart of the Theorem 3.1/3.2 congestion envelopes.

use std::collections::BTreeMap;

use crate::json::Json;

/// One hop span parsed back from the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopSpan {
    /// Query id.
    pub q: u64,
    /// Hop index at service time (repeats for handoff/retry siblings).
    pub hop: u32,
    /// Linearized node id that served the hop.
    pub node: u64,
    /// Deterministic span ID (`span::span_id(q, hop)`).
    pub span: u64,
    /// Parent span ID.
    pub parent: u64,
    /// Arrival at the node's queue (µs, sim clock).
    pub enqueued: u64,
    /// Service start (µs).
    pub service_start: u64,
    /// Service end (µs).
    pub service_end: u64,
}

impl HopSpan {
    /// Time spent waiting in the node's queue (µs).
    pub fn queueing(&self) -> u64 {
        self.service_start.saturating_sub(self.enqueued)
    }

    /// Time spent in service (µs).
    pub fn service(&self) -> u64 {
        self.service_end.saturating_sub(self.service_start)
    }
}

/// All spans of one lookup, in emission (= sim time) order.
#[derive(Debug, Clone, Default)]
pub struct LookupTrace {
    /// Injection time (µs), from the `LookupStart` event.
    pub started_at: Option<u64>,
    /// Completion time (µs), from the `LookupComplete` event.
    pub completed_at: Option<u64>,
    /// Spans in emission order.
    pub spans: Vec<HopSpan>,
}

impl LookupTrace {
    /// End-to-end latency (µs) when both endpoints were captured.
    pub fn total(&self) -> Option<u64> {
        Some(self.completed_at?.saturating_sub(self.started_at?))
    }
}

/// Aggregated per-phase times at one hop index.
#[derive(Debug, Clone, Default)]
struct HopPhase {
    queueing: Vec<f64>,
    service: Vec<f64>,
    transit: Vec<f64>,
}

/// Per-node attribution bucket.
#[derive(Debug, Clone, Copy, Default)]
struct NodeLoad {
    spans: u64,
    queueing: u64,
    service: u64,
}

/// The reconstructed trace: span trees grouped by query plus the
/// derived breakdowns.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    lookups: BTreeMap<u64, LookupTrace>,
    /// Lines that were not valid JSON (count only; a malformed capture
    /// should be visible, not fatal to the whole analysis).
    pub malformed_lines: usize,
}

/// Nearest-rank quantile over a scratch vector (sorts in place).
fn nearest_rank(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((p * values.len() as f64).ceil() as usize).max(1);
    values[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

impl TraceAnalysis {
    /// Parses a telemetry JSONL stream (one record per line). Only
    /// `kind:"event"` lines carrying `HopSpan`, `LookupStart`, or
    /// `LookupComplete` contribute; everything else is skipped.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> TraceAnalysis {
        let mut analysis = TraceAnalysis::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(record) = Json::parse(line) else {
                analysis.malformed_lines += 1;
                continue;
            };
            if record.get("kind").and_then(Json::as_str) != Some("event") {
                continue;
            }
            let Some(at) = record.get("at").and_then(Json::as_u64) else {
                continue;
            };
            let Some(event) = record.get("event").and_then(Json::as_obj) else {
                continue;
            };
            // Externally tagged: exactly one (variant, payload) pair.
            let Some((variant, payload)) = event.first() else {
                continue;
            };
            let field = |name: &str| payload.get(name).and_then(Json::as_u64);
            match variant.as_str() {
                "LookupStart" => {
                    if let Some(q) = field("q") {
                        analysis.lookups.entry(q).or_default().started_at = Some(at);
                    }
                }
                "LookupComplete" => {
                    if let Some(q) = field("q") {
                        analysis.lookups.entry(q).or_default().completed_at = Some(at);
                    }
                }
                "HopSpan" => {
                    let all = (|| {
                        Some(HopSpan {
                            q: field("q")?,
                            hop: u32::try_from(field("hop")?).ok()?,
                            node: field("node")?,
                            span: field("span")?,
                            parent: field("parent")?,
                            enqueued: field("enqueued")?,
                            service_start: field("service_start")?,
                            service_end: field("service_end")?,
                        })
                    })();
                    match all {
                        Some(span) => analysis.lookups.entry(span.q).or_default().spans.push(span),
                        None => analysis.malformed_lines += 1,
                    }
                }
                _ => {}
            }
        }
        analysis
    }

    /// The per-query traces, keyed by query id.
    pub fn lookups(&self) -> &BTreeMap<u64, LookupTrace> {
        &self.lookups
    }

    /// Total spans across all lookups.
    pub fn span_count(&self) -> usize {
        self.lookups.values().map(|t| t.spans.len()).sum()
    }

    /// Per-hop-index phase breakdown (hop → queueing/service/transit
    /// observations in µs). Transit of hop *k* is the gap to the next
    /// span's enqueue within the same lookup, in emission order.
    fn hop_phases(&self) -> BTreeMap<u32, HopPhase> {
        let mut phases: BTreeMap<u32, HopPhase> = BTreeMap::new();
        for trace in self.lookups.values() {
            for (i, span) in trace.spans.iter().enumerate() {
                let slot = phases.entry(span.hop).or_default();
                slot.queueing.push(span.queueing() as f64);
                slot.service.push(span.service() as f64);
                if let Some(next) = trace.spans.get(i + 1) {
                    slot.transit
                        .push(next.enqueued.saturating_sub(span.service_end) as f64);
                }
            }
        }
        phases
    }

    /// Aggregates queueing/service time per node over a span subset.
    fn node_loads<'a>(spans: impl Iterator<Item = &'a HopSpan>) -> BTreeMap<u64, NodeLoad> {
        let mut loads: BTreeMap<u64, NodeLoad> = BTreeMap::new();
        for span in spans {
            let slot = loads.entry(span.node).or_default();
            slot.spans += 1;
            slot.queueing += span.queueing();
            slot.service += span.service();
        }
        loads
    }

    /// Renders the full analysis as a human-readable report: stream
    /// totals, per-hop phase breakdown, and p99 attribution naming the
    /// nodes that absorbed the slowest lookups' time.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let completed: Vec<&LookupTrace> = self
            .lookups
            .values()
            .filter(|t| t.total().is_some())
            .collect();
        writeln!(
            out,
            "trace-analyze: {} lookups ({} completed), {} spans, {} malformed lines",
            self.lookups.len(),
            completed.len(),
            self.span_count(),
            self.malformed_lines
        )
        .expect("write to String");

        // Per-hop latency breakdown.
        writeln!(
            out,
            "\nper-hop breakdown (µs): hop  n      queue mean/p99      service mean/p99     transit mean/p99"
        )
        .expect("write to String");
        for (hop, mut phase) in self.hop_phases() {
            let n = phase.queueing.len();
            let (qm, qs) = (mean(&phase.queueing), mean(&phase.service));
            let tm = mean(&phase.transit);
            let q99 = nearest_rank(&mut phase.queueing, 0.99);
            let s99 = nearest_rank(&mut phase.service, 0.99);
            let t99 = nearest_rank(&mut phase.transit, 0.99);
            writeln!(
                out,
                "  hop {hop:>2}  {n:>6}  {qm:>10.1}/{q99:<10.1} {qs:>10.1}/{s99:<10.1} {tm:>10.1}/{t99:<10.1}"
            )
            .expect("write to String");
        }

        // p99 attribution: which nodes absorbed the slow lookups' time.
        let mut totals: Vec<f64> = completed
            .iter()
            .filter_map(|t| t.total())
            .map(|v| v as f64)
            .collect();
        let threshold = nearest_rank(&mut totals, 0.99);
        let slow: Vec<&LookupTrace> = completed
            .iter()
            .copied()
            .filter(|t| t.total().map(|v| v as f64 >= threshold).unwrap_or(false))
            .collect();
        writeln!(
            out,
            "\np99 attribution: {} lookups at or above p99 total {:.0} µs",
            slow.len(),
            threshold
        )
        .expect("write to String");
        let loads = Self::node_loads(slow.iter().flat_map(|t| t.spans.iter()));
        let mut ranked: Vec<(u64, NodeLoad)> = loads.into_iter().collect();
        ranked.sort_by(|a, b| {
            (b.1.queueing + b.1.service)
                .cmp(&(a.1.queueing + a.1.service))
                .then(a.0.cmp(&b.0))
        });
        writeln!(
            out,
            "  node      spans   queueing µs   service µs   (share of slow-lookup time)"
        )
        .expect("write to String");
        let slow_total: u64 = ranked.iter().map(|(_, l)| l.queueing + l.service).sum();
        for (node, load) in ranked.iter().take(top) {
            let share = if slow_total == 0 {
                0.0
            } else {
                (load.queueing + load.service) as f64 / slow_total as f64
            };
            writeln!(
                out,
                "  {node:>6}  {:>7}  {:>12}  {:>11}   {:>5.1}%",
                load.spans,
                load.queueing,
                load.service,
                share * 100.0
            )
            .expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn line(at: u64, seq: u64, event: &str) -> String {
        format!("{{\"kind\":\"event\",\"at\":{at},\"seq\":{seq},\"event\":{event}}}")
    }

    fn hop_span(q: u64, hop: u32, node: u64, enq: u64, start: u64, end: u64) -> String {
        format!(
            "{{\"HopSpan\":{{\"q\":{q},\"hop\":{hop},\"node\":{node},\"span\":{},\"parent\":{},\
             \"enqueued\":{enq},\"service_start\":{start},\"service_end\":{end}}}}}",
            span::span_id(q, hop),
            span::parent_id(q, hop),
        )
    }

    fn fixture() -> Vec<String> {
        vec![
            line(0, 0, "{\"LookupStart\":{\"q\":1,\"source\":0,\"key\":9}}"),
            line(30, 1, &hop_span(1, 0, 5, 0, 10, 30)),
            line(90, 2, &hop_span(1, 1, 7, 40, 70, 90)),
            line(
                95,
                3,
                "{\"LookupComplete\":{\"q\":1,\"hops\":2,\"heavy\":0}}",
            ),
            line(100, 4, "{\"AdaptTick\":{\"round\":1}}"),
            "{\"kind\":\"snapshot\",\"snapshot\":{\"at\":7}}".to_string(),
        ]
    }

    #[test]
    fn reconstructs_span_trees_and_totals() {
        let lines = fixture();
        let a = TraceAnalysis::from_lines(lines.iter().map(|s| s.as_str()));
        assert_eq!(a.malformed_lines, 0);
        assert_eq!(a.lookups().len(), 1);
        let t = &a.lookups()[&1];
        assert_eq!(t.total(), Some(95));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].queueing(), 10);
        assert_eq!(t.spans[0].service(), 20);
        assert_eq!(t.spans[1].parent, span::span_id(1, 0));
    }

    #[test]
    fn render_names_nodes_and_phases() {
        let lines = fixture();
        let a = TraceAnalysis::from_lines(lines.iter().map(|s| s.as_str()));
        let report = a.render(5);
        assert!(
            report.contains("1 lookups (1 completed), 2 spans"),
            "{report}"
        );
        assert!(report.contains("hop  0"), "{report}");
        // Transit of hop 0 = 40 - 30 = 10 µs.
        assert!(report.contains("10.0"), "{report}");
        // Both serving nodes appear in the attribution table.
        assert!(report.contains("     5"), "{report}");
        assert!(report.contains("     7"), "{report}");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        // A hop index past u32 is malformed, not truncated to hop 0.
        let wide_hop = fixture()[1].replace("\"hop\":0", "\"hop\":4294967296");
        let lines = ["not json".to_string(), wide_hop, fixture()[1].clone()];
        let a = TraceAnalysis::from_lines(lines.iter().map(|s| s.as_str()));
        assert_eq!(a.malformed_lines, 2);
        assert_eq!(a.span_count(), 1);
        assert_eq!(a.lookups()[&1].spans[0].hop, 0);
    }

    #[test]
    fn over_deep_line_is_one_malformed_line() {
        let mut lines = vec!["[".repeat(100_000)];
        lines.extend(fixture());
        let a = TraceAnalysis::from_lines(lines.iter().map(|s| s.as_str()));
        assert_eq!(a.malformed_lines, 1);
        assert_eq!(a.span_count(), 2);
        assert_eq!(a.lookups()[&1].total(), Some(95));
    }

    #[test]
    fn handoff_siblings_share_a_hop_index() {
        // Two spans at the same hop (churn handoff re-serve) both count.
        let lines = [
            line(30, 0, &hop_span(2, 0, 5, 0, 10, 30)),
            line(60, 1, &hop_span(2, 0, 6, 35, 40, 60)),
        ];
        let a = TraceAnalysis::from_lines(lines.iter().map(|s| s.as_str()));
        let t = &a.lookups()[&2];
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].hop, t.spans[1].hop);
        assert_eq!(t.total(), None);
    }
}
