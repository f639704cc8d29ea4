//! Overhead of the telemetry layer at an event site.
//!
//! The contract (see `ert_telemetry::Telemetry::emit`) is that a
//! disabled pipeline costs one predictable branch per site — the event
//! closure must not run. The `disabled/*` bench measures batches of
//! 1000 sites, so the per-site cost is the printed per-iteration time
//! divided by 1000: expect well under 5 ns/site. The `enabled/*` bench
//! prices the full path into the bounded trace ring for comparison.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ert_sim::SimTime;
use ert_telemetry::{Telemetry, TelemetryEvent};

const SITES: u64 = 1000;

fn bench_disabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/disabled");
    group.bench_function("emit_1000_sites", |b| {
        let mut tel = Telemetry::disabled();
        b.iter(|| {
            for i in 0..SITES {
                tel.emit(SimTime::from_micros(i), || TelemetryEvent::LookupHop {
                    q: black_box(i),
                    from: i,
                    to: i + 1,
                });
            }
            black_box(tel.events_emitted())
        })
    });
    group.finish();
}

fn bench_enabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/enabled");
    group.bench_function("emit_1000_sites_trace_ring", |b| {
        let mut tel = Telemetry::with_trace_capacity(256);
        b.iter(|| {
            for i in 0..SITES {
                tel.emit(SimTime::from_micros(i), || TelemetryEvent::LookupHop {
                    q: black_box(i),
                    from: i,
                    to: i + 1,
                });
            }
            black_box(tel.events_emitted())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_disabled, bench_enabled);
criterion_main!(benches);
