//! The registry's scrape output is a protocol: `lhrs-netcli stats`, CI
//! scrapes and drill assertions parse it. These bytes were recorded from
//! the mutex-and-`BTreeMap` registry the interned table replaced, for a
//! fixed mix of labeled, unlabeled, saturated and zero-valued counters and
//! two histograms; the table must reproduce them exactly.

use lhrs_obs::{Clock, Event, Metrics};

const GOLDEN_PROMETHEUS: &str = include_str!("golden/registry.prom");
const GOLDEN_SNAPSHOT: &str = include_str!("golden/registry.snapshot");

fn golden_mix(m: &Metrics) {
    m.incr_kind("msgs_sent", "lookup");
    m.add_kind("msgs_sent", "insert", 3);
    m.incr("msgs_sent");
    m.incr_kind("msgs_recv", "reply");
    m.incr("deltas_applied");
    m.add("net_sent_bytes", 4096);
    m.add("zeroed", 0);
    m.add("big", u64::MAX);
    m.add("big", 1);
    m.incr_kind("msgs_sent", "lookup");
    m.add_kind("a", "z", 1);
    m.add_kind("a", "b", 2);
    m.add("a_b", 7);
    m.trace(5, Event::SplitStart { bucket: 0 });
    m.observe_us("op_latency", 3);
    m.observe_us("op_latency", 700);
    m.observe_us("op_latency", 1 << 20);
    m.observe_us("apply", 0);
}

#[test]
fn prometheus_text_is_byte_identical_to_the_recorded_registry() {
    let m = Metrics::new(Clock::logical());
    golden_mix(&m);
    assert_eq!(m.render_prometheus(), GOLDEN_PROMETHEUS);
}

#[test]
fn snapshot_is_identical_to_the_recorded_registry() {
    let m = Metrics::new(Clock::logical());
    golden_mix(&m);
    assert_eq!(format!("{:?}\n", m.snapshot()), GOLDEN_SNAPSHOT);
}
