//! **The repository benchmark** for the LH\*RS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read-mostly|write-durable|grow|recover> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Load comes from **one client thread**: a
//! `NetClient` in a closed loop with a window of 64 operations (the
//! default `Config::client_window`), wired like `lhrs-netcli`. Every
//! server host thread is wired like `lhrs-netd`, with an enabled
//! `Metrics::new(Clock::wall())` registry. Every workload runs
//! `Config::default()` with `ack_writes` and `ack_parity` on. In that mode
//! no acked write may be lost. Keys are seeded uniform `u64`s from
//! `--seed` and payloads are 64 bytes. Every lookup is checked against an
//! oracle of each key's last acked value, and every key is read back once
//! after each timed phase. A wrong value, a lost acked key or a file that
//! stops growing short of its bucket count is printed and makes the
//! command exit nonzero. Failed and timed-out operations are counted, not
//! fatal.
//!
//! # Workloads
//!
//! * `read-mostly`: loopback, in-memory stores, m = 4, k = 1, preloaded to
//!   16 data buckets, one consolidated server host thread. Timed: 95%
//!   lookups / 5% updates at window 64, then the same mix at window 1.
//!   The client, `wire`, host and data-bucket read path do almost all the
//!   work, while parity Δ, WAL and TCP are idle or absent. It is the "no
//!   change" control for a change to those layers.
//! * `write-durable`: `TcpTransport` over 127.0.0.1, m = 4, k = 2 (a GF
//!   column as well as the XOR one), a `lhrs_wal` store per server node
//!   from boot with `FsyncPolicy::Batch` and the default snapshot cadence,
//!   server nodes split over two host threads so data→parity Δs and their
//!   acks cross sockets. Timed: 90% updates / 10% lookups at window 64,
//!   then window 1. The only workload where the Δ on two parity columns,
//!   `ParityBatch` coalescing, WAL group commit and the TCP frame/socket
//!   path carry most of each operation. It is not in `BENCHMARK.json`
//!   yet: on a disk where WAL snapshots and segment deletion stall a host
//!   thread past `client_timeout_us` and `probe_timeout_us`, live buckets
//!   are declared dead and rebuilt, ops fail, and acked keys can be lost.
//!   The run reports that (`failed_frac`, `correct: false`) rather than
//!   configuring around it, so it cannot gate until the program is fixed.
//! * `grow`: loopback, in-memory, m = 4, small buckets, from one bucket to
//!   64, k rising from 1 to 2 once the file exceeds 16 buckets. Timed:
//!   fresh inserts at window 64 until the file spans 64 data buckets, in
//!   repeated cycles. The only timed phase with coordinator split
//!   sequencing, `SplitLoad` partitioning, parity re-encoding of moved
//!   records, group k-upgrades and client table updates.
//! * `recover`: loopback, in-memory, m = 4, k = 2, four large preloaded
//!   buckets, data buckets 1 and 2 on their own host thread. Timed: stop
//!   that thread (f = k = 2 lost at once) and read back every key they held
//!   at window 64, in repeated cycles. The only workload with failure
//!   detection, shard transfer, RS decode of two erasures (a matrix
//!   inversion, not the XOR fast path) and install. Its fixed timeouts are
//!   printed so that detection time is not mistaken for rebuild cost, and
//!   its `ops_per_s` leaves them out: each cycle's rate is the lost keys
//!   read back per second from the coordinator's `RecoveryStart` to the
//!   last of them read back. `recovery_ms` (kill to last lost key read
//!   back) keeps the timers.
//!
//! # Which layer metric should move which end-to-end metric
//!
//! | layer metric (`--trace 1`) | end-to-end metric, workload |
//! |---|---|
//! | `client.submit_ns`, `client.window_stalls_per_op` | `ops_per_s`, read-mostly |
//! | `client.pump_us_per_op` | `solo_p50_us` |
//! | `client.retries_per_op`, `transport.drops` | `ops_per_s`, `failed_frac` |
//! | `wire.{en,de}code_ns.{lookup,reply}` | `ops_per_s`, read-mostly |
//! | `wire.{en,de}code_ns.{update,parity-delta}` | `ops_per_s`, write-durable |
//! | `wire.msgs_per_op` next to `sim.msgs_per_op`, `wire.bytes_per_op` | gap between runtime and the paper's cost model |
//! | `frame.{en,de}code_ns`, `transport.tcp_hop_us`, `transport.frames_per_op` | `solo_p50_us`, `ops_per_s`, write-durable |
//! | `transport.loopback_hop_us` | `solo_p50_us`, read-mostly |
//! | `host.busy_frac`, `host.ops_per_busy_poll` | `ops_per_s`, every workload |
//! | `host.deltas_per_batch` | `write_p50_us`, write-durable |
//! | `host.appends_per_fsync`, `wal.append_us`, `wal.sync_us` | `write_p99_us`, write-durable |
//! | `actor.{lookup,update,insert}_us`, `sim.msgs.*` | `ops_per_s` |
//! | `parity.delta_ns.k1`/`.k2`, `parity.deltas_per_write` | `write_p50_us` on write-durable; no move on read-mostly |
//! | `wal.bytes_per_user_byte` | `disk_bytes_per_user_byte`, write-durable |
//! | `split.count`, `split.msgs_per_insert`, `coord.group_upgrades`, `registry.broadcasts` | `ops_per_s`, `write_p99_us`, grow |
//! | `rs.reconstruct_ms`, `recovery.detect_ms`, `recovery.rebuild_ms`, `recovery.bytes_moved`, `recovery.msgs` | `ops_per_s` and `recovery_ms`, recover |
//! | `obs.incr_ns` | `ops_per_s`, read-mostly |
//! | `trace.overhead_frac` | what tracing costs the traced run |
//!
//! # Traced and untraced runs
//!
//! `--trace 0` is the run whose numbers count: host threads run
//! `NodeHost::run`, the client is untimed, every end-to-end figure is
//! printed with its unit and sample count, and the last line carries the
//! gated ones (`END_TO_END`). `--trace 1` runs the workload untraced for half
//! the time and traced for the other half. The traced half drives every
//! server loop with timed `NodeHost::poll` calls, times each `submit` and
//! `pump`, and enables the client's registry. Then it runs the layer
//! microbenchmarks (the same set on every workload, so the WAL, TCP-hop
//! and GF-column figures are taken on the gated workloads too), and its
//! last line carries the per-layer metrics.
//! `trace.overhead_frac` is 1 − traced / untraced `ops_per_s`. Layer
//! figures come only from the benchmark's own timing of calls into each
//! layer's public functions and from counters the program already
//! publishes through `lhrs_obs::Metrics`.

mod cluster;
mod layers;
mod loadgen;
mod report;
mod workloads;

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use report::Metrics;
use workloads::{Body, Ctx, Workload};

/// The end-to-end metrics of the last line (`BENCHMARK.json`'s
/// `end_to_end`): the ones every workload defines, that are never 0, and
/// that repeat within their bounds on a shared 2-core host. The rest are
/// printed above the last line and carried in the traced run's:
/// `read_*`, `write_*`, `recovery_ms`, `failed_frac` and
/// `disk_bytes_per_user_byte` exist only on some workloads (or are 0);
/// window-64 latency is queueing behind the window (`ops_per_s` by
/// Little's law, with a tail that follows host noise); and the window-1
/// latencies (`solo_p50_us`, `solo_p99_us`) move by 15-25% from run to
/// run with the host's scheduling, too close to the widest bound allowed.
const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run's last line, with their units.
const PER_LAYER: [(&str, &str); 61] = [
    ("client.submit_ns", "ns"),
    ("client.pump_us_per_op", "us"),
    ("client.window_stalls_per_op", "1/op"),
    ("client.retries_per_op", "1/op"),
    ("wire.encode_ns.lookup", "ns"),
    ("wire.decode_ns.lookup", "ns"),
    ("wire.encode_ns.update", "ns"),
    ("wire.decode_ns.update", "ns"),
    ("wire.encode_ns.reply", "ns"),
    ("wire.decode_ns.reply", "ns"),
    ("wire.encode_ns.parity-delta", "ns"),
    ("wire.decode_ns.parity-delta", "ns"),
    ("wire.msgs_per_op", "msgs/op"),
    ("sim.msgs_per_op", "msgs/op"),
    ("wire.bytes_per_op", "B/op"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("transport.loopback_hop_us", "us"),
    ("transport.tcp_hop_us", "us"),
    ("transport.frames_per_op", "frames/op"),
    ("transport.drops", "count"),
    ("host.busy_frac", "1"),
    ("host.ops_per_busy_poll", "ops/poll"),
    ("host.deltas_per_batch", "deltas/batch"),
    ("host.appends_per_fsync", "appends/fsync"),
    ("actor.lookup_us", "us"),
    ("actor.update_us", "us"),
    ("actor.insert_us", "us"),
    ("sim.msgs.lookup", "msgs/op"),
    ("sim.msgs.update", "msgs/op"),
    ("sim.msgs.insert", "msgs/op"),
    ("parity.delta_ns.k1", "ns"),
    ("parity.delta_ns.k2", "ns"),
    ("parity.deltas_per_write", "deltas/write"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_user_byte", "B/B"),
    ("split.count", "count"),
    ("split.msgs_per_insert", "msgs/insert"),
    ("coord.group_upgrades", "count"),
    ("registry.broadcasts", "count"),
    ("rs.reconstruct_ms", "ms"),
    ("recovery.detect_ms", "ms"),
    ("recovery.rebuild_ms", "ms"),
    ("recovery.bytes_moved", "B"),
    ("recovery.msgs", "msgs"),
    ("obs.incr_ns", "ns"),
    ("trace.overhead_frac", "1"),
    ("traced.ops_per_s", "1/s"),
    ("untraced.ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("solo_p50_us", "us"),
    ("solo_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("recovery_ms", "ms"),
    ("failed_frac", "1"),
    ("disk_bytes_per_user_byte", "B/B"),
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    plant: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <read-mostly|write-durable|grow|recover> --seed <n> \
         --seconds <s> --trace <0|1> [--size tiny] [--plant-wrong-expectation]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut plant) = (false, false);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--size" => {
                tiny = match value().as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => usage("--size takes tiny or full"),
                }
            }
            "--plant-wrong-expectation" => plant = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload: Workload::parse(&name)
            .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
        name,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .unwrap_or_else(|| usage("--seconds is required"))
            .max(1),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        tiny,
        plant,
    }
}

/// One run of the workload's body; `setups` is how many times a
/// preloaded workload sets up (the median is reported).
fn run_body(ctx: &Ctx, w: Workload, traced: bool, budget: Duration, setups: usize) -> Body {
    match w {
        Workload::ReadMostly | Workload::WriteDurable => {
            workloads::steady(ctx, w, traced, budget, setups)
        }
        Workload::Grow => workloads::grow(ctx, traced, budget),
        Workload::Recover => workloads::recover(ctx, traced, budget),
    }
}

fn main() {
    let args = parse_args();
    let tmp_dir =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", args.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp_dir) {
        eprintln!("perfbench: cannot create {}: {e}", tmp_dir.display());
        exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        plant: args.plant,
        tmp_dir: tmp_dir.clone(),
    };
    let cfg = lhrs_core::Config::default();
    report::print_metadata(&[
        ("workload", args.name.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("size", if args.tiny { "tiny" } else { "full" }.into()),
        ("client_threads", "1".into()),
        (
            "window",
            format!("{} (timed phase), 1 (solo phase)", workloads::WINDOW),
        ),
        ("client_timeout_us", cfg.client_timeout_us.to_string()),
        ("client_retries", cfg.client_retries.to_string()),
        ("probe_timeout_us", cfg.probe_timeout_us.to_string()),
        ("fsync_policy", cfg.wal_fsync.to_string()),
        ("op_deadline_s", loadgen::OP_TIMEOUT.as_secs().to_string()),
    ]);

    let seconds = Duration::from_secs(args.seconds);
    let (line_metrics, layer, bodies) = if args.trace {
        let untraced = run_body(&ctx, args.workload, false, seconds / 2, 1);
        let traced = run_body(&ctx, args.workload, true, seconds / 2, 1);
        let layer = layer_metrics(&ctx, &untraced, &traced);
        (
            pick(&layer, &PER_LAYER),
            Some(layer),
            vec![("untraced", untraced), ("traced", traced)],
        )
    } else {
        let body = run_body(&ctx, args.workload, false, seconds, 3);
        (pick(&body.e2e, &END_TO_END), None, vec![("run", body)])
    };
    let _ = std::fs::remove_dir_all(&tmp_dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    for (tag, body) in &bodies {
        for note in &body.notes {
            println!("note {note}");
        }
        body.e2e.print(&format!("e2e[{tag}]"));
        attempted += body.attempted;
        failed += body.failed;
        errors.extend(body.errors.iter().cloned());
    }
    if let Some(layer) = &layer {
        layer.print("layer");
    }
    for e in errors.iter().take(20) {
        println!("error {e}");
    }
    if errors.len() > 20 {
        println!("error ... and {} more", errors.len() - 20);
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        line_metrics.json()
    );
    if !correct {
        eprintln!(
            "perfbench: {} failed correctness checks (see the error lines)",
            errors.len()
        );
        exit(1);
    }
}

/// The traced run's per-layer metrics: counters of the traced half, the
/// microbenchmarks, the untraced/traced comparison, and the untraced
/// half's workload-specific end-to-end figures.
fn layer_metrics(ctx: &Ctx, untraced: &Body, traced: &Body) -> Metrics {
    let mut out = traced.layer.clone();
    layers::wire(&mut out);
    layers::transport(&mut out);
    layers::parity(&mut out, &traced.shape);
    layers::reconstruct(&mut out, &traced.shape);
    layers::wal(&mut out, &ctx.tmp_dir.join("wal-bench"));
    layers::obs(&mut out);
    layers::actors(&mut out, &traced.shape, ctx.seed);
    out.set("untraced.ops_per_s", untraced.ops_per_s, "1/s");
    out.set("traced.ops_per_s", traced.ops_per_s, "1/s");
    out.set(
        "trace.overhead_frac",
        1.0 - report::ratio(traced.ops_per_s, untraced.ops_per_s),
        "1",
    );
    for m in untraced.e2e.iter() {
        out.put_metric(m.clone());
    }
    out
}

/// `names`, in order and with their units, from `all` (a figure the
/// workload does not define reads 0).
fn pick(all: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        match all.get(name) {
            Some(m) => out.put_metric(report::Metric { unit, ..m.clone() }),
            None => out.set(name, 0.0, unit),
        }
    }
    out
}
