//! The four workloads. Each returns a [`Body`]: its end-to-end figures,
//! the counter deltas of its timed phase, and the file shape the layer
//! microbenchmarks replay.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use lhrs_core::registry::SharedHandle;
use lhrs_core::Config;
use lhrs_lh::FileState;
use lhrs_obs::Event;
use lhrs_testkit::Rng;

use crate::cluster::{Cluster, ClusterPlan};
use crate::loadgen::{self, Op, Oracle, Phase};
use crate::report::{latency_pair, median, ratio, Metrics};
use crate::with_client;

/// Which workload, and how big.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 95% lookups / 5% updates over loopback, k = 1.
    ReadMostly,
    /// 90% updates / 10% lookups over TCP with a WAL per node, k = 2.
    WriteDurable,
    /// Fresh inserts from one bucket to 64, k rising 1 → 2.
    Grow,
    /// Kill two data buckets of one group, read their keys back.
    Recover,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read-mostly" => Some(Workload::ReadMostly),
            "write-durable" => Some(Workload::WriteDurable),
            "grow" => Some(Workload::Grow),
            "recover" => Some(Workload::Recover),
            _ => None,
        }
    }
}

/// Settings shared by every phase of one run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Self-test sizes instead of the benchmark's.
    pub tiny: bool,
    /// Corrupt one oracle expectation (self-test of the check).
    pub plant: bool,
    /// Directory for write-ahead logs (inside the checkout).
    pub tmp_dir: std::path::PathBuf,
}

/// The in-flight window of every timed phase: `Config::client_window`'s
/// default.
pub const WINDOW: usize = 64;

/// The file shape a workload ran on, for the layer microbenchmarks.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The file configuration (latency model aside).
    pub cfg: Config,
    /// Preloaded keys, in load order.
    pub keys: Vec<u64>,
    /// Data buckets when the timed phase began.
    pub buckets: u64,
    /// Lookup share of the timed phase's op mix, in percent.
    pub lookup_pct: u64,
    /// Update share, in percent (the rest are inserts).
    pub update_pct: u64,
    /// Whether the simulator should replay a two-bucket kill.
    pub kill_two: bool,
}

/// Counter totals over the cluster's registries (client included when
/// its registry is enabled), indexed by the constants below.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters([u64; COUNTERS]);

const MSGS: usize = 0;
const BYTES: usize = 1;
const FRAMES: usize = 2;
const DROPS: usize = 3;
const COALESCED: usize = 4;
const BATCHES: usize = 5;
const COMMIT_OPS: usize = 6;
const COMMITS: usize = 7;
const DELTAS: usize = 8;
const SPLITS: usize = 9;
const SPLIT_MSGS: usize = 10;
const UPGRADES: usize = 11;
const BROADCASTS: usize = 12;
const RECOVERY_BYTES: usize = 13;
const RECOVERY_MSGS: usize = 14;
const RETRIES: usize = 15;
const BUSY_NS: usize = 16;
const BUSY_POLLS: usize = 17;
const COUNTERS: usize = 18;

const SPLIT_KINDS: [&str; 6] = [
    "overflow",
    "split",
    "split-load",
    "split-done",
    "init-data",
    "init-parity",
];

/// Failure detection and shard transfer: the message kinds only recovery
/// sends (installs also carry k-upgrades, so they are left out).
const RECOVERY_KINDS: [&str; 5] = [
    "suspect",
    "probe",
    "probe-ack",
    "transfer-req",
    "transfer-data",
];

impl Counters {
    fn read(cl: &Cluster) -> Counters {
        let client = cl.client_metrics();
        let both = |name: &'static str| cl.server_counter(name) + client.counter_total(name);
        let kinds = |ks: &[&'static str]| {
            ks.iter()
                .map(|k| {
                    cl.server_counter_kind("msgs_sent", k) + client.counter_kind("msgs_sent", k)
                })
                .sum()
        };
        let loops = |f: fn(&crate::cluster::LoopStats) -> u64| {
            cl.hosts.iter().map(|h| f(&h.loop_stats)).sum()
        };
        let mut c = [0; COUNTERS];
        c[MSGS] = both("msgs_sent");
        c[BYTES] = both("net_sent_bytes");
        c[FRAMES] = both("net_frames_sent");
        c[DROPS] = both("net_send_drops");
        c[COALESCED] = cl.server_counter("net_deltas_coalesced");
        c[BATCHES] = cl.server_counter("net_delta_batches");
        c[COMMIT_OPS] = cl.server_counter("wal_group_commit_ops");
        c[COMMITS] = cl.server_counter("wal_group_commits");
        c[DELTAS] = cl.server_counter("deltas_emitted");
        c[SPLITS] = cl.server_counter("splits_completed");
        c[SPLIT_MSGS] = kinds(&SPLIT_KINDS);
        c[UPGRADES] = cl.server_counter("group_upgrades");
        c[BROADCASTS] = cl.server_counter("registry_broadcasts");
        c[RECOVERY_BYTES] = cl.server_counter("recovery_bytes_moved");
        c[RECOVERY_MSGS] = kinds(&RECOVERY_KINDS);
        c[RETRIES] = client.counter_total("client_retries");
        c[BUSY_NS] = loops(|s| s.busy_ns.load(std::sync::atomic::Ordering::Relaxed));
        c[BUSY_POLLS] = loops(|s| s.busy_polls.load(std::sync::atomic::Ordering::Relaxed));
        Counters(c)
    }

    fn since(self, before: Counters) -> Counters {
        Counters(std::array::from_fn(|i| {
            self.0[i].saturating_sub(before.0[i])
        }))
    }

    fn plus(self, o: Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] + o.0[i]))
    }
}

/// Everything one workload run measured.
pub struct Body {
    /// End-to-end figures (the gated ones and the workload-specific ones).
    pub e2e: Metrics,
    /// Per-layer figures derived from the timed phase's counters.
    pub layer: Metrics,
    /// Window-64 throughput of the timed phase.
    pub ops_per_s: f64,
    /// Client ops attempted, all phases.
    pub attempted: u64,
    /// Client ops failed or timed out, all phases.
    pub failed: u64,
    /// Wrong values and lost acked keys.
    pub errors: Vec<String>,
    /// The file shape, for the microbenchmarks.
    pub shape: Shape,
    /// Notes printed with the run (stated timeouts, placement).
    pub notes: Vec<String>,
}

/// Per-run accumulator shared by the workloads.
#[derive(Default)]
struct Acc {
    timed: Phase,
    solo: Phase,
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    counters: Counters,
    /// Wall time between the counter snapshots the deltas came from.
    counter_span: Duration,
    host_threads: u64,
    inserts: u64,
    recovery_ms: Vec<f64>,
    detect_ms: Vec<f64>,
    rebuild_ms: Vec<f64>,
    /// Lookups made by the post-phase read-backs.
    read_back: u64,
    /// WAL bytes on disk per live payload byte (durable workloads).
    disk_per_user_byte: Option<f64>,
    notes: Vec<String>,
}

impl Acc {
    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    /// Count a read-back phase and collect what the oracle found.
    fn checked(&mut self, check: &Phase, oracle: &mut Oracle) {
        self.count(check);
        self.read_back += check.attempted;
        self.errors.append(&mut oracle.errors);
    }

    /// Turn the accumulated phases into a [`Body`].
    fn finish(mut self, shape: Shape) -> Body {
        let mut e2e = Metrics::default();
        let rates: Vec<f64> = self.timed.rounds.iter().map(|s| s.rate()).collect();
        let ops_per_s = median(&rates);
        e2e.set_n("ops_per_s", ops_per_s, "1/s", rates.len());
        round_latencies(&mut e2e, "op", &self.timed);
        self.notes.push(format!(
            "ops per phase: timed (window {WINDOW}) = {}, solo (window 1) = {}, read-back (window {WINDOW}) = {}",
            self.timed.attempted, self.solo.attempted, self.read_back
        ));
        self.notes.push(format!(
            "ops_per_s, op_* and solo_* are medians over {} timed and {} solo rounds",
            rates.len(),
            self.solo.rounds.len()
        ));
        if self.timed.reads.count() > 0 {
            latency_pair(&mut e2e, "read", &self.timed.reads);
        }
        if self.timed.writes.count() > 0 {
            latency_pair(&mut e2e, "write", &self.timed.writes);
        }
        round_latencies(&mut e2e, "solo", &self.solo);
        if !self.recovery_ms.is_empty() {
            e2e.set_n(
                "recovery_ms",
                median(&self.recovery_ms),
                "ms",
                self.recovery_ms.len(),
            );
        }
        e2e.set(
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            "1",
        );
        e2e.set_n("setup_s", median(&self.setups), "s", self.setups.len());
        e2e.set("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        if let Some(ratio) = self.disk_per_user_byte {
            e2e.set("disk_bytes_per_user_byte", ratio, "B/B");
        }

        let c = self.counters.0;
        let t = &self.timed;
        let ops = t.completed as f64;
        let mut layer = Metrics::default();
        layer.set(
            "client.submit_ns",
            ratio(t.trace.submit_ns as f64, t.trace.submits as f64),
            "ns",
        );
        layer.set(
            "client.pump_us_per_op",
            ratio(t.trace.pump_ns as f64 / 1e3, ops),
            "us",
        );
        layer.set(
            "client.window_stalls_per_op",
            ratio(t.stalls as f64, ops),
            "1/op",
        );
        layer.set(
            "client.retries_per_op",
            ratio(c[RETRIES] as f64, ops),
            "1/op",
        );
        layer.set("wire.msgs_per_op", ratio(c[MSGS] as f64, ops), "msgs/op");
        layer.set("wire.bytes_per_op", ratio(c[BYTES] as f64, ops), "B/op");
        layer.set(
            "transport.frames_per_op",
            ratio(c[FRAMES] as f64, ops),
            "frames/op",
        );
        layer.set("transport.drops", c[DROPS] as f64, "count");
        let host_wall_ns = self.counter_span.as_nanos() as f64 * self.host_threads as f64;
        layer.set(
            "host.busy_frac",
            ratio(c[BUSY_NS] as f64, host_wall_ns),
            "1",
        );
        layer.set(
            "host.ops_per_busy_poll",
            ratio(ops, c[BUSY_POLLS] as f64),
            "ops/poll",
        );
        layer.set(
            "host.deltas_per_batch",
            ratio(c[COALESCED] as f64, c[BATCHES] as f64),
            "deltas/batch",
        );
        layer.set(
            "host.appends_per_fsync",
            ratio(c[COMMIT_OPS] as f64, c[COMMITS] as f64),
            "appends/fsync",
        );
        layer.set(
            "parity.deltas_per_write",
            ratio(c[DELTAS] as f64, t.writes_done as f64),
            "deltas/write",
        );
        layer.set("split.count", c[SPLITS] as f64, "count");
        layer.set(
            "split.msgs_per_insert",
            ratio(c[SPLIT_MSGS] as f64, self.inserts as f64),
            "msgs/insert",
        );
        layer.set("coord.group_upgrades", c[UPGRADES] as f64, "count");
        layer.set("registry.broadcasts", c[BROADCASTS] as f64, "count");
        layer.set("recovery.detect_ms", median(&self.detect_ms), "ms");
        layer.set("recovery.rebuild_ms", median(&self.rebuild_ms), "ms");
        layer.set("recovery.bytes_moved", c[RECOVERY_BYTES] as f64, "B");
        layer.set("recovery.msgs", c[RECOVERY_MSGS] as f64, "msgs");
        layer.set(
            "wal.bytes_per_user_byte",
            self.disk_per_user_byte.unwrap_or(0.0),
            "B/B",
        );

        Body {
            e2e,
            layer,
            ops_per_s,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            shape,
            notes: self.notes,
        }
    }
}

/// `<prefix>_p50_us` and `<prefix>_p99_us` of a phase: the median over its
/// rounds of each round's percentile, counting only rounds with enough
/// samples for it (100 for p50, 1000 for p99); the pooled percentile when
/// no round has enough.
fn round_latencies(out: &mut Metrics, prefix: &str, phase: &Phase) {
    for (name, p, min) in [("p50", 50.0, 100), ("p99", 99.0, 1000)] {
        let per_round: Vec<f64> = phase
            .rounds
            .iter()
            .filter(|r| r.all.count() >= min)
            .map(|r| r.all.percentile(p) as f64)
            .collect();
        let ns = if per_round.is_empty() {
            phase.all.percentile(p) as f64
        } else {
            median(&per_round)
        };
        out.set_n(
            format!("{prefix}_{name}_us"),
            ns / 1e3,
            "us",
            phase.all.count() as usize,
        );
    }
}

/// Every workload's base: the default file with acked writes and acked
/// parity — the mode in which no acked write may be lost.
fn base_config() -> Config {
    Config {
        ack_writes: true,
        ack_parity: true,
        ..Config::default()
    }
}

/// Node ids `lo..hi`.
fn ids(lo: u32, hi: u32) -> Vec<u32> {
    (lo..hi).collect()
}

fn shared_of(cl: &Cluster) -> SharedHandle {
    with_client!(&cl.client, c => c.host().shared().clone())
}

/// Insert fresh seeded keys at [`WINDOW`] until the client's table shows
/// at least `buckets` data buckets (or `cap` keys went in), then let
/// in-flight splits settle.
fn load_until(
    cl: &mut Cluster,
    oracle: &mut Oracle,
    rng: &mut Rng,
    buckets: u64,
    cap: usize,
    traced: bool,
) -> Phase {
    let shared = shared_of(cl);
    let mut issued = 0usize;
    let mut next = |o: &mut Oracle, _: &HashSet<u64>| {
        if issued >= cap || shared.registry.borrow().data_count() as u64 >= buckets {
            return None;
        }
        let key = fresh_key(rng, o);
        issued += 1;
        Some(Op::Insert(key, o.next_payload(key)))
    };
    let phase = loadgen::run_phase(cl, oracle, WINDOW, traced, &mut next);
    cl.settle(Duration::from_millis(150), Duration::from_secs(5));
    phase
}

fn fresh_key(rng: &mut Rng, oracle: &Oracle) -> u64 {
    loop {
        let key = rng.next_u64();
        if !oracle.contains(key) {
            return key;
        }
    }
}

/// A uniformly chosen known key that has no op in flight.
fn existing_key(rng: &mut Rng, oracle: &Oracle, busy: &HashSet<u64>) -> u64 {
    loop {
        let key = oracle.keys[rng.below(oracle.keys.len() as u64) as usize];
        if !busy.contains(&key) {
            return key;
        }
    }
}

/// A mixed lookup/update phase at `window` that submits for `length`.
fn mixed_phase(
    cl: &mut Cluster,
    oracle: &mut Oracle,
    rng: &mut Rng,
    update_pct: u64,
    window: usize,
    length: Duration,
    traced: bool,
) -> Phase {
    let until = Instant::now() + length;
    let mut next = |o: &mut Oracle, busy: &HashSet<u64>| {
        if Instant::now() >= until {
            return None;
        }
        let key = existing_key(rng, o, busy);
        if rng.below(100) < update_pct {
            Some(Op::Update(key, o.next_payload(key)))
        } else {
            Some(Op::Lookup(key))
        }
    };
    loadgen::run_phase(cl, oracle, window, traced, &mut next)
}

/// Alternating window-64 / window-1 rounds of a steady-state run.
const ROUNDS: u32 = 16;
/// Shares of a steady-state run's seconds spent in its window-64 and
/// window-1 phases.
const TIMED_SHARE: f64 = 0.6;
const SOLO_SHARE: f64 = 0.25;

/// Sizes of one preloaded, steady-state workload.
struct Steady {
    cfg: Config,
    servers: u32,
    buckets: u64,
    update_pct: u64,
    /// TCP between two server host threads and a write-ahead log per node
    /// from boot; otherwise loopback, one host thread, in-memory stores.
    durable: bool,
}

fn steady_spec(w: Workload, tiny: bool) -> Steady {
    let mut cfg = base_config();
    cfg.bucket_capacity = if tiny { 64 } else { 512 };
    match w {
        Workload::ReadMostly => Steady {
            cfg,
            servers: if tiny { 12 } else { 32 },
            buckets: if tiny { 4 } else { 16 },
            update_pct: 5,
            durable: false,
        },
        _ => {
            cfg.initial_k = 2;
            Steady {
                cfg,
                servers: if tiny { 14 } else { 40 },
                buckets: if tiny { 4 } else { 16 },
                update_pct: 90,
                durable: true,
            }
        }
    }
}

/// Boot and preload one steady-state cluster, adding its setup time, its
/// preload ops and a preload that fell short to `acc`.
fn steady_setup(
    ctx: &Ctx,
    s: &Steady,
    traced: bool,
    n: usize,
    acc: &mut Acc,
) -> (Cluster, Oracle, Rng) {
    let t0 = Instant::now();
    let wal_root = s.durable.then(|| ctx.tmp_dir.join(format!("wal-{n}")));
    if let Some(root) = &wal_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let host_groups = if s.durable {
        // Two server host threads, each carrying every other server node
        // (the coordinator rides with the even ones): data → parity Δs
        // and their acks cross sockets the way separate machines would.
        let all = ids(2, s.servers + 2);
        let even: Vec<u32> = std::iter::once(0)
            .chain(all.iter().copied().filter(|i| i % 2 == 0))
            .collect();
        let odd: Vec<u32> = all.iter().copied().filter(|i| i % 2 == 1).collect();
        vec![even, odd]
    } else {
        vec![std::iter::once(0).chain(ids(2, s.servers + 2)).collect()]
    };
    let mut cl = Cluster::boot(ClusterPlan {
        cfg: s.cfg.clone(),
        servers: s.servers,
        host_groups,
        tcp: s.durable,
        wal_root,
        traced,
    });
    let mut oracle = Oracle::default();
    let mut rng = Rng::new(ctx.seed);
    let cap = (s.buckets as usize) * s.cfg.bucket_capacity * 4;
    let load = load_until(&mut cl, &mut oracle, &mut rng, s.buckets, cap, false);
    acc.setups.push(t0.elapsed().as_secs_f64());
    acc.count(&load);
    if cl.bucket_count() < s.buckets {
        acc.errors.push(format!(
            "setup {n}: preload stopped at {} buckets after {} inserts ({} failed)",
            cl.bucket_count(),
            load.attempted,
            load.failed
        ));
    }
    (cl, oracle, rng)
}

/// `read-mostly` and `write-durable`: one preloaded file, a window-64
/// mixed phase, a window-1 phase, a full read-back.
pub fn steady(ctx: &Ctx, w: Workload, traced: bool, budget: Duration, setups: usize) -> Body {
    let s = steady_spec(w, ctx.tiny);
    let mut acc = Acc {
        host_threads: if s.durable { 2 } else { 1 },
        ..Acc::default()
    };
    let (mut cl, mut oracle, mut rng) = steady_setup(ctx, &s, traced, 0, &mut acc);
    let buckets = cl.bucket_count();
    acc.notes.push(format!(
        "preloaded {} keys into {buckets} data buckets (m = {}, k = {}, bucket capacity {}, {})",
        oracle.keys.len(),
        s.cfg.group_size,
        s.cfg.initial_k,
        s.cfg.bucket_capacity,
        if s.durable {
            format!(
                "TCP on 127.0.0.1, two server host threads, a WAL per node from boot, fsync {}, wal_snapshot_every {}",
                s.cfg.wal_fsync, s.cfg.wal_snapshot_every
            )
        } else {
            "loopback, one server host thread, in-memory stores".into()
        },
    ));
    let keys_at_start = oracle.keys.clone();

    // The window-64 and window-1 phases alternate in ROUNDS short rounds
    // spread over the whole run: a stall of the shared host (CPU or disk)
    // spoils a few rounds, not the median.
    let (timed_len, solo_len) = (
        budget.mul_f64(TIMED_SHARE) / ROUNDS,
        budget.mul_f64(SOLO_SHARE) / ROUNDS,
    );
    for _ in 0..ROUNDS {
        let (before, t0) = (Counters::read(&cl), Instant::now());
        let timed = mixed_phase(
            &mut cl,
            &mut oracle,
            &mut rng,
            s.update_pct,
            WINDOW,
            timed_len,
            traced,
        );
        acc.counters = acc.counters.plus(Counters::read(&cl).since(before));
        acc.counter_span += t0.elapsed();
        acc.count(&timed);
        acc.timed.absorb(timed);
        let solo = mixed_phase(
            &mut cl,
            &mut oracle,
            &mut rng,
            s.update_pct,
            1,
            solo_len,
            false,
        );
        acc.count(&solo);
        acc.solo.absorb(solo);
    }

    plant_if_asked(ctx, &mut oracle);
    let check = loadgen::read_back_all(&mut cl, &mut oracle, WINDOW);
    acc.checked(&check, &mut oracle);
    acc.notes.push(health_note(&cl));
    if let Some(root) = &cl.wal_root {
        let disk = dir_bytes(root) as f64;
        let live = (oracle.keys.len() * loadgen::PAYLOAD_LEN) as f64;
        acc.disk_per_user_byte = Some(ratio(disk, live));
    }
    cl.shutdown();

    // Set-up is measured more than once and reported as a median, so
    // work moved into set-up shows against a steady figure.
    for n in 1..setups {
        let (cl, _, _) = steady_setup(ctx, &s, false, n, &mut acc);
        cl.shutdown();
    }
    let shape = Shape {
        cfg: s.cfg.clone(),
        keys: keys_at_start,
        buckets,
        lookup_pct: 100 - s.update_pct,
        update_pct: s.update_pct,
        kill_two: false,
    };
    acc.finish(shape)
}

/// With `--plant-wrong-expectation`, corrupt one key's expectation just
/// before a lookup-only read-back that reads every key, so the check must
/// trip.
fn plant_if_asked(ctx: &Ctx, oracle: &mut Oracle) {
    if ctx.plant {
        let key = oracle.keys[0];
        oracle.plant_wrong_expectation(key);
    }
}

/// Failure-handling counters over a cluster's whole life: a healthy run
/// shows no recoveries and no escalations.
fn health_note(cl: &Cluster) -> String {
    let client = cl.client_metrics();
    format!(
        "cluster counters: recoveries_started = {}, recovery_shards_rebuilt = {}, suspects = {}, probes = {}, install = {}, resume_writes = {}, wal_snapshots = {}, wal_errors = {}, splits_completed = {}, client_escalations = {}",
        cl.server_counter("recoveries_started"),
        cl.server_counter("recovery_shards_rebuilt"),
        cl.server_counter_kind("msgs_sent", "suspect") + client.counter_kind("msgs_sent", "suspect"),
        cl.server_counter_kind("msgs_sent", "probe"),
        cl.server_counter_kind("msgs_sent", "install"),
        cl.server_counter_kind("msgs_sent", "resume-writes"),
        cl.server_counter("wal_snapshots"),
        cl.server_counter("wal_errors"),
        cl.server_counter("splits_completed"),
        client.counter_total("client_escalations"),
    )
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `grow`: repeated cycles of boot → fresh inserts at window 64 until the
/// file spans the target bucket count → a window-1 insert phase → read
/// back. k rises from 1 to 2 partway through each cycle.
pub fn grow(ctx: &Ctx, traced: bool, budget: Duration) -> Body {
    let target: u64 = if ctx.tiny { 16 } else { 64 };
    let mut cfg = base_config();
    cfg.scale_thresholds = vec![target / 4];
    // Enough servers for the grown file (every group at k = 2) plus spares.
    let servers = (target + target.div_ceil(cfg.group_size as u64) * 2 + 16) as u32;
    let solo_inserts = if ctx.tiny { 50 } else { 300 };
    let mut acc = Acc {
        host_threads: 1,
        ..Acc::default()
    };
    acc.notes.push(format!(
        "each cycle grows a fresh file from 1 to >= {target} data buckets (m = {}, bucket capacity {}, k = 1 rising to 2 once M > {}), loopback, one server host thread",
        cfg.group_size, cfg.bucket_capacity, target / 4
    ));
    let start = Instant::now();
    let mut cycle = 0u64;
    let mut first_keys = Vec::new();
    while cycle < 2 || (start.elapsed() < budget && cycle < 200) {
        let t0 = Instant::now();
        let mut cl = Cluster::boot(ClusterPlan {
            cfg: cfg.clone(),
            servers,
            host_groups: vec![std::iter::once(0).chain(ids(2, servers + 2)).collect()],
            tcp: false,
            wal_root: None,
            traced,
        });
        acc.setups.push(t0.elapsed().as_secs_f64());
        let mut oracle = Oracle::default();
        let mut rng = Rng::new(ctx.seed.wrapping_add(cycle));

        let (before, t0) = (Counters::read(&cl), Instant::now());
        let cap = target as usize * cfg.bucket_capacity * 8;
        let timed = load_until(&mut cl, &mut oracle, &mut rng, target, cap, traced);
        acc.counters = acc.counters.plus(Counters::read(&cl).since(before));
        acc.counter_span += t0.elapsed();
        acc.inserts += timed.writes_done;
        acc.count(&timed);
        if cl.bucket_count() < target {
            acc.errors.push(format!(
                "cycle {cycle}: file stopped growing at {} buckets",
                cl.bucket_count()
            ));
        }
        if cycle == 0 {
            first_keys = oracle.keys.clone();
        }
        acc.timed.absorb(timed);

        let mut left = solo_inserts;
        let solo = loadgen::run_phase(&mut cl, &mut oracle, 1, false, &mut |o, _| {
            if left == 0 {
                return None;
            }
            left -= 1;
            let key = fresh_key(&mut rng, o);
            Some(Op::Insert(key, o.next_payload(key)))
        });
        acc.count(&solo);
        acc.solo.absorb(solo);

        plant_if_asked(ctx, &mut oracle);
        let check = loadgen::read_back_all(&mut cl, &mut oracle, WINDOW);
        acc.checked(&check, &mut oracle);
        if cycle == 0 {
            acc.notes.push(health_note(&cl));
        }
        cl.shutdown();
        cycle += 1;
    }
    acc.notes.push(format!("{cycle} grow cycles"));
    let shape = Shape {
        cfg,
        keys: first_keys,
        buckets: target,
        lookup_pct: 0,
        update_pct: 0,
        kill_two: false,
    };
    acc.finish(shape)
}

/// Lost keys `recover` reads back at window 1 in each cycle.
const SOLO_READS: usize = 1000;

/// `recover`: repeated cycles of boot → preload four large buckets →
/// kill the host thread carrying data buckets 1 and 2 (f = k = 2 in group
/// 0) → read back every key they held at window 64.
pub fn recover(ctx: &Ctx, traced: bool, budget: Duration) -> Body {
    let mut cfg = base_config();
    cfg.initial_k = 2;
    cfg.bucket_capacity = if ctx.tiny { 256 } else { 8192 };
    let buckets = cfg.group_size as u64;
    let servers: u32 = 20;
    // The coordinator hands out spare nodes lowest id first, after bucket
    // 0 and group 0's k parity nodes: buckets 1 and 2 land on the next two
    // server ids. Host them on their own thread.
    let first_spare = 2 + 1 + cfg.initial_k as u32;
    let victims = vec![first_spare, first_spare + 1];
    let mut acc = Acc {
        host_threads: 2,
        ..Acc::default()
    };
    acc.notes.push(format!(
        "stated timeouts: client_timeout_us = {}, client_retries = {}, retry_backoff_cap_us = {}, probe_timeout_us = {}, coord_retransmit_us = {} (detection time is these timers, not rebuild cost)",
        cfg.client_timeout_us, cfg.client_retries, cfg.retry_backoff_cap_us, cfg.probe_timeout_us, cfg.coord_retransmit_us
    ));
    let start = Instant::now();
    let mut cycle = 0u64;
    let mut first_keys = Vec::new();
    let mut lost_total = 0usize;
    let mut unstarted = 0u64;
    while cycle < 2 || (start.elapsed() < budget && cycle < 200) {
        let t0 = Instant::now();
        let mut cl = Cluster::boot(ClusterPlan {
            cfg: cfg.clone(),
            servers,
            host_groups: vec![
                std::iter::once(0)
                    .chain(
                        ids(2, servers + 2)
                            .into_iter()
                            .filter(|i| !victims.contains(i)),
                    )
                    .collect(),
                victims.clone(),
            ],
            tcp: false,
            wal_root: None,
            traced,
        });
        let mut oracle = Oracle::default();
        let mut rng = Rng::new(ctx.seed.wrapping_add(cycle));
        let cap = buckets as usize * cfg.bucket_capacity * 4;
        let load = load_until(&mut cl, &mut oracle, &mut rng, buckets, cap, false);
        acc.count(&load);
        acc.setups.push(t0.elapsed().as_secs_f64());
        let m = cl.bucket_count();
        let placed = [cl.data_node(1), cl.data_node(2)];
        if m < buckets || !placed.iter().all(|n| victims.contains(n)) {
            acc.errors.push(format!(
                "cycle {cycle}: unexpected placement ({m} buckets, buckets 1 and 2 on nodes {placed:?}, victim host carries {victims:?})"
            ));
            cl.shutdown();
            break;
        }
        if cycle == 0 {
            first_keys = oracle.keys.clone();
        }
        // Which keys the lost buckets held: LH addressing on the settled
        // file state.
        let mut state = FileState::new(1);
        for _ in 1..m {
            state.split();
        }
        let lost: Vec<u64> = oracle
            .keys
            .iter()
            .copied()
            .filter(|&k| matches!(state.address(k), 1 | 2))
            .collect();
        lost_total += lost.len();
        if ctx.plant {
            oracle.plant_wrong_expectation(lost[0]);
        }

        let before = Counters::read(&cl);
        let coord_epoch = cl.hosts[0].epoch;
        let victim_host = cl.host_of(victims[0]).expect("victim host exists");
        let killed_at = Instant::now();
        cl.kill_host(victim_host);
        let mut timed = loadgen::read_back(&mut cl, &mut oracle, &lost, WINDOW, traced);
        acc.counters = acc.counters.plus(Counters::read(&cl).since(before));
        acc.counter_span += killed_at.elapsed();
        if let Some(done) = timed.last_completion {
            acc.recovery_ms
                .push(done.saturating_duration_since(killed_at).as_secs_f64() * 1e3);
        }
        let kill_us = killed_at.saturating_duration_since(coord_epoch).as_micros() as u64;
        let events = cl.hosts[0].metrics.events();
        let started = events.iter().find_map(|e| match e.event {
            Event::RecoveryStart { .. } if e.at_us >= kill_us => Some(e.at_us),
            _ => None,
        });
        let ended = events.iter().rev().find_map(|e| match e.event {
            Event::RecoveryEnd { .. } if e.at_us >= kill_us => Some(e.at_us),
            _ => None,
        });
        if let (Some(s), Some(e)) = (started, ended) {
            acc.detect_ms.push((s - kill_us) as f64 / 1e3);
            acc.rebuild_ms.push(e.saturating_sub(s) as f64 / 1e3);
        }
        // The cycle's rate leaves the detection timers out: it runs from
        // the coordinator's RecoveryStart (no lost key can be read before
        // it) to the last lost key read back, so shard transfer, decode,
        // install, degraded reads and the reads of the rebuilt buckets
        // fall inside it.
        let rebuild_from = started.map(|s| coord_epoch + Duration::from_micros(s));
        match (
            rebuild_from,
            timed.last_completion,
            timed.rounds.first_mut(),
        ) {
            (Some(from), Some(done), Some(round)) => {
                round.span = done.saturating_duration_since(from);
            }
            _ => {
                timed.rounds.clear();
                unstarted += 1;
            }
        }
        acc.count(&timed);
        acc.timed.absorb(timed);

        // Some of the same reads once more, one at a time, on the rebuilt
        // file.
        let solo_keys = &lost[..lost.len().min(SOLO_READS)];
        let solo = loadgen::read_back(&mut cl, &mut oracle, solo_keys, 1, false);
        acc.count(&solo);
        acc.solo.absorb(solo);

        let check = loadgen::read_back_all(&mut cl, &mut oracle, WINDOW);
        acc.checked(&check, &mut oracle);
        cl.shutdown();
        cycle += 1;
    }
    acc.notes.push(format!(
        "{cycle} kill cycles, {lost_total} lost keys read back in total ({} per cycle); ops_per_s = lost keys read back / (last read back - coordinator RecoveryStart), {unstarted} cycles without a RecoveryStart left out",
        lost_total / cycle.max(1) as usize
    ));
    let shape = Shape {
        cfg,
        keys: first_keys,
        buckets,
        lookup_pct: 100,
        update_pct: 0,
        kill_two: true,
    };
    acc.finish(shape)
}
