//! Per-layer microbenchmarks of the traced run. Each times calls into one
//! layer's public functions with the workload's own message, cell and
//! shard sizes, so a change to that layer moves its figure here before it
//! moves an end-to-end one.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lhrs_core::msg::{DeltaEntry, KeyOp, Msg, OpResult, ReqKind};
use lhrs_core::record::{cell_delta, encode_cell};
use lhrs_core::storage::{encode_op, BucketStore, WalOp};
use lhrs_core::wire::{decode_msg, encode_msg};
use lhrs_core::{FsyncPolicy, LhrsFile};
use lhrs_gf::Gf8;
use lhrs_net::frame::{encode_frame, FrameAccumulator, FrameType};
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport, TcpTransport, Transport};
use lhrs_obs::{Clock, Metrics as Registry};
use lhrs_rs::RsCode;
use lhrs_sim::{LatencyModel, NodeId};
use lhrs_testkit::Rng;

use crate::loadgen::payload;
use crate::report::{median, percentile, ratio, Metrics};
use crate::workloads::Shape;

/// Mean ns per call of `f` over `iters` calls (after a warm-up tenth).
fn mean_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// The four message kinds the timed phases carry, at the workload's sizes.
fn sample_msgs() -> Vec<(&'static str, Msg)> {
    let key = 0x9E37_79B9_7F4A_7C15;
    let value = payload(key, 1);
    let req = |kind| Msg::Req {
        op_id: 123_456,
        client: NodeId(1),
        intended: 5,
        hops: 0,
        kind,
    };
    let cell = encode_cell(&value, value.len() + 4);
    vec![
        ("lookup", req(ReqKind::Lookup(key))),
        ("update", req(ReqKind::Update(key, value.clone()))),
        (
            "reply",
            Msg::Reply {
                op_id: 123_456,
                result: OpResult::Value(Some(value)),
                iam: None,
            },
        ),
        (
            "parity-delta",
            Msg::ParityDelta {
                group: 1,
                entry: DeltaEntry {
                    seq: 40_000,
                    rank: 300,
                    col: 2,
                    key_op: KeyOp::Keep,
                    delta_cell: cell,
                },
                ack_to: Some(NodeId(7)),
            },
        ),
    ]
}

/// `wire.*` and `frame.*`: codec cost per message kind and per frame.
pub fn wire(out: &mut Metrics) {
    for (kind, msg) in sample_msgs() {
        let encode = mean_ns(200_000, || {
            black_box(encode_msg(black_box(&msg)));
        });
        let bytes = encode_msg(&msg);
        let decode = mean_ns(200_000, || {
            black_box(decode_msg(black_box(&bytes)).ok());
        });
        out.set(format!("wire.encode_ns.{kind}"), encode, "ns");
        out.set(format!("wire.decode_ns.{kind}"), decode, "ns");
    }
    let update = encode_msg(&sample_msgs()[1].1);
    let encode = mean_ns(200_000, || {
        black_box(encode_frame(
            FrameType::Msg,
            NodeId(1),
            NodeId(9),
            black_box(&update),
        ));
    });
    let frame = encode_frame(FrameType::Msg, NodeId(1), NodeId(9), &update);
    let mut acc = FrameAccumulator::new();
    let decode = mean_ns(200_000, || {
        acc.extend(black_box(&frame));
        black_box(acc.next_frame().ok());
    });
    out.set("frame.encode_ns", encode, "ns");
    out.set("frame.decode_ns", decode, "ns");
}

/// Half the p50 round trip of a bare ping between two transports: the
/// sender's `send_msg` + `flush`, the echo thread's receive and answer.
fn ping<T: Transport + Send + 'static>(
    mut a: T,
    rx_a: mpsc::Receiver<HostEvent>,
    b: T,
    rx_b: mpsc::Receiver<HostEvent>,
    tx_b: mpsc::Sender<HostEvent>,
    rounds: usize,
) -> f64 {
    let echo = std::thread::spawn(move || {
        let mut b = b;
        while let Ok(event) = rx_b.recv() {
            match event {
                HostEvent::Deliver { from, to, msg } => {
                    b.send_msg(to, from, &msg);
                    b.flush();
                }
                HostEvent::Shutdown => return,
                _ => {}
            }
        }
    });
    let msg = sample_msgs().swap_remove(0).1;
    let mut rtt: Vec<u64> = Vec::with_capacity(rounds);
    for i in 0..rounds + rounds / 10 {
        let t = Instant::now();
        a.send_msg(NodeId(0), NodeId(1), &msg);
        a.flush();
        loop {
            match rx_a.recv_timeout(Duration::from_secs(5)) {
                Ok(HostEvent::Deliver { .. }) => break,
                Ok(_) => continue,
                Err(_) => {
                    let _ = tx_b.send(HostEvent::Shutdown);
                    let _ = echo.join();
                    return 0.0;
                }
            }
        }
        if i >= rounds / 10 {
            rtt.push(t.elapsed().as_nanos() as u64);
        }
    }
    let _ = tx_b.send(HostEvent::Shutdown);
    echo.join().expect("echo thread");
    percentile(&mut rtt, 50.0) as f64 / 2e3
}

/// `transport.loopback_hop_us` and `transport.tcp_hop_us`.
pub fn transport(out: &mut Metrics) {
    let net = LoopbackNet::new();
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    net.register(&[0], tx_a);
    net.register(&[1], tx_b.clone());
    let a = LoopbackTransport::new(net.clone(), &[0]);
    let b = LoopbackTransport::new(net, &[1]);
    out.set(
        "transport.loopback_hop_us",
        ping(a, rx_a, b, rx_b, tx_b, 5000),
        "us",
    );

    let ports: Vec<u16> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port"))
        .collect::<Vec<_>>()
        .iter()
        .map(|l| l.local_addr().expect("bound").port())
        .collect();
    let addr = |i: usize| format!("127.0.0.1:{}", ports[i]);
    let peers: HashMap<u32, String> = [(0, addr(0)), (1, addr(1))].into_iter().collect();
    let (tx_a, rx_a) = mpsc::channel();
    let (tx_b, rx_b) = mpsc::channel();
    let a = TcpTransport::start(&[(0, addr(0))], peers.clone(), tx_a).expect("bind ping a");
    let b = TcpTransport::start(&[(1, addr(1))], peers, tx_b.clone()).expect("bind ping b");
    out.set(
        "transport.tcp_hop_us",
        ping(a, rx_a, b, rx_b, tx_b, 3000),
        "us",
    );
}

/// `parity.delta_ns.k1` / `.k2`: one update's Δ (`cell_delta`) applied to
/// one parity cell, on the XOR column (index 0) and on a GF column
/// (index 1).
pub fn parity(out: &mut Metrics, shape: &Shape) {
    let cell_len = shape.cfg.record_len + 4;
    let old = encode_cell(&payload(1, 1), cell_len);
    let new = encode_cell(&payload(1, 2), cell_len);
    let code = RsCode::<Gf8>::new(shape.cfg.group_size, 2).expect("rs code");
    let mut parity = vec![0u8; cell_len];
    for (name, index) in [("parity.delta_ns.k1", 0), ("parity.delta_ns.k2", 1)] {
        let ns = mean_ns(200_000, || {
            let delta = cell_delta(black_box(&old), black_box(&new));
            code.apply_delta(2, index, &delta, &mut parity);
        });
        black_box(&parity);
        out.set(name, ns, "ns");
    }
}

/// `rs.reconstruct_ms`: rebuild two erased data shards of one group at
/// the workload's shard size (records per bucket × cell length).
pub fn reconstruct(out: &mut Metrics, shape: &Shape) {
    let m = shape.cfg.group_size;
    let cell_len = shape.cfg.record_len + 4;
    let per_bucket = ratio(shape.keys.len() as f64, shape.buckets.max(1) as f64).max(1.0) as usize;
    let shard_len = per_bucket * cell_len;
    let code = RsCode::<Gf8>::new(m, 2).expect("rs code");
    let mut rng = Rng::new(7);
    let data: Vec<Vec<u8>> = (0..m).map(|_| rng.bytes(shard_len)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = code.encode(&refs).expect("encode");
    let mut times = Vec::new();
    for _ in 0..7 {
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        shards[1] = None;
        shards[2] = None;
        let t = Instant::now();
        code.reconstruct(&mut shards).expect("two erasures decode");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            shards[1].as_deref(),
            Some(data[1].as_slice()),
            "decode is exact"
        );
    }
    out.set_n("rs.reconstruct_ms", median(&times), "ms", times.len());
    out.set("rs.shard_bytes", shard_len as f64, "B");
}

/// `wal.append_us` / `wal.sync_us`: `FileWal` appends of one committed
/// update and a sync every 16 appends (a group commit), through the
/// `BucketStore` seam, under `dir`.
pub fn wal(out: &mut Metrics, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let Ok(mut store) = lhrs_wal::FileWal::open(dir, FsyncPolicy::Batch) else {
        out.set("wal.append_us", 0.0, "us");
        out.set("wal.sync_us", 0.0, "us");
        return;
    };
    let (mut append_ns, mut sync_ns, mut appends, mut syncs) = (0u128, 0u128, 0u64, 0u64);
    for i in 0..2048u64 {
        let op = encode_op(&WalOp::Set {
            rank: i % 512,
            key: i,
            payload: payload(i, 1),
            delta_seq: i + 1,
        });
        let t = Instant::now();
        store.append(&op).expect("wal append");
        append_ns += t.elapsed().as_nanos();
        appends += 1;
        if i % 16 == 15 {
            let t = Instant::now();
            store.sync().expect("wal sync");
            sync_ns += t.elapsed().as_nanos();
            syncs += 1;
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    out.set(
        "wal.append_us",
        append_ns as f64 / 1e3 / appends as f64,
        "us",
    );
    out.set("wal.sync_us", sync_ns as f64 / 1e3 / syncs as f64, "us");
}

/// `obs.incr_ns`: one `Metrics::incr` on an enabled registry.
pub fn obs(out: &mut Metrics) {
    let registry = Registry::new(Clock::wall());
    let ns = mean_ns(1_000_000, || registry.incr(black_box("perfbench_counter")));
    out.set("obs.incr_ns", ns, "ns");
}

/// `actor.*` and `sim.*`: the same file shape in the deterministic
/// simulator with instant latency — actor handler wall time per op and
/// the paper's exact message counts.
pub fn actors(out: &mut Metrics, shape: &Shape, seed: u64) {
    let cfg = lhrs_core::Config {
        latency: LatencyModel::instant(),
        node_pool: 4096,
        ..shape.cfg.clone()
    };
    let mut file = LhrsFile::new(cfg).expect("simulator config");
    let mut rng = Rng::new(seed ^ 0x5151);
    // Grow: the simulator replays the whole growth as its insert sample.
    let grow_phase = shape.lookup_pct == 0 && shape.update_pct == 0;
    let preload: &[u64] = if grow_phase { &[] } else { &shape.keys };
    for &key in preload {
        file.insert(key, payload(key, 1)).expect("sim preload");
    }
    const N: usize = 1000;
    let existing: Vec<u64> = (0..N)
        .map(|_| {
            preload
                .get(rng.below(preload.len().max(1) as u64) as usize)
                .copied()
                .unwrap_or(0)
        })
        .collect();

    let per_op = |file: &mut LhrsFile, ops: &mut dyn FnMut(&mut LhrsFile) -> usize| {
        let t = Instant::now();
        let mut n = 0;
        let cost = file.cost_of(|f| n = ops(f));
        (
            t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64,
            ratio(cost.total_messages() as f64, n as f64),
        )
    };
    let (lookup_us, lookup_msgs) = if preload.is_empty() {
        (0.0, 0.0)
    } else {
        per_op(&mut file, &mut |f| {
            for &k in &existing {
                f.lookup(k).expect("sim lookup");
            }
            existing.len()
        })
    };
    let (update_us, update_msgs) = if preload.is_empty() {
        (0.0, 0.0)
    } else {
        per_op(&mut file, &mut |f| {
            for &k in &existing {
                f.update(k, payload(k, 2)).expect("sim update");
            }
            existing.len()
        })
    };
    let inserts: Vec<u64> = if grow_phase {
        shape.keys.clone()
    } else {
        (0..N).map(|_| rng.next_u64()).collect()
    };
    let (insert_us, insert_msgs) = per_op(&mut file, &mut |f| {
        for &k in &inserts {
            f.insert(k, payload(k, 1)).expect("sim insert");
        }
        inserts.len()
    });
    out.set("actor.lookup_us", lookup_us, "us");
    out.set("actor.update_us", update_us, "us");
    out.set("actor.insert_us", insert_us, "us");
    out.set("sim.msgs.lookup", lookup_msgs, "msgs/op");
    out.set("sim.msgs.update", update_msgs, "msgs/op");
    out.set("sim.msgs.insert", insert_msgs, "msgs/op");

    let mix = if shape.kill_two {
        // The same scenario in the simulator: lose data buckets 1 and 2
        // of a fresh copy of the file and read their keys back.
        kill_two_msgs(shape)
    } else if grow_phase {
        insert_msgs
    } else {
        (lookup_msgs * shape.lookup_pct as f64 + update_msgs * shape.update_pct as f64) / 100.0
    };
    out.set("sim.msgs_per_op", mix, "msgs/op");
}

/// Messages per lookup when data buckets 1 and 2 crash and every key they
/// held is read back, in the simulator.
fn kill_two_msgs(shape: &Shape) -> f64 {
    let cfg = lhrs_core::Config {
        latency: LatencyModel::instant(),
        node_pool: 4096,
        ..shape.cfg.clone()
    };
    let mut file = LhrsFile::new(cfg).expect("simulator config");
    for &key in &shape.keys {
        file.insert(key, payload(key, 1)).expect("sim preload");
    }
    let lost: Vec<u64> = shape
        .keys
        .iter()
        .copied()
        .filter(|&k| matches!(file.address_of(k), 1 | 2))
        .collect();
    file.crash_data_bucket(1);
    file.crash_data_bucket(2);
    let cost = file.cost_of(|f| {
        for &k in &lost {
            let _ = f.lookup(k);
        }
    });
    ratio(cost.total_messages() as f64, lost.len() as f64)
}
