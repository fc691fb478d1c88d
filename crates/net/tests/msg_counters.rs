//! The per-kind message counters move on both runtimes: a client `Req`
//! and the data bucket's `ParityDelta` each show up in `msgs_sent{kind}`
//! and `msgs_recv{kind}`, in the simulator and over a loopback `NodeHost`
//! cluster. Every drill that reads message counts relies on these series.

use std::sync::mpsc;
use std::time::Duration;

use lhrs_core::msg::ClientOp;
use lhrs_core::{Config, LhrsFile};
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{LoopbackNet, LoopbackTransport};
use lhrs_obs::{Clock, Metrics};

/// `(counter, kind)` pairs one acked insert must move: the client's Req
/// (labelled by its op) and the Δ-commit to the single parity bucket.
const MOVED: [(&str, &str); 4] = [
    ("msgs_sent", "insert"),
    ("msgs_recv", "insert"),
    ("msgs_sent", "parity-delta"),
    ("msgs_recv", "parity-delta"),
];

fn assert_moved(metrics: &Metrics, runtime: &str) {
    for (name, kind) in MOVED {
        assert!(
            metrics.counter_kind(name, kind) > 0,
            "{runtime}: {name}{{{kind}}} did not move"
        );
    }
}

fn cfg() -> Config {
    Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 1000,
        record_len: 32,
        ack_writes: true,
        ..Config::default()
    }
}

#[test]
fn simulator_counts_req_and_parity_delta_per_kind() {
    let mut file = LhrsFile::new(cfg()).expect("valid config");
    file.insert(7, b"seven".to_vec()).expect("insert");
    assert_moved(file.metrics(), "sim");
}

#[test]
fn loopback_host_counts_req_and_parity_delta_per_kind() {
    // Coordinator (unhosted), client + data bucket on one host, the parity
    // bucket on another, so the Δ crosses the loopback codec as a frame.
    let nodes = (0..4u32)
        .map(|id| NodeSpec {
            id,
            addr: format!("loopback:{id}"),
            role: match id {
                0 => Role::Coordinator,
                1 => Role::Client,
                _ => Role::Server,
            },
        })
        .collect();
    let spec = ClusterSpec { cfg: cfg(), nodes };
    spec.validate().expect("spec valid");
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());
    let host = |ids: &[u32]| {
        let (tx, rx) = mpsc::channel();
        net.register(ids, tx.clone());
        let shared = spec.build_shared();
        let transport = LoopbackTransport::new(net.clone(), ids);
        let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
        host.set_metrics(metrics.clone());
        for &id in ids {
            host.add_node(id, spec.build_node(&shared, id));
        }
        host
    };
    let mut client = NetClient::new(host(&[1, 2]), 1, 1);
    let mut parity_host = host(&[3]);

    client.submit(ClientOp::Insert {
        key: 7,
        payload: b"seven".to_vec(),
    });
    for _ in 0..4 {
        client.pump(Duration::from_millis(1));
        parity_host.poll(Duration::from_millis(1));
    }
    assert_moved(&metrics, "loopback");
}
