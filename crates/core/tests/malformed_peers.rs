//! Well-framed but semantically malformed messages from a peer: each must
//! be dropped and counted, never abort the receiving node.

use lhrs_core::msg::{DeltaEntry, KeyOp, Msg, ShardContent};
use lhrs_core::node::Node;
use lhrs_core::parity_bucket::ParityBucket;
use lhrs_core::registry::{Shared, SharedHandle};
use lhrs_core::{Config, NodeId};
use lhrs_obs::{Clock, Metrics};
use lhrs_sim::{LatencyModel, Sim};

const GROUP_SIZE: usize = 4;

fn shared() -> SharedHandle {
    Shared::new(Config {
        group_size: GROUP_SIZE,
        record_len: 8,
        ..Config::default()
    })
}

/// A two-node simulation: `target` and a blank `peer` that plays the sender.
fn sim_with(target: Node, shared: &SharedHandle) -> (Sim<Msg, Node>, NodeId, NodeId) {
    let mut sim: Sim<Msg, Node> = Sim::new(LatencyModel::instant());
    sim.set_metrics(Metrics::new(Clock::logical()));
    let target = sim.add_node(target);
    let peer = sim.add_node(Node::Blank {
        shared: shared.clone(),
        pending: Vec::new(),
    });
    (sim, target, peer)
}

/// Every counter that moved, except the engine's own per-message tallies.
fn moved_counters(sim: &Sim<Msg, Node>) -> Vec<(String, u64)> {
    sim.metrics()
        .snapshot()
        .counters
        .into_iter()
        .filter(|c| c.value > 0 && !c.name.starts_with("msgs_"))
        .map(|c| (c.name, c.value))
        .collect()
}

#[test]
fn delta_for_a_column_past_the_group_is_dropped() {
    let shared = shared();
    let parity = ParityBucket::new(shared.clone(), 0, 0, 1).unwrap();
    let (mut sim, target, peer) = sim_with(Node::Parity(parity), &shared);
    // Column `GROUP_SIZE` maps to a bucket past the file's end, which the
    // ownership fence accepts from anyone.
    let entry = DeltaEntry {
        seq: 0,
        rank: 0,
        col: GROUP_SIZE,
        key_op: KeyOp::Add(7),
        delta_cell: vec![1; 4 + 8],
    };
    sim.send_as(
        peer,
        target,
        Msg::ParityDelta {
            group: 0,
            entry: entry.clone(),
            ack_to: Some(peer),
        },
    );
    sim.send_as(
        peer,
        target,
        Msg::ParityBatch {
            group: 0,
            entries: vec![entry],
            ack_to: Some(peer),
        },
    );
    sim.run_until_idle();

    assert!(sim.actor(target).as_parity().is_empty());
    assert_eq!(
        moved_counters(&sim),
        vec![("deltas_dropped".to_string(), 2)]
    );
    // No ParityAck went back for the dropped column.
    assert_eq!(sim.metrics().counter_total("msgs_recv"), 2);
}

#[test]
fn parity_init_the_field_cannot_carry_leaves_a_spare() {
    let shared = shared();
    let blank = Node::Blank {
        shared: shared.clone(),
        pending: Vec::new(),
    };
    let (mut sim, target, peer) = sim_with(blank, &shared);
    // GF(2^8) carries at most 256 columns: 4 data + 301 parity do not fit.
    sim.send_as(
        peer,
        target,
        Msg::InitParity {
            group: 0,
            index: 300,
            k: 1,
        },
    );
    sim.send_as(
        peer,
        target,
        Msg::Install {
            group: 0,
            bucket: None,
            index: Some(300),
            k: 1,
            content: ShardContent::Parity {
                records: Vec::new(),
                col_seqs: Vec::new(),
            },
            token: 9,
        },
    );
    sim.run_until_idle();

    assert!(sim.actor(target).is_blank());
    assert_eq!(
        moved_counters(&sim),
        vec![("invariant_violations".to_string(), 2)]
    );
    // Neither order was acknowledged.
    assert_eq!(sim.metrics().counter_total("msgs_recv"), 2);
}
