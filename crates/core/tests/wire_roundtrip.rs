//! Codec round-trip fuzzing: every [`Msg`] variant survives
//! encode→decode unchanged, and the decoder rejects truncated, oversized,
//! and unknown-tag frames instead of panicking or mis-decoding.

use lhrs_core::coordinator::CoordEvent;
use lhrs_core::msg::{
    ClientOp, DeltaEntry, FilterSpec, Iam, KeyOp, Msg, OpResult, ReplayEntry, ReqKind, ShardContent,
};
use lhrs_core::record::Record;
use lhrs_core::wire::{
    decode_coord_event, decode_msg, encode_coord_event, encode_msg, etag, put_varint, tag,
    WireError, MAX_LEN, WIRE_VERSION,
};
use lhrs_core::{Key, NodeId, Rank};
use lhrs_testkit::{cases, Rng};

fn arb_node(rng: &mut Rng) -> NodeId {
    if rng.chance(1, 16) {
        lhrs_sim::EXTERNAL // the driver sentinel must round-trip too
    } else {
        NodeId(rng.next_u32())
    }
}

fn arb_key(rng: &mut Rng) -> Key {
    // Mix small and huge keys so varint length classes all get exercised.
    match rng.below(3) {
        0 => rng.below(128),
        1 => rng.below(1 << 20),
        _ => rng.next_u64(),
    }
}

fn arb_payload(rng: &mut Rng) -> Vec<u8> {
    let len = rng.range_usize(0, 48);
    rng.bytes(len)
}

fn arb_filter(rng: &mut Rng) -> FilterSpec {
    match rng.below(3) {
        0 => FilterSpec::All,
        1 => FilterSpec::PayloadContains(arb_payload(rng)),
        _ => {
            let lo = arb_key(rng);
            FilterSpec::KeyRange(lo, lo.saturating_add(rng.below(1000)))
        }
    }
}

fn arb_client_op(rng: &mut Rng) -> ClientOp {
    match rng.below(5) {
        0 => ClientOp::Insert {
            key: arb_key(rng),
            payload: arb_payload(rng),
        },
        1 => ClientOp::Lookup { key: arb_key(rng) },
        2 => ClientOp::Update {
            key: arb_key(rng),
            payload: arb_payload(rng),
        },
        3 => ClientOp::Delete { key: arb_key(rng) },
        _ => ClientOp::Scan {
            filter: arb_filter(rng),
        },
    }
}

fn arb_req_kind(rng: &mut Rng) -> ReqKind {
    match rng.below(4) {
        0 => ReqKind::Insert(arb_key(rng), arb_payload(rng)),
        1 => ReqKind::Lookup(arb_key(rng)),
        2 => ReqKind::Update(arb_key(rng), arb_payload(rng)),
        _ => ReqKind::Delete(arb_key(rng)),
    }
}

fn arb_hits(rng: &mut Rng) -> Vec<(Key, Vec<u8>)> {
    (0..rng.below(5))
        .map(|_| (arb_key(rng), arb_payload(rng)))
        .collect()
}

fn arb_op_result(rng: &mut Rng) -> OpResult {
    match rng.below(9) {
        0 => OpResult::Inserted,
        1 => OpResult::DuplicateKey,
        2 => OpResult::Updated,
        3 => OpResult::Deleted,
        4 => OpResult::Value(None),
        5 => OpResult::Value(Some(arb_payload(rng))),
        6 => OpResult::NotFound,
        7 => OpResult::ScanHits(arb_hits(rng)),
        _ => OpResult::Failed(format!("err-{}", rng.below(100))),
    }
}

fn arb_iam(rng: &mut Rng) -> Option<Iam> {
    rng.chance(1, 2).then(|| Iam {
        level: rng.next_u8(),
        bucket: rng.below(1 << 30),
    })
}

fn arb_key_op(rng: &mut Rng) -> KeyOp {
    match rng.below(3) {
        0 => KeyOp::Add(arb_key(rng)),
        1 => KeyOp::Remove(arb_key(rng)),
        _ => KeyOp::Keep,
    }
}

fn arb_delta_entry(rng: &mut Rng) -> DeltaEntry {
    DeltaEntry {
        seq: rng.next_u64() >> rng.below(60),
        rank: rng.below(1 << 20),
        col: rng.range_usize(0, 8),
        key_op: arb_key_op(rng),
        delta_cell: arb_payload(rng),
    }
}

fn arb_replay_entry(rng: &mut Rng) -> ReplayEntry {
    ReplayEntry {
        client: arb_node(rng),
        op_id: rng.next_u64(),
        key: arb_key(rng),
        result: arb_op_result(rng),
    }
}

fn arb_records(rng: &mut Rng) -> Vec<Record> {
    (0..rng.below(4))
        .map(|_| Record {
            key: arb_key(rng),
            payload: arb_payload(rng),
        })
        .collect()
}

fn arb_replay_list(rng: &mut Rng) -> Vec<ReplayEntry> {
    (0..rng.below(3)).map(|_| arb_replay_entry(rng)).collect()
}

fn arb_member_keys(rng: &mut Rng) -> Vec<Option<Key>> {
    (0..rng.below(5))
        .map(|_| rng.chance(2, 3).then(|| arb_key(rng)))
        .collect()
}

fn arb_shard_content(rng: &mut Rng) -> ShardContent {
    if rng.chance(1, 2) {
        ShardContent::Data {
            level: rng.next_u8(),
            next_rank: rng.below(1 << 20),
            delta_seq: rng.next_u64() >> 8,
            records: (0..rng.below(4))
                .map(|_| (rng.below(1 << 20) as Rank, arb_key(rng), arb_payload(rng)))
                .collect(),
        }
    } else {
        ShardContent::Parity {
            records: (0..rng.below(4))
                .map(|_| {
                    (
                        rng.below(1 << 20) as Rank,
                        arb_member_keys(rng),
                        arb_payload(rng),
                    )
                })
                .collect(),
            col_seqs: (0..rng.below(5)).map(|_| rng.next_u64() >> 16).collect(),
        }
    }
}

/// One random message of variant index `v` (0..37, msg.rs declaration
/// order), so deterministic sweeps can force coverage of every variant.
fn arb_msg_variant(rng: &mut Rng, v: u64) -> Msg {
    match v {
        0 => Msg::Do {
            op_id: rng.next_u64(),
            op: arb_client_op(rng),
        },
        1 => Msg::Req {
            op_id: rng.next_u64(),
            client: arb_node(rng),
            intended: rng.below(1 << 30),
            hops: rng.next_u8(),
            kind: arb_req_kind(rng),
        },
        2 => Msg::Reply {
            op_id: rng.next_u64(),
            result: arb_op_result(rng),
            iam: arb_iam(rng),
        },
        3 => Msg::Scan {
            op_id: rng.next_u64(),
            client: arb_node(rng),
            filter: arb_filter(rng),
            assumed_level: rng.next_u8(),
            reply_if_empty: rng.chance(1, 2),
        },
        4 => Msg::ScanReply {
            op_id: rng.next_u64(),
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
            hits: arb_hits(rng),
        },
        5 => Msg::ParityDelta {
            group: rng.below(1 << 20),
            entry: arb_delta_entry(rng),
            ack_to: rng.chance(1, 2).then(|| arb_node(rng)),
        },
        6 => Msg::ParityBatch {
            group: rng.below(1 << 20),
            entries: (0..rng.below(4)).map(|_| arb_delta_entry(rng)).collect(),
            ack_to: rng.chance(1, 2).then(|| arb_node(rng)),
        },
        7 => Msg::ParityAck {
            col: rng.range_usize(0, 8),
            upto: rng.next_u64() >> 8,
        },
        8 => Msg::ReportOverflow {
            bucket: rng.below(1 << 30),
            size: rng.range_usize(0, 10_000),
        },
        9 => Msg::InitData {
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
            delta_seq: rng.next_u64() >> 16,
        },
        10 => Msg::InitParity {
            group: rng.below(1 << 20),
            index: rng.range_usize(0, 8),
            k: rng.range_usize(1, 8),
        },
        11 => Msg::DoSplit {
            source: rng.below(1 << 30),
            target: rng.below(1 << 30),
            new_level: rng.next_u8(),
        },
        12 => Msg::SplitLoad {
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
            records: arb_records(rng),
            replay: arb_replay_list(rng),
        },
        13 => Msg::Suspect {
            op_id: rng.next_u64(),
            client: arb_node(rng),
            bucket: rng.below(1 << 30),
            kind: arb_req_kind(rng),
        },
        14 => Msg::Probe {
            token: rng.next_u64(),
        },
        15 => Msg::ProbeAck {
            token: rng.next_u64(),
            bucket: rng.chance(1, 2).then(|| rng.below(1 << 30)),
        },
        16 => Msg::TransferShard {
            token: rng.next_u64(),
        },
        17 => Msg::ShardData {
            token: rng.next_u64(),
            shard: rng.range_usize(0, 12),
            content: arb_shard_content(rng),
        },
        18 => Msg::Install {
            group: rng.below(1 << 20),
            bucket: rng.chance(1, 2).then(|| rng.below(1 << 30)),
            index: rng.chance(1, 2).then(|| rng.range_usize(0, 8)),
            k: rng.range_usize(1, 8),
            content: arb_shard_content(rng),
            token: rng.next_u64(),
        },
        19 => Msg::InstallAck {
            token: rng.next_u64(),
        },
        20 => Msg::FindRecord {
            key: arb_key(rng),
            token: rng.next_u64(),
        },
        21 => Msg::FindRecordReply {
            token: rng.next_u64(),
            found: rng
                .chance(1, 2)
                .then(|| (rng.below(1 << 20) as Rank, arb_member_keys(rng))),
        },
        22 => Msg::ReadCell {
            rank: rng.below(1 << 20),
            token: rng.next_u64(),
        },
        23 => Msg::CellData {
            token: rng.next_u64(),
            shard: rng.range_usize(0, 12),
            cell: arb_payload(rng),
        },
        24 => Msg::SplitDone {
            bucket: rng.below(1 << 30),
        },
        25 => Msg::ForceMerge,
        26 => Msg::DoMerge {
            source: rng.below(1 << 30),
            target: rng.below(1 << 30),
            new_level: rng.next_u8(),
        },
        27 => Msg::MergeLoad {
            level: rng.next_u8(),
            records: arb_records(rng),
            replay: arb_replay_list(rng),
            final_seq: rng.next_u64() >> 16,
        },
        28 => Msg::MergeDone {
            bucket: rng.below(1 << 30),
            final_seq: rng.next_u64() >> 16,
        },
        29 => Msg::Retire,
        30 => Msg::SelfReport,
        31 => Msg::CheckOwnership {
            bucket: rng.chance(1, 2).then(|| rng.below(1 << 30)),
            parity: rng
                .chance(1, 2)
                .then(|| (rng.below(1 << 20), rng.range_usize(0, 8))),
        },
        32 => Msg::OwnershipAck,
        33 => Msg::CheckGroup {
            group: rng.below(1 << 20),
        },
        34 => Msg::RecoverFileState,
        35 => Msg::StateQuery,
        _ => Msg::StateReply {
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
        },
    }
}

const VARIANTS: u64 = 37;

#[test]
fn every_variant_roundtrips() {
    // Deterministic coverage: each of the 37 variants, several instances.
    cases("wire_roundtrip_sweep", 16, |rng| {
        for v in 0..VARIANTS {
            let msg = arb_msg_variant(rng, v);
            let buf = encode_msg(&msg);
            assert_eq!(buf[0], WIRE_VERSION);
            let back = decode_msg(&buf)
                .unwrap_or_else(|e| panic!("variant {v} failed to decode: {e} (msg {msg:?})"));
            assert_eq!(back, msg, "variant {v} round-trip");
        }
    });
}

#[test]
fn random_messages_roundtrip() {
    cases("wire_roundtrip_random", 300, |rng| {
        let v = rng.below(VARIANTS);
        let msg = arb_msg_variant(rng, v);
        let buf = encode_msg(&msg);
        assert_eq!(decode_msg(&buf).unwrap(), msg);
    });
}

#[test]
fn every_strict_prefix_is_rejected() {
    // A truncated frame must error (never mis-decode or panic). Every
    // strict prefix of a valid encoding is a truncated frame.
    cases("wire_prefix_rejection", 24, |rng| {
        let v = rng.below(VARIANTS);
        let msg = arb_msg_variant(rng, v);
        let buf = encode_msg(&msg);
        for cut in 0..buf.len() {
            // Any typed error is correct; only a successful decode is a bug.
            if let Ok(m) = decode_msg(&buf[..cut]) {
                panic!("prefix {cut}/{} decoded as {m:?}", buf.len());
            }
        }
    });
}

#[test]
fn random_garbage_never_panics() {
    cases("wire_garbage", 200, |rng| {
        let len = rng.range_usize(0, 64);
        let garbage = rng.bytes(len);
        let _ = decode_msg(&garbage); // must return, not panic
    });
}

#[test]
fn unknown_tags_are_rejected_with_context() {
    // Top-level tag 0 and anything above the table.
    for bad in [0u8, 44, 99, 255] {
        let buf = [WIRE_VERSION, bad];
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::UnknownTag {
                what: "Msg",
                tag: bad
            }
        );
    }
    // Nested enum tag: a Do frame whose ClientOp tag is bogus.
    let mut buf = vec![WIRE_VERSION, tag::DO];
    put_varint(&mut buf, 1); // op_id
    buf.push(9); // no such ClientOp
    assert_eq!(
        decode_msg(&buf).unwrap_err(),
        WireError::UnknownTag {
            what: "ClientOp",
            tag: 9
        }
    );
}

#[test]
fn oversized_length_claims_are_rejected() {
    // SplitLoad claiming an absurd record count.
    let mut buf = vec![WIRE_VERSION, tag::SPLIT_LOAD];
    put_varint(&mut buf, 3); // bucket
    buf.push(0); // level
    put_varint(&mut buf, MAX_LEN + 7); // record count claim
    assert_eq!(
        decode_msg(&buf).unwrap_err(),
        WireError::Oversized {
            what: "SplitLoad.records",
            len: MAX_LEN + 7
        }
    );
    // A large-but-under-cap claim with no data behind it is truncation,
    // and must be detected before allocating the claimed amount.
    let mut buf = vec![WIRE_VERSION, tag::SPLIT_LOAD];
    put_varint(&mut buf, 3);
    buf.push(0);
    put_varint(&mut buf, MAX_LEN - 1);
    assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
}

#[test]
fn trailing_bytes_are_rejected() {
    cases("wire_trailing", 32, |rng| {
        let v = rng.below(VARIANTS);
        let msg = arb_msg_variant(rng, v);
        let mut buf = encode_msg(&msg);
        buf.push(rng.next_u8());
        assert!(matches!(
            decode_msg(&buf),
            Err(WireError::Trailing { .. }) | Err(WireError::Truncated)
        ));
    });
}

/// One fixed message per `Msg` variant (plus extra instances for every
/// nested enum variant), in tag order. Their encodings are pinned byte for
/// byte in [`GOLDEN_MSG_HEX`]: the second byte of each is the variant's tag,
/// so a renumbered tag or a changed field layout fails here.
fn golden_msgs() -> Vec<Msg> {
    let entry = |col, key_op| DeltaEntry {
        seq: 300,
        rank: 5,
        col,
        key_op,
        delta_cell: vec![0xde, 0xad],
    };
    let replay = ReplayEntry {
        client: NodeId(7),
        op_id: 9,
        key: 1 << 40,
        result: OpResult::Value(Some(vec![4])),
    };
    let data = ShardContent::Data {
        level: 3,
        next_rank: 2,
        delta_seq: 129,
        records: vec![(0, 17, vec![1, 2]), (1, 18, Vec::new())],
    };
    let parity = ShardContent::Parity {
        records: vec![(0, vec![Some(17), None], vec![9, 9])],
        col_seqs: vec![4, 0, 200],
    };
    let req = |kind| Msg::Req {
        op_id: 1,
        client: NodeId(2),
        intended: 3,
        hops: 1,
        kind,
    };
    let reply = |result| Msg::Reply {
        op_id: 5,
        result,
        iam: None,
    };
    let record = Record {
        key: 77,
        payload: vec![7; 3],
    };
    vec![
        Msg::Do {
            op_id: 1,
            op: ClientOp::Insert {
                key: 42,
                payload: b"hi".to_vec(),
            },
        },
        Msg::Do {
            op_id: 2,
            op: ClientOp::Lookup { key: 128 },
        },
        Msg::Do {
            op_id: 3,
            op: ClientOp::Update {
                key: 1,
                payload: vec![0],
            },
        },
        Msg::Do {
            op_id: 4,
            op: ClientOp::Delete { key: u64::MAX },
        },
        Msg::Do {
            op_id: 5,
            op: ClientOp::Scan {
                filter: FilterSpec::All,
            },
        },
        Msg::Do {
            op_id: 6,
            op: ClientOp::Scan {
                filter: FilterSpec::PayloadContains(b"ab".to_vec()),
            },
        },
        Msg::Do {
            op_id: 7,
            op: ClientOp::Scan {
                filter: FilterSpec::KeyRange(10, 20),
            },
        },
        req(ReqKind::Insert(9, vec![1, 2, 3])),
        req(ReqKind::Lookup(9)),
        req(ReqKind::Update(9, vec![4])),
        req(ReqKind::Delete(9)),
        reply(OpResult::Inserted),
        reply(OpResult::DuplicateKey),
        reply(OpResult::Updated),
        reply(OpResult::Deleted),
        reply(OpResult::Value(None)),
        reply(OpResult::Value(Some(vec![5, 6]))),
        reply(OpResult::NotFound),
        reply(OpResult::ScanHits(vec![(3, vec![1]), (4, Vec::new())])),
        reply(OpResult::Failed("no".to_string())),
        Msg::Reply {
            op_id: 6,
            result: OpResult::Inserted,
            iam: Some(Iam {
                level: 4,
                bucket: 300,
            }),
        },
        Msg::Scan {
            op_id: 8,
            client: lhrs_sim::EXTERNAL,
            filter: FilterSpec::All,
            assumed_level: 2,
            reply_if_empty: true,
        },
        Msg::ScanReply {
            op_id: 8,
            bucket: 3,
            level: 2,
            hits: vec![(1, vec![2])],
        },
        Msg::ParityDelta {
            group: 1,
            entry: entry(2, KeyOp::Add(17)),
            ack_to: Some(NodeId(3)),
        },
        Msg::ParityDelta {
            group: 1,
            entry: entry(0, KeyOp::Remove(17)),
            ack_to: None,
        },
        Msg::ParityBatch {
            group: 2,
            entries: vec![entry(1, KeyOp::Keep), entry(3, KeyOp::Add(1))],
            ack_to: Some(NodeId(4)),
        },
        Msg::ParityAck { col: 3, upto: 1000 },
        Msg::ReportOverflow {
            bucket: 6,
            size: 513,
        },
        Msg::InitData {
            bucket: 7,
            level: 3,
            delta_seq: 0,
        },
        Msg::InitParity {
            group: 1,
            index: 1,
            k: 2,
        },
        Msg::DoSplit {
            source: 1,
            target: 5,
            new_level: 3,
        },
        Msg::SplitLoad {
            bucket: 5,
            level: 3,
            records: vec![record.clone()],
            replay: vec![replay.clone()],
        },
        Msg::Suspect {
            op_id: 11,
            client: NodeId(12),
            bucket: 13,
            kind: ReqKind::Lookup(14),
        },
        Msg::Probe { token: 15 },
        Msg::ProbeAck {
            token: 15,
            bucket: Some(16),
        },
        Msg::ProbeAck {
            token: 15,
            bucket: None,
        },
        Msg::TransferShard { token: 17 },
        Msg::ShardData {
            token: 17,
            shard: 2,
            content: data.clone(),
        },
        Msg::ShardData {
            token: 17,
            shard: 4,
            content: parity.clone(),
        },
        Msg::Install {
            group: 1,
            bucket: Some(3),
            index: None,
            k: 2,
            content: data,
            token: 18,
        },
        Msg::Install {
            group: 1,
            bucket: None,
            index: Some(1),
            k: 2,
            content: parity,
            token: 19,
        },
        Msg::InstallAck { token: 19 },
        Msg::FindRecord { key: 20, token: 21 },
        Msg::FindRecordReply {
            token: 21,
            found: Some((4, vec![Some(20), None])),
        },
        Msg::FindRecordReply {
            token: 21,
            found: None,
        },
        Msg::ReadCell { rank: 4, token: 22 },
        Msg::CellData {
            token: 22,
            shard: 1,
            cell: vec![1, 0, 0, 0, 9],
        },
        Msg::SplitDone { bucket: 5 },
        Msg::ForceMerge,
        Msg::DoMerge {
            source: 5,
            target: 1,
            new_level: 2,
        },
        Msg::MergeLoad {
            level: 2,
            records: vec![record],
            replay: vec![replay],
            final_seq: 23,
        },
        Msg::MergeDone {
            bucket: 1,
            final_seq: 23,
        },
        Msg::Retire,
        Msg::SelfReport,
        Msg::CheckOwnership {
            bucket: Some(1),
            parity: None,
        },
        Msg::CheckOwnership {
            bucket: None,
            parity: Some((2, 1)),
        },
        Msg::OwnershipAck,
        Msg::CheckGroup { group: 2 },
        Msg::RecoverFileState,
        Msg::StateQuery,
        Msg::StateReply {
            bucket: 9,
            level: 4,
        },
        Msg::RestartReport {
            bucket: 6,
            delta_seq: 41,
        },
        Msg::SuffixPull {
            group: 1,
            col: 2,
            from_seq: 41,
            target: NodeId(9),
        },
        Msg::DeltaSuffix {
            col: 2,
            from_seq: 41,
            entries: vec![entry(2, KeyOp::Keep)],
            complete: true,
        },
        Msg::SuffixInfo {
            bucket: 6,
            col: 2,
            next_seq: 43,
            covered: false,
            count: 2,
            bytes: 6,
        },
        Msg::RestartAbort { bucket: 6 },
        Msg::ResumeWrites { group: 3 },
    ]
}

/// One fixed event per `CoordEvent` variant, pinned in [`GOLDEN_EVENT_HEX`].
fn golden_events() -> Vec<CoordEvent> {
    vec![
        CoordEvent::Split {
            source: 0,
            target: 8,
            buckets: 9,
        },
        CoordEvent::KIncreased { k: 2 },
        CoordEvent::GroupUpgraded { group: 1, k: 2 },
        CoordEvent::FailureDetected {
            group: 3,
            shards: vec![0, 5, 2],
        },
        CoordEvent::GroupRecovered {
            group: 3,
            shards: vec![1],
        },
        CoordEvent::GroupUnrecoverable {
            group: 7,
            failed: 4,
        },
        CoordEvent::Merged {
            source: 4,
            target: 9,
            buckets: 9,
        },
        CoordEvent::StateRecovered { n: 77, i: 6 },
        CoordEvent::RecoveryStalled {
            group: 2,
            needed: 3,
        },
        CoordEvent::InvariantViolated {
            context: "ctx".to_string(),
        },
        CoordEvent::BucketRestarted {
            bucket: 5,
            suffix_len: 17,
        },
    ]
}

fn hex(buf: &[u8]) -> String {
    buf.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_encodings_are_pinned() {
    let msgs = golden_msgs();
    for (msg, want) in msgs.iter().zip(GOLDEN_MSG_HEX) {
        let buf = encode_msg(msg);
        assert_eq!(hex(&buf), want, "encoding of {msg:?} changed");
        assert_eq!(&decode_msg(&buf).unwrap(), msg);
    }
    let events = golden_events();
    for (ev, want) in events.iter().zip(GOLDEN_EVENT_HEX) {
        let buf = encode_coord_event(ev);
        assert_eq!(hex(&buf), want, "encoding of {ev:?} changed");
        assert_eq!(&decode_coord_event(&buf).unwrap(), ev);
    }
    assert_eq!(msgs.len(), GOLDEN_MSG_HEX.len());
    assert_eq!(events.len(), GOLDEN_EVENT_HEX.len());
}

/// Every tag byte, pinned: `(kind label, tag)` for each `Msg` variant and
/// `(variant, tag)` for each `CoordEvent` variant. Retired tags are never
/// reassigned (the codec's const assertions enforce that half).
#[test]
fn golden_tags_are_pinned() {
    let mut tags: Vec<(&str, u8)> = golden_msgs()
        .iter()
        .map(|m| (m.kind(), encode_msg(m)[1]))
        .collect();
    tags.dedup();
    let want: &[(&str, u8)] = &GOLDEN_MSG_TAGS;
    assert_eq!(tags, want);
    // Every live tag has a golden message: a new variant needs a pin here.
    let mut live: Vec<u8> = tags.iter().map(|(_, t)| *t).collect();
    live.dedup();
    let mut table = tag::ALL.to_vec();
    table.sort_unstable();
    assert_eq!(live, table);
    let etags: Vec<u8> = golden_events()
        .iter()
        .map(|e| encode_coord_event(e)[1])
        .collect();
    assert_eq!(etags, (1..=11).collect::<Vec<u8>>());
    assert_eq!(etags, etag::ALL);
}

const GOLDEN_MSG_HEX: [&str; 67] = [
    "010101002a026869",
    "010102018001",
    "01010302010100",
    "01010403ffffffffffffffffff01",
    "0101050400",
    "0101060401026162",
    "01010704020a14",
    "010201020000000301000903010203",
    "0102010200000003010109",
    "01020102000000030102090104",
    "0102010200000003010309",
    "0103050000",
    "0103050100",
    "0103050200",
    "0103050300",
    "0103050400",
    "0103050502050600",
    "0103050600",
    "0103050702030101040000",
    "01030508026e6f00",
    "010306000104ac02",
    "010408ffffffff000201",
    "010508030201010102",
    "010601ac020502001102dead0103000000",
    "010601ac020500011102dead00",
    "01070202ac0205010202deadac020503000102dead0104000000",
    "010803e807",
    "0109068104",
    "010a070300",
    "010b010102",
    "010c010503",
    "010d0503014d03070707010700000009808080808020050104",
    "010e0b0c0000000d010e",
    "010f0f",
    "01100f0110",
    "01100f00",
    "011111",
    "011211020003028101020011020102011200",
    "0112110401010002011100020909030400c801",
    "01130101030002000302810102001102010201120012",
    "0113010001010201010002011100020909030400c80113",
    "011413",
    "01151415",
    "011615010402011400",
    "01161500",
    "01170416",
    "01181601050100000009",
    "011905",
    "011a",
    "011b050102",
    "011c02014d0307070701070000000980808080802005010417",
    "011d0117",
    "011e",
    "011f",
    "0120010100",
    "012000010201",
    "0121",
    "012202",
    "0123",
    "0124",
    "01250904",
    "01260629",
    "012701022909000000",
    "0128022901ac0205020202dead01",
    "012906022b000206",
    "012a06",
    "012b03",
];
const GOLDEN_EVENT_HEX: [&str; 11] = [
    "0101000809",
    "010202",
    "01030102",
    "01040303000502",
    "0105030101",
    "01060704",
    "0107040909",
    "01084d06",
    "01090203",
    "010a03637478",
    "010b0511",
];
const GOLDEN_MSG_TAGS: [(&str, u8); 46] = [
    ("app-do", 1),
    ("insert", 2),
    ("lookup", 2),
    ("update", 2),
    ("delete", 2),
    ("reply", 3),
    ("scan", 4),
    ("scan-reply", 5),
    ("parity-delta", 6),
    ("parity-batch", 7),
    ("parity-ack", 8),
    ("overflow", 9),
    ("init-data", 10),
    ("init-parity", 11),
    ("split", 12),
    ("split-load", 13),
    ("suspect", 14),
    ("probe", 15),
    ("probe-ack", 16),
    ("transfer-req", 17),
    ("transfer-data", 18),
    ("install", 19),
    ("install-ack", 20),
    ("find-record", 21),
    ("find-record-reply", 22),
    ("read-cell", 23),
    ("cell-data", 24),
    ("split-done", 25),
    ("force-merge", 26),
    ("merge", 27),
    ("merge-load", 28),
    ("merge-done", 29),
    ("retire", 30),
    ("self-report", 31),
    ("check-ownership", 32),
    ("ownership-ack", 33),
    ("check-group", 34),
    ("recover-file-state", 35),
    ("state-query", 36),
    ("state-reply", 37),
    ("restart-report", 38),
    ("suffix-pull", 39),
    ("delta-suffix", 40),
    ("suffix-info", 41),
    ("restart-abort", 42),
    ("resume-writes", 43),
];
