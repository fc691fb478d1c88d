//! The closed-loop load generator and its correctness oracle.
//!
//! One client thread keeps up to `window` operations in flight through
//! `NetClient::submit`/`pump`, exactly like `NetClient::run_window`, but
//! records each op's latency by class and checks every result against the
//! oracle as it completes. No two in-flight ops touch the same key, so the
//! oracle's expectation for a lookup is exact.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use lhrs_core::msg::{ClientOp, OpId, OpResult};
use lhrs_net::client::NetClient;
use lhrs_net::transport::Transport;

use crate::cluster::Cluster;
use crate::report::Samples;
use crate::with_client;

/// Per-op deadline. Far above any healthy latency and above the recover
/// workload's detection time; an op past it is abandoned and counted as
/// failed, never waited for.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Payload length of every record (the default `record_len`).
pub const PAYLOAD_LEN: usize = 64;

/// The `version`-th payload written under `key`: 64 bytes derived from
/// both, so a stale or foreign value never matches.
pub fn payload(key: u64, version: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_LEN);
    let mut x = key ^ version.rotate_left(32);
    while out.len() < PAYLOAD_LEN {
        x = lhrs_testkit::splitmix64(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub enum Op {
    /// Key search.
    Lookup(u64),
    /// Overwrite an existing record.
    Update(u64, Vec<u8>),
    /// Insert a fresh key.
    Insert(u64, Vec<u8>),
}

impl Op {
    fn key(&self) -> u64 {
        match self {
            Op::Lookup(k) | Op::Update(k, _) | Op::Insert(k, _) => *k,
        }
    }

    fn client_op(&self) -> ClientOp {
        match self {
            Op::Lookup(key) => ClientOp::Lookup { key: *key },
            Op::Update(key, payload) => ClientOp::Update {
                key: *key,
                payload: payload.clone(),
            },
            Op::Insert(key, payload) => ClientOp::Insert {
                key: *key,
                payload: payload.clone(),
            },
        }
    }
}

/// What a key may hold. Normally one value; a write that failed or timed
/// out leaves both the old and the new value (or absence, for an insert)
/// possible.
#[derive(Debug, Clone)]
struct Expect {
    values: Vec<Vec<u8>>,
    may_be_absent: bool,
}

/// The last acked value of every key the benchmark wrote.
#[derive(Default)]
pub struct Oracle {
    map: HashMap<u64, Expect>,
    /// Every key written, in insertion order (for uniform sampling).
    pub keys: Vec<u64>,
    /// Per-key write counter, so each write carries a fresh payload.
    versions: HashMap<u64, u64>,
    /// Wrong values and lost acked keys seen so far.
    pub errors: Vec<String>,
}

impl Oracle {
    /// Whether `key` was ever written.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// The next payload to write under `key`.
    pub fn next_payload(&mut self, key: u64) -> Vec<u8> {
        let v = self.versions.entry(key).or_insert(0);
        *v += 1;
        payload(key, *v)
    }

    fn acked(&mut self, key: u64, value: Vec<u8>) {
        if !self.map.contains_key(&key) {
            self.keys.push(key);
        }
        self.map.insert(
            key,
            Expect {
                values: vec![value],
                may_be_absent: false,
            },
        );
    }

    fn unsettled(&mut self, key: u64, value: Vec<u8>) {
        match self.map.get_mut(&key) {
            Some(e) => e.values.push(value),
            None => {
                self.keys.push(key);
                self.map.insert(
                    key,
                    Expect {
                        values: vec![value],
                        may_be_absent: true,
                    },
                );
            }
        }
    }

    /// An op that failed or timed out: a write may or may not have taken.
    fn unanswered(&mut self, op: Op) {
        if let Op::Update(key, value) | Op::Insert(key, value) = op {
            self.unsettled(key, value);
        }
    }

    fn error(&mut self, what: String) {
        if self.errors.len() < 1000 {
            self.errors.push(what);
        }
    }

    fn check_lookup(&mut self, key: u64, got: Option<&[u8]>) {
        let Some(expect) = self.map.get(&key) else {
            return;
        };
        match got {
            Some(v) if expect.values.iter().any(|e| e == v) => {}
            Some(_) => self.error(format!("wrong value for key {key}")),
            None if expect.may_be_absent => {}
            None => self.error(format!("acked key {key} lost (definitive not-found)")),
        }
    }

    /// Replace `key`'s expectation with a value it never held: the
    /// self-test's proof that the check is not vacuous.
    pub fn plant_wrong_expectation(&mut self, key: u64) {
        if let Some(e) = self.map.get_mut(&key) {
            e.values = vec![vec![0xEE; PAYLOAD_LEN]];
            e.may_be_absent = false;
        }
    }
}

/// Client-layer timing, collected only when the phase is traced.
#[derive(Debug, Default, Clone)]
pub struct ClientTrace {
    /// Nanoseconds inside `NetClient::submit`.
    pub submit_ns: u64,
    /// `submit` calls.
    pub submits: u64,
    /// Nanoseconds inside `NetClient::pump`.
    pub pump_ns: u64,
}

/// One round of a workload: the unit whose figures are reported as
/// medians, so a transient stall on a shared host moves one round, not the
/// result.
#[derive(Debug, Default)]
pub struct Round {
    /// Latencies of the ops that completed in this round.
    pub all: Samples,
    /// Ops completed in this round.
    pub completed: u64,
    /// First submit to last completion.
    pub span: Duration,
}

impl Round {
    /// Completed ops per second.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.span.as_secs_f64().max(1e-9)
    }
}

/// The outcome of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies (ns) of every completed op, submit to completion.
    pub all: Samples,
    /// Lookup latencies.
    pub reads: Samples,
    /// Acked-write latencies.
    pub writes: Samples,
    /// Ops that completed with an answer.
    pub completed: u64,
    /// Ops submitted.
    pub attempted: u64,
    /// Ops that failed or timed out.
    pub failed: u64,
    /// Writes among the completed ops.
    pub writes_done: u64,
    /// Pumps made while the window was full.
    pub stalls: u64,
    /// First submit to last completion.
    pub wall: Duration,
    /// When the last op completed.
    pub last_completion: Option<Instant>,
    /// Client-layer timing (traced phases only).
    pub trace: ClientTrace,
    /// The rounds folded into this phase (one for a single run).
    pub rounds: Vec<Round>,
}

impl Phase {
    /// Fold another phase's samples and counts into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.all.absorb(&other.all);
        self.reads.absorb(&other.reads);
        self.writes.absorb(&other.writes);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.writes_done += other.writes_done;
        self.stalls += other.stalls;
        self.wall += other.wall;
        self.trace.submit_ns += other.trace.submit_ns;
        self.trace.submits += other.trace.submits;
        self.trace.pump_ns += other.trace.pump_ns;
        self.rounds.extend(other.rounds);
    }
}

/// Run one closed-loop phase on `cluster`'s client: keep up to `window`
/// ops in flight, drawing the next from `next` (which sees the keys
/// already in flight and returns `None` to end the phase).
pub fn run_phase(
    cluster: &mut Cluster,
    oracle: &mut Oracle,
    window: usize,
    traced: bool,
    next: &mut dyn FnMut(&mut Oracle, &HashSet<u64>) -> Option<Op>,
) -> Phase {
    with_client!(&mut cluster.client, c => drive(c, oracle, window, traced, next))
}

fn drive<T: Transport>(
    client: &mut NetClient<T>,
    oracle: &mut Oracle,
    window: usize,
    traced: bool,
    next: &mut dyn FnMut(&mut Oracle, &HashSet<u64>) -> Option<Op>,
) -> Phase {
    let window = window.max(1);
    let mut phase = Phase::default();
    let mut in_flight: HashMap<OpId, (Op, Instant)> = HashMap::with_capacity(window * 2);
    let mut busy: HashSet<u64> = HashSet::with_capacity(window * 2);
    let mut exhausted = false;
    let start = Instant::now();
    loop {
        while !exhausted && in_flight.len() < window {
            let Some(op) = next(oracle, &busy) else {
                exhausted = true;
                break;
            };
            busy.insert(op.key());
            let client_op = op.client_op();
            let t = Instant::now();
            let id = client.submit(client_op);
            if traced {
                phase.trace.submit_ns += t.elapsed().as_nanos() as u64;
                phase.trace.submits += 1;
            }
            phase.attempted += 1;
            in_flight.insert(id, (op, t));
        }
        if in_flight.is_empty() {
            break;
        }
        if !exhausted && in_flight.len() >= window {
            phase.stalls += 1;
        }
        let t = Instant::now();
        client.pump(Duration::from_millis(1));
        if traced {
            phase.trace.pump_ns += t.elapsed().as_nanos() as u64;
        }
        let now = Instant::now();
        for (id, result) in client.take_completed() {
            let Some((op, submitted)) = in_flight.remove(&id) else {
                continue;
            };
            busy.remove(&op.key());
            let latency = now.saturating_duration_since(submitted).as_nanos() as u64;
            settle(&mut phase, oracle, op, result, latency);
            phase.last_completion = Some(now);
        }
        let expired: Vec<OpId> = in_flight
            .iter()
            .filter(|(_, (_, submitted))| now.saturating_duration_since(*submitted) >= OP_TIMEOUT)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            if let Some((op, _)) = in_flight.remove(&id) {
                client.abandon(id);
                busy.remove(&op.key());
                phase.failed += 1;
                oracle.unanswered(op);
            }
        }
    }
    phase.wall = phase
        .last_completion
        .map_or(Duration::ZERO, |t| t.saturating_duration_since(start));
    phase.rounds.push(Round {
        all: phase.all.clone(),
        completed: phase.completed,
        span: phase.wall,
    });
    phase
}

/// Fold one completed op into the phase and the oracle.
fn settle(phase: &mut Phase, oracle: &mut Oracle, op: Op, result: OpResult, latency_ns: u64) {
    match (op, result) {
        (Op::Lookup(key), OpResult::Value(v)) => {
            oracle.check_lookup(key, v.as_deref());
            phase.reads.push(latency_ns);
            phase.all.push(latency_ns);
        }
        (Op::Update(key, value), OpResult::Updated)
        | (Op::Insert(key, value), OpResult::Inserted) => {
            oracle.acked(key, value);
            phase.writes.push(latency_ns);
            phase.all.push(latency_ns);
            phase.writes_done += 1;
        }
        (Op::Update(key, value), OpResult::NotFound) => {
            oracle.error(format!("update of acked key {key} answered not-found"));
            oracle.unsettled(key, value);
        }
        (Op::Insert(key, value), OpResult::DuplicateKey) => {
            oracle.error(format!("insert of fresh key {key} answered duplicate"));
            oracle.unsettled(key, value);
        }
        (op, _) => {
            phase.failed += 1;
            oracle.unanswered(op);
            return;
        }
    }
    phase.completed += 1;
}

/// Read every key the oracle knows back once, at `window` (the post-phase
/// check that no acked key was lost).
pub fn read_back_all(cluster: &mut Cluster, oracle: &mut Oracle, window: usize) -> Phase {
    let keys = oracle.keys.clone();
    read_back(cluster, oracle, &keys, window, false)
}

/// Look up each of `keys` once, at `window`.
pub fn read_back(
    cluster: &mut Cluster,
    oracle: &mut Oracle,
    keys: &[u64],
    window: usize,
    traced: bool,
) -> Phase {
    let mut it = keys.iter().copied();
    run_phase(cluster, oracle, window, traced, &mut |_, _| {
        it.next().map(Op::Lookup)
    })
}
