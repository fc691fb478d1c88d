//! The coordinator: file state, split sequencing, scalable availability,
//! failure detection, degraded-mode record recovery, and multi-bucket group
//! recovery by erasure decoding.
//!
//! One coordinator per file, assumed available (the papers' standing
//! assumption; coordinator replication is orthogonal and out of scope).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use lhrs_lh::FileState;
use lhrs_obs::Event as ObsEvent;
use lhrs_sim::{Env, NodeId, Payload, TimerId};

use crate::code::AnyCode;

use crate::msg::{Msg, OpId, OpResult, ReqKind, ShardContent};
use crate::record::decode_cell;
use crate::registry::SharedHandle;
use crate::{Key, Rank, UpgradeMode};

/// Observable coordinator events, consumed by the driver and the tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordEvent {
    /// A split completed (bucket created).
    Split {
        /// Splitting bucket.
        source: u64,
        /// New bucket.
        target: u64,
        /// Bucket count after the split.
        buckets: u64,
    },
    /// The scalable-availability rule raised the file availability level.
    KIncreased {
        /// The new file-wide `k`.
        k: usize,
    },
    /// A group finished upgrading to a higher `k`.
    GroupUpgraded {
        /// The group.
        group: u64,
        /// Its new availability level.
        k: usize,
    },
    /// Failure(s) confirmed in a group.
    FailureDetected {
        /// The group.
        group: u64,
        /// Failed shard indices (`0..m` data, `m..` parity).
        shards: Vec<usize>,
    },
    /// A group was fully rebuilt onto spares.
    GroupRecovered {
        /// The group.
        group: u64,
        /// Shards rebuilt.
        shards: Vec<usize>,
    },
    /// More shards failed than the group's `k` tolerates.
    GroupUnrecoverable {
        /// The group.
        group: u64,
        /// Number of failed shards.
        failed: usize,
    },
    /// A bucket merge completed (file shrank by one bucket).
    Merged {
        /// The absorbing bucket.
        source: u64,
        /// The removed bucket.
        target: u64,
        /// Bucket count after the merge.
        buckets: u64,
    },
    /// File state `(n, i)` reconstructed from a bucket scan.
    StateRecovered {
        /// Recovered split pointer.
        n: u64,
        /// Recovered file level.
        i: u8,
    },
    /// A rebuild collected its shards but found no spare nodes to install
    /// them on; the attempt was abandoned (a later suspect retries, and
    /// lookups are served in degraded mode meanwhile).
    RecoveryStalled {
        /// The group.
        group: u64,
        /// Spare nodes the rebuild needed.
        needed: usize,
    },
    /// The coordinator hit a state it believes impossible (a stale token, a
    /// malformed reply, an out-of-range shard index). Instead of aborting —
    /// which would take the whole file's control plane down with it — the
    /// offending operation is dropped and this event records what happened
    /// so the driver/operator can see the degradation.
    InvariantViolated {
        /// Where the violation was detected (static context string).
        context: String,
    },
    /// A restarted data bucket was re-admitted after replaying its local
    /// store and catching up on the Δ-suffix it missed — the cheap
    /// recovery path that avoids a full RS rebuild.
    BucketRestarted {
        /// The bucket.
        bucket: u64,
        /// Δ-suffix entries it had to catch up (0 = it was already
        /// current).
        suffix_len: u64,
    },
}

/// Outstanding liveness probe for one node.
struct ProbeCtx {
    bucket: u64,
    pending: Vec<(OpId, NodeId, ReqKind)>,
    timer: TimerId,
    /// Probe rounds sent so far. A node is only declared dead after
    /// `coord_retries` unanswered rounds — one lost probe (or ack) must not
    /// trigger a spurious recovery.
    attempts: u32,
}

/// Outstanding group audit: probing every shard of a group.
struct GroupCheckCtx {
    group: u64,
    /// shard index → node probed.
    probed: Vec<(usize, NodeId)>,
    responded: HashSet<usize>,
    timer: TimerId,
    /// Re-probe rounds (non-responders only) before the verdict.
    attempts: u32,
}

/// Why shards are being collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// Rebuild failed shards onto spares.
    Repair,
    /// Extend the group's parity to a higher `k`.
    Upgrade,
}

/// Outstanding shard collection for one group.
struct RecoveryCtx {
    group: u64,
    purpose: Purpose,
    /// Group availability level used for the code (target level for
    /// upgrades).
    k: usize,
    /// Shard indices being rebuilt.
    rebuild: Vec<usize>,
    /// Shard indices we are waiting to receive.
    awaiting: HashSet<usize>,
    collected: HashMap<usize, ShardContent>,
    /// Install acks outstanding: token → shard index.
    installs: HashMap<u64, usize>,
    /// Install messages kept verbatim for retransmission: token → (spare,
    /// message).
    install_msgs: HashMap<u64, (NodeId, Msg)>,
    /// Spare node per rebuilt shard.
    spares: HashMap<usize, NodeId>,
    /// Retransmission timer (armed for the whole collection + install
    /// lifetime; cancelled on completion).
    timer: TimerId,
    /// Retransmission rounds so far.
    attempts: u32,
}

/// Degraded-mode record read in progress.
struct DegradedCtx {
    group: u64,
    op_id: OpId,
    client: NodeId,
    key: Key,
    stage: DegradedStage,
    timer: TimerId,
    attempts: u32,
}

enum DegradedStage {
    AwaitFind {
        /// The parity bucket asked (for retransmission).
        pnode: NodeId,
    },
    AwaitCells {
        target_col: usize,
        rank: Rank,
        /// Shards asked for cells (for retransmission).
        requested: Vec<(usize, NodeId)>,
        cells: HashMap<usize, Vec<u8>>,
        need: usize,
    },
}

/// An ordered split awaiting `SplitDone`, with everything needed to re-issue
/// the orders if they (or the confirmation) were lost.
struct SplitCtx {
    source: u64,
    target: u64,
    new_level: u8,
    /// Δ-stream resume point passed in the target's InitData.
    seq0: u64,
    /// InitParity orders for a group this split created, re-sent alongside
    /// (they carry no ack of their own).
    init_parity: Vec<(NodeId, Msg)>,
    timer: TimerId,
    attempts: u32,
}

/// An ordered merge awaiting `MergeDone`.
struct MergeCtx {
    source: u64,
    target: u64,
    new_level: u8,
    token: u64,
    timer: TimerId,
    attempts: u32,
}

/// Outstanding Δ-suffix catch-up handshake for one restarted data bucket.
struct SuffixCtx {
    group: u64,
    col: usize,
    bucket: u64,
    /// The restarting node: `SuffixPull` target, `OwnershipAck` (or
    /// `Retire`) recipient.
    node: NodeId,
    /// The Δ-stream position the bucket replayed from its local store.
    from_seq: u64,
    /// Parity answers so far, keyed by the answering parity node.
    infos: HashMap<NodeId, SuffixReply>,
    /// Answers needed (the group's parity count when the pull went out).
    expected: usize,
    timer: TimerId,
    attempts: u32,
}

/// One parity bucket's answer to a `SuffixPull`.
#[derive(Clone, Copy)]
struct SuffixReply {
    next_seq: u64,
    covered: bool,
    bytes: u64,
}

/// File-state recovery scan in progress.
struct StateRecCtx {
    expected: usize,
    /// Replies keyed by bucket — a duplicated `StateReply` must not count
    /// twice toward completion.
    replies: BTreeMap<u64, u8>,
    token: u64,
    timer: TimerId,
    attempts: u32,
}

/// The LH\*RS coordinator actor.
pub struct Coordinator {
    shared: SharedHandle,
    /// The authoritative file state `(n, i)`.
    pub state: FileState,
    /// Current file-wide availability level.
    pub k_file: usize,
    /// Per-group availability level (index = group).
    pub group_k: Vec<usize>,
    pool: Vec<NodeId>,
    thresholds_crossed: usize,
    /// Confirmed-failed shards: (group, shard index).
    failed: HashSet<(u64, usize)>,
    /// Groups declared unrecoverable.
    pub dead_groups: HashSet<u64>,
    next_token: u64,
    probes: HashMap<u64, ProbeCtx>,
    checks: HashMap<u64, GroupCheckCtx>,
    recoveries: HashMap<u64, RecoveryCtx>,
    degraded: HashMap<u64, DegradedCtx>,
    /// Δ-suffix catch-up handshakes in flight, keyed by token.
    suffixes: HashMap<u64, SuffixCtx>,
    /// Tokens owned by timers.
    timer_tokens: HashMap<TimerId, u64>,
    /// group → ops parked until the group heals.
    queued_ops: HashMap<u64, Vec<(OpId, NodeId, ReqKind)>>,
    /// Groups the check machinery is already looking at (per token).
    checking_groups: HashSet<u64>,
    /// Overflow reports waiting for the coordinator to go idle, one split
    /// owed per report (the paper's split policy). Runaway growth under
    /// slow networks is bounded by the pool guard in `do_split`, not here.
    deferred_splits: u64,
    outstanding_splits: u64,
    /// Ordered splits awaiting confirmation, keyed by token.
    splits: HashMap<u64, SplitCtx>,
    /// In-flight merge awaiting MergeDone.
    outstanding_merge: Option<MergeCtx>,
    upgrade_queue: VecDeque<u64>,
    /// Final Δ sequence of merged-away buckets, keyed by bucket number: a
    /// regrow split re-creating the bucket resumes its column's stream here
    /// (parity channels are never reset).
    col_floors: HashMap<u64, u64>,
    /// Groups lagging behind `k_file` (lazy mode).
    lagging: HashSet<u64>,
    state_rec: Option<StateRecCtx>,
    /// Event log for the driver: `(simulated time µs, event)`.
    pub events: Vec<(u64, CoordEvent)>,
}

impl Coordinator {
    /// Build the coordinator for a freshly created file. The registry must
    /// already map bucket 0 and group 0's parity; `pool` is the free node
    /// list.
    pub fn new(shared: SharedHandle, pool: Vec<NodeId>) -> Self {
        let k = shared.cfg.initial_k;
        Coordinator {
            shared,
            state: FileState::new(1),
            k_file: k,
            group_k: vec![k],
            pool,
            thresholds_crossed: 0,
            failed: HashSet::new(),
            dead_groups: HashSet::new(),
            next_token: 1,
            probes: HashMap::new(),
            checks: HashMap::new(),
            recoveries: HashMap::new(),
            degraded: HashMap::new(),
            suffixes: HashMap::new(),
            timer_tokens: HashMap::new(),
            queued_ops: HashMap::new(),
            checking_groups: HashSet::new(),
            deferred_splits: 0,
            outstanding_splits: 0,
            splits: HashMap::new(),
            outstanding_merge: None,
            upgrade_queue: VecDeque::new(),
            col_floors: HashMap::new(),
            lagging: HashSet::new(),
            state_rec: None,
            events: Vec::new(),
        }
    }

    /// Free nodes remaining in the pool.
    pub fn pool_remaining(&self) -> usize {
        self.pool.len()
    }

    /// Whether any structural work (splits, checks, recoveries, upgrades)
    /// is in flight.
    pub fn busy(&self) -> bool {
        self.outstanding_splits > 0
            || self.outstanding_merge.is_some()
            || !self.checks.is_empty()
            || !self.recoveries.is_empty()
            || !self.degraded.is_empty()
            || !self.suffixes.is_empty()
            || !self.upgrade_queue.is_empty()
            || self.deferred_splits > 0
    }

    fn m(&self) -> usize {
        self.shared.cfg.group_size
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Pop a spare node. Callers check `pool.len()` up front and reserve
    /// enough nodes for the whole operation, so `None` here means the
    /// reservation arithmetic is wrong — an invariant violation the caller
    /// surfaces as a [`CoordEvent::InvariantViolated`] instead of aborting.
    fn alloc_node(&mut self) -> Option<NodeId> {
        self.pool.pop()
    }

    /// Record an invariant violation as a degraded-mode event. The
    /// coordinator drops the operation that tripped it and keeps serving;
    /// the event stream is the audit trail.
    fn invariant_violated(&mut self, env: &mut Env<'_, Msg>, context: &str) {
        env.obs().incr("invariant_violations");
        env.trace(ObsEvent::InvariantViolated {
            context: context.to_string(),
        });
        self.events.push((
            env.now(),
            CoordEvent::InvariantViolated {
                context: context.to_string(),
            },
        ));
    }

    /// Existing data buckets of `group` (the file may not have grown the
    /// whole group yet).
    fn existing_cols(&self, group: u64) -> usize {
        let m = self.m() as u64;
        let total = self.state.bucket_count();
        let start = group * m;
        crate::convert::to_index(total.saturating_sub(start).min(m))
    }

    /// Main message handler.
    pub fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::ReportOverflow { .. } => {
                if self.busy() {
                    self.deferred_splits += 1;
                } else {
                    self.do_split(env);
                }
            }
            Msg::SplitDone { bucket } => {
                // Only account a split we are actually waiting for: a
                // duplicated confirmation must not unbalance the counter.
                let token = self
                    .splits
                    .iter()
                    .find(|(_, s)| s.target == bucket)
                    .map(|(t, _)| *t);
                if let Some(ctx) = token.and_then(|t| self.splits.remove(&t)) {
                    env.cancel_timer(ctx.timer);
                    self.timer_tokens.remove(&ctx.timer);
                    self.outstanding_splits = self.outstanding_splits.saturating_sub(1);
                    env.obs().incr("splits_completed");
                    env.trace(ObsEvent::SplitEnd {
                        bucket: ctx.source,
                        new_bucket: ctx.target,
                    });
                    self.drain_queues(env);
                }
            }
            Msg::ForceMerge => self.do_merge(env),
            Msg::MergeDone { final_seq, .. } => self.finish_merge(env, final_seq),
            Msg::Suspect {
                op_id,
                client,
                bucket: _,
                kind,
            } => self.handle_suspect(env, op_id, client, kind),
            Msg::ProbeAck { token, .. } => self.handle_probe_ack(env, token, from),
            Msg::CheckGroup { group } => {
                if group < self.group_k.len() as u64 && !self.checking_groups.contains(&group) {
                    self.start_group_check(env, group);
                }
            }
            Msg::ShardData {
                token,
                shard,
                content,
            } => self.handle_shard_data(env, token, shard, content),
            Msg::InstallAck { token } => self.handle_install_ack(env, token),
            Msg::FindRecordReply { token, found } => self.handle_find_reply(env, token, found),
            Msg::CellData { token, shard, cell } => self.handle_cell_data(env, token, shard, cell),
            Msg::RecoverFileState => {
                if self.state_rec.is_some() {
                    return; // duplicated trigger: scan already running
                }
                let nodes = self.shared.registry.borrow().all_data_nodes();
                let token = self.token();
                let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
                self.timer_tokens.insert(timer, token);
                self.state_rec = Some(StateRecCtx {
                    expected: nodes.len(),
                    replies: BTreeMap::new(),
                    token,
                    timer,
                    attempts: 0,
                });
                for n in nodes {
                    env.send(n, Msg::StateQuery);
                }
            }
            Msg::StateReply { bucket, level } => {
                let done = if let Some(ctx) = self.state_rec.as_mut() {
                    ctx.replies.insert(bucket, level);
                    ctx.replies.len() == ctx.expected
                } else {
                    false
                };
                if let Some(ctx) = if done { self.state_rec.take() } else { None } {
                    env.cancel_timer(ctx.timer);
                    self.timer_tokens.remove(&ctx.timer);
                    let pairs: Vec<(u64, u8)> = ctx.replies.into_iter().collect();
                    let (n, i) = recompute_state(&pairs);
                    match FileState::from_parts(n, i, 1) {
                        Some(state) => {
                            self.state = state;
                            self.events
                                .push((env.now(), CoordEvent::StateRecovered { n, i }));
                        }
                        None => {
                            // The survivors' reports recompose into an
                            // impossible (n, i); keep the current state and
                            // leave an audit trail rather than install it.
                            self.invariant_violated(env, "recovered file state inconsistent");
                        }
                    }
                }
            }
            Msg::CheckOwnership { bucket, parity } => {
                let reg = self.shared.registry.borrow();
                let (still_owner, loc) = match (bucket, parity) {
                    (Some(b), None) => (
                        crate::convert::to_index(b) < reg.data_count() && reg.data_node(b) == from,
                        (
                            b / self.m() as u64,
                            crate::convert::to_index(b % self.m() as u64),
                        ),
                    ),
                    (None, Some((g, q))) => {
                        (reg.parity_nodes(g).get(q) == Some(&from), (g, self.m() + q))
                    }
                    _ => {
                        debug_assert!(false, "malformed ownership claim");
                        return;
                    }
                };
                drop(reg);
                if still_owner {
                    // §2.5.4: restarted with correct data and never
                    // replaced — resume. Clear any failure suspicion.
                    self.failed.remove(&loc);
                    env.send(from, Msg::OwnershipAck);
                } else {
                    // The bucket was recreated elsewhere: the comeback node
                    // is demoted to a hot spare. A duplicated claim must not
                    // pool the same node twice (it would be allocated to two
                    // roles at once).
                    env.send(from, Msg::Retire);
                    if !self.pool.contains(&from) {
                        self.pool.push(from);
                    }
                }
            }
            Msg::RestartReport { bucket, delta_seq } => {
                self.handle_restart_report(env, from, bucket, delta_seq)
            }
            Msg::SuffixInfo {
                bucket,
                col: _,
                next_seq,
                covered,
                count: _,
                bytes,
            } => self.handle_suffix_info(env, from, bucket, next_seq, covered, bytes),
            Msg::RestartAbort { bucket } => self.handle_restart_abort(env, from, bucket),
            Msg::ParityAck { .. } => {}
            other => {
                debug_assert!(false, "coordinator got {:?}", other);
            }
        }
        // `from` is only used for debug assertions today.
        let _ = from;
    }

    /// Timer handler: probe / group-check timeouts and retransmission
    /// rounds for every in-flight protocol exchange. Anything the
    /// coordinator sends that expects an answer is re-sent up to
    /// `coord_retries` times before the exchange is abandoned, so a lost
    /// message (or lost reply) only costs latency.
    pub fn on_timer(&mut self, env: &mut Env<'_, Msg>, timer: TimerId) {
        let Some(token) = self.timer_tokens.remove(&timer) else {
            return;
        };
        let retries = self.shared.cfg.coord_retries;

        if let Some(mut probe) = self.probes.remove(&token) {
            if probe.attempts < retries {
                // Re-probe: one lost probe must not fake a death.
                probe.attempts += 1;
                let node = self.shared.registry.borrow().data_node(probe.bucket);
                env.send(node, Msg::Probe { token });
                probe.timer = env.set_timer(self.shared.cfg.probe_timeout_us);
                self.timer_tokens.insert(probe.timer, token);
                self.probes.insert(token, probe);
                return;
            }
            // The addressed bucket is dead: remember the ops and audit its
            // whole group.
            let group = probe.bucket / self.m() as u64;
            self.queue_ops(group, probe.pending);
            if !self.checking_groups.contains(&group) {
                self.start_group_check(env, group);
            }
            return;
        }

        if let Some(mut check) = self.checks.remove(&token) {
            let silent: Vec<NodeId> = check
                .probed
                .iter()
                .filter(|(s, _)| !check.responded.contains(s))
                .map(|(_, n)| *n)
                .collect();
            if check.attempts < retries && !silent.is_empty() {
                check.attempts += 1;
                for node in silent {
                    env.send(node, Msg::Probe { token });
                }
                check.timer = env.set_timer(self.shared.cfg.probe_timeout_us);
                self.timer_tokens.insert(check.timer, token);
                self.checks.insert(token, check);
                return;
            }
            self.finish_group_check(env, check);
            return;
        }

        if self.recoveries.contains_key(&token) {
            self.retry_recovery(env, token);
            return;
        }

        if self.splits.contains_key(&token) {
            self.retry_split(env, token);
            return;
        }

        if self
            .outstanding_merge
            .as_ref()
            .is_some_and(|m| m.token == token)
        {
            self.retry_merge(env);
            return;
        }

        if self.state_rec.as_ref().is_some_and(|s| s.token == token) {
            self.retry_state_rec(env);
            return;
        }

        if self.degraded.contains_key(&token) {
            self.retry_degraded(env, token);
            return;
        }

        if self.suffixes.contains_key(&token) {
            self.retry_suffix(env, token);
        }
    }

    /// Park ops for a group, without duplicating an op already parked (a
    /// duplicated Suspect or a probe round can offer the same op twice).
    fn queue_ops(&mut self, group: u64, ops: Vec<(OpId, NodeId, ReqKind)>) {
        let queued = self.queued_ops.entry(group).or_default();
        for (op_id, client, kind) in ops {
            if !queued.iter().any(|(o, c, _)| *o == op_id && *c == client) {
                queued.push((op_id, client, kind));
            }
        }
    }

    /// Re-send whatever a recovery is still waiting on: `TransferShard` to
    /// the shards not yet collected, then the pending `Install`s verbatim.
    /// After `coord_retries` fruitless rounds the recovery is abandoned and
    /// the group re-audited (the survivor set may have changed under us).
    fn retry_recovery(&mut self, env: &mut Env<'_, Msg>, token: u64) {
        let retries = self.shared.cfg.coord_retries;
        let give_up = match self.recoveries.get_mut(&token) {
            Some(ctx) => {
                ctx.attempts += 1;
                ctx.attempts > retries
            }
            None => return,
        };
        if give_up {
            let Some(ctx) = self.recoveries.remove(&token) else {
                return;
            };
            // Whatever froze for this collection must not stay frozen
            // until its safety timer: the collection is dead.
            self.resume_group_writes(env, ctx.group, &ctx.rebuild);
            match ctx.purpose {
                Purpose::Repair => {
                    // Survivors stopped answering; audit the group afresh.
                    if !self.checking_groups.contains(&ctx.group) {
                        self.start_group_check(env, ctx.group);
                    }
                }
                Purpose::Upgrade => {
                    if !self.upgrade_queue.contains(&ctx.group) {
                        self.upgrade_queue.push_back(ctx.group);
                    }
                }
            }
            self.drain_queues(env);
            return;
        }
        let m = self.m();
        let Some(ctx) = self.recoveries.get(&token) else {
            return;
        };
        let reg = self.shared.registry.borrow();
        let mut sends: Vec<(NodeId, Msg)> = Vec::new();
        for &shard in &ctx.awaiting {
            let node = if shard < m {
                reg.data_node(ctx.group * m as u64 + shard as u64)
            } else {
                // A shard index beyond the parity set means the group
                // shrank under us; skip it — the give-up path re-audits.
                match reg.parity_nodes(ctx.group).get(shard - m) {
                    Some(n) => *n,
                    None => continue,
                }
            };
            sends.push((node, Msg::TransferShard { token }));
        }
        for (spare, msg) in ctx.install_msgs.values() {
            sends.push((*spare, msg.clone()));
        }
        drop(reg);
        for (node, msg) in sends {
            env.send(node, msg);
        }
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        if let Some(ctx) = self.recoveries.get_mut(&token) {
            ctx.timer = timer;
        }
    }

    /// Re-issue a split's orders (InitParity for a freshly created group,
    /// InitData for the target, DoSplit to the source). All three are
    /// idempotent at their receivers, and the source re-ships its cached
    /// SplitLoad verbatim, so re-ordering a split is always safe.
    fn retry_split(&mut self, env: &mut Env<'_, Msg>, token: u64) {
        let retries = self.shared.cfg.coord_retries;
        let give_up = match self.splits.get_mut(&token) {
            Some(ctx) => {
                ctx.attempts += 1;
                ctx.attempts > retries
            }
            None => return,
        };
        if give_up {
            // Give up: unblock the queue and audit the target's group.
            let Some(ctx) = self.splits.remove(&token) else {
                return;
            };
            self.outstanding_splits = self.outstanding_splits.saturating_sub(1);
            let group = ctx.target / self.m() as u64;
            if !self.checking_groups.contains(&group) {
                self.start_group_check(env, group);
            }
            self.drain_queues(env);
            return;
        }
        let Some(ctx) = self.splits.get(&token) else {
            return;
        };
        let reg = self.shared.registry.borrow();
        let target_node = reg.data_node(ctx.target);
        let source_node = reg.data_node(ctx.source);
        drop(reg);
        for (node, msg) in &ctx.init_parity {
            env.send(*node, msg.clone());
        }
        env.send(
            target_node,
            Msg::InitData {
                bucket: ctx.target,
                level: ctx.new_level,
                delta_seq: ctx.seq0,
            },
        );
        env.send(
            source_node,
            Msg::DoSplit {
                source: ctx.source,
                target: ctx.target,
                new_level: ctx.new_level,
            },
        );
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        if let Some(ctx) = self.splits.get_mut(&token) {
            ctx.timer = timer;
        }
    }

    /// Re-order an unconfirmed merge (DoMerge and the downstream MergeLoad
    /// are both idempotent); abandoned after `coord_retries` rounds.
    fn retry_merge(&mut self, env: &mut Env<'_, Msg>) {
        let retries = self.shared.cfg.coord_retries;
        let Some(ctx) = self.outstanding_merge.as_mut() else {
            return;
        };
        ctx.attempts += 1;
        if ctx.attempts > retries {
            self.outstanding_merge = None;
            self.drain_queues(env);
            return;
        }
        let (source, target, new_level, token) = (ctx.source, ctx.target, ctx.new_level, ctx.token);
        let target_node = self.shared.registry.borrow().data_node(target);
        env.send(
            target_node,
            Msg::DoMerge {
                source,
                target,
                new_level,
            },
        );
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        if let Some(ctx) = self.outstanding_merge.as_mut() {
            ctx.timer = timer;
        }
    }

    /// Re-query the buckets that have not answered a file-state scan.
    fn retry_state_rec(&mut self, env: &mut Env<'_, Msg>) {
        let retries = self.shared.cfg.coord_retries;
        let Some(ctx) = self.state_rec.as_mut() else {
            return;
        };
        ctx.attempts += 1;
        if ctx.attempts > retries {
            self.state_rec = None;
            return;
        }
        let token = ctx.token;
        let missing: Vec<NodeId> = {
            let reg = self.shared.registry.borrow();
            (0..reg.data_count() as u64)
                .filter(|b| !ctx.replies.contains_key(b))
                .map(|b| reg.data_node(b))
                .collect()
        };
        for node in missing {
            env.send(node, Msg::StateQuery);
        }
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        if let Some(ctx) = self.state_rec.as_mut() {
            ctx.timer = timer;
        }
    }

    /// Re-drive a degraded read: re-ask the parity bucket (AwaitFind) or
    /// re-request the cells still missing (AwaitCells). After
    /// `coord_retries` rounds the lookup fails cleanly — the client's own
    /// retry may still land once the group is rebuilt.
    fn retry_degraded(&mut self, env: &mut Env<'_, Msg>, token: u64) {
        let retries = self.shared.cfg.coord_retries;
        let give_up = match self.degraded.get_mut(&token) {
            Some(ctx) => {
                ctx.attempts += 1;
                ctx.attempts > retries
            }
            None => return,
        };
        if give_up {
            let Some(ctx) = self.degraded.remove(&token) else {
                return;
            };
            env.send(
                ctx.client,
                Msg::Reply {
                    op_id: ctx.op_id,
                    result: OpResult::Failed("degraded read timed out".into()),
                    iam: None,
                },
            );
            self.drain_queues(env);
            return;
        }
        let Some(ctx) = self.degraded.get(&token) else {
            return;
        };
        let mut sends: Vec<(NodeId, Msg)> = Vec::new();
        match &ctx.stage {
            DegradedStage::AwaitFind { pnode } => {
                sends.push((
                    *pnode,
                    Msg::FindRecord {
                        key: ctx.key,
                        token,
                    },
                ));
            }
            DegradedStage::AwaitCells {
                rank,
                requested,
                cells,
                ..
            } => {
                for (shard, node) in requested {
                    if !cells.contains_key(shard) {
                        sends.push((*node, Msg::ReadCell { rank: *rank, token }));
                    }
                }
            }
        }
        for (node, msg) in sends {
            env.send(node, msg);
        }
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        if let Some(ctx) = self.degraded.get_mut(&token) {
            ctx.timer = timer;
        }
    }

    // ----- splits and availability scaling -----

    fn do_split(&mut self, env: &mut Env<'_, Msg>) {
        let m = self.m() as u64;

        // Out of spare nodes: drop the split rather than panic. The
        // overflowing bucket keeps serving (just over capacity) and will
        // re-report as it grows, so the split retries once nodes free up.
        // Checked before `state.split()` commits the address-space change;
        // the next bucket number is always the current count, so the
        // new-group test is exact.
        let next_target = self.state.bucket_count();
        let needed = 1 + if self.group_k.len() as u64 <= next_target / m {
            self.k_file
        } else {
            0
        };
        if self.pool.len() < needed {
            return;
        }

        let plan = self.state.split();
        let target_group = plan.target / m;

        // Provision parity for a group touched for the first time. The
        // InitParity orders are remembered on the split context so a lost
        // one is re-sent with the split orders (Blank nodes buffer traffic
        // until initialised, so a late init is harmless).
        let mut init_parity: Vec<(NodeId, Msg)> = Vec::new();
        if self.group_k.len() as u64 <= target_group {
            debug_assert_eq!(self.group_k.len() as u64, target_group);
            let k = self.k_file;
            let mut nodes = Vec::with_capacity(k);
            for q in 0..k {
                let Some(n) = self.alloc_node() else {
                    self.invariant_violated(
                        env,
                        "node pool ran dry mid-split despite the up-front reservation check",
                    );
                    return;
                };
                let msg = Msg::InitParity {
                    group: target_group,
                    index: q,
                    k,
                };
                env.send(n, msg.clone());
                init_parity.push((n, msg));
                nodes.push(n);
            }
            self.shared
                .registry
                .borrow_mut()
                .set_parity(target_group, nodes);
            self.group_k.push(k);
        }

        // Lazy upgrades: a touched lagging group catches up now.
        let source_group = plan.source / m;
        if self.shared.cfg.upgrade_mode == UpgradeMode::Lazy {
            for g in [source_group, target_group] {
                if self.lagging.remove(&g) {
                    self.upgrade_queue.push_back(g);
                }
            }
        }

        // Create the new bucket and order the split.
        let seq0 = self.col_floors.remove(&plan.target).unwrap_or(0);
        let Some(target_node) = self.alloc_node() else {
            self.invariant_violated(
                env,
                "node pool ran dry mid-split despite the up-front reservation check",
            );
            return;
        };
        env.send(
            target_node,
            Msg::InitData {
                bucket: plan.target,
                level: plan.new_level,
                delta_seq: seq0,
            },
        );
        self.shared
            .registry
            .borrow_mut()
            .push_data(plan.target, target_node);
        let source_node = self.shared.registry.borrow().data_node(plan.source);
        env.send(
            source_node,
            Msg::DoSplit {
                source: plan.source,
                target: plan.target,
                new_level: plan.new_level,
            },
        );
        self.outstanding_splits += 1;
        let token = self.token();
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        self.splits.insert(
            token,
            SplitCtx {
                source: plan.source,
                target: plan.target,
                new_level: plan.new_level,
                seq0,
                init_parity,
                timer,
                attempts: 0,
            },
        );
        env.obs().incr("splits_started");
        env.trace(ObsEvent::SplitStart {
            bucket: plan.source,
        });
        self.events.push((
            env.now(),
            CoordEvent::Split {
                source: plan.source,
                target: plan.target,
                buckets: self.state.bucket_count(),
            },
        ));

        // Scalable availability: raise k when M crosses the next threshold.
        let m_now = self.state.bucket_count();
        while self
            .shared
            .cfg
            .scale_thresholds
            .get(self.thresholds_crossed)
            .is_some_and(|&t| m_now > t)
        {
            self.thresholds_crossed += 1;
            self.k_file += 1;
            self.events
                .push((env.now(), CoordEvent::KIncreased { k: self.k_file }));
            match self.shared.cfg.upgrade_mode {
                UpgradeMode::Eager => {
                    let k_file = self.k_file;
                    let behind: Vec<u64> = self
                        .group_k
                        .iter()
                        .enumerate()
                        .filter(|(_, &k)| k < k_file)
                        .map(|(g, _)| g as u64)
                        .collect();
                    for g in behind {
                        if !self.upgrade_queue.contains(&g) {
                            self.upgrade_queue.push_back(g);
                        }
                    }
                }
                UpgradeMode::Lazy => {
                    let k_file = self.k_file;
                    let behind: Vec<u64> = self
                        .group_k
                        .iter()
                        .enumerate()
                        .filter(|(_, &k)| k < k_file)
                        .map(|(g, _)| g as u64)
                        .collect();
                    self.lagging.extend(behind);
                }
            }
        }
    }

    /// Undo the last split: order the last bucket to fold back into its
    /// split source. Ignored while other structural work is in flight or
    /// at the initial size.
    fn do_merge(&mut self, env: &mut Env<'_, Msg>) {
        if self.busy() || self.state.bucket_count() <= 1 {
            return;
        }
        let Some(plan) = self.state.merge() else {
            return;
        };
        // plan.target is the disappearing bucket, plan.source absorbs;
        // both end at level new_level - 1.
        let target_node = self.shared.registry.borrow().data_node(plan.target);
        let token = self.token();
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        self.outstanding_merge = Some(MergeCtx {
            source: plan.source,
            target: plan.target,
            new_level: plan.new_level - 1,
            token,
            timer,
            attempts: 0,
        });
        env.send(
            target_node,
            Msg::DoMerge {
                source: plan.source,
                target: plan.target,
                new_level: plan.new_level - 1,
            },
        );
    }

    /// The absorbing bucket confirmed: retire the ex-bucket's node (and the
    /// last group's parity nodes if the group emptied) back into the pool.
    fn finish_merge(&mut self, env: &mut Env<'_, Msg>, final_seq: u64) {
        let Some(ctx) = self.outstanding_merge.take() else {
            return;
        };
        env.cancel_timer(ctx.timer);
        self.timer_tokens.remove(&ctx.timer);
        let (source, target) = (ctx.source, ctx.target);
        self.col_floors.insert(target, final_seq);
        let m = self.m() as u64;
        let mut reg = self.shared.registry.borrow_mut();
        if let Some(ex_node) = reg.pop_data() {
            env.send(ex_node, Msg::Retire);
            self.pool.push(ex_node);
        }
        // If the removed bucket was the sole member of the last group, the
        // group's (now record-free) parity buckets are decommissioned too.
        if target % m == 0 {
            debug_assert_eq!(self.group_k.len() as u64, target / m + 1);
            for pn in reg.pop_parity_group() {
                env.send(pn, Msg::Retire);
                self.pool.push(pn);
            }
            self.group_k.pop();
            self.lagging.remove(&(target / m));
            // The group's parity state is gone with its buckets: any Δ
            // floors recorded for this group's columns die with it (a
            // regrow gets fresh parity channels starting at 0).
            for b in target..target + m {
                self.col_floors.remove(&b);
            }
        }
        drop(reg);
        self.events.push((
            env.now(),
            CoordEvent::Merged {
                source,
                target,
                buckets: self.state.bucket_count(),
            },
        ));
        self.drain_queues(env);
    }

    /// Run queued structural work when the coordinator goes idle.
    fn drain_queues(&mut self, env: &mut Env<'_, Msg>) {
        if self.outstanding_splits > 0
            || !self.checks.is_empty()
            || !self.recoveries.is_empty()
            || !self.degraded.is_empty()
        {
            return;
        }
        if let Some(group) = self.upgrade_queue.pop_front() {
            self.start_upgrade(env, group);
            return;
        }
        if self.deferred_splits > 0 {
            self.deferred_splits -= 1;
            self.do_split(env);
        }
    }

    fn start_upgrade(&mut self, env: &mut Env<'_, Msg>, group: u64) {
        let Some(&k_old) = self.group_k.get(crate::convert::to_index(group)) else {
            // A queued upgrade can outlive its group (merged away).
            self.drain_queues(env);
            return;
        };
        let k_new = self.k_file;
        if k_old >= k_new {
            self.drain_queues(env);
            return;
        }
        let token = self.token();
        let existing = self.existing_cols(group);
        let mut awaiting = HashSet::new();
        let reg = self.shared.registry.borrow();
        let m = self.m() as u64;
        for c in 0..existing {
            awaiting.insert(c);
            env.send(
                reg.data_node(group * m + c as u64),
                Msg::TransferShard { token },
            );
        }
        drop(reg);
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        self.recoveries.insert(
            token,
            RecoveryCtx {
                group,
                purpose: Purpose::Upgrade,
                k: k_new,
                rebuild: (self.m() + k_old..self.m() + k_new).collect(),
                awaiting,
                collected: HashMap::new(),
                installs: HashMap::new(),
                install_msgs: HashMap::new(),
                spares: HashMap::new(),
                timer,
                attempts: 0,
            },
        );
        // A group with no existing columns (cannot happen: groups are
        // created by splits into them) would stall; guard anyway.
        if existing == 0 {
            if let Some(ctx) = self.recoveries.remove(&token) {
                self.finish_collection(env, token, ctx);
            }
        }
    }

    // ----- failure detection -----

    fn handle_suspect(
        &mut self,
        env: &mut Env<'_, Msg>,
        op_id: OpId,
        client: NodeId,
        kind: ReqKind,
    ) {
        let bucket = self.state.address(kind.key());
        let group = bucket / self.m() as u64;
        if self.dead_groups.contains(&group) {
            env.send(
                client,
                Msg::Reply {
                    op_id,
                    result: OpResult::Failed("group unrecoverable".into()),
                    iam: None,
                },
            );
            return;
        }
        // Already working on this group: park the op.
        if self.checking_groups.contains(&group)
            || self.recoveries.values().any(|r| r.group == group)
        {
            self.queue_ops(group, vec![(op_id, client, kind)]);
            return;
        }
        let col = crate::convert::to_index(bucket % self.m() as u64);
        if self.failed.contains(&(group, col)) {
            // Known failure, recovery apparently finished (or pending
            // elsewhere); queue and audit again.
            self.queue_ops(group, vec![(op_id, client, kind)]);
            self.start_group_check(env, group);
            return;
        }
        // A probe for this bucket is already in flight (e.g. a duplicated
        // Suspect): ride along instead of double-probing.
        if let Some(probe) = self.probes.values_mut().find(|p| p.bucket == bucket) {
            if !probe
                .pending
                .iter()
                .any(|(o, c, _)| *o == op_id && *c == client)
            {
                probe.pending.push((op_id, client, kind));
            }
            return;
        }
        // Probe the bucket's node.
        let token = self.token();
        let node = self.shared.registry.borrow().data_node(bucket);
        env.send(node, Msg::Probe { token });
        let timer = env.set_timer(self.shared.cfg.probe_timeout_us);
        self.timer_tokens.insert(timer, token);
        self.probes.insert(
            token,
            ProbeCtx {
                bucket,
                pending: vec![(op_id, client, kind)],
                timer,
                attempts: 0,
            },
        );
    }

    fn handle_probe_ack(&mut self, env: &mut Env<'_, Msg>, token: u64, from: NodeId) {
        // A plain probe: the node is alive, deliver the parked ops
        // directly (the client image or a forwarding hop was at fault).
        if let Some(probe) = self.probes.remove(&token) {
            env.cancel_timer(probe.timer);
            self.timer_tokens.remove(&probe.timer);
            let node = self.shared.registry.borrow().data_node(probe.bucket);
            for (op_id, client, kind) in probe.pending {
                env.send(
                    node,
                    Msg::Req {
                        op_id,
                        client,
                        intended: probe.bucket,
                        hops: 1,
                        kind,
                    },
                );
            }
            return;
        }
        // Otherwise it belongs to a group check; the responding shard is
        // identified by its node id.
        self.note_check_ack(env, token, from);
    }

    fn start_group_check(&mut self, env: &mut Env<'_, Msg>, group: u64) {
        self.checking_groups.insert(group);
        let token = self.token();
        let m = self.m() as u64;
        let existing = self.existing_cols(group);
        let reg = self.shared.registry.borrow();
        let mut probed = Vec::new();
        for c in 0..existing {
            probed.push((c, reg.data_node(group * m + c as u64)));
        }
        for (q, n) in reg.parity_nodes(group).iter().enumerate() {
            probed.push((self.m() + q, *n));
        }
        drop(reg);
        for (_, node) in &probed {
            env.send(*node, Msg::Probe { token });
        }
        let timer = env.set_timer(self.shared.cfg.probe_timeout_us);
        self.timer_tokens.insert(timer, token);
        self.checks.insert(
            token,
            GroupCheckCtx {
                group,
                probed,
                responded: HashSet::new(),
                timer,
                attempts: 0,
            },
        );
    }

    /// Group-check probe acks arrive as ProbeAck with the check's token;
    /// routed here from the dispatcher. A check whose every probed shard
    /// responded finishes early (healthy groups pay no timeout).
    fn note_check_ack(&mut self, env: &mut Env<'_, Msg>, token: u64, node: NodeId) {
        let all_in = if let Some(ctx) = self.checks.get_mut(&token) {
            if let Some((shard, _)) = ctx.probed.iter().find(|(_, n)| *n == node) {
                ctx.responded.insert(*shard);
            }
            ctx.responded.len() == ctx.probed.len()
        } else {
            false
        };
        if let Some(check) = if all_in {
            self.checks.remove(&token)
        } else {
            None
        } {
            env.cancel_timer(check.timer);
            self.timer_tokens.remove(&check.timer);
            self.finish_group_check(env, check);
        }
    }

    fn finish_group_check(&mut self, env: &mut Env<'_, Msg>, check: GroupCheckCtx) {
        let group = check.group;
        let failed: Vec<usize> = check
            .probed
            .iter()
            .map(|(s, _)| *s)
            .filter(|s| !check.responded.contains(s))
            .collect();
        self.checking_groups.remove(&group);
        if failed.is_empty() {
            // False alarm: replay queued ops to their (live) buckets.
            self.replay_queued(env, group);
            self.drain_queues(env);
            return;
        }
        let Some(&k_g) = self.group_k.get(crate::convert::to_index(group)) else {
            // The group vanished (merged away) between probe and reply.
            self.invariant_violated(
                env,
                "group check finished for a group with no parity record",
            );
            self.drain_queues(env);
            return;
        };
        self.events.push((
            env.now(),
            CoordEvent::FailureDetected {
                group,
                shards: failed.clone(),
            },
        ));
        if failed.len() > k_g {
            self.dead_groups.insert(group);
            env.obs().incr("recoveries_failed");
            env.trace(ObsEvent::RecoveryEnd {
                group,
                rebuilt: 0,
                ok: false,
            });
            self.events.push((
                env.now(),
                CoordEvent::GroupUnrecoverable {
                    group,
                    failed: failed.len(),
                },
            ));
            for (op_id, client, _) in self.queued_ops.remove(&group).unwrap_or_default() {
                env.send(
                    client,
                    Msg::Reply {
                        op_id,
                        result: OpResult::Failed("group unrecoverable".into()),
                        iam: None,
                    },
                );
            }
            self.drain_queues(env);
            return;
        }
        for &s in &failed {
            self.failed.insert((group, s));
        }

        // Serve queued *lookups* right now in degraded mode; writes wait
        // for the rebuilt bucket.
        let queued = self.queued_ops.entry(group).or_default();
        let mut keep = Vec::new();
        let mut degraded_lookups = Vec::new();
        for (op_id, client, kind) in queued.drain(..) {
            match kind {
                ReqKind::Lookup(key) => degraded_lookups.push((op_id, client, key)),
                other => keep.push((op_id, client, other)),
            }
        }
        *queued = keep;
        for (op_id, client, key) in degraded_lookups {
            self.start_degraded_read(env, group, op_id, client, key);
        }

        // Kick off the rebuild: collect all surviving data columns plus as
        // many parity shards as there are failed data columns.
        env.obs().incr("recoveries_started");
        env.trace(ObsEvent::RecoveryStart {
            group,
            failed: failed.len() as u64,
        });
        let token = self.token();
        let m = self.m();
        let existing = self.existing_cols(group);
        let failed_data: Vec<usize> = failed.iter().copied().filter(|&s| s < m).collect();
        let reg = self.shared.registry.borrow();
        let mut awaiting = HashSet::new();
        for c in 0..existing {
            if !failed.contains(&c) {
                awaiting.insert(c);
                env.send(
                    reg.data_node(group * m as u64 + c as u64),
                    Msg::TransferShard { token },
                );
            }
        }
        let mut parity_needed = failed_data.len();
        for (q, node) in reg.parity_nodes(group).iter().enumerate() {
            if parity_needed == 0 {
                break;
            }
            if !failed.contains(&(m + q)) {
                awaiting.insert(m + q);
                env.send(*node, Msg::TransferShard { token });
                parity_needed -= 1;
            }
        }
        drop(reg);
        debug_assert_eq!(parity_needed, 0, "tolerance check guarantees survivors");
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        self.recoveries.insert(
            token,
            RecoveryCtx {
                group,
                purpose: Purpose::Repair,
                k: k_g,
                rebuild: failed,
                awaiting,
                collected: HashMap::new(),
                installs: HashMap::new(),
                install_msgs: HashMap::new(),
                spares: HashMap::new(),
                timer,
                attempts: 0,
            },
        );
        // Degenerate case: nothing to await (e.g. group of one existing
        // failed column rebuilt purely from parity... then parity was
        // awaited; truly empty only if no survivors needed).
        if self
            .recoveries
            .get(&token)
            .is_some_and(|c| c.awaiting.is_empty())
        {
            if let Some(ctx) = self.recoveries.remove(&token) {
                self.finish_collection(env, token, ctx);
            }
        }
    }

    fn replay_queued(&mut self, env: &mut Env<'_, Msg>, group: u64) {
        let reg = self.shared.registry.borrow();
        for (op_id, client, kind) in self.queued_ops.remove(&group).unwrap_or_default() {
            let bucket = self.state.address(kind.key());
            env.send(
                reg.data_node(bucket),
                Msg::Req {
                    op_id,
                    client,
                    intended: bucket,
                    hops: 1,
                    kind,
                },
            );
        }
    }

    // ----- restart (Δ-suffix) recovery -----

    /// A data bucket replayed its local store and asks to resume its column
    /// at `delta_seq`. Cheap path: confirm every parity channel for that
    /// column stands at one common watermark `R ≥ delta_seq` and have the
    /// parity buckets ship the missed Δ-suffix `[delta_seq, R)`. Anything
    /// murkier — displaced bucket, busy or dead group, divergent parity
    /// watermarks, truncated history — falls back to the full RS rebuild;
    /// correctness never depends on the suffix path.
    fn handle_restart_report(
        &mut self,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        bucket: u64,
        delta_seq: u64,
    ) {
        let m = self.m() as u64;
        let group = bucket / m;
        let col = crate::convert::to_index(bucket % m);
        let reg = self.shared.registry.borrow();
        let still_owner =
            crate::convert::to_index(bucket) < reg.data_count() && reg.data_node(bucket) == from;
        let parity: Vec<NodeId> = reg.parity_nodes(group).to_vec();
        drop(reg);
        if !still_owner {
            // Recreated elsewhere meanwhile: demote to a hot spare — the
            // same path as a plain CheckOwnership miss, including the
            // double-pooling guard.
            env.send(from, Msg::Retire);
            if !self.pool.contains(&from) {
                self.pool.push(from);
            }
            return;
        }
        if self.suffixes.values().any(|c| c.bucket == bucket) {
            return; // duplicated report: handshake already running
        }
        let group_busy = self.dead_groups.contains(&group)
            || self.checking_groups.contains(&group)
            || self.recoveries.values().any(|r| r.group == group)
            || self.degraded.values().any(|d| d.group == group);
        if group_busy {
            // Racing the failure machinery would certify a resume point the
            // rebuild is about to invalidate.
            self.restart_fallback(env, bucket, group, col, from);
            return;
        }
        if parity.is_empty() {
            // k = 0: no parity stream to reconcile with — the local log is
            // the only copy and it is authoritative.
            self.failed.remove(&(group, col));
            env.send(from, Msg::OwnershipAck);
            env.obs().incr("restart_recoveries");
            self.events.push((
                env.now(),
                CoordEvent::BucketRestarted {
                    bucket,
                    suffix_len: 0,
                },
            ));
            return;
        }
        let token = self.token();
        for pn in &parity {
            env.send(
                *pn,
                Msg::SuffixPull {
                    group,
                    col,
                    from_seq: delta_seq,
                    target: from,
                },
            );
        }
        let timer = env.set_timer(self.shared.cfg.probe_timeout_us);
        self.timer_tokens.insert(timer, token);
        self.suffixes.insert(
            token,
            SuffixCtx {
                group,
                col,
                bucket,
                node: from,
                from_seq: delta_seq,
                infos: HashMap::new(),
                expected: parity.len(),
                timer,
                attempts: 0,
            },
        );
    }

    /// One parity bucket answered a `SuffixPull`. Once all `k` are in, the
    /// resume point is certified iff every parity channel reports the same
    /// watermark `R`, the bucket is at or behind it, and (when behind) at
    /// least one parity bucket's history covered the gap.
    fn handle_suffix_info(
        &mut self,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        bucket: u64,
        next_seq: u64,
        covered: bool,
        bytes: u64,
    ) {
        let Some(token) = self
            .suffixes
            .iter()
            .find(|(_, c)| c.bucket == bucket)
            .map(|(t, _)| *t)
        else {
            return; // stale answer for a settled handshake
        };
        let done = {
            let Some(ctx) = self.suffixes.get_mut(&token) else {
                return;
            };
            ctx.infos.insert(
                from,
                SuffixReply {
                    next_seq,
                    covered,
                    bytes,
                },
            );
            ctx.infos.len() >= ctx.expected
        };
        if !done {
            return;
        }
        let Some(ctx) = self.suffixes.remove(&token) else {
            return;
        };
        env.cancel_timer(ctx.timer);
        self.timer_tokens.remove(&ctx.timer);
        let mut seqs = ctx.infos.values().map(|r| r.next_seq);
        let r0 = seqs.next().unwrap_or(ctx.from_seq);
        let all_equal = seqs.all(|s| s == r0);
        let any_covered = ctx.infos.values().any(|r| r.covered);
        let ok = all_equal && ctx.from_seq <= r0 && (ctx.from_seq == r0 || any_covered);
        if !ok {
            self.restart_fallback(env, ctx.bucket, ctx.group, ctx.col, ctx.node);
            return;
        }
        self.failed.remove(&(ctx.group, ctx.col));
        env.send(ctx.node, Msg::OwnershipAck);
        let moved: u64 = ctx.infos.values().map(|r| r.bytes).sum();
        env.obs().incr("restart_recoveries");
        env.obs().add("recovery_bytes_moved", moved);
        self.events.push((
            env.now(),
            CoordEvent::BucketRestarted {
                bucket: ctx.bucket,
                suffix_len: r0 - ctx.from_seq,
            },
        ));
        self.drain_queues(env);
    }

    /// Re-pull the parity answers still missing; after `coord_retries`
    /// silent rounds the handshake gives up and falls back.
    fn retry_suffix(&mut self, env: &mut Env<'_, Msg>, token: u64) {
        let retries = self.shared.cfg.coord_retries;
        let give_up = match self.suffixes.get_mut(&token) {
            Some(ctx) => {
                ctx.attempts += 1;
                ctx.attempts > retries
            }
            None => return,
        };
        if give_up {
            let Some(ctx) = self.suffixes.remove(&token) else {
                return;
            };
            self.restart_fallback(env, ctx.bucket, ctx.group, ctx.col, ctx.node);
            return;
        }
        let Some(ctx) = self.suffixes.get(&token) else {
            return;
        };
        let reg = self.shared.registry.borrow();
        let sends: Vec<(NodeId, Msg)> = reg
            .parity_nodes(ctx.group)
            .iter()
            .filter(|pn| !ctx.infos.contains_key(pn))
            .map(|pn| {
                (
                    *pn,
                    Msg::SuffixPull {
                        group: ctx.group,
                        col: ctx.col,
                        from_seq: ctx.from_seq,
                        target: ctx.node,
                    },
                )
            })
            .collect();
        drop(reg);
        for (node, msg) in sends {
            env.send(node, msg);
        }
        let timer = env.set_timer(self.shared.cfg.probe_timeout_us);
        self.timer_tokens.insert(timer, token);
        if let Some(ctx) = self.suffixes.get_mut(&token) {
            ctx.timer = timer;
        }
    }

    /// The restarted bucket itself gave up on the Δ-suffix catch-up: it
    /// could not apply a shipped suffix entry, or its watchdog expired with
    /// the handshake wedged. Same outcome as a coordinator-side give-up —
    /// cancel any handshake still in flight and demote the node into the
    /// full RS rebuild. An abort can also arrive *after* certification
    /// (the undecodable suffix raced the `OwnershipAck`); the bucket
    /// ignores that ack, so the fallback here is still the only path back
    /// to a serving replica.
    fn handle_restart_abort(&mut self, env: &mut Env<'_, Msg>, from: NodeId, bucket: u64) {
        let token = self
            .suffixes
            .iter()
            .find(|(_, c)| c.bucket == bucket && c.node == from)
            .map(|(t, _)| *t);
        if let Some(token) = token {
            if let Some(ctx) = self.suffixes.remove(&token) {
                env.cancel_timer(ctx.timer);
                self.timer_tokens.remove(&ctx.timer);
            }
        }
        let m = self.m() as u64;
        let group = bucket / m;
        let col = crate::convert::to_index(bucket % m);
        let reg = self.shared.registry.borrow();
        let still_owner =
            crate::convert::to_index(bucket) < reg.data_count() && reg.data_node(bucket) == from;
        drop(reg);
        if still_owner {
            self.restart_fallback(env, bucket, group, col, from);
        } else {
            // Displaced meanwhile: the bucket already lives elsewhere; just
            // demote the reporter (with the double-pooling guard).
            env.send(from, Msg::Retire);
            if !self.pool.contains(&from) {
                self.pool.push(from);
            }
        }
    }

    /// Give up on the Δ-suffix path for `bucket`: demote the restarted node
    /// to a hot spare and let the standard audit → RS-rebuild machinery
    /// recreate the bucket from the group's survivors.
    fn restart_fallback(
        &mut self,
        env: &mut Env<'_, Msg>,
        bucket: u64,
        group: u64,
        col: usize,
        node: NodeId,
    ) {
        env.obs().incr("restart_fallbacks");
        env.trace(ObsEvent::RestartFallback { bucket });
        env.send(node, Msg::Retire);
        if !self.pool.contains(&node) {
            self.pool.push(node);
        }
        self.failed.insert((group, col));
        let audit_clear = !self.checking_groups.contains(&group)
            && !self.dead_groups.contains(&group)
            && !self.recoveries.values().any(|r| r.group == group);
        if audit_clear {
            self.start_group_check(env, group);
        }
    }

    // ----- degraded-mode record recovery -----

    fn start_degraded_read(
        &mut self,
        env: &mut Env<'_, Msg>,
        group: u64,
        op_id: OpId,
        client: NodeId,
        key: Key,
    ) {
        // Ask a surviving parity bucket which rank holds the key.
        let m = self.m();
        let reg = self.shared.registry.borrow();
        let alive_parity = reg
            .parity_nodes(group)
            .iter()
            .enumerate()
            .find(|(q, _)| !self.failed.contains(&(group, m + q)));
        let Some((_, &pnode)) = alive_parity else {
            drop(reg);
            env.send(
                client,
                Msg::Reply {
                    op_id,
                    result: OpResult::Failed("no surviving parity bucket".into()),
                    iam: None,
                },
            );
            return;
        };
        drop(reg);
        env.obs().incr("degraded_reads");
        env.trace(ObsEvent::DegradedRead { group });
        let token = self.token();
        env.send(pnode, Msg::FindRecord { key, token });
        let timer = env.set_timer(self.shared.cfg.coord_retransmit_us);
        self.timer_tokens.insert(timer, token);
        self.degraded.insert(
            token,
            DegradedCtx {
                group,
                op_id,
                client,
                key,
                stage: DegradedStage::AwaitFind { pnode },
                timer,
                attempts: 0,
            },
        );
    }

    fn handle_find_reply(
        &mut self,
        env: &mut Env<'_, Msg>,
        token: u64,
        found: Option<(Rank, Vec<Option<Key>>)>,
    ) {
        // A duplicated reply for a read already in the cell stage must not
        // restart it.
        if !matches!(
            self.degraded.get(&token).map(|c| &c.stage),
            Some(DegradedStage::AwaitFind { .. })
        ) {
            return;
        }
        let Some(mut ctx) = self.degraded.remove(&token) else {
            return;
        };
        let Some((rank, keys)) = found else {
            // The key never existed: unsuccessful-search semantics.
            env.cancel_timer(ctx.timer);
            self.timer_tokens.remove(&ctx.timer);
            env.send(
                ctx.client,
                Msg::Reply {
                    op_id: ctx.op_id,
                    result: OpResult::Value(None),
                    iam: None,
                },
            );
            self.drain_queues(env);
            return;
        };
        let m = self.m();
        // The parity bucket claimed it found the key, so the key list it
        // returned must contain it. A reply that violates that (a buggy or
        // byzantine parity node — this arrives off the wire) fails the one
        // lookup instead of aborting the coordinator.
        let Some(target_col) = keys.iter().position(|k| *k == Some(ctx.key)) else {
            env.cancel_timer(ctx.timer);
            self.timer_tokens.remove(&ctx.timer);
            self.invariant_violated(
                env,
                "FindRecordReply's key list does not contain the key it claims to have found",
            );
            env.send(
                ctx.client,
                Msg::Reply {
                    op_id: ctx.op_id,
                    result: OpResult::Failed("inconsistent parity reply".into()),
                    iam: None,
                },
            );
            self.drain_queues(env);
            return;
        };
        // Gather m shards: existing live data columns first, then parity.
        let group = ctx.group;
        let existing = self.existing_cols(group);
        let mut cells: HashMap<usize, Vec<u8>> = HashMap::new();
        // Non-existing columns are known-zero locally.
        for c in existing..m {
            cells.insert(c, vec![0u8; self.shared.cfg.cell_len()]);
        }
        let mut requested: Vec<(usize, NodeId)> = Vec::new();
        let reg = self.shared.registry.borrow();
        let mut remaining = m.saturating_sub(cells.len());
        for c in 0..existing {
            if remaining == 0 {
                break;
            }
            if !self.failed.contains(&(group, c)) {
                let node = reg.data_node(group * m as u64 + c as u64);
                env.send(node, Msg::ReadCell { rank, token });
                requested.push((c, node));
                remaining -= 1;
            }
        }
        for (q, node) in reg.parity_nodes(group).iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if !self.failed.contains(&(group, m + q)) {
                env.send(*node, Msg::ReadCell { rank, token });
                requested.push((m + q, *node));
                remaining -= 1;
            }
        }
        drop(reg);
        debug_assert_eq!(remaining, 0, "tolerance guarantees m live shards");
        let need = cells.len() + requested.len();
        debug_assert_eq!(need, m);
        ctx.stage = DegradedStage::AwaitCells {
            target_col,
            rank,
            requested,
            cells,
            need,
        };
        self.degraded.insert(token, ctx);
    }

    fn handle_cell_data(
        &mut self,
        env: &mut Env<'_, Msg>,
        token: u64,
        shard: usize,
        cell: Vec<u8>,
    ) {
        let done = {
            let Some(ctx) = self.degraded.get_mut(&token) else {
                return;
            };
            let DegradedStage::AwaitCells { cells, need, .. } = &mut ctx.stage else {
                return;
            };
            cells.insert(shard, cell);
            cells.len() >= *need
        };
        if !done {
            return;
        }
        let Some(ctx) = self.degraded.remove(&token) else {
            return;
        };
        env.cancel_timer(ctx.timer);
        self.timer_tokens.remove(&ctx.timer);
        let group = ctx.group;
        let DegradedStage::AwaitCells {
            target_col, cells, ..
        } = ctx.stage
        else {
            // The stage was AwaitCells when `done` was computed above.
            self.invariant_violated(env, "degraded read left the cell stage mid-collection");
            return;
        };
        // group_k and the field/m pair were validated when the group was
        // created; a mismatch here degrades the one lookup, not the actor.
        let k_g = self
            .group_k
            .get(crate::convert::to_index(group))
            .copied()
            .unwrap_or(0);
        let result = match AnyCode::new(self.shared.cfg.field, self.m(), k_g) {
            Ok(code) => {
                let avail: Vec<(usize, &[u8])> =
                    cells.iter().map(|(s, c)| (*s, c.as_slice())).collect();
                match code.reconstruct_one(target_col, &avail) {
                    Ok(cell) => match decode_cell(&cell) {
                        Some(payload) => OpResult::Value(Some(payload)),
                        None => OpResult::Failed("corrupt cell after decode".into()),
                    },
                    Err(e) => OpResult::Failed(format!("decode failed: {e}")),
                }
            }
            Err(e) => OpResult::Failed(format!("code construction failed: {e}")),
        };
        env.send(
            ctx.client,
            Msg::Reply {
                op_id: ctx.op_id,
                result,
                iam: None,
            },
        );
        self.drain_queues(env);
    }

    // ----- shard collection, decode, install -----

    fn handle_shard_data(
        &mut self,
        env: &mut Env<'_, Msg>,
        token: u64,
        shard: usize,
        content: ShardContent,
    ) {
        let Some(ctx) = self.recoveries.get_mut(&token) else {
            return;
        };
        if ctx.awaiting.remove(&shard) {
            ctx.collected.insert(shard, content);
        }
        if ctx.awaiting.is_empty() {
            if let Some(mut ctx) = self.recoveries.remove(&token) {
                // The rebuild XORs shards cell-by-cell, so every collected
                // shard must sit on the same Δ-prefix. Survivors freeze on
                // `TransferShard`, but a write racing the first round (or a
                // Δ still in flight to a parity bucket) can tear the cut —
                // detect it and re-collect rather than rebuild garbage.
                if torn_cut(self.m(), &ctx.collected).is_some() {
                    env.obs().incr("recovery_torn_cuts");
                    ctx.awaiting = ctx.collected.keys().copied().collect();
                    ctx.collected.clear();
                    self.resend_collection(env, token, &ctx);
                    self.recoveries.insert(token, ctx);
                    return;
                }
                self.finish_collection(env, token, ctx);
            }
        }
    }

    /// Re-send `TransferShard` to every shard a collection still awaits
    /// (the torn-cut retry path; the periodic retransmit timer keeps its
    /// own schedule and give-up budget).
    fn resend_collection(&self, env: &mut Env<'_, Msg>, token: u64, ctx: &RecoveryCtx) {
        let m = self.m();
        let reg = self.shared.registry.borrow();
        let mut targets = Vec::new();
        for &shard in &ctx.awaiting {
            let node = if shard < m {
                reg.data_node(ctx.group * m as u64 + shard as u64)
            } else {
                match reg.parity_nodes(ctx.group).get(shard - m) {
                    Some(n) => *n,
                    None => continue,
                }
            };
            targets.push(node);
        }
        drop(reg);
        for node in targets {
            env.send(node, Msg::TransferShard { token });
        }
    }

    /// The shard collection for `group` is over, however it ended: tell
    /// the surviving data columns to serve writes again. Columns being
    /// rebuilt are skipped (their nodes are gone); a bucket that never
    /// froze treats the message as a no-op, and a lost message is covered
    /// by the bucket's own freeze safety timer.
    fn resume_group_writes(&self, env: &mut Env<'_, Msg>, group: u64, rebuild: &[usize]) {
        let m = self.m();
        let reg = self.shared.registry.borrow();
        let mut targets = Vec::new();
        for col in 0..m {
            if rebuild.contains(&col) {
                continue;
            }
            if let Some(node) = reg.try_data_node(group * m as u64 + col as u64) {
                targets.push(node);
            }
        }
        drop(reg);
        for node in targets {
            env.send(node, Msg::ResumeWrites { group });
        }
    }

    fn finish_collection(&mut self, env: &mut Env<'_, Msg>, token: u64, mut ctx: RecoveryCtx) {
        // A consistent cut is in hand: the survivors may serve writes again
        // whatever happens below (the rebuild works on the snapshot, and
        // the dead bucket's ops stay parked here until the install).
        self.resume_group_writes(env, ctx.group, &ctx.rebuild);
        let m = self.m();
        let cell_len = self.shared.cfg.cell_len();
        let existing = self.existing_cols(ctx.group);
        // The (field, m, k) triple was validated at file creation and every
        // upgrade; if decode still fails the collected shards are
        // inconsistent. Either way: record it, abandon the rebuild (the
        // shards stay marked failed, so the next suspect re-audits), and
        // fail the parked writes back to their clients.
        let rebuilt = AnyCode::new(self.shared.cfg.field, m, ctx.k)
            .map_err(|e| e.to_string())
            .and_then(|code| {
                rebuild_shards(
                    m,
                    ctx.k,
                    cell_len,
                    existing,
                    &ctx.collected,
                    &ctx.rebuild,
                    &code,
                )
            });
        let rebuilt = match rebuilt {
            Ok(r) => r,
            Err(why) => {
                env.cancel_timer(ctx.timer);
                self.timer_tokens.remove(&ctx.timer);
                self.invariant_violated(env, &format!("group rebuild failed: {why}"));
                for (op_id, client, _) in self.queued_ops.remove(&ctx.group).unwrap_or_default() {
                    env.send(
                        client,
                        Msg::Reply {
                            op_id,
                            result: OpResult::Failed("group rebuild failed".into()),
                            iam: None,
                        },
                    );
                }
                self.drain_queues(env);
                return;
            }
        };

        // Out of spare nodes: abandon this rebuild instead of panicking
        // the coordinator. The shards stay marked failed, so the next
        // suspect re-audits the group and retries once nodes free up (a
        // merge, say); queued lookups were already served degraded, and
        // parked writes fail back to their clients.
        if self.pool.len() < rebuilt.len() {
            env.cancel_timer(ctx.timer);
            self.timer_tokens.remove(&ctx.timer);
            env.obs().incr("recoveries_stalled");
            self.events.push((
                env.now(),
                CoordEvent::RecoveryStalled {
                    group: ctx.group,
                    needed: rebuilt.len(),
                },
            ));
            for (op_id, client, _) in self.queued_ops.remove(&ctx.group).unwrap_or_default() {
                env.send(
                    client,
                    Msg::Reply {
                        op_id,
                        result: OpResult::Failed("no spare nodes to rebuild onto".into()),
                        iam: None,
                    },
                );
            }
            return;
        }

        // Install each rebuilt shard on a spare node.
        for (shard, content) in rebuilt {
            let Some(spare) = self.alloc_node() else {
                // Reserved above (`pool.len() >= rebuilt.len()`); the
                // retransmit timer retries whatever this round missed.
                self.invariant_violated(env, "node pool ran dry mid-install despite reservation");
                break;
            };
            let install_token = self.token();
            let (bucket, index) = if shard < m {
                (Some(ctx.group * m as u64 + shard as u64), None)
            } else {
                (None, Some(shard - m))
            };
            // Data buckets need their level restored; the coordinator
            // computes it from the file state. Only a data shard (shard < m,
            // i.e. `bucket` is Some) carries a level to restore.
            let content = match (content, bucket) {
                (
                    ShardContent::Data {
                        next_rank,
                        delta_seq,
                        records,
                        ..
                    },
                    Some(b),
                ) => ShardContent::Data {
                    level: self.state.level_of(b),
                    next_rank,
                    delta_seq,
                    records,
                },
                (p, _) => p,
            };
            let msg = Msg::Install {
                group: ctx.group,
                bucket,
                index,
                k: ctx.k,
                content,
                token: install_token,
            };
            env.send(spare, msg.clone());
            ctx.installs.insert(install_token, shard);
            ctx.install_msgs.insert(install_token, (spare, msg));
            ctx.spares.insert(shard, spare);
        }
        self.recoveries.insert(token, ctx);
    }

    fn handle_install_ack(&mut self, env: &mut Env<'_, Msg>, install_token: u64) {
        let Some(recovery_token) = self
            .recoveries
            .iter()
            .find(|(_, c)| c.installs.contains_key(&install_token))
            .map(|(t, _)| *t)
        else {
            return;
        };
        let (done, displaced) = {
            let Some(ctx) = self.recoveries.get_mut(&recovery_token) else {
                return;
            };
            let Some(shard) = ctx.installs.remove(&install_token) else {
                return;
            };
            let bytes = ctx
                .install_msgs
                .get(&install_token)
                .map_or(0, |(_, m)| m.size_bytes() as u64);
            ctx.install_msgs.remove(&install_token);
            let Some(&spare) = ctx.spares.get(&shard) else {
                return;
            };
            if matches!(ctx.purpose, Purpose::Repair) {
                env.obs().incr("recovery_shards_rebuilt");
                env.obs().add("recovery_bytes_moved", bytes);
                env.trace(ObsEvent::RecoveryShard {
                    group: ctx.group,
                    shard: shard as u64,
                    bytes,
                });
            }
            let m = self.shared.cfg.group_size;
            let mut reg = self.shared.registry.borrow_mut();
            let mut displaced = None;
            if shard < m {
                let bucket = ctx.group * m as u64 + shard as u64;
                displaced = Some(reg.data_node(bucket));
                reg.move_data(bucket, spare);
            } else if shard - m < reg.group_k(ctx.group) {
                displaced = reg.parity_nodes(ctx.group).get(shard - m).copied();
                reg.move_parity(ctx.group, shard - m, spare);
            } else {
                // Upgrade: append the new parity column.
                let mut nodes = reg.parity_nodes(ctx.group).to_vec();
                debug_assert_eq!(nodes.len(), shard - m);
                nodes.push(spare);
                reg.set_parity(ctx.group, nodes);
            }
            (ctx.installs.is_empty(), displaced)
        };
        // Fence the replaced node: if it was only partitioned (not dead) it
        // must not keep serving the shard. The Retire is best-effort — the
        // parity sender check (deltas accepted only from the registered
        // bucket node) backs it up while the Retire is in flight.
        if let Some(old) = displaced {
            env.send(old, Msg::Retire);
        }
        if done {
            let Some(ctx) = self.recoveries.remove(&recovery_token) else {
                return;
            };
            env.cancel_timer(ctx.timer);
            self.timer_tokens.remove(&ctx.timer);
            match ctx.purpose {
                Purpose::Repair => {
                    for &s in &ctx.rebuild {
                        self.failed.remove(&(ctx.group, s));
                    }
                    env.obs().incr("recoveries_completed");
                    env.trace(ObsEvent::RecoveryEnd {
                        group: ctx.group,
                        rebuilt: ctx.rebuild.len() as u64,
                        ok: true,
                    });
                    self.events.push((
                        env.now(),
                        CoordEvent::GroupRecovered {
                            group: ctx.group,
                            shards: ctx.rebuild.clone(),
                        },
                    ));
                    self.replay_queued(env, ctx.group);
                }
                Purpose::Upgrade => {
                    env.obs().incr("group_upgrades");
                    if let Some(slot) = self.group_k.get_mut(crate::convert::to_index(ctx.group)) {
                        *slot = ctx.k;
                    }
                    self.events.push((
                        env.now(),
                        CoordEvent::GroupUpgraded {
                            group: ctx.group,
                            k: ctx.k,
                        },
                    ));
                }
            }
            self.drain_queues(env);
        }
    }
}

/// Copy `cell` into the `pos`-th `cell_len` slot of `buf`, clamping to the
/// shorter of the two. A wrong-length cell (the content arrives off the
/// wire) corrupts at most its own record instead of panicking the decode.
fn copy_cell(buf: &mut [u8], pos: usize, cell_len: usize, cell: &[u8]) {
    if let Some(dst) = buf.get_mut(pos * cell_len..(pos + 1) * cell_len) {
        let n = dst.len().min(cell.len());
        if let (Some(d), Some(s)) = (dst.get_mut(..n), cell.get(..n)) {
            d.copy_from_slice(s);
        }
    }
}

/// Rebuild the listed shards of one group from the collected survivors.
///
/// Pure function (no messaging) so the decode logic is unit-testable. Uses
/// the concatenated-buffer trick: all ranks of a shard are laid out
/// rank-major in one buffer, so one `reconstruct` call decodes every record
/// group at once.
///
/// # Errors
/// Check a completed shard collection for a torn cut. The rebuild treats
/// the collected shards as one code word per rank, which is only sound if
/// every parity shard has applied exactly the Δ-prefix each collected data
/// shard had emitted when it was snapshotted (`col_seqs[c] == delta_seq`),
/// and all parity shards agree with each other on every column (the only
/// cross-check available for columns whose data shard is being rebuilt).
/// Returns a description of the first mismatch, `None` when consistent.
fn torn_cut(m: usize, collected: &HashMap<usize, ShardContent>) -> Option<String> {
    let parities: Vec<(usize, &Vec<u64>)> = collected
        .iter()
        .filter_map(|(&s, c)| match c {
            ShardContent::Parity { col_seqs, .. } if s >= m => Some((s, col_seqs)),
            _ => None,
        })
        .collect();
    for (&shard, content) in collected {
        let ShardContent::Data { delta_seq, .. } = content else {
            continue;
        };
        for &(pshard, col_seqs) in &parities {
            let applied = col_seqs.get(shard).copied().unwrap_or(0);
            if applied != *delta_seq {
                return Some(format!(
                    "column {shard} emitted Δ-seq {delta_seq} but parity shard {pshard} applied {applied}"
                ));
            }
        }
    }
    if let Some((&(first_shard, first), rest)) = parities.split_first() {
        for &(pshard, col_seqs) in rest {
            if col_seqs != first {
                return Some(format!(
                    "parity shards {first_shard} and {pshard} disagree on applied Δ-seqs: {first:?} vs {col_seqs:?}"
                ));
            }
        }
    }
    None
}

/// A human-readable description when the survivors cannot produce the
/// requested shards (too many erasures, inconsistent content). The caller
/// surfaces it as a degraded-mode event and abandons the rebuild.
fn rebuild_shards(
    m: usize,
    k: usize,
    cell_len: usize,
    existing_cols: usize,
    collected: &HashMap<usize, ShardContent>,
    rebuild: &[usize],
    code: &AnyCode,
) -> Result<Vec<(usize, ShardContent)>, String> {
    // Universe of ranks, plus the per-column delta-sequence watermarks.
    // Collection happens at quiescence (every survivor has applied the same
    // Δ stream), so the data bucket's own counter and any parity channel
    // counter for that column agree; `max` also covers partial collections.
    let mut ranks: BTreeSet<Rank> = BTreeSet::new();
    let mut watermark: Vec<u64> = vec![0; m];
    for (&idx, content) in collected {
        match content {
            ShardContent::Data {
                records, delta_seq, ..
            } => {
                ranks.extend(records.iter().map(|(r, _, _)| *r));
                if let Some(w) = watermark.get_mut(idx) {
                    *w = (*w).max(*delta_seq);
                }
            }
            ShardContent::Parity { records, col_seqs } => {
                ranks.extend(records.iter().map(|(r, _, _)| *r));
                for (w, s) in watermark.iter_mut().zip(col_seqs) {
                    *w = (*w).max(*s);
                }
            }
        }
    }
    let rank_pos: BTreeMap<Rank, usize> = ranks.iter().enumerate().map(|(i, r)| (*r, i)).collect();
    let n_ranks = ranks.len();
    let buf_len = n_ranks * cell_len;

    let mut shards: Vec<Option<Vec<u8>>> = vec![None; m + k];
    // Known-zero: data columns beyond the file's current size.
    for slot in shards.iter_mut().take(m).skip(existing_cols) {
        *slot = Some(vec![0u8; buf_len]);
    }
    for (&idx, content) in collected {
        let mut buf = vec![0u8; buf_len];
        match content {
            ShardContent::Data { records, .. } => {
                for (rank, _, payload) in records {
                    let Some(&pos) = rank_pos.get(rank) else {
                        continue;
                    };
                    let cell = crate::record::encode_cell(payload, cell_len);
                    copy_cell(&mut buf, pos, cell_len, &cell);
                }
            }
            ShardContent::Parity { records, .. } => {
                for (rank, _, cell) in records {
                    let Some(&pos) = rank_pos.get(rank) else {
                        continue;
                    };
                    copy_cell(&mut buf, pos, cell_len, cell);
                }
            }
        }
        // An index beyond m + k (inconsistent collection) is dropped here
        // and caught below as a reconstruction shortfall.
        if let Some(slot) = shards.get_mut(idx) {
            *slot = Some(buf);
        }
    }
    code.reconstruct(&mut shards)
        .map_err(|e| format!("reconstruct failed: {e}"))?;

    // Keys per (rank, col): from collected data shards and any collected
    // parity shard's key lists.
    let mut keys: BTreeMap<Rank, Vec<Option<Key>>> =
        ranks.iter().map(|r| (*r, vec![None; m])).collect();
    for (&idx, content) in collected {
        match content {
            ShardContent::Data { records, .. } => {
                for (rank, key, _) in records {
                    if let Some(slot) = keys.get_mut(rank).and_then(|v| v.get_mut(idx)) {
                        *slot = Some(*key);
                    }
                }
            }
            ShardContent::Parity { records, .. } => {
                for (rank, ks, _) in records {
                    let Some(slot) = keys.get_mut(rank) else {
                        continue;
                    };
                    for (dst, src) in slot.iter_mut().zip(ks) {
                        if src.is_some() {
                            *dst = *src;
                        }
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for &shard in rebuild {
        let Some(buf) = shards.get(shard).and_then(|s| s.as_ref()) else {
            return Err(format!("shard {shard} missing after reconstruction"));
        };
        if shard < m {
            // A data bucket: records are the ranks where this column holds
            // a key.
            let mut records = Vec::new();
            let mut max_rank: Option<Rank> = None;
            for (rank, pos) in &rank_pos {
                let key = keys.get(rank).and_then(|v| v.get(shard)).copied().flatten();
                if let Some(key) = key {
                    let Some(cell) = buf.get(pos * cell_len..(pos + 1) * cell_len) else {
                        return Err(format!("rank {rank} out of the decoded buffer"));
                    };
                    let Some(payload) = decode_cell(cell) else {
                        return Err(format!("rank {rank} decoded to a malformed cell"));
                    };
                    records.push((*rank, key, payload));
                    max_rank = Some(max_rank.map_or(*rank, |m0: Rank| m0.max(*rank)));
                }
            }
            out.push((
                shard,
                ShardContent::Data {
                    level: 0, // restored by the coordinator from file state
                    next_rank: max_rank.map_or(0, |r| r + 1),
                    delta_seq: watermark.get(shard).copied().unwrap_or(0),
                    records,
                },
            ));
        } else {
            // A parity bucket: one parity record per rank with any member.
            let mut records = Vec::new();
            for (rank, pos) in &rank_pos {
                let ks = keys.get(rank).cloned().unwrap_or_else(|| vec![None; m]);
                if ks.iter().any(Option::is_some) {
                    let Some(cell) = buf.get(pos * cell_len..(pos + 1) * cell_len) else {
                        return Err(format!("rank {rank} out of the decoded buffer"));
                    };
                    records.push((*rank, ks, cell.to_vec()));
                }
            }
            out.push((
                shard,
                ShardContent::Parity {
                    records,
                    col_seqs: watermark.clone(),
                },
            ));
        }
    }
    Ok(out)
}

/// Recompute `(n, i)` from the `(bucket, level)` pairs of a full scan —
/// algorithm A6: the split pointer sits exactly where the level drops by
/// one; if no drop exists the pointer is 0 and the level is uniform.
fn recompute_state(replies: &[(u64, u8)]) -> (u64, u8) {
    let mut by_bucket: Vec<(u64, u8)> = replies.to_vec();
    by_bucket.sort_unstable();
    debug_assert!(!by_bucket.is_empty());
    for w in by_bucket.windows(2) {
        if let [(_, j_prev), (b, j)] = w {
            if *j_prev == *j + 1 {
                return (*b, *j);
            }
        }
    }
    // Uniform level: n = 0.
    let i = by_bucket.first().map_or(0, |&(_, j)| j);
    debug_assert_eq!(by_bucket.len() as u64, 1u64 << i, "E1 cross-check");
    (0, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::GfField;
    use crate::record::encode_cell;

    #[test]
    fn recompute_state_finds_split_pointer() {
        // M = 6: levels 3,3,2,2,3,3 → n = 2, i = 2.
        let replies = vec![(0, 3), (1, 3), (2, 2), (3, 2), (4, 3), (5, 3)];
        assert_eq!(recompute_state(&replies), (2, 2));
        // Order must not matter.
        let mut shuffled = replies.clone();
        shuffled.reverse();
        assert_eq!(recompute_state(&shuffled), (2, 2));
    }

    #[test]
    fn recompute_state_uniform_levels() {
        let replies = vec![(0, 2), (1, 2), (2, 2), (3, 2)];
        assert_eq!(recompute_state(&replies), (0, 2));
        assert_eq!(recompute_state(&[(0, 0)]), (0, 0));
    }

    #[test]
    fn rebuild_shards_data_and_parity() {
        let m = 4;
        let k = 2;
        let cell_len = 12;
        let code = AnyCode::new(GfField::Gf8, m, k).unwrap();

        // Build a consistent group: 3 existing columns with some records.
        let data: Vec<Vec<(Rank, Key, Vec<u8>)>> = vec![
            vec![(0, 10, b"aa".to_vec()), (1, 11, b"bb".to_vec())],
            vec![(0, 20, b"cc".to_vec())],
            vec![(1, 31, b"dd".to_vec()), (2, 32, b"ee".to_vec())],
        ];
        // Parity from scratch.
        let ranks = [0u64, 1, 2];
        type ParityRecords = Vec<(Rank, Vec<Option<Key>>, Vec<u8>)>;
        let mut parity: Vec<ParityRecords> = vec![Vec::new(); k];
        for &rank in &ranks {
            let mut keys = vec![None; m];
            let mut cells: Vec<Vec<u8>> = vec![vec![0u8; cell_len]; m];
            for (c, recs) in data.iter().enumerate() {
                for (r, key, payload) in recs {
                    if *r == rank {
                        keys[c] = Some(*key);
                        cells[c] = encode_cell(payload, cell_len);
                    }
                }
            }
            let refs: Vec<&[u8]> = cells.iter().map(|c| c.as_slice()).collect();
            let pcells = code.encode(&refs).unwrap();
            for (q, list) in parity.iter_mut().enumerate() {
                list.push((rank, keys.clone(), pcells[q].clone()));
            }
        }

        // Lose data column 1 and parity 1; collect cols 0, 2 and parity 0.
        let mut collected = HashMap::new();
        collected.insert(
            0,
            ShardContent::Data {
                level: 5,
                next_rank: 2,
                delta_seq: 7,
                records: data[0].clone(),
            },
        );
        collected.insert(
            2,
            ShardContent::Data {
                level: 5,
                next_rank: 3,
                delta_seq: 9,
                records: data[2].clone(),
            },
        );
        collected.insert(
            m,
            ShardContent::Parity {
                records: parity[0].clone(),
                col_seqs: vec![7, 4, 9, 0],
            },
        );
        let rebuilt = rebuild_shards(m, k, cell_len, 3, &collected, &[1, m + 1], &code).unwrap();
        let by_shard: HashMap<usize, &ShardContent> =
            rebuilt.iter().map(|(s, c)| (*s, c)).collect();

        match by_shard[&1] {
            ShardContent::Data {
                next_rank,
                delta_seq,
                records,
                ..
            } => {
                assert_eq!(*next_rank, 1);
                // The lost column's Δ-sequence resumes from the surviving
                // parity channel's watermark.
                assert_eq!(*delta_seq, 4);
                assert_eq!(records, &vec![(0, 20, b"cc".to_vec())]);
            }
            _ => panic!("expected data shard"),
        }
        match by_shard[&(m + 1)] {
            ShardContent::Parity { records, col_seqs } => {
                assert_eq!(records.len(), parity[1].len());
                for (got, want) in records.iter().zip(&parity[1]) {
                    assert_eq!(got, want);
                }
                assert_eq!(col_seqs, &vec![7, 4, 9, 0]);
            }
            _ => panic!("expected parity shard"),
        }
    }

    #[test]
    fn rebuild_with_nonexistent_columns_as_zero() {
        // Group of m = 4 but only 1 existing column; k = 1. Lose the one
        // data column; rebuild from parity alone plus known-zero columns.
        let m = 4;
        let k = 1;
        let cell_len = 10;
        let code = AnyCode::new(GfField::Gf8, m, k).unwrap();
        let rec: (Rank, Key, Vec<u8>) = (0, 77, b"xyz".to_vec());
        let cell = encode_cell(&rec.2, cell_len);
        // Parity 0 is the XOR of the single member.
        let mut keys = vec![None; m];
        keys[0] = Some(77);
        let mut collected = HashMap::new();
        collected.insert(
            m,
            ShardContent::Parity {
                records: vec![(0, keys, cell)],
                col_seqs: vec![1, 0, 0, 0],
            },
        );
        let rebuilt = rebuild_shards(m, k, cell_len, 1, &collected, &[0], &code).unwrap();
        match &rebuilt[0].1 {
            ShardContent::Data {
                records, next_rank, ..
            } => {
                assert_eq!(records, &vec![rec]);
                assert_eq!(*next_rank, 1);
            }
            _ => panic!("expected data shard"),
        }
    }

    #[test]
    fn rebuild_empty_group_yields_empty_shards() {
        let m = 2;
        let k = 1;
        let code = AnyCode::new(GfField::Gf8, m, k).unwrap();
        let mut collected = HashMap::new();
        collected.insert(
            1,
            ShardContent::Data {
                level: 1,
                next_rank: 0,
                delta_seq: 0,
                records: Vec::new(),
            },
        );
        collected.insert(
            m,
            ShardContent::Parity {
                records: Vec::new(),
                col_seqs: vec![0, 0],
            },
        );
        let rebuilt = rebuild_shards(m, k, 8, 2, &collected, &[0], &code).unwrap();
        match &rebuilt[0].1 {
            ShardContent::Data { records, .. } => assert!(records.is_empty()),
            _ => panic!("expected data shard"),
        }
    }
}
