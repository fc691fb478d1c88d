//! File-level configuration.

use lhrs_sim::LatencyModel;

use crate::code::GfField;

/// How existing bucket groups acquire additional parity buckets when the
/// scalable-availability rule raises the file's availability level `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeMode {
    /// Upgrade every existing group immediately when `k` increases.
    /// Predictable availability, bursty messaging.
    Eager,
    /// Upgrade a group the next time a split touches it (source or target
    /// in the group). Spreads the cost over normal growth; groups lag until
    /// touched.
    Lazy,
}

/// How scan completion is detected (§2.1 of the LH\* design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanTermination {
    /// Every reached bucket replies (with its number and level even when it
    /// has no hits); the client verifies it heard from *all* buckets of the
    /// file. Exact, costs ~2 messages per bucket.
    Deterministic,
    /// Only buckets with matching records reply; the client finishes after
    /// `silence_us` µs without a new reply. Costs M + hits messages but can
    /// in principle terminate early (hence "probabilistic").
    Probabilistic {
        /// Silence window that ends the scan.
        silence_us: u64,
    },
}

/// When the durable bucket store issues `fsync` on its write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended record. Safest, slowest.
    Always,
    /// Sync once per message batch (the default): an OS crash can lose the
    /// tail of the current batch, a process crash loses nothing.
    #[default]
    Batch,
    /// Never sync explicitly; leave flushing to the OS. Fastest, loses the
    /// page-cache tail on power failure — fine for experiments.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        })
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always|batch|never)"
            )),
        }
    }
}

/// Configuration of an LH\*RS file.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bucket-group size `m`: data buckets per group (the paper uses 4–128).
    pub group_size: usize,
    /// Initial availability level `k`: parity buckets per group (`k ≥ 1`).
    pub initial_k: usize,
    /// Data-bucket capacity `b`: records per bucket above which the bucket
    /// reports an overflow to the coordinator.
    pub bucket_capacity: usize,
    /// Maximum record payload length in bytes. Payloads are stored in
    /// fixed-size coding cells of `record_len + 4` bytes (4-byte length
    /// prefix), which is what the parity arithmetic runs over.
    pub record_len: usize,
    /// Scalable-availability thresholds: when the data-bucket count `M`
    /// first exceeds `thresholds[t]`, the file availability level becomes
    /// `initial_k + t + 1`. Empty = fixed `k` forever.
    pub scale_thresholds: Vec<u64>,
    /// How lagging groups catch up after a `k` increase.
    pub upgrade_mode: UpgradeMode,
    /// Whether parity buckets acknowledge Δ-commits (2-messages-per-parity
    /// reliable mode). The paper's base cost model is unacknowledged
    /// (1 + k messages per insert), the default here.
    pub ack_parity: bool,
    /// Whether data buckets acknowledge inserts/updates/deletes to the
    /// client. Required for client-side failure detection of blind writes;
    /// adds one message per operation. Lookups always get replies.
    pub ack_writes: bool,
    /// Galois field for the parity arithmetic: GF(2^8) (default, compact
    /// tables, `m + k ≤ 256`) or GF(2^16) (huge groups, two-byte symbols —
    /// `record_len` must be even so coding cells symbol-align).
    pub field: GfField,
    /// Scan termination protocol.
    pub scan_termination: ScanTermination,
    /// Client request timeout (µs) before reporting a suspected bucket
    /// failure to the coordinator.
    pub client_timeout_us: u64,
    /// Retransmissions a client attempts per operation (with exponential
    /// backoff, doubling from `client_timeout_us`) before escalating to the
    /// coordinator. Rides out message loss without involving the
    /// coordinator; 0 restores the escalate-immediately behaviour.
    pub client_retries: u32,
    /// Ceiling (µs) on the client's per-retry backoff delay.
    pub retry_backoff_cap_us: u64,
    /// Interval (µs) at which a data bucket retransmits unacknowledged
    /// Δ-commits to parity buckets. Only used when `ack_parity` is on;
    /// nothing is retransmitted (or even tracked) in the paper's
    /// fire-and-forget base mode.
    pub delta_retransmit_us: u64,
    /// Consecutive no-progress retransmission rounds before a data bucket
    /// gives up on a parity bucket (recovery will rebuild it).
    pub delta_retry_limit: u32,
    /// Coordinator probe timeout (µs) before declaring a suspect dead.
    pub probe_timeout_us: u64,
    /// Interval (µs) at which the coordinator retransmits unanswered
    /// recovery traffic (shard transfers, installs) and structural orders
    /// (splits, merges).
    pub coord_retransmit_us: u64,
    /// Retransmission rounds the coordinator attempts (per probe, shard
    /// transfer, install, split, or merge) before giving up.
    pub coord_retries: u32,
    /// Data-bucket replay-cache capacity: how many recent client-op results
    /// each bucket remembers for duplicate suppression. FIFO-evicted beyond
    /// this bound; must be ≥ 1. Size it above `clients × in-flight ops` so
    /// a retried write still finds its first execution's result.
    pub replay_cache_cap: usize,
    /// Pipelined-client in-flight window: how many operations a batch
    /// driver (`KvClient::run_batch` over the multiplexed network client)
    /// keeps outstanding at once. 1 restores strict one-op-at-a-time
    /// behaviour; must be ≥ 1. Keep `replay_cache_cap` above
    /// `clients × client_window` so a retried write still finds its first
    /// execution's result.
    pub client_window: usize,
    /// Snapshot interval for durable buckets: after this many write-ahead
    /// log appends since the last snapshot, a bucket writes a fresh
    /// snapshot and truncates its log. 0 disables periodic snapshots
    /// (structural events — splits, merges, installs — still snapshot).
    /// Ignored when no [`crate::storage::BucketStore`] is attached.
    pub wal_snapshot_every: u64,
    /// Per-column Δ-commit history retained by each parity bucket, used to
    /// serve Δ-suffix catch-up to restarting data buckets. A restart whose
    /// gap exceeds this cap falls back to a full RS rebuild.
    pub delta_history_cap: usize,
    /// When the durable store fsyncs its write-ahead log.
    pub wal_fsync: FsyncPolicy,
    /// Network latency model for the simulated multicomputer.
    pub latency: LatencyModel,
    /// Total simulated server pool (data + parity + spares). The file
    /// cannot outgrow the pool; size it to the experiment.
    pub node_pool: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 32,
            record_len: 64,
            scale_thresholds: Vec::new(),
            upgrade_mode: UpgradeMode::Eager,
            ack_parity: false,
            ack_writes: false,
            field: GfField::default(),
            scan_termination: ScanTermination::Deterministic,
            client_timeout_us: 10_000,
            client_retries: 3,
            retry_backoff_cap_us: 160_000,
            delta_retransmit_us: 8_000,
            delta_retry_limit: 20,
            probe_timeout_us: 5_000,
            coord_retransmit_us: 8_000,
            coord_retries: 10,
            replay_cache_cap: 4096,
            client_window: 64,
            wal_snapshot_every: 1024,
            delta_history_cap: 4096,
            wal_fsync: FsyncPolicy::default(),
            latency: LatencyModel::default(),
            node_pool: 512,
        }
    }
}

impl Config {
    /// Start building a validated configuration.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::new()
    }

    /// Validate parameter sanity; called by [`crate::LhrsFile::new`].
    pub(crate) fn validate(&self) -> Result<(), crate::Error> {
        if self.group_size == 0
            || self.initial_k == 0
            || self.bucket_capacity == 0
            || self.record_len == 0
        {
            return Err(crate::Error::InvalidConfig(
                "group_size, initial_k, bucket_capacity, record_len must all be ≥ 1".into(),
            ));
        }
        let max_k = self.initial_k + self.scale_thresholds.len();
        if self.group_size + max_k > self.field.max_shards() {
            return Err(crate::Error::InvalidConfig(format!(
                "m + k_max = {} exceeds the {:?} limit of {}",
                self.group_size + max_k,
                self.field,
                self.field.max_shards()
            )));
        }
        if !self.cell_len().is_multiple_of(self.field.symbol_bytes()) {
            return Err(crate::Error::InvalidConfig(format!(
                "coding cell of {} bytes is not {:?}-symbol aligned: use an even record_len",
                self.cell_len(),
                self.field
            )));
        }
        if self.delta_retransmit_us == 0 || self.coord_retransmit_us == 0 {
            return Err(crate::Error::InvalidConfig(
                "delta_retransmit_us and coord_retransmit_us must be ≥ 1 µs".into(),
            ));
        }
        if self.replay_cache_cap == 0 {
            return Err(crate::Error::InvalidConfig(
                "replay_cache_cap must be ≥ 1".into(),
            ));
        }
        if self.client_window == 0 {
            return Err(crate::Error::InvalidConfig(
                "client_window must be ≥ 1".into(),
            ));
        }
        if self.delta_history_cap == 0 {
            return Err(crate::Error::InvalidConfig(
                "delta_history_cap must be ≥ 1".into(),
            ));
        }
        if self.retry_backoff_cap_us < self.client_timeout_us {
            return Err(crate::Error::InvalidConfig(
                "retry_backoff_cap_us must be at least client_timeout_us".into(),
            ));
        }
        if !self
            .scale_thresholds
            .windows(2)
            .all(|w| matches!(w, [a, b] if a < b))
        {
            return Err(crate::Error::InvalidConfig(
                "scale_thresholds must be strictly increasing".into(),
            ));
        }
        if self.node_pool < 2 + self.group_size + self.initial_k {
            return Err(crate::Error::InvalidConfig(
                "node_pool too small for even the initial file".into(),
            ));
        }
        Ok(())
    }

    /// The fixed coding-cell length: payload length prefix plus padded
    /// payload.
    pub(crate) fn cell_len(&self) -> usize {
        4 + self.record_len
    }
}

/// Upper bound on [`Config::record_len`] accepted by the builder: a whole
/// bucket's shard transfer of maximal records must still fit a network
/// frame with room to spare.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Why [`ConfigBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `group_size` below 2: a bucket group needs at least two data
    /// columns for the record-group coding to be meaningful.
    GroupSize(usize),
    /// `initial_k` is 0: the paper's scheme requires at least one parity
    /// bucket per group.
    InitialK,
    /// `record_len` outside `1..=`[`MAX_RECORD_LEN`].
    RecordLen(usize),
    /// `scale_thresholds` is not strictly increasing.
    Thresholds,
    /// Cross-field validation failed (field shard limit, symbol alignment,
    /// pool sizing, timer sanity, ...).
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::GroupSize(got) => {
                write!(f, "group_size must be ≥ 2 (got {got})")
            }
            ConfigError::InitialK => write!(f, "initial_k must be ≥ 1"),
            ConfigError::RecordLen(got) => {
                write!(f, "record_len must be in 1..={MAX_RECORD_LEN} (got {got})")
            }
            ConfigError::Thresholds => {
                write!(f, "scale_thresholds must be strictly increasing")
            }
            ConfigError::Invalid(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validating constructor for [`Config`].
///
/// Starts from [`Config::default`], applies the setters, and checks the
/// result once in [`ConfigBuilder::build`] — so an invalid combination is
/// an explicit [`ConfigError`] at construction time, never a panic (or a
/// silently ignored knob) later.
///
/// ```
/// use lhrs_core::{Config, ConfigError};
///
/// let cfg = Config::builder()
///     .group_size(4)
///     .initial_k(2)
///     .bucket_capacity(16)
///     .scale_thresholds([8, 64])
///     .build()
///     .unwrap();
/// assert_eq!(cfg.initial_k, 2);
///
/// assert!(matches!(
///     Config::builder().group_size(1).build(),
///     Err(ConfigError::GroupSize(1))
/// ));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConfigBuilder {
    cfg: Config,
}

impl ConfigBuilder {
    /// A builder seeded with [`Config::default`].
    pub fn new() -> ConfigBuilder {
        ConfigBuilder {
            cfg: Config::default(),
        }
    }

    /// Bucket-group size `m` (see [`Config::group_size`]).
    pub fn group_size(mut self, m: usize) -> Self {
        self.cfg.group_size = m;
        self
    }

    /// Initial availability level `k` (see [`Config::initial_k`]).
    pub fn initial_k(mut self, k: usize) -> Self {
        self.cfg.initial_k = k;
        self
    }

    /// Data-bucket capacity `b` (see [`Config::bucket_capacity`]).
    pub fn bucket_capacity(mut self, b: usize) -> Self {
        self.cfg.bucket_capacity = b;
        self
    }

    /// Maximum record payload length (see [`Config::record_len`]).
    pub fn record_len(mut self, len: usize) -> Self {
        self.cfg.record_len = len;
        self
    }

    /// Scalable-availability thresholds (see [`Config::scale_thresholds`]).
    pub fn scale_thresholds(mut self, t: impl Into<Vec<u64>>) -> Self {
        self.cfg.scale_thresholds = t.into();
        self
    }

    /// How lagging groups catch up after a `k` increase.
    pub fn upgrade_mode(mut self, mode: UpgradeMode) -> Self {
        self.cfg.upgrade_mode = mode;
        self
    }

    /// Whether parity buckets acknowledge Δ-commits.
    pub fn ack_parity(mut self, on: bool) -> Self {
        self.cfg.ack_parity = on;
        self
    }

    /// Whether data buckets acknowledge writes to the client.
    pub fn ack_writes(mut self, on: bool) -> Self {
        self.cfg.ack_writes = on;
        self
    }

    /// Galois field for the parity arithmetic.
    pub fn field(mut self, field: GfField) -> Self {
        self.cfg.field = field;
        self
    }

    /// Scan termination protocol.
    pub fn scan_termination(mut self, t: ScanTermination) -> Self {
        self.cfg.scan_termination = t;
        self
    }

    /// Client request timeout in µs.
    pub fn client_timeout_us(mut self, us: u64) -> Self {
        self.cfg.client_timeout_us = us;
        self
    }

    /// Client retransmissions per operation before escalating.
    pub fn client_retries(mut self, n: u32) -> Self {
        self.cfg.client_retries = n;
        self
    }

    /// Ceiling (µs) on the client's per-retry backoff delay.
    pub fn retry_backoff_cap_us(mut self, us: u64) -> Self {
        self.cfg.retry_backoff_cap_us = us;
        self
    }

    /// Δ-commit retransmission interval in µs (reliable parity mode).
    pub fn delta_retransmit_us(mut self, us: u64) -> Self {
        self.cfg.delta_retransmit_us = us;
        self
    }

    /// No-progress Δ retransmission rounds before giving up on a parity
    /// bucket.
    pub fn delta_retry_limit(mut self, n: u32) -> Self {
        self.cfg.delta_retry_limit = n;
        self
    }

    /// Coordinator probe timeout in µs.
    pub fn probe_timeout_us(mut self, us: u64) -> Self {
        self.cfg.probe_timeout_us = us;
        self
    }

    /// Coordinator retransmission interval in µs.
    pub fn coord_retransmit_us(mut self, us: u64) -> Self {
        self.cfg.coord_retransmit_us = us;
        self
    }

    /// Coordinator retransmission rounds before giving up.
    pub fn coord_retries(mut self, n: u32) -> Self {
        self.cfg.coord_retries = n;
        self
    }

    /// Data-bucket replay-cache capacity.
    pub fn replay_cache_cap(mut self, n: usize) -> Self {
        self.cfg.replay_cache_cap = n;
        self
    }

    /// Pipelined-client in-flight window (1 = one op at a time).
    pub fn client_window(mut self, n: usize) -> Self {
        self.cfg.client_window = n;
        self
    }

    /// Snapshot interval (appends) for durable buckets; 0 disables.
    pub fn wal_snapshot_every(mut self, n: u64) -> Self {
        self.cfg.wal_snapshot_every = n;
        self
    }

    /// Per-column Δ-commit history cap at parity buckets.
    pub fn delta_history_cap(mut self, n: usize) -> Self {
        self.cfg.delta_history_cap = n;
        self
    }

    /// Fsync policy for the durable store's write-ahead log.
    pub fn wal_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.cfg.wal_fsync = policy;
        self
    }

    /// Network latency model for the simulated multicomputer.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.cfg.latency = model;
        self
    }

    /// Total simulated server pool.
    pub fn node_pool(mut self, n: usize) -> Self {
        self.cfg.node_pool = n;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// A [`ConfigError`] naming the first violated constraint.
    pub fn build(self) -> Result<Config, ConfigError> {
        let cfg = self.cfg;
        if cfg.group_size < 2 {
            return Err(ConfigError::GroupSize(cfg.group_size));
        }
        if cfg.initial_k == 0 {
            return Err(ConfigError::InitialK);
        }
        if cfg.record_len == 0 || cfg.record_len > MAX_RECORD_LEN {
            return Err(ConfigError::RecordLen(cfg.record_len));
        }
        if !cfg
            .scale_thresholds
            .windows(2)
            .all(|w| matches!(w, [a, b] if a < b))
        {
            return Err(ConfigError::Thresholds);
        }
        match cfg.validate() {
            Ok(()) => Ok(cfg),
            Err(crate::Error::InvalidConfig(why)) => Err(ConfigError::Invalid(why)),
            Err(other) => Err(ConfigError::Invalid(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(Config::default().validate().is_ok());
    }

    #[test]
    fn zero_parameters_rejected() {
        for f in [
            |c: &mut Config| c.group_size = 0,
            |c: &mut Config| c.initial_k = 0,
            |c: &mut Config| c.bucket_capacity = 0,
            |c: &mut Config| c.record_len = 0,
        ] {
            let mut c = Config::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn field_shard_limits_enforced() {
        let c = Config {
            group_size: 250,
            initial_k: 10,
            ..Config::default()
        };
        assert!(c.validate().is_err(), "m + k > 256 invalid under GF(2^8)");
        let c = Config {
            group_size: 250,
            initial_k: 10,
            field: GfField::Gf16,
            node_pool: 4096,
            ..Config::default()
        };
        assert!(c.validate().is_ok(), "GF(2^16) lifts the limit");
        let c = Config {
            field: GfField::Gf16,
            record_len: 33, // odd ⇒ odd cell: misaligned for 2-byte symbols
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn thresholds_must_increase() {
        let c = Config {
            scale_thresholds: vec![16, 16],
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_defaults_build() {
        let cfg = Config::builder().build().unwrap();
        assert_eq!(cfg.group_size, Config::default().group_size);
    }

    #[test]
    fn builder_rejects_each_constraint() {
        assert_eq!(
            Config::builder().group_size(1).build().err(),
            Some(ConfigError::GroupSize(1))
        );
        assert_eq!(
            Config::builder().initial_k(0).build().err(),
            Some(ConfigError::InitialK)
        );
        assert_eq!(
            Config::builder().record_len(0).build().err(),
            Some(ConfigError::RecordLen(0))
        );
        assert_eq!(
            Config::builder()
                .record_len(MAX_RECORD_LEN + 1)
                .build()
                .err(),
            Some(ConfigError::RecordLen(MAX_RECORD_LEN + 1))
        );
        assert_eq!(
            Config::builder().scale_thresholds([8, 8]).build().err(),
            Some(ConfigError::Thresholds)
        );
        // Cross-field constraints still flow through `Config::validate`.
        assert!(matches!(
            Config::builder().group_size(250).initial_k(10).build(),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn builder_applies_every_setter() {
        let cfg = Config::builder()
            .group_size(8)
            .initial_k(2)
            .bucket_capacity(64)
            .record_len(128)
            .scale_thresholds([32])
            .upgrade_mode(UpgradeMode::Lazy)
            .ack_parity(true)
            .ack_writes(true)
            .field(GfField::Gf16)
            .scan_termination(ScanTermination::Probabilistic { silence_us: 500 })
            .client_timeout_us(20_000)
            .client_retries(5)
            .retry_backoff_cap_us(320_000)
            .delta_retransmit_us(9_000)
            .delta_retry_limit(7)
            .probe_timeout_us(6_000)
            .coord_retransmit_us(9_000)
            .coord_retries(4)
            .replay_cache_cap(128)
            .client_window(16)
            .wal_snapshot_every(256)
            .delta_history_cap(512)
            .wal_fsync(FsyncPolicy::Never)
            .latency(LatencyModel::default())
            .node_pool(1024)
            .build()
            .unwrap();
        assert_eq!(cfg.group_size, 8);
        assert_eq!(cfg.initial_k, 2);
        assert_eq!(cfg.bucket_capacity, 64);
        assert_eq!(cfg.record_len, 128);
        assert_eq!(cfg.scale_thresholds, vec![32]);
        assert_eq!(cfg.upgrade_mode, UpgradeMode::Lazy);
        assert!(cfg.ack_parity && cfg.ack_writes);
        assert_eq!(cfg.field, GfField::Gf16);
        assert_eq!(cfg.client_retries, 5);
        assert_eq!(cfg.client_window, 16);
        assert_eq!(cfg.wal_snapshot_every, 256);
        assert_eq!(cfg.delta_history_cap, 512);
        assert_eq!(cfg.wal_fsync, FsyncPolicy::Never);
        assert_eq!(cfg.node_pool, 1024);
    }

    #[test]
    fn fsync_policy_round_trips_through_strings() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(p.to_string().parse::<FsyncPolicy>(), Ok(p));
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn zero_delta_history_cap_rejected() {
        let c = Config {
            delta_history_cap: 0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_client_window_rejected() {
        let c = Config {
            client_window: 0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }
}
