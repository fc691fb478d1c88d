//! Binary wire codec for the LH\*RS protocol.
//!
//! Everything a [`Msg`] can carry is encoded into a self-contained byte
//! string so messages can cross real sockets (the `lhrs-net` crate) instead
//! of being moved in-memory by the simulator. The workspace is
//! registry-free, so the codec is hand-rolled and zero-dependency:
//!
//! * **Versioned**: every encoding starts with [`WIRE_VERSION`]; a decoder
//!   refuses other versions with [`WireError::Version`].
//! * **Tagged**: each enum variant carries a one-byte tag. One
//!   [`wire_protocol!`] row per [`Msg`] variant generates its tag constant
//!   (see [`tag`]), both codec arms and its `kind()` label; `const`
//!   assertions reject a repeated tag or a reused retired one. Unknown tags
//!   are rejected with [`WireError::UnknownTag`] naming the enum that was
//!   being decoded.
//! * **Varint integers**: `u64`/`usize` quantities use LEB128 (7 bits per
//!   byte, little-endian groups), so small keys, ranks, and lengths cost one
//!   byte. Node ids are fixed 4-byte little-endian (they include the
//!   `u32::MAX` driver sentinel).
//! * **Defensive decode**: length fields are checked against both a hard
//!   cap ([`MAX_LEN`], rejecting absurd claims before any allocation) and
//!   the bytes actually remaining (rejecting truncated frames), and a
//!   successful decode must consume the buffer exactly ([`WireError::Trailing`]).
//!   No input can make the decoder panic or over-allocate, and every
//!   `usize` field passes one checked conversion.
//!
//! Encode→decode is the identity on every well-formed message; the
//! `wire_roundtrip` integration test fuzzes this across all variants.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use lhrs_sim::NodeId;

use crate::coordinator::CoordEvent;
use crate::msg::{
    ClientOp, DeltaEntry, FilterSpec, Iam, KeyOp, Msg, OpResult, ReplayEntry, ReqKind, ShardContent,
};
use crate::record::Record;

/// Wire format version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on any single length field (bytes or element count). Frames are
/// far smaller in practice; the cap only exists so a corrupt length cannot
/// trigger a giant allocation before the truncation check.
pub const MAX_LEN: u64 = 1 << 30;

/// Typed decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the encoding did.
    Truncated,
    /// The leading version byte is not [`WIRE_VERSION`].
    Version {
        /// The version byte found.
        got: u8,
    },
    /// An enum tag byte had no assigned meaning.
    UnknownTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length field exceeded [`MAX_LEN`].
    Oversized {
        /// The field being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// The encoding decoded cleanly but left unconsumed bytes.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A varint ran past 10 bytes (would overflow `u64`).
    VarintOverflow,
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Version { got } => {
                write!(f, "wire version {got} (supported: {WIRE_VERSION})")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Oversized { what, len } => {
                write!(f, "oversized {what} length {len} (cap {MAX_LEN})")
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::VarintOverflow => write!(f, "varint overflows u64"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

// ----- the per-type codec -----

/// A value with a wire encoding. `what` names the field being decoded, for
/// error context.
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value.
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError>;

    /// Append a list: a varint count, then each element.
    fn put_list(list: &[Self], out: &mut Vec<u8>) {
        put_varint(out, list.len() as u64);
        for x in list {
            x.put(out);
        }
    }

    /// Decode a list written by [`Wire::put_list`].
    fn get_list(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Self>, WireError> {
        let n = r.len(what)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(Self::get(r, what)?);
        }
        Ok(list)
    }
}

/// A single byte; a list of bytes is a length-prefixed byte string.
impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
        r.u8()
    }
    fn put_list(list: &[u8], out: &mut Vec<u8>) {
        put_varint(out, list.len() as u64);
        out.extend_from_slice(list);
    }
    fn get_list(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = r.len(what)?;
        Ok(r.take(n)?.to_vec())
    }
}

/// A LEB128 varint.
impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
        r.varint()
    }
}

/// A varint, rejected on decode when it does not fit the platform's `usize`.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        let v = r.varint()?;
        usize::try_from(v).map_err(|_| WireError::Oversized { what, len: v })
    }
}

/// One byte, nonzero = `true`.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

/// Fixed 4-byte little-endian (`u32::MAX` is `lhrs_sim::EXTERNAL`).
impl Wire for NodeId {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
        r.node()
    }
}

/// A length-prefixed UTF-8 byte string.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        u8::put_list(self.as_bytes(), out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        String::from_utf8(u8::get_list(r, what)?).map_err(|_| WireError::BadUtf8)
    }
}

/// A presence byte (0 = `None`, 1 = `Some`), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r, what)?)),
            tag => Err(WireError::UnknownTag { what, tag }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put_list(self, out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        T::get_list(r, what)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        Ok((A::get(r, what)?, B::get(r, what)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, WireError> {
        Ok((A::get(r, what)?, B::get(r, what)?, C::get(r, what)?))
    }
}

/// `Wire` for a struct: its fields in the listed order.
macro_rules! wire_struct {
    ($T:ident { $($f:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $T {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$f, out);)*
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
                _: &'static str,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($T {
                    $($f: $crate::wire::Wire::get(
                        r,
                        concat!(stringify!($T), ".", stringify!($f)),
                    )?),*
                })
            }
        }
    };
}

/// `Wire` for an enum, one row per variant: `tag => Variant` with its
/// fields (named or positional) in wire order. The tag byte comes first;
/// decoding an unassigned tag is [`WireError::UnknownTag`]. Field values
/// are evaluated in the row's order, so the row *is* the layout.
macro_rules! wire_enum {
    ($T:ident { $($tag:literal => $V:ident $(($($p:ident),*))? $({$($f:ident),*})?),* $(,)? }) => {
        impl $crate::wire::Wire for $T {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($T::$V $(($($p),*))? $({$($f),*})? => {
                        out.push($tag);
                        $($($crate::wire::Wire::put($p, out);)*)?
                        $($($crate::wire::Wire::put($f, out);)*)?
                    })*
                }
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
                _: &'static str,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $($tag => $T::$V
                        $(($($crate::wire::Wire::get(
                            r,
                            concat!(stringify!($V), ".", stringify!($p)),
                        )?),*))?
                        $({$($f: $crate::wire::Wire::get(
                            r,
                            concat!(stringify!($V), ".", stringify!($f)),
                        )?),*})?,)*
                    tag => {
                        return Err($crate::wire::WireError::UnknownTag {
                            what: stringify!($T),
                            tag,
                        })
                    }
                })
            }
        }
        const _: () = assert!(
            $crate::wire::tags_are_fresh(&[$($tag),*], &[]),
            concat!("duplicate ", stringify!($T), " wire tag"),
        );
    };
}
pub(crate) use wire_enum;

/// Compile-time tag-table check: no tag repeats and none is in `retired`.
pub(crate) const fn tags_are_fresh(tags: &[u8], retired: &[u8]) -> bool {
    const fn contains(set: &[u8], t: u8) -> bool {
        match set {
            [] => false,
            [h, rest @ ..] => *h == t || contains(rest, t),
        }
    }
    match tags {
        [] => true,
        [t, rest @ ..] => {
            !contains(rest, *t) && !contains(retired, *t) && tags_are_fresh(rest, retired)
        }
    }
}

/// A top-level protocol enum: its [`wire_enum!`] codec, a named constant
/// per tag (module `$tags`), the retired tags that may never be reassigned,
/// and the versioned `$encode`/`$decode` entry points. The `kinds` form
/// also generates `kind()`, the per-variant accounting label (an
/// expression that may read the row's fields).
macro_rules! wire_protocol {
    (
        $T:ident, $tags:ident, retired [$($old:literal),*], $encode:ident, $decode:ident, kinds;
        $($C:ident = $tag:literal => $V:ident { $($f:ident),* } : $kind:expr;)*
    ) => {
        impl $T {
            /// The per-kind accounting label (`msgs_sent`/`msgs_recv`, the
            /// simulator's cost tables).
            #[expect(unused_variables, reason = "each arm binds its row's fields for the label")]
            pub fn kind(&self) -> &'static str {
                match self {
                    $($T::$V { $($f),* } => $kind,)*
                }
            }
        }
        wire_protocol! {
            $T, $tags, retired [$($old),*], $encode, $decode;
            $($C = $tag => $V { $($f),* };)*
        }
    };
    (
        $T:ident, $tags:ident, retired [$($old:literal),*], $encode:ident, $decode:ident;
        $($C:ident = $tag:literal => $V:ident { $($f:ident),* };)*
    ) => {
        #[doc = concat!("The tag table: one byte per [`", stringify!($T), "`] variant. Stable")]
        /// within one [`WIRE_VERSION`]; new variants take fresh tags and a
        /// deleted variant's tag moves to `RETIRED`, never to be reused.
        pub mod $tags {
            $(#[doc = concat!("`", stringify!($V), "`")] pub const $C: u8 = $tag;)*
            /// Every live tag, in table order.
            pub const ALL: &[u8] = &[$($tag),*];
            /// Tags of deleted variants; reassigning one fails the build.
            pub const RETIRED: &[u8] = &[$($old),*];
        }
        const _: () = assert!(
            tags_are_fresh($tags::ALL, $tags::RETIRED),
            concat!("a ", stringify!($T), " tag repeats or reuses a retired one"),
        );
        wire_enum!($T { $($tag => $V { $($f),* }),* });

        #[doc = concat!("Encode a [`", stringify!($T), "`] (starts with [`WIRE_VERSION`]).")]
        pub fn $encode(v: &$T) -> Vec<u8> {
            let mut out = Vec::with_capacity(16);
            out.push(WIRE_VERSION);
            v.put(&mut out);
            out
        }

        #[doc = concat!("Decode a [`", stringify!($T), "`]; the whole buffer must be consumed.")]
        pub fn $decode(buf: &[u8]) -> Result<$T, WireError> {
            let mut r = Reader::new(buf);
            let got = r.u8()?;
            if got != WIRE_VERSION {
                return Err(WireError::Version { got });
            }
            let v = $T::get(&mut r, stringify!($T))?;
            r.finish()?;
            Ok(v)
        }
    };
}

// ----- encoding primitives -----

/// Append a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let [low, ..] = v.to_le_bytes();
        v >>= 7;
        if v == 0 {
            out.push(low & 0x7f);
            return;
        }
        out.push(low | 0x80);
    }
}

// ----- decoding primitives -----

/// A bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let (&b, rest) = self.rest.split_first().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(b)
    }

    /// Read a fixed 4-byte little-endian `u32`.
    #[inline]
    pub fn u32le(&mut self) -> Result<u32, WireError> {
        let (b, rest) = self
            .rest
            .split_first_chunk::<4>()
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(u32::from_le_bytes(*b))
    }

    /// Read a LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            // The 10th byte may only contribute the final bit.
            if shift == 63 && low > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Read a length field: a varint checked against [`MAX_LEN`] and the
    /// bytes remaining (every encoded element costs ≥ 1 byte, so a count
    /// beyond `remaining` is necessarily truncation).
    #[inline]
    pub fn len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > MAX_LEN {
            return Err(WireError::Oversized { what, len: n });
        }
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(WireError::Truncated),
        }
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// Read a node id.
    #[inline]
    pub fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId(self.u32le()?))
    }

    /// Require full consumption (call after the top-level decode).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

// ----- the protocol's types -----

wire_struct!(Iam { level, bucket });
wire_struct!(Record { key, payload });
wire_struct!(DeltaEntry {
    seq,
    rank,
    col,
    key_op,
    delta_cell
});
wire_struct!(ReplayEntry {
    client,
    op_id,
    key,
    result
});

wire_enum!(FilterSpec {
    0 => All,
    1 => PayloadContains(needle),
    2 => KeyRange(lo, hi),
});
wire_enum!(ClientOp {
    0 => Insert { key, payload },
    1 => Lookup { key },
    2 => Update { key, payload },
    3 => Delete { key },
    4 => Scan { filter },
});
wire_enum!(ReqKind {
    0 => Insert(key, payload),
    1 => Lookup(key),
    2 => Update(key, payload),
    3 => Delete(key),
});
wire_enum!(KeyOp {
    0 => Add(key),
    1 => Remove(key),
    2 => Keep,
});
wire_enum!(ShardContent {
    0 => Data { level, next_rank, delta_seq, records },
    1 => Parity { records, col_seqs },
});

/// `Value(None)` and `Value(Some(_))` take separate tags, which a
/// [`wire_enum!`] row cannot express.
impl Wire for OpResult {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            OpResult::Inserted => out.push(0),
            OpResult::DuplicateKey => out.push(1),
            OpResult::Updated => out.push(2),
            OpResult::Deleted => out.push(3),
            OpResult::Value(None) => out.push(4),
            OpResult::Value(Some(p)) => {
                out.push(5);
                p.put(out);
            }
            OpResult::NotFound => out.push(6),
            OpResult::ScanHits(hits) => {
                out.push(7);
                hits.put(out);
            }
            OpResult::Failed(e) => {
                out.push(8);
                e.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => OpResult::Inserted,
            1 => OpResult::DuplicateKey,
            2 => OpResult::Updated,
            3 => OpResult::Deleted,
            4 => OpResult::Value(None),
            5 => OpResult::Value(Some(Wire::get(r, "Value.payload")?)),
            6 => OpResult::NotFound,
            7 => OpResult::ScanHits(Wire::get(r, "ScanHits.hits")?),
            8 => OpResult::Failed(Wire::get(r, "Failed.error")?),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "OpResult",
                    tag,
                })
            }
        })
    }
}

wire_protocol! {
    Msg, tag, retired [], encode_msg, decode_msg, kinds;
    DO = 1 => Do { op_id, op } : "app-do";
    REQ = 2 => Req { op_id, client, intended, hops, kind } : kind.label();
    REPLY = 3 => Reply { op_id, result, iam } : "reply";
    SCAN = 4 => Scan { op_id, client, filter, assumed_level, reply_if_empty } : "scan";
    SCAN_REPLY = 5 => ScanReply { op_id, bucket, level, hits } : "scan-reply";
    PARITY_DELTA = 6 => ParityDelta { group, entry, ack_to } : "parity-delta";
    PARITY_BATCH = 7 => ParityBatch { group, entries, ack_to } : "parity-batch";
    PARITY_ACK = 8 => ParityAck { col, upto } : "parity-ack";
    REPORT_OVERFLOW = 9 => ReportOverflow { bucket, size } : "overflow";
    INIT_DATA = 10 => InitData { bucket, level, delta_seq } : "init-data";
    INIT_PARITY = 11 => InitParity { group, index, k } : "init-parity";
    DO_SPLIT = 12 => DoSplit { source, target, new_level } : "split";
    SPLIT_LOAD = 13 => SplitLoad { bucket, level, records, replay } : "split-load";
    SUSPECT = 14 => Suspect { op_id, client, bucket, kind } : "suspect";
    PROBE = 15 => Probe { token } : "probe";
    PROBE_ACK = 16 => ProbeAck { token, bucket } : "probe-ack";
    TRANSFER_SHARD = 17 => TransferShard { token } : "transfer-req";
    SHARD_DATA = 18 => ShardData { token, shard, content } : "transfer-data";
    INSTALL = 19 => Install { group, bucket, index, k, content, token } : "install";
    INSTALL_ACK = 20 => InstallAck { token } : "install-ack";
    FIND_RECORD = 21 => FindRecord { key, token } : "find-record";
    FIND_RECORD_REPLY = 22 => FindRecordReply { token, found } : "find-record-reply";
    READ_CELL = 23 => ReadCell { rank, token } : "read-cell";
    CELL_DATA = 24 => CellData { token, shard, cell } : "cell-data";
    SPLIT_DONE = 25 => SplitDone { bucket } : "split-done";
    FORCE_MERGE = 26 => ForceMerge {} : "force-merge";
    DO_MERGE = 27 => DoMerge { source, target, new_level } : "merge";
    MERGE_LOAD = 28 => MergeLoad { level, records, replay, final_seq } : "merge-load";
    MERGE_DONE = 29 => MergeDone { bucket, final_seq } : "merge-done";
    RETIRE = 30 => Retire {} : "retire";
    SELF_REPORT = 31 => SelfReport {} : "self-report";
    CHECK_OWNERSHIP = 32 => CheckOwnership { bucket, parity } : "check-ownership";
    OWNERSHIP_ACK = 33 => OwnershipAck {} : "ownership-ack";
    CHECK_GROUP = 34 => CheckGroup { group } : "check-group";
    RECOVER_FILE_STATE = 35 => RecoverFileState {} : "recover-file-state";
    STATE_QUERY = 36 => StateQuery {} : "state-query";
    STATE_REPLY = 37 => StateReply { bucket, level } : "state-reply";
    RESTART_REPORT = 38 => RestartReport { bucket, delta_seq } : "restart-report";
    SUFFIX_PULL = 39 => SuffixPull { group, col, from_seq, target } : "suffix-pull";
    DELTA_SUFFIX = 40 => DeltaSuffix { col, from_seq, entries, complete } : "delta-suffix";
    SUFFIX_INFO = 41 => SuffixInfo { bucket, col, next_seq, covered, count, bytes } : "suffix-info";
    RESTART_ABORT = 42 => RestartAbort { bucket } : "restart-abort";
    RESUME_WRITES = 43 => ResumeWrites { group } : "resume-writes";
}

// Events cross the wire when a client process observes a remotely-hosted
// coordinator.
wire_protocol! {
    CoordEvent, etag, retired [], encode_coord_event, decode_coord_event;
    SPLIT = 1 => Split { source, target, buckets };
    K_INCREASED = 2 => KIncreased { k };
    GROUP_UPGRADED = 3 => GroupUpgraded { group, k };
    FAILURE_DETECTED = 4 => FailureDetected { group, shards };
    GROUP_RECOVERED = 5 => GroupRecovered { group, shards };
    GROUP_UNRECOVERABLE = 6 => GroupUnrecoverable { group, failed };
    MERGED = 7 => Merged { source, target, buckets };
    STATE_RECOVERED = 8 => StateRecovered { n, i };
    RECOVERY_STALLED = 9 => RecoveryStalled { group, needed };
    INVARIANT_VIOLATED = 10 => InvariantViolated { context };
    BUCKET_RESTARTED = 11 => BucketRestarted { bucket, suffix_len };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        assert_eq!(
            Reader::new(&buf).varint().unwrap_err(),
            WireError::VarintOverflow
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut buf = encode_msg(&Msg::StateQuery);
        buf[0] = 99;
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::Version { got: 99 }
        );
    }

    #[test]
    fn unknown_msg_tag_rejected() {
        let buf = [WIRE_VERSION, 200];
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::UnknownTag {
                what: "Msg",
                tag: 200
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_msg(&Msg::StateQuery);
        buf.push(0);
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::Trailing { extra: 1 }
        );
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // CellData with a cell length claim beyond MAX_LEN.
        let mut buf = vec![WIRE_VERSION, tag::CELL_DATA];
        put_varint(&mut buf, 7); // token
        put_varint(&mut buf, 0); // shard
        put_varint(&mut buf, MAX_LEN + 1); // absurd cell length
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::Oversized {
                what: "CellData.cell",
                len: MAX_LEN + 1
            }
        );
    }

    #[test]
    fn length_beyond_remaining_is_truncation() {
        let mut buf = vec![WIRE_VERSION, tag::CELL_DATA];
        put_varint(&mut buf, 7);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1000); // claims 1000 bytes, none follow
        assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
    }

    /// Adversarial frame: a nested list-of-lists where the *outer* count is
    /// plausible but an *inner* length claims more than the frame holds.
    /// The decoder must reject before allocating, not over-allocate or
    /// panic.
    #[test]
    fn nested_inner_length_is_bounded_by_remaining_bytes() {
        // FindRecordReply: token, presence byte, rank, then a key list whose
        // claimed count dwarfs the actual frame.
        let mut buf = vec![WIRE_VERSION, tag::FIND_RECORD_REPLY];
        put_varint(&mut buf, 9); // token
        buf.push(1); // found = Some
        put_varint(&mut buf, 1); // rank
        put_varint(&mut buf, 1 << 20); // key count: under MAX_LEN, over frame
        assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
    }

    /// A huge claimed element count with a tiny frame must fail the
    /// remaining-bytes bound even when it is under MAX_LEN.
    #[test]
    fn batch_count_under_cap_but_over_frame_is_truncation() {
        let mut buf = vec![WIRE_VERSION, tag::PARITY_BATCH];
        put_varint(&mut buf, 3); // group
        put_varint(&mut buf, MAX_LEN); // exactly the cap, frame is ~4 bytes
        assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
    }

    /// Truncating a well-formed encoding at every prefix must yield a typed
    /// error — never a panic and never a bogus success.
    #[test]
    fn every_prefix_of_a_real_message_fails_cleanly() {
        let buf = encode_msg(&Msg::FindRecordReply {
            token: 3,
            found: Some((4, vec![Some(7), None, Some(11)])),
        });
        for cut in 0..buf.len() {
            assert!(
                decode_msg(&buf[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        assert!(decode_msg(&buf).is_ok());
    }

    #[test]
    fn restart_suffix_messages_roundtrip() {
        let entry = DeltaEntry {
            seq: 9,
            rank: 4,
            col: 2,
            key_op: KeyOp::Keep,
            delta_cell: vec![1, 2, 3],
        };
        let msgs = [
            Msg::RestartReport {
                bucket: 6,
                delta_seq: 41,
            },
            Msg::SuffixPull {
                group: 1,
                col: 2,
                from_seq: 41,
                target: lhrs_sim::NodeId(9),
            },
            Msg::DeltaSuffix {
                col: 2,
                from_seq: 41,
                entries: vec![entry.clone(), entry],
                complete: true,
            },
            Msg::DeltaSuffix {
                col: 0,
                from_seq: 0,
                entries: Vec::new(),
                complete: false,
            },
            Msg::SuffixInfo {
                bucket: 6,
                col: 2,
                next_seq: 43,
                covered: true,
                count: 2,
                bytes: 6,
            },
            Msg::RestartAbort { bucket: 6 },
            Msg::ResumeWrites { group: 3 },
        ];
        for m in &msgs {
            let buf = encode_msg(m);
            assert_eq!(&decode_msg(&buf).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn coord_event_roundtrip_all_variants() {
        let events = [
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
                context: "find-record reply missing the searched key".to_string(),
            },
            CoordEvent::BucketRestarted {
                bucket: 5,
                suffix_len: 17,
            },
        ];
        for ev in &events {
            let buf = encode_coord_event(ev);
            assert_eq!(&decode_coord_event(&buf).unwrap(), ev, "{ev:?}");
        }
    }

    #[test]
    fn coord_event_rejects_unknown_tag_truncation_and_trailing() {
        assert_eq!(
            decode_coord_event(&[WIRE_VERSION, 200]).unwrap_err(),
            WireError::UnknownTag {
                what: "CoordEvent",
                tag: 200
            }
        );
        let buf = encode_coord_event(&CoordEvent::KIncreased { k: 300 });
        assert!(decode_coord_event(&buf[..buf.len() - 1]).is_err());
        let mut buf = encode_coord_event(&CoordEvent::StateRecovered { n: 1, i: 2 });
        buf.push(0);
        assert_eq!(
            decode_coord_event(&buf).unwrap_err(),
            WireError::Trailing { extra: 1 }
        );
        // A shard list claiming more elements than bytes remain.
        let mut buf = vec![WIRE_VERSION, etag::FAILURE_DETECTED];
        put_varint(&mut buf, 3); // group
        put_varint(&mut buf, 1 << 20); // absurd shard count
        assert_eq!(decode_coord_event(&buf).unwrap_err(), WireError::Truncated);
        // Invalid UTF-8 in the context string.
        let mut buf = vec![WIRE_VERSION, etag::INVARIANT_VIOLATED];
        vec![0xffu8, 0xfe].put(&mut buf);
        assert_eq!(decode_coord_event(&buf).unwrap_err(), WireError::BadUtf8);
    }
}
