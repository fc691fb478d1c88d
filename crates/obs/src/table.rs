//! The interned registry table: a fixed-capacity, open-addressed map from
//! `(name, label)` to a value cell whose slots are claimed without a lock.
//!
//! A slot is claimed by publishing its key once through a [`OnceLock`] and
//! is never freed. A key therefore lives in the first slot, along its probe
//! sequence from the content-hashed home slot, that was empty when it was
//! first recorded; every slot before it stays occupied by some other key
//! for the table's lifetime. A search stops at the first match or the
//! first empty slot, and two threads racing to claim the same empty slot
//! meet inside [`OnceLock::get_or_init`]: the loser reads the winner's key
//! and moves on when it differs. So each key has exactly one slot, however
//! many `&'static str` addresses its bytes arrive through.
//!
//! The hit path is a hash of the key's content (lengths and edge bytes,
//! a handful of loads and multiplies), one acquire load and, for the usual
//! call site passing the same literal, one pointer comparison: [`same`]
//! never reaches a byte compare for identical `&'static str`s or for two
//! empty labels.

use std::fmt;
use std::sync::OnceLock;

/// Registry key: `(name, label)`; unlabeled entries use `label = ""`.
pub(crate) type Key = (&'static str, &'static str);

/// A fixed-capacity table of `Key → V` cells (see the module docs).
pub(crate) struct Table<V> {
    slots: Box<[OnceLock<(Key, V)>]>,
}

impl<V: Default> Table<V> {
    /// A table of `capacity` slots, rounded up to a power of two.
    pub(crate) fn with_capacity(capacity: usize) -> Table<V> {
        Table {
            slots: (0..capacity.next_power_of_two())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The cell for `(name, label)`, claiming a free slot on first use;
    /// `None` only when the key is absent and every slot is taken.
    pub(crate) fn claim(&self, name: &'static str, label: &'static str) -> Option<&V> {
        self.probe(name, label, true)
    }

    /// The cell for `(name, label)` if it was ever claimed.
    pub(crate) fn get(&self, name: &'static str, label: &'static str) -> Option<&V> {
        self.probe(name, label, false)
    }

    /// Every claimed entry, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Key, V)> {
        self.slots.iter().filter_map(OnceLock::get)
    }

    fn probe(&self, name: &'static str, label: &'static str, claim: bool) -> Option<&V> {
        let mask = self.slots.len().wrapping_sub(1);
        let home = home_slot(name, label, mask);
        for step in 0..self.slots.len() {
            let slot = self.slots.get(home.wrapping_add(step) & mask)?;
            let ((n, l), cell) = match slot.get() {
                Some(entry) => entry,
                None if claim => slot.get_or_init(|| ((name, label), V::default())),
                None => return None,
            };
            if same(n, name) && same(l, label) {
                return Some(cell);
            }
        }
        None
    }
}

impl<V: fmt::Debug + Default> fmt::Debug for Table<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(key, cell)| (key, cell)))
            .finish()
    }
}

/// String equality with the cheap cases first: the same `&'static str`
/// or two empty strings compare equal without a byte compare.
fn same(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || (a.len() == b.len() && (a.is_empty() || a == b))
}

/// The FxHash multiplier: one multiply per word mixes well enough for a
/// table keyed by a few hundred short identifiers.
const MUL: u64 = 0x517c_c1b7_2722_0a95;

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MUL)
}

/// Hash `s` into `h` from its length and at most two loads: its first and
/// last eight bytes (four for shorter strings, a byte fold below four).
/// Bytes in the middle of a long key only decide equality, not placement.
fn hash_str(h: u64, s: &str) -> u64 {
    let b = s.as_bytes();
    let (head, tail) = match (b.first_chunk::<8>(), b.last_chunk::<8>()) {
        (Some(f), Some(l)) => (u64::from_le_bytes(*f), u64::from_le_bytes(*l)),
        _ => match (b.first_chunk::<4>(), b.last_chunk::<4>()) {
            (Some(f), Some(l)) => (
                u64::from(u32::from_le_bytes(*f)),
                u64::from(u32::from_le_bytes(*l)),
            ),
            _ => (
                b.iter()
                    .fold(0u64, |acc, x| acc.rotate_left(8) ^ u64::from(*x)),
                0,
            ),
        },
    };
    mix(mix(h ^ b.len() as u64, head), tail)
}

/// The home slot of `(name, label)` in a table of `mask + 1` slots: the
/// top bits of the hash, where the multiplies leave the best mixing.
fn home_slot(name: &str, label: &str, mask: usize) -> usize {
    let mut h = hash_str(0, name);
    if !label.is_empty() {
        h = hash_str(h, label);
    }
    let top = h.rotate_left(mask.count_ones()) & mask as u64;
    usize::try_from(top).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn same_key_through_different_addresses_is_one_slot() {
        let t: Table<AtomicU64> = Table::with_capacity(8);
        let leaked: &'static str = String::from("msgs_sent").leak();
        assert!(!std::ptr::eq(leaked, "msgs_sent"));
        t.claim("msgs_sent", "")
            .map(|c| c.fetch_add(1, Ordering::Relaxed));
        t.claim(leaked, String::new().leak())
            .map(|c| c.fetch_add(1, Ordering::Relaxed));
        assert_eq!(t.iter().count(), 1);
        assert_eq!(
            t.get("msgs_sent", "").map(|c| c.load(Ordering::Relaxed)),
            Some(2)
        );
    }

    #[test]
    fn full_table_claims_nothing_more_but_still_finds_its_keys() {
        let t: Table<AtomicU64> = Table::with_capacity(4);
        for name in ["a", "b", "c", "d"] {
            assert!(t.claim(name, "x").is_some(), "{name} fits");
        }
        assert!(t.claim("e", "x").is_none(), "a fifth key has no slot");
        assert!(t.get("e", "x").is_none());
        for name in ["a", "b", "c", "d"] {
            assert!(t.get(name, "x").is_some(), "{name} is still found");
        }
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let t: Table<AtomicU64> = Table::with_capacity(5);
        for i in 0..8u8 {
            let name: &'static str = format!("k{i}").leak();
            assert!(t.claim(name, "").is_some());
        }
        assert!(t.claim("k8", "").is_none());
    }
}
