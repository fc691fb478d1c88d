//! Seeded violations, one per lint the runtime crates deny. This root holds
//! the one copy of the denial blocks; `lhrs-xtask lint` checks that every
//! runtime crate root carries them verbatim, and `tests/clippy_fixture.rs`
//! proves that clippy fails here on every lint listed.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

pub fn unwrap_used(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn expect_used(x: Option<u8>) -> u8 {
    x.expect("seeded")
}

pub fn panic() {
    panic!("seeded");
}

pub fn unreachable() {
    unreachable!("seeded");
}

pub fn cast_possible_truncation(x: u64) -> u32 {
    x as u32
}

#[allow(dead_code)]
fn allow_attributes_without_reason() {}

pub fn arithmetic_side_effects(a: u64, b: u64) -> u64 {
    a + b
}

/// A panic two calls deep in a field kernel: the denial is crate-wide, so
/// the helper's indexing fails the build wherever it sits.
pub fn gf_entry(table: &[u8], x: u8) -> u8 {
    gf_mul(table, x)
}

fn gf_mul(table: &[u8], x: u8) -> u8 {
    gf_lookup(table, usize::from(x))
}

fn gf_lookup(table: &[u8], i: usize) -> u8 {
    table[i]
}

/// A stale escape hatch: nothing here unwraps any more.
#[expect(clippy::unwrap_used, reason = "seeded: silences nothing")]
pub fn stale_expect(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}
