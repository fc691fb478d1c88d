//! Closed-form file availability — the analysis behind the paper's
//! motivation for scalable availability (experiment F2).
//!
//! With every bucket independently available with probability `p`, a bucket
//! group of `d` existing data buckets and `k` parity buckets survives (all
//! its data remains readable) iff at most `k` of its `d + k` buckets are
//! down. The file survives iff every group does. For fixed `k` the file
//! availability `P(M)` decays to 0 as the file scales; growing `k` with `M`
//! holds it up — the quantitative argument the scheme rests on.

use crate::convert::to_index;

/// Probability that a single group of `d` data + `k` parity buckets
/// survives, with per-bucket availability `p`.
pub fn group_availability(d: usize, k: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let n = d + k;
    let q = 1.0 - p;
    // Σ_{f=0..k} C(n, f) q^f p^(n-f)
    let mut sum = 0.0;
    for f in 0..=k.min(n) {
        sum += binomial(n, f) * q.powi(exponent(f)) * p.powi(exponent(n - f));
    }
    sum.min(1.0)
}

/// A `powi` exponent, saturating: a probability below 1 raised to `i32::MAX`
/// is already 0.
fn exponent<T: TryInto<i32>>(n: T) -> i32 {
    n.try_into().unwrap_or(i32::MAX)
}

/// Probability that an entire file of `m_buckets` data buckets, group size
/// `m`, availability level `k`, survives.
///
/// The last group may be partial; non-existing columns cannot fail.
///
/// ```
/// use lhrs_core::availability::{file_availability, lh_star_availability};
///
/// let p = 0.99;
/// // A plain LH* file of 1000 buckets is almost certainly broken...
/// assert!(lh_star_availability(1000, p) < 1e-4);
/// // ...while 1-availability with m = 4 keeps it usable,
/// assert!(file_availability(1000, 4, 1, p) > 0.75);
/// // and k = 3 makes it solid.
/// assert!(file_availability(1000, 4, 3, p) > 0.9999);
/// ```
pub fn file_availability(m_buckets: u64, m: usize, k: usize, p: f64) -> f64 {
    if m_buckets == 0 {
        return 1.0;
    }
    let full_groups = to_index(m_buckets) / m;
    let rest = to_index(m_buckets) % m;
    let mut avail = group_availability(m, k, p).powi(exponent(full_groups));
    if rest > 0 {
        avail *= group_availability(rest, k, p);
    }
    avail
}

/// Availability of a plain LH\* file (no parity): every bucket must be up.
pub fn lh_star_availability(m_buckets: u64, p: f64) -> f64 {
    p.powi(exponent(m_buckets))
}

/// Availability of an LH\*m (mirrored) file: each bucket and its mirror
/// form a pair that survives unless both fail.
pub fn mirrored_availability(m_buckets: u64, p: f64) -> f64 {
    let q = 1.0 - p;
    (1.0 - q * q).powi(exponent(m_buckets))
}

/// The smallest `k` that keeps the file availability at or above `target`
/// for the given size — the scalable-availability planning rule.
pub fn k_needed(m_buckets: u64, m: usize, p: f64, target: f64, k_max: usize) -> Option<usize> {
    (1..=k_max).find(|&k| file_availability(m_buckets, m, k, p) >= target)
}

fn binomial(n: usize, r: usize) -> f64 {
    if r > n {
        return 0.0;
    }
    let r = r.min(n - r);
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 0..r {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn binomial_small_values() {
        assert!(close(binomial(4, 2), 6.0));
        assert!(close(binomial(10, 0), 1.0));
        assert!(close(binomial(10, 10), 1.0));
        assert!(close(binomial(5, 3), 10.0));
        assert!(close(binomial(3, 5), 0.0));
    }

    #[test]
    fn group_survival_matches_hand_computation() {
        // d = 2, k = 1, p = 0.9: survive iff ≤ 1 of 3 fail:
        // p^3 + 3 p^2 q = 0.729 + 3·0.81·0.1 = 0.972.
        assert!(close(group_availability(2, 1, 0.9), 0.972));
        // k = 0: all must survive.
        assert!(close(group_availability(3, 0, 0.9), 0.9f64.powi(3)));
    }

    #[test]
    fn paper_motivation_numbers() {
        // The predecessor text: p = 0.99, M = 100 ⇒ P ≈ 0.366 for plain
        // LH*; M = 1000 ⇒ P ≈ 4e-5.
        let p100 = lh_star_availability(100, 0.99);
        assert!((0.35..0.38).contains(&p100), "{p100}");
        let p1000 = lh_star_availability(1000, 0.99);
        assert!(p1000 < 1e-4, "{p1000}");
        // 1-availability with m = 4 rescues M = 100 to ≈ 1.
        let rescued = file_availability(100, 4, 1, 0.99);
        assert!(rescued > 0.97, "{rescued}");
    }

    #[test]
    fn availability_decreases_with_size_and_increases_with_k() {
        let p = 0.99;
        let mut prev = 1.0;
        for &m_buckets in &[8u64, 64, 512, 4096] {
            let a = file_availability(m_buckets, 4, 1, p);
            assert!(a < prev);
            prev = a;
            let a2 = file_availability(m_buckets, 4, 2, p);
            let a3 = file_availability(m_buckets, 4, 3, p);
            assert!(a2 > a, "k=2 must beat k=1");
            assert!(a3 > a2, "k=3 must beat k=2");
        }
    }

    #[test]
    fn k_needed_grows_with_file_size() {
        let p = 0.99;
        let target = 0.999;
        let k_small = k_needed(16, 4, p, target, 8).unwrap();
        let k_large = k_needed(65536, 4, p, target, 8).unwrap();
        assert!(k_large > k_small, "{k_small} !< {k_large}");
    }

    #[test]
    fn partial_last_group_handled() {
        // 5 buckets with m = 4: one full group + one 1-bucket group.
        let a = file_availability(5, 4, 1, 0.9);
        let expect = group_availability(4, 1, 0.9) * group_availability(1, 1, 0.9);
        assert!(close(a, expect));
    }

    #[test]
    fn mirroring_matches_pair_model() {
        let a = mirrored_availability(10, 0.9);
        assert!(close(a, (1.0f64 - 0.01).powi(10)));
    }
}
