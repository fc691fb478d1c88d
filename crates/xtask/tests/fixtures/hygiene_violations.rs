//! Test-hygiene seeds: one bare `#[ignore]` and one sleep-based
//! synchronization inside a net test module — two findings. The reasoned
//! ignore and the non-test sleep are decoys.

pub fn shutdown_delay() {
    // A sleep in production code is not banned; the hygiene check only
    // polices tests.
    std::thread::sleep(std::time::Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore]
    fn flaky_without_reason() {} // seeded: bare #[ignore]

    #[test]
    #[ignore = "needs two NICs; run manually"]
    fn reasoned_ignore_is_fine() {}

    #[test]
    fn sleeps_for_sync() {
        std::thread::sleep(std::time::Duration::from_millis(50)); // seeded
    }
}
