//! Planted violation: a hash container feeding a report.

pub fn rows() -> Vec<(String, u64)> {
    let counts: std::collections::HashMap<String, u64> = Default::default();
    counts.into_iter().collect()
}
