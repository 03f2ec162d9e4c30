//! Planted violations; see `../Cargo.toml`. This file: wall-clock time.

pub mod device;
pub mod report;

pub fn elapsed_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
