//! Planted violations; see `../Cargo.toml`. This file: wall-clock time,
//! and a public error enum that downstream matches could exhaust, under
//! the crate-wide attribute the crates exporting an error enum carry.
#![warn(clippy::exhaustive_enums)]

pub mod device;
pub mod report;

pub fn elapsed_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

pub enum CanaryError {
    Poisoned,
}
