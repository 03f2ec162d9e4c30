//! Planted violations: a raw lock, and `unwrap`/`expect` under the same
//! scoped attribute `cxl-mem/src/device.rs`, `cxl-store` and `cxl-fault`
//! carry.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub static SLOT: std::sync::Mutex<Option<u64>> = std::sync::Mutex::new(None);

pub fn read_slot() -> u64 {
    let slot: Option<u64> = *SLOT.lock().expect("poisoned");
    slot.unwrap()
}
