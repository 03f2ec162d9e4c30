//! Layer probes for the traced run: small fixed loops that call one
//! layer's public functions directly and report host time per unit of
//! work. They are the only place a layer below the workloads' entry
//! points (`cxl-mem`, `cxl-store`, `cxl-sim`, `cxl-fabric`) is timed on
//! its own, so a hot-path change there shows up under its own name
//! before it shows up end to end.
//!
//! Every probe repeats its loop and reports the median pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cxl_fabric::{FabricConfig, FabricTopology};
use cxl_fault::LeaseTable;
use cxl_mem::{CxlDevice, CxlPageId, FabricLink, NodeId, PageData};
use cxl_sim::EventQueue;
use cxl_store::{Store, StoreConfig};
use simclock::{SimDuration, SimTime};

use crate::host::{median, SplitMix64};
use crate::spans::Recorder;
use crate::workloads::{burst_scaleout, cluster_trace, Params};

/// Passes per probe loop; `--smoke` makes one.
fn passes(p: &Params) -> usize {
    if p.smoke {
        1
    } else {
        5
    }
}

fn median_ns_per_unit(passes: usize, units: u64, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&samples)
}

/// `cxl_mem`: a 64 k-page device at 1, 8 and 16 shards, 256-page batches.
fn cxl_mem(passes: usize, rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    const DEVICE_PAGES: u64 = 64 * 1024;
    const BATCH: u64 = 256;
    const BATCHES: u64 = 64;
    let node = NodeId(0);
    for shards in [1usize, 8, 16] {
        let span = rec.open("probe.cxl_mem", 0);
        let device = CxlDevice::with_shards(DEVICE_PAGES, shards);
        let region = device.create_region("probe");
        let key = |op: &str| format!("cxl_mem.{op}.s{shards}.host_ns_per_page");

        let v = median_ns_per_unit(passes, BATCH * BATCHES, || {
            for _ in 0..BATCHES {
                let pages = device
                    .alloc_batch(region, BATCH)
                    .expect("probe device fits");
                device
                    .free_batch(black_box(&pages))
                    .expect("pages are live");
            }
        });
        out.insert(key("alloc_free_batch"), v);

        let batches: Vec<Vec<CxlPageId>> = (0..BATCHES)
            .map(|_| {
                device
                    .alloc_batch(region, BATCH)
                    .expect("probe device fits")
            })
            .collect();
        let payloads: Vec<Vec<(CxlPageId, PageData)>> = batches
            .iter()
            .map(|b| b.iter().map(|p| (*p, PageData::pattern(p.0 + 1))).collect())
            .collect();
        let v = median_ns_per_unit(passes, BATCH * BATCHES, || {
            for writes in &payloads {
                device.write_pages(black_box(writes), node).expect("live");
            }
        });
        out.insert(key("write_pages"), v);
        let v = median_ns_per_unit(passes, BATCH * BATCHES, || {
            for b in &batches {
                black_box(device.read_pages(black_box(b), node).expect("live"));
            }
        });
        out.insert(key("read_pages"), v);
        let v = median_ns_per_unit(passes, BATCH * BATCHES, || {
            for b in &batches {
                black_box(device.fingerprint_pages(black_box(b)).expect("live"));
            }
        });
        out.insert(key("fingerprint_pages"), v);
        rec.close(span);
    }
}

/// `cxl_store`: intern one 4 k-page image (all misses), commit it,
/// intern the same content again (all hits), commit, release the second
/// image and evict the first. Durable, like `checkpoint_churn`'s store.
fn cxl_store(passes: usize, rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    const IMAGE_PAGES: u64 = 4096;
    let node = NodeId(0);
    let data: Vec<PageData> = (0..IMAGE_PAGES)
        .map(|i| PageData::pattern(0x5eed_0000 + i))
        .collect();
    let leases = LeaseTable::new(SimDuration::from_secs(30));
    let now = SimTime::from_nanos(1_000_000_000);
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let span = rec.open("probe.cxl_store", 0);
    for _ in 0..passes {
        let device = Arc::new(CxlDevice::new(8 * IMAGE_PAGES));
        let store = Store::with_config(
            Arc::clone(&device),
            StoreConfig {
                durable: true,
                ..StoreConfig::default()
            },
        );
        let mut timed = |name: &'static str, units: f64, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            samples
                .entry(name)
                .or_default()
                .push(t.elapsed().as_nanos() as f64 / units);
        };
        let first = store.begin_image("probe-a", node, 0, now);
        timed("intern_miss", IMAGE_PAGES as f64, &mut || {
            black_box(store.intern_pages(first, &data, node).expect("image fits"));
        });
        let meta_a = device.create_region("probe-meta-a");
        timed("commit_image", 1.0, &mut || {
            store.commit_image(first, meta_a).expect("pending image");
        });
        let second = store.begin_image("probe-b", node, 0, now);
        timed("intern_hit", IMAGE_PAGES as f64, &mut || {
            black_box(store.intern_pages(second, &data, node).expect("image fits"));
        });
        let meta_b = device.create_region("probe-meta-b");
        store.commit_image(second, meta_b).expect("pending image");
        timed("release_image", 1.0, &mut || {
            store.release_image(second).expect("committed image");
        });
        timed("evict", 1.0, &mut || {
            let report = store.evict_for(device.capacity_pages(), &leases, now);
            assert_eq!(report.images, 1, "the probe's one live image is evictable");
        });
    }
    rec.close(span);
    let m = |name: &str| median(&samples[name]);
    out.insert(
        "cxl_store.intern_miss.host_ns_per_page".into(),
        m("intern_miss"),
    );
    out.insert(
        "cxl_store.intern_hit.host_ns_per_page".into(),
        m("intern_hit"),
    );
    out.insert(
        "cxl_store.commit_image.host_us".into(),
        m("commit_image") / 1e3,
    );
    out.insert(
        "cxl_store.release_image.host_us".into(),
        m("release_image") / 1e3,
    );
    out.insert("cxl_store.evict.host_us_per_image".into(), m("evict") / 1e3);
}

/// Arrival times with the workload's own distribution: the generated
/// trace for the trace workloads, seeded exponential gaps at 300 RPS for
/// the loop workloads (which schedule nothing).
fn arrival_times(workload: &str, p: &Params) -> Vec<u64> {
    match workload {
        "cluster_trace" => trace_gen::generate_diurnal(&cluster_trace::trace_config(p))
            .iter()
            .map(|i| i.time.as_nanos())
            .collect(),
        "burst_scaleout" => trace_gen::generate(&burst_scaleout::trace_config(p))
            .iter()
            .map(|i| i.time.as_nanos())
            .collect(),
        _ => {
            let mut rng = SplitMix64::new(p.seed);
            let mut t = 0u64;
            (0..100_000)
                .map(|_| {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    t += (-(1.0 - u).ln() / 300.0 * 1e9) as u64;
                    t
                })
                .collect()
        }
    }
}

/// `cxl_sim`: push then pop one million events, the way `run_trace`
/// loads a whole trace before it dispatches.
fn cxl_sim(workload: &str, p: &Params, rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    const EVENTS: usize = 1_000_000;
    let base = arrival_times(workload, p);
    let horizon = base.last().copied().unwrap_or(0) + 1;
    let times: Vec<SimTime> = (0..EVENTS)
        .map(|i| SimTime::from_nanos(base[i % base.len()] + (i / base.len()) as u64 * horizon))
        .collect();
    let span = rec.open("probe.cxl_sim", 0);
    let v = median_ns_per_unit(passes(p), EVENTS as u64, || {
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.push(*t, i);
        }
        while let Some(e) = queue.pop() {
            black_box(e.event);
        }
    });
    rec.close(span);
    out.insert("cxl_sim.queue.host_ns_per_event".into(), v);
}

/// `cxl_fabric`: charge 32-page transfers spread over eight ports to a
/// topology at 300 ‰ background load, one every virtual microsecond.
fn cxl_fabric(passes: usize, rec: &mut Recorder, out: &mut BTreeMap<String, f64>) {
    const CHARGES: u64 = 200_000;
    let port_bytes = [4 * 4096u64; 8];
    let span = rec.open("probe.cxl_fabric", 0);
    let v = median_ns_per_unit(passes, CHARGES, || {
        let topology = FabricTopology::new(FabricConfig {
            background_load_permille: 300,
            ..FabricConfig::default()
        });
        for i in 0..CHARGES {
            black_box(topology.charge_transfer(0, SimTime::from_nanos(i * 1_000), &port_bytes));
        }
    });
    rec.close(span);
    out.insert("cxl_fabric.charge.host_ns".into(), v);
}

/// Runs every probe and returns `metric name → value`.
pub fn run_all(workload: &str, p: &Params, rec: &mut Recorder) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    cxl_mem(passes(p), rec, &mut out);
    cxl_store(passes(p), rec, &mut out);
    cxl_sim(workload, p, rec, &mut out);
    cxl_fabric(passes(p), rec, &mut out);
    out
}
