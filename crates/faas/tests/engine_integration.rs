//! Integration tests for the FaaS engine on a single node: multi-function
//! cohabitation, page-cache sharing between instances of the same
//! function, deployment rollback, and determinism.

use std::sync::Arc;

use cxl_mem::CxlDevice;
use node_os::{Node, NodeConfig};

fn node(mem_mib: u64) -> Node {
    Node::new(
        NodeConfig::default().with_local_mem_mib(mem_mib),
        Arc::new(CxlDevice::with_capacity_mib(64)),
    )
}

#[test]
fn two_functions_cohabit_one_node() {
    let mut n = node(512);
    let float = faas::by_name("Float").unwrap();
    let json = faas::by_name("Json").unwrap();
    let (p1, _) = faas::deploy_cold(&mut n, &float).unwrap();
    let (p2, _) = faas::deploy_cold(&mut n, &json).unwrap();
    let r1 = faas::run_invocation(&mut n, p1, &float, 0).unwrap();
    let r2 = faas::run_invocation(&mut n, p2, &json, 0).unwrap();
    assert!(r1.total > simclock::SimDuration::ZERO);
    assert!(r2.total > simclock::SimDuration::ZERO);
    // Teardown returns everything except the shared page cache.
    n.kill(p1).unwrap();
    n.kill(p2).unwrap();
    let cached = n.page_cache().len() as u64;
    assert_eq!(n.frames().used(), cached);
}

#[test]
fn second_instance_of_same_function_shares_libraries() {
    let mut n = node(512);
    let spec = faas::by_name("Pyaes").unwrap();
    let (p1, init1) = faas::deploy_cold(&mut n, &spec).unwrap();
    let used_after_first = n.frames().used();
    let (p2, init2) = faas::deploy_cold(&mut n, &spec).unwrap();
    // The second deployment's library pages come from the page cache:
    // cheaper init and fewer new frames than a full second footprint.
    assert!(init2.total < init1.total);
    let second_cost = n.frames().used() - used_after_first;
    let anon_pages = spec.init_anon_pages() + spec.ro_pages() + spec.rw_pages();
    assert_eq!(second_cost, anon_pages, "only anonymous pages are new");
    let _ = (p1, p2);
}

#[test]
fn failed_deploy_rolls_back_completely() {
    // Node big enough for the libraries but not the whole footprint.
    let mut n = node(16);
    let spec = faas::by_name("Float").unwrap(); // 24 MiB
    let before = n.frames().used();
    assert!(faas::deploy_cold(&mut n, &spec).is_err());
    // Process gone; only page-cache frames (clean, reclaimable) remain.
    assert_eq!(n.process_count(), 0);
    let cached = n.page_cache().len() as u64;
    assert_eq!(n.frames().used(), before + cached);
    n.drop_page_cache();
    assert_eq!(n.frames().used(), before);
}

#[test]
fn invocations_are_deterministic_given_identical_state() {
    let run = || {
        let mut n = node(512);
        let spec = faas::by_name("Json").unwrap();
        let (pid, init) = faas::deploy_cold(&mut n, &spec).unwrap();
        let mut totals = vec![init.total];
        for i in 0..5 {
            totals.push(faas::run_invocation(&mut n, pid, &spec, i).unwrap().total);
        }
        (totals, n.now())
    };
    assert_eq!(run(), run(), "bit-identical replays");
}

#[test]
fn profiler_classification_is_stable_across_runs() {
    let mut breakdowns = Vec::new();
    for _ in 0..2 {
        let mut n = node(512);
        let spec = faas::by_name("Float").unwrap();
        let (pid, _) = faas::deploy_cold(&mut n, &spec).unwrap();
        breakdowns.push(faas::profile_footprint(&mut n, pid, &spec, 8).unwrap());
    }
    assert_eq!(breakdowns[0], breakdowns[1]);
}

#[test]
fn warm_for_checkpoint_cycles_the_whole_rw_band() {
    let mut n = node(512);
    let spec = faas::by_name("Json").unwrap();
    let (pid, _) = faas::deploy_cold(&mut n, &spec).unwrap();
    faas::warm_for_checkpoint(&mut n, pid, &spec, 15).unwrap();
    // After 16 invocations cycling rw_pages_per_invocation pages each,
    // the whole R/W band (430 pages for Json) has been re-dirtied since
    // the post-first-invocation A/D clear.
    let p = n.process(pid).unwrap();
    let dirty =
        p.mm.page_table
            .iter_populated()
            .filter(|(_, pte)| pte.is_dirty())
            .count() as u64;
    assert!(
        dirty >= spec.rw_pages(),
        "dirty {dirty} covers the R/W band {}",
        spec.rw_pages()
    );
    // And it is far smaller than the footprint (what makes MoW prefetch
    // cheap).
    assert!(dirty < spec.footprint_pages() / 4);
}
