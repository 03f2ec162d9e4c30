//! The invocation engine: drives function memory behaviour through the
//! simulated OS.
//!
//! An invocation is modelled as the memory traffic the fork mechanisms
//! actually observe (§6.2): a read sweep over the function's working set
//! (possibly multiple passes), a write burst into the R/W region, and pure
//! compute time. A cold deployment additionally performs *state
//! initialization* — faulting in every library page and writing every
//! anonymous page — which is exactly the work remote forks exist to avoid
//! (Fig. 6).
//!
//! All costs flow through [`Node::access_run`], so faults, LLC behaviour and
//! memory-tier latencies are charged by the same machinery for every fork
//! mechanism.

use node_os::addr::{Pid, VirtPageNum};
use node_os::mm::{Access, AccessOutcome};
use node_os::{Node, OsError};
use simclock::SimDuration;

use crate::functions::FunctionSpec;
use crate::layout::FunctionLayout;

/// Cost breakdown of one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvocationResult {
    /// End-to-end invocation time.
    pub total: SimDuration,
    /// Pure compute portion.
    pub compute: SimDuration,
    /// Memory-access portion (cache hits/misses, tier latency).
    pub memory: SimDuration,
    /// Page-fault portion.
    pub fault: SimDuration,
    /// Number of faults taken.
    pub faults: u64,
}

impl InvocationResult {
    fn book(&mut self, o: AccessOutcome) {
        self.memory += o.cost - o.fault_cost;
        self.fault += o.fault_cost;
        self.faults += u64::from(o.fault.is_some());
        self.total += o.cost;
    }
}

/// Cost breakdown of a cold deployment's state initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InitReport {
    /// End-to-end initialization time.
    pub total: SimDuration,
    /// Pure compute portion (runtime startup, model parsing, JIT, …).
    pub compute: SimDuration,
    /// Page-fault portion (first-touch of the whole footprint).
    pub fault: SimDuration,
    /// Pages touched during initialization.
    pub pages_touched: u64,
}

impl InitReport {
    fn book(&mut self, o: AccessOutcome) {
        self.fault += o.fault_cost;
        self.pages_touched += 1;
        self.total += o.cost;
    }
}

/// The engine's one access loop: issues `access` to every page of `vpns`,
/// in order, as one run ([`Node::access_run`]), and hands each outcome to
/// `book`. Publishes what the node's books gained once, when the run
/// ends, also when an access fails.
fn touch(
    node: &mut Node,
    pid: Pid,
    vpns: impl IntoIterator<Item = VirtPageNum>,
    access: Access,
    book: impl FnMut(AccessOutcome),
) -> Result<(), OsError> {
    let before = node.counters();
    let result = node.access_run(pid, vpns, access, book);
    node.publish_counters_since(before);
    result
}

/// Deploys a function cold on `node`: creates the process, maps its
/// address space and runs state initialization.
///
/// Returns the new pid and the initialization cost (already charged to
/// the node's clock).
///
/// # Errors
///
/// Propagates OS errors; [`OsError::OutOfMemory`] if the node cannot hold
/// the footprint.
pub fn deploy_cold(node: &mut Node, spec: &FunctionSpec) -> Result<(Pid, InitReport), OsError> {
    let t0 = node.now();
    let layout = FunctionLayout::for_spec(spec);
    layout.install_files(spec, node.rootfs());
    let pid = node.spawn(&spec.name)?;
    match deploy_cold_inner(node, spec, &layout, pid) {
        Ok(report) => {
            if cxl_telemetry::is_armed() {
                let track = node.id().0;
                cxl_telemetry::record_span(
                    "faas.deploy_cold",
                    track,
                    t0,
                    node.now(),
                    &[("pages_touched", report.pages_touched)],
                );
            }
            Ok((pid, report))
        }
        Err(e) => {
            // Roll back the half-built process so its frames return to the
            // node (the memory-constrained autoscaler runs rely on this).
            let _ = node.kill(pid);
            Err(e)
        }
    }
}

fn deploy_cold_inner(
    node: &mut Node,
    spec: &FunctionSpec,
    layout: &FunctionLayout,
    pid: Pid,
) -> Result<InitReport, OsError> {
    layout.map_into(spec, node, pid)?;
    // Open the runtime's primary library as an fd (global state for the
    // fork mechanisms to checkpoint).
    if let Some((path, _)) = layout.library_files(spec).first() {
        node.process_mut(pid)?
            .task
            .fds
            .open(node_os::process::FileDescriptor {
                path: path.clone(),
                offset: 0,
                writable: false,
            });
    }

    let mut report = InitReport::default();
    // Fault in every library page (reads from the root fs).
    let files = (layout.file_start..layout.file_end).map(VirtPageNum);
    touch(node, pid, files, Access::Read, |o| report.book(o))?;
    // Build all anonymous state (init, ro and rw data are all *written*
    // during initialization — that is what makes them checkpointable).
    let anon = [
        layout.init_start..layout.init_end,
        layout.ro_start..layout.ro_end,
        layout.rw_start..layout.rw_end,
    ];
    let anon = anon.into_iter().flatten().map(VirtPageNum);
    touch(node, pid, anon, Access::Write, |o| report.book(o))?;
    // Runtime startup / model parsing compute.
    let compute = SimDuration::from_millis(spec.init_compute_ms);
    node.clock_mut().advance(compute);
    report.compute = compute;
    report.total += compute;
    Ok(report)
}

/// Runs one invocation of `spec` in process `pid`.
///
/// `invocation_idx` selects which R/W pages this request dirties (the
/// engine cycles through the R/W band, modelling varied inputs).
///
/// # Errors
///
/// Propagates OS errors, notably [`OsError::OutOfMemory`] on
/// memory-constrained nodes.
pub fn run_invocation(
    node: &mut Node,
    pid: Pid,
    spec: &FunctionSpec,
    invocation_idx: u64,
) -> Result<InvocationResult, OsError> {
    let t0 = node.now();
    let layout = FunctionLayout::for_spec(spec);
    let mut r = InvocationResult::default();

    // Read sweep(s) over the working set.
    let ws = layout.working_set(spec);
    for _pass in 0..spec.ws_passes {
        touch(node, pid, ws.iter().copied(), Access::Read, |o| r.book(o))?;
    }

    // Input-dependent read tail over the init data (which slice depends
    // on the request; different instances — distinguished cluster-wide by
    // (node, pid) — see different input streams).
    let salt = ((node.id().0 as u64) << 32) | pid.0;
    let tail = layout.init_tail(salt, invocation_idx);
    touch(node, pid, tail, Access::Read, |o| r.book(o))?;

    // Write burst into the R/W band.
    let writes = layout.write_set(spec, invocation_idx);
    touch(node, pid, writes, Access::Write, |o| r.book(o))?;

    // Compute.
    let compute = SimDuration::from_millis(spec.compute_ms);
    node.clock_mut().advance(compute);
    r.compute = compute;
    r.total += compute;
    if cxl_telemetry::is_armed() {
        let track = node.id().0;
        cxl_telemetry::record_span(
            "faas.invocation",
            track,
            t0,
            node.now(),
            &[("faults", r.faults)],
        );
    }
    Ok(r)
}

/// Clears the process's A/D bits (CXLporter does this after the first
/// invocation so checkpointed bits capture the steady state, §5).
///
/// # Errors
///
/// [`OsError::NoSuchProcess`] if `pid` is not live.
pub fn clear_ad_bits(node: &mut Node, pid: Pid) -> Result<(), OsError> {
    node.with_process_ctx(pid, |p, _| p.mm.page_table.clear_ad_bits())
}

/// Warms a freshly deployed function to checkpoint-readiness: runs the
/// first invocation, clears the A/D bits (§5), then runs
/// `steady_invocations` more so the bits record the steady-state pattern.
/// The paper checkpoints after the 16th invocation.
///
/// # Errors
///
/// Propagates invocation errors.
pub fn warm_for_checkpoint(
    node: &mut Node,
    pid: Pid,
    spec: &FunctionSpec,
    steady_invocations: u64,
) -> Result<(), OsError> {
    run_invocation(node, pid, spec, 0)?;
    clear_ad_bits(node, pid)?;
    for i in 1..=steady_invocations {
        run_invocation(node, pid, spec, i)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::by_name;
    use cxl_mem::CxlDevice;
    use node_os::NodeConfig;
    use std::sync::Arc;

    fn node() -> Node {
        Node::new(
            NodeConfig::default().with_local_mem_mib(512),
            Arc::new(CxlDevice::with_capacity_mib(64)),
        )
    }

    #[test]
    fn cold_deploy_touches_whole_footprint() {
        let mut n = node();
        let spec = by_name("Float").unwrap();
        let (pid, report) = deploy_cold(&mut n, &spec).unwrap();
        let expected =
            spec.file_pages() + spec.init_anon_pages() + spec.ro_pages() + spec.rw_pages();
        assert_eq!(report.pages_touched, expected);
        assert_eq!(n.frames().used(), expected);
        // Fig. 6 band: state init of a small function within 200–600 ms.
        let ms = report.total.as_millis();
        assert!((200..=600).contains(&ms), "Float init {ms} ms");
        assert!(report.fault > SimDuration::ZERO);
        assert_eq!(n.process(pid).unwrap().task.fds.open_count(), 1);
    }

    #[test]
    fn warm_invocations_are_fault_free_and_faster() {
        let mut n = node();
        let spec = by_name("Json").unwrap();
        let (pid, _) = deploy_cold(&mut n, &spec).unwrap();
        let first = run_invocation(&mut n, pid, &spec, 0).unwrap();
        // Warm up the cache with a couple more runs.
        run_invocation(&mut n, pid, &spec, 1).unwrap();
        let warm = run_invocation(&mut n, pid, &spec, 2).unwrap();
        assert_eq!(warm.faults, 0, "steady state takes no faults");
        assert!(warm.total <= first.total);
        assert!(warm.compute == SimDuration::from_millis(spec.compute_ms));
    }

    #[test]
    fn working_set_fitting_llc_hits_cache_when_warm() {
        let mut n = node();
        let spec = by_name("Pyaes").unwrap();
        let (pid, _) = deploy_cold(&mut n, &spec).unwrap();
        run_invocation(&mut n, pid, &spec, 0).unwrap();
        let before = n.counters();
        run_invocation(&mut n, pid, &spec, 1).unwrap();
        let after = n.counters();
        let hits = after.llc_hits - before.llc_hits;
        let misses = after.llc_misses - before.llc_misses;
        assert!(
            hits as f64 / (hits + misses) as f64 > 0.9,
            "warm Pyaes should hit the LLC: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn warm_for_checkpoint_sets_steady_state_ad_bits() {
        let mut n = node();
        let spec = by_name("Json").unwrap();
        let (pid, _) = deploy_cold(&mut n, &spec).unwrap();
        warm_for_checkpoint(&mut n, pid, &spec, 15).unwrap();
        // After warm-up, A bits cover roughly the working set, not the
        // whole footprint (init pages were cleared and not re-read).
        let layout = FunctionLayout::for_spec(&spec);
        let p = n.process(pid).unwrap();
        let mut accessed = 0u64;
        let mut total = 0u64;
        for (vpn, pte) in p.mm.page_table.iter_populated() {
            if pte.is_present() {
                total += 1;
                if p.mm.page_table.is_accessed(vpn) {
                    accessed += 1;
                }
            }
        }
        assert!(total >= layout.total_pages() - 8);
        assert!(
            accessed < total / 2,
            "steady-state A bits ({accessed}) should not cover init data ({total})"
        );
        assert!(accessed >= spec.ws_pages, "working set is marked");
    }

    #[test]
    fn oom_during_invocation_propagates() {
        let mut n = Node::new(
            NodeConfig::default().with_local_mem_mib(8),
            Arc::new(CxlDevice::with_capacity_mib(16)),
        );
        let spec = by_name("Float").unwrap(); // 24 MiB > 8 MiB node
        assert!(matches!(
            deploy_cold(&mut n, &spec),
            Err(OsError::OutOfMemory { .. })
        ));
    }
}
