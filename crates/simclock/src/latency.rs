//! The calibrated latency model.
//!
//! Every modelled cost in the simulation is derived from the constants in
//! [`LatencyModel`]. The defaults come from the measurements reported in the
//! CXLfork paper for its Sapphire Rapids + Agilex-7 testbed (§4.2.1, §5, §6):
//!
//! * CXL round-trip latency: **391 ns** (Intel MLC measurement, §6.1).
//! * Local DRAM round trip: **~100 ns** (the paper's Fig. 9 calls 200 ns
//!   "2x the latency of local memory").
//! * CXL copy-on-write fault: **≈2.5 µs**, of which **≈1.3 µs** is data
//!   movement and **≈500 ns** TLB-coherence maintenance (§4.2.1).
//! * Regular local anonymous fault: **<1 µs** (§4.2.1).
//! * Container creation: **≈130 ms**; bare container footprint 512 KiB (§5).

use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// Size of a small (base) page in bytes, shared by the whole simulation.
pub const PAGE_SIZE: u64 = 4096;

/// Calibrated cost constants for the simulation.
///
/// The struct is plain configuration data: fields are public and may be
/// adjusted directly or through [`LatencyModelBuilder`]. Use
/// [`LatencyModel::calibrated`] for the paper-faithful defaults.
///
/// # Example
///
/// ```
/// use simclock::LatencyModel;
///
/// let model = LatencyModel::calibrated();
/// assert_eq!(model.cxl_read_round_trip().as_nanos(), 391);
/// // Fig. 9 sweeps the CXL latency directly:
/// let fast = LatencyModel::builder().cxl_round_trip_ns(100).build();
/// assert!(fast.cxl_cow_fault() < model.cxl_cow_fault());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Round-trip latency of one cache-line access to CXL-attached memory.
    pub cxl_round_trip_ns: u64,
    /// Round-trip latency of one cache-line access to node-local DRAM.
    pub local_round_trip_ns: u64,
    /// Latency of an LLC hit, charged per modelled access burst.
    pub cache_hit_ns: u64,

    /// Effective bandwidth copying bulk data between local DRAM buffers
    /// (bytes per nanosecond ≙ GB/s).
    pub local_copy_bytes_per_ns: f64,
    /// Effective bandwidth copying bulk data to/from the CXL device with
    /// non-temporal stores (§8 "Hardware Requirements").
    pub cxl_copy_bytes_per_ns: f64,
    /// Effective bandwidth of bulk *writes* to the CXL device using
    /// non-temporal (write-combining) stores, which avoid the
    /// read-for-ownership round trip and stream faster than reads (§8).
    /// This is the checkpoint-copy path.
    pub cxl_write_bytes_per_ns: f64,

    /// Fixed kernel-entry + handler overhead of any page fault.
    pub fault_base_ns: u64,
    /// Cost of zero-filling a fresh anonymous page (on top of the base).
    pub anon_zero_fill_ns: u64,
    /// Cost of one TLB shootdown round (§4.2.1 measures ≈500 ns).
    pub tlb_shootdown_ns: u64,
    /// Cost of reading one page from the (shared) root filesystem on a major
    /// fault.
    pub file_read_page_ns: u64,

    /// Per-byte cost of serializing state into a CRIU-style image.
    pub serialize_ns_per_byte: f64,
    /// Per-byte cost of parsing a CRIU-style image back into live state.
    pub deserialize_ns_per_byte: f64,
    /// Fixed cost of opening/creating one image file on the shared fs.
    pub image_file_open_ns: u64,

    /// Effective bandwidth fingerprinting page content for the
    /// content-addressed store (an xxh3-class hash running out of local
    /// DRAM; only the intern path pays it).
    pub fingerprint_bytes_per_ns: f64,

    /// Per-PTE cost of Mitosis-style OS-state descriptor encoding.
    pub descriptor_encode_pte_ns: u64,
    /// Per-PTE cost of Mitosis-style OS-state descriptor decoding on the
    /// restore node.
    pub descriptor_decode_pte_ns: u64,

    /// Cost of duplicating one PTE during a local fork (copying parent page
    /// tables and applying CoW protection).
    pub fork_pte_copy_ns: u64,
    /// Cost of duplicating one VMA during a local fork.
    pub fork_vma_copy_ns: u64,
    /// Fixed skeleton cost of creating a task (local fork or restore stub).
    pub process_create_ns: u64,

    /// Cost of allocating + initializing one upper-level page-table page on
    /// restore.
    pub pt_upper_alloc_ns: u64,
    /// Cost of attaching one checkpointed page-table leaf (linking a CXL
    /// offset into the local upper levels, §4.2.1).
    pub pt_leaf_attach_ns: u64,
    /// Cost of attaching one checkpointed VMA-tree leaf block.
    pub vma_leaf_attach_ns: u64,
    /// Cost of re-opening one file descriptor / file mapping from its
    /// checkpointed path during global-state restore (§4.2).
    pub file_reopen_ns: u64,
    /// Cost of rebasing one internal pointer during checkpoint (§4.1 step 7).
    pub rebase_pointer_ns: u64,

    /// Cost of setting up a new container (network, namespaces, cgroups;
    /// §5 measures ≈130 ms).
    pub container_create_ns: u64,
    /// Cost of signalling a ghost container's control socket and having it
    /// issue the restore request.
    pub ghost_trigger_ns: u64,
}

impl LatencyModel {
    /// The paper-calibrated default model.
    pub fn calibrated() -> Self {
        LatencyModel {
            cxl_round_trip_ns: 391,
            local_round_trip_ns: 100,
            cache_hit_ns: 4,

            // ~12.8 GB/s local stream copy; CXL page copy of 4 KiB in
            // ≈1.3 µs (§4.2.1) → ≈3.15 bytes/ns. Non-temporal streaming
            // writes run faster (~8 GB/s), which is why Mitosis (local
            // checkpoint) checkpoints only ≈1.5× faster than CXLfork
            // (CXL checkpoint) despite the latency gap (§7.1).
            local_copy_bytes_per_ns: 12.8,
            cxl_copy_bytes_per_ns: 3.15,
            cxl_write_bytes_per_ns: 8.0,

            fault_base_ns: 450,
            anon_zero_fill_ns: 400,
            tlb_shootdown_ns: 500,
            file_read_page_ns: 6_500,

            // CRIU restore of a 630 MB BERT instance takes ≈423 ms in the
            // paper; deserialization dominates.
            serialize_ns_per_byte: 1.55,
            deserialize_ns_per_byte: 0.42,
            image_file_open_ns: 25_000,

            // xxh3-class content hash out of local DRAM (~25 GB/s):
            // cheaper per page than the gather copy, so fingerprinting
            // never becomes the pipeline bottleneck stage.
            fingerprint_bytes_per_ns: 25.6,

            // Mitosis restore of BERT (≈161k PTEs) takes ≈15 ms.
            descriptor_encode_pte_ns: 35,
            descriptor_decode_pte_ns: 60,

            fork_pte_copy_ns: 9,
            fork_vma_copy_ns: 950,
            process_create_ns: 250_000,

            pt_upper_alloc_ns: 900,
            pt_leaf_attach_ns: 140,
            vma_leaf_attach_ns: 220,
            file_reopen_ns: 16_000,
            rebase_pointer_ns: 6,

            container_create_ns: 130_000_000,
            ghost_trigger_ns: 450_000,
        }
    }

    /// Starts building a model from the calibrated defaults.
    pub fn builder() -> LatencyModelBuilder {
        LatencyModelBuilder {
            model: LatencyModel::calibrated(),
        }
    }

    /// One cache-line round trip to the CXL device.
    #[inline]
    pub fn cxl_read_round_trip(&self) -> SimDuration {
        SimDuration::from_nanos(self.cxl_round_trip_ns)
    }

    /// One cache-line round trip to local DRAM.
    #[inline]
    pub fn local_read_round_trip(&self) -> SimDuration {
        SimDuration::from_nanos(self.local_round_trip_ns)
    }

    /// An LLC hit.
    #[inline]
    pub fn cache_hit(&self) -> SimDuration {
        SimDuration::from_nanos(self.cache_hit_ns)
    }

    /// Copying `bytes` between local DRAM buffers.
    pub fn local_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.local_copy_bytes_per_ns / 1e9)
    }

    /// Copying `bytes` to or from the CXL device.
    pub fn cxl_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.cxl_copy_bytes_per_ns / 1e9)
    }

    /// Streaming `bytes` *to* the CXL device with non-temporal stores
    /// (checkpoint copies, §8).
    pub fn cxl_write_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.cxl_write_bytes_per_ns / 1e9)
    }

    /// A regular local anonymous (zero-fill) fault: base + fill; the paper
    /// reports "<1 µs".
    pub fn local_anon_fault(&self) -> SimDuration {
        SimDuration::from_nanos(self.fault_base_ns + self.anon_zero_fill_ns)
    }

    /// A local copy-on-write fault: base + local page copy + TLB shootdown.
    pub fn local_cow_fault(&self) -> SimDuration {
        SimDuration::from_nanos(self.fault_base_ns + self.tlb_shootdown_ns)
            + self.local_copy(PAGE_SIZE)
    }

    /// A CXL copy-on-write fault: base + page copy over CXL + TLB shootdown.
    /// Calibrated to ≈2.5 µs (§4.2.1).
    pub fn cxl_cow_fault(&self) -> SimDuration {
        SimDuration::from_nanos(self.fault_base_ns + self.tlb_shootdown_ns)
            + self.cxl_copy(PAGE_SIZE)
    }

    /// A migrate-on-access CXL fault (same data path as a CXL CoW fault, but
    /// no pre-existing mapping to shoot down).
    pub fn cxl_pull_fault(&self) -> SimDuration {
        SimDuration::from_nanos(self.fault_base_ns) + self.cxl_copy(PAGE_SIZE)
    }

    /// A major fault reading one page from the shared root filesystem.
    pub fn file_major_fault(&self) -> SimDuration {
        SimDuration::from_nanos(self.fault_base_ns + self.file_read_page_ns)
    }

    /// A minor fault mapping an already-resident page.
    pub fn minor_fault(&self) -> SimDuration {
        SimDuration::from_nanos(self.fault_base_ns + 150)
    }

    /// Prefetching one dirty page into local memory during restore (bulk
    /// path: no trap, no per-page shootdown — the mapping is not yet live).
    pub fn prefetch_page(&self) -> SimDuration {
        self.cxl_copy(PAGE_SIZE)
    }

    /// Reading `pages` whole pages from the device as **one batched,
    /// pipelined transfer**: the first page pays the full scalar cost
    /// ([`LatencyModel::cxl_copy`] of one page, which includes the
    /// request round trip), and every further page is pipelined behind
    /// it, paying only the transfer portion (scalar cost minus one
    /// round trip). Batch-of-1 therefore costs *exactly* the scalar
    /// path, and an `n`-page batch is strictly cheaper than `n` scalar
    /// reads whenever the round trip is non-zero. Zero pages cost zero.
    ///
    /// Both terms derive from swept model fields, so the Fig. 9 latency
    /// sensitivity sweep (which scales round trip and bandwidth
    /// together) stays reproducible.
    pub fn cxl_batch_read(&self, pages: u64) -> SimDuration {
        if pages == 0 {
            return SimDuration::ZERO;
        }
        let scalar = self.cxl_copy(PAGE_SIZE);
        let pipelined = scalar.saturating_sub(self.cxl_read_round_trip());
        scalar + pipelined * (pages - 1)
    }

    /// Writing `pages` whole pages to the device as one batched
    /// non-temporal stream.
    ///
    /// Unlike [`LatencyModel::cxl_batch_read`] there is no round-trip
    /// discount to claim: the scalar write cost
    /// ([`LatencyModel::cxl_write_copy`] of one page) is *already* pure
    /// streaming bandwidth — non-temporal stores post without waiting
    /// for a per-page completion, which is why `cxl_write_bytes_per_ns`
    /// beats `cxl_copy_bytes_per_ns` in the first place. Subtracting a
    /// round trip here would double-count that pipelining and let a
    /// batch outrun the fabric's write bandwidth. An `n`-page batch
    /// therefore costs exactly `n` scalar writes (batch-of-1 ≡ scalar
    /// trivially); the batch API still wins on lock traffic and fault
    /// cadence, and the latency win lives on the read side.
    pub fn cxl_batch_write(&self, pages: u64) -> SimDuration {
        self.cxl_write_copy(PAGE_SIZE) * pages
    }

    /// Prefetching `pages` dirty pages during restore as one batched
    /// transfer (the batch form of [`LatencyModel::prefetch_page`]).
    pub fn prefetch_pages(&self, pages: u64) -> SimDuration {
        self.cxl_batch_read(pages)
    }

    /// Creating a container from scratch (≈130 ms, §5).
    pub fn container_create(&self) -> SimDuration {
        SimDuration::from_nanos(self.container_create_ns)
    }

    /// Waking a ghost container to issue a restore.
    pub fn ghost_trigger(&self) -> SimDuration {
        SimDuration::from_nanos(self.ghost_trigger_ns)
    }

    /// Fingerprinting one page of content for the content-addressed
    /// store (local DRAM hash; not a fabric operation, so the Fig. 9
    /// round-trip sweep leaves it untouched).
    pub fn fingerprint_page(&self) -> SimDuration {
        SimDuration::from_secs_f64(PAGE_SIZE as f64 / self.fingerprint_bytes_per_ns / 1e9)
    }

    /// A view of this model that costs batched transfers as `parallelism`
    /// overlapped per-shard streams instead of one serial stream. See
    /// [`PipelineModel`]; `parallelism <= 1` reproduces the serial costs
    /// bit-for-bit.
    pub fn pipeline(&self, parallelism: u32) -> PipelineModel<'_> {
        PipelineModel {
            model: self,
            parallelism,
            queue_delay: SimDuration::ZERO,
        }
    }

    /// Serializing `bytes` into an image.
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * self.serialize_ns_per_byte / 1e9)
    }

    /// Deserializing `bytes` from an image.
    pub fn deserialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * self.deserialize_ns_per_byte / 1e9)
    }
}

impl Default for LatencyModel {
    /// Same as [`LatencyModel::calibrated`].
    fn default() -> Self {
        LatencyModel::calibrated()
    }
}

/// Builder for [`LatencyModel`], starting from the calibrated defaults.
///
/// Only the knobs that experiments actually sweep get dedicated methods; for
/// anything else, mutate the built model's public fields.
#[derive(Debug, Clone)]
pub struct LatencyModelBuilder {
    model: LatencyModel,
}

impl LatencyModelBuilder {
    /// Sets the CXL round-trip latency in nanoseconds (Fig. 9 sweeps
    /// 100–400 ns). Bulk-copy bandwidth over CXL scales inversely with the
    /// round trip, anchored at the calibrated 391 ns point.
    pub fn cxl_round_trip_ns(mut self, ns: u64) -> Self {
        assert!(ns > 0, "CXL round trip must be positive");
        let calibrated = LatencyModel::calibrated();
        let scale = calibrated.cxl_round_trip_ns as f64 / ns as f64;
        self.model.cxl_round_trip_ns = ns;
        self.model.cxl_copy_bytes_per_ns = calibrated.cxl_copy_bytes_per_ns * scale;
        self.model.cxl_write_bytes_per_ns = calibrated.cxl_write_bytes_per_ns * scale;
        self
    }

    /// Finalizes the model.
    pub fn build(self) -> LatencyModel {
        self.model
    }
}

/// Costs a batched transfer as `p` overlapped per-shard streams.
///
/// The device pool is banked into shards, each with an independent port;
/// a transfer split across `p` streams finishes on the **critical path**
/// — the `max` over per-stream stage chains (gather → fingerprint/intern
/// → write on the checkpoint side, request → read on the restore side)
/// — instead of the serial sum charged by
/// [`LatencyModel::cxl_batch_write`] / [`LatencyModel::cxl_batch_read`].
///
/// The model is analytic rather than a per-assignment schedule: with
/// `active = min(p, populated shards)` streams, the bottleneck stream
/// carries at least `ceil(total / active)` pages (bandwidth floor) and at
/// least the largest single shard's count (a shard is one bank — its
/// pages cannot be split across streams). Costing that lower-bound
/// makespan keeps the cost **monotonically non-increasing in `p`**,
/// which a concrete round-robin shard→stream assignment does not
/// guarantee (e.g. shard counts `[9, 1, 1, 9]` round-robin to a
/// 10-page stream at `p = 2` but an 18-page stream at `p = 3`).
///
/// Every result is clamped from above by the serial cost, so a pipeline
/// can never lose to the single-stream model it replaces, and
/// `parallelism <= 1` short-circuits to the serial methods exactly —
/// the default configuration stays bit-identical to the pre-pipeline
/// simulation.
#[derive(Debug, Clone, Copy)]
pub struct PipelineModel<'m> {
    /// The underlying serial cost model.
    model: &'m LatencyModel,
    /// Number of concurrent shard streams the transfer may use.
    parallelism: u32,
    /// Fabric queueing delay added on top of every non-empty batch;
    /// [`SimDuration::ZERO`] (the default) leaves the model untouched.
    queue_delay: SimDuration,
}

impl<'m> PipelineModel<'m> {
    /// The configured stream count.
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// Returns the same model with a fabric queueing delay attached.
    ///
    /// The delay — typically produced by a `QueueingCurve` fed with the
    /// fabric's in-flight bytes — is added to every non-empty
    /// [`PipelineModel::batch_write`] / [`PipelineModel::batch_read`]
    /// *after* the serial clamp: contention slows pipelined and serial
    /// transfers alike, so it cannot resurrect a pipeline win the clamp
    /// already took away. `with_queue_delay(SimDuration::ZERO)` is
    /// bit-identical to not calling it.
    #[must_use]
    pub fn with_queue_delay(mut self, delay: SimDuration) -> Self {
        self.queue_delay = delay;
        self
    }

    /// The currently attached fabric queueing delay.
    pub fn queue_delay(&self) -> SimDuration {
        self.queue_delay
    }

    /// How many streams actually run for a batch with the given
    /// per-shard page counts: one per populated shard, capped at the
    /// configured parallelism, and never zero (a degenerate batch still
    /// nominally owns one stream).
    pub fn active_streams(&self, shard_counts: &[u64]) -> u64 {
        let populated = shard_counts.iter().filter(|&&n| n > 0).count() as u64;
        u64::from(self.parallelism).min(populated).max(1)
    }

    /// Pages carried by the modelled bottleneck stream: the larger of
    /// the balanced share `ceil(total / active)` and the largest single
    /// shard (one shard's pages ride one stream).
    pub fn stream_pages(&self, shard_counts: &[u64]) -> u64 {
        let total: u64 = shard_counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let active = self.active_streams(shard_counts);
        let max_shard = shard_counts.iter().copied().max().unwrap_or(0);
        total.div_ceil(active).max(max_shard)
    }

    /// A deterministic longest-processing-time assignment of shards to
    /// streams, for telemetry: each populated shard goes to the
    /// currently lightest stream (ties to the lowest stream index),
    /// heaviest shards first. Returns one load per active stream; the
    /// loads sum to the batch total. Used to label per-stream spans —
    /// the *cost* uses [`PipelineModel::stream_pages`].
    pub fn stream_loads(&self, shard_counts: &[u64]) -> Vec<u64> {
        let active = self.active_streams(shard_counts) as usize;
        let mut loads = vec![0u64; active];
        let mut shards: Vec<u64> = shard_counts.iter().copied().filter(|&n| n > 0).collect();
        shards.sort_unstable_by(|a, b| b.cmp(a));
        for n in shards {
            let lightest = (0..active).min_by_key(|&i| (loads[i], i)).unwrap_or(0);
            loads[lightest] += n;
        }
        loads
    }

    /// Critical-path cost of one checkpoint-side stream carrying
    /// `pages`: a startup round trip to claim the shard port, pipeline
    /// fill of the first page through the gather (local copy) and —
    /// when interning into the content-addressed store — fingerprint
    /// stages, then the write stage streaming every page. The write
    /// stage is the slowest per page, so steady state runs at streaming
    /// write bandwidth and the earlier stages surface only as fill.
    pub fn stream_write_cost(&self, pages: u64, fingerprint: bool) -> SimDuration {
        if pages == 0 {
            return SimDuration::ZERO;
        }
        let mut fill = self.model.cxl_read_round_trip() + self.model.local_copy(PAGE_SIZE);
        if fingerprint {
            fill += self.model.fingerprint_page();
        }
        fill + self.model.cxl_batch_write(pages)
    }

    /// Critical-path cost of one restore-side stream reading `pages`:
    /// exactly the serial batched read, whose first-page scalar cost
    /// already includes the stream's startup round trip.
    pub fn stream_read_cost(&self, pages: u64) -> SimDuration {
        self.model.cxl_batch_read(pages)
    }

    /// Cost of writing a batch whose pages land on shards with the
    /// given per-shard counts, split across up to `parallelism`
    /// streams. `fingerprint` charges the intern path's content-hash
    /// stage. Zero pages cost zero; `parallelism <= 1` is the serial
    /// model exactly; otherwise the bottleneck stream's critical path,
    /// never exceeding the serial cost.
    pub fn batch_write(&self, shard_counts: &[u64], fingerprint: bool) -> SimDuration {
        let total: u64 = shard_counts.iter().sum();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let serial = self.model.cxl_batch_write(total);
        if self.parallelism <= 1 {
            return serial + self.queue_delay;
        }
        serial.min(self.stream_write_cost(self.stream_pages(shard_counts), fingerprint))
            + self.queue_delay
    }

    /// Cost of reading a batch whose pages land on shards with the
    /// given per-shard counts, split across up to `parallelism`
    /// streams. Zero pages cost zero; `parallelism <= 1` is the serial
    /// model exactly; otherwise the bottleneck stream's critical path,
    /// never exceeding the serial cost.
    pub fn batch_read(&self, shard_counts: &[u64]) -> SimDuration {
        let total: u64 = shard_counts.iter().sum();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let serial = self.model.cxl_batch_read(total);
        if self.parallelism <= 1 {
            return serial + self.queue_delay;
        }
        serial.min(self.stream_read_cost(self.stream_pages(shard_counts))) + self.queue_delay
    }
}

/// Maximum utilization the queueing denominator may see; past this the
/// convex `1 / (1 - u)` term is frozen so delays stay finite while the
/// linear service term keeps the curve strictly increasing.
const MAX_QUEUE_UTILIZATION: f64 = 0.95;

/// Deterministic queueing-delay curve for one fabric port or switch
/// link.
///
/// The curve maps in-flight bytes (bytes recorded against the link
/// inside the current sliding virtual-time window) to extra transfer
/// latency:
///
/// ```text
/// delay(b) = (b / bytes_per_ns) / (1 - min(b / capacity, 0.95))
/// capacity = bytes_per_ns * window_ns
/// ```
///
/// The first factor is the time the in-flight backlog needs to drain at
/// link bandwidth; the second is the standard M/M/1-style convex
/// blow-up as the window saturates, clamped at 95% utilization so the
/// delay stays finite. Two properties the fabric relies on, both
/// property-tested:
///
/// * `delay(0) == 0` **exactly** — an uncontended fabric reduces to the
///   flat calibrated round-trip model bit-for-bit;
/// * `delay` is strictly monotone in `b` — more in-flight bytes never
///   make a transfer faster (past the clamp the linear drain term still
///   grows).
///
/// All arithmetic is straight-line `f64` on explicit inputs (no
/// wall-clock, no RNG), so same-seed runs are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingCurve {
    /// Link drain bandwidth in bytes per virtual nanosecond.
    bytes_per_ns: f64,
    /// Width of the sliding accounting window in virtual nanoseconds.
    window_ns: u64,
}

impl QueueingCurve {
    /// Builds a curve for a link draining `bytes_per_ns` over a
    /// `window_ns`-wide accounting window.
    ///
    /// # Panics
    /// If `bytes_per_ns` is not strictly positive and finite, or
    /// `window_ns` is zero.
    pub fn new(bytes_per_ns: f64, window_ns: u64) -> Self {
        assert!(
            bytes_per_ns.is_finite() && bytes_per_ns > 0.0,
            "queueing curve needs positive finite bandwidth, got {bytes_per_ns}"
        );
        assert!(window_ns > 0, "queueing curve needs a non-empty window");
        QueueingCurve {
            bytes_per_ns,
            window_ns,
        }
    }

    /// The window capacity: bytes the link drains in one full window.
    pub fn capacity_bytes(&self) -> u64 {
        let cap = self.bytes_per_ns * self.window_ns as f64;
        if cap >= u64::MAX as f64 {
            u64::MAX
        } else {
            cap as u64
        }
    }

    /// Queueing delay seen by a transfer that finds `inflight_bytes`
    /// already recorded against the link in the current window. Zero
    /// in-flight bytes cost exactly zero.
    pub fn delay(&self, inflight_bytes: u64) -> SimDuration {
        if inflight_bytes == 0 {
            return SimDuration::ZERO;
        }
        let capacity = self.bytes_per_ns * self.window_ns as f64;
        let service_ns = inflight_bytes as f64 / self.bytes_per_ns;
        let utilization = (inflight_bytes as f64 / capacity).min(MAX_QUEUE_UTILIZATION);
        SimDuration::from_secs_f64(service_ns / (1.0 - utilization) / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_matches_paper_headline_numbers() {
        let m = LatencyModel::calibrated();
        // §6.1: 391 ns CXL round trip.
        assert_eq!(m.cxl_read_round_trip().as_nanos(), 391);
        // §4.2.1: CXL CoW fault ≈2.5 µs with ≈1.3 µs data movement and
        // ≈500 ns TLB shootdown.
        let cow = m.cxl_cow_fault().as_nanos();
        assert!((2_200..=2_800).contains(&cow), "CXL CoW fault {cow} ns");
        let data = m.cxl_copy(PAGE_SIZE).as_nanos();
        assert!((1_150..=1_450).contains(&data), "CXL page copy {data} ns");
        // §4.2.1: regular local anonymous fault < 1 µs.
        assert!(m.local_anon_fault().as_nanos() < 1_000);
        // §5: container creation ≈130 ms.
        assert_eq!(m.container_create().as_millis(), 130);
    }

    #[test]
    fn criu_deserialize_rate_matches_bert_restore() {
        // BERT is 630 MB and CRIU restore takes ≈423 ms (Fig. 7a); our
        // per-byte deserialize + local copy should land in the same decade.
        let m = LatencyModel::calibrated();
        let bytes = 630u64 * 1024 * 1024;
        let t = m.deserialize(bytes) + m.local_copy(bytes);
        let ms = t.as_millis();
        assert!((250..=500).contains(&ms), "BERT CRIU restore model {ms} ms");
    }

    #[test]
    fn builder_scales_cxl_copy_bandwidth_with_latency() {
        let fast = LatencyModel::builder().cxl_round_trip_ns(100).build();
        let slow = LatencyModel::builder().cxl_round_trip_ns(400).build();
        assert!(fast.cxl_copy(PAGE_SIZE) < slow.cxl_copy(PAGE_SIZE));
        assert_eq!(fast.cxl_read_round_trip().as_nanos(), 100);
        // At 100 ns the device behaves nearly like local DRAM.
        let local = LatencyModel::calibrated().local_copy(PAGE_SIZE);
        assert!(fast.cxl_copy(PAGE_SIZE) < local * 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_zero_latency() {
        let _ = LatencyModel::builder().cxl_round_trip_ns(0);
    }

    #[test]
    fn batch_of_one_costs_exactly_the_scalar_path() {
        // The batched-transfer contract: a batch of one page must be
        // virtual-time-identical to the pre-batch scalar cost, across the
        // whole Fig. 9 sweep range.
        for rt in [100u64, 200, 391, 400] {
            let m = LatencyModel::builder().cxl_round_trip_ns(rt).build();
            assert_eq!(m.cxl_batch_read(1), m.cxl_copy(PAGE_SIZE), "rt={rt}");
            assert_eq!(m.cxl_batch_write(1), m.cxl_write_copy(PAGE_SIZE), "rt={rt}");
            assert_eq!(m.prefetch_pages(1), m.prefetch_page(), "rt={rt}");
        }
    }

    #[test]
    fn batched_transfers_pipeline_strictly_cheaper() {
        let m = LatencyModel::calibrated();
        for n in [2u64, 8, 64, 1024] {
            assert!(
                m.cxl_batch_read(n) < m.cxl_copy(PAGE_SIZE) * n,
                "batch read of {n} not cheaper than {n} scalar reads"
            );
            // Writes are bandwidth-bound either way: the non-temporal
            // stream never paid a per-page round trip, so a batch costs
            // exactly n scalar writes — never less.
            assert_eq!(m.cxl_batch_write(n), m.cxl_write_copy(PAGE_SIZE) * n);
            // Still monotone: more pages never cost less.
            assert!(m.cxl_batch_read(n) > m.cxl_batch_read(n - 1));
        }
        assert_eq!(m.cxl_batch_read(0), SimDuration::ZERO);
        assert_eq!(m.cxl_batch_write(0), SimDuration::ZERO);
        // Exact shape: scalar + (n-1) * (scalar - round trip).
        let scalar = m.cxl_copy(PAGE_SIZE);
        let pipelined = scalar - m.cxl_read_round_trip();
        assert_eq!(m.cxl_batch_read(5), scalar + pipelined * 4);
    }

    /// Shard-count partitions exercised by the pipeline property tests:
    /// balanced, skewed, single-shard, adversarial (the round-robin
    /// counterexample), sparse, and tiny.
    const PARTITIONS: [&[u64]; 8] = [
        &[64, 64, 64, 64, 64, 64, 64, 64],
        &[1000, 1, 1, 1],
        &[1000],
        &[9, 1, 1, 9],
        &[0, 0, 512, 0, 0, 512, 0, 0],
        &[1],
        &[3, 7],
        &[17, 0, 17, 0, 17, 0, 17, 0, 17, 0, 17, 0, 17, 0, 17, 0],
    ];

    #[test]
    fn pipeline_p1_is_bit_identical_to_serial() {
        // The knob's default must not move a single nanosecond, across
        // the whole Fig. 9 sweep and for p = 0 (treated as serial).
        for rt in [100u64, 200, 391, 400] {
            let m = LatencyModel::builder().cxl_round_trip_ns(rt).build();
            for counts in PARTITIONS {
                let total: u64 = counts.iter().sum();
                for p in [0u32, 1] {
                    let pl = m.pipeline(p);
                    for fp in [false, true] {
                        assert_eq!(pl.batch_write(counts, fp), m.cxl_batch_write(total));
                    }
                    assert_eq!(pl.batch_read(counts), m.cxl_batch_read(total));
                }
            }
        }
    }

    #[test]
    fn pipeline_cost_is_monotone_non_increasing_in_p() {
        let m = LatencyModel::calibrated();
        for counts in PARTITIONS {
            for fp in [false, true] {
                let mut prev_w = SimDuration::MAX;
                let mut prev_r = SimDuration::MAX;
                for p in 1..=32u32 {
                    let pl = m.pipeline(p);
                    let w = pl.batch_write(counts, fp);
                    let r = pl.batch_read(counts);
                    assert!(w <= prev_w, "write cost rose at p={p} for {counts:?}");
                    assert!(r <= prev_r, "read cost rose at p={p} for {counts:?}");
                    prev_w = w;
                    prev_r = r;
                }
            }
        }
    }

    #[test]
    fn pipeline_never_beats_streaming_bandwidth_floor() {
        // The PR 4 invariant that keeps the Mitosis < CXLfork checkpoint
        // ordering honest: the critical path can never outrun the
        // fabric's streaming bandwidth on the pages one stream must
        // carry — at least ceil(total / p) of them, and at least the
        // largest single shard (a shard is one bank).
        let m = LatencyModel::calibrated();
        for counts in PARTITIONS {
            let total: u64 = counts.iter().sum();
            let max_shard = counts.iter().copied().max().unwrap();
            for p in 1..=32u32 {
                let pl = m.pipeline(p);
                let floor_share = m.cxl_batch_write(total.div_ceil(u64::from(p)));
                let floor_shard = m.cxl_batch_write(max_shard);
                let w = pl.batch_write(counts, true);
                assert!(w >= floor_share, "p={p} {counts:?} beats balanced share");
                assert!(w >= floor_shard, "p={p} {counts:?} splits a shard bank");
                // And never worse than the serial model it replaces.
                assert!(w <= m.cxl_batch_write(total));
                assert!(pl.batch_read(counts) <= m.cxl_batch_read(total));
            }
        }
    }

    #[test]
    fn pipeline_batch_of_zero_is_free_and_batch_of_one_is_scalar() {
        let m = LatencyModel::calibrated();
        for p in [1u32, 2, 4, 8, 16] {
            let pl = m.pipeline(p);
            for counts in [&[][..], &[0, 0, 0][..]] {
                assert_eq!(pl.batch_write(counts, true), SimDuration::ZERO);
                assert_eq!(pl.batch_read(counts), SimDuration::ZERO);
            }
            // One page cannot pipeline: extra streams only add startup
            // cost, so the serial clamp keeps batch-of-1 ≡ scalar.
            assert_eq!(
                pl.batch_write(&[0, 1, 0], false),
                m.cxl_write_copy(PAGE_SIZE)
            );
            assert_eq!(pl.batch_read(&[0, 1, 0]), m.cxl_copy(PAGE_SIZE));
        }
    }

    #[test]
    fn pipeline_stream_accounting_is_consistent() {
        let m = LatencyModel::calibrated();
        for counts in PARTITIONS {
            let total: u64 = counts.iter().sum();
            let populated = counts.iter().filter(|&&n| n > 0).count() as u64;
            for p in 1..=20u32 {
                let pl = m.pipeline(p);
                let active = pl.active_streams(counts);
                assert_eq!(active, u64::from(p).min(populated).max(1));
                let loads = pl.stream_loads(counts);
                assert_eq!(loads.len() as u64, active);
                assert_eq!(loads.iter().sum::<u64>(), total);
                // The modelled bottleneck is an optimistic makespan
                // bound: no concrete assignment — including the greedy
                // one the telemetry reports — can load its heaviest
                // stream below it.
                assert!(loads.iter().copied().max().unwrap() >= pl.stream_pages(counts));
            }
        }
    }

    #[test]
    fn pipeline_fingerprint_stage_is_fill_only() {
        // Fingerprinting is cheaper per page than the write stage, so it
        // must surface as pipeline fill (one page's hash), not as a
        // per-page charge on the critical path.
        let m = LatencyModel::calibrated();
        assert!(m.fingerprint_page() < m.cxl_write_copy(PAGE_SIZE));
        assert!(m.fingerprint_page() < m.local_copy(PAGE_SIZE));
        let pl = m.pipeline(8);
        let counts = [64u64; 8];
        let plain = pl.batch_write(&counts, false);
        let interned = pl.batch_write(&counts, true);
        assert!(interned >= plain);
        assert!(interned - plain <= m.fingerprint_page());
        // Sweeping the fabric latency must leave the local hash alone.
        let fast = LatencyModel::builder().cxl_round_trip_ns(100).build();
        assert_eq!(fast.fingerprint_page(), m.fingerprint_page());
    }

    #[test]
    fn pipeline_speedup_shows_up_at_scale() {
        // The headline the ablation bench reproduces: a large balanced
        // batch over 8 shards gets close to 8x cheaper at p = 8, and
        // extra streams beyond the populated shard count change nothing.
        let m = LatencyModel::calibrated();
        let counts = [4096u64; 8];
        let total: u64 = counts.iter().sum();
        let serial = m.cxl_batch_write(total);
        let p8 = m.pipeline(8).batch_write(&counts, false);
        assert!(p8 * 7 < serial, "p=8 speedup below 7x on a balanced batch");
        assert!(p8 * 9 > serial, "p=8 speedup above 9x is impossible");
        assert_eq!(p8, m.pipeline(16).batch_write(&counts, false));
    }

    #[test]
    fn fault_ordering_is_sane() {
        let m = LatencyModel::calibrated();
        assert!(m.minor_fault() < m.local_anon_fault());
        assert!(m.local_anon_fault() < m.cxl_cow_fault());
        assert!(m.local_cow_fault() < m.cxl_cow_fault());
        assert!(m.cxl_pull_fault() < m.cxl_cow_fault());
        assert!(m.cache_hit() < m.local_read_round_trip());
        assert!(m.local_read_round_trip() < m.cxl_read_round_trip());
    }

    #[test]
    fn queueing_zero_load_is_exactly_zero() {
        // The calibration contract: an uncontended fabric adds nothing,
        // so the flat 391 ns model survives bit-for-bit.
        let m = LatencyModel::calibrated();
        let curve = QueueingCurve::new(m.cxl_write_bytes_per_ns, 1_000_000);
        assert_eq!(curve.delay(0), SimDuration::ZERO);
        // And threading a zero delay through the pipeline is identity.
        for counts in PARTITIONS {
            for p in [1, 2, 8, 16] {
                let plain = m.pipeline(p);
                let zeroed = plain.with_queue_delay(SimDuration::ZERO);
                assert_eq!(
                    plain.batch_write(counts, true),
                    zeroed.batch_write(counts, true)
                );
                assert_eq!(plain.batch_read(counts), zeroed.batch_read(counts));
            }
        }
    }

    #[test]
    fn queueing_delay_is_strictly_monotone_in_inflight_bytes() {
        let m = LatencyModel::calibrated();
        let curve = QueueingCurve::new(m.cxl_write_bytes_per_ns, 1_000_000);
        let capacity = curve.capacity_bytes();
        // Sweep from far below to far beyond the utilization clamp:
        // delay never decreases at any step (ties are allowed below the
        // 1 ns resolution of `SimDuration`) ...
        let mut prev = curve.delay(0);
        let mut b = 1u64;
        while b < capacity * 4 {
            let d = curve.delay(b);
            assert!(
                d >= prev,
                "delay({b}) = {d:?} below delay at previous point {prev:?}"
            );
            prev = d;
            b = b * 3 + 1;
        }
        // ... and strictly increases across resolution-sized steps,
        // including past the utilization clamp where only the linear
        // drain term grows.
        let coarse = [
            capacity / 100,
            capacity / 10,
            capacity / 2,
            capacity,
            capacity * 2,
            capacity * 8,
        ];
        for pair in coarse.windows(2) {
            assert!(
                curve.delay(pair[1]) > curve.delay(pair[0]),
                "delay not strictly increasing from {} to {} bytes",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn queueing_delay_is_finite_at_and_past_saturation() {
        let curve = QueueingCurve::new(8.0, 1_000_000);
        let capacity = curve.capacity_bytes();
        for b in [capacity, capacity * 2, capacity * 100] {
            let d = curve.delay(b);
            assert!(d > SimDuration::ZERO && d < SimDuration::MAX);
        }
        // At the clamp the convex factor is 1/(1-0.95) = 20x the drain.
        let drain_ns = capacity as f64 / 8.0;
        let at_cap = curve.delay(capacity).as_nanos() as f64;
        assert!((at_cap - drain_ns * 20.0).abs() < drain_ns * 0.01);
    }

    #[test]
    fn queueing_pipeline_delay_is_additive_after_the_serial_clamp() {
        let m = LatencyModel::calibrated();
        let delay = SimDuration::from_nanos(12_345);
        for counts in PARTITIONS {
            for p in [1, 2, 8] {
                let plain = m.pipeline(p);
                let delayed = plain.with_queue_delay(delay);
                let total: u64 = counts.iter().sum();
                for (base, with) in [
                    (
                        plain.batch_write(counts, false),
                        delayed.batch_write(counts, false),
                    ),
                    (plain.batch_read(counts), delayed.batch_read(counts)),
                ] {
                    if total == 0 {
                        // Empty batches stay free even under contention.
                        assert_eq!(with, SimDuration::ZERO);
                    } else {
                        assert_eq!(with, base + delay);
                    }
                }
            }
        }
    }
}
