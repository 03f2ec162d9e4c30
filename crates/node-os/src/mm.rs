//! Address spaces and the page-fault state machine.
//!
//! [`AddressSpace`] combines a [`PageTable`] and a [`VmaTree`] and
//! implements every fault flavour the paper's evaluation accounts for
//! (Fig. 7a "Page Faults" bars, §4.2.1 microcosts):
//!
//! * **anonymous zero-fill** — first touch of heap/stack pages (<1 µs);
//! * **file major / minor** — faulting private file mappings from the
//!   shared root fs (major) or the warm page cache (minor);
//! * **local CoW** — post-`fork` copy-on-write within a node;
//! * **CXL CoW** — store to a checkpointed page mapped read-only from CXL:
//!   copy to local memory + TLB shootdown (≈2.5 µs), the *migrate-on-write*
//!   path (§4.3);
//! * **CXL pull** — *migrate-on-access*: copy on any first touch (Mitosis
//!   and the MoA tiering policy);
//! * **page-table leaf CoW** — an update to an attached checkpoint leaf
//!   copies the whole 512-entry leaf first (§4.2.1);
//! * **VMA-block CoW** — on-demand reconstruction of checkpointed VMA
//!   blocks, re-registering file-system callbacks for file VMAs (§4.2.1).
//!
//! Every successful access additionally passes through the node's LLC
//! model and is charged the local-DRAM or CXL round trip on a miss — the
//! mechanism behind the warm-execution tiering results (Fig. 8b).

use std::sync::Arc;

use simclock::{LatencyModel, SimDuration};

use cxl_mem::{CxlDevice, CxlPageId, NodeId, PageData};

use crate::addr::{PhysAddr, VirtPageNum};
use crate::cache::LlcCache;
use crate::error::OsError;
use crate::frame::FrameAllocator;
use crate::fs::SharedFs;
use crate::page_table::PageTable;
use crate::pagecache::PageCache;
use crate::pte::{Pte, PteFlags};
use crate::vma::{Protection, Vma, VmaTree};

/// Extra software flag: this local frame was allocated by (and is private
/// to) this address space, and counts toward its local-memory consumption.
pub(crate) const PRIVATE: PteFlags = PteFlags::from_bits(1 << 9);

/// The kind of memory access being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// How an address space treats first accesses to CXL-checkpointed pages
/// (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CxlTierPolicy {
    /// No checkpoint backing: ordinary local process.
    #[default]
    LocalOnly,
    /// Migrate-on-write: reads go straight to CXL, stores copy the page to
    /// local memory (CXLfork's default).
    MigrateOnWrite,
    /// Migrate-on-access: any first touch copies the page to local memory
    /// (Mitosis semantics / the MoA policy).
    MigrateOnAccess,
    /// Hybrid: pages whose checkpointed A bit was set migrate on first
    /// access; the rest stay in CXL until written.
    Hybrid,
}

/// Where a checkpointed page's content can be pulled from.
#[derive(Debug, Clone)]
pub enum BackingSource {
    /// A page resident on the shared CXL device (CXLfork checkpoints).
    Device(CxlPageId),
    /// A page resident in another node's memory, fetched with a
    /// store-then-load pair of copies over the CXL fabric (the Mitosis-CXL
    /// adaptation, §6.2: "each 'remote' fault thus includes the latency to
    /// store and fetch data from CXL memory").
    Remote(Arc<PageData>),
}

/// A per-page record of the checkpoint backing an address space restored
/// with a non-attached policy (migrate-on-access).
#[derive(Debug, Clone)]
pub struct BackingPage {
    /// Where the checkpointed page's content lives.
    pub source: BackingSource,
    /// Checkpointed A bit.
    pub accessed: bool,
    /// Checkpointed D bit.
    pub dirty: bool,
    /// Whether the page backs a private file mapping.
    pub file_backed: bool,
}

/// The vpn → checkpointed-page map used by pull-based restore policies:
/// `(vpn, page)` pairs sorted by vpn. A checkpoint fills it in ascending
/// vpn order (one append per page, into an allocation sized up front);
/// lookups are a binary search.
#[derive(Debug, Default, Clone)]
pub struct CxlBacking {
    pages: Vec<(u64, BackingPage)>,
}

impl CxlBacking {
    /// An empty backing map.
    pub fn new() -> Self {
        CxlBacking::default()
    }

    /// An empty backing map with room for exactly `pages` entries.
    pub fn with_capacity(pages: usize) -> Self {
        CxlBacking {
            pages: Vec::with_capacity(pages),
        }
    }

    /// Registers the checkpointed page for `vpn`, replacing an earlier
    /// registration of the same vpn.
    pub fn insert(&mut self, vpn: VirtPageNum, page: BackingPage) {
        if self.pages.last().is_none_or(|(last, _)| *last < vpn.0) {
            self.pages.push((vpn.0, page));
            return;
        }
        match self.pages.binary_search_by_key(&vpn.0, |(v, _)| *v) {
            Ok(at) => self.pages[at].1 = page,
            Err(at) => self.pages.insert(at, (vpn.0, page)),
        }
    }

    /// Looks up the checkpointed page for `vpn`.
    pub fn get(&self, vpn: VirtPageNum) -> Option<BackingPage> {
        let at = self.pages.binary_search_by_key(&vpn.0, |(v, _)| *v).ok()?;
        Some(self.pages[at].1.clone())
    }

    /// Number of backed pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` if no pages are backed.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterates `(vpn, backing)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPageNum, BackingPage)> + '_ {
        self.pages.iter().map(|(v, b)| (VirtPageNum(*v), b.clone()))
    }
}

/// The fault type resolved during an access, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Write-protect fault resolved in place (sole CoW owner): no copy.
    UpgradeInPlace,
    /// Anonymous zero-fill.
    AnonZeroFill,
    /// File page read from the shared root filesystem.
    FileMajor,
    /// File page found in the (modelled) page cache.
    FileMinor,
    /// Copy-on-write from a local frame.
    LocalCow,
    /// Copy-on-write from a CXL page (migrate-on-write).
    CxlCow,
    /// Migrate-on-access pull from a CXL page.
    CxlPull,
    /// Migrate-on-access pull from another node's memory via a
    /// store+fetch pair over CXL (Mitosis-CXL remote fault).
    RemotePull,
}

impl FaultKind {
    /// Stable counter name for this fault kind.
    pub fn counter_name(self) -> &'static str {
        match self {
            FaultKind::UpgradeInPlace => "fault_upgrade_in_place",
            FaultKind::AnonZeroFill => "fault_anon_zero_fill",
            FaultKind::FileMajor => "fault_file_major",
            FaultKind::FileMinor => "fault_file_minor",
            FaultKind::LocalCow => "fault_local_cow",
            FaultKind::CxlCow => "fault_cxl_cow",
            FaultKind::CxlPull => "fault_cxl_pull",
            FaultKind::RemotePull => "fault_remote_pull",
        }
    }
}

/// Result of one simulated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The fault taken, if any.
    pub fault: Option<FaultKind>,
    /// Total modelled cost (fault + memory access).
    pub cost: SimDuration,
    /// Fault-only portion of the cost.
    pub fault_cost: SimDuration,
    /// Whether the LLC intercepted the access.
    pub cache_hit: bool,
    /// Whether the (post-fault) data lives on the CXL tier.
    pub cxl_tier: bool,
    /// Whether a page-table leaf CoW happened on the way.
    pub pt_leaf_cow: bool,
    /// Whether a VMA block was reconstructed on the way.
    pub vma_block_cow: bool,
    /// Transient CXL link errors retried away during the access (their
    /// backoff delay is already included in `cost`).
    pub retries: u32,
}

/// Borrowed node resources a fault needs.
///
/// `Node` assembles this from its fields; tests can construct one from
/// standalone parts.
pub struct MmContext<'a> {
    /// The node's frame allocator.
    pub frames: &'a mut FrameAllocator,
    /// The node's LLC model.
    pub cache: &'a mut LlcCache,
    /// The shared CXL device.
    pub device: &'a CxlDevice,
    /// The shared root filesystem.
    pub rootfs: &'a SharedFs,
    /// The latency model.
    pub model: &'a LatencyModel,
    /// The node's page cache for file-backed pages.
    pub page_cache: &'a mut PageCache,
    /// The node's fabric id.
    pub node: NodeId,
}

/// Result of a batched page fill ([`AddressSpace::fill_pages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FillOutcome {
    /// Pages installed as private local mappings.
    pub installed: u64,
    /// Attached checkpoint leaves copied locally on the way (each costs
    /// one CXL leaf read, charged by the caller).
    pub leaf_cows: u64,
}

/// A process address space.
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// The 4-level page table.
    pub page_table: PageTable,
    /// The VMA tree.
    pub vmas: VmaTree,
    policy: CxlTierPolicy,
    backing: Option<Arc<CxlBacking>>,
    private_local_pages: u64,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// The active tiering policy.
    pub fn policy(&self) -> CxlTierPolicy {
        self.policy
    }

    /// Sets the tiering policy (restore code and CXLporter use this).
    pub fn set_policy(&mut self, policy: CxlTierPolicy) {
        self.policy = policy;
    }

    /// Installs the checkpoint backing map for pull-based policies.
    pub fn set_backing(&mut self, backing: Arc<CxlBacking>) {
        self.backing = Some(backing);
    }

    /// The installed backing map, if any.
    pub fn backing(&self) -> Option<&Arc<CxlBacking>> {
        self.backing.as_ref()
    }

    /// Local frames privately allocated by this address space — the
    /// "local memory consumption" metric of Fig. 7b.
    pub fn private_local_pages(&self) -> u64 {
        self.private_local_pages
    }

    /// Counts one externally allocated private frame against this address
    /// space (restore paths that install frames directly use this).
    pub fn note_private_page(&mut self) {
        self.private_local_pages += 1;
    }

    /// Counts all present local mappings (private or CoW-shared).
    pub fn mapped_local_pages(&self) -> u64 {
        self.page_table
            .iter_populated()
            .iter()
            .filter(|(_, pte)| pte.is_present() && matches!(pte.target(), Some(PhysAddr::Local(_))))
            .count() as u64
    }

    /// Counts present mappings that point at the CXL tier.
    pub fn mapped_cxl_pages(&self) -> u64 {
        self.page_table
            .iter_populated()
            .iter()
            .filter(|(_, pte)| pte.is_present() && matches!(pte.target(), Some(PhysAddr::Cxl(_))))
            .count() as u64
    }

    /// Adds an anonymous VMA of `pages` pages starting at `start_vpn`.
    ///
    /// # Errors
    ///
    /// [`OsError::MappingOverlap`] if the range intersects an existing
    /// VMA.
    pub fn map_anonymous(
        &mut self,
        start_vpn: u64,
        pages: u64,
        prot: Protection,
        label: &str,
    ) -> Result<(), OsError> {
        self.vmas
            .insert(Vma::anonymous(start_vpn, start_vpn + pages, prot, label))?;
        Ok(())
    }

    /// Adds a private file mapping of `pages` pages starting at
    /// `start_vpn`.
    ///
    /// # Errors
    ///
    /// [`OsError::MappingOverlap`] if the range intersects an existing
    /// VMA.
    pub fn map_file(
        &mut self,
        start_vpn: u64,
        pages: u64,
        prot: Protection,
        path: &str,
        file_start_page: u64,
    ) -> Result<(), OsError> {
        self.vmas.insert(Vma::file(
            start_vpn,
            start_vpn + pages,
            prot,
            path,
            file_start_page,
        ))?;
        Ok(())
    }

    /// Installs a mapping directly (restore and prefetch paths). If
    /// `private` the page counts toward this space's local consumption.
    pub fn install_mapping(
        &mut self,
        vpn: VirtPageNum,
        target: PhysAddr,
        flags: PteFlags,
        private: bool,
    ) {
        let flags = if private { flags.union(PRIVATE) } else { flags };
        self.page_table.set(vpn, Pte::mapped(target, flags));
        if private {
            self.private_local_pages += 1;
        }
    }

    /// Installs a batch of prefetched pages as private local mappings in
    /// one sweep (the restore dirty-prefetch path). Each page allocates a
    /// local frame for `data` and maps it with `flags`; leaf CoWs taken
    /// on the way are counted so the caller can charge them.
    ///
    /// On frame exhaustion the fill stops with [`OsError::OutOfMemory`];
    /// pages installed before the failure stay mapped (restore rolls the
    /// whole process back on error).
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] if a frame allocation fails mid-batch.
    pub fn fill_pages(
        &mut self,
        pages: impl IntoIterator<Item = (VirtPageNum, PageData)>,
        flags: PteFlags,
        ctx: &mut MmContext<'_>,
    ) -> Result<FillOutcome, OsError> {
        let mut out = FillOutcome::default();
        for (vpn, data) in pages {
            let pfn = ctx.frames.alloc(data)?;
            let set = self
                .page_table
                .set(vpn, Pte::mapped(PhysAddr::Local(pfn), flags | PRIVATE));
            self.private_local_pages += 1;
            out.installed += 1;
            if set.leaf_cow {
                out.leaf_cows += 1;
            }
        }
        Ok(out)
    }

    /// The translation for `vpn` ([`Pte::EMPTY`] if unmapped).
    pub fn translate(&self, vpn: VirtPageNum) -> Pte {
        self.page_table.get(vpn)
    }

    /// Simulates one access to `vpn`, resolving any fault, charging the
    /// cache and memory tier, and updating A/D bits.
    ///
    /// # Errors
    ///
    /// * [`OsError::BadAddress`] — no VMA covers `vpn`.
    /// * [`OsError::ProtectionViolation`] — e.g. store to read-only VMA.
    /// * [`OsError::OutOfMemory`] — a fault needed a local frame and the
    ///   node is full.
    pub fn access(
        &mut self,
        vpn: VirtPageNum,
        access: Access,
        ctx: &mut MmContext<'_>,
    ) -> Result<AccessOutcome, OsError> {
        let mut outcome = AccessOutcome {
            fault: None,
            cost: SimDuration::ZERO,
            fault_cost: SimDuration::ZERO,
            cache_hit: false,
            cxl_tier: false,
            pt_leaf_cow: false,
            vma_block_cow: false,
            retries: 0,
        };

        let pte = self.page_table.get(vpn);
        let needs_fault = !pte.is_present() || (access == Access::Write && !pte.is_writable());
        if needs_fault {
            self.handle_fault(vpn, access, pte, ctx, &mut outcome)?;
        }

        // Post-fault (or fault-free) data access.
        let final_pte = self.page_table.get(vpn);
        let target = final_pte
            .target()
            .unwrap_or_else(|| panic!("present pte without target at {vpn}"));
        outcome.cxl_tier = target.is_cxl();
        let hit = ctx.cache.access(target);
        outcome.cache_hit = hit;
        let mem_cost = if hit {
            ctx.model.cache_hit()
        } else if target.is_cxl() {
            ctx.model.cxl_read_round_trip()
        } else {
            ctx.model.local_read_round_trip()
        };
        outcome.cost += mem_cost;

        // A/D bit maintenance (works on attached leaves for A).
        self.page_table.mark_accessed(vpn);
        if access == Access::Write {
            self.page_table.mark_dirty(vpn);
        }
        Ok(outcome)
    }

    /// Resolves a fault at `vpn`. On return the PTE is present and (for
    /// writes) writable.
    fn handle_fault(
        &mut self,
        vpn: VirtPageNum,
        access: Access,
        pte: Pte,
        ctx: &mut MmContext<'_>,
        outcome: &mut AccessOutcome,
    ) -> Result<(), OsError> {
        // Any fault in an attached VMA block first reconstructs that block
        // locally (copy + re-register fs callbacks for file VMAs, §4.2.1).
        let vma_touch = self.vmas.ensure_local(vpn);
        if vma_touch.block_cow {
            outcome.vma_block_cow = true;
            let mut cost = ctx.model.cxl_copy(crate::PAGE_SIZE);
            let is_file_vma = self
                .vmas
                .find(vpn)
                .map(|v| v.kind.is_file())
                .unwrap_or(false);
            if is_file_vma {
                cost += SimDuration::from_nanos(ctx.model.file_reopen_ns);
            }
            outcome.fault_cost += cost;
            outcome.cost += cost;
        }

        let vma = self
            .vmas
            .find(vpn)
            .cloned()
            .ok_or(OsError::BadAddress(vpn))?;
        if access == Access::Write && !vma.prot.write {
            return Err(OsError::ProtectionViolation(vpn));
        }

        let (kind, new_pte) = if pte.is_present() {
            // Write to a present, non-writable page: CoW or upgrade.
            debug_assert_eq!(access, Access::Write);
            if !(pte.is_cow() || vma.prot.write) {
                return Err(OsError::ProtectionViolation(vpn));
            }
            match pte.target().expect("present pte has a target") {
                PhysAddr::Local(pfn) => {
                    if ctx.frames.refcount(pfn) > 1 {
                        let copy = ctx.frames.duplicate(pfn)?;
                        ctx.frames.dec_ref(pfn);
                        self.private_local_pages += 1;
                        (
                            FaultKind::LocalCow,
                            Pte::mapped(
                                PhysAddr::Local(copy),
                                base_flags(&vma) | PteFlags::DIRTY | PRIVATE,
                            ),
                        )
                    } else {
                        // Sole owner: upgrade in place.
                        (
                            FaultKind::UpgradeInPlace,
                            pte.with_flags(PteFlags::WRITABLE | PteFlags::DIRTY)
                                .without_flags(PteFlags::COW),
                        )
                    }
                }
                PhysAddr::Cxl(page) => {
                    // Migrate-on-write: copy the checkpointed page locally.
                    let data = Self::read_cxl_page(ctx.device, ctx.node, page, outcome)?;
                    let pfn = ctx.frames.alloc(data)?;
                    self.private_local_pages += 1;
                    (
                        FaultKind::CxlCow,
                        Pte::mapped(
                            PhysAddr::Local(pfn),
                            base_flags(&vma) | PteFlags::DIRTY | PRIVATE,
                        ),
                    )
                }
            }
        } else if let Some(target) = pte.target() {
            // Armed (fetch-on-access) entry: hybrid tiering's hot page.
            let PhysAddr::Cxl(page) = target else {
                unreachable!("armed entries always point at CXL")
            };
            self.pull_page(BackingSource::Device(page), access, &vma, ctx, outcome)?
        } else if let Some(b) = self.backing_for(vpn) {
            // Pull policy (migrate-on-access): copy on first touch.
            self.pull_page(b.source, access, &vma, ctx, outcome)?
        } else {
            match &vma.kind {
                // Shared anonymous memory faults like private anonymous
                // memory here (sharing semantics matter only to the fork
                // mechanisms, which refuse to checkpoint it, §4.1).
                crate::vma::VmaKind::Anonymous | crate::vma::VmaKind::SharedAnonymous => {
                    let pfn = ctx.frames.alloc_zeroed()?;
                    self.private_local_pages += 1;
                    let mut flags = base_flags(&vma);
                    if access == Access::Write {
                        flags |= PteFlags::DIRTY;
                    }
                    (
                        FaultKind::AnonZeroFill,
                        Pte::mapped(PhysAddr::Local(pfn), flags | PRIVATE),
                    )
                }
                crate::vma::VmaKind::File { .. } => {
                    let (path, file_page) = vma
                        .file_page_for(vpn)
                        .expect("file vma covers faulting page");
                    // File pages are read-shared through the node's page
                    // cache: the first fault on this node is major (reads
                    // the shared root fs and populates the cache), later
                    // faults are minor and map the same frame.
                    let (kind, pfn) = match ctx.page_cache.lookup(path, file_page) {
                        Some(pfn) => {
                            ctx.frames.inc_ref(pfn);
                            (FaultKind::FileMinor, pfn)
                        }
                        None => {
                            let data = ctx.rootfs.read_page(path, file_page)?;
                            let pfn = ctx.frames.alloc(data)?;
                            ctx.frames.inc_ref(pfn); // the cache's reference
                            ctx.page_cache.insert(path, file_page, pfn);
                            (FaultKind::FileMajor, pfn)
                        }
                    };
                    if access == Access::Write {
                        // Writing a private file mapping: take a private
                        // copy immediately (the cache keeps the pristine
                        // shared frame).
                        let copy = ctx.frames.duplicate(pfn)?;
                        ctx.frames.dec_ref(pfn);
                        self.private_local_pages += 1;
                        (
                            kind,
                            Pte::mapped(
                                PhysAddr::Local(copy),
                                base_flags(&vma) | PteFlags::FILE | PteFlags::DIRTY | PRIVATE,
                            ),
                        )
                    } else {
                        // Shared, read-only mapping; a later write CoWs
                        // (the cache reference keeps the refcount > 1).
                        let mut flags = PteFlags::PRESENT | PteFlags::FILE;
                        if vma.prot.write {
                            flags |= PteFlags::COW;
                        }
                        (kind, Pte::mapped(PhysAddr::Local(pfn), flags))
                    }
                }
            }
        };

        let fault_cost = match kind {
            FaultKind::UpgradeInPlace => ctx.model.minor_fault(),
            FaultKind::AnonZeroFill => ctx.model.local_anon_fault(),
            FaultKind::FileMajor => ctx.model.file_major_fault(),
            FaultKind::FileMinor => ctx.model.minor_fault(),
            FaultKind::LocalCow => ctx.model.local_cow_fault(),
            FaultKind::CxlCow => ctx.model.cxl_cow_fault(),
            FaultKind::CxlPull => ctx.model.cxl_pull_fault(),
            // Store on the parent side + fetch on the child side, plus the
            // parent-side fault-handler work that serves the request.
            FaultKind::RemotePull => {
                ctx.model.cxl_pull_fault()
                    + ctx.model.cxl_write_copy(crate::PAGE_SIZE)
                    + SimDuration::from_nanos(ctx.model.fault_base_ns)
            }
        };
        outcome.fault = Some(kind);
        outcome.fault_cost += fault_cost;
        outcome.cost += fault_cost;

        let set = self.page_table.set(vpn, new_pte);
        if set.leaf_cow {
            outcome.pt_leaf_cow = true;
            // Copying a 4 KiB leaf from CXL to local memory.
            let leaf_cost = ctx.model.cxl_copy(crate::PAGE_SIZE);
            outcome.fault_cost += leaf_cost;
            outcome.cost += leaf_cost;
        }
        Ok(())
    }

    /// Reads a checkpointed page from the device, retrying transient
    /// link errors with bounded exponential backoff. The (virtual)
    /// backoff delay is charged to the outcome, so injected faults show
    /// up in latency reports, not just error counts.
    fn read_cxl_page(
        device: &CxlDevice,
        node: NodeId,
        page: CxlPageId,
        outcome: &mut AccessOutcome,
    ) -> Result<PageData, OsError> {
        let policy = cxl_fault::BackoffPolicy::default();
        let (res, report) = cxl_fault::with_backoff(&policy, || device.read_page(page, node));
        outcome.retries += report.retries;
        outcome.fault_cost += report.backoff;
        outcome.cost += report.backoff;
        res.map_err(|e| {
            if e.is_transient() {
                OsError::DeviceRetriesExhausted {
                    attempts: report.attempts,
                    last: e,
                }
            } else {
                OsError::from(e)
            }
        })
    }

    fn backing_for(&self, vpn: VirtPageNum) -> Option<BackingPage> {
        match self.policy {
            CxlTierPolicy::MigrateOnAccess => self.backing.as_ref()?.get(vpn),
            _ => None,
        }
    }

    /// Copies a checkpointed page to local memory on first touch.
    fn pull_page(
        &mut self,
        source: BackingSource,
        access: Access,
        vma: &Vma,
        ctx: &mut MmContext<'_>,
        outcome: &mut AccessOutcome,
    ) -> Result<(FaultKind, Pte), OsError> {
        let (kind, data) = match source {
            BackingSource::Device(page) => (
                FaultKind::CxlPull,
                Self::read_cxl_page(ctx.device, ctx.node, page, outcome)?,
            ),
            BackingSource::Remote(data) => (FaultKind::RemotePull, (*data).clone()),
        };
        let pfn = ctx.frames.alloc(data)?;
        self.private_local_pages += 1;
        let mut flags = base_flags(vma);
        if access == Access::Write {
            flags |= PteFlags::DIRTY;
        }
        Ok((kind, Pte::mapped(PhysAddr::Local(pfn), flags | PRIVATE)))
    }

    /// Removes the whole VMA containing `vpn` (an `munmap` of the full
    /// area), unmapping its pages and releasing their local frames.
    /// Returns the removed VMA and the modelled cost.
    ///
    /// # Errors
    ///
    /// [`OsError::BadAddress`] if no VMA covers `vpn`.
    pub fn munmap(
        &mut self,
        vpn: VirtPageNum,
        ctx: &mut MmContext<'_>,
    ) -> Result<(Vma, SimDuration), OsError> {
        let (vma, touch) = self.vmas.remove(vpn).ok_or(OsError::BadAddress(vpn))?;
        let mut unmapped = 0u64;
        for page in vma.start..vma.end {
            let page = VirtPageNum(page);
            let (old, _) = self.page_table.unmap(page);
            if old.is_empty() {
                continue;
            }
            unmapped += 1;
            if old.is_present() {
                if let Some(PhysAddr::Local(pfn)) = old.target() {
                    ctx.cache.invalidate(PhysAddr::Local(pfn));
                    ctx.frames.dec_ref(pfn);
                    if old.flags().contains(PRIVATE) {
                        self.private_local_pages = self.private_local_pages.saturating_sub(1);
                    }
                }
            }
        }
        let mut cost = SimDuration::from_nanos(ctx.model.fork_pte_copy_ns) * unmapped
            + SimDuration::from_nanos(ctx.model.tlb_shootdown_ns);
        if touch.block_cow {
            cost += ctx.model.cxl_copy(crate::PAGE_SIZE);
        }
        Ok((vma, cost))
    }

    /// Changes the protection of the whole VMA containing `vpn` (an
    /// `mprotect` of the full area). Removing write permission
    /// write-protects every present local mapping (one TLB shootdown);
    /// granting it lets subsequent write faults upgrade or copy as usual.
    /// Returns the modelled cost.
    ///
    /// # Errors
    ///
    /// [`OsError::BadAddress`] if no VMA covers `vpn`.
    pub fn mprotect(
        &mut self,
        vpn: VirtPageNum,
        prot: Protection,
        ctx: &mut MmContext<'_>,
    ) -> Result<SimDuration, OsError> {
        let touch = self
            .vmas
            .set_protection(vpn, prot)
            .ok_or(OsError::BadAddress(vpn))?;
        let vma = self.vmas.find(vpn).cloned().expect("just updated");
        let mut updated = 0u64;
        if !prot.write {
            for page in vma.start..vma.end {
                let page = VirtPageNum(page);
                let pte = self.page_table.get(page);
                if pte.is_present() && pte.is_writable() {
                    self.page_table
                        .set(page, pte.without_flags(PteFlags::WRITABLE));
                    updated += 1;
                }
            }
        }
        let mut cost = SimDuration::from_nanos(ctx.model.fork_pte_copy_ns) * updated
            + SimDuration::from_nanos(ctx.model.tlb_shootdown_ns);
        if touch.block_cow {
            cost += ctx.model.cxl_copy(crate::PAGE_SIZE);
        }
        Ok(cost)
    }

    /// Tears down all mappings, releasing local frames back to the
    /// allocator. Called when the process exits.
    pub fn teardown(&mut self, ctx: &mut MmContext<'_>) {
        for (vpn, pte) in self.page_table.iter_populated() {
            if let Some(PhysAddr::Local(pfn)) = pte.target() {
                // Attached leaves never hold local targets, so every local
                // target sits in a leaf we own a reference through.
                if pte.is_present() {
                    ctx.cache.invalidate(PhysAddr::Local(pfn));
                    ctx.frames.dec_ref(pfn);
                    let _ = vpn;
                }
            }
        }
        self.page_table = PageTable::new();
        self.vmas = VmaTree::new();
        self.private_local_pages = 0;
    }

    /// Duplicates this address space for a local fork: anonymous present
    /// pages become CoW-shared (refcount bumped, both sides write-
    /// protected); file-backed PTEs are dropped so the child re-faults them
    /// from the warm page cache (§7.1 discusses this lazily-repopulated
    /// file state). Returns the child space and the modelled fork cost.
    pub fn fork_into(
        &mut self,
        ctx: &mut MmContext<'_>,
    ) -> Result<(AddressSpace, SimDuration), OsError> {
        let mut child = AddressSpace::new();
        let mut cost = SimDuration::from_nanos(ctx.model.process_create_ns);

        // VMA tree: full local copy.
        for vma in self.vmas.iter() {
            cost += SimDuration::from_nanos(ctx.model.fork_vma_copy_ns);
            child
                .vmas
                .insert(vma.clone())
                .expect("source tree is disjoint");
        }

        // Page tables: copy anon PTEs with CoW; skip file PTEs.
        let mut parent_updates: Vec<(VirtPageNum, Pte)> = Vec::new();
        for (vpn, pte) in self.page_table.iter_populated() {
            if !pte.is_present() {
                // Armed entries: the child shares the same checkpoint
                // backing; copy verbatim.
                child.page_table.set(vpn, pte);
                cost += SimDuration::from_nanos(ctx.model.fork_pte_copy_ns);
                continue;
            }
            if pte.flags().contains(PteFlags::FILE) {
                continue; // lazily re-faulted by the child
            }
            cost += SimDuration::from_nanos(ctx.model.fork_pte_copy_ns);
            match pte.target().expect("present pte has target") {
                PhysAddr::Local(pfn) => {
                    ctx.frames.inc_ref(pfn);
                    let shared = pte
                        .with_flags(PteFlags::COW)
                        .without_flags(PteFlags::WRITABLE | PteFlags::DIRTY);
                    parent_updates.push((vpn, shared));
                    child.page_table.set(vpn, shared.without_flags(PRIVATE));
                }
                PhysAddr::Cxl(_) => {
                    // CXL read-only mappings are shared as-is.
                    child.page_table.set(vpn, pte.without_flags(PRIVATE));
                }
            }
        }
        for (vpn, pte) in parent_updates {
            self.page_table.set(vpn, pte);
        }
        child.policy = self.policy;
        child.backing = self.backing.clone();
        Ok((child, cost))
    }
}

/// Base PTE flags for a freshly resolved private page in `vma`.
fn base_flags(vma: &Vma) -> PteFlags {
    let mut flags = PteFlags::PRESENT;
    if vma.prot.write {
        flags |= PteFlags::WRITABLE;
    }
    flags
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::cache::{CacheConfig, LlcCache};

    struct World {
        frames: FrameAllocator,
        cache: LlcCache,
        device: Arc<CxlDevice>,
        rootfs: Arc<SharedFs>,
        model: LatencyModel,
        page_cache: PageCache,
    }

    impl World {
        fn new() -> Self {
            let rootfs = Arc::new(SharedFs::new());
            rootfs.create("/lib/libc.so", 64 * crate::PAGE_SIZE, 42);
            World {
                frames: FrameAllocator::new(4096),
                cache: LlcCache::new(CacheConfig::default()),
                device: Arc::new(CxlDevice::with_capacity_mib(16)),
                rootfs,
                model: LatencyModel::calibrated(),
                page_cache: PageCache::new(),
            }
        }

        fn ctx(&mut self) -> MmContext<'_> {
            MmContext {
                frames: &mut self.frames,
                cache: &mut self.cache,
                device: &self.device,
                rootfs: &self.rootfs,
                model: &self.model,
                page_cache: &mut self.page_cache,
                node: NodeId(0),
            }
        }
    }

    #[test]
    fn anon_first_touch_zero_fills() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(100, 10, Protection::read_write(), "heap")
            .unwrap();
        let o = asp
            .access(VirtPageNum(105), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::AnonZeroFill));
        assert!(o.fault_cost.as_nanos() < 1_000, "anon fault <1us");
        assert_eq!(asp.private_local_pages(), 1);
        // Second access: no fault, cache hit.
        let o2 = asp
            .access(VirtPageNum(105), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o2.fault, None);
        assert!(o2.cache_hit);
    }

    #[test]
    fn unmapped_access_is_bad_address() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        assert!(matches!(
            asp.access(VirtPageNum(5), Access::Read, &mut w.ctx()),
            Err(OsError::BadAddress(_))
        ));
    }

    #[test]
    fn write_to_read_only_vma_is_protection_violation() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 4, Protection::read_only(), "ro")
            .unwrap();
        assert!(matches!(
            asp.access(VirtPageNum(1), Access::Write, &mut w.ctx()),
            Err(OsError::ProtectionViolation(_))
        ));
    }

    #[test]
    fn file_fault_reads_shared_fs_and_respects_page_cache() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_file(0, 8, Protection::read_exec(), "/lib/libc.so", 0)
            .unwrap();
        let o = asp
            .access(VirtPageNum(2), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::FileMajor));
        // Verify the mapped frame holds the file's bytes.
        let pte = asp.translate(VirtPageNum(2));
        let Some(PhysAddr::Local(pfn)) = pte.target() else {
            panic!()
        };
        assert_eq!(
            *w.frames.data(pfn),
            w.rootfs.read_page("/lib/libc.so", 2).unwrap()
        );

        // A second process on the same node hits the warm page cache:
        // minor fault mapping the SAME frame.
        let mut asp2 = AddressSpace::new();
        asp2.map_file(0, 8, Protection::read_exec(), "/lib/libc.so", 0)
            .unwrap();
        let o2 = asp2
            .access(VirtPageNum(2), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o2.fault, Some(FaultKind::FileMinor));
        assert!(o2.fault_cost < o.fault_cost);
        let Some(PhysAddr::Local(pfn2)) = asp2.translate(VirtPageNum(2)).target() else {
            panic!()
        };
        assert_eq!(pfn2, pfn, "page cache shares the frame");
        assert_eq!(asp2.private_local_pages(), 0, "shared file pages are free");
    }

    #[test]
    fn cxl_cow_copies_and_isolates() {
        let mut w = World::new();
        let region = w.device.create_region("ckpt");
        let page = w.device.alloc_page(region).unwrap();
        w.device
            .write_page(page, PageData::pattern(7), NodeId(9))
            .unwrap();

        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 4, Protection::read_write(), "data")
            .unwrap();
        asp.install_mapping(
            VirtPageNum(1),
            PhysAddr::Cxl(page),
            PteFlags::PRESENT | PteFlags::COW,
            false,
        );

        // Reads are served from CXL directly, no fault.
        let r = asp
            .access(VirtPageNum(1), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(r.fault, None);
        assert!(r.cxl_tier);

        // A store migrates-on-write.
        let fp_before = w.device.fingerprint(page).unwrap();
        let o = asp
            .access(VirtPageNum(1), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::CxlCow));
        let us = o.fault_cost.as_nanos();
        assert!((2_000..=3_000).contains(&us), "cxl cow {us} ns");
        // Data was copied, checkpoint pristine.
        let pte = asp.translate(VirtPageNum(1));
        assert!(pte.is_writable());
        let Some(PhysAddr::Local(pfn)) = pte.target() else {
            panic!()
        };
        assert_eq!(*w.frames.data(pfn), PageData::pattern(7));
        w.frames.data_mut(pfn).write(0, &[0xFF]);
        assert_eq!(w.device.fingerprint(page).unwrap(), fp_before);
        assert_eq!(asp.private_local_pages(), 1);
    }

    #[test]
    fn migrate_on_access_pulls_on_read() {
        let mut w = World::new();
        let region = w.device.create_region("ckpt");
        let page = w.device.alloc_page(region).unwrap();
        w.device
            .write_page(page, PageData::pattern(3), NodeId(9))
            .unwrap();

        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 4, Protection::read_write(), "data")
            .unwrap();
        asp.set_policy(CxlTierPolicy::MigrateOnAccess);
        let mut backing = CxlBacking::new();
        backing.insert(
            VirtPageNum(2),
            BackingPage {
                source: BackingSource::Device(page),
                accessed: true,
                dirty: false,
                file_backed: false,
            },
        );
        asp.set_backing(Arc::new(backing));

        let o = asp
            .access(VirtPageNum(2), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::CxlPull));
        assert!(!o.cxl_tier, "page now local");
        assert_eq!(asp.private_local_pages(), 1);
        // Second read: plain local access.
        let o2 = asp
            .access(VirtPageNum(2), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o2.fault, None);
    }

    #[test]
    fn armed_entry_pulls_regardless_of_policy() {
        let mut w = World::new();
        let region = w.device.create_region("ckpt");
        let page = w.device.alloc_page(region).unwrap();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 4, Protection::read_write(), "data")
            .unwrap();
        asp.set_policy(CxlTierPolicy::Hybrid);
        asp.page_table.set(
            VirtPageNum(0),
            Pte::armed(PhysAddr::Cxl(page), PteFlags::FETCH_ON_ACCESS),
        );
        let o = asp
            .access(VirtPageNum(0), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::CxlPull));
    }

    #[test]
    fn fork_shares_then_isolates_on_write() {
        let mut w = World::new();
        let mut parent = AddressSpace::new();
        parent
            .map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        // Parent dirties two pages.
        parent
            .access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        parent
            .access(VirtPageNum(1), Access::Write, &mut w.ctx())
            .unwrap();
        let Some(PhysAddr::Local(p0)) = parent.translate(VirtPageNum(0)).target() else {
            panic!()
        };
        w.frames.data_mut(p0).write(0, &[0xAB]);

        let (mut child, cost) = parent.fork_into(&mut w.ctx()).unwrap();
        assert!(cost >= SimDuration::from_nanos(w.model.process_create_ns));
        assert_eq!(w.frames.refcount(p0), 2);
        assert_eq!(child.private_local_pages(), 0, "shared pages are free");

        // Child reads the parent's bytes.
        let pte = child.translate(VirtPageNum(0));
        assert!(!pte.is_writable());
        assert!(pte.is_cow());
        let Some(PhysAddr::Local(cp)) = pte.target() else {
            panic!()
        };
        assert_eq!(cp, p0);
        assert_eq!(w.frames.data(cp).byte_at(0), 0xAB);

        // Child write CoWs; parent's byte survives.
        let o = child
            .access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::LocalCow));
        let Some(PhysAddr::Local(c2)) = child.translate(VirtPageNum(0)).target() else {
            panic!()
        };
        assert_ne!(c2, p0);
        assert_eq!(w.frames.data(p0).byte_at(0), 0xAB);
        assert_eq!(w.frames.refcount(p0), 1);
        assert_eq!(child.private_local_pages(), 1);

        // Parent write to the *other* shared page upgrades in place after
        // the child's copy ... but the child still shares page 1, so the
        // parent must CoW too.
        let o2 = parent
            .access(VirtPageNum(1), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o2.fault, Some(FaultKind::LocalCow));
    }

    #[test]
    fn sole_owner_write_upgrades_in_place() {
        let mut w = World::new();
        let mut parent = AddressSpace::new();
        parent
            .map_anonymous(0, 2, Protection::read_write(), "heap")
            .unwrap();
        parent
            .access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        let (mut child, _) = parent.fork_into(&mut w.ctx()).unwrap();
        // Child exits without writing.
        child.teardown(&mut w.ctx());
        // Parent is sole owner again: write is an in-place upgrade.
        let o = parent
            .access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::UpgradeInPlace));
        assert_eq!(parent.private_local_pages(), 1, "no extra frame allocated");
    }

    #[test]
    fn fork_drops_file_ptes_for_lazy_refault() {
        let mut w = World::new();
        let mut parent = AddressSpace::new();
        parent
            .map_file(0, 8, Protection::read_exec(), "/lib/libc.so", 0)
            .unwrap();
        parent
            .access(VirtPageNum(3), Access::Read, &mut w.ctx())
            .unwrap();
        let (mut child, _) = parent.fork_into(&mut w.ctx()).unwrap();
        assert!(child.translate(VirtPageNum(3)).is_empty());
        // Child re-faults from the warm page cache: a minor fault.
        let o = child
            .access(VirtPageNum(3), Access::Read, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::FileMinor));
    }

    #[test]
    fn teardown_returns_all_frames() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 64, Protection::read_write(), "heap")
            .unwrap();
        for i in 0..64 {
            asp.access(VirtPageNum(i), Access::Write, &mut w.ctx())
                .unwrap();
        }
        assert_eq!(w.frames.used(), 64);
        asp.teardown(&mut w.ctx());
        assert_eq!(w.frames.used(), 0);
        assert_eq!(asp.private_local_pages(), 0);
    }

    #[test]
    fn oom_propagates_from_fault() {
        let mut w = World::new();
        w.frames = FrameAllocator::new(2);
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        asp.access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        asp.access(VirtPageNum(1), Access::Write, &mut w.ctx())
            .unwrap();
        assert!(matches!(
            asp.access(VirtPageNum(2), Access::Write, &mut w.ctx()),
            Err(OsError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn munmap_releases_frames_and_accounting() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 16, Protection::read_write(), "heap")
            .unwrap();
        asp.map_anonymous(100, 4, Protection::read_write(), "other")
            .unwrap();
        for i in 0..16 {
            asp.access(VirtPageNum(i), Access::Write, &mut w.ctx())
                .unwrap();
        }
        assert_eq!(w.frames.used(), 16);
        let (vma, cost) = asp.munmap(VirtPageNum(5), &mut w.ctx()).unwrap();
        assert_eq!((vma.start, vma.end), (0, 16));
        assert!(cost > SimDuration::ZERO);
        assert_eq!(w.frames.used(), 0);
        assert_eq!(asp.private_local_pages(), 0);
        // The range is gone; the other VMA survives.
        assert!(matches!(
            asp.access(VirtPageNum(5), Access::Read, &mut w.ctx()),
            Err(OsError::BadAddress(_))
        ));
        assert!(asp
            .access(VirtPageNum(101), Access::Write, &mut w.ctx())
            .is_ok());
        // munmap of an unmapped page errors.
        assert!(matches!(
            asp.munmap(VirtPageNum(500), &mut w.ctx()),
            Err(OsError::BadAddress(_))
        ));
    }

    #[test]
    fn munmap_respects_cow_sharing() {
        let mut w = World::new();
        let mut parent = AddressSpace::new();
        parent
            .map_anonymous(0, 2, Protection::read_write(), "heap")
            .unwrap();
        parent
            .access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        let (mut child, _) = parent.fork_into(&mut w.ctx()).unwrap();
        let Some(PhysAddr::Local(pfn)) = parent.translate(VirtPageNum(0)).target() else {
            panic!()
        };
        assert_eq!(w.frames.refcount(pfn), 2);
        // Child unmaps: parent's frame survives.
        child.munmap(VirtPageNum(0), &mut w.ctx()).unwrap();
        assert_eq!(w.frames.refcount(pfn), 1);
        assert_eq!(w.frames.data(pfn).byte_at(0), 0);
    }

    #[test]
    fn mprotect_write_protects_and_reallows() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 4, Protection::read_write(), "heap")
            .unwrap();
        asp.access(VirtPageNum(1), Access::Write, &mut w.ctx())
            .unwrap();
        asp.mprotect(VirtPageNum(1), Protection::read_only(), &mut w.ctx())
            .unwrap();
        assert!(matches!(
            asp.access(VirtPageNum(1), Access::Write, &mut w.ctx()),
            Err(OsError::ProtectionViolation(_))
        ));
        // Reads still work.
        asp.access(VirtPageNum(1), Access::Read, &mut w.ctx())
            .unwrap();
        // Re-allow writes: the next store upgrades via a fault.
        asp.mprotect(VirtPageNum(1), Protection::read_write(), &mut w.ctx())
            .unwrap();
        let o = asp
            .access(VirtPageNum(1), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::UpgradeInPlace));
        assert!(matches!(
            asp.mprotect(VirtPageNum(900), Protection::read_only(), &mut w.ctx()),
            Err(OsError::BadAddress(_))
        ));
    }

    #[test]
    fn shared_anonymous_faults_like_anonymous() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        let mut vma = Vma::anonymous(0, 4, Protection::read_write(), "shm");
        vma.kind = crate::vma::VmaKind::SharedAnonymous;
        asp.vmas.insert(vma).unwrap();
        let o = asp
            .access(VirtPageNum(0), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, Some(FaultKind::AnonZeroFill));
    }

    #[test]
    fn fill_pages_installs_batch_and_counts_accounting() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 16, Protection::read_write(), "heap")
            .unwrap();
        let batch: Vec<(VirtPageNum, PageData)> = (0..8)
            .map(|i| (VirtPageNum(i), PageData::pattern(i)))
            .collect();
        let out = asp
            .fill_pages(
                batch,
                PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::DIRTY,
                &mut w.ctx(),
            )
            .unwrap();
        assert_eq!(out.installed, 8);
        assert_eq!(out.leaf_cows, 0, "local leaves never CoW");
        assert_eq!(asp.private_local_pages(), 8);
        assert_eq!(w.frames.used(), 8);
        for i in 0..8 {
            let pte = asp.translate(VirtPageNum(i));
            assert!(pte.is_present() && pte.is_writable());
            let Some(PhysAddr::Local(pfn)) = pte.target() else {
                panic!()
            };
            assert_eq!(*w.frames.data(pfn), PageData::pattern(i));
        }
        // No fault on later access: the fill really installed mappings.
        let o = asp
            .access(VirtPageNum(3), Access::Write, &mut w.ctx())
            .unwrap();
        assert_eq!(o.fault, None);
    }

    #[test]
    fn fill_pages_stops_on_frame_exhaustion() {
        let mut w = World::new();
        w.frames = FrameAllocator::new(2);
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 8, Protection::read_write(), "heap")
            .unwrap();
        let batch: Vec<(VirtPageNum, PageData)> = (0..4)
            .map(|i| (VirtPageNum(i), PageData::zeroed()))
            .collect();
        let err = asp
            .fill_pages(batch, PteFlags::PRESENT | PteFlags::WRITABLE, &mut w.ctx())
            .unwrap_err();
        assert!(matches!(err, OsError::OutOfMemory { .. }));
        // The pages installed before the failure stay mapped (the caller
        // rolls the whole process back).
        assert_eq!(asp.private_local_pages(), 2);
    }

    #[test]
    fn cache_miss_charges_tier_latency() {
        let mut w = World::new();
        let region = w.device.create_region("r");
        let page = w.device.alloc_page(region).unwrap();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 2, Protection::read_only(), "ro")
            .unwrap();
        asp.install_mapping(
            VirtPageNum(0),
            PhysAddr::Cxl(page),
            PteFlags::PRESENT,
            false,
        );
        let miss = asp
            .access(VirtPageNum(0), Access::Read, &mut w.ctx())
            .unwrap();
        assert!(!miss.cache_hit);
        assert_eq!(miss.cost.as_nanos(), w.model.cxl_round_trip_ns);
        let hit = asp
            .access(VirtPageNum(0), Access::Read, &mut w.ctx())
            .unwrap();
        assert!(hit.cache_hit);
        assert!(hit.cost < miss.cost);
    }

    /// What a test can compare of a [`BackingPage`]: its device page and
    /// flag bits.
    fn backing_key(page: &BackingPage) -> (CxlPageId, bool, bool, bool) {
        let BackingSource::Device(device_page) = page.source else {
            unreachable!("the property test only registers device pages")
        };
        (device_page, page.accessed, page.dirty, page.file_backed)
    }

    proptest::proptest! {
        /// The sorted-vector [`CxlBacking`] behaves exactly like a
        /// `BTreeMap<vpn, page>` whatever order pages are registered in:
        /// a later registration of a vpn wins, iteration is ascending,
        /// and absent vpns (between, below and above the registered ones)
        /// look up as `None`.
        #[test]
        fn cxl_backing_matches_btreemap_model_under_arbitrary_insert_orders(
            inserts in proptest::collection::vec((0u64..96, 0u64..1_000, 0u8..8), 0..160),
            ascending_prefix in 0u64..64,
        ) {
            let page = |device_page: u64, bits: u8| BackingPage {
                source: BackingSource::Device(CxlPageId(device_page)),
                accessed: bits & 1 != 0,
                dirty: bits & 2 != 0,
                file_backed: bits & 4 != 0,
            };
            let mut backing = CxlBacking::with_capacity(ascending_prefix as usize);
            let mut model: BTreeMap<u64, BackingPage> = BTreeMap::new();
            // A checkpoint-shaped ascending fill (the append path), then
            // arbitrary inserts on top of it, duplicates included.
            let fill = (0..ascending_prefix).map(|i| (200 + 2 * i, i, (i % 8) as u8));
            for (vpn, device_page, bits) in fill.chain(inserts) {
                backing.insert(VirtPageNum(vpn), page(device_page, bits));
                model.insert(vpn, page(device_page, bits));
            }
            proptest::prop_assert_eq!(backing.len(), model.len());
            proptest::prop_assert_eq!(backing.is_empty(), model.is_empty());
            let listed: Vec<_> = backing.iter().map(|(v, p)| (v.0, backing_key(&p))).collect();
            let expected: Vec<_> = model.iter().map(|(v, p)| (*v, backing_key(p))).collect();
            proptest::prop_assert_eq!(listed, expected);
            for vpn in 0..340 {
                proptest::prop_assert_eq!(
                    backing.get(VirtPageNum(vpn)).as_ref().map(backing_key),
                    model.get(&vpn).map(backing_key)
                );
            }
        }
    }
}
