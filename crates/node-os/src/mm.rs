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

use crate::addr::{Pfn, PhysAddr, VirtPageNum};
use crate::cache::LlcCache;
use crate::error::OsError;
use crate::frame::FrameAllocator;
use crate::fs::SharedFs;
use crate::page_table::{LeafSlot, PageTable};
use crate::pagecache::PageCache;
use crate::pte::{Pte, PteFlags};
use crate::vma::{Protection, Vma, VmaCursor, VmaTree};

/// Extra software flag: this local frame was allocated by (and is private
/// to) this address space, and counts toward its local-memory consumption.
pub(crate) const PRIVATE: PteFlags = PteFlags::from_bits(1 << 9);

/// Most pages of one leaf an access run steps the LLC for in one call
/// before running their tails.
const BATCH: usize = 64;

/// The kind of memory access being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::exhaustive_enums, reason = "an access is a load or a store")]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// How an address space treats first accesses to CXL-checkpointed pages
/// (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(
    clippy::exhaustive_enums,
    reason = "the tiering policies of the paper; every dispatch on them must handle a new one"
)]
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
#[allow(
    clippy::exhaustive_enums,
    reason = "the pull sources the mechanisms use; every fault path must handle a new one"
)]
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
    #[inline]
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
        self.find(vpn).cloned()
    }

    fn find(&self, vpn: VirtPageNum) -> Option<&BackingPage> {
        let at = self.pages.binary_search_by_key(&vpn.0, |(v, _)| *v).ok()?;
        Some(&self.pages[at].1)
    }

    /// Looks up the checkpointed page for `vpn`, first probing the entry
    /// after the last hit, `cursor`, which a hit moves on. The probe is
    /// checked, so a cursor from another backing or an earlier
    /// registration only costs the binary search.
    fn find_from(&self, vpn: VirtPageNum, cursor: &mut usize) -> Option<&BackingPage> {
        let at = match self.pages.get(*cursor) {
            Some((v, _)) if *v == vpn.0 => *cursor,
            _ => self.pages.binary_search_by_key(&vpn.0, |(v, _)| *v).ok()?,
        };
        *cursor = at + 1;
        Some(&self.pages[at].1)
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
#[allow(
    clippy::exhaustive_enums,
    reason = "fault accounting: a new kind must reach every counter that matches on it"
)]
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
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::UpgradeInPlace,
        FaultKind::AnonZeroFill,
        FaultKind::FileMajor,
        FaultKind::FileMinor,
        FaultKind::LocalCow,
        FaultKind::CxlCow,
        FaultKind::CxlPull,
        FaultKind::RemotePull,
    ];

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// Where the last fault found its VMA.
    vma_cursor: VmaCursor,
    /// The backing entry after the last migrate-on-access pull.
    backing_cursor: usize,
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
            .filter(|(_, pte)| pte.is_present() && matches!(pte.target(), Some(PhysAddr::Local(_))))
            .count() as u64
    }

    /// Counts present mappings that point at the CXL tier.
    pub fn mapped_cxl_pages(&self) -> u64 {
        self.page_table
            .iter_populated()
            .filter(|(_, pte)| pte.is_present() && matches!(pte.target(), Some(PhysAddr::Cxl(_))))
            .count() as u64
    }

    /// Adds an anonymous VMA of `pages` pages starting at `start_vpn`.
    ///
    /// # Errors
    ///
    /// * [`OsError::BadAddress`] if the range is empty, overflows or ends
    ///   past the [`VirtPageNum::BITS`]-bit VPN space.
    /// * [`OsError::MappingOverlap`] if the range intersects an existing
    ///   VMA.
    pub fn map_anonymous(
        &mut self,
        start_vpn: u64,
        pages: u64,
        prot: Protection,
        label: &str,
    ) -> Result<(), OsError> {
        let end = vma_end(start_vpn, pages)?;
        self.vmas
            .insert(Vma::anonymous(start_vpn, end, prot, label))?;
        Ok(())
    }

    /// Adds a private file mapping of `pages` pages starting at
    /// `start_vpn`.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::map_anonymous`].
    pub fn map_file(
        &mut self,
        start_vpn: u64,
        pages: u64,
        prot: Protection,
        path: &str,
        file_start_page: u64,
    ) -> Result<(), OsError> {
        let end = vma_end(start_vpn, pages)?;
        self.vmas
            .insert(Vma::file(start_vpn, end, prot, path, file_start_page))?;
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
    /// cache and memory tier, and updating A/D bits: a one-page run
    /// through the one access loop (DESIGN.md §4).
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
        let mut outcome = AccessOutcome::default();
        self.access_run([vpn], access, ctx, |o| outcome = o)?;
        Ok(outcome)
    }

    /// Simulates `access` to every page of `vpns`, in order, handing each
    /// outcome to `each` as it completes. Stops at the first failing
    /// page, which hands over nothing; the pages before it stay booked.
    ///
    /// The run keeps a cursor on the current page-table leaf, so the
    /// leaf map is searched once per leaf. Pages of that leaf whose PTE
    /// is present and allows the access are gathered, up to `BATCH` at
    /// a time: the LLC is stepped for all of them in order, in one call,
    /// then each runs the tail every access ends in (`finish`: tier cost,
    /// A/D bits, `each`). Any other page ends the batch, which completes
    /// first, and takes the fault path; that hands back the leaf it
    /// wrote — the local copy after a leaf CoW — and the run goes on in
    /// it. Each page's outcome is exactly what a run of that page alone
    /// would give: nothing between a page's LLC step and its tail reads
    /// or writes the LLC, and A/D bits change neither what a PTE allows
    /// nor where it points.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::access`], for the first page that fails.
    pub(crate) fn access_run(
        &mut self,
        vpns: impl IntoIterator<Item = VirtPageNum>,
        access: Access,
        ctx: &mut MmContext<'_>,
        mut each: impl FnMut(AccessOutcome),
    ) -> Result<(), OsError> {
        let mut vpns = vpns.into_iter();
        let mut next = vpns.next();
        let mut slots = [0; BATCH];
        let mut lines = [PhysAddr::Local(Pfn(0)); BATCH];
        'run: while let Some(mut vpn) = next {
            let leaf_index = vpn.leaf_index();
            let mut leaf = self.page_table.leaf_for_mut(vpn);
            loop {
                let mut pte = Pte::EMPTY;
                if let Some(leaf) = leaf {
                    loop {
                        let mut len = 0;
                        let mut leaf_done = false;
                        while len < BATCH {
                            pte = leaf.get(vpn.leaf_slot());
                            if !allows(pte, access) {
                                break;
                            }
                            slots[len] = vpn.leaf_slot();
                            lines[len] = target_of(pte, vpn);
                            len += 1;
                            next = vpns.next();
                            match next {
                                Some(n) if n.leaf_index() == leaf_index => vpn = n,
                                _ => {
                                    leaf_done = true;
                                    break;
                                }
                            }
                        }
                        let hits = ctx.cache.access_batch(&lines[..len]);
                        for (i, (&slot, &target)) in slots[..len].iter().zip(&lines).enumerate() {
                            let mut outcome = AccessOutcome::default();
                            let hit = hits >> i & 1 == 1;
                            finish(leaf, slot, target, hit, access, ctx.model, &mut outcome);
                            each(outcome);
                        }
                        if leaf_done {
                            continue 'run;
                        }
                        if len < BATCH {
                            break;
                        }
                    }
                }
                let mut outcome = AccessOutcome::default();
                let resolved = self.handle_fault(vpn, access, pte, ctx, &mut outcome)?;
                let target = target_of(resolved.get(vpn.leaf_slot()), vpn);
                let hit = ctx.cache.access(target);
                finish(
                    resolved,
                    vpn.leaf_slot(),
                    target,
                    hit,
                    access,
                    ctx.model,
                    &mut outcome,
                );
                each(outcome);
                next = vpns.next();
                match next {
                    Some(n) if n.leaf_index() == leaf_index => vpn = n,
                    _ => continue 'run,
                }
                leaf = Some(resolved);
            }
        }
        Ok(())
    }

    /// Resolves a fault at `vpn` and returns the leaf holding its PTE,
    /// which is then present and (for writes) writable. The VMA comes
    /// from one lookup that also localizes an attached VMA block, and a
    /// migrate-on-access backing page from a probe after the last one;
    /// both cursors are checked on use, so they only save searches.
    fn handle_fault(
        &mut self,
        vpn: VirtPageNum,
        access: Access,
        pte: Pte,
        ctx: &mut MmContext<'_>,
        outcome: &mut AccessOutcome,
    ) -> Result<&mut LeafSlot, OsError> {
        let (vma, touch) = self
            .vmas
            .find_local(vpn, &mut self.vma_cursor)
            .ok_or(OsError::BadAddress(vpn))?;
        // Any fault in an attached VMA block first reconstructs that block
        // locally (copy + re-register fs callbacks for file VMAs, §4.2.1).
        if touch.block_cow {
            let mut cost = ctx.model.cxl_copy(crate::PAGE_SIZE);
            if vma.kind.is_file() {
                cost += SimDuration::from_nanos(ctx.model.file_reopen_ns);
            }
            outcome.fault_cost += cost;
            outcome.cost += cost;
        }

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
                                base_flags(vma) | PteFlags::DIRTY | PRIVATE,
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
                            base_flags(vma) | PteFlags::DIRTY | PRIVATE,
                        ),
                    )
                }
            }
        } else if let Some(target) = pte.target() {
            // Armed (fetch-on-access) entry: hybrid tiering's hot page.
            let PhysAddr::Cxl(page) = target else {
                unreachable!("armed entries always point at CXL")
            };
            let pulled = Self::pull_page(&BackingSource::Device(page), access, vma, ctx, outcome)?;
            self.private_local_pages += 1;
            pulled
        } else if let Some(b) = self
            .backing
            .as_ref()
            .filter(|_| self.policy == CxlTierPolicy::MigrateOnAccess)
            .and_then(|backing| backing.find_from(vpn, &mut self.backing_cursor))
        {
            // Pull policy (migrate-on-access): copy on first touch.
            let pulled = Self::pull_page(&b.source, access, vma, ctx, outcome)?;
            self.private_local_pages += 1;
            pulled
        } else {
            match &vma.kind {
                // Shared anonymous memory faults like private anonymous
                // memory here (sharing semantics matter only to the fork
                // mechanisms, which refuse to checkpoint it, §4.1).
                crate::vma::VmaKind::Anonymous | crate::vma::VmaKind::SharedAnonymous => {
                    let pfn = ctx.frames.alloc_zeroed()?;
                    self.private_local_pages += 1;
                    let mut flags = base_flags(vma);
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
                                base_flags(vma) | PteFlags::FILE | PteFlags::DIRTY | PRIVATE,
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

        let (set, leaf) = self.page_table.set_in_leaf(vpn, new_pte);
        if set.leaf_cow {
            outcome.pt_leaf_cow = true;
            // Copying a 4 KiB leaf from CXL to local memory.
            let leaf_cost = ctx.model.cxl_copy(crate::PAGE_SIZE);
            outcome.fault_cost += leaf_cost;
            outcome.cost += leaf_cost;
        }
        Ok(leaf)
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

    /// Copies a checkpointed page into a fresh local frame on first
    /// touch. The caller counts the frame as private once this returns.
    fn pull_page(
        source: &BackingSource,
        access: Access,
        vma: &Vma,
        ctx: &mut MmContext<'_>,
        outcome: &mut AccessOutcome,
    ) -> Result<(FaultKind, Pte), OsError> {
        let (kind, data) = match source {
            BackingSource::Device(page) => (
                FaultKind::CxlPull,
                Self::read_cxl_page(ctx.device, ctx.node, *page, outcome)?,
            ),
            BackingSource::Remote(data) => (FaultKind::RemotePull, (**data).clone()),
        };
        let pfn = ctx.frames.alloc(data)?;
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
        let private_local_pages = &mut self.private_local_pages;
        self.page_table.update_range(vma.start..vma.end, |old| {
            unmapped += 1;
            if old.is_present() {
                if let Some(PhysAddr::Local(pfn)) = old.target() {
                    ctx.cache.invalidate(PhysAddr::Local(pfn));
                    ctx.frames.dec_ref(pfn);
                    if old.flags().contains(PRIVATE) {
                        *private_local_pages = private_local_pages.saturating_sub(1);
                    }
                }
            }
            Some(Pte::EMPTY)
        });
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
        let pages = self
            .vmas
            .find(vpn)
            .map(|v| v.start..v.end)
            .expect("just updated");
        let mut updated = 0u64;
        if !prot.write {
            self.page_table.update_range(pages, |pte| {
                let protect = pte.is_present() && pte.is_writable();
                updated += u64::from(protect);
                protect.then(|| pte.without_flags(PteFlags::WRITABLE))
            });
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
        for (_, pte) in self.page_table.iter_populated() {
            if let Some(PhysAddr::Local(pfn)) = pte.target() {
                // Attached leaves never hold local targets, so every local
                // target sits in a leaf we own a reference through.
                if pte.is_present() {
                    ctx.cache.invalidate(PhysAddr::Local(pfn));
                    ctx.frames.dec_ref(pfn);
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

/// Whether `pte` lets `access` through without a fault: present, and
/// writable for a store.
#[inline]
fn allows(pte: Pte, access: Access) -> bool {
    pte.is_present() && (access == Access::Read || pte.is_writable())
}

/// Where the present PTE `pte` of `vpn` points.
#[inline]
fn target_of(pte: Pte, vpn: VirtPageNum) -> PhysAddr {
    pte.target()
        .unwrap_or_else(|| panic!("present pte without target at {vpn}"))
}

/// The tail every access ends in, faulted or not, once its LLC step on
/// `target` gave `hit`: the cache hit, or the tier's round trip on a
/// miss, then the A bit of `slot` in `leaf` and for a store its D bit
/// (on local leaves; attached entries are immutable).
#[inline]
fn finish(
    leaf: &mut LeafSlot,
    slot: usize,
    target: PhysAddr,
    hit: bool,
    access: Access,
    model: &LatencyModel,
    outcome: &mut AccessOutcome,
) {
    outcome.cxl_tier = target.is_cxl();
    outcome.cache_hit = hit;
    outcome.cost += if hit {
        model.cache_hit()
    } else if outcome.cxl_tier {
        model.cxl_read_round_trip()
    } else {
        model.local_read_round_trip()
    };
    leaf.access_bits().set(slot);
    if access == Access::Write {
        leaf.mark_dirty(slot);
    }
}

/// The end of a new mapping of `pages` pages at `start_vpn`, or
/// [`OsError::BadAddress`] if that range is empty, overflows or ends past
/// the [`VirtPageNum::BITS`]-bit VPN space.
fn vma_end(start_vpn: u64, pages: u64) -> Result<u64, OsError> {
    match start_vpn.checked_add(pages) {
        Some(end) if pages > 0 && end <= 1 << VirtPageNum::BITS => Ok(end),
        _ => Err(OsError::BadAddress(VirtPageNum(start_vpn))),
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
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::cache::{CacheConfig, LlcCache};
    use crate::page_table::{AttachedLeaf, PtLeaf};

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
    fn mappings_outside_the_vpn_space_are_bad_addresses() {
        let mut asp = AddressSpace::new();
        let rw = Protection::read_write();
        asp.map_anonymous(0, 1, rw, "low").unwrap();
        let top = 1 << VirtPageNum::BITS;
        for (start, pages) in [(top, 1), (top - 1, 2), (5, 0), (u64::MAX, 2)] {
            assert_eq!(
                asp.map_anonymous(start, pages, rw, "bad"),
                Err(OsError::BadAddress(VirtPageNum(start))),
                "{pages} pages at {start:#x}"
            );
            assert_eq!(
                asp.map_file(start, pages, rw, "/lib/libc.so", 0),
                Err(OsError::BadAddress(VirtPageNum(start))),
                "{pages} file pages at {start:#x}"
            );
        }
        // The last page of the space is still mappable.
        asp.map_anonymous(top - 1, 1, rw, "top").unwrap();
        assert_eq!(asp.vmas.vma_count(), 2);
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

    #[test]
    fn a_fault_that_copies_its_leaf_completes_in_the_copy() {
        let mut w = World::new();
        let region = w.device.create_region("ckpt");
        let mut leaf = PtLeaf::new();
        for slot in 0..2 {
            let page = w.device.alloc_page(region).unwrap();
            let flags = PteFlags::PRESENT | PteFlags::COW | PteFlags::CKPT_PIN;
            leaf.set(slot, Pte::mapped(PhysAddr::Cxl(page), flags));
        }
        let backing = w.device.alloc_page(region).unwrap();
        let mut asp = AddressSpace::new();
        asp.map_anonymous(0, 4, Protection::read_write(), "ckpt")
            .unwrap();
        let leaf = Arc::new(leaf);
        asp.page_table
            .attach_leaf(0, AttachedLeaf { leaf, backing });
        let mut outcomes = Vec::new();
        let vpns = [0, 0, 1, 2].map(VirtPageNum);
        asp.access_run(vpns, Access::Write, &mut w.ctx(), |o| outcomes.push(o))
            .unwrap();
        let faults: Vec<_> = outcomes.iter().map(|o| (o.fault, o.pt_leaf_cow)).collect();
        assert_eq!(
            faults,
            [
                (Some(FaultKind::CxlCow), true),
                (None, false),
                (Some(FaultKind::CxlCow), false),
                (Some(FaultKind::AnonZeroFill), false),
            ]
        );
        assert!(outcomes.iter().all(|o| !o.cxl_tier), "{outcomes:?}");
        assert!(
            outcomes[1].cache_hit,
            "the store after the copy hits its line"
        );
        for vpn in vpns {
            assert!(asp.page_table.is_accessed(vpn), "{vpn}");
            assert!(asp.translate(vpn).is_dirty(), "{vpn}");
        }
        assert_eq!(asp.page_table.leaf_cow_events(), 1);
    }

    /// A batch completes, LLC steps included, before the fault that
    /// ends it: on a one-set LLC the run leaves every line in the same
    /// LRU order as the same pages issued one by one.
    #[test]
    fn a_batch_steps_the_llc_before_the_fault_that_ends_it() {
        let mut states = Vec::new();
        for whole in [true, false] {
            let mut w = World::new();
            w.cache = LlcCache::new(CacheConfig {
                capacity_bytes: 8 * crate::PAGE_SIZE,
                associativity: 8,
                line_bytes: crate::PAGE_SIZE,
            });
            let mut asp = AddressSpace::new();
            asp.map_anonymous(0, 8, Protection::read_write(), "heap")
                .unwrap();
            for vpn in 0..3 {
                asp.access(VirtPageNum(vpn), Access::Write, &mut w.ctx())
                    .unwrap();
            }
            let vpns = [2, 1, 0, 3, 0].map(VirtPageNum);
            let mut outcomes = Vec::new();
            if whole {
                asp.access_run(vpns, Access::Read, &mut w.ctx(), |o| outcomes.push(o))
                    .unwrap();
            } else {
                for vpn in vpns {
                    outcomes.push(asp.access(vpn, Access::Read, &mut w.ctx()).unwrap());
                }
            }
            let faults: Vec<bool> = outcomes.iter().map(|o| o.fault.is_some()).collect();
            assert_eq!(faults, [false, false, false, true, false]);
            states.push((outcomes, format!("{:?}", w.cache)));
        }
        assert_eq!(states[0], states[1], "whole run left, page by page right");
    }

    #[test]
    fn munmap_and_mprotect_of_a_huge_vma_visit_only_its_leaves() {
        let mut w = World::new();
        let mut asp = AddressSpace::new();
        let pages = 1 << 27;
        asp.map_anonymous(0, pages, Protection::read_write(), "huge")
            .unwrap();
        for vpn in [0, pages / 2, pages - 1] {
            asp.access(VirtPageNum(vpn), Access::Write, &mut w.ctx())
                .unwrap();
        }
        let per_pte = SimDuration::from_nanos(w.model.fork_pte_copy_ns);
        let shootdown = SimDuration::from_nanos(w.model.tlb_shootdown_ns);
        let cost = asp
            .mprotect(VirtPageNum(7), Protection::read_only(), &mut w.ctx())
            .unwrap();
        assert_eq!(cost, per_pte * 3 + shootdown);
        assert!(!asp.translate(VirtPageNum(pages - 1)).is_writable());
        let (vma, cost) = asp.munmap(VirtPageNum(pages - 1), &mut w.ctx()).unwrap();
        assert_eq!((vma.start, vma.end), (0, pages));
        assert_eq!(cost, per_pte * 3 + shootdown);
        assert_eq!((w.frames.used(), asp.private_local_pages()), (0, 0));
        assert_eq!(asp.page_table.iter_populated().count(), 0);
    }

    /// The per-page walk `munmap` made before it visited only the leaves
    /// in range: one page-table lookup for every page of the VMA.
    fn munmap_page_by_page(
        asp: &mut AddressSpace,
        vpn: VirtPageNum,
        ctx: &mut MmContext<'_>,
    ) -> Result<(Vma, SimDuration), OsError> {
        let (vma, touch) = asp.vmas.remove(vpn).ok_or(OsError::BadAddress(vpn))?;
        let mut unmapped = 0u64;
        for page in vma.start..vma.end {
            let (old, _) = asp.page_table.unmap(VirtPageNum(page));
            if old.is_empty() {
                continue;
            }
            unmapped += 1;
            if let (true, Some(PhysAddr::Local(pfn))) = (old.is_present(), old.target()) {
                ctx.cache.invalidate(PhysAddr::Local(pfn));
                ctx.frames.dec_ref(pfn);
                if old.flags().contains(PRIVATE) {
                    asp.private_local_pages = asp.private_local_pages.saturating_sub(1);
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

    /// The per-page walk `mprotect` made before it visited only the
    /// leaves in range.
    fn mprotect_page_by_page(
        asp: &mut AddressSpace,
        vpn: VirtPageNum,
        prot: Protection,
        ctx: &mut MmContext<'_>,
    ) -> Result<SimDuration, OsError> {
        let touch = asp
            .vmas
            .set_protection(vpn, prot)
            .ok_or(OsError::BadAddress(vpn))?;
        let vma = asp.vmas.find(vpn).cloned().expect("just updated");
        let mut updated = 0u64;
        if !prot.write {
            for page in (vma.start..vma.end).map(VirtPageNum) {
                let pte = asp.page_table.get(page);
                if pte.is_present() && pte.is_writable() {
                    asp.page_table
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

    /// Builds a world and an address space from a seeded recipe: three
    /// VMAs around leaf boundaries, pages mapped to private, CoW-shared
    /// or file-cache local frames, CXL pages and armed entries, some made
    /// writable, and `attached` of the leaves over the middle VMA
    /// attached from a checkpoint.
    fn sparse_space(mapped: &[(u64, u8)], attached: &[u64]) -> (World, AddressSpace) {
        let mut w = World::new();
        let region = w.device.create_region("ckpt");
        let mut asp = AddressSpace::new();
        let rw = Protection::read_write();
        asp.map_anonymous(100, 1400, rw, "low").unwrap();
        asp.map_anonymous(1500, 1500, rw, "mid").unwrap();
        asp.map_file(3000, 64, rw, "/lib/libc.so", 0).unwrap();
        for &leaf_index in attached {
            let mut leaf = PtLeaf::new();
            for slot in (0..crate::PTES_PER_LEAF).step_by(3) {
                let page = w.device.alloc_page(region).unwrap();
                let flags = PteFlags::PRESENT | PteFlags::COW | PteFlags::CKPT_PIN;
                leaf.set(slot, Pte::mapped(PhysAddr::Cxl(page), flags));
            }
            let backing = w.device.alloc_page(region).unwrap();
            let leaf = Arc::new(leaf);
            asp.page_table
                .attach_leaf(leaf_index, AttachedLeaf { leaf, backing });
        }
        for &(vpn, kind) in mapped {
            let vpn = VirtPageNum(vpn);
            if asp
                .page_table
                .leaf_for(vpn)
                .is_some_and(LeafSlot::is_attached)
            {
                continue;
            }
            match kind % 5 {
                0 | 1 => {
                    let flags = PteFlags::PRESENT | PteFlags::WRITABLE;
                    let pfn = w.frames.alloc(PageData::pattern(vpn.0)).unwrap();
                    asp.install_mapping(vpn, PhysAddr::Local(pfn), flags, kind % 5 == 0);
                }
                2 => {
                    let pfn = w.frames.alloc(PageData::pattern(vpn.0)).unwrap();
                    w.frames.inc_ref(pfn);
                    let flags = PteFlags::PRESENT | PteFlags::COW;
                    asp.install_mapping(vpn, PhysAddr::Local(pfn), flags, false);
                }
                3 => {
                    let page = w.device.alloc_page(region).unwrap();
                    let flags = PteFlags::PRESENT | PteFlags::COW;
                    asp.install_mapping(vpn, PhysAddr::Cxl(page), flags, false);
                }
                _ => {
                    let page = w.device.alloc_page(region).unwrap();
                    let pte = Pte::armed(PhysAddr::Cxl(page), PteFlags::FETCH_ON_ACCESS);
                    asp.page_table.set(vpn, pte);
                }
            }
        }
        // Bring the pages into the LLC so an unmap's invalidations show.
        for (_, pte) in asp.page_table.iter_populated().collect::<Vec<_>>() {
            if let (true, Some(target)) = (pte.is_present(), pte.target()) {
                w.cache.access(target);
            }
        }
        (w, asp)
    }

    /// Everything a walk over the page table may change.
    fn walk_state(w: &World, asp: &AddressSpace) -> String {
        let entries: Vec<_> = asp.page_table.iter_populated().collect();
        format!(
            "{entries:?} {} {} {:?} {:?} {:?}",
            asp.page_table.leaf_cow_events(),
            asp.private_local_pages,
            w.frames,
            w.cache,
            asp.vmas.iter().collect::<Vec<_>>()
        )
    }

    proptest::proptest! {
        /// `munmap` and `mprotect`, which visit only the leaves over the
        /// VMA, leave the same page table, leaf CoWs, frames (free-list
        /// order included), LLC and private-page count, and return the
        /// same VMA and cost, as the per-page walk they replaced, on
        /// random sparse mappings with attached checkpoint leaves.
        #[test]
        fn munmap_and_mprotect_equal_the_per_page_walk(
            mapped in proptest::collection::vec((0u64..3_200, 0u8..5), 0..120),
            attached in proptest::collection::vec(2u64..6, 0..3),
            at in 0u64..3_200,
        ) {
            let attached: Vec<u64> = attached.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
            let (mut w1, mut a1) = sparse_space(&mapped, &attached);
            let (mut w2, mut a2) = sparse_space(&mapped, &attached);
            let vpn = VirtPageNum(at);
            for prot in [Protection::read_only(), Protection::read_write()] {
                let got = a1.mprotect(vpn, prot, &mut w1.ctx());
                let expected = mprotect_page_by_page(&mut a2, vpn, prot, &mut w2.ctx());
                proptest::prop_assert_eq!(got, expected);
                proptest::prop_assert_eq!(walk_state(&w1, &a1), walk_state(&w2, &a2));
            }
            let got = a1.munmap(vpn, &mut w1.ctx());
            let expected = munmap_page_by_page(&mut a2, vpn, &mut w2.ctx());
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(walk_state(&w1, &a1), walk_state(&w2, &a2));
            let next = (w1.frames.alloc_zeroed(), w2.frames.alloc_zeroed());
            proptest::prop_assert_eq!(next.0, next.1, "the free lists differ");
        }

        /// The cursor probe answers every lookup exactly as a binary
        /// search does, over random backings and probe orders, with one
        /// cursor carried across two different backings.
        #[test]
        fn cxl_backing_cursor_probe_equals_a_binary_search(
            vpns in proptest::collection::vec(0u64..400, 0..120),
            other in proptest::collection::vec(0u64..400, 0..40),
            probes in proptest::collection::vec((0u64..420, proptest::arbitrary::any::<bool>()), 0..300),
        ) {
            let build = |vpns: &[u64]| {
                let vpns: BTreeSet<u64> = vpns.iter().copied().collect();
                let mut backing = CxlBacking::with_capacity(vpns.len());
                for vpn in vpns {
                    let page = BackingPage {
                        source: BackingSource::Device(CxlPageId(vpn * 7)),
                        accessed: vpn % 2 == 0,
                        dirty: vpn % 3 == 0,
                        file_backed: false,
                    };
                    backing.insert(VirtPageNum(vpn), page);
                }
                backing
            };
            let backings = [build(&vpns), build(&other)];
            let mut cursor = 0;
            let mut last = 0;
            for (i, (vpn, stride)) in probes.into_iter().enumerate() {
                let backing = &backings[usize::from(i % 50 >= 45)];
                // Mostly the next page after the last probe, as a run's
                // faults make, sometimes anywhere.
                let vpn = VirtPageNum(if stride { last + 1 } else { vpn });
                last = vpn.0;
                let probed = backing.find_from(vpn, &mut cursor).map(backing_key);
                proptest::prop_assert_eq!(probed, backing.find(vpn).map(backing_key));
            }
        }
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
