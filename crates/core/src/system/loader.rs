//! The trusted loader (paper §5.4): forbidden-instruction scan, builder
//! signature checks, W^X segment mapping under the cubicle's key, and
//! trampoline registration.

use super::dispatch::{CallGate, EntryDesc};
use super::locks::MonitorLock;
use super::{PageMeta, System};
use crate::component::{Component, ComponentImage};
use crate::cubicle::{Cubicle, RegionType};
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, EntryId};
use crate::race::RaceObject;
use cubicle_mpk::{PageFlags, ProtKey, VAddr, PAGE_SIZE};
use std::collections::HashMap;

/// Maximum rejection records kept by the loader audit log (a kernel must
/// not grow unbounded state when fed a stream of hostile images).
const LOADER_AUDIT_CAP: usize = 64;

/// Handle returned by the loader.
#[derive(Clone, Debug)]
pub struct LoadedComponent {
    /// The cubicle the component was loaded into.
    pub cid: CubicleId,
    /// The component's registry slot.
    pub slot: usize,
    /// Public entry points by symbol name.
    pub entries: HashMap<String, EntryId>,
}

impl LoadedComponent {
    /// Looks up an entry by name.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchEntry`] when the symbol was not exported —
    /// a deployment error surfaced at boot, typed so a bad caller never
    /// aborts the monitor.
    pub fn entry(&self, name: &str) -> Result<EntryId> {
        self.entries
            .get(name)
            .copied()
            .ok_or_else(|| CubicleError::NoSuchEntry(name.into()))
    }
}

/// Everything the loader needs to replay one [`System::install`] during a
/// microreboot: the (already verified) image segments, per registry slot.
/// Entry registrations are *not* replayed — entry IDs and trampolines
/// survive a reboot, so peers' proxies stay valid.
#[derive(Clone)]
pub(super) struct ReloadInfo {
    pub(super) cid: CubicleId,
    pub(super) code: cubicle_mpk::insn::CodeImage,
    pub(super) data_pages: usize,
    pub(super) heap_pages: usize,
    pub(super) stack_pages: usize,
}

impl System {
    /// Loads a component into a fresh cubicle.
    ///
    /// Performs the loader's integrity duties: scans the code image for
    /// forbidden `wrpkru`/`syscall` sequences, verifies that every export
    /// was signed by the trusted builder, maps code execute-only and data
    /// read-write (W^X), tags all pages with the cubicle's fresh MPK key,
    /// populates the page metadata map and registers one trampoline per
    /// public entry.
    ///
    /// # Errors
    ///
    /// [`CubicleError::ForbiddenInstruction`],
    /// [`CubicleError::UntrustedTrampoline`], [`CubicleError::OutOfKeys`],
    /// [`CubicleError::TooManyCubicles`], or a duplicate-symbol error.
    pub fn load(
        &mut self,
        image: ComponentImage,
        state: Box<dyn Component>,
    ) -> Result<LoadedComponent> {
        if self.cubicles.len() >= 64 {
            return Err(CubicleError::TooManyCubicles);
        }
        let cid = CubicleId(self.cubicles.len() as u16);
        let key = self.keys.draw(cid, image.shared)?;
        let cubicle = Cubicle::new(cid, image.name.clone(), key, image.shared);
        self.cubicles.push(cubicle);
        self.install(image, state, cid)
    }

    /// Loads a component into an *existing* cubicle (same key, same
    /// protection domain). This builds the merged configurations of
    /// Figure 9a (e.g. `CORE+RAMFS` sharing one compartment).
    ///
    /// # Errors
    ///
    /// Same as [`System::load`].
    pub fn load_into(
        &mut self,
        image: ComponentImage,
        state: Box<dyn Component>,
        cid: CubicleId,
    ) -> Result<LoadedComponent> {
        if cid.index() >= self.cubicles.len() {
            return Err(CubicleError::InvalidArgument("load_into: no such cubicle"));
        }
        self.install(image, state, cid)
    }

    fn install(
        &mut self,
        image: ComponentImage,
        state: Box<dyn Component>,
        cid: CubicleId,
    ) -> Result<LoadedComponent> {
        // Rule: refuse code containing instructions that would undermine
        // the isolation mechanisms. The early-exit scan decides the
        // verdict; the exhaustive scan feeds the audit log so operators
        // see *every* occurrence, not just the first.
        if let Some(bad) = image.code.scan_forbidden() {
            let hits = image.code.scan_all();
            self.stats.loads_rejected += 1;
            self.stats.forbidden_insns += hits.len() as u64;
            if self.loader_audit.len() < LOADER_AUDIT_CAP {
                let (off, first) = hits.first().copied().expect("fast path found one");
                self.loader_audit.push(format!(
                    "loader: image `{}` rejected: {} forbidden occurrence(s), first `{first}` at +{off:#x}",
                    image.name,
                    hits.len(),
                ));
            }
            // roll back an empty cubicle created by `load`
            return Err(CubicleError::ForbiddenInstruction(bad));
        }
        // Rule: trampolines must come from the trusted builder.
        for (signed, _) in &image.exports {
            if !self.verifier.verify(signed) {
                return Err(CubicleError::UntrustedTrampoline {
                    entry: signed.decl.name.clone(),
                });
            }
        }
        for (signed, _) in &image.exports {
            if self.entry_names.contains_key(&signed.decl.name) {
                return Err(CubicleError::DuplicateSymbol(signed.decl.name.clone()));
            }
        }

        let reload = ReloadInfo {
            cid,
            code: image.code.clone(),
            data_pages: image.data_pages,
            heap_pages: image.heap_pages,
            stack_pages: image.stack_pages,
        };
        self.map_component_segments(&reload);

        // Register the component, its reload image and its trampolines.
        let slot = self.components.len();
        self.components.push(Some(state));
        self.reloads.push(reload);
        self.component_names.push(image.name.clone());
        let mut entries = HashMap::new();
        for (signed, func) in image.exports {
            let id = EntryId(self.entries.len() as u32);
            self.entries.push(EntryDesc {
                name: signed.decl.name.clone(),
                gate: CallGate {
                    cubicle: cid,
                    slot,
                    func,
                    stack_arg_bytes: signed.decl.stack_arg_bytes(),
                },
            });
            self.entry_names.insert(signed.decl.name.clone(), id);
            entries.insert(signed.decl.name, id);
        }
        Ok(LoadedComponent { cid, slot, entries })
    }

    /// Maps one component's code/data/heap/stack segments into its
    /// cubicle. Shared by [`System::install`] and the microreboot path
    /// ([`System::restart`]), which replays the same layout into fresh
    /// pages.
    pub(super) fn map_component_segments(&mut self, info: &ReloadInfo) {
        let cid = info.cid;
        let key = self.cubicles[cid.index()].key;

        // Map code pages: write the image through a temporary RW mapping,
        // then flip to execute-only (W^X).
        let code_pages = info.code.len().div_ceil(PAGE_SIZE).max(1);
        let code_base = self.map_fresh(code_pages, key, PageFlags::rw(), cid, RegionType::Code);
        let mut off = 0;
        for chunk in info.code.bytes().chunks(PAGE_SIZE) {
            self.machine
                .write(code_base + off, chunk)
                .expect("loader writes its own fresh mapping");
            off += chunk.len();
        }
        for page in 0..code_pages {
            self.machine
                .set_page_flags(code_base + page * PAGE_SIZE, PageFlags::x())
                .expect("just mapped");
        }

        // Global data, heap and stack.
        if info.data_pages > 0 {
            self.map_fresh(
                info.data_pages,
                key,
                PageFlags::rw(),
                cid,
                RegionType::GlobalData,
            );
        }
        if info.heap_pages > 0 {
            // Heap accounting (heap_pages_granted inside map_fresh, the
            // sub-allocator region list) is ledger state: restart replays
            // race with concurrent heap_alloc calls on other cores.
            let start = self.lock_acquire(MonitorLock::Ledger);
            let heap_base =
                self.map_fresh(info.heap_pages, key, PageFlags::rw(), cid, RegionType::Heap);
            self.race_note(
                RaceObject::Ledger,
                true,
                "map_component_segments:heap.add_region",
            );
            self.cubicles[cid.index()] // verify: lock-held(ledger)
                .heap
                .add_region(heap_base, info.heap_pages * PAGE_SIZE);
            self.lock_release(MonitorLock::Ledger, start);
        }
        if info.stack_pages > 0 {
            let stack_base = self.map_fresh(
                info.stack_pages,
                key,
                PageFlags::rw(),
                cid,
                RegionType::Stack,
            );
            let c = &mut self.cubicles[cid.index()];
            c.stack_base = stack_base;
            c.stack_len = info.stack_pages * PAGE_SIZE;
        }
    }

    pub(super) fn map_fresh(
        &mut self,
        pages: usize,
        key: ProtKey,
        flags: PageFlags,
        owner: CubicleId,
        region: RegionType,
    ) -> VAddr {
        let base = VAddr::new(self.next_page * PAGE_SIZE as u64);
        // +1: keep an unmapped guard page between regions so overruns
        // fault instead of silently touching a neighbour.
        self.next_page += pages as u64 + 1;
        if region == RegionType::Heap {
            // Every heap-growing caller (heap_alloc_locked, the restart
            // replay in map_component_segments) holds the ledger lock
            // around this call.
            self.race_note(RaceObject::Ledger, true, "map_fresh:heap_pages_granted");
            self.cubicles[owner.index()].heap_pages_granted += pages; // verify: lock-held(ledger)
        }
        let start = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(RaceObject::PageMeta, true, "map_fresh:page_meta.insert");
        for i in 0..pages {
            let addr = base + i * PAGE_SIZE;
            self.machine.map_page(addr, key, flags);
            self.page_meta.insert(
                addr.page(),
                PageMeta {
                    owner,
                    region,
                    holder: owner,
                    via: None,
                },
            );
        }
        self.lock_release(MonitorLock::PageMeta, start);
        base
    }

    /// Rejection records from the loader: one line per refused image,
    /// with the total occurrence count and first offset from the
    /// exhaustive [`cubicle_mpk::insn::CodeImage::scan_all`] scan.
    /// Recorded even when tracing is off (capped at 64 entries).
    pub fn loader_audit(&self) -> &[String] {
        &self.loader_audit
    }
}
