//! The `RAMFS` component implementation.

use std::collections::{BTreeMap, HashMap, VecDeque};

use cubicle_core::{
    component_mut, impl_component, Builder, Component, ComponentImage, CubicleError, CubicleId,
    Errno, LoadedComponent, RecoveryEvent, Result, System, Value, WindowId,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::{VAddr, PAGE_SIZE};
use cubicle_ukbase::{AllocProxy, BaseSystem};
use cubicle_vfs::path::components;
use cubicle_vfs::{flags, FsOps, Vfs, VfsPort, VfsProxy, PAGE_MAP_HEADER};

use crate::journal::{AppendOutcome, Journal, JournalRecord};

/// Pages requested from `ALLOC` per pool refill (coarse-grained
/// allocation, paper Fig. 8).
pub const POOL_CHUNK_PAGES: usize = 64;

/// Cycles of RAMFS-internal work per operation.
const RAMFS_OP_COST: u64 = 80;

#[derive(Debug)]
enum Inode {
    Dir { entries: Vec<(String, usize)> },
    File { size: u64, extents: Vec<VAddr> },
}

/// A live sendfile mapping: one window covering every extent page of an
/// inode, shared (refcounted) across concurrent mappers. The window
/// descriptor records which peers it admits.
#[derive(Debug)]
struct SendfileMap {
    wid: WindowId,
    refs: u64,
}

/// A peer's read-only page map of one inode (DESIGN §6s): the file's
/// full pages, shared read-only under the pair key (owner `RAMFS`, peer
/// read-only), kept while the file grows and revoked only when extents
/// may be dropped. The generation word tells its holders whether the
/// pages they were listed are still the map's.
#[derive(Debug)]
struct PageMap {
    /// The page the generation word is published in, shared read-only
    /// with the peer for the map's whole life.
    gen_page: VAddr,
    gen_wid: WindowId,
    /// The generation the mapped pages belong to.
    gen: u64,
    /// The window over the mapped pages; `None` while none are mapped.
    pages_wid: Option<WindowId>,
    /// Pages mapped, from the file's first.
    mapped: usize,
    /// Holders: `map_extents` calls without [`flags::MAP_MORE`] not yet
    /// matched by an `unmap_extents`.
    refs: u64,
}

impl PageMap {
    /// Does the kernel still admit `peer` to the map's generation word?
    /// A read-only share ends when its peer is quarantined, and the end
    /// closes the window: the map then has nothing for the peer's next
    /// life, which holds none of its references.
    fn live(&self, sys: &System, peer: CubicleId) -> bool {
        let me = sys.cubicle(sys.current_cubicle());
        me.window(self.gen_wid).is_some_and(|w| w.is_open_for(peer))
    }

    /// Ends the map: destroys its windows and frees its generation word.
    fn end(self, sys: &mut System) -> Result<()> {
        if let Some(wid) = self.pages_wid {
            sys.window_destroy(wid)?;
        }
        sys.window_destroy(self.gen_wid)?;
        sys.heap_free(self.gen_page)
    }
}

/// Where the bytes of a store come from.
#[derive(Clone, Copy)]
enum Bytes<'a> {
    /// Already inside `RAMFS` (a journaled payload, a copied range).
    Local(&'a [u8]),
    /// The caller's buffer, reached through its window.
    Caller(VAddr),
}

/// State of the `RAMFS` component.
#[derive(Debug)]
pub struct Ramfs {
    inodes: Vec<Option<Inode>>,
    pool: Vec<VAddr>,
    alloc: Option<AllocProxy>,
    /// Extent pages currently in use (statistics).
    pub pages_used: u64,
    /// Live sendfile windows by inode (`map_extents`/`unmap_extents`).
    sendfile_maps: HashMap<i64, SendfileMap>,
    /// Read-only page maps by inode and peer, in that order (revocation
    /// walks an inode's maps in peer order).
    page_maps: BTreeMap<(i64, CubicleId), PageMap>,
    /// The last generation handed out: every map and every revocation
    /// takes a fresh one.
    map_gen: u64,
    /// Redo journal in custodian-owned pages ([`boot_fs`]).
    journal: Option<Journal>,
}

impl Default for Ramfs {
    fn default() -> Self {
        Ramfs {
            inodes: vec![Some(Inode::Dir {
                entries: Vec::new(),
            })], // root = ino 0
            pool: Vec::new(),
            alloc: None,
            pages_used: 0,
            sendfile_maps: HashMap::new(),
            page_maps: BTreeMap::new(),
            map_gen: 0,
            journal: None,
        }
    }
}

impl_component!(Ramfs, restart_sys = reboot_recover);

impl Ramfs {
    /// Microreboot hook: the quarantine path reclaimed every extent page
    /// and the cubicle heap, so inode contents, the extent pool and the
    /// usage counter are all dead — back to an empty root directory. The
    /// `ALLOC` proxy survives (entry IDs are stable across reboots), and
    /// so does the journal region: it lives in a surviving custodian's
    /// pages, reachable through the window the custodian kept open, so
    /// every acknowledged namespace operation is redone here — the hook
    /// runs inside the reborn cubicle, resolving reads like any other
    /// component code would.
    fn reboot_recover(&mut self, sys: &mut System) {
        let alloc = self.alloc;
        let journal = self.journal.take();
        *self = Ramfs::default();
        self.alloc = alloc;
        self.journal = journal;
        let Some(mut j) = self.journal.take() else {
            return;
        };
        let replayed = match j.replay(sys) {
            Ok(Some(records)) => {
                let mut applied = 0u64;
                for rec in &records {
                    if self.apply_record(sys, rec).is_err() {
                        break; // never apply past a failed redo
                    }
                    applied += 1;
                }
                Some(applied)
            }
            Ok(None) | Err(_) => None,
        };
        self.journal = Some(j);
        if let Some(records) = replayed {
            sys.record_recovery(RecoveryEvent::RamfsJournalReplay { records });
        }
    }
    /// Wires the coarse allocator; without it the backend grows extents
    /// from its own cubicle heap (standalone tests).
    pub fn set_alloc(&mut self, alloc: AllocProxy) {
        self.alloc = Some(alloc);
    }

    fn lookup_path(&self, path: &str) -> std::result::Result<usize, i64> {
        let mut ino = 0usize;
        for comp in components(path) {
            match self.inodes.get(ino).and_then(Option::as_ref) {
                Some(Inode::Dir { entries }) => match entries.iter().find(|(n, _)| *n == comp) {
                    Some((_, child)) => ino = *child,
                    None => return Err(Errno::Enoent.neg()),
                },
                Some(Inode::File { .. }) => return Err(Errno::Enotdir.neg()),
                None => return Err(Errno::Enoent.neg()),
            }
        }
        Ok(ino)
    }

    fn file_mut(&mut self, ino: i64) -> std::result::Result<(&mut u64, &mut Vec<VAddr>), i64> {
        match usize::try_from(ino)
            .ok()
            .and_then(|i| self.inodes.get_mut(i)?.as_mut())
        {
            Some(Inode::File { size, extents }) => Ok((size, extents)),
            Some(Inode::Dir { .. }) => Err(Errno::Eisdir.neg()),
            None => Err(Errno::Enoent.neg()),
        }
    }

    fn take_page(&mut self, sys: &mut System) -> Result<VAddr> {
        if self.pool.is_empty() {
            match self.alloc {
                Some(proxy) => {
                    let base = proxy.palloc(sys, POOL_CHUNK_PAGES)?;
                    for i in 0..POOL_CHUNK_PAGES {
                        self.pool.push(base + i * PAGE_SIZE);
                    }
                }
                None => {
                    let base = sys.alloc_pages(POOL_CHUNK_PAGES);
                    for i in 0..POOL_CHUNK_PAGES {
                        self.pool.push(base + i * PAGE_SIZE);
                    }
                }
            }
        }
        let page = self.pool.pop().expect("refilled above");
        // Pool pages may hold stale contents from a previous file.
        sys.fill(page, 0, PAGE_SIZE)?;
        self.pages_used += 1;
        Ok(page)
    }

    /// Tears down the sendfile window over `ino`, if one exists. Called
    /// whenever the extent set is about to change (truncate, remove,
    /// growing write): the mapping's extent list would go stale, so
    /// authority is revoked rather than left dangling.
    fn drop_sendfile_map(&mut self, sys: &mut System, ino: i64) -> Result<()> {
        if let Some(m) = self.sendfile_maps.remove(&ino) {
            sys.window_destroy(m.wid)?;
        }
        Ok(())
    }

    /// Joins `peer`'s read-only page map of `ino` (or, with `more`, finds
    /// it) and grows it to `full`, the file's full pages: the new pages
    /// join the map's window, which retags only them, and the mapped ones
    /// stay as they are. Returns the generation word's address and value;
    /// `Ok(Err(-ENOENT))` for `more` without a live map, and the
    /// [`share_errno`] of a share the kernel refuses. A map that is not
    /// [`PageMap::live`] any more is ended first.
    fn page_map(
        &mut self,
        sys: &mut System,
        ino: i64,
        peer: CubicleId,
        full: &[VAddr],
        more: bool,
    ) -> Result<std::result::Result<(VAddr, u64), i64>> {
        if self
            .page_maps
            .get(&(ino, peer))
            .is_some_and(|m| !m.live(sys, peer))
        {
            let map = self.page_maps.remove(&(ino, peer)).expect("found above");
            map.end(sys)?;
        }
        if !self.page_maps.contains_key(&(ino, peer)) {
            if more {
                return Ok(Err(Errno::Enoent.neg()));
            }
            let gen_page = sys.heap_alloc(PAGE_SIZE, PAGE_SIZE)?;
            self.map_gen += 1;
            let shared = sys
                .write_u64(gen_page, self.map_gen)
                .and_then(|()| sys.share_read_only(&[(gen_page, PAGE_SIZE)], peer));
            let gen_wid = match shared {
                Ok(wid) => wid,
                Err(e) => return sys.heap_free(gen_page).and(share_errno(e).map(Err)),
            };
            let map = PageMap {
                gen_page,
                gen_wid,
                gen: self.map_gen,
                pages_wid: None,
                mapped: 0,
                refs: 0,
            };
            self.page_maps.insert((ino, peer), map);
        }
        let map = self
            .page_maps
            .get_mut(&(ino, peer))
            .expect("inserted above");
        if full.len() > map.mapped {
            let fresh: Vec<_> = full[map.mapped..].iter().map(|&p| (p, PAGE_SIZE)).collect();
            match map.pages_wid {
                Some(wid) => {
                    for &(page, len) in &fresh {
                        sys.window_add(wid, page, len)?;
                    }
                }
                None => match sys.share_read_only(&fresh, peer) {
                    Ok(wid) => map.pages_wid = Some(wid),
                    Err(e) => {
                        // A map no holder joined yet goes with the refusal;
                        // the peer reads through `ramfs_read`.
                        let errno = share_errno(e)?;
                        if map.refs == 0 {
                            let map = self.page_maps.remove(&(ino, peer)).expect("found above");
                            map.end(sys)?;
                        }
                        return Ok(Err(errno));
                    }
                },
            }
            map.mapped = full.len();
        }
        if !more {
            map.refs += 1;
        }
        Ok(Ok((map.gen_page, map.gen)))
    }

    /// Revokes every read-only page map of `ino`: the generation word
    /// moves on, so a holder's next mapped read sees it and reads through
    /// `ramfs_read` instead, and the mapped pages leave the map's window,
    /// back to `RAMFS`'s key. The map and its word live on for their
    /// holders, and grow again from the file's first page.
    fn revoke_page_maps(&mut self, sys: &mut System, ino: i64) -> Result<()> {
        let peers = (ino, CubicleId(0))..=(ino, CubicleId(u16::MAX));
        for map in self.page_maps.range_mut(peers).map(|(_, m)| m) {
            self.map_gen += 1;
            map.gen = self.map_gen;
            sys.write_u64(map.gen_page, map.gen)?;
            if let Some(wid) = map.pages_wid.take() {
                sys.window_destroy(wid)?;
            }
            map.mapped = 0;
        }
        Ok(())
    }

    /// Drops one holder of `peer`'s read-only page map of `ino`; the last
    /// one ends the map (a no-op without one).
    fn unmap_pages(&mut self, sys: &mut System, ino: i64, peer: CubicleId) -> Result<()> {
        let Some(map) = self.page_maps.get_mut(&(ino, peer)) else {
            return Ok(());
        };
        map.refs = map.refs.saturating_sub(1);
        if map.refs > 0 {
            return Ok(());
        }
        let map = self.page_maps.remove(&(ino, peer)).expect("found above");
        map.end(sys)
    }

    /// The store step behind `ramfs_write`, `ramfs_copy_range` and the
    /// replay of a `Write` record: grows `ino` to cover `[off, off + n)`
    /// (revoking any live sendfile mapping first, since the extent set
    /// changes under it), zeroes the gap between the old end of file and
    /// `off`, copies the `n` bytes of `src` into the extent pages and
    /// raises the size. `Ok(Err(-errno))` is a domain error.
    fn store(
        &mut self,
        sys: &mut System,
        ino: i64,
        off: u64,
        n: usize,
        src: Bytes<'_>,
    ) -> Result<std::result::Result<(), i64>> {
        let needed_pages = (off as usize + n).div_ceil(PAGE_SIZE);
        let (size, grows) = match self.file_mut(ino) {
            Ok((size, extents)) => (*size, extents.len() < needed_pages),
            Err(e) => return Ok(Err(e)),
        };
        if grows {
            self.drop_sendfile_map(sys, ino)?;
        }
        self.grow_extents(sys, ino, needed_pages)?;
        self.zero_tail(sys, ino, size, off)?;
        let extents = self.file_mut(ino).expect("checked").1.clone();
        let mut copied = 0usize;
        while copied < n {
            let pos = off as usize + copied;
            let (pi, po) = (pos / PAGE_SIZE, pos % PAGE_SIZE);
            let chunk = (PAGE_SIZE - po).min(n - copied);
            let dst = extents[pi] + po;
            let r = match src {
                Bytes::Local(data) => sys.write(dst, &data[copied..copied + chunk]),
                Bytes::Caller(buf) => cubicle_ukbase::libc::memcpy(sys, dst, buf + copied, chunk),
            };
            match r {
                Ok(()) => {}
                Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
                    return Ok(Err(Errno::Eacces.neg()))
                }
                Err(e) => return Err(e),
            }
            copied += chunk;
        }
        let (size, _) = self.file_mut(ino).expect("checked");
        *size = (*size).max(off + n as u64);
        Ok(Ok(()))
    }

    /// The resize step behind `ramfs_truncate` and the replay of a
    /// `Truncate` record: sets `ino`'s size to `len`, its surplus extent
    /// pages back to the pool and the missing ones zeroed from it. A
    /// grow zeroes the old last page past the old end of file, where a
    /// shrink may have left bytes; a shrink zeroes nothing.
    /// `Ok(Err(-errno))` for a non-file.
    fn resize(
        &mut self,
        sys: &mut System,
        ino: i64,
        len: u64,
    ) -> Result<std::result::Result<(), i64>> {
        let size = match self.file_mut(ino) {
            Ok((size, _)) => *size,
            Err(e) => return Ok(Err(e)),
        };
        self.zero_tail(sys, ino, size, len)?;
        let needed_pages = (len as usize).div_ceil(PAGE_SIZE);
        let (_, extents) = self.file_mut(ino).expect("checked");
        let surplus = extents.split_off(needed_pages.min(extents.len()));
        self.pages_used -= surplus.len() as u64;
        self.pool.extend(surplus);
        self.grow_extents(sys, ino, needed_pages)?;
        *self.file_mut(ino).expect("checked").0 = len;
        Ok(Ok(()))
    }

    /// Appends zeroed pool pages to file `ino` until it has `pages`.
    fn grow_extents(&mut self, sys: &mut System, ino: i64, pages: usize) -> Result<()> {
        while self.file_mut(ino).expect("a file").1.len() < pages {
            let page = self.take_page(sys)?;
            self.file_mut(ino).expect("a file").1.push(page);
        }
        Ok(())
    }

    /// Zeroes `[end, to)` within the page holding byte `end`, the old end
    /// of file `ino`, when the file grows past it: the pages after it
    /// come zeroed from the pool, but a shrink may have left bytes here.
    fn zero_tail(&mut self, sys: &mut System, ino: i64, end: u64, to: u64) -> Result<()> {
        let (page, at) = (end as usize / PAGE_SIZE, end as usize % PAGE_SIZE);
        if at == 0 || to <= end {
            return Ok(());
        }
        let page = self.file_mut(ino).expect("a file").1[page];
        let len = (to - end).min((PAGE_SIZE - at) as u64) as usize;
        sys.fill(page + at, 0, len)
    }

    /// The drop step behind `ramfs_remove` and the replay of a `Remove`
    /// record: revokes any map of inode `ino`, frees it (a file's extent
    /// pages back to the pool) and unlinks `name` from `parent`.
    fn drop_inode(
        &mut self,
        sys: &mut System,
        ino: usize,
        parent: usize,
        name: &str,
    ) -> Result<()> {
        self.drop_sendfile_map(sys, ino as i64)?;
        self.revoke_page_maps(sys, ino as i64)?;
        if let Some(Inode::File { extents, .. }) = self.inodes.get_mut(ino).and_then(Option::take) {
            self.pages_used -= extents.len() as u64;
            self.pool.extend(extents);
        }
        if let Some(Inode::Dir { entries }) = self.inodes.get_mut(parent).and_then(Option::as_mut) {
            entries.retain(|(n, _)| n != name);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Redo journal
    // ------------------------------------------------------------------

    /// The attached journal, if any (statistics, tests).
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Arms the journal's crash-injection hook: after `appends` more
    /// record appends, `RAMFS` touches wild memory *between* writing the
    /// record bytes and publishing the length — the torn-append window
    /// the crashstorm campaign aims at. No-op without a journal.
    pub fn set_journal_crash_after(&mut self, appends: Option<u64>) {
        if let Some(j) = self.journal.as_mut() {
            j.set_crash_after(appends);
        }
    }

    /// Logs `rec` ahead of applying it. On a full region the journal is
    /// compacted to a snapshot of the live tree and the append retried;
    /// if even the snapshot does not fit, the journal flags itself
    /// disabled rather than replay a lie.
    fn journal_append(&mut self, sys: &mut System, rec: &JournalRecord) -> Result<()> {
        match self.journal.as_mut() {
            None => return Ok(()),
            Some(j) if j.disabled => return Ok(()),
            Some(_) => {}
        }
        let outcome = self.journal.as_mut().expect("checked").append(sys, rec)?;
        if outcome != AppendOutcome::Full {
            return Ok(());
        }
        let snapshot = self.snapshot_records(sys)?;
        let j = self.journal.as_mut().expect("checked");
        if !j.rewrite(sys, &snapshot)? {
            return Ok(()); // disabled on-region
        }
        if j.append(sys, rec)? == AppendOutcome::Full {
            // A single record larger than the whole region.
            j.disable(sys)?;
        }
        Ok(())
    }

    /// Renders the live tree as the minimal record sequence that
    /// recreates it: one `Create` per inode (parents before children)
    /// plus one whole-content `Write` per non-empty file.
    fn snapshot_records(&self, sys: &mut System) -> Result<Vec<JournalRecord>> {
        let mut recs = Vec::new();
        let mut queue = VecDeque::from([0usize]);
        while let Some(dir) = queue.pop_front() {
            let Some(Inode::Dir { entries }) = self.inodes.get(dir).and_then(Option::as_ref) else {
                continue;
            };
            for (name, child) in entries {
                match self.inodes.get(*child).and_then(Option::as_ref) {
                    Some(Inode::Dir { .. }) => {
                        recs.push(JournalRecord::Create {
                            ino: *child as u32,
                            parent: dir as u32,
                            name: name.clone(),
                            is_dir: true,
                        });
                        queue.push_back(*child);
                    }
                    Some(Inode::File { size, extents }) => {
                        recs.push(JournalRecord::Create {
                            ino: *child as u32,
                            parent: dir as u32,
                            name: name.clone(),
                            is_dir: false,
                        });
                        if *size > 0 {
                            let mut data = Vec::with_capacity(*size as usize);
                            let mut remaining = *size as usize;
                            for page in extents {
                                let chunk = remaining.min(PAGE_SIZE);
                                data.extend_from_slice(&sys.read_vec(*page, chunk)?);
                                remaining -= chunk;
                                if remaining == 0 {
                                    break;
                                }
                            }
                            recs.push(JournalRecord::Write {
                                ino: *child as u32,
                                off: 0,
                                data,
                            });
                        }
                    }
                    None => {}
                }
            }
        }
        Ok(recs)
    }

    /// Redoes one journal record against the (freshly reset) tree,
    /// through the steps the exports use. Unlike the export wrappers
    /// this never journals — replay must not feed the log it is reading.
    fn apply_record(&mut self, sys: &mut System, rec: &JournalRecord) -> Result<()> {
        match rec {
            JournalRecord::Create {
                ino,
                parent,
                name,
                is_dir,
            } => {
                let (ino, parent) = (*ino as usize, *parent as usize);
                if self.inodes.len() <= ino {
                    self.inodes.resize_with(ino + 1, || None);
                }
                self.inodes[ino] = Some(if *is_dir {
                    Inode::Dir {
                        entries: Vec::new(),
                    }
                } else {
                    Inode::File {
                        size: 0,
                        extents: Vec::new(),
                    }
                });
                if let Some(Inode::Dir { entries }) =
                    self.inodes.get_mut(parent).and_then(Option::as_mut)
                {
                    entries.retain(|(n, _)| n != name);
                    entries.push((name.clone(), ino));
                }
            }
            // Redo through the exports' own steps; a record against a
            // hole is skipped.
            JournalRecord::Remove { ino, parent, name } => {
                self.drop_inode(sys, *ino as usize, *parent as usize, name)?;
            }
            JournalRecord::Write { ino, off, data } => {
                let src = Bytes::Local(data);
                let _ = self.store(sys, i64::from(*ino), *off, data.len(), src)?;
            }
            JournalRecord::Truncate { ino, len } => {
                let _ = self.resize(sys, i64::from(*ino), *len)?;
            }
        }
        Ok(())
    }
}

/// Wires a crash-surviving journal into the stack's `RAMFS`: `VFSCORE`,
/// which outlives `RAMFS` quarantines, allocates `pages` pages, opens a
/// window over them for `RAMFS`, and formats the region; `RAMFS` then
/// journals every namespace mutation through that window ahead of
/// applying it.
fn install_journal(sys: &mut System, fs: &FsStack, pages: usize) -> Result<()> {
    let ramfs_cid = fs.ramfs_cid;
    let base = sys.run_in_cubicle(fs.vfs_cid, |sys| -> Result<VAddr> {
        let base = sys.alloc_pages(pages);
        sys.share(&[(base, pages * PAGE_SIZE)], &[ramfs_cid])?;
        // The custodian formats its own pages directly.
        Journal::new(base, pages).format(sys)?;
        Ok(base)
    })?;
    sys.with_component_mut::<Ramfs, _>(fs.ramfs_slot, |ramfs, _| {
        ramfs.journal = Some(Journal::new(base, pages));
    })
    .expect("ramfs slot holds the Ramfs component");
    Ok(())
}

/// Builds the loadable `RAMFS` image.
pub fn image() -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new("RAMFS", CodeImage::plain(12 * 1024))
        .heap_pages(8)
        .export(
            b.export("long ramfs_lookup(const char *path, size_t len)")
                .unwrap(),
            e_lookup,
        )
        .export(
            b.export("long ramfs_create(const char *path, size_t len, int is_dir)")
                .unwrap(),
            e_create,
        )
        .export(
            b.export("long ramfs_remove(const char *path, size_t len)")
                .unwrap(),
            e_remove,
        )
        .export(
            b.export("long ramfs_read(long ino, void *buf, size_t n, uint64_t off)")
                .unwrap(),
            e_read,
        )
        .export(
            b.export(
                "long ramfs_write(long ino, const void *buf, size_t n, uint64_t off, int flags)",
            )
            .unwrap(),
            e_write,
        )
        .export(
            b.export("long ramfs_truncate(long ino, uint64_t len)")
                .unwrap(),
            e_truncate,
        )
        .export(b.export("long ramfs_size(long ino)").unwrap(), e_size)
        .export(b.export("long ramfs_sync(long ino)").unwrap(), e_sync)
        .export(
            b.export("long ramfs_readdir(long ino, void *buf, size_t n, long index)")
                .unwrap(),
            e_readdir,
        )
        .export(b.export("long ramfs_is_dir(long ino)").unwrap(), e_is_dir)
        .export(
            b.export(
                "long ramfs_map_extents(long ino, long peer, void *out, size_t n, \
                 uint64_t first, int flags)",
            )
            .unwrap(),
            e_map_extents,
        )
        .export(
            b.export("long ramfs_unmap_extents(long ino, long peer, int flags)")
                .unwrap(),
            e_unmap_extents,
        )
        .export(
            b.export(
                "long ramfs_copy_range(long ino_in, uint64_t off_in, long ino_out, \
                 uint64_t off_out, size_t n)",
            )
            .unwrap(),
            e_copy_range,
        )
}

/// Fills `VFSCORE`'s callback table with this backend's entries.
///
/// # Errors
///
/// [`cubicle_core::CubicleError::NoSuchEntry`] when the image does not
/// export the expected symbols.
pub fn fs_ops(loaded: &LoadedComponent) -> Result<FsOps> {
    Ok(FsOps {
        cid: loaded.cid,
        lookup: loaded.entry("ramfs_lookup")?,
        create: loaded.entry("ramfs_create")?,
        remove: loaded.entry("ramfs_remove")?,
        read: loaded.entry("ramfs_read")?,
        write: loaded.entry("ramfs_write")?,
        truncate: loaded.entry("ramfs_truncate")?,
        size: loaded.entry("ramfs_size")?,
        sync: loaded.entry("ramfs_sync")?,
        readdir: loaded.entry("ramfs_readdir")?,
        is_dir: loaded.entry("ramfs_is_dir")?,
        map_extents: loaded.entry("ramfs_map_extents")?,
        unmap_extents: loaded.entry("ramfs_unmap_extents")?,
        copy_range: loaded.entry("ramfs_copy_range")?,
    })
}

/// Boot-time wiring: mounts this backend into a loaded `VFSCORE` at
/// `prefix` (Unikraft fills callback tables at initialisation time).
///
/// # Errors
///
/// [`cubicle_core::CubicleError::NoSuchEntry`] when the backend image
/// does not export the full callback table.
pub fn mount_at(
    sys: &mut System,
    vfs_slot: usize,
    ramfs: &LoadedComponent,
    prefix: &str,
) -> Result<()> {
    let ops = fs_ops(ramfs)?;
    sys.with_component_mut::<Vfs, _>(vfs_slot, |vfs, _| vfs.mount(prefix, ops))
        .expect("vfs slot holds the Vfs component");
    Ok(())
}

/// The storage stack [`boot_fs`] builds: `VFSCORE` with one `RAMFS`
/// mounted at `/`.
#[derive(Clone, Copy, Debug)]
pub struct FsStack {
    /// `VFSCORE`'s entry points.
    pub vfs: VfsProxy,
    /// `VFSCORE`'s cubicle (the journal's custodian).
    pub vfs_cid: CubicleId,
    /// Registry slot of `VFSCORE`.
    pub vfs_slot: usize,
    /// The `RAMFS` cubicle.
    pub ramfs_cid: CubicleId,
    /// Registry slot of `RAMFS`.
    pub ramfs_slot: usize,
    ops: FsOps,
}

impl FsStack {
    /// Mounts the same `RAMFS` at one more `prefix`.
    pub fn mount(&self, sys: &mut System, prefix: &str) {
        sys.with_component_mut::<Vfs, _>(self.vfs_slot, |vfs, _| vfs.mount(prefix, self.ops))
            .expect("vfs slot holds the Vfs component");
    }

    /// Opens a file port onto this stack for the current cubicle.
    ///
    /// # Errors
    ///
    /// As [`VfsPort::new`].
    pub fn port(&self, sys: &mut System) -> Result<VfsPort> {
        VfsPort::new(sys, self.vfs, &[self.ramfs_cid])
    }
}

/// Builds the storage stack on `base`, in boot order: loads `VFSCORE`,
/// loads `RAMFS`, gives it the `ALLOC` proxy and mounts it at `/`. With
/// `Some(pages)`, `RAMFS` also gets a redo journal of that many pages
/// kept by `VFSCORE` (DESIGN.md §6k): durability is chosen when the
/// stack is built, never after boot.
///
/// # Errors
///
/// Loader errors, and kernel errors from the journal's allocation,
/// window or format path.
pub fn boot_fs(
    sys: &mut System,
    base: &BaseSystem,
    journal_pages: Option<usize>,
) -> Result<FsStack> {
    let vfs = sys.load(cubicle_vfs::image(), Box::new(Vfs::default()))?;
    let ramfs = sys.load(image(), Box::new(Ramfs::default()))?;
    sys.with_component_mut::<Ramfs, _>(ramfs.slot, |fs, _| fs.set_alloc(base.alloc))
        .expect("ramfs slot holds the Ramfs component");
    let fs = FsStack {
        vfs: VfsProxy::resolve(&vfs)?,
        vfs_cid: vfs.cid,
        vfs_slot: vfs.slot,
        ramfs_cid: ramfs.cid,
        ramfs_slot: ramfs.slot,
        ops: fs_ops(&ramfs)?,
    };
    fs.mount(sys, "/");
    if let Some(pages) = journal_pages {
        install_journal(sys, &fs, pages)?;
    }
    Ok(fs)
}

fn read_rel_path(sys: &mut System, args: &[Value]) -> Result<std::result::Result<String, i64>> {
    let (addr, len) = args[0].as_buf();
    if len > 4096 {
        return Ok(Err(Errno::Einval.neg()));
    }
    let bytes = match sys.read_vec(addr, len) {
        Ok(b) => b,
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
            return Ok(Err(Errno::Eacces.neg()))
        }
        Err(e) => return Err(e),
    };
    match String::from_utf8(bytes) {
        Ok(s) => Ok(Ok(s)),
        Err(_) => Ok(Err(Errno::Einval.neg())),
    }
}

fn e_lookup(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let path = match read_rel_path(sys, args)? {
        Ok(p) => p,
        Err(e) => return Ok(Value::I64(e)),
    };
    let fs = component_mut::<Ramfs>(this);
    match fs.lookup_path(&path) {
        Ok(ino) => Ok(Value::I64(ino as i64)),
        Err(e) => Ok(Value::I64(e)),
    }
}

fn e_create(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let path = match read_rel_path(sys, args)? {
        Ok(p) => p,
        Err(e) => return Ok(Value::I64(e)),
    };
    let is_dir = args[1].as_i64() != 0;
    let fs = component_mut::<Ramfs>(this);
    let mut comps = components(&path);
    let Some(name) = comps.pop() else {
        return Ok(Value::I64(Errno::Eexist.neg())); // root always exists
    };
    let parent = match fs.lookup_path(&comps.join("/")) {
        Ok(i) => i,
        Err(e) => return Ok(Value::I64(e)),
    };
    // Parent must be a directory without a same-named entry.
    match fs.inodes.get(parent).and_then(Option::as_ref) {
        Some(Inode::Dir { entries }) => {
            if entries.iter().any(|(n, _)| *n == name) {
                return Ok(Value::I64(Errno::Eexist.neg()));
            }
        }
        _ => return Ok(Value::I64(Errno::Enotdir.neg())),
    }
    let ino = fs.inodes.len();
    if fs.journal.is_some() {
        let rec = JournalRecord::Create {
            ino: ino as u32,
            parent: parent as u32,
            name: name.clone(),
            is_dir,
        };
        let fs = component_mut::<Ramfs>(this);
        fs.journal_append(sys, &rec)?;
    }
    let fs = component_mut::<Ramfs>(this);
    fs.inodes.push(Some(if is_dir {
        Inode::Dir {
            entries: Vec::new(),
        }
    } else {
        Inode::File {
            size: 0,
            extents: Vec::new(),
        }
    }));
    match fs.inodes[parent].as_mut() {
        Some(Inode::Dir { entries }) => entries.push((name, ino)),
        _ => unreachable!("checked above"),
    }
    Ok(Value::I64(ino as i64))
}

fn e_remove(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let path = match read_rel_path(sys, args)? {
        Ok(p) => p,
        Err(e) => return Ok(Value::I64(e)),
    };
    let fs = component_mut::<Ramfs>(this);
    let mut comps = components(&path);
    let Some(name) = comps.pop() else {
        return Ok(Value::I64(Errno::Einval.neg())); // cannot remove root
    };
    let parent = match fs.lookup_path(&comps.join("/")) {
        Ok(i) => i,
        Err(e) => return Ok(Value::I64(e)),
    };
    let ino = {
        let Some(Inode::Dir { entries }) = fs.inodes.get(parent).and_then(Option::as_ref) else {
            return Ok(Value::I64(Errno::Enotdir.neg()));
        };
        match entries.iter().find(|(n, _)| *n == name) {
            Some((_, i)) => *i,
            None => return Ok(Value::I64(Errno::Enoent.neg())),
        }
    };
    match fs.inodes.get(ino).and_then(Option::as_ref) {
        Some(Inode::Dir { entries }) if !entries.is_empty() => {
            return Ok(Value::I64(Errno::Enotempty.neg()))
        }
        _ => {}
    }
    if fs.journal.is_some() {
        let rec = JournalRecord::Remove {
            ino: ino as u32,
            parent: parent as u32,
            name: name.clone(),
        };
        let fs = component_mut::<Ramfs>(this);
        fs.journal_append(sys, &rec)?;
    }
    let fs = component_mut::<Ramfs>(this);
    fs.drop_inode(sys, ino, parent, &name)?;
    Ok(Value::I64(0))
}

fn e_read(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let ino = args[0].as_i64();
    let (buf, n) = args[1].as_buf();
    let off = args[2].as_u64();
    let fs = component_mut::<Ramfs>(this);
    let (size, extents) = match fs.file_mut(ino) {
        Ok(x) => (*x.0, x.1.clone()),
        Err(e) => return Ok(Value::I64(e)),
    };
    if off >= size {
        return Ok(Value::I64(0)); // EOF
    }
    let n = n.min((size - off) as usize);
    // Copy extent pages → caller's buffer (runs with RAMFS privileges;
    // writing the caller's buffer requires the caller's window).
    let mut copied = 0usize;
    while copied < n {
        let pos = off as usize + copied;
        let page_idx = pos / PAGE_SIZE;
        let page_off = pos % PAGE_SIZE;
        let chunk = (PAGE_SIZE - page_off).min(n - copied);
        let src = extents[page_idx] + page_off;
        match cubicle_ukbase::libc::memcpy(sys, buf + copied, src, chunk) {
            Ok(()) => {}
            Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
                return Ok(Value::I64(Errno::Eacces.neg()))
            }
            Err(e) => return Err(e),
        }
        copied += chunk;
    }
    Ok(Value::I64(n as i64))
}

/// `write(ino, buf, n, off, flags)` → bytes: stores `n` bytes of the
/// caller's buffer at `off`. With [`flags::RWF_DSYNC`] a successful store
/// runs [`sync_file`] before returning, so the write and its sync cost
/// one crossing; a failed store does not sync and returns its errno.
fn e_write(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let ino = args[0].as_i64();
    let (buf, n) = args[1].as_buf();
    let off = args[2].as_u64();
    let dsync = args[3].as_i64() & flags::RWF_DSYNC != 0;
    // Journal ahead of any mutation. The payload is pulled through the
    // caller's window once, logged, and applied from the local copy, so
    // the journaled bytes and the extent bytes can never diverge.
    let payload: Option<Vec<u8>> = {
        let fs = component_mut::<Ramfs>(this);
        if fs.journal.is_some() {
            if let Err(e) = fs.file_mut(ino) {
                return Ok(Value::I64(e));
            }
            let data = match sys.read_vec(buf, n) {
                Ok(d) => d,
                Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
                    return Ok(Value::I64(Errno::Eacces.neg()))
                }
                Err(e) => return Err(e),
            };
            let rec = JournalRecord::Write {
                ino: ino as u32,
                off,
                data,
            };
            let fs = component_mut::<Ramfs>(this);
            fs.journal_append(sys, &rec)?;
            let JournalRecord::Write { data, .. } = rec else {
                unreachable!("built above");
            };
            Some(data)
        } else {
            None
        }
    };
    let fs = component_mut::<Ramfs>(this);
    let src = match &payload {
        Some(data) => Bytes::Local(data),
        None => Bytes::Caller(buf),
    };
    let r = match fs.store(sys, ino, off, n, src)? {
        Ok(()) if dsync => sync_file(sys),
        Ok(()) => 0,
        Err(e) => e,
    };
    Ok(Value::I64(if r < 0 { r } else { n as i64 }))
}

/// `copy_range(ino_in, off_in, ino_out, off_out, n)` → bytes copied: the
/// in-backend half of `copy_file_range`. The source bytes are read into
/// a local buffer first (so a copy within one file may overlap), logged
/// as an ordinary `Write` record, and stored through the same step as
/// `ramfs_write`. No caller memory is touched: the bytes never leave
/// `RAMFS`. A source shorter than `off_in + n` gives a short count.
fn e_copy_range(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let ino_in = args[0].as_i64();
    let off_in = args[1].as_u64();
    let ino_out = args[2].as_i64();
    let off_out = args[3].as_u64();
    let fs = component_mut::<Ramfs>(this);
    if let Err(e) = fs.file_mut(ino_out) {
        return Ok(Value::I64(e));
    }
    let (size, extents) = match fs.file_mut(ino_in) {
        Ok((size, extents)) => (*size, extents.clone()),
        Err(e) => return Ok(Value::I64(e)),
    };
    if off_in >= size {
        return Ok(Value::I64(0)); // EOF
    }
    let n = args[4].as_u64().min(size - off_in) as usize;
    let mut data = vec![0u8; n];
    let mut copied = 0usize;
    while copied < n {
        let pos = off_in as usize + copied;
        let (pi, po) = (pos / PAGE_SIZE, pos % PAGE_SIZE);
        let chunk = (PAGE_SIZE - po).min(n - copied);
        sys.read(extents[pi] + po, &mut data[copied..copied + chunk])?;
        copied += chunk;
    }
    let rec = JournalRecord::Write {
        ino: ino_out as u32,
        off: off_out,
        data,
    };
    if fs.journal.is_some() {
        fs.journal_append(sys, &rec)?;
    }
    let JournalRecord::Write { data, .. } = rec else {
        unreachable!("built above");
    };
    match fs.store(sys, ino_out, off_out, n, Bytes::Local(&data))? {
        Ok(()) => Ok(Value::I64(n as i64)),
        Err(e) => Ok(Value::I64(e)),
    }
}

fn e_truncate(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let ino = args[0].as_i64();
    let new_len = args[1].as_u64();
    let fs = component_mut::<Ramfs>(this);
    let size = match fs.file_mut(ino) {
        Ok((size, _)) => *size,
        Err(e) => return Ok(Value::I64(e)),
    };
    if fs.journal.is_some() {
        let rec = JournalRecord::Truncate {
            ino: ino as u32,
            len: new_len,
        };
        fs.journal_append(sys, &rec)?;
    }
    // A truncate to the current size changes nothing a map lists. A
    // sendfile map's list goes stale on any other; a read-only map lists
    // only pages wholly below the end of file, which only a shrink can
    // break.
    if new_len != size {
        fs.drop_sendfile_map(sys, ino)?;
    }
    if new_len < size {
        fs.revoke_page_maps(sys, ino)?;
    }
    match fs.resize(sys, ino, new_len)? {
        Ok(()) => Ok(Value::I64(0)),
        Err(e) => Ok(Value::I64(e)),
    }
}

fn e_size(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST / 2);
    let ino = args[0].as_i64();
    let fs = component_mut::<Ramfs>(this);
    match fs.file_mut(ino) {
        Ok((size, _)) => Ok(Value::I64(*size as i64)),
        Err(e) => Ok(Value::I64(e)),
    }
}

fn e_sync(sys: &mut System, _this: &mut dyn Component, _args: &[Value]) -> Result<Value> {
    Ok(Value::I64(sync_file(sys)))
}

/// The sync step behind `ramfs_sync` and a [`flags::RWF_DSYNC`]
/// `ramfs_write` → 0 or `-errno`. RAM-backed: there is nothing to flush,
/// so it charges its work and succeeds; the crossing that reaches it is
/// the cost the paper measures. With a journal ([`boot_fs`]) every store
/// is already journaled before its write returns.
fn sync_file(sys: &mut System) -> i64 {
    sys.charge(RAMFS_OP_COST / 2);
    0
}

fn e_readdir(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let ino = args[0].as_i64();
    let (buf, n) = args[1].as_buf();
    let index = args[2].as_i64();
    let fs = component_mut::<Ramfs>(this);
    let name = match usize::try_from(ino)
        .ok()
        .and_then(|i| fs.inodes.get(i)?.as_ref())
    {
        Some(Inode::Dir { entries }) => {
            match usize::try_from(index).ok().and_then(|i| entries.get(i)) {
                Some((name, _)) => name.clone(),
                None => return Ok(Value::I64(Errno::Enoent.neg())),
            }
        }
        Some(Inode::File { .. }) => return Ok(Value::I64(Errno::Enotdir.neg())),
        None => return Ok(Value::I64(Errno::Enoent.neg())),
    };
    let out = name.as_bytes();
    let len = out.len().min(n);
    match sys.write(buf, &out[..len]) {
        Ok(()) => Ok(Value::I64(len as i64)),
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => Ok(Value::I64(Errno::Eacces.neg())),
        Err(e) => Err(e),
    }
}

/// `map_extents(ino, peer, out, n, first, flags)`: maps `ino`'s data
/// pages to `peer` and writes their addresses (`u64` LE each) into `out`,
/// through one walk of the extent list for both kinds of map:
///
/// * `flags` 0 — sendfile: one refcounted window over every extent page,
///   granted to `peer` (and the caller, who already reaches RAMFS). The
///   whole list must fit `out` (`first` must be 0), or it is `-EINVAL`.
///   The consumer reads response bytes straight out of the file's own
///   pages, no intermediate copy.
/// * [`flags::MAP_READ_ONLY`] — `peer`'s read-only page map (DESIGN
///   §6s), over the pages wholly below the end of file. The call joins
///   the map (with [`flags::MAP_MORE`], finds the live one) and grows it
///   to the file's full pages, then lists them from page `first` on, as
///   many as fit `out` after the generation word's address and value.
///
/// Returns the number of pages listed.
fn e_map_extents(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST);
    let ino = args[0].as_i64();
    let peer_raw = args[1].as_i64();
    let (out, n) = args[2].as_buf();
    let first = args[3].as_u64();
    let mode = args[4].as_i64();
    let read_only = mode & flags::MAP_READ_ONLY != 0;
    let known = flags::MAP_READ_ONLY | flags::MAP_MORE;
    let Ok(peer) = u16::try_from(peer_raw) else {
        return Ok(Value::I64(Errno::Einval.neg()));
    };
    if mode & !known != 0 || (!read_only && (mode != 0 || first != 0)) {
        return Ok(Value::I64(Errno::Einval.neg()));
    }
    let peer = CubicleId(peer);
    let (size, extents) = {
        let fs = component_mut::<Ramfs>(this);
        match fs.file_mut(ino) {
            Ok((size, extents)) => (*size, extents.clone()),
            Err(e) => return Ok(Value::I64(e)),
        }
    };
    // The pages a map may cover: every extent for sendfile; for a
    // read-only map, which outlives the call, only the full ones.
    let (covered, header, room) = if read_only {
        let full = usize::try_from(size).unwrap_or(usize::MAX) / PAGE_SIZE;
        (full, PAGE_MAP_HEADER, n.saturating_sub(PAGE_MAP_HEADER) / 8)
    } else {
        (extents.len(), 0, n / 8)
    };
    let from = usize::try_from(first).unwrap_or(usize::MAX).min(covered);
    let listed = &extents[from..covered.min(from.saturating_add(room))];
    if !read_only && listed.len() < covered {
        return Ok(Value::I64(Errno::Einval.neg()));
    }
    let mut bytes = Vec::with_capacity(header + listed.len() * 8);
    if read_only {
        let fs = component_mut::<Ramfs>(this);
        let more = mode & flags::MAP_MORE != 0;
        match fs.page_map(sys, ino, peer, &extents[..covered], more)? {
            Ok((gen_page, gen)) => {
                bytes.extend_from_slice(&gen_page.raw().to_le_bytes());
                bytes.extend_from_slice(&gen.to_le_bytes());
            }
            Err(e) => return Ok(Value::I64(e)),
        }
    }
    for page in listed {
        bytes.extend_from_slice(&page.raw().to_le_bytes());
    }
    // Sendfile publishes the list before it maps: a denied write leaves no
    // window behind and no reference to roll back. A read-only map's
    // header names the map, so a denied write gives its reference back.
    if !bytes.is_empty() {
        match sys.write(out, &bytes) {
            Ok(()) => {}
            Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
                if read_only && mode & flags::MAP_MORE == 0 {
                    component_mut::<Ramfs>(this).unmap_pages(sys, ino, peer)?;
                }
                return Ok(Value::I64(Errno::Eacces.neg()));
            }
            Err(e) => return Err(e),
        }
    }
    if !read_only && !extents.is_empty() {
        let existing = component_mut::<Ramfs>(this)
            .sendfile_maps
            .get(&ino)
            .map(|m| m.wid);
        let shared = match existing {
            Some(wid) => sys.reshare(wid, peer).map(|()| wid),
            None => {
                let ranges: Vec<_> = extents.iter().map(|&page| (page, PAGE_SIZE)).collect();
                sys.share(&ranges, &[peer])
            }
        };
        let wid = match shared {
            Ok(wid) => wid,
            Err(e) => return share_errno(e).map(Value::I64),
        };
        let fs = component_mut::<Ramfs>(this);
        fs.sendfile_maps
            .entry(ino)
            .or_insert(SendfileMap { wid, refs: 0 })
            .refs += 1;
    }
    Ok(Value::I64(listed.len() as i64))
}

/// The errno for a share over `peer` the kernel refuses: `-ENOSPC` when
/// no key can carry a read-only map (the peer then reads through
/// `ramfs_read`), `-EINVAL` for a peer that is not loaded. Any other
/// error is the kernel's.
fn share_errno(e: CubicleError) -> Result<i64> {
    match e {
        CubicleError::OutOfKeys => Ok(Errno::Enospc.neg()),
        CubicleError::NoSuchCubicle(_) => Ok(Errno::Einval.neg()),
        e => Err(e),
    }
}

/// `unmap_extents(ino, peer, flags)`: drops one `map_extents` reference
/// taken with `flags`. A sendfile window is destroyed (revoking all
/// peers at once) when its count reaches zero, a read-only page map
/// when its last holder leaves. Idempotent — unmapping an inode whose
/// sendfile window was already revoked by a truncate/remove/growing
/// write, or whose maps a microreboot ended, is a no-op.
fn e_unmap_extents(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST / 2);
    let ino = args[0].as_i64();
    let fs = component_mut::<Ramfs>(this);
    if args[2].as_i64() & flags::MAP_READ_ONLY != 0 {
        if let Ok(peer) = u16::try_from(args[1].as_i64()) {
            fs.unmap_pages(sys, ino, CubicleId(peer))?;
        }
        return Ok(Value::I64(0));
    }
    let Some(m) = fs.sendfile_maps.get_mut(&ino) else {
        return Ok(Value::I64(0));
    };
    m.refs -= 1;
    if m.refs == 0 {
        fs.drop_sendfile_map(sys, ino)?;
    }
    Ok(Value::I64(0))
}

fn e_is_dir(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(RAMFS_OP_COST / 2);
    let ino = args[0].as_i64();
    let fs = component_mut::<Ramfs>(this);
    match usize::try_from(ino)
        .ok()
        .and_then(|i| fs.inodes.get(i)?.as_ref())
    {
        Some(Inode::Dir { .. }) => Ok(Value::I64(1)),
        Some(Inode::File { .. }) => Ok(Value::I64(0)),
        None => Ok(Value::I64(Errno::Enoent.neg())),
    }
}
