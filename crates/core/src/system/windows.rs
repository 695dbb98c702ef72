//! The window API (paper Table 1), plus `window_share`: a window its
//! owner shares with one peer under a pair key (DESIGN §6l), read-only
//! for the peer with `share_read_only` (DESIGN §6s); and the
//! shared-buffer seam components use instead of hand-rolling window
//! lifecycles (DESIGN §6m): [`System::share`], [`System::share_paired`],
//! [`System::share_read_only`], [`System::reshare`] and the scoped
//! [`System::with_shared`].

use super::keys::{pair_of, PairShare};
use super::locks::MonitorLock;
use super::observe::PageOp;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, WindowId};
use crate::race::RaceObject;
use crate::trace::{TraceEvent, WindowOpKind};
use cubicle_mpk::{pages_covering, KeyRights, PageNum, ProtKey, VAddr, PAGE_SIZE};

/// The pages of one ended pair share that may still carry its key.
pub(super) struct Unpair {
    owner: CubicleId,
    key: ProtKey,
    pages: Vec<PageNum>,
}

impl System {
    /// Opens a window-management critical section: acquires the
    /// windows lock and charges the monitor-call cost. Balance with
    /// [`System::window_op_end`], which releases the lock — the section
    /// must cover the descriptor mutation itself, or a fault searching
    /// the array on another core races with it. Every charged operation,
    /// failed ones too, ends with one [`System::window_op_done`].
    fn window_op_begin(&mut self) -> Option<u64> {
        if self.window_ops_charged() {
            // Window management is a call into the trusted monitor
            // cubicle: trampoline + PKRU switches + the operation itself.
            // Descriptor mutation serialises on the windows lock across
            // cores.
            let start = self.lock_acquire(MonitorLock::Windows);
            let cost = *self.machine.cost_model();
            self.machine.charge(cost.trampoline + 2 * cost.wrpkru + 25);
            Some(start)
        } else {
            None
        }
    }

    /// Closes the critical section opened by [`System::window_op_begin`].
    fn window_op_end(&mut self, start: Option<u64>) {
        if let Some(start) = start {
            self.lock_release(MonitorLock::Windows, start);
        }
    }

    /// Records a charged window operation and its outcome.
    fn window_op_done(
        &mut self,
        op: WindowOpKind,
        wid: WindowId,
        peer: Option<CubicleId>,
        result: &Result<()>,
        grants_dropped: u32,
    ) {
        self.record(TraceEvent::WindowOp {
            op,
            wid,
            peer,
            ok: result.is_ok(),
            grants_dropped,
        });
    }

    /// `cubicle_window_init`: creates an empty window owned by the
    /// current cubicle.
    pub fn window_init(&mut self) -> WindowId {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::Windows, true, "window_init:windows.push");
        let wid = self.cubicles[cid.index()].window_init();
        self.window_op_end(wstart);
        self.window_op_done(WindowOpKind::Init, wid, None, &Ok(()), 0);
        wid
    }

    /// `cubicle_window_add`: associates `[ptr, ptr+len)` with window
    /// `wid`. A range added to a window under a live pair share joins the
    /// share at once: its pages are retagged to the pair key, one
    /// `pkey_mprotect` each, as [`System::window_share`] retags the
    /// window's first ones.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`] or [`CubicleError::NotOwner`] when
    /// the range is not owned by the calling cubicle.
    pub fn window_add(&mut self, wid: WindowId, ptr: VAddr, len: usize) -> Result<()> {
        // The ownership check reads page_meta, and fault resolution
        // searches window descriptors while holding page_meta — acquire
        // in the same page_meta → windows order so the lock graph stays
        // acyclic.
        let pstart = self.lock_acquire(MonitorLock::PageMeta);
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::PageMeta, false, "window_add:page_meta.get");
        let mut result = Ok(());
        for page in pages_covering(ptr, len) {
            match self.page_meta.get(&page) {
                Some(m) if m.owner == cid => {}
                _ => {
                    result = Err(CubicleError::NotOwner { addr: page.base() });
                    break;
                }
            }
        }
        if result.is_ok() {
            self.race_note(RaceObject::Windows, true, "window_add:window_mut.add_range");
            match self.cubicles[cid.index()].window_mut(wid) {
                Some(w) => w.add_range(ptr, len),
                None => result = Err(CubicleError::NoSuchWindow(wid)),
            }
        }
        self.window_op_end(wstart);
        self.lock_release(MonitorLock::PageMeta, pstart);
        if result.is_ok()
            && self
                .keys
                .shares
                .iter()
                .any(|s| s.owner == cid && s.wid == wid)
        {
            for page in pages_covering(ptr, len) {
                if let Some((key, _)) = self.shared_home_key(cid, cid, page) {
                    self.retag_owned(cid, &[page], None, key);
                }
            }
        }
        self.window_op_done(WindowOpKind::Add, wid, None, &result, 0);
        result
    }

    /// `cubicle_window_remove`: removes the range previously added at
    /// `ptr`.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`] when `wid` does not exist or
    /// [`CubicleError::InvalidArgument`] when no range starts at `ptr`.
    pub fn window_remove(&mut self, wid: WindowId, ptr: VAddr) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_remove:window_mut.remove_range",
        );
        // A shared window's removed range leaves the share at once.
        let unpair: Vec<Unpair> = self
            .keys
            .shares
            .iter()
            .filter(|s| s.owner == cid && s.wid == wid)
            .map(|s| Unpair {
                owner: cid,
                key: s.key,
                pages: self.window_pages(cid, wid, Some(ptr)),
            })
            .collect();
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            None => Err(CubicleError::NoSuchWindow(wid)),
            Some(w) => {
                if w.remove_range(ptr) {
                    Ok(())
                } else {
                    Err(CubicleError::InvalidArgument(
                        "window_remove: no range at ptr",
                    ))
                }
            }
        };
        let mut grants_dropped = 0;
        if result.is_ok() {
            // The window narrowed: drop every grant it authorised (pages
            // outside the removed range will simply re-resolve and
            // repopulate — correctness over cleverness).
            grants_dropped = self.grant_cache_retain("window_remove:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.unpair(unpair);
        }
        self.window_op_done(WindowOpKind::Remove, wid, None, &result, grants_dropped);
        result
    }

    /// `cubicle_window_open`: allows `peer` to access the window.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`], or [`CubicleError::NoSuchCubicle`]
    /// for a `peer` not loaded, before any ACL edit.
    pub fn window_open(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        self.open_window(wid, peer, false, KeyRights::ReadWrite)
    }

    /// Opens a persistent window for `peer`, the one cubicle its owner
    /// shares it with, under a pair key (DESIGN §6l).
    ///
    /// Does everything [`System::window_open`] does. In
    /// [`IsolationMode::Full`](crate::IsolationMode::Full) it also pins a
    /// key k(owner, peer) from the key pool — the pair's live one, if
    /// another of their windows holds it — enables it in both members'
    /// PKRU sets and eagerly retags the window's pages to it, one
    /// `pkey_mprotect` per page. Neither member traps on those pages
    /// again; a third cubicle admitted by another window still goes
    /// through trap-and-map, and the pair's next touch after it takes
    /// the pair key back.
    ///
    /// With [`SystemConfig::pair_keys`](crate::SystemConfig::pair_keys)
    /// off, no free key in the pool, or a peer that is the owner,
    /// the monitor or a shared cubicle, it is exactly `window_open`.
    ///
    /// Unsharing is eager — the owner never traps on a pair-keyed page,
    /// so it would never take it back lazily: `window_close` or
    /// `window_close_all` for the peer and `window_destroy` end the
    /// share, `window_remove` takes the removed range out of it, and all
    /// retag the pages still carrying the pair key to the owner's key at
    /// once. Quarantine of either member ends its shares the same way,
    /// and an ownership transfer retags the transferred pages. The end of
    /// the pair's last share returns the key to the pool.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`], or [`CubicleError::NoSuchCubicle`]
    /// for a `peer` not loaded, before any ACL edit.
    pub fn window_share(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        self.open_window(wid, peer, true, KeyRights::ReadWrite)
    }

    /// The one path behind [`System::window_open`],
    /// [`System::window_share`] and [`System::share_read_only`]'s open;
    /// `share` asks for the pair key, `rights` are the peer's. Where
    /// pages are keyed, a load-only peer is admitted only under its key:
    /// without one the ACL is left as it was and the open fails with
    /// [`CubicleError::OutOfKeys`].
    fn open_window(
        &mut self,
        wid: WindowId,
        peer: CubicleId,
        share: bool,
        rights: KeyRights,
    ) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::Windows, true, "window_open:window_mut.open_for");
        let result = self.loaded(peer).and_then(|()| {
            let w = self.cubicles[cid.index()].window(wid);
            w.map(|_| ()).ok_or(CubicleError::NoSuchWindow(wid))
        });
        let paired = match result {
            Ok(()) if share && self.pair_keys_between(cid, peer) => self
                .keys
                .share(cid, peer, wid, rights)
                .map(|key| (key, self.window_pages(cid, wid, None))),
            _ => None,
        };
        let result = result.and_then(|()| {
            if rights == KeyRights::ReadOnly && paired.is_none() && self.share_traps() {
                return Err(CubicleError::OutOfKeys);
            }
            let w = self.cubicles[cid.index()].window_mut(wid);
            w.expect("found above").open_for(peer);
            Ok(())
        });
        self.window_op_end(wstart);
        let op = match paired {
            Some((key, pages)) => {
                self.retag_owned(cid, &pages, None, key);
                WindowOpKind::Share
            }
            None => WindowOpKind::Open,
        };
        self.window_op_done(op, wid, Some(peer), &result, 0);
        result
    }

    /// A window ACL admits only loaded cubicles: an ID past the table
    /// would shift out of the `u64` mask, or leave a bit for the next
    /// load to inherit.
    fn loaded(&self, peer: CubicleId) -> Result<()> {
        if peer.index() < self.cubicles.len() {
            Ok(())
        } else {
            Err(CubicleError::NoSuchCubicle(peer))
        }
    }

    /// Can `owner` and `peer` hold a pair key? Pair keys are on, and both
    /// are distinct, live, isolated cubicles (a shared cubicle's key is
    /// already in every PKRU set).
    fn pair_keys_between(&self, owner: CubicleId, peer: CubicleId) -> bool {
        self.pair_keys
            && owner != peer
            && owner != CubicleId::MONITOR
            && peer != CubicleId::MONITOR
            && peer.index() < self.cubicles.len()
            && [owner, peer].iter().all(|c| {
                let c = &self.cubicles[c.index()];
                !c.shared && !c.is_quarantined()
            })
    }

    /// The read-write pair key `a` and `b` share windows under, while
    /// they do (see [`System::window_share`]).
    pub fn pair_key(&self, a: CubicleId, b: CubicleId) -> Option<ProtKey> {
        self.keys.pair_key(a, b)
    }

    /// The read-only pair key `owner` shares pages with `peer` under,
    /// while it does (see [`System::share_read_only`]).
    pub fn read_only_key(&self, owner: CubicleId, peer: CubicleId) -> Option<ProtKey> {
        self.keys.read_only_key(owner, peer)
    }

    /// The pair key a page of `owner` carries for `member`, and
    /// `member`'s rights on it: `Some` while `member` is one of a live
    /// share's pair and a range of the shared window covers `page`.
    /// Reads window descriptors; the fault path holds the windows lock
    /// around it.
    pub(crate) fn shared_home_key(
        &self,
        owner: CubicleId,
        member: CubicleId,
        page: PageNum,
    ) -> Option<(ProtKey, KeyRights)> {
        self.keys
            .shares
            .iter()
            .find(|s| {
                s.owner == owner
                    && s.has(member)
                    && self.cubicles[owner.index()]
                        .window(s.wid)
                        .is_some_and(|w| w.ranges().iter().any(|r| r.covers_page(page)))
            })
            .map(|s| (s.key, s.rights_of(member)))
    }

    /// The distinct pages window `wid` of `owner` covers — only its
    /// ranges starting at `start`, when given.
    fn window_pages(&self, owner: CubicleId, wid: WindowId, start: Option<VAddr>) -> Vec<PageNum> {
        let mut pages: Vec<PageNum> = self.cubicles[owner.index()]
            .window(wid)
            .into_iter()
            .flat_map(|w| w.ranges())
            .filter(|r| start.is_none_or(|p| r.start == p))
            .flat_map(|r| pages_covering(r.start, r.len))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Ends the pair shares `ends` selects, with the windows lock held
    /// and before their windows change. Returns the pages to hand back
    /// to their owners once the lock is released ([`System::unpair`]).
    ///
    /// A load-only admission exists only under its key, so the end of a
    /// read-only share also closes its window for the peer: where the
    /// window outlives the share (the peer was quarantined), a restarted
    /// peer must not find a key-less, read-write admission left behind.
    pub(super) fn unshare_locked(&mut self, ends: impl Fn(&PairShare) -> bool) -> Vec<Unpair> {
        let ended = self.keys.unshare(ends);
        for s in ended.iter().filter(|s| s.rights == KeyRights::ReadOnly) {
            if let Some(w) = self.cubicles[s.owner.index()].window_mut(s.wid) {
                w.close_for(s.peer);
            }
        }
        ended
            .into_iter()
            .map(|s| Unpair {
                owner: s.owner,
                key: s.key,
                pages: self.window_pages(s.owner, s.wid, None),
            })
            .collect()
    }

    /// Retags the pages of ended shares that still carry the pair key
    /// back to their owner's key, eagerly: the owner never traps on a
    /// pair-keyed page, so it would never take one back lazily.
    pub(super) fn unpair(&mut self, ended: Vec<Unpair>) {
        for u in ended {
            let owner_key = self.cubicles[u.owner.index()].key;
            self.retag_owned(u.owner, &u.pages, Some(u.key), owner_key);
        }
    }

    /// Retags `owner`'s pages among `pages` to `to` — only those carrying
    /// `from`, when given — with the owner as their holder, then reloads
    /// the running cubicle's PKRU so its pair keys are current. Each
    /// retag pays `pkey_mprotect`; the PKRU reload rides on the window
    /// operation's already charged `wrpkru` pair.
    fn retag_owned(
        &mut self,
        owner: CubicleId,
        pages: &[PageNum],
        from: Option<ProtKey>,
        to: ProtKey,
    ) {
        let pstart = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(RaceObject::PageMeta, false, "retag_owned:page_meta.get");
        for &page in pages {
            let key = self.machine.page_entry(page.base()).map(|e| e.key);
            let owned = self.page_meta.get(&page).is_some_and(|m| m.owner == owner);
            if owned && key != Some(to) && from.is_none_or(|k| key == Some(k)) {
                self.page_op(page.base(), PageOp::Retag(to))
                    .expect("owned page is mapped");
                self.record_holder(page.base(), owner, None);
            }
        }
        self.lock_release(MonitorLock::PageMeta, pstart);
        let pkru = self.pkru_for(self.current_cubicle());
        self.machine.set_pkru_at_load(pkru);
    }

    /// `cubicle_window_close`: disallows `peer`.
    ///
    /// Closing is *lazy*: pages already retagged to the peer stay
    /// readable by it until another authorised cubicle touches them —
    /// the paper's causal tag consistency (§5.6). Closing a shared
    /// window for its peer is eager (see [`System::window_share`]).
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`], or [`CubicleError::NoSuchCubicle`]
    /// for a `peer` not loaded, before any ACL edit.
    pub fn window_close(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_close:window_mut.close_for",
        );
        let result = self.loaded(peer).and_then(|()| {
            let w = self.cubicles[cid.index()].window_mut(wid);
            w.map(|w| w.close_for(peer))
                .ok_or(CubicleError::NoSuchWindow(wid))
        });
        let unpair = self.unshare_locked(|s| s.owner == cid && s.wid == wid && s.peer == peer);
        let mut grants_dropped = 0;
        if result.is_ok() {
            // Closing is lazy for already-retagged pages, but the
            // *authority* is gone: the peer's next fault must take the
            // full search and be denied, not ride a cached grant.
            grants_dropped = self
                .grant_cache_retain("window_close:grant_cache.retain", |&(accessor, _), e| {
                    !(e.owner == cid && e.via == wid && accessor == peer)
                });
        }
        self.window_op_end(wstart);
        self.unpair(unpair);
        self.window_op_done(
            WindowOpKind::Close,
            wid,
            Some(peer),
            &result,
            grants_dropped,
        );
        result
    }

    /// `cubicle_window_close_all`: closes the window for every cubicle.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_close_all(&mut self, wid: WindowId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_close_all:window_mut.close_all",
        );
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            Some(w) => {
                w.close_all();
                Ok(())
            }
            None => Err(CubicleError::NoSuchWindow(wid)),
        };
        let unpair = self.unshare_locked(|s| s.owner == cid && s.wid == wid);
        let mut grants_dropped = 0;
        if result.is_ok() {
            grants_dropped = self
                .grant_cache_retain("window_close_all:grant_cache.retain", |_, e| {
                    !(e.owner == cid && e.via == wid)
                });
        }
        self.window_op_end(wstart);
        self.unpair(unpair);
        self.window_op_done(WindowOpKind::CloseAll, wid, None, &result, grants_dropped);
        result
    }

    /// `cubicle_window_destroy`: destroys the window.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_destroy(&mut self, wid: WindowId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_destroy:windows.swap_remove",
        );
        let unpair = self.unshare_locked(|s| s.owner == cid && s.wid == wid);
        let mut grants_dropped = 0;
        let result = if self.cubicles[cid.index()].window_destroy(wid) {
            grants_dropped = self
                .grant_cache_retain("window_destroy:grant_cache.retain", |_, e| {
                    !(e.owner == cid && e.via == wid)
                });
            Ok(())
        } else {
            Err(CubicleError::NoSuchWindow(wid))
        };
        self.window_op_end(wstart);
        self.unpair(unpair);
        self.window_op_done(WindowOpKind::Destroy, wid, None, &result, grants_dropped);
        result
    }

    /// Shares `ranges` of the current cubicle's memory with `peers` in a
    /// new persistent window: one `window_init`, a `window_add` per range,
    /// then a `window_open` per peer — the Table 1 calls, charged as such.
    /// The window descriptor stays the only record of the share; its
    /// owner ends it with [`System::window_destroy`].
    ///
    /// # Errors
    ///
    /// [`CubicleError::NotOwner`] when a range is not the caller's. The
    /// half-built window is destroyed before the error returns.
    pub fn share(&mut self, ranges: &[(VAddr, usize)], peers: &[CubicleId]) -> Result<WindowId> {
        self.build_window(ranges, peers, false, KeyRights::ReadWrite)
    }

    /// [`System::share`] with one peer under the pair's key: its open is
    /// a [`System::window_share`]. The monitor never infers this from a
    /// one-peer share; the owner asks for it.
    ///
    /// A pair key exposes whole pages for the life of the share, not for
    /// one call, so every range must be page-aligned and a whole number
    /// of pages: a neighbour on a partly shared page would be exposed
    /// along with it.
    ///
    /// # Errors
    ///
    /// [`CubicleError::InvalidArgument`], before any window operation,
    /// for a range that is not whole pages; otherwise as
    /// [`System::share`].
    pub fn share_paired(&mut self, ranges: &[(VAddr, usize)], peer: CubicleId) -> Result<WindowId> {
        whole_pages(ranges)?;
        self.build_window(ranges, &[peer], true, KeyRights::ReadWrite)
    }

    /// [`System::share_paired`] with `peer` admitted for loads only
    /// (DESIGN §6s). Load-only is a right of the key, not of the window:
    /// the pair key is bound to (owner, peer) read-only, the peer's PKRU
    /// set enables it with the write-disable bit, the owner's without,
    /// and trap-and-map denies the peer's stores without a search. It is
    /// never the read-write key of the same two cubicles. Where no page
    /// key is ever checked ([`System::share_traps`] false) the window is
    /// plainly open. The share's end closes the window for the peer,
    /// also when the window outlives it (the peer's quarantine): no
    /// key-less admission is left behind.
    ///
    /// # Errors
    ///
    /// As [`System::share_paired`], and [`CubicleError::OutOfKeys`],
    /// before any window operation, where pages are keyed but the pair
    /// can hold no key (the conditions of [`System::window_share`]).
    pub fn share_read_only(
        &mut self,
        ranges: &[(VAddr, usize)],
        peer: CubicleId,
    ) -> Result<WindowId> {
        whole_pages(ranges)?;
        let owner = self.current_cubicle();
        let keyed = self.pair_keys_between(owner, peer)
            && self
                .keys
                .can_bind(pair_of(owner, peer, KeyRights::ReadOnly));
        if self.share_traps() && !keyed {
            return Err(CubicleError::OutOfKeys);
        }
        self.build_window(ranges, &[peer], true, KeyRights::ReadOnly)
    }

    /// Would [`System::share_paired`] from the current cubicle to each of
    /// `peers` be given a pair key now? A caller with a per-call fallback
    /// asks before it shares; the query issues no window operation and
    /// charges nothing.
    pub fn pair_keys_available(&self, peers: &[CubicleId]) -> bool {
        let owner = self.current_cubicle();
        let mut fresh: Vec<CubicleId> = peers
            .iter()
            .copied()
            .filter(|&p| self.keys.pair_key(owner, p).is_none())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        peers.iter().all(|&p| self.pair_keys_between(owner, p)) && self.keys.can_pin(fresh.len())
    }

    /// Admits `peer` to the current cubicle's window `wid` with one
    /// `window_open`, unless the descriptor already admits it — then it
    /// issues no window operation.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`], or [`CubicleError::NoSuchCubicle`]
    /// for a `peer` not loaded, before any ACL edit.
    pub fn reshare(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        match self.cubicles[self.current_cubicle().index()].window(wid) {
            Some(w) if self.loaded(peer).is_ok() && w.is_open_for(peer) => Ok(()),
            _ => self.window_open(wid, peer),
        }
    }

    /// The scoped form of [`System::share`] — paper Figure 1c's per-call
    /// window: shares `ranges` with `peers`, runs `f`, and destroys the
    /// window on every path.
    ///
    /// # Errors
    ///
    /// Whatever sharing or `f` returns; a failed destroy wins over `f`'s
    /// result.
    pub fn with_shared<T>(
        &mut self,
        ranges: &[(VAddr, usize)],
        peers: &[CubicleId],
        f: impl FnOnce(&mut System) -> Result<T>,
    ) -> Result<T> {
        let wid = self.share(ranges, peers)?;
        let out = f(self);
        self.window_destroy(wid).and(out)
    }

    /// The one path behind [`System::share`], [`System::share_paired`]
    /// and [`System::share_read_only`]: adds every range, then opens the
    /// window for every peer with `rights`.
    fn build_window(
        &mut self,
        ranges: &[(VAddr, usize)],
        peers: &[CubicleId],
        paired: bool,
        rights: KeyRights,
    ) -> Result<WindowId> {
        let wid = self.window_init();
        let built = ranges
            .iter()
            .try_for_each(|&(ptr, len)| self.window_add(wid, ptr, len))
            .and_then(|()| {
                peers
                    .iter()
                    .try_for_each(|&p| self.open_window(wid, p, paired, rights))
            });
        match built {
            Ok(()) => Ok(wid),
            Err(e) => self.window_destroy(wid).and(Err(e)),
        }
    }
}

/// A keyed share exposes whole pages for its life, not for one call:
/// every range must be page-aligned and a whole number of pages, or a
/// neighbour on a partly shared page would be exposed along with it.
fn whole_pages(ranges: &[(VAddr, usize)]) -> Result<()> {
    let page = PAGE_SIZE as u64;
    if ranges
        .iter()
        .any(|&(ptr, len)| len == 0 || !ptr.is_aligned(page) || len % PAGE_SIZE != 0)
    {
        return Err(CubicleError::InvalidArgument(
            "keyed shares take whole pages",
        ));
    }
    Ok(())
}
