//! The window API (paper Table 1).

use super::locks::MonitorLock;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, WindowId};
use crate::race::RaceObject;
use crate::trace::{TraceEvent, WindowOpKind};
use cubicle_mpk::{pages_covering, VAddr};

impl System {
    /// Opens a window-management critical section: counts the op,
    /// acquires the windows lock and charges the monitor-call cost.
    /// Balance with [`System::window_op_end`], which releases the lock —
    /// the section must cover the descriptor mutation itself, or a fault
    /// searching the array on another core races with it.
    fn window_op_begin(&mut self) -> Option<u64> {
        self.stats.window_ops += 1;
        if self.mode.acls_active() {
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

    /// Records a completed window operation in the trace (no-op when
    /// tracing is disabled).
    fn trace_window_op(&mut self, op: WindowOpKind, wid: WindowId, peer: Option<CubicleId>) {
        if self.tracer.is_some() {
            self.trace_push(TraceEvent::WindowOp { op, wid, peer });
        }
    }

    /// `cubicle_window_init`: creates an empty window owned by the
    /// current cubicle.
    pub fn window_init(&mut self) -> WindowId {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::Windows, true, "window_init:windows.push");
        let wid = self.cubicles[cid.index()].window_init();
        self.window_op_end(wstart);
        self.trace_window_op(WindowOpKind::Init, wid, None);
        wid
    }

    /// `cubicle_window_add`: associates `[ptr, ptr+len)` with window
    /// `wid`.
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
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Add, wid, None);
        }
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
        if result.is_ok() {
            // The window narrowed: drop every grant it authorised (pages
            // outside the removed range will simply re-resolve and
            // repopulate — correctness over cleverness).
            self.grant_cache_retain("window_remove:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Remove, wid, None);
        }
        result
    }

    /// `cubicle_window_open`: allows `peer` to access the window.
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_open(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(RaceObject::Windows, true, "window_open:window_mut.open_for");
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            Some(w) => {
                w.open_for(peer);
                Ok(())
            }
            None => Err(CubicleError::NoSuchWindow(wid)),
        };
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Open, wid, Some(peer));
        }
        result
    }

    /// `cubicle_window_close`: disallows `peer`.
    ///
    /// Closing is *lazy*: pages already retagged to the peer stay
    /// readable by it until another authorised cubicle touches them —
    /// the paper's causal tag consistency (§5.6).
    ///
    /// # Errors
    ///
    /// [`CubicleError::NoSuchWindow`].
    pub fn window_close(&mut self, wid: WindowId, peer: CubicleId) -> Result<()> {
        let wstart = self.window_op_begin();
        let cid = self.current_cubicle();
        self.race_note(
            RaceObject::Windows,
            true,
            "window_close:window_mut.close_for",
        );
        let result = match self.cubicles[cid.index()].window_mut(wid) {
            Some(w) => {
                w.close_for(peer);
                Ok(())
            }
            None => Err(CubicleError::NoSuchWindow(wid)),
        };
        if result.is_ok() {
            // Closing is lazy for already-retagged pages, but the
            // *authority* is gone: the peer's next fault must take the
            // full search and be denied, not ride a cached grant.
            self.grant_cache_retain("window_close:grant_cache.retain", |&(accessor, _), e| {
                !(e.owner == cid && e.via == wid && accessor == peer)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Close, wid, Some(peer));
        }
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
        if result.is_ok() {
            self.grant_cache_retain("window_close_all:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
        }
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::CloseAll, wid, None);
        }
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
        let result = if self.cubicles[cid.index()].window_destroy(wid) {
            self.grant_cache_retain("window_destroy:grant_cache.retain", |_, e| {
                !(e.owner == cid && e.via == wid)
            });
            Ok(())
        } else {
            Err(CubicleError::NoSuchWindow(wid))
        };
        self.window_op_end(wstart);
        if result.is_ok() {
            self.trace_window_op(WindowOpKind::Destroy, wid, None);
        }
        result
    }
}
