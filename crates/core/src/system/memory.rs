//! Checked memory access — components' only door to data — and the
//! monitor's memory services (heap, stack, page grants; paper §4).

use super::locks::MonitorLock;
use super::System;
use crate::cubicle::RegionType;
use crate::error::{CubicleError, Result};
use crate::ids::CubicleId;
use crate::race::RaceObject;
use crate::trace::TraceEvent;
use cubicle_mpk::{pages_covering, Fault, Machine, PageFlags, VAddr, PAGE_SIZE};

impl System {
    /// Runs one machine access of `len` bytes with the current cubicle's
    /// privileges, resolving each fault through trap-and-map and
    /// retrying. Every retry retags a page, so `len / PAGE_SIZE + 3`
    /// attempts suffice; a faulted access leaves its output untouched,
    /// so retrying is safe.
    #[inline]
    fn checked<T>(
        &mut self,
        len: usize,
        mut access: impl FnMut(&mut Machine) -> std::result::Result<T, Fault>,
    ) -> Result<T> {
        self.watchdog_check()?;
        for _ in 0..len / PAGE_SIZE + 3 {
            match access(&mut self.machine) {
                Ok(v) => return Ok(v),
                Err(fault) => self.resolve_fault(fault)?,
            }
        }
        unreachable!("trap-and-map retags a page per retry; budget suffices")
    }

    /// Reads `buf.len()` bytes at `addr` with the current cubicle's
    /// privileges, transparently running trap-and-map on faults.
    ///
    /// # Errors
    ///
    /// [`CubicleError::WindowDenied`] when the monitor refuses the access,
    /// [`CubicleError::MachineFault`] for unmapped/invalid memory.
    pub fn read(&mut self, addr: VAddr, buf: &mut [u8]) -> Result<()> {
        self.checked(buf.len(), |m| m.read(addr, buf))
    }

    /// Writes `data` at `addr` with the current cubicle's privileges.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<()> {
        self.checked(data.len(), |m| m.write(addr, data))
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// The vector is filled straight from the simulated frames into
    /// uninitialised capacity (via the machine's append path), skipping
    /// the zero-fill a `vec![0; len]` + `read` sequence would pay. The
    /// charged cycles are identical to [`System::read`].
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn read_vec(&mut self, addr: VAddr, len: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(len);
        self.checked(len, |m| m.read_append(addr, len, &mut buf))?;
        Ok(buf)
    }

    /// Reads `len` bytes at `addr` and hands them to `f` in a buffer
    /// recycled across calls, so per-argument marshalling in cross-call
    /// handlers allocates nothing in steady state. The closure may use
    /// the `System` freely (including nested `with_read` calls — each
    /// nesting level gets its own pooled buffer).
    ///
    /// # Errors
    ///
    /// As [`System::read`]; `f` is not called when the read faults.
    pub fn with_read<R>(
        &mut self,
        addr: VAddr,
        len: usize,
        f: impl FnOnce(&mut System, &[u8]) -> Result<R>,
    ) -> Result<R> {
        let mut buf = self.scratch_pool.pop().unwrap_or_default();
        buf.clear();
        let out = match self.checked(len, |m| m.read_append(addr, len, &mut buf)) {
            Ok(()) => f(self, &buf),
            Err(e) => Err(e),
        };
        if self.scratch_pool.len() < 4 {
            self.scratch_pool.push(buf);
        }
        out
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn read_u64(&mut self, addr: VAddr) -> Result<u64> {
        self.checked(8, |m| m.read_u64(addr))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`System::write`].
    pub fn write_u64(&mut self, addr: VAddr, v: u64) -> Result<()> {
        self.checked(8, |m| m.write_u64(addr, v))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn read_u32(&mut self, addr: VAddr) -> Result<u32> {
        self.checked(4, |m| m.read_u32(addr))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`System::write`].
    pub fn write_u32(&mut self, addr: VAddr, v: u32) -> Result<()> {
        self.checked(4, |m| m.write_u32(addr, v))
    }

    /// Copies `len` bytes from `src` to `dst` (both in simulated memory),
    /// subject to the current cubicle's privileges on both sides.
    ///
    /// # Errors
    ///
    /// As [`System::read`].
    pub fn copy(&mut self, dst: VAddr, src: VAddr, len: usize) -> Result<()> {
        let mut remaining = len;
        let mut s = src;
        let mut d = dst;
        let mut tmp = [0u8; PAGE_SIZE];
        while remaining > 0 {
            let chunk = remaining.min(PAGE_SIZE);
            self.read(s, &mut tmp[..chunk])?;
            self.write(d, &tmp[..chunk])?;
            remaining -= chunk;
            s += chunk;
            d += chunk;
        }
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte`.
    ///
    /// # Errors
    ///
    /// As [`System::write`].
    pub fn fill(&mut self, addr: VAddr, byte: u8, len: usize) -> Result<()> {
        let tmp = [byte; PAGE_SIZE];
        let mut remaining = len;
        let mut d = addr;
        while remaining > 0 {
            let chunk = remaining.min(PAGE_SIZE);
            self.write(d, &tmp[..chunk])?;
            remaining -= chunk;
            d += chunk;
        }
        Ok(())
    }

    /// Allocates `size` bytes (aligned to `align`) from the current
    /// cubicle's heap sub-allocator, growing it with fresh monitor-granted
    /// pages when needed.
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfMemory`] if the grant fails (address space
    /// exhaustion, which the simulation never hits in practice).
    pub fn heap_alloc(&mut self, size: usize, align: usize) -> Result<VAddr> {
        let cid = self.current_cubicle();
        self.heap_alloc_for(cid, size, align)
    }

    /// [`System::heap_alloc`] on behalf of an explicit cubicle (used by
    /// boot code constructing another cubicle's initial state).
    ///
    /// # Errors
    ///
    /// As [`System::heap_alloc`], plus [`CubicleError::NoSuchCubicle`]
    /// and [`CubicleError::Quarantined`] — the monitor grants no memory
    /// to a quarantined cubicle.
    pub fn heap_alloc_for(&mut self, cid: CubicleId, size: usize, align: usize) -> Result<VAddr> {
        self.watchdog_check()?;
        if cid.index() >= self.cubicles.len() {
            return Err(CubicleError::NoSuchCubicle(cid));
        }
        if self.cubicles[cid.index()].is_quarantined() {
            return Err(CubicleError::Quarantined { cubicle: cid });
        }
        // The heap ledger (sub-allocator free lists, grant accounting)
        // is monitor metadata shared across cores.
        let start = self.lock_acquire(MonitorLock::Ledger);
        let result = self.heap_alloc_locked(cid, size, align);
        self.lock_release(MonitorLock::Ledger, start);
        result
    }

    fn heap_alloc_locked(&mut self, cid: CubicleId, size: usize, align: usize) -> Result<VAddr> {
        self.race_note(RaceObject::Ledger, true, "heap_alloc_locked:heap.alloc");
        if let Some(addr) = self.cubicles[cid.index()].heap.alloc(size, align) {
            if self.tracer.is_some() {
                self.trace_push(TraceEvent::HeapAlloc {
                    cubicle: cid,
                    addr,
                    bytes: size,
                });
            }
            return Ok(addr);
        }
        // Grow: grant enough pages for the request (plus slack), unless
        // the cubicle's heap cap (a fault-injection knob) says no.
        let pages = size.div_ceil(PAGE_SIZE).max(16);
        if let Some(limit) = self.cubicles[cid.index()].heap_limit_pages {
            if self.cubicles[cid.index()].heap_pages_granted + pages > limit {
                return Err(CubicleError::OutOfMemory(cid));
            }
        }
        let key = self.cubicles[cid.index()].key;
        let base = self.map_fresh(pages, key, PageFlags::rw(), cid, RegionType::Heap);
        self.cubicles[cid.index()]
            .heap
            .add_region(base, pages * PAGE_SIZE);
        let addr = self.cubicles[cid.index()]
            .heap
            .alloc(size, align)
            .ok_or(CubicleError::OutOfMemory(cid))?;
        if self.tracer.is_some() {
            self.trace_push(TraceEvent::HeapAlloc {
                cubicle: cid,
                addr,
                bytes: size,
            });
        }
        Ok(addr)
    }

    /// Frees a heap allocation of the current cubicle.
    ///
    /// # Errors
    ///
    /// [`CubicleError::InvalidArgument`] for a pointer that is not a live
    /// allocation of this cubicle.
    pub fn heap_free(&mut self, addr: VAddr) -> Result<()> {
        let cid = self.current_cubicle();
        let start = self.lock_acquire(MonitorLock::Ledger);
        self.race_note(RaceObject::Ledger, true, "heap_free:heap.free");
        let freed = self.cubicles[cid.index()]
            .heap
            .free(addr)
            .map(|_| ())
            .map_err(|_| CubicleError::InvalidArgument("heap_free: not a live allocation"));
        self.lock_release(MonitorLock::Ledger, start);
        freed?;
        if self.tracer.is_some() {
            self.trace_push(TraceEvent::HeapFree { cubicle: cid, addr });
        }
        Ok(())
    }

    /// Allocates `len` bytes on the current cubicle's stack (16-byte
    /// aligned), like a local variable in the original C components.
    /// Balance with [`System::stack_free`].
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfMemory`] on stack overflow.
    pub fn stack_alloc(&mut self, len: usize) -> Result<VAddr> {
        let cid = self.current_cubicle();
        let c = &mut self.cubicles[cid.index()];
        let len = len.div_ceil(16) * 16;
        if c.stack_used + len > c.stack_len {
            return Err(CubicleError::OutOfMemory(cid));
        }
        let addr = c.stack_base + c.stack_used;
        c.stack_used += len;
        Ok(addr)
    }

    /// Releases the most recent `len` bytes of stack allocation.
    pub fn stack_free(&mut self, len: usize) {
        let cid = self.current_cubicle();
        let c = &mut self.cubicles[cid.index()];
        let len = len.div_ceil(16) * 16;
        c.stack_used = c.stack_used.saturating_sub(len);
    }

    /// Allocates `pages` fresh, page-aligned pages owned by the current
    /// cubicle (coarse allocations; what the `ALLOC` component hands out).
    pub fn alloc_pages(&mut self, pages: usize) -> VAddr {
        let cid = self.current_cubicle();
        let key = self.cubicles[cid.index()].key;
        // Heap-region mappings update `heap_pages_granted` inside
        // `map_fresh` — ledger state, racing with `heap_alloc`/`heap_free`
        // on other cores. (CubicleSan caught this exact elision: ALLOC
        // grants from a non-zero core raced the core-0 free path.)
        let start = self.lock_acquire(MonitorLock::Ledger);
        let base = self.map_fresh(pages.max(1), key, PageFlags::rw(), cid, RegionType::Heap);
        self.lock_release(MonitorLock::Ledger, start);
        base
    }

    /// Transfers ownership of the pages covering `[addr, addr+len)` from
    /// the current cubicle to `to`, retagging them. Used by the
    /// system-wide allocator component to grant coarse allocations to its
    /// callers ("pages are strictly assigned an owner ... at allocation
    /// time", §5.3).
    ///
    /// # Errors
    ///
    /// [`CubicleError::NotOwner`] when a covered page is not owned by the
    /// current cubicle, [`CubicleError::NoSuchCubicle`] /
    /// [`CubicleError::Quarantined`] for a dead grantee.
    pub fn grant_pages_to(&mut self, addr: VAddr, len: usize, to: CubicleId) -> Result<()> {
        let cid = self.current_cubicle();
        if to.index() >= self.cubicles.len() {
            return Err(CubicleError::NoSuchCubicle(to));
        }
        if self.cubicles[to.index()].is_quarantined() {
            return Err(CubicleError::Quarantined { cubicle: to });
        }
        // Check and transfer under one page-metadata section: a fault
        // resolving concurrently on another core must not observe a
        // half-transferred range.
        let pstart = self.lock_acquire(MonitorLock::PageMeta);
        self.race_note(RaceObject::PageMeta, false, "grant_pages_to:page_meta.get");
        let mut result = Ok(());
        for page in pages_covering(addr, len) {
            match self.page_meta.get(&page) {
                Some(m) if m.owner == cid => {}
                _ => {
                    result = Err(CubicleError::NotOwner { addr: page.base() });
                    break;
                }
            }
        }
        if result.is_ok() {
            let key = self.cubicles[to.index()].key;
            self.race_note(
                RaceObject::PageMeta,
                true,
                "grant_pages_to:page_meta.get_mut",
            );
            for page in pages_covering(addr, len) {
                let m = self.page_meta.get_mut(&page).expect("checked above");
                m.owner = to;
                m.holder = to;
                m.via = None;
                if self.mode.mpk_active() {
                    self.machine.set_page_key(page.base(), key).expect("mapped");
                } else {
                    self.machine
                        .set_page_key_at_load(page.base(), key)
                        .expect("mapped");
                }
            }
        }
        self.lock_release(MonitorLock::PageMeta, pstart);
        result?;
        // Ownership changed hands: any remembered grant over these pages
        // (for any accessor) is obsolete.
        if len > 0 {
            let first = addr.page();
            let last = VAddr::new(addr.raw() + (len as u64 - 1)).page();
            self.grant_cache_retain("grant_pages_to:grant_cache.retain", |&(_, page), _| {
                page.0 < first.0 || page.0 > last.0
            });
        }
        Ok(())
    }
}
