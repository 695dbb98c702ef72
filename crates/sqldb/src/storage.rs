//! Storage abstraction: the engine's door to the OS.
//!
//! The database engine talks to files through [`StorageFile`] /
//! [`StorageEnv`]. Two environments exist:
//!
//! * [`HostEnv`] — plain in-process byte vectors; used by engine unit
//!   tests that do not exercise isolation.
//! * [`CubicleEnv`] — the real thing: every operation is a cross-cubicle
//!   call into `VFSCORE`/`RAMFS` through a [`VfsPort`]. This is the
//!   paper's "SQLite port" (620 SLOC of window management, Table 2).
//!
//! An open file shares its staging areas for its whole life, each with
//! the one cubicle that touches it, under that pair's key (DESIGN §6n):
//! the scalar and vectored staging with the backend, which reads and
//! writes the bytes, and one iov/reply page with `VFSCORE`. A
//! steady-state call then opens no window and takes no fault. When the
//! monitor grants no pair key (a mode other than `Full`, pair keys off,
//! or no free key in the pool) the file shares each buffer for
//! the call only, the paper's Figure 1c port.
//!
//! The database file, asked by the pager ([`StorageFile::map_reads`]),
//! also holds a read-only map of its pages in the backend (DESIGN §6s)
//! where the system offers one ([`System::maps_reads`]): a page read
//! below the mapped length is one checked load from the backend's page,
//! with no crossing.

use crate::error::{Result, SqlError};
use cubicle_core::{CubicleError, CubicleId, Errno, System, WindowId};
use cubicle_mpk::{VAddr, PAGE_SIZE};
use cubicle_vfs::{flags, PageList, VfsPort, IOV_MAX, PAGE_MAP_HEADER};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A random-access file.
pub trait StorageFile {
    /// Reads at `off` into `buf`; returns bytes read (0 at EOF).
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn pread(&mut self, sys: &mut System, off: u64, buf: &mut [u8]) -> Result<usize>;

    /// Writes `data` at `off`; returns bytes written.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn pwrite(&mut self, sys: &mut System, off: u64, data: &[u8]) -> Result<usize>;

    /// Writes `data` at `off` in full and makes the file durable: the
    /// one durable write. The default is [`StorageFile::pwrite`] then
    /// [`StorageFile::sync`]; a backend that can carry the sync on the
    /// write overrides it.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno; `-EIO` when `data` is
    /// written short. After an error any prefix of `data` may be on file.
    fn pwrite_sync(&mut self, sys: &mut System, off: u64, data: &[u8]) -> Result<()> {
        write_then_sync(self, sys, off, data)
    }

    /// Reads every `(file_off, buf)` segment in full, in order. The
    /// default loops [`StorageFile::pread`]; a backend that can move a
    /// whole vector in one call overrides it.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno; `-EIO` when a segment
    /// comes back short (past end of file).
    fn pread_vec(&mut self, sys: &mut System, segs: &mut [(u64, &mut [u8])]) -> Result<()> {
        for (off, buf) in segs.iter_mut() {
            if self.pread(sys, *off, buf)? < buf.len() {
                return short_transfer();
            }
        }
        Ok(())
    }

    /// Writes every `(file_off, data)` segment in full, in order. The
    /// default loops [`StorageFile::pwrite`]; see
    /// [`StorageFile::pread_vec`].
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno; `-EIO` when a segment is
    /// written short.
    fn pwrite_vec(&mut self, sys: &mut System, segs: &[(u64, &[u8])]) -> Result<()> {
        for &(off, data) in segs {
            if self.pwrite(sys, off, data)? < data.len() {
                return short_transfer();
            }
        }
        Ok(())
    }

    /// The descriptor this file holds in the `VFSCORE` stack, if it has
    /// one. The default is `None`.
    fn vfs_fd(&self) -> Option<i64> {
        None
    }

    /// Copies every `(src_off, dst_off, len)` segment of `src` into this
    /// file, in order. The default is the buffered fold: gather through
    /// `src.pread_vec`, then scatter through [`StorageFile::pwrite_vec`],
    /// [`VEC_STAGING`] bytes at a time. A backend that can copy between
    /// its own files without the bytes leaving it overrides this.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno; `-EIO` when a segment
    /// comes back short (past the end of `src`).
    fn copy_from(
        &mut self,
        sys: &mut System,
        src: &mut dyn StorageFile,
        segs: &[(u64, u64, usize)],
    ) -> Result<()> {
        buffered_copy(self, sys, src, segs)
    }

    /// Current file size.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn size(&mut self, sys: &mut System) -> Result<u64>;

    /// Truncates (or extends, zero-filled) the file.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn truncate(&mut self, sys: &mut System, len: u64) -> Result<()>;

    /// Durably flushes the file.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn sync(&mut self, sys: &mut System) -> Result<()>;

    /// Asks the file to serve page reads from a read-only map of its
    /// pages where the system offers one, and to bring that map up to
    /// the file's current length: the pager calls it on its database
    /// file after opening it and after each checkpoint. It never fails —
    /// a file that cannot map keeps reading through
    /// [`StorageFile::pread`] — and the default does nothing.
    fn map_reads(&mut self, _sys: &mut System) {}

    /// Releases the handle (file descriptors, staging buffers). The
    /// default is a no-op for handle-less backends.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn close(&mut self, _sys: &mut System) -> Result<()> {
        Ok(())
    }
}

/// [`StorageFile::pwrite_sync`]'s default: `pwrite` in full, then
/// `sync`.
fn write_then_sync<F: StorageFile + ?Sized>(
    file: &mut F,
    sys: &mut System,
    off: u64,
    data: &[u8],
) -> Result<()> {
    if file.pwrite(sys, off, data)? < data.len() {
        return short_transfer();
    }
    file.sync(sys)
}

/// [`StorageFile::copy_from`]'s default: one `pread_vec` out of `src` and
/// one `pwrite_vec` into `dst` per step of at most [`VEC_STAGING`] bytes
/// (a single larger segment is a step of its own).
fn buffered_copy<F: StorageFile + ?Sized>(
    dst: &mut F,
    sys: &mut System,
    src: &mut dyn StorageFile,
    segs: &[(u64, u64, usize)],
) -> Result<()> {
    let mut rest = segs;
    while !rest.is_empty() {
        let mut take = 1;
        let mut bytes = rest[0].2;
        while take < rest.len() && bytes + rest[take].2 <= VEC_STAGING {
            bytes += rest[take].2;
            take += 1;
        }
        let (step, tail) = rest.split_at(take);
        rest = tail;
        let mut buf = vec![0u8; bytes];
        let mut reads: Vec<(u64, &mut [u8])> = Vec::with_capacity(step.len());
        let mut free = buf.as_mut_slice();
        for &(src_off, _, len) in step {
            let (piece, after) = free.split_at_mut(len);
            reads.push((src_off, piece));
            free = after;
        }
        src.pread_vec(sys, &mut reads)?;
        let writes: Vec<(u64, &[u8])> = step
            .iter()
            .zip(reads)
            .map(|(&(_, dst_off, _), (_, piece))| (dst_off, &*piece))
            .collect();
        dst.pwrite_vec(sys, &writes)?;
    }
    Ok(())
}

/// A file namespace (open / unlink / exists).
pub trait StorageEnv {
    /// Opens (creating if necessary) a file.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn open(&mut self, sys: &mut System, path: &str) -> Result<Box<dyn StorageFile>>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn unlink(&mut self, sys: &mut System, path: &str) -> Result<()>;

    /// Does the file exist?
    ///
    /// # Errors
    ///
    /// [`SqlError::Io`] with a negative errno.
    fn exists(&mut self, sys: &mut System, path: &str) -> Result<bool>;
}

// ---------------------------------------------------------------------------
// Host-backed environment (unit tests)
// ---------------------------------------------------------------------------

type SharedBytes = Rc<RefCell<Vec<u8>>>;

/// In-process storage environment for engine-only tests.
#[derive(Clone, Debug, Default)]
pub struct HostEnv {
    files: Rc<RefCell<HashMap<String, SharedBytes>>>,
}

impl HostEnv {
    /// Creates an empty namespace.
    pub fn new() -> HostEnv {
        HostEnv::default()
    }
}

struct HostFile {
    data: SharedBytes,
}

impl StorageFile for HostFile {
    fn pread(&mut self, _sys: &mut System, off: u64, buf: &mut [u8]) -> Result<usize> {
        let data = self.data.borrow();
        let off = off as usize;
        if off >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        Ok(n)
    }

    fn pwrite(&mut self, _sys: &mut System, off: u64, data_in: &[u8]) -> Result<usize> {
        let mut data = self.data.borrow_mut();
        let end = off as usize + data_in.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[off as usize..end].copy_from_slice(data_in);
        Ok(data_in.len())
    }

    fn size(&mut self, _sys: &mut System) -> Result<u64> {
        Ok(self.data.borrow().len() as u64)
    }

    fn truncate(&mut self, _sys: &mut System, len: u64) -> Result<()> {
        self.data.borrow_mut().resize(len as usize, 0);
        Ok(())
    }

    fn sync(&mut self, _sys: &mut System) -> Result<()> {
        Ok(())
    }
}

impl StorageEnv for HostEnv {
    fn open(&mut self, _sys: &mut System, path: &str) -> Result<Box<dyn StorageFile>> {
        let data = self
            .files
            .borrow_mut()
            .entry(path.to_string())
            .or_insert_with(|| Rc::new(RefCell::new(Vec::new())))
            .clone();
        Ok(Box::new(HostFile { data }))
    }

    fn unlink(&mut self, _sys: &mut System, path: &str) -> Result<()> {
        self.files.borrow_mut().remove(path);
        Ok(())
    }

    fn exists(&mut self, _sys: &mut System, path: &str) -> Result<bool> {
        Ok(self.files.borrow().contains_key(path))
    }
}

// ---------------------------------------------------------------------------
// Cubicle-backed environment (the real port)
// ---------------------------------------------------------------------------

/// Storage environment that routes through the CubicleOS file stack.
#[derive(Clone, Debug)]
pub struct CubicleEnv {
    port: VfsPort,
}

impl CubicleEnv {
    /// Wraps a [`VfsPort`] created in the application cubicle.
    pub fn new(port: VfsPort) -> CubicleEnv {
        CubicleEnv { port }
    }
}

/// Staging buffer size for scalar file I/O (two DB pages). A transfer
/// of at most this many bytes is one scalar `vfs_pread`/`vfs_pwrite`.
const STAGING: usize = 8192;

/// Staging area of the vectored path: one `vfs_pread_vec` /
/// `vfs_pwrite_vec` carries at most this many bytes (eight DB pages).
/// The buffered [`StorageFile::copy_from`] sizes its steps by it.
pub const VEC_STAGING: usize = 4 * STAGING;

/// The backend's read-only map of a file's pages, as this handle was
/// listed it (DESIGN §6s).
struct PageMap {
    /// The backend's generation word for the map, and its value when
    /// `pages` were listed: they are the map's while the two agree.
    gen_addr: VAddr,
    gen: u64,
    /// The file's full pages from its first, as far as listed.
    pages: Vec<VAddr>,
}

struct CubicleFile {
    /// The env's port, or a [`VfsPort::preshared`] one over `iov_page`
    /// once the file is paired.
    port: VfsPort,
    fd: i64,
    staging: VAddr,
    /// Lazily-allocated [`VEC_STAGING`]-byte staging area for the
    /// vectored path (materialises on the first vectored transfer).
    vec_staging: Option<VAddr>,
    /// The backend the staging areas are shared with under a pair key;
    /// `None` shares them per call.
    paired: Option<CubicleId>,
    /// The page iovs and replies are staged in, shared with `VFSCORE`.
    iov_page: Option<VAddr>,
    /// The paired windows, destroyed at close.
    shares: Vec<WindowId>,
    /// The file's read-only page map, while this handle holds one.
    map: Option<PageMap>,
    /// This handle wrote past the mapped length since the map was last
    /// listed: the next [`StorageFile::map_reads`] lists the new pages.
    grown: bool,
    /// The backend refused this handle a map (`-ENOSPC`: no key to bind
    /// it under). The handle reads through `pread` for the rest of its
    /// life instead of asking again after every checkpoint.
    map_refused: bool,
}

fn io_err<T>(code: i64) -> Result<T> {
    Err(SqlError::Io(code))
}

fn short_transfer<T>() -> Result<T> {
    io_err(Errno::Eio.neg())
}

/// A vectored transfer either moves every byte or is `-EIO`.
fn all_moved(moved: usize, segs: &[(u64, usize)]) -> Result<()> {
    if moved < segs.iter().map(|&(_, len)| len).sum() {
        return short_transfer();
    }
    Ok(())
}

/// One staged piece of a vectored transfer: `len` bytes at `pos` within
/// segment `seg`, staged at `addr` and moved to or from `file_off`.
#[derive(Clone, Copy)]
struct Piece {
    seg: usize,
    pos: usize,
    addr: VAddr,
    len: usize,
    file_off: u64,
}

/// Packs `(file_off, len)` segments back to back into staging areas of
/// [`VEC_STAGING`] bytes at `base`, one area per vector of at most
/// [`IOV_MAX`] pieces. A segment that does not fit the rest of an area
/// is split across two vectors.
fn plan_vectors(base: VAddr, segs: &[(u64, usize)]) -> Vec<Vec<Piece>> {
    let mut vectors: Vec<Vec<Piece>> = Vec::new();
    let mut used = 0usize;
    for (seg, &(file_off, len)) in segs.iter().enumerate() {
        let mut pos = 0usize;
        while pos < len {
            if vectors
                .last()
                .is_none_or(|v| used == VEC_STAGING || v.len() == IOV_MAX)
            {
                vectors.push(Vec::new());
                used = 0;
            }
            let take = (len - pos).min(VEC_STAGING - used);
            vectors.last_mut().expect("pushed above").push(Piece {
                seg,
                pos,
                addr: base + used,
                len: take,
                file_off: file_off + pos as u64,
            });
            used += take;
            pos += take;
        }
    }
    vectors
}

impl CubicleFile {
    fn vec_staging(&mut self, sys: &mut System) -> Result<VAddr> {
        if let Some(base) = self.vec_staging {
            return Ok(base);
        }
        let base = sys.heap_alloc(VEC_STAGING, 4096)?;
        self.vec_staging = Some(base);
        if let Some(backend) = self.paired {
            self.shares
                .push(sys.share_paired(&[(base, VEC_STAGING)], backend)?);
        }
        Ok(base)
    }

    /// Shares the staging area with the backend and a fresh iov page
    /// with `VFSCORE`, each for the file's life under the pair's key —
    /// only when the port has one backend and the monitor grants both
    /// keys. Otherwise the file keeps sharing per call.
    fn pair(&mut self, sys: &mut System) -> Result<()> {
        let &[vfs, backend] = self.port.grantees() else {
            return Ok(());
        };
        if !sys.pair_keys_available(&[vfs, backend]) {
            return Ok(());
        }
        self.shares
            .push(sys.share_paired(&[(self.staging, STAGING)], backend)?);
        let page = sys.heap_alloc(PAGE_SIZE, PAGE_SIZE)?;
        self.iov_page = Some(page);
        self.shares
            .push(sys.share_paired(&[(page, PAGE_SIZE)], vfs)?);
        self.port = self.port.preshared(page);
        self.paired = Some(backend);
        Ok(())
    }

    /// Bytes the page map covers (0 without one).
    fn mapped_len(&self) -> u64 {
        self.map
            .as_ref()
            .map_or(0, |m| (m.pages.len() * PAGE_SIZE) as u64)
    }

    /// Notes a write or a truncate reaching `end`: past the mapped
    /// length, the next [`StorageFile::map_reads`] has pages to list.
    fn wrote_to(&mut self, end: u64) {
        self.grown |= end > self.mapped_len();
    }

    /// Joins the backend's page map of this file, or lists the pages it
    /// gained since this handle's last listing, one staging area of
    /// addresses per call. A listing of another generation means the map
    /// was revoked under this handle, which drops it.
    fn list_pages(&mut self, sys: &mut System) -> Result<()> {
        let room = (STAGING - PAGE_MAP_HEADER) / 8;
        loop {
            let first = self.map.as_ref().map_or(0, |m| m.pages.len());
            let more = self.map.is_some();
            let listed =
                self.port
                    .map_pages(sys, self.fd, (self.staging, STAGING), first as u64, more)?;
            let PageList {
                gen_addr,
                gen,
                pages,
            } = match listed {
                Ok(list) => list,
                Err(e) => {
                    self.map_refused |= e == Errno::Enospc.neg();
                    self.unmap(sys);
                    return Ok(());
                }
            };
            let chunk = pages.len();
            match &mut self.map {
                Some(m) if (m.gen_addr, m.gen) == (gen_addr, gen) => m.pages.extend(pages),
                Some(_) => {
                    self.unmap(sys);
                    return Ok(());
                }
                None => {
                    self.map = Some(PageMap {
                        gen_addr,
                        gen,
                        pages,
                    })
                }
            }
            if chunk < room {
                return Ok(());
            }
        }
    }

    /// Drops this handle's page map and, best effort, its reference in
    /// the backend: a backend rebooted since holds none, and the handle
    /// reads through `pread` either way.
    fn unmap(&mut self, sys: &mut System) {
        if self.map.take().is_some() {
            let _ = self.port.unmap_pages(sys, self.fd);
        }
    }

    /// Serves a page-aligned whole-page read of a mapped page from the
    /// backend's page: one checked load, no crossing. First it reads the
    /// map's generation word, which the backend publishes read-only: a
    /// new value, or a word it can no longer read (the backend was
    /// quarantined), means the map was revoked, so the handle drops it
    /// and the read falls through to `pread`. `false` when the read is
    /// not the map's to serve.
    fn mapped_read(&mut self, sys: &mut System, off: u64, buf: &mut [u8]) -> Result<bool> {
        let Some(map) = &self.map else {
            return Ok(false);
        };
        let page = usize::try_from(off / PAGE_SIZE as u64)
            .ok()
            .and_then(|i| map.pages.get(i));
        let Some(&page) =
            page.filter(|_| buf.len() == PAGE_SIZE && off.is_multiple_of(PAGE_SIZE as u64))
        else {
            return Ok(false);
        };
        match sys.read_u64(map.gen_addr) {
            Ok(gen) if gen == map.gen => {}
            Ok(_)
            | Err(
                CubicleError::WindowDenied { .. }
                | CubicleError::Quarantined { .. }
                | CubicleError::MachineFault(_),
            ) => {
                self.unmap(sys);
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        }
        sys.read(page, buf)?;
        Ok(true)
    }

    /// Ends the file's shares, then frees its staging areas, every one
    /// of them whatever fails; the first error wins.
    fn release(&mut self, sys: &mut System) -> Result<()> {
        let mut out = Ok(());
        for wid in self.shares.drain(..) {
            out = out.and(sys.window_destroy(wid));
        }
        let bufs = [
            Some(self.staging),
            self.vec_staging.take(),
            self.iov_page.take(),
        ];
        for buf in bufs.into_iter().flatten() {
            out = out.and(sys.heap_free(buf));
        }
        Ok(out?)
    }

    /// The one vectored routine behind `pread_vec`, `pwrite_vec`,
    /// `pwrite_sync` and every contiguous transfer larger than
    /// [`STAGING`]. `write` is `None` for a read, and for a write the
    /// `vfs_pwrite_vec` flags of its last vector (earlier ones pass 0).
    /// Each vector of [`plan_vectors`] costs one SQLITE→VFSCORE crossing
    /// and one batched VFSCORE→RAMFS dispatch; `copy` moves one piece
    /// between the caller's buffer and the staging area (before the call
    /// when writing, after it when reading). Stops at the first short
    /// vector and returns the bytes moved.
    fn transfer_vec(
        &mut self,
        sys: &mut System,
        segs: &[(u64, usize)],
        write: Option<i64>,
        mut copy: impl FnMut(&mut System, Piece) -> Result<()>,
    ) -> Result<usize> {
        if segs.iter().all(|&(_, len)| len == 0) {
            return Ok(0);
        }
        if write.is_some() {
            let end = segs.iter().map(|&(off, len)| off + len as u64).max();
            self.wrote_to(end.unwrap_or(0));
        }
        let base = self.vec_staging(sys)?;
        let mut moved = 0usize;
        let vectors = plan_vectors(base, segs);
        let last = vectors.len() - 1;
        for (i, vector) in vectors.into_iter().enumerate() {
            if write.is_some() {
                for &p in &vector {
                    copy(sys, p)?;
                }
            }
            let iov: Vec<(VAddr, usize, u64)> =
                vector.iter().map(|p| (p.addr, p.len, p.file_off)).collect();
            let n = match write {
                Some(flags) => {
                    let flags = if i == last { flags } else { 0 };
                    self.port.pwrite_vec(sys, self.fd, &iov, flags)?
                }
                None => self.port.pread_vec(sys, self.fd, &iov)?,
            };
            if n < 0 {
                return io_err(n);
            }
            let n = n as usize;
            if write.is_none() {
                let mut left = n;
                for &p in &vector {
                    if left == 0 {
                        break;
                    }
                    let len = p.len.min(left);
                    copy(sys, Piece { len, ..p })?;
                    left -= len;
                }
            }
            moved += n;
            if n < vector.iter().map(|p| p.len).sum::<usize>() {
                break;
            }
        }
        Ok(moved)
    }
}

impl StorageFile for CubicleFile {
    fn pread(&mut self, sys: &mut System, off: u64, buf: &mut [u8]) -> Result<usize> {
        if self.mapped_read(sys, off, buf)? {
            return Ok(buf.len());
        }
        if buf.len() > STAGING {
            return self.transfer_vec(sys, &[(off, buf.len())], None, |sys, p| {
                Ok(sys.read(p.addr, &mut buf[p.pos..p.pos + p.len])?)
            });
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let n = self
            .port
            .pread(sys, self.fd, self.staging, buf.len(), off)?;
        if n < 0 {
            return io_err(n);
        }
        if n > 0 {
            sys.read(self.staging, &mut buf[..n as usize])?;
        }
        Ok(n as usize)
    }

    fn pwrite(&mut self, sys: &mut System, off: u64, data: &[u8]) -> Result<usize> {
        if data.len() > STAGING {
            self.pwrite_vec(sys, &[(off, data)])?;
            return Ok(data.len());
        }
        self.wrote_to(off + data.len() as u64);
        if data.is_empty() {
            return Ok(0);
        }
        sys.write(self.staging, data)?;
        let n = self
            .port
            .pwrite(sys, self.fd, self.staging, data.len(), off)?;
        if n < 0 {
            return io_err(n);
        }
        if (n as usize) < data.len() {
            return short_transfer();
        }
        Ok(data.len())
    }

    fn pread_vec(&mut self, sys: &mut System, segs: &mut [(u64, &mut [u8])]) -> Result<()> {
        let lens: Vec<(u64, usize)> = segs.iter().map(|(off, buf)| (*off, buf.len())).collect();
        let moved = self.transfer_vec(sys, &lens, None, |sys, p| {
            Ok(sys.read(p.addr, &mut segs[p.seg].1[p.pos..p.pos + p.len])?)
        })?;
        all_moved(moved, &lens)
    }

    fn pwrite_vec(&mut self, sys: &mut System, segs: &[(u64, &[u8])]) -> Result<()> {
        let lens: Vec<(u64, usize)> = segs.iter().map(|&(off, data)| (off, data.len())).collect();
        let moved = self.transfer_vec(sys, &lens, Some(0), |sys, p| {
            Ok(sys.write(p.addr, &segs[p.seg].1[p.pos..p.pos + p.len])?)
        })?;
        all_moved(moved, &lens)
    }

    /// Vectored whatever the size, the last vector carrying
    /// `RWF_DSYNC`: the write and its sync cross SQLITE→VFSCORE→RAMFS
    /// once per staging vector, with no separate `vfs_fsync`. A file on
    /// the paper's per-call port under MPK (unpaired, the port Figures
    /// 6–10 pin) keeps the write-then-fsync sequence instead: there the
    /// vector's staged iov costs two trap-and-map round trips more than
    /// the scalar write, which outweighs the crossing it saves.
    fn pwrite_sync(&mut self, sys: &mut System, off: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() || (self.paired.is_none() && sys.share_traps()) {
            return write_then_sync(self, sys, off, data);
        }
        let lens = [(off, data.len())];
        let moved = self.transfer_vec(sys, &lens, Some(flags::RWF_DSYNC), |sys, p| {
            Ok(sys.write(p.addr, &data[p.pos..p.pos + p.len])?)
        })?;
        all_moved(moved, &lens)
    }

    fn vfs_fd(&self) -> Option<i64> {
        (self.fd >= 0).then_some(self.fd)
    }

    /// One `vfs_copy_range` per [`IOV_MAX`] segments when `src` is open in
    /// the same VFS stack: the bytes stay inside the file-system backend
    /// and only the iov crosses. Any other source takes the buffered fold.
    fn copy_from(
        &mut self,
        sys: &mut System,
        src: &mut dyn StorageFile,
        segs: &[(u64, u64, usize)],
    ) -> Result<()> {
        let Some(fd_in) = src.vfs_fd() else {
            return buffered_copy(self, sys, src, segs);
        };
        let end = segs
            .iter()
            .map(|&(_, dst_off, len)| dst_off + len as u64)
            .max();
        self.wrote_to(end.unwrap_or(0));
        for chunk in segs.chunks(IOV_MAX) {
            let iov: Vec<(u64, usize, u64)> = chunk
                .iter()
                .map(|&(src_off, dst_off, len)| (src_off, len, dst_off))
                .collect();
            let n = self.port.copy_range(sys, fd_in, self.fd, &iov)?;
            if n < 0 {
                return io_err(n);
            }
            if (n as usize) < chunk.iter().map(|&(_, _, len)| len).sum() {
                return short_transfer();
            }
        }
        Ok(())
    }

    fn size(&mut self, sys: &mut System) -> Result<u64> {
        match self.port.fstat(sys, self.fd)? {
            Ok(stat) => Ok(stat.size),
            Err(e) => io_err(e),
        }
    }

    fn truncate(&mut self, sys: &mut System, len: u64) -> Result<()> {
        self.wrote_to(len);
        let r = self.port.ftruncate(sys, self.fd, len)?;
        if r < 0 {
            return io_err(r);
        }
        Ok(())
    }

    fn sync(&mut self, sys: &mut System) -> Result<()> {
        let r = self.port.fsync(sys, self.fd)?;
        if r < 0 {
            return io_err(r);
        }
        Ok(())
    }

    /// Joins the page map when the system offers one and this handle
    /// holds none (and was never refused one), and lists the pages it
    /// gained when this handle grew the file since: at most one listing
    /// per growth.
    fn map_reads(&mut self, sys: &mut System) {
        if self.map_refused || !sys.maps_reads() || (self.map.is_some() && !self.grown) {
            return;
        }
        self.grown = false;
        if self.list_pages(sys).is_err() {
            self.unmap(sys);
        }
    }

    /// Leaves the page map, closes the descriptor, then releases the
    /// staging areas on every path; the close's own error wins.
    fn close(&mut self, sys: &mut System) -> Result<()> {
        if self.fd < 0 {
            return Ok(());
        }
        self.unmap(sys);
        let r = self.port.close(sys, self.fd);
        self.fd = -1;
        let released = self.release(sys);
        let r = r?;
        released?;
        if r < 0 {
            return io_err(r);
        }
        Ok(())
    }
}

impl StorageEnv for CubicleEnv {
    fn open(&mut self, sys: &mut System, path: &str) -> Result<Box<dyn StorageFile>> {
        let fd = self.port.open(sys, path, flags::O_CREAT | flags::O_RDWR)?;
        if fd < 0 {
            return io_err(fd);
        }
        let staging = sys.heap_alloc(STAGING, 4096)?;
        let mut file = CubicleFile {
            port: self.port.clone(),
            fd,
            staging,
            vec_staging: None,
            paired: None,
            iov_page: None,
            shares: Vec::new(),
            map: None,
            grown: false,
            map_refused: false,
        };
        if let Err(e) = file.pair(sys) {
            // The pairing's error wins over the cleanup's.
            let _ = file.close(sys);
            return Err(e);
        }
        Ok(Box::new(file))
    }

    fn unlink(&mut self, sys: &mut System, path: &str) -> Result<()> {
        let r = self.port.unlink(sys, path)?;
        if r < 0 && r != Errno::Enoent.neg() {
            return io_err(r);
        }
        Ok(())
    }

    fn exists(&mut self, sys: &mut System, path: &str) -> Result<bool> {
        match self.port.stat(sys, path)? {
            Ok(_) => Ok(true),
            Err(e) if e == Errno::Enoent.neg() => Ok(false),
            Err(e) => io_err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_core::IsolationMode;

    fn sys() -> System {
        System::new(IsolationMode::Unikraft)
    }

    #[test]
    fn host_file_round_trip() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let mut f = env.open(&mut sys, "/db").unwrap();
        assert_eq!(f.size(&mut sys).unwrap(), 0);
        f.pwrite(&mut sys, 10, b"hello").unwrap();
        assert_eq!(f.size(&mut sys).unwrap(), 15);
        let mut buf = [0u8; 5];
        assert_eq!(f.pread(&mut sys, 10, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        // sparse region reads back zeroed
        let mut z = [9u8; 4];
        f.pread(&mut sys, 0, &mut z).unwrap();
        assert_eq!(z, [0u8; 4]);
    }

    #[test]
    fn host_eof_semantics() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let mut f = env.open(&mut sys, "/db").unwrap();
        f.pwrite(&mut sys, 0, b"abc").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(f.pread(&mut sys, 0, &mut buf).unwrap(), 3);
        assert_eq!(f.pread(&mut sys, 5, &mut buf).unwrap(), 0);
    }

    #[test]
    fn host_unlink_and_exists() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        env.open(&mut sys, "/a").unwrap();
        assert!(env.exists(&mut sys, "/a").unwrap());
        env.unlink(&mut sys, "/a").unwrap();
        assert!(!env.exists(&mut sys, "/a").unwrap());
    }

    #[test]
    fn host_truncate() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let mut f = env.open(&mut sys, "/t").unwrap();
        f.pwrite(&mut sys, 0, &[1u8; 100]).unwrap();
        f.truncate(&mut sys, 10).unwrap();
        assert_eq!(f.size(&mut sys).unwrap(), 10);
        f.truncate(&mut sys, 20).unwrap();
        let mut buf = [9u8; 20];
        f.pread(&mut sys, 0, &mut buf).unwrap();
        assert_eq!(&buf[10..], &[0u8; 10]);
    }

    #[test]
    fn host_handles_share_contents() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let mut f1 = env.open(&mut sys, "/x").unwrap();
        let mut f2 = env.open(&mut sys, "/x").unwrap();
        f1.pwrite(&mut sys, 0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        f2.pread(&mut sys, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }
}
