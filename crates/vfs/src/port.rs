//! Application-side CubicleOS port of the POSIX file API.
//!
//! Porting an application to CubicleOS means adding window management
//! around its OS calls — "developers simply need to manage CubicleOS'
//! windows to grant memory accesses across cubicles" (paper §1; the
//! SQLite port is 620 SLOC, NGINX 390). [`VfsPort`] packages that
//! discipline. A port from [`VfsPort::new`] shares every buffer a call
//! passes for that call only, with `VFSCORE` *and* the file-system
//! backend (the owner must open for all cubicles of a nested call ahead
//! of time, §5.6), through the monitor's scoped [`System::with_shared`].
//! A port from [`VfsPort::preshared`] opens no window at all: its caller
//! keeps its buffers shared for good, each with the one cubicle that
//! touches it, and the port stages iovs and replies in a page shared
//! with `VFSCORE`.
//!
//! Path strings travel through a dedicated, long-lived path page with a
//! persistent window — a common optimisation that keeps per-call window
//! traffic for the data path only.

use crate::ops::{flags, FileStat};
use crate::vfs::{encode_iov, encode_triples, VfsProxy};
use cubicle_core::{CubicleId, Errno, Result, System};
use cubicle_mpk::{VAddr, PAGE_SIZE};

/// Bytes of the extent-address buffer [`VfsPort::sendfile_map`] stages:
/// room for 1024 extents (a 4 MiB file at 4 KiB pages). Larger files get
/// `-EINVAL` from the backend and the caller falls back to staged reads.
/// A read-only page map ([`VfsPort::map_pages`]) has no such limit: it
/// is listed one buffer at a time.
pub const SENDFILE_EXTENT_BUF: usize = 8192;

/// Bytes of the header before the page addresses of a
/// [`VfsPort::map_pages`] listing: the generation word's address and its
/// value.
pub const PAGE_MAP_HEADER: usize = 16;

/// One listing of the caller's read-only page map of a file (DESIGN
/// §6s): the map stays live while the word at `gen_addr` reads `gen`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageList {
    /// Where the backend publishes the map's generation, read-only.
    pub gen_addr: VAddr,
    /// The generation the listed pages belong to.
    pub gen: u64,
    /// The file's full pages from the requested one on, in file order.
    pub pages: Vec<VAddr>,
}

/// A ported application's handle to the file system stack.
#[derive(Clone, Debug)]
pub struct VfsPort {
    proxy: VfsProxy,
    grantees: Vec<CubicleId>,
    path_buf: VAddr,
    path_cap: usize,
    /// The page iovs and replies are staged in, shared with `VFSCORE`
    /// for good; `None` stages them in per-call scratch.
    preshared: Option<VAddr>,
}

impl VfsPort {
    /// Creates the port for the *current* cubicle. `backends` lists the
    /// file-system backend cubicles reached through `VFSCORE` (their
    /// windows must be opened by the buffer owner ahead of nested calls).
    ///
    /// Must run in the application cubicle's context (it allocates the
    /// path page from the current cubicle's heap).
    ///
    /// # Errors
    ///
    /// Allocation or window errors from the kernel.
    pub fn new(sys: &mut System, proxy: VfsProxy, backends: &[CubicleId]) -> Result<VfsPort> {
        let mut grantees = vec![proxy.cid()];
        grantees.extend_from_slice(backends);
        let path_cap = 4096;
        let path_buf = sys.heap_alloc(path_cap, 4096)?;
        sys.share(&[(path_buf, path_cap)], &grantees)?;
        Ok(VfsPort {
            proxy,
            grantees,
            path_buf,
            path_cap,
            preshared: None,
        })
    }

    /// This port for a caller that keeps its buffers shared for good:
    /// every data buffer it passes is already shared with the backend,
    /// and `page` (one whole page of its own) with `VFSCORE`. The data
    /// calls open no window, and iovs and `stat` replies of at most a
    /// page are staged in `page`. Scratch the backend touches
    /// (`readdir`, `sendfile_map`, `write_all`, `read_vec`) and larger
    /// iovs still go through per-call windows.
    pub fn preshared(&self, page: VAddr) -> VfsPort {
        VfsPort {
            preshared: Some(page),
            ..self.clone()
        }
    }

    /// The underlying typed proxy.
    pub fn proxy(&self) -> &VfsProxy {
        &self.proxy
    }

    /// Cubicles granted access to buffers passed through this port.
    pub fn grantees(&self) -> &[CubicleId] {
        &self.grantees
    }

    /// Copies `path` into the path page → its length, or `Err(-EINVAL)`
    /// when it does not fit: VFSCORE's own limit on a path argument.
    fn put_path(&self, sys: &mut System, path: &str) -> Result<std::result::Result<usize, i64>> {
        if path.len() > self.path_cap {
            return Ok(Err(Errno::Einval.neg()));
        }
        sys.write(self.path_buf, path.as_bytes())?;
        Ok(Ok(path.len()))
    }

    /// Shares `[buf, buf+len)` with all grantees for the duration of `f`
    /// — the paper's Figure 1c pattern. A [`VfsPort::preshared`] port
    /// runs `f` alone: the caller already shares `buf`.
    ///
    /// # Errors
    ///
    /// Window errors (e.g. the buffer is not owned by the current
    /// cubicle), and whatever `f` returns.
    pub fn with_buffer_window<T>(
        &self,
        sys: &mut System,
        buf: VAddr,
        len: usize,
        f: impl FnOnce(&mut System) -> Result<T>,
    ) -> Result<T> {
        if self.preshared.is_some() {
            return f(sys);
        }
        sys.with_shared(&[(buf, len)], &self.grantees, f)
    }

    /// `open(path, flags)` → fd or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn open(&self, sys: &mut System, path: &str, flags: i64) -> Result<i64> {
        match self.put_path(sys, path)? {
            Ok(len) => self.proxy.open(sys, self.path_buf, len, flags),
            Err(e) => Ok(e),
        }
    }

    /// `close(fd)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn close(&self, sys: &mut System, fd: i64) -> Result<i64> {
        self.proxy.close(sys, fd)
    }

    /// `read(fd, buf, n)` with transient window.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn read(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize) -> Result<i64> {
        self.with_buffer_window(sys, buf, n, |sys| self.proxy.read(sys, fd, buf, n))
    }

    /// `write(fd, buf, n)` with transient window.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn write(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize) -> Result<i64> {
        self.with_buffer_window(sys, buf, n, |sys| self.proxy.write(sys, fd, buf, n))
    }

    /// `pread(fd, buf, n, off)` with transient window.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pread(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize, off: u64) -> Result<i64> {
        self.with_buffer_window(sys, buf, n, |sys| self.proxy.pread(sys, fd, buf, n, off))
    }

    /// `pwrite(fd, buf, n, off)` with transient window.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pwrite(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize, off: u64) -> Result<i64> {
        self.with_buffer_window(sys, buf, n, |sys| self.proxy.pwrite(sys, fd, buf, n, off))
    }

    /// `pread_vec(fd, segments)`: one vectored positioned read over
    /// caller-owned `(addr, len, file_off)` segments. The iov descriptor
    /// is staged in a heap page and published together with every data
    /// segment under one window, so the whole vector costs a single VFS
    /// crossing plus one batched backend dispatch.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pread_vec(
        &self,
        sys: &mut System,
        fd: i64,
        segments: &[(VAddr, usize, u64)],
    ) -> Result<i64> {
        self.rw_vec(sys, segments, |sys, iov, len| {
            self.proxy.pread_vec(sys, fd, iov, len)
        })
    }

    /// `pwrite_vec(fd, segments, flags)`: vectored positioned write; see
    /// [`VfsPort::pread_vec`]. With [`crate::flags::RWF_DSYNC`] the write
    /// is durable on return, in the same single crossing.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pwrite_vec(
        &self,
        sys: &mut System,
        fd: i64,
        segments: &[(VAddr, usize, u64)],
        flags: i64,
    ) -> Result<i64> {
        self.rw_vec(sys, segments, |sys, iov, len| {
            self.proxy.pwrite_vec(sys, fd, iov, len, flags)
        })
    }

    /// Stages `segments`' iov and runs `call(iov, iov_len)` with it and
    /// every data segment shared for the call.
    fn rw_vec(
        &self,
        sys: &mut System,
        segments: &[(VAddr, usize, u64)],
        call: impl FnOnce(&mut System, VAddr, usize) -> Result<i64>,
    ) -> Result<i64> {
        let data: Vec<(VAddr, usize)> = segments.iter().map(|&(a, l, _)| (a, l)).collect();
        let iov = encode_iov(segments);
        let call = |sys: &mut System, iov_buf| call(sys, iov_buf, iov.len());
        let len = iov.len().max(1);
        self.vfs_scratch(sys, len, Some(&iov), &data, &self.grantees, call, raw)
    }

    /// `copy_range(fd_in, fd_out, segments)`: copies `(off_in, len,
    /// off_out)` segments of `fd_in` into `fd_out` inside the file-system
    /// backend (`copy_file_range`). Only the staged iov crosses, in a
    /// window opened for `VFSCORE` alone: the backend never touches this
    /// cubicle's memory, so the vector costs one VFS crossing plus one
    /// batched backend dispatch and moves no file bytes between cubicles.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn copy_range(
        &self,
        sys: &mut System,
        fd_in: i64,
        fd_out: i64,
        segments: &[(u64, usize, u64)],
    ) -> Result<i64> {
        let iov = encode_triples(
            segments
                .iter()
                .map(|&(off_in, len, off_out)| [off_in, len as u64, off_out]),
        );
        let vfs = [self.proxy.cid()];
        let call = |sys: &mut System, iov_buf| {
            self.proxy
                .copy_range(sys, fd_in, fd_out, iov_buf, iov.len())
        };
        self.vfs_scratch(sys, iov.len().max(1), Some(&iov), &[], &vfs, call, raw)
    }

    /// `sendfile_map(fd, peer)` → the file's extent page addresses, or
    /// `Err(-errno)`. On success `peer` can read every returned page
    /// until [`VfsPort::sendfile_unmap`] — the zero-copy response path.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn sendfile_map(
        &self,
        sys: &mut System,
        fd: i64,
        peer: CubicleId,
    ) -> Result<std::result::Result<Vec<VAddr>, i64>> {
        let call = |sys: &mut System, out| {
            self.proxy
                .sendfile_map(sys, fd, peer, out, SENDFILE_EXTENT_BUF, 0, 0)
        };
        self.scratch(sys, SENDFILE_EXTENT_BUF, call, |sys, out, r| {
            if r < 0 {
                return Ok(Err(r));
            }
            Ok(Ok(addresses(&sys.read_vec(out, r as usize * 8)?)))
        })
    }

    /// `sendfile_unmap(fd)`: releases one [`VfsPort::sendfile_map`]
    /// reference.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn sendfile_unmap(&self, sys: &mut System, fd: i64) -> Result<i64> {
        self.proxy.sendfile_unmap(sys, fd, CubicleId::MONITOR, 0)
    }

    /// Lists the current cubicle's read-only page map of `fd` from page
    /// `first` on, as many pages as fit `[buf, buf+n)` after the
    /// [`PAGE_MAP_HEADER`] (DESIGN §6s). Without `more` the call maps
    /// the file and takes a reference that [`VfsPort::unmap_pages`]
    /// drops; with it, it grows the caller's live map to the file's
    /// full pages and lists more of it. `buf` is the caller's and the
    /// backend writes it, so a port that is not
    /// [`VfsPort::preshared`] shares it for the call.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call; `Ok(Err(-errno))` from
    /// the backend.
    pub fn map_pages(
        &self,
        sys: &mut System,
        fd: i64,
        (buf, n): (VAddr, usize),
        first: u64,
        more: bool,
    ) -> Result<std::result::Result<PageList, i64>> {
        let peer = sys.current_cubicle();
        let mode = flags::MAP_READ_ONLY | if more { flags::MAP_MORE } else { 0 };
        let r = self.with_buffer_window(sys, buf, n, |sys| {
            self.proxy.sendfile_map(sys, fd, peer, buf, n, first, mode)
        })?;
        if r < 0 {
            return Ok(Err(r));
        }
        let bytes = sys.read_vec(buf, PAGE_MAP_HEADER + r as usize * 8)?;
        let (header, pages) = bytes.split_at(PAGE_MAP_HEADER);
        let header = addresses(header);
        Ok(Ok(PageList {
            gen_addr: header[0],
            gen: header[1].raw(),
            pages: addresses(pages),
        }))
    }

    /// Drops the reference to the current cubicle's read-only page map
    /// of `fd` that [`VfsPort::map_pages`] took.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn unmap_pages(&self, sys: &mut System, fd: i64) -> Result<i64> {
        let peer = sys.current_cubicle();
        self.proxy
            .sendfile_unmap(sys, fd, peer, flags::MAP_READ_ONLY)
    }

    /// `lseek(fd, off, whence)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn lseek(&self, sys: &mut System, fd: i64, off: i64, whence: i64) -> Result<i64> {
        self.proxy.lseek(sys, fd, off, whence)
    }

    /// `fsync(fd)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn fsync(&self, sys: &mut System, fd: i64) -> Result<i64> {
        self.proxy.fsync(sys, fd)
    }

    /// `unlink(path)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn unlink(&self, sys: &mut System, path: &str) -> Result<i64> {
        match self.put_path(sys, path)? {
            Ok(len) => self.proxy.unlink(sys, self.path_buf, len),
            Err(e) => Ok(e),
        }
    }

    /// `mkdir(path)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn mkdir(&self, sys: &mut System, path: &str) -> Result<i64> {
        match self.put_path(sys, path)? {
            Ok(len) => self.proxy.mkdir(sys, self.path_buf, len),
            Err(e) => Ok(e),
        }
    }

    /// `stat(path)` decoded into [`FileStat`]; `Ok(Err(-errno))` on a
    /// domain error.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn stat(&self, sys: &mut System, path: &str) -> Result<std::result::Result<FileStat, i64>> {
        let len = match self.put_path(sys, path)? {
            Ok(len) => len,
            Err(e) => return Ok(Err(e)),
        };
        let call = |sys: &mut System, out| self.proxy.stat(sys, self.path_buf, len, out);
        let reply = FileStat::WIRE_SIZE;
        self.vfs_scratch(sys, reply, None, &[], &self.grantees, call, decode_stat)
    }

    /// `fstat(fd)` decoded into [`FileStat`].
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn fstat(&self, sys: &mut System, fd: i64) -> Result<std::result::Result<FileStat, i64>> {
        let call = |sys: &mut System, out| self.proxy.fstat(sys, fd, out);
        let reply = FileStat::WIRE_SIZE;
        self.vfs_scratch(sys, reply, None, &[], &self.grantees, call, decode_stat)
    }

    /// `ftruncate(fd, len)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn ftruncate(&self, sys: &mut System, fd: i64, len: u64) -> Result<i64> {
        self.proxy.ftruncate(sys, fd, len)
    }

    /// `readdir(fd, index)` → entry name, or `Err(-errno)` past the end.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn readdir(
        &self,
        sys: &mut System,
        fd: i64,
        index: i64,
    ) -> Result<std::result::Result<String, i64>> {
        let cap = 256;
        let call = |sys: &mut System, buf| self.proxy.readdir(sys, fd, buf, cap, index);
        self.scratch(sys, cap, call, |sys, buf, r| {
            if r < 0 {
                return Ok(Err(r));
            }
            let bytes = sys.read_vec(buf, r as usize)?;
            Ok(Ok(String::from_utf8_lossy(&bytes).into_owned()))
        })
    }

    /// Convenience: writes an entire byte slice through a staging buffer
    /// owned by the current cubicle.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn write_all(&self, sys: &mut System, fd: i64, data: &[u8]) -> Result<i64> {
        let call = |sys: &mut System, buf| self.proxy.write(sys, fd, buf, data.len());
        scratch_call(sys, data.len(), Some(data), &[], &self.grantees, call, raw)
    }

    /// Convenience: reads up to `n` bytes into a vector.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn read_vec(&self, sys: &mut System, fd: i64, n: usize) -> Result<Vec<u8>> {
        let call = |sys: &mut System, buf| self.proxy.read(sys, fd, buf, n);
        self.scratch(sys, n, call, |sys, buf, r| {
            if r > 0 {
                sys.read_vec(buf, r as usize)
            } else {
                Ok(Vec::new())
            }
        })
    }

    /// [`scratch_call`] for a reply alone: nothing staged, the scratch
    /// shared with every grantee.
    fn scratch<T>(
        &self,
        sys: &mut System,
        len: usize,
        call: impl FnOnce(&mut System, VAddr) -> Result<i64>,
        output: impl FnOnce(&mut System, VAddr, i64) -> Result<T>,
    ) -> Result<T> {
        scratch_call(sys, len, None, &[], &self.grantees, call, output)
    }

    /// [`scratch_call`] for scratch that `VFSCORE` alone touches: an iov
    /// it reads or a reply it writes. A [`VfsPort::preshared`] port
    /// stages it in its shared page instead, when it fits, and opens no
    /// window: the caller already shares `data`.
    #[allow(clippy::too_many_arguments)]
    fn vfs_scratch<T>(
        &self,
        sys: &mut System,
        len: usize,
        input: Option<&[u8]>,
        data: &[(VAddr, usize)],
        peers: &[CubicleId],
        call: impl FnOnce(&mut System, VAddr) -> Result<i64>,
        output: impl FnOnce(&mut System, VAddr, i64) -> Result<T>,
    ) -> Result<T> {
        match self.preshared {
            Some(page) if len <= PAGE_SIZE => {
                if let Some(bytes) = input {
                    sys.write(page, bytes)?;
                }
                let r = call(sys, page)?;
                output(sys, page, r)
            }
            _ => scratch_call(sys, len, input, data, peers, call, output),
        }
    }
}

/// Decodes little-endian `u64` words into addresses.
fn addresses(bytes: &[u8]) -> Vec<VAddr> {
    bytes
        .chunks_exact(8)
        .map(|c| VAddr::new(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
        .collect()
}

/// The `output` of a call whose reply is its return value alone.
fn raw(_: &mut System, _: VAddr, r: i64) -> Result<i64> {
    Ok(r)
}

/// Decodes a `stat`/`fstat` reply staged at `out`.
fn decode_stat(sys: &mut System, out: VAddr, r: i64) -> Result<std::result::Result<FileStat, i64>> {
    if r != 0 {
        return Ok(Err(r));
    }
    let bytes = sys.read_vec(out, FileStat::WIRE_SIZE)?;
    Ok(Ok(FileStat::decode(&bytes.try_into().expect("16 bytes"))))
}

/// One call through `len` bytes of fresh scratch heap (at least one is
/// allocated). `input`, when given, is staged in it; the scratch and the
/// `data` ranges are shared with `peers` around `call` (the monitor's
/// scoped [`System::with_shared`]); `output` reads the reply back once
/// the window is gone. The scratch is freed on every path, and the
/// call's own error wins over a failed free.
fn scratch_call<T>(
    sys: &mut System,
    len: usize,
    input: Option<&[u8]>,
    data: &[(VAddr, usize)],
    peers: &[CubicleId],
    call: impl FnOnce(&mut System, VAddr) -> Result<i64>,
    output: impl FnOnce(&mut System, VAddr, i64) -> Result<T>,
) -> Result<T> {
    let buf = sys.heap_alloc(len.max(1), 8)?;
    let mut ranges = vec![(buf, len)];
    ranges.extend_from_slice(data);
    let r = input
        .map_or(Ok(()), |bytes| sys.write(buf, bytes))
        .and_then(|()| sys.with_shared(&ranges, peers, |sys| call(sys, buf)))
        .and_then(|r| output(sys, buf, r));
    let freed = sys.heap_free(buf);
    let r = r?;
    freed.map(|()| r)
}
