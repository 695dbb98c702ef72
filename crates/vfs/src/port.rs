//! Application-side CubicleOS port of the POSIX file API.
//!
//! Porting an application to CubicleOS means adding window management
//! around its OS calls — "developers simply need to manage CubicleOS'
//! windows to grant memory accesses across cubicles" (paper §1; the
//! SQLite port is 620 SLOC, NGINX 390). [`VfsPort`] packages that
//! discipline: every call that passes a buffer publishes it in a window,
//! opens the window for `VFSCORE` *and* the file-system backend (the
//! owner must open for all cubicles of a nested call ahead of time,
//! §5.6), performs the cross-cubicle call, and closes the window again.
//!
//! Path strings travel through a dedicated, long-lived path page with a
//! persistent window — a common optimisation that keeps per-call window
//! traffic for the data path only.

use crate::ops::FileStat;
use crate::vfs::{encode_iov, encode_triples, VfsProxy};
use cubicle_core::{CubicleId, Result, System, WindowId};
use cubicle_mpk::VAddr;

/// Bytes of the extent-address buffer [`VfsPort::sendfile_map`] stages:
/// room for 1024 extents (a 4 MiB file at 4 KiB pages). Larger files get
/// `-EINVAL` from the backend and the caller falls back to staged reads.
pub const SENDFILE_EXTENT_BUF: usize = 8192;

/// A ported application's handle to the file system stack.
#[derive(Clone, Debug)]
pub struct VfsPort {
    proxy: VfsProxy,
    grantees: Vec<CubicleId>,
    path_buf: VAddr,
    path_cap: usize,
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
        // Persistent window for the path page.
        let wid = sys.window_init();
        sys.window_add(wid, path_buf, path_cap)?;
        for &cid in &grantees {
            sys.window_open(wid, cid)?;
        }
        Ok(VfsPort {
            proxy,
            grantees,
            path_buf,
            path_cap,
        })
    }

    /// The underlying typed proxy.
    pub fn proxy(&self) -> &VfsProxy {
        &self.proxy
    }

    /// Cubicles granted access to buffers passed through this port.
    pub fn grantees(&self) -> &[CubicleId] {
        &self.grantees
    }

    fn put_path(&self, sys: &mut System, path: &str) -> Result<usize> {
        assert!(
            path.len() <= self.path_cap,
            "path longer than the path page"
        );
        sys.write(self.path_buf, path.as_bytes())?;
        Ok(path.len())
    }

    /// Opens a transient window over `[buf, buf+len)` for all grantees,
    /// runs `f`, then closes it — the paper's Figure 1c pattern.
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
        self.with_windows(sys, &[(buf, len)], f)
    }

    /// [`VfsPort::with_buffer_window`] over several discontiguous ranges
    /// under one window descriptor — the shape vectored calls need (the
    /// iov staging page plus every data segment).
    ///
    /// # Errors
    ///
    /// Window errors (e.g. a range is not owned by the current cubicle),
    /// and whatever `f` returns.
    pub fn with_windows<T>(
        &self,
        sys: &mut System,
        ranges: &[(VAddr, usize)],
        f: impl FnOnce(&mut System) -> Result<T>,
    ) -> Result<T> {
        with_windows_for(sys, ranges, &self.grantees, f)
    }

    /// `open(path, flags)` → fd or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn open(&self, sys: &mut System, path: &str, flags: i64) -> Result<i64> {
        let len = self.put_path(sys, path)?;
        self.proxy.open(sys, self.path_buf, len, flags)
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
        self.rw_vec(sys, fd, segments, false)
    }

    /// `pwrite_vec(fd, segments)`: vectored positioned write; see
    /// [`VfsPort::pread_vec`].
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pwrite_vec(
        &self,
        sys: &mut System,
        fd: i64,
        segments: &[(VAddr, usize, u64)],
    ) -> Result<i64> {
        self.rw_vec(sys, fd, segments, true)
    }

    fn rw_vec(
        &self,
        sys: &mut System,
        fd: i64,
        segments: &[(VAddr, usize, u64)],
        write: bool,
    ) -> Result<i64> {
        let data: Vec<(VAddr, usize)> = segments.iter().map(|&(a, l, _)| (a, l)).collect();
        let iov = encode_iov(segments);
        with_staged_iov(sys, &iov, &data, &self.grantees, |sys, iov_buf| {
            if write {
                self.proxy.pwrite_vec(sys, fd, iov_buf, iov.len())
            } else {
                self.proxy.pread_vec(sys, fd, iov_buf, iov.len())
            }
        })
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
        with_staged_iov(sys, &iov, &[], &vfs, |sys, iov_buf| {
            self.proxy
                .copy_range(sys, fd_in, fd_out, iov_buf, iov.len())
        })
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
        let out = sys.heap_alloc(SENDFILE_EXTENT_BUF, 8)?;
        let r = self.with_buffer_window(sys, out, SENDFILE_EXTENT_BUF, |sys| {
            self.proxy
                .sendfile_map(sys, fd, peer, out, SENDFILE_EXTENT_BUF)
        })?;
        let decoded = if r >= 0 {
            let bytes = sys.read_vec(out, r as usize * 8)?;
            Ok(bytes
                .chunks_exact(8)
                .map(|c| VAddr::new(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                .collect())
        } else {
            Err(r)
        };
        sys.heap_free(out)?;
        Ok(decoded)
    }

    /// `sendfile_unmap(fd)`: releases one [`VfsPort::sendfile_map`]
    /// reference.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn sendfile_unmap(&self, sys: &mut System, fd: i64) -> Result<i64> {
        self.proxy.sendfile_unmap(sys, fd)
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
        let len = self.put_path(sys, path)?;
        self.proxy.unlink(sys, self.path_buf, len)
    }

    /// `mkdir(path)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn mkdir(&self, sys: &mut System, path: &str) -> Result<i64> {
        let len = self.put_path(sys, path)?;
        self.proxy.mkdir(sys, self.path_buf, len)
    }

    /// `stat(path)` decoded into [`FileStat`]; `Ok(Err(-errno))` on a
    /// domain error.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn stat(&self, sys: &mut System, path: &str) -> Result<std::result::Result<FileStat, i64>> {
        let len = self.put_path(sys, path)?;
        let out = sys.heap_alloc(FileStat::WIRE_SIZE, 8)?;
        let r = self.with_buffer_window(sys, out, FileStat::WIRE_SIZE, |sys| {
            self.proxy.stat(sys, self.path_buf, len, out)
        })?;
        let decoded = if r == 0 {
            let bytes = sys.read_vec(out, FileStat::WIRE_SIZE)?;
            Ok(FileStat::decode(&bytes.try_into().expect("16 bytes")))
        } else {
            Err(r)
        };
        sys.heap_free(out)?;
        Ok(decoded)
    }

    /// `fstat(fd)` decoded into [`FileStat`].
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn fstat(&self, sys: &mut System, fd: i64) -> Result<std::result::Result<FileStat, i64>> {
        let out = sys.heap_alloc(FileStat::WIRE_SIZE, 8)?;
        let r = self.with_buffer_window(sys, out, FileStat::WIRE_SIZE, |sys| {
            self.proxy.fstat(sys, fd, out)
        })?;
        let decoded = if r == 0 {
            let bytes = sys.read_vec(out, FileStat::WIRE_SIZE)?;
            Ok(FileStat::decode(&bytes.try_into().expect("16 bytes")))
        } else {
            Err(r)
        };
        sys.heap_free(out)?;
        Ok(decoded)
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
        let buf = sys.heap_alloc(cap, 8)?;
        let r = self.with_buffer_window(sys, buf, cap, |sys| {
            self.proxy.readdir(sys, fd, buf, cap, index)
        })?;
        let out = if r >= 0 {
            let bytes = sys.read_vec(buf, r as usize)?;
            Ok(String::from_utf8_lossy(&bytes).into_owned())
        } else {
            Err(r)
        };
        sys.heap_free(buf)?;
        Ok(out)
    }

    /// Convenience: writes an entire byte slice through a staging buffer
    /// owned by the current cubicle.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn write_all(&self, sys: &mut System, fd: i64, data: &[u8]) -> Result<i64> {
        let buf = sys.heap_alloc(data.len().max(1), 8)?;
        sys.write(buf, data)?;
        let r = self.write(sys, fd, buf, data.len())?;
        sys.heap_free(buf)?;
        Ok(r)
    }

    /// Convenience: reads up to `n` bytes into a vector.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn read_vec(&self, sys: &mut System, fd: i64, n: usize) -> Result<Vec<u8>> {
        let buf = sys.heap_alloc(n.max(1), 8)?;
        let r = self.read(sys, fd, buf, n)?;
        let out = if r > 0 {
            sys.read_vec(buf, r as usize)?
        } else {
            Vec::new()
        };
        sys.heap_free(buf)?;
        Ok(out)
    }
}

/// [`VfsPort::with_windows`] opened for `peers` only.
fn with_windows_for<T>(
    sys: &mut System,
    ranges: &[(VAddr, usize)],
    peers: &[CubicleId],
    f: impl FnOnce(&mut System) -> Result<T>,
) -> Result<T> {
    let wid: WindowId = sys.window_init();
    let out = publish(sys, wid, ranges, peers).and_then(|()| f(sys));
    // Destroyed on every path: a window left behind by a failed
    // `window_add` would outlive the call.
    sys.window_destroy(wid)?;
    out
}

fn publish(
    sys: &mut System,
    wid: WindowId,
    ranges: &[(VAddr, usize)],
    peers: &[CubicleId],
) -> Result<()> {
    for &(buf, len) in ranges {
        sys.window_add(wid, buf, len)?;
    }
    for &cid in peers {
        sys.window_open(wid, cid)?;
    }
    Ok(())
}

/// Stages a vectored call's `iov` in a heap allocation, publishes it
/// together with the `data` ranges under one window opened for `peers`,
/// and runs `f` with the staged address. Window and allocation are both
/// released on every path.
fn with_staged_iov(
    sys: &mut System,
    iov: &[u8],
    data: &[(VAddr, usize)],
    peers: &[CubicleId],
    f: impl FnOnce(&mut System, VAddr) -> Result<i64>,
) -> Result<i64> {
    let iov_buf = sys.heap_alloc(iov.len().max(1), 8)?;
    let mut ranges: Vec<(VAddr, usize)> = vec![(iov_buf, iov.len().max(1))];
    ranges.extend_from_slice(data);
    let r = sys
        .write(iov_buf, iov)
        .and_then(|()| with_windows_for(sys, &ranges, peers, |sys| f(sys, iov_buf)));
    // Freed on every path, like the window; the call's own error wins
    // over a failed free.
    let freed = sys.heap_free(iov_buf);
    let r = r?;
    freed.map(|()| r)
}
