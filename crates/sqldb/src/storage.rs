//! Storage abstraction: the engine's door to the OS.
//!
//! The database engine talks to files through [`StorageFile`] /
//! [`StorageEnv`]. Two environments exist:
//!
//! * [`HostEnv`] — plain in-process byte vectors; used by engine unit
//!   tests that do not exercise isolation.
//! * [`CubicleEnv`] — the real thing: every operation is a cross-cubicle
//!   call into `VFSCORE`/`RAMFS` through a [`VfsPort`], with per-call
//!   window management. This is the paper's "SQLite port" (620 SLOC of
//!   window management, Table 2).

use crate::error::{Result, SqlError};
use cubicle_core::{Errno, System};
use cubicle_mpk::VAddr;
use cubicle_vfs::{flags, VfsPort, IOV_MAX};
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
/// Streaming callers (the checkpoint fold) size their steps by it.
pub const VEC_STAGING: usize = 4 * STAGING;

struct CubicleFile {
    port: VfsPort,
    fd: i64,
    staging: VAddr,
    /// Lazily-allocated [`VEC_STAGING`]-byte staging area for the
    /// vectored path (materialises on the first vectored transfer).
    vec_staging: Option<VAddr>,
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
        Ok(base)
    }

    /// The one vectored routine behind `pread_vec`, `pwrite_vec` and
    /// every contiguous transfer larger than [`STAGING`]. Each vector of
    /// [`plan_vectors`] costs one SQLITE→VFSCORE crossing and one batched
    /// VFSCORE→RAMFS dispatch; `copy` moves one piece between the
    /// caller's buffer and the staging area (before the call when
    /// writing, after it when reading). Stops at the first short vector
    /// and returns the bytes moved.
    fn transfer_vec(
        &mut self,
        sys: &mut System,
        segs: &[(u64, usize)],
        write: bool,
        mut copy: impl FnMut(&mut System, Piece) -> Result<()>,
    ) -> Result<usize> {
        if segs.iter().all(|&(_, len)| len == 0) {
            return Ok(0);
        }
        let base = self.vec_staging(sys)?;
        let mut moved = 0usize;
        for vector in plan_vectors(base, segs) {
            if write {
                for &p in &vector {
                    copy(sys, p)?;
                }
            }
            let iov: Vec<(VAddr, usize, u64)> =
                vector.iter().map(|p| (p.addr, p.len, p.file_off)).collect();
            let n = if write {
                self.port.pwrite_vec(sys, self.fd, &iov)?
            } else {
                self.port.pread_vec(sys, self.fd, &iov)?
            };
            if n < 0 {
                return io_err(n);
            }
            let n = n as usize;
            if !write {
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
        if buf.len() > STAGING {
            return self.transfer_vec(sys, &[(off, buf.len())], false, |sys, p| {
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
        let moved = self.transfer_vec(sys, &lens, false, |sys, p| {
            Ok(sys.read(p.addr, &mut segs[p.seg].1[p.pos..p.pos + p.len])?)
        })?;
        all_moved(moved, &lens)
    }

    fn pwrite_vec(&mut self, sys: &mut System, segs: &[(u64, &[u8])]) -> Result<()> {
        let lens: Vec<(u64, usize)> = segs.iter().map(|&(off, data)| (off, data.len())).collect();
        let moved = self.transfer_vec(sys, &lens, true, |sys, p| {
            Ok(sys.write(p.addr, &segs[p.seg].1[p.pos..p.pos + p.len])?)
        })?;
        all_moved(moved, &lens)
    }

    fn size(&mut self, sys: &mut System) -> Result<u64> {
        match self.port.fstat(sys, self.fd)? {
            Ok(stat) => Ok(stat.size),
            Err(e) => io_err(e),
        }
    }

    fn truncate(&mut self, sys: &mut System, len: u64) -> Result<()> {
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

    fn close(&mut self, sys: &mut System) -> Result<()> {
        if self.fd >= 0 {
            let r = self.port.close(sys, self.fd)?;
            self.fd = -1;
            sys.heap_free(self.staging)?;
            if let Some(base) = self.vec_staging.take() {
                sys.heap_free(base)?;
            }
            if r < 0 {
                return io_err(r);
            }
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
        Ok(Box::new(CubicleFile {
            port: self.port.clone(),
            fd,
            staging,
            vec_staging: None,
        }))
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
