//! The `VFSCORE` component: mounts, file descriptors, dispatch.

use crate::ops::{flags, whence, FileStat, FsOps};
use cubicle_core::{
    component_mut, impl_component, Builder, Component, ComponentImage, CubicleId, EntryId, Errno,
    LoadedComponent, Result, System, Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;

/// Maximum simultaneously open file descriptors.
pub const MAX_FDS: usize = 256;

/// Wire size of one vectored-I/O segment descriptor: `(addr, len, off)`
/// little-endian u64 triples, packed.
pub const IOV_ENTRY_SIZE: usize = 24;

/// Maximum segments per `vfs_pread_vec` / `vfs_pwrite_vec` call
/// (IOV_MAX-style sanity cap).
pub const IOV_MAX: usize = 64;

/// Encodes `(addr, len, off)` segments into the wire format the
/// vectored entry points expect (caller stages this into memory it has
/// windowed for `VFSCORE`).
pub fn encode_iov(segments: &[(VAddr, usize, u64)]) -> Vec<u8> {
    encode_triples(
        segments
            .iter()
            .map(|&(addr, len, off)| [addr.raw(), len as u64, off]),
    )
}

/// Packs u64 triples into the [`IOV_ENTRY_SIZE`]-byte wire layout every
/// vectored entry point reads (`vfs_copy_range` carries `(off_in, len,
/// off_out)`).
pub(crate) fn encode_triples(triples: impl ExactSizeIterator<Item = [u64; 3]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(triples.len() * IOV_ENTRY_SIZE);
    for triple in triples {
        for word in triple {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    out
}

#[derive(Clone, Copy, Debug)]
struct OpenFile {
    /// The cubicle that opened the file: the calling cubicle of
    /// `vfs_open` ([`System::caller_cubicle`]). Every other cubicle gets
    /// `-EBADF` for the descriptor, as if it were not open.
    owner: CubicleId,
    mount: usize,
    ino: i64,
    offset: u64,
    flags: i64,
}

#[derive(Clone, Debug)]
struct Mount {
    prefix: String,
    ops: FsOps,
}

/// State of the `VFSCORE` component.
#[derive(Debug, Default)]
pub struct Vfs {
    mounts: Vec<Mount>,
    fds: Vec<Option<OpenFile>>,
    /// Open calls served (statistics).
    pub opens: u64,
}

impl_component!(Vfs, restart = reboot_reset);

impl Vfs {
    /// Microreboot hook: open file descriptors referenced state in the
    /// reclaimed heap, so they are all closed. The mount table survives —
    /// it holds backend entry IDs, which are stable across reboots.
    fn reboot_reset(&mut self) {
        self.fds.clear();
    }
    /// Registers a backend at `prefix` (longest-prefix match at lookup;
    /// `"/"` is the usual root mount). Called at boot by trusted wiring,
    /// mirroring Unikraft's init-time callback-table fill-in.
    pub fn mount(&mut self, prefix: impl Into<String>, ops: FsOps) {
        let mut prefix = prefix.into();
        if !prefix.ends_with('/') {
            prefix.push('/');
        }
        self.mounts.push(Mount { prefix, ops });
        // longest prefix first
        self.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.prefix.len()));
    }

    fn resolve(&self, path: &str) -> Option<(usize, usize)> {
        // returns (mount index, byte offset of the relative path)
        for (i, m) in self.mounts.iter().enumerate() {
            let bare = &m.prefix[..m.prefix.len() - 1]; // without trailing '/'
            if path.starts_with(&m.prefix) {
                return Some((i, m.prefix.len()));
            }
            if path == bare || (bare.is_empty() && path.starts_with('/')) {
                return Some((i, bare.len()));
            }
        }
        None
    }

    /// Number of open file descriptors (statistics).
    pub fn open_fds(&self) -> usize {
        self.fds.iter().flatten().count()
    }

    /// The file open as `fd`, when `caller` opened it.
    fn file(&self, fd: i64, caller: CubicleId) -> Option<&OpenFile> {
        let file = self.fds.get(usize::try_from(fd).ok()?)?.as_ref()?;
        (file.owner == caller).then_some(file)
    }

    fn file_mut(&mut self, fd: i64, caller: CubicleId) -> Option<&mut OpenFile> {
        let file = self.fds.get_mut(usize::try_from(fd).ok()?)?.as_mut()?;
        (file.owner == caller).then_some(file)
    }

    fn install_fd(&mut self, file: OpenFile) -> Option<i64> {
        if let Some(i) = self.fds.iter().position(Option::is_none) {
            self.fds[i] = Some(file);
            return Some(i as i64);
        }
        if self.fds.len() < MAX_FDS {
            self.fds.push(Some(file));
            return Some(self.fds.len() as i64 - 1);
        }
        None
    }
}

/// Builds the loadable `VFSCORE` image.
pub fn image() -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new("VFSCORE", CodeImage::plain(24 * 1024))
        .heap_pages(8)
        .export(
            b.export("long vfs_open(const char *path, size_t len, int flags)")
                .unwrap(),
            e_open,
        )
        .export(b.export("long vfs_close(int fd)").unwrap(), e_close)
        .export(
            b.export("long vfs_read(int fd, void *buf, size_t n)")
                .unwrap(),
            e_read,
        )
        .export(
            b.export("long vfs_write(int fd, const void *buf, size_t n)")
                .unwrap(),
            e_write,
        )
        .export(
            b.export("long vfs_pread(int fd, void *buf, size_t n, uint64_t off)")
                .unwrap(),
            e_pread,
        )
        .export(
            b.export("long vfs_pwrite(int fd, const void *buf, size_t n, uint64_t off)")
                .unwrap(),
            e_pwrite,
        )
        .export(
            b.export("long vfs_pread_vec(int fd, const void *iov, size_t len)")
                .unwrap(),
            e_pread_vec,
        )
        .export(
            b.export("long vfs_pwrite_vec(int fd, const void *iov, size_t len, int flags)")
                .unwrap(),
            e_pwrite_vec,
        )
        .export(
            b.export("long vfs_lseek(int fd, long off, int whence)")
                .unwrap(),
            e_lseek,
        )
        .export(b.export("long vfs_fsync(int fd)").unwrap(), e_fsync)
        .export(
            b.export("long vfs_unlink(const char *path, size_t len)")
                .unwrap(),
            e_unlink,
        )
        .export(
            b.export("long vfs_mkdir(const char *path, size_t len)")
                .unwrap(),
            e_mkdir,
        )
        .export(
            b.export("long vfs_stat(const char *path, size_t len, void *statbuf)")
                .unwrap(),
            e_stat,
        )
        .export(
            b.export("long vfs_fstat(int fd, void *statbuf)").unwrap(),
            e_fstat,
        )
        .export(
            b.export("long vfs_ftruncate(int fd, uint64_t len)")
                .unwrap(),
            e_ftruncate,
        )
        .export(
            b.export("long vfs_readdir(int fd, void *buf, size_t n, long index)")
                .unwrap(),
            e_readdir,
        )
        .export(
            b.export(
                "long vfs_sendfile_map(int fd, long peer, void *out, size_t n, uint64_t first, \
                 int flags)",
            )
            .unwrap(),
            e_sendfile_map,
        )
        .export(
            b.export("long vfs_sendfile_unmap(int fd, long peer, int flags)")
                .unwrap(),
            e_sendfile_unmap,
        )
        .export(
            b.export("long vfs_copy_range(int fd_in, int fd_out, const void *iov, size_t len)")
                .unwrap(),
            e_copy_range,
        )
}

/// Cycles of VFS-internal work per operation (path walk, fd table).
const VFS_OP_COST: u64 = 120;

fn read_path(sys: &mut System, args: &[Value]) -> Result<std::result::Result<String, i64>> {
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

fn e_open(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST);
    let path = match read_path(sys, args)? {
        Ok(p) => p,
        Err(e) => return Ok(Value::I64(e)),
    };
    let open_flags = args[1].as_i64();
    let (addr, _len) = args[0].as_buf();
    let vfs = component_mut::<Vfs>(this);
    vfs.opens += 1;
    let Some((mount, rel_off)) = vfs.resolve(&path) else {
        return Ok(Value::I64(Errno::Enoent.neg()));
    };
    let ops = vfs.mounts[mount].ops;
    let rel = Value::buf_in(addr + rel_off, path.len() - rel_off);

    let mut ino = sys.cross_call(ops.lookup, &[rel])?.as_i64();
    if ino == Errno::Enoent.neg() && open_flags & flags::O_CREAT != 0 {
        ino = sys.cross_call(ops.create, &[rel, Value::I64(0)])?.as_i64();
    }
    if ino < 0 {
        return Ok(Value::I64(ino));
    }
    if open_flags & flags::O_TRUNC != 0 {
        let r = sys
            .cross_call(ops.truncate, &[Value::I64(ino), Value::U64(0)])?
            .as_i64();
        if r < 0 {
            return Ok(Value::I64(r));
        }
    }
    let vfs = component_mut::<Vfs>(this);
    match vfs.install_fd(OpenFile {
        owner: sys.caller_cubicle(),
        mount,
        ino,
        offset: 0,
        flags: open_flags,
    }) {
        Some(fd) => Ok(Value::I64(fd)),
        None => Ok(Value::I64(Errno::Emfile.neg())),
    }
}

fn e_close(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let vfs = component_mut::<Vfs>(this);
    if vfs.file(fd, sys.caller_cubicle()).is_none() {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    }
    vfs.fds[fd as usize] = None;
    Ok(Value::I64(0))
}

fn rw_common(
    sys: &mut System,
    this: &mut dyn Component,
    args: &[Value],
    write: bool,
    positioned: bool,
) -> Result<Value> {
    sys.charge(VFS_OP_COST);
    let fd = args[0].as_i64();
    let (buf, len) = args[1].as_buf();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    let off = if positioned {
        args[2].as_u64()
    } else if write && file.flags & flags::O_APPEND != 0 {
        let size = sys.cross_call(ops.size, &[Value::I64(file.ino)])?.as_i64();
        if size < 0 {
            return Ok(Value::I64(size));
        }
        size as u64
    } else {
        file.offset
    };
    let entry = if write { ops.write } else { ops.read };
    let n = backend_rw(sys, entry, file.ino, buf, len, off, write)?;
    if n > 0 && !positioned {
        if let Some(f) = component_mut::<Vfs>(this).file_mut(fd, sys.caller_cubicle()) {
            f.offset = off + n as u64;
        }
    }
    Ok(Value::I64(n))
}

/// One segment's transfer to/from the backend, in calls of at most
/// [`System::max_transfer`] bytes: one packet per kernel round trip
/// under the message-based baselines, the whole buffer in one zero-copy
/// call under CubicleOS/Unikraft.
fn backend_rw(
    sys: &mut System,
    entry: EntryId,
    ino: i64,
    buf: VAddr,
    len: usize,
    off: u64,
    write: bool,
) -> Result<i64> {
    let packet = sys.max_transfer();
    let mut total: i64 = 0;
    let mut done = 0usize;
    while done < len {
        let chunk = (len - done).min(packet);
        let bufval = if write {
            Value::buf_in(buf + done, chunk)
        } else {
            Value::buf_out(buf + done, chunk)
        };
        let args = [
            Value::I64(ino),
            bufval,
            Value::U64(off + done as u64),
            Value::I64(0),
        ];
        let r = sys
            .cross_call(entry, &args[..if write { 4 } else { 3 }])?
            .as_i64();
        if r < 0 {
            if total == 0 {
                return Ok(r);
            }
            break;
        }
        total += r;
        done += r as usize;
        if r == 0 || (r as usize) < chunk {
            break;
        }
    }
    Ok(total)
}

/// Reads a vectored call's iov: `len / IOV_ENTRY_SIZE` little-endian
/// u64 triples, at most [`IOV_MAX`] of them. `Ok(Err(-errno))` for a bad
/// length or an iov the caller did not window.
fn read_iov(sys: &mut System, iov: &Value) -> Result<std::result::Result<Vec<[u64; 3]>, i64>> {
    let (iov_addr, iov_len) = iov.as_buf();
    if iov_len == 0 || iov_len % IOV_ENTRY_SIZE != 0 || iov_len / IOV_ENTRY_SIZE > IOV_MAX {
        return Ok(Err(Errno::Einval.neg()));
    }
    let raw = match sys.read_vec(iov_addr, iov_len) {
        Ok(b) => b,
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
            return Ok(Err(Errno::Eacces.neg()))
        }
        Err(e) => return Err(e),
    };
    Ok(Ok(raw
        .chunks_exact(IOV_ENTRY_SIZE)
        .map(|c| {
            std::array::from_fn(|i| {
                u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("24-byte chunk"))
            })
        })
        .collect()))
}

/// readv/writev short-count semantics over a batch's per-segment results:
/// the bytes moved up to and including the first short or failing
/// segment, or that segment's errno when nothing moved at all. (Every
/// segment of the batch has run; the count only stops reporting.)
fn vec_total(vals: &[Value], lens: impl IntoIterator<Item = u64>) -> i64 {
    let mut total: i64 = 0;
    for (v, len) in vals.iter().zip(lens) {
        let r = v.as_i64();
        if r < 0 {
            return if total == 0 { r } else { total };
        }
        total += r;
        if r == 0 || (r as u64) < len {
            break;
        }
    }
    total
}

/// `vfs_pread_vec` / `vfs_pwrite_vec` implementation: the iov buffer
/// carries `(addr, len, off)` triples ([`read_iov`]) describing
/// caller-owned segments. The whole vector is dispatched to the backend
/// under a single trampoline crossing ([`System::cross_call_batch`]) and
/// returns the bytes transferred ([`vec_total`]).
///
/// A write's `flags` may hold [`flags::RWF_DSYNC`] and nothing else
/// (`-EINVAL` before anything moves). The fused sync charges the VFS
/// work of an `fsync` and rides on the batch's last element, so the
/// backend syncs once, after its last store, inside the same dispatch.
fn rw_vec(
    sys: &mut System,
    this: &mut dyn Component,
    args: &[Value],
    write: bool,
) -> Result<Value> {
    sys.charge(VFS_OP_COST);
    let sync = if write { args[2].as_i64() } else { 0 };
    if sync & !flags::RWF_DSYNC != 0 {
        return Ok(Value::I64(Errno::Einval.neg()));
    }
    let fd = args[0].as_i64();
    let iovs = match read_iov(sys, &args[1])? {
        Ok(iovs) => iovs,
        Err(e) => return Ok(Value::I64(e)),
    };
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    let entry = if write { ops.write } else { ops.read };

    if sync != 0 {
        sys.charge(VFS_OP_COST / 2);
    }

    // One monitor crossing for the whole vector.
    let last = iovs.len() - 1;
    let elems: Vec<[Value; 4]> = iovs
        .iter()
        .enumerate()
        .map(|(i, &[addr, len, off])| {
            let (addr, len) = (VAddr::new(addr), len as usize);
            let bufval = if write {
                Value::buf_in(addr, len)
            } else {
                Value::buf_out(addr, len)
            };
            let flags = if i == last { sync } else { 0 };
            [
                Value::I64(file.ino),
                bufval,
                Value::U64(off),
                Value::I64(flags),
            ]
        })
        .collect();
    let arity = if write { 4 } else { 3 };
    let refs: Vec<&[Value]> = elems.iter().map(|e| &e[..arity]).collect();
    let vals = sys.cross_call_batch(entry, &refs)?;
    Ok(Value::I64(vec_total(&vals, iovs.iter().map(|t| t[1]))))
}

/// `vfs_copy_range(fd_in, fd_out, iov, len)`: `copy_file_range` over
/// `(off_in, len, off_out)` triples ([`read_iov`]). Both descriptors must
/// be the caller's and open on one mount; the whole vector reaches the backend in one
/// batched dispatch. No caller bytes move, so there is no IPC packet
/// split as in [`backend_rw`]. Returns the bytes copied ([`vec_total`]).
fn e_copy_range(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST);
    let iovs = match read_iov(sys, &args[2])? {
        Ok(iovs) => iovs,
        Err(e) => return Ok(Value::I64(e)),
    };
    let vfs = component_mut::<Vfs>(this);
    let (Some(src), Some(dst)) = (
        vfs.file(args[0].as_i64(), sys.caller_cubicle()).copied(),
        vfs.file(args[1].as_i64(), sys.caller_cubicle()).copied(),
    ) else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    if src.mount != dst.mount {
        return Ok(Value::I64(Errno::Exdev.neg()));
    }
    let ops = vfs.mounts[src.mount].ops;
    let elems: Vec<[Value; 5]> = iovs
        .iter()
        .map(|&[off_in, len, off_out]| {
            [
                Value::I64(src.ino),
                Value::U64(off_in),
                Value::I64(dst.ino),
                Value::U64(off_out),
                Value::U64(len),
            ]
        })
        .collect();
    let refs: Vec<&[Value]> = elems.iter().map(|e| e.as_slice()).collect();
    let vals = sys.cross_call_batch(ops.copy_range, &refs)?;
    Ok(Value::I64(vec_total(&vals, iovs.iter().map(|t| t[1]))))
}

fn e_pread_vec(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    rw_vec(sys, this, args, false)
}

fn e_pwrite_vec(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    rw_vec(sys, this, args, true)
}

fn e_read(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    rw_common(sys, this, args, false, false)
}

fn e_write(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    rw_common(sys, this, args, true, false)
}

fn e_pread(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    rw_common(sys, this, args, false, true)
}

fn e_pwrite(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    rw_common(sys, this, args, true, true)
}

fn e_lseek(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let off = args[1].as_i64();
    let wh = args[2].as_i64();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let base: i64 = match wh {
        whence::SEEK_SET => 0,
        whence::SEEK_CUR => file.offset as i64,
        whence::SEEK_END => {
            let ops = vfs.mounts[file.mount].ops;
            let size = sys.cross_call(ops.size, &[Value::I64(file.ino)])?.as_i64();
            if size < 0 {
                return Ok(Value::I64(size));
            }
            size
        }
        _ => return Ok(Value::I64(Errno::Einval.neg())),
    };
    let new = base + off;
    if new < 0 {
        return Ok(Value::I64(Errno::Einval.neg()));
    }
    if let Some(f) = component_mut::<Vfs>(this).file_mut(fd, sys.caller_cubicle()) {
        f.offset = new as u64;
    }
    Ok(Value::I64(new))
}

fn e_fsync(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    sys.cross_call(ops.sync, &[Value::I64(file.ino)])
}

fn path_op(
    sys: &mut System,
    this: &mut dyn Component,
    args: &[Value],
    pick: fn(&FsOps) -> EntryId,
    extra: Option<Value>,
) -> Result<Value> {
    sys.charge(VFS_OP_COST);
    let path = match read_path(sys, args)? {
        Ok(p) => p,
        Err(e) => return Ok(Value::I64(e)),
    };
    let (addr, _len) = args[0].as_buf();
    let vfs = component_mut::<Vfs>(this);
    let Some((mount, rel_off)) = vfs.resolve(&path) else {
        return Ok(Value::I64(Errno::Enoent.neg()));
    };
    let ops = vfs.mounts[mount].ops;
    let rel = Value::buf_in(addr + rel_off, path.len() - rel_off);
    let mut call_args = vec![rel];
    if let Some(v) = extra {
        call_args.push(v);
    }
    sys.cross_call(pick(&ops), &call_args)
}

fn e_unlink(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    path_op(sys, this, args, |o| o.remove, None)
}

fn e_mkdir(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    path_op(sys, this, args, |o| o.create, Some(Value::I64(1)))
}

fn stat_of(sys: &mut System, ops: &FsOps, ino: i64) -> Result<std::result::Result<FileStat, i64>> {
    let is_dir = sys.cross_call(ops.is_dir, &[Value::I64(ino)])?.as_i64();
    if is_dir < 0 {
        return Ok(Err(is_dir));
    }
    let size = if is_dir == 1 {
        0
    } else {
        let s = sys.cross_call(ops.size, &[Value::I64(ino)])?.as_i64();
        if s < 0 {
            return Ok(Err(s));
        }
        s as u64
    };
    Ok(Ok(FileStat {
        size,
        is_dir: is_dir == 1,
    }))
}

fn write_stat(sys: &mut System, out: VAddr, stat: FileStat) -> Result<i64> {
    match sys.write(out, &stat.encode()) {
        Ok(()) => Ok(0),
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => Ok(Errno::Eacces.neg()),
        Err(e) => Err(e),
    }
}

fn e_stat(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST);
    let path = match read_path(sys, args)? {
        Ok(p) => p,
        Err(e) => return Ok(Value::I64(e)),
    };
    let (addr, _len) = args[0].as_buf();
    let (out, _outlen) = args[1].as_buf();
    let vfs = component_mut::<Vfs>(this);
    let Some((mount, rel_off)) = vfs.resolve(&path) else {
        return Ok(Value::I64(Errno::Enoent.neg()));
    };
    let ops = vfs.mounts[mount].ops;
    let rel = Value::buf_in(addr + rel_off, path.len() - rel_off);
    let ino = sys.cross_call(ops.lookup, &[rel])?.as_i64();
    if ino < 0 {
        return Ok(Value::I64(ino));
    }
    match stat_of(sys, &ops, ino)? {
        Ok(stat) => Ok(Value::I64(write_stat(sys, out, stat)?)),
        Err(e) => Ok(Value::I64(e)),
    }
}

fn e_fstat(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let (out, _outlen) = args[1].as_buf();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    match stat_of(sys, &ops, file.ino)? {
        Ok(stat) => Ok(Value::I64(write_stat(sys, out, stat)?)),
        Err(e) => Ok(Value::I64(e)),
    }
}

fn e_ftruncate(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let len = args[1].as_u64();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    sys.cross_call(ops.truncate, &[Value::I64(file.ino), Value::U64(len)])
}

fn e_readdir(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let (buf, len) = args[1].as_buf();
    let index = args[2].as_i64();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    sys.cross_call(
        ops.readdir,
        &[
            Value::I64(file.ino),
            Value::buf_out(buf, len),
            Value::I64(index),
        ],
    )
}

/// `vfs_sendfile_map(fd, peer, out, n, first, flags)`: resolves the fd
/// to its backing inode and asks the backend to map the file's data
/// pages to `peer` from page `first` on, writing their addresses into
/// `out`: for sendfile (`flags` 0 — the consumer then reads response
/// bytes straight from the file's pages), or as `peer`'s read-only page
/// map ([`crate::flags::MAP_READ_ONLY`], DESIGN §6s).
fn e_sendfile_map(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let peer = args[1].as_i64();
    let (out, n) = args[2].as_buf();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    sys.cross_call(
        ops.map_extents,
        &[
            Value::I64(file.ino),
            Value::I64(peer),
            Value::buf_out(out, n),
            args[3],
            args[4],
        ],
    )
}

/// `vfs_sendfile_unmap(fd, peer, flags)`: releases one
/// `vfs_sendfile_map` reference taken with the same `flags`.
fn e_sendfile_unmap(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(VFS_OP_COST / 2);
    let fd = args[0].as_i64();
    let vfs = component_mut::<Vfs>(this);
    let Some(file) = vfs.file(fd, sys.caller_cubicle()).copied() else {
        return Ok(Value::I64(Errno::Ebadf.neg()));
    };
    let ops = vfs.mounts[file.mount].ops;
    sys.cross_call(ops.unmap_extents, &[Value::I64(file.ino), args[1], args[2]])
}

/// Typed application-side proxy for `VFSCORE`.
///
/// Buffer and path pointers refer to *caller-owned* simulated memory; the
/// caller is responsible for opening windows for `VFSCORE` (and, for data
/// paths, the backend) ahead of the call — the nested-call discipline of
/// paper §5.6.
#[derive(Clone, Copy, Debug)]
pub struct VfsProxy {
    cid: CubicleId,
    open: EntryId,
    close: EntryId,
    read: EntryId,
    write: EntryId,
    pread: EntryId,
    pwrite: EntryId,
    pread_vec: EntryId,
    pwrite_vec: EntryId,
    lseek: EntryId,
    fsync: EntryId,
    unlink: EntryId,
    mkdir: EntryId,
    stat: EntryId,
    fstat: EntryId,
    ftruncate: EntryId,
    readdir: EntryId,
    sendfile_map: EntryId,
    sendfile_unmap: EntryId,
    copy_range: EntryId,
}

macro_rules! proxy_call {
    ($self:ident, $sys:ident, $entry:ident, $($arg:expr),*) => {
        Ok($sys.cross_call($self.$entry, &[$($arg),*])?.as_i64())
    };
}

impl VfsProxy {
    /// Resolves the proxy from the loaded component.
    ///
    /// # Errors
    ///
    /// [`cubicle_core::CubicleError::NoSuchEntry`] when the image does
    /// not export the expected symbols.
    pub fn resolve(loaded: &LoadedComponent) -> Result<VfsProxy> {
        Ok(VfsProxy {
            cid: loaded.cid,
            open: loaded.entry("vfs_open")?,
            close: loaded.entry("vfs_close")?,
            read: loaded.entry("vfs_read")?,
            write: loaded.entry("vfs_write")?,
            pread: loaded.entry("vfs_pread")?,
            pwrite: loaded.entry("vfs_pwrite")?,
            pread_vec: loaded.entry("vfs_pread_vec")?,
            pwrite_vec: loaded.entry("vfs_pwrite_vec")?,
            lseek: loaded.entry("vfs_lseek")?,
            fsync: loaded.entry("vfs_fsync")?,
            unlink: loaded.entry("vfs_unlink")?,
            mkdir: loaded.entry("vfs_mkdir")?,
            stat: loaded.entry("vfs_stat")?,
            fstat: loaded.entry("vfs_fstat")?,
            ftruncate: loaded.entry("vfs_ftruncate")?,
            readdir: loaded.entry("vfs_readdir")?,
            sendfile_map: loaded.entry("vfs_sendfile_map")?,
            sendfile_unmap: loaded.entry("vfs_sendfile_unmap")?,
            copy_range: loaded.entry("vfs_copy_range")?,
        })
    }

    /// The `VFSCORE` cubicle's ID.
    pub fn cid(&self) -> CubicleId {
        self.cid
    }

    /// `open(path, flags)` → fd or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn open(&self, sys: &mut System, path: VAddr, len: usize, oflags: i64) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            open,
            Value::buf_in(path, len),
            Value::I64(oflags)
        )
    }

    /// `close(fd)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn close(&self, sys: &mut System, fd: i64) -> Result<i64> {
        proxy_call!(self, sys, close, Value::I64(fd))
    }

    /// `read(fd, buf, n)` → bytes read or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn read(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize) -> Result<i64> {
        proxy_call!(self, sys, read, Value::I64(fd), Value::buf_out(buf, n))
    }

    /// `write(fd, buf, n)` → bytes written or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn write(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize) -> Result<i64> {
        proxy_call!(self, sys, write, Value::I64(fd), Value::buf_in(buf, n))
    }

    /// `pread(fd, buf, n, off)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pread(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize, off: u64) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            pread,
            Value::I64(fd),
            Value::buf_out(buf, n),
            Value::U64(off)
        )
    }

    /// `pwrite(fd, buf, n, off)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pwrite(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize, off: u64) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            pwrite,
            Value::I64(fd),
            Value::buf_in(buf, n),
            Value::U64(off)
        )
    }

    /// `pread_vec(fd, iov, iov_len)` — `iov` points to caller-owned
    /// memory holding [`IOV_ENTRY_SIZE`]-byte `(addr, len, off)` triples
    /// ([`encode_iov`] builds it). Returns total bytes read, with
    /// readv-style short-count semantics.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pread_vec(&self, sys: &mut System, fd: i64, iov: VAddr, iov_len: usize) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            pread_vec,
            Value::I64(fd),
            Value::buf_in(iov, iov_len)
        )
    }

    /// `pwrite_vec(fd, iov, iov_len, flags)` — `pwritev2`-style
    /// positioned scatter write; see [`VfsProxy::pread_vec`]. `flags` is
    /// 0 or [`flags::RWF_DSYNC`], which makes the write durable before
    /// the call returns (any other bit: `-EINVAL`).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn pwrite_vec(
        &self,
        sys: &mut System,
        fd: i64,
        iov: VAddr,
        iov_len: usize,
        flags: i64,
    ) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            pwrite_vec,
            Value::I64(fd),
            Value::buf_in(iov, iov_len),
            Value::I64(flags)
        )
    }

    /// `copy_range(fd_in, fd_out, iov, iov_len)` — `iov` points to
    /// caller-owned memory holding `(off_in, len, off_out)` little-endian
    /// u64 triples ([`crate::VfsPort::copy_range`] stages them). Returns
    /// total bytes copied, with the short-count semantics of
    /// [`VfsProxy::pread_vec`].
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn copy_range(
        &self,
        sys: &mut System,
        fd_in: i64,
        fd_out: i64,
        iov: VAddr,
        iov_len: usize,
    ) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            copy_range,
            Value::I64(fd_in),
            Value::I64(fd_out),
            Value::buf_in(iov, iov_len)
        )
    }

    /// `lseek(fd, off, whence)` → new offset or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn lseek(&self, sys: &mut System, fd: i64, off: i64, wh: i64) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            lseek,
            Value::I64(fd),
            Value::I64(off),
            Value::I64(wh)
        )
    }

    /// `fsync(fd)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn fsync(&self, sys: &mut System, fd: i64) -> Result<i64> {
        proxy_call!(self, sys, fsync, Value::I64(fd))
    }

    /// `unlink(path)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn unlink(&self, sys: &mut System, path: VAddr, len: usize) -> Result<i64> {
        proxy_call!(self, sys, unlink, Value::buf_in(path, len))
    }

    /// `mkdir(path)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn mkdir(&self, sys: &mut System, path: VAddr, len: usize) -> Result<i64> {
        proxy_call!(self, sys, mkdir, Value::buf_in(path, len))
    }

    /// `stat(path, statbuf)` — `statbuf` receives [`FileStat::encode`].
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn stat(&self, sys: &mut System, path: VAddr, len: usize, out: VAddr) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            stat,
            Value::buf_in(path, len),
            Value::buf_out(out, FileStat::WIRE_SIZE)
        )
    }

    /// `fstat(fd, statbuf)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn fstat(&self, sys: &mut System, fd: i64, out: VAddr) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            fstat,
            Value::I64(fd),
            Value::buf_out(out, FileStat::WIRE_SIZE)
        )
    }

    /// `ftruncate(fd, len)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn ftruncate(&self, sys: &mut System, fd: i64, len: u64) -> Result<i64> {
        proxy_call!(self, sys, ftruncate, Value::I64(fd), Value::U64(len))
    }

    /// `sendfile_map(fd, peer, out, n, first, flags)` → extent count or
    /// `-errno`. With `flags` 0, on success `out` holds that many
    /// little-endian `u64` page addresses, from page `first` on, and
    /// `peer` holds a window over every one of them until the matching
    /// [`VfsProxy::sendfile_unmap`]. With [`crate::flags::MAP_READ_ONLY`]
    /// it lists `peer`'s read-only page map (DESIGN §6s).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    #[allow(clippy::too_many_arguments)]
    pub fn sendfile_map(
        &self,
        sys: &mut System,
        fd: i64,
        peer: CubicleId,
        out: VAddr,
        n: usize,
        first: u64,
        flags: i64,
    ) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            sendfile_map,
            Value::I64(fd),
            Value::I64(i64::from(peer.0)),
            Value::buf_out(out, n),
            Value::U64(first),
            Value::I64(flags)
        )
    }

    /// `sendfile_unmap(fd, peer, flags)`: drops one
    /// [`VfsProxy::sendfile_map`] reference taken with `flags` (and
    /// `peer`, for a read-only map).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn sendfile_unmap(
        &self,
        sys: &mut System,
        fd: i64,
        peer: CubicleId,
        flags: i64,
    ) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            sendfile_unmap,
            Value::I64(fd),
            Value::I64(i64::from(peer.0)),
            Value::I64(flags)
        )
    }

    /// `readdir(fd, buf, n, index)` → name length, or `-ENOENT` past the
    /// last entry.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn readdir(
        &self,
        sys: &mut System,
        fd: i64,
        buf: VAddr,
        n: usize,
        index: i64,
    ) -> Result<i64> {
        proxy_call!(
            self,
            sys,
            readdir,
            Value::I64(fd),
            Value::buf_out(buf, n),
            Value::I64(index)
        )
    }
}
