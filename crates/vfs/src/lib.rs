//! # cubicle-vfs — the `VFSCORE` component
//!
//! Unikraft's virtual file system layer, ported to CubicleOS as an
//! isolated cubicle (it appears in both application deployments, Figures
//! 5 and 8). `VFSCORE` owns the mount table and the file-descriptor
//! table and dispatches every operation to a file-system backend through
//! the callback table [`FsOps`] — the Unikraft idiom the paper's builder
//! interposes cross-cubicle trampolines on (§5.2, item 2).
//!
//! Data buffers are never copied here: the caller's pointers flow through
//! to the backend, and the caller grants access by opening windows for
//! `VFSCORE` *and* the backend ahead of the call (the nested-call
//! discipline of §5.6).

pub mod ops;
pub mod path;
mod port;
mod vfs;

pub use ops::{flags, whence, FileStat, FsOps};
pub use port::{PageList, VfsPort, PAGE_MAP_HEADER, SENDFILE_EXTENT_BUF};
pub use vfs::{encode_iov, image, Vfs, VfsProxy, IOV_ENTRY_SIZE, IOV_MAX, MAX_FDS};
