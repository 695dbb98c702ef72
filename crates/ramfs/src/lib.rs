//! # cubicle-ramfs — the `RAMFS` file-system backend
//!
//! Unikraft's in-memory file system, ported to CubicleOS as an isolated
//! cubicle. `RAMFS` fills in the callback table defined by `VFSCORE`
//! ([`cubicle_vfs::FsOps`]) — the configuration whose separation into its
//! own compartment is the paper's headline experiment (Figures 9 & 10:
//! splitting `RAMFS` out of the VFS costs 4–7× on microkernels but only
//! 1.4× on CubicleOS).
//!
//! File *contents* live in simulated memory owned by the `RAMFS` cubicle
//! (page-sized extents); the data path between a caller's buffer and an
//! extent is a real cross-cubicle `memcpy`, authorised by the caller's
//! windows through trap-and-map. Extent pages are drawn from a local
//! pool, refilled in coarse chunks from the system-wide `ALLOC` cubicle —
//! reproducing Figure 8's sparse `RAMFS → ALLOC` edge.
//!
//! [`boot_fs`] builds the storage stack every deployment uses: `VFSCORE`,
//! then `RAMFS` wired to `ALLOC` and mounted at `/`.
//!
//! Crash consistency: asked at build time, [`boot_fs`] places a redo
//! journal of the inode table and file extents ([`journal`]) in pages
//! owned by `VFSCORE` (the *custodian*), reachable through a window that
//! survives a `RAMFS` quarantine. The restart hook replays it, so a
//! microrebooted `RAMFS` comes back with its files instead of empty —
//! see DESIGN.md §6k and `tests/journal_reboot.rs`.

pub mod journal;
mod ramfs;

pub use ramfs::{boot_fs, fs_ops, image, mount_at, FsStack, Ramfs, POOL_CHUNK_PAGES};
