//! The file-system backend callback table and POSIX-ish constants.
//!
//! Unikraft components "interact … by using a callback table that is
//! filled-in by a component at initialisation time (e.g., the RAMFS
//! component initialises a callback table defined by the VFS component to
//! export file system backend-specific functions)" (paper §5.1).
//! [`FsOps`] is that table: the VFS defines the slots, a backend fills
//! them with its public entry points, and CubicleOS' loader has already
//! interposed cross-cubicle trampolines on each.

use cubicle_core::{CubicleId, EntryId};

/// Open flags (numeric values follow Linux).
pub mod flags {
    /// Read-only.
    pub const O_RDONLY: i64 = 0;
    /// Write-only.
    pub const O_WRONLY: i64 = 1;
    /// Read-write.
    pub const O_RDWR: i64 = 2;
    /// Create if missing.
    pub const O_CREAT: i64 = 0o100;
    /// Truncate to zero length.
    pub const O_TRUNC: i64 = 0o1000;
    /// Append on every write.
    pub const O_APPEND: i64 = 0o2000;
    /// `vfs_pwrite_vec` flag (`pwritev2`'s): the write is durable when
    /// the call returns, as if an `fsync` followed it. The only flag the
    /// call takes.
    pub const RWF_DSYNC: i64 = 0x2;
    /// `vfs_sendfile_map` flag: a persistent map for the caller alone,
    /// read-only, over the file's full pages (DESIGN §6s). The call takes
    /// a reference that `vfs_sendfile_unmap` with this flag drops, and
    /// lists the pages from `first` on after a two-word header: the
    /// address of the generation word the backend publishes read-only
    /// for the map, and its value now.
    pub const MAP_READ_ONLY: i64 = 0x1;
    /// With [`MAP_READ_ONLY`]: list more pages of the caller's live map,
    /// growing it to the file's full pages, without a reference.
    pub const MAP_MORE: i64 = 0x2;
}

/// `lseek` whence values.
pub mod whence {
    /// From the start of the file.
    pub const SEEK_SET: i64 = 0;
    /// From the current offset.
    pub const SEEK_CUR: i64 = 1;
    /// From the end of the file.
    pub const SEEK_END: i64 = 2;
}

/// Decoded `stat` result (the wire format is two little-endian `u64`s:
/// size then directory flag).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileStat {
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Is this a directory?
    pub is_dir: bool,
}

impl FileStat {
    /// Bytes of the on-wire encoding.
    pub const WIRE_SIZE: usize = 16;

    /// Encodes to the 16-byte wire format.
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.size.to_le_bytes());
        out[8..].copy_from_slice(&u64::from(self.is_dir).to_le_bytes());
        out
    }

    /// Decodes from the 16-byte wire format.
    pub fn decode(bytes: &[u8; 16]) -> FileStat {
        let size = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let is_dir = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")) != 0;
        FileStat { size, is_dir }
    }
}

/// The backend callback table: one cross-cubicle entry per operation.
#[derive(Clone, Copy, Debug)]
pub struct FsOps {
    /// The backend's cubicle (peers must open windows for it).
    pub cid: CubicleId,
    /// `long lookup(const char *path, size_t len)` → inode or `-errno`.
    pub lookup: EntryId,
    /// `long create(const char *path, size_t len, int is_dir)` → inode.
    pub create: EntryId,
    /// `long remove(const char *path, size_t len)` → 0.
    pub remove: EntryId,
    /// `long read(long ino, void *buf, size_t n, uint64_t off)` → bytes.
    pub read: EntryId,
    /// `long write(long ino, const void *buf, size_t n, uint64_t off,
    /// int flags)` → bytes. With [`flags::RWF_DSYNC`] a successful store
    /// is followed by the backend's `sync` step before the call returns.
    pub write: EntryId,
    /// `long truncate(long ino, uint64_t len)` → 0.
    pub truncate: EntryId,
    /// `long size(long ino)` → size or `-errno`.
    pub size: EntryId,
    /// `long sync(long ino)` → 0.
    pub sync: EntryId,
    /// `long readdir(long ino, void *buf, size_t n, long index)` → name
    /// length, or `-ENOENT` past the end.
    pub readdir: EntryId,
    /// `long is_dir(long ino)` → 1 / 0 / `-errno`.
    pub is_dir: EntryId,
    /// `long map_extents(long ino, long peer, void *out, size_t n,
    /// uint64_t first, int flags)` → extent count. With `flags` 0 it
    /// grants `peer` a window over every data page of the file from
    /// `first` on and writes their addresses (one `u64` per page) into
    /// `out`, all of them or `-EINVAL`; repeat calls share one
    /// refcounted window (sendfile path). With
    /// [`flags::MAP_READ_ONLY`] the map is `peer`'s read-only page map,
    /// listed one chunk of `out` at a time (DESIGN §6s).
    pub map_extents: EntryId,
    /// `long unmap_extents(long ino, long peer, int flags)` → 0. Drops
    /// one reference taken by `map_extents` with the same `flags` (and,
    /// for a read-only map, `peer`); the backend ends the map at zero.
    pub unmap_extents: EntryId,
    /// `long copy_range(long ino_in, uint64_t off_in, long ino_out,
    /// uint64_t off_out, size_t n)` → bytes copied, short at the source's
    /// end of file. The bytes move inside the backend, never through a
    /// caller buffer (`copy_file_range`).
    pub copy_range: EntryId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_wire_round_trip() {
        for stat in [
            FileStat {
                size: 0,
                is_dir: false,
            },
            FileStat {
                size: 12345,
                is_dir: false,
            },
            FileStat {
                size: u64::MAX,
                is_dir: true,
            },
        ] {
            assert_eq!(FileStat::decode(&stat.encode()), stat);
        }
    }

    #[test]
    fn flags_match_linux() {
        assert_eq!(flags::O_CREAT, 64);
        assert_eq!(flags::O_TRUNC, 512);
        assert_eq!(flags::O_APPEND, 1024);
        assert_eq!(flags::RWF_DSYNC, 2);
    }
}
