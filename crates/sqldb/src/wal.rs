//! Write-ahead log for the pager.
//!
//! The rollback journal (PR 1's design) cannot survive a crash *during*
//! write-back: commit writes dirty pages into the database file in
//! place, so a quarantine mid-sweep leaves the file a mix of old and new
//! pages with only the journal's undo images between the user and data
//! loss. The WAL inverts the scheme: committed pages are *appended* to a
//! side log and the database file is only rewritten at checkpoint time,
//! when every frame is already durable. A crash at any byte boundary
//! loses at most the uncommitted tail.
//!
//! ## File layout
//!
//! ```text
//!  offset 0                16                                4128
//!  +-------------------+  +----------------------------+
//!  | magic  "CBWAL001" |  | frame 0                    |  frame 1 ...
//!  | version u32 = 1   |  |  pno      u32 LE           |
//!  | reserved u32      |  |  db_size  u32 LE (0 = not  |
//!  +-------------------+  |           a commit record) |
//!                         |  checksum u64 LE (chained) |
//!                         |  page data [4096]          |
//!                         +----------------------------+
//! ```
//!
//! Every frame is 4112 bytes: a 16-byte header followed by one page
//! image. `db_size != 0` marks a **commit record**: the frame is the
//! last of its transaction and `db_size` is the database page count
//! after the transaction. Frames between commit records belong to one
//! transaction (spilled by mid-transaction cache evictions, then the
//! commit sweep).
//!
//! The checksum chains: each frame's value is FNV-1a seeded with the
//! *previous* frame's checksum (the file header acts as frame -1 with
//! the FNV offset basis), folded over the frame header fields and the
//! page data. A torn write therefore invalidates everything from the
//! torn frame onward — recovery cannot accidentally resurrect stale
//! bytes from a recycled region of the file.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans the log front to back, buffering frames until a
//! commit record proves their transaction durable. The scan stops at the
//! first short or checksum-mismatching frame; everything from there on
//! — and any trailing committed-record-less frames — is the *torn tail*
//! and is physically truncated away. The result is exactly the
//! committed prefix: every committed transaction's pages, no
//! uncommitted page, never a panic ([`SqlError::TornWal`] internally,
//! tolerated by recovery, surfaced by [`Wal::check`]).

use crate::error::{Result, SqlError};
use crate::pager::DB_PAGE;
use crate::storage::{StorageEnv, StorageFile};
use cubicle_core::System;
use std::collections::HashMap;

/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"CBWAL001";

/// Size of the WAL file header in bytes.
pub const WAL_HEADER: u64 = 16;

/// Size of a frame header in bytes.
pub const FRAME_HEADER: usize = 16;

/// Total size of one frame (header + page image).
pub const FRAME_SIZE: u64 = (FRAME_HEADER + DB_PAGE) as u64;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// WAL sidecar path for a database at `path`.
pub fn wal_path(path: &str) -> String {
    format!("{path}-wal")
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Chained checksum of one frame given the previous frame's checksum.
fn frame_checksum(prev: u64, pno: u32, db_size: u32, data: &[u8]) -> u64 {
    let h = fnv1a(prev, &pno.to_le_bytes());
    let h = fnv1a(h, &db_size.to_le_bytes());
    fnv1a(h, data)
}

/// What a recovery scan found in an existing WAL.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// Latest committed frame per page: `pno → data offset` in the WAL.
    pub index: HashMap<u32, u64>,
    /// Database page count recorded by the last commit record (0 when
    /// the log holds no committed transaction).
    pub db_pages: u32,
    /// Committed frames applied during the scan (including frames later
    /// superseded within the log).
    pub frames_recovered: u64,
    /// Was a torn or uncommitted tail discarded?
    pub tail_discarded: bool,
    /// Offset the discarded tail began at (valid when `tail_discarded`).
    pub tail_offset: u64,
}

/// An open write-ahead log.
pub struct Wal {
    file: Box<dyn StorageFile>,
    /// End offset of the last fully appended frame.
    end: u64,
    /// End offset covered by the last commit record.
    committed_end: u64,
    /// End offset known durable (covered by a sync).
    synced_end: u64,
    /// Running chained checksum at `end`.
    chain: u64,
    /// Chain value at `committed_end`, for discarding uncommitted frames.
    committed_chain: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("end", &self.end)
            .field("committed_end", &self.committed_end)
            .field("synced_end", &self.synced_end)
            .finish()
    }
}

impl Wal {
    /// Opens (creating or recovering) the WAL for the database at
    /// `db_path`, returning the log positioned after the committed
    /// prefix plus what the recovery scan found. Any torn or
    /// uncommitted tail has been truncated away on return.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`SqlError::CorruptJournal`] when a non-empty file
    /// does not carry the WAL magic (corruption, not a crash artifact).
    pub fn open(
        sys: &mut System,
        env: &mut dyn StorageEnv,
        db_path: &str,
    ) -> Result<(Wal, WalRecovery)> {
        let mut file = env.open(sys, &wal_path(db_path))?;
        let size = file.size(sys)?;
        let mut recovery = WalRecovery::default();
        if size < WAL_HEADER {
            // Fresh log, or a header torn by a crash before the first
            // sync: either way nothing was committed through it.
            if size > 0 {
                recovery.tail_discarded = true;
                recovery.tail_offset = 0;
                file.truncate(sys, 0)?;
            }
            let mut header = [0u8; WAL_HEADER as usize];
            header[..8].copy_from_slice(WAL_MAGIC);
            header[8..12].copy_from_slice(&1u32.to_le_bytes());
            file.pwrite(sys, 0, &header)?;
            return Ok((
                Wal {
                    file,
                    end: WAL_HEADER,
                    committed_end: WAL_HEADER,
                    synced_end: WAL_HEADER,
                    chain: FNV_OFFSET,
                    committed_chain: FNV_OFFSET,
                },
                recovery,
            ));
        }
        let mut magic = [0u8; 8];
        file.pread(sys, 0, &mut magic)?;
        if &magic != WAL_MAGIC {
            return Err(SqlError::CorruptJournal {
                offset: 0,
                detail: "bad WAL magic".into(),
            });
        }

        // Scan frames, promoting buffered ones at each commit record.
        let mut off = WAL_HEADER;
        let mut chain = FNV_OFFSET;
        let mut committed_end = WAL_HEADER;
        let mut committed_chain = FNV_OFFSET;
        let mut pending: Vec<(u32, u64)> = Vec::new();
        loop {
            match read_frame(sys, file.as_mut(), off, size, chain) {
                Ok(None) => break, // clean end of log
                Ok(Some((pno, db_size, next_chain))) => {
                    pending.push((pno, off + FRAME_HEADER as u64));
                    chain = next_chain;
                    off += FRAME_SIZE;
                    if db_size != 0 {
                        recovery.frames_recovered += pending.len() as u64;
                        for (p, data_off) in pending.drain(..) {
                            recovery.index.insert(p, data_off);
                        }
                        recovery.db_pages = db_size;
                        committed_end = off;
                        committed_chain = chain;
                    }
                }
                Err(SqlError::TornWal { .. }) => break, // tail starts here
                Err(e) => return Err(e),
            }
        }
        if committed_end < size {
            recovery.tail_discarded = true;
            recovery.tail_offset = committed_end;
            file.truncate(sys, committed_end)?;
        }
        Ok((
            Wal {
                file,
                end: committed_end,
                committed_end,
                // What survived recovery *is* the durable state.
                synced_end: committed_end,
                chain: committed_chain,
                committed_chain,
            },
            recovery,
        ))
    }

    /// Strict recovery check: like [`Wal::open`]'s scan, but a torn tail
    /// is an error rather than silently discarded. Lets callers that
    /// must distinguish "clean log" from "crash happened" see the typed
    /// [`SqlError::TornWal`] with the tail's byte offset.
    ///
    /// # Errors
    ///
    /// [`SqlError::TornWal`] for any discarded tail,
    /// [`SqlError::CorruptJournal`] for a bad header, I/O errors.
    pub fn check(sys: &mut System, env: &mut dyn StorageEnv, db_path: &str) -> Result<WalRecovery> {
        let wp = wal_path(db_path);
        if !env.exists(sys, &wp)? {
            return Ok(WalRecovery::default());
        }
        let mut file = env.open(sys, &wp)?;
        let size = file.size(sys)?;
        if size == 0 {
            return Ok(WalRecovery::default());
        }
        if size < WAL_HEADER {
            return Err(SqlError::TornWal { offset: 0 });
        }
        let mut magic = [0u8; 8];
        file.pread(sys, 0, &mut magic)?;
        if &magic != WAL_MAGIC {
            return Err(SqlError::CorruptJournal {
                offset: 0,
                detail: "bad WAL magic".into(),
            });
        }
        let mut recovery = WalRecovery::default();
        let mut off = WAL_HEADER;
        let mut chain = FNV_OFFSET;
        let mut committed_end = WAL_HEADER;
        let mut pending: Vec<(u32, u64)> = Vec::new();
        loop {
            match read_frame(sys, file.as_mut(), off, size, chain)? {
                None => break,
                Some((pno, db_size, next_chain)) => {
                    pending.push((pno, off + FRAME_HEADER as u64));
                    chain = next_chain;
                    off += FRAME_SIZE;
                    if db_size != 0 {
                        recovery.frames_recovered += pending.len() as u64;
                        for (p, data_off) in pending.drain(..) {
                            recovery.index.insert(p, data_off);
                        }
                        recovery.db_pages = db_size;
                        committed_end = off;
                    }
                }
            }
        }
        if committed_end < size {
            return Err(SqlError::TornWal {
                offset: committed_end,
            });
        }
        Ok(recovery)
    }

    /// Appends one frame and returns the offset of its page data: the
    /// one-frame case of [`Wal::append_frames`].
    ///
    /// # Errors
    ///
    /// I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`DB_PAGE`] bytes.
    pub fn append_frame(
        &mut self,
        sys: &mut System,
        pno: u32,
        db_size: u32,
        data: &[u8],
    ) -> Result<u64> {
        Ok(self.append_frames(sys, &[(pno, db_size, data)])?[0])
    }

    /// Appends `(pno, db_size, page)` frames in order with one write and
    /// returns the offset of each frame's page data. `db_size != 0`
    /// makes a frame a commit record. The frames are not durable until
    /// [`Wal::sync`], nor part of the committed prefix until
    /// [`Wal::mark_committed`]; a commit appends through
    /// [`Wal::commit_frames`] instead.
    ///
    /// # Errors
    ///
    /// I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if a page is not exactly [`DB_PAGE`] bytes.
    pub fn append_frames(
        &mut self,
        sys: &mut System,
        frames: &[(u32, u32, &[u8])],
    ) -> Result<Vec<u64>> {
        self.append(sys, frames, false)
    }

    /// Appends a transaction's last frames, its commit record last, and
    /// makes the whole log durable in one write
    /// ([`StorageFile::pwrite_sync`]). On `Ok` the log up to the record
    /// is the committed prefix. On `Err` nothing is committed, but any
    /// prefix of the frames may be on file: the caller discards them
    /// with [`Wal::rollback_uncommitted`].
    ///
    /// # Errors
    ///
    /// I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if a page is not exactly [`DB_PAGE`] bytes.
    pub fn commit_frames(
        &mut self,
        sys: &mut System,
        frames: &[(u32, u32, &[u8])],
    ) -> Result<Vec<u64>> {
        let offs = self.append(sys, frames, true)?;
        self.synced_end = self.end;
        self.mark_committed();
        Ok(offs)
    }

    /// [`Wal::append_frames`], made durable by the same write when
    /// `durable`.
    fn append(
        &mut self,
        sys: &mut System,
        frames: &[(u32, u32, &[u8])],
        durable: bool,
    ) -> Result<Vec<u64>> {
        let mut bytes = Vec::with_capacity(frames.len() * FRAME_SIZE as usize);
        let mut chain = self.chain;
        for &(pno, db_size, data) in frames {
            assert_eq!(data.len(), DB_PAGE, "frames carry exactly one page");
            chain = frame_checksum(chain, pno, db_size, data);
            bytes.extend_from_slice(&pno.to_le_bytes());
            bytes.extend_from_slice(&db_size.to_le_bytes());
            bytes.extend_from_slice(&chain.to_le_bytes());
            bytes.extend_from_slice(data);
        }
        let start = self.end;
        if durable {
            // Counted before the write: a failed one may have landed any
            // prefix, which `rollback_uncommitted` must cut off.
            self.end += bytes.len() as u64;
            self.file.pwrite_sync(sys, start, &bytes)?;
        } else {
            self.file.pwrite(sys, start, &bytes)?;
            self.end += bytes.len() as u64;
        }
        self.chain = chain;
        Ok((0..frames.len() as u64)
            .map(|i| start + i * FRAME_SIZE + FRAME_HEADER as u64)
            .collect())
    }

    /// Reads one page image out of the log at `data_off` (an offset
    /// previously returned by [`Wal::append_frames`] or found in a
    /// [`WalRecovery`] index).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn read_page_at(&mut self, sys: &mut System, data_off: u64, buf: &mut [u8]) -> Result<()> {
        self.file.pread(sys, data_off, buf)?;
        Ok(())
    }

    /// The log's file, as the source of a checkpoint's
    /// [`StorageFile::copy_from`].
    pub fn file_mut(&mut self) -> &mut dyn StorageFile {
        self.file.as_mut()
    }

    /// Makes everything appended so far durable.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn sync(&mut self, sys: &mut System) -> Result<()> {
        self.file.sync(sys)?;
        self.synced_end = self.end;
        Ok(())
    }

    /// Marks the current end of log as the committed prefix (the caller
    /// just appended a commit record).
    pub fn mark_committed(&mut self) {
        self.committed_end = self.end;
        self.committed_chain = self.chain;
    }

    /// Discards every frame appended after the last commit record
    /// (transaction rollback).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn rollback_uncommitted(&mut self, sys: &mut System) -> Result<()> {
        if self.end > self.committed_end {
            self.file.truncate(sys, self.committed_end)?;
            self.end = self.committed_end;
            self.chain = self.committed_chain;
            self.synced_end = self.synced_end.min(self.committed_end);
        }
        Ok(())
    }

    /// Empties the log back to a bare header (after a completed
    /// checkpoint moved every committed frame into the database file).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn reset(&mut self, sys: &mut System) -> Result<()> {
        self.file.truncate(sys, WAL_HEADER)?;
        self.file.sync(sys)?;
        self.end = WAL_HEADER;
        self.committed_end = WAL_HEADER;
        self.synced_end = WAL_HEADER;
        self.chain = FNV_OFFSET;
        self.committed_chain = FNV_OFFSET;
        Ok(())
    }

    /// End offset of the last fully appended frame.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// End offset of the committed prefix.
    pub fn committed_end(&self) -> u64 {
        self.committed_end
    }

    /// End offset known durable.
    pub fn synced_end(&self) -> u64 {
        self.synced_end
    }

    /// Closes the underlying file.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn close(&mut self, sys: &mut System) -> Result<()> {
        self.file.close(sys)?;
        Ok(())
    }
}

/// Reads and validates the frame at `off`. `Ok(None)` = clean end of
/// log; [`SqlError::TornWal`] = short or checksum-mismatching frame.
fn read_frame(
    sys: &mut System,
    file: &mut dyn StorageFile,
    off: u64,
    size: u64,
    chain: u64,
) -> Result<Option<(u32, u32, u64)>> {
    if off == size {
        return Ok(None);
    }
    if off + FRAME_SIZE > size {
        return Err(SqlError::TornWal { offset: off });
    }
    let mut header = [0u8; FRAME_HEADER];
    file.pread(sys, off, &mut header)?;
    let pno = u32::from_le_bytes(header[0..4].try_into().expect("4"));
    let db_size = u32::from_le_bytes(header[4..8].try_into().expect("4"));
    let stored = u64::from_le_bytes(header[8..16].try_into().expect("8"));
    let mut data = vec![0u8; DB_PAGE];
    file.pread(sys, off + FRAME_HEADER as u64, &mut data)?;
    if frame_checksum(chain, pno, db_size, &data) != stored {
        return Err(SqlError::TornWal { offset: off });
    }
    Ok(Some((pno, db_size, stored)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::HostEnv;
    use cubicle_core::{IsolationMode, System};

    fn sys() -> System {
        System::new(IsolationMode::Unikraft)
    }

    fn page(tag: u8) -> Vec<u8> {
        let mut p = vec![0u8; DB_PAGE];
        p[0] = tag;
        p[DB_PAGE - 1] = tag;
        p
    }

    #[test]
    fn fresh_log_is_empty() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let (wal, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(wal.end(), WAL_HEADER);
        assert_eq!(rec.frames_recovered, 0);
        assert!(!rec.tail_discarded);
    }

    #[test]
    fn committed_frames_replay() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
            wal.append_frame(&mut sys, 1, 0, &page(0x11)).unwrap();
            wal.append_frame(&mut sys, 2, 3, &page(0x22)).unwrap();
            wal.mark_committed();
            wal.sync(&mut sys).unwrap();
        }
        let (mut wal, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(rec.frames_recovered, 2);
        assert_eq!(rec.db_pages, 3);
        assert!(!rec.tail_discarded);
        let mut buf = vec![0u8; DB_PAGE];
        wal.read_page_at(&mut sys, rec.index[&1], &mut buf).unwrap();
        assert_eq!(buf[0], 0x11);
        wal.read_page_at(&mut sys, rec.index[&2], &mut buf).unwrap();
        assert_eq!(buf[0], 0x22);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
            wal.append_frame(&mut sys, 1, 2, &page(1)).unwrap();
            wal.mark_committed();
            // a second transaction appends but never commits
            wal.append_frame(&mut sys, 5, 0, &page(5)).unwrap();
            wal.sync(&mut sys).unwrap();
        }
        let (_, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(rec.frames_recovered, 1);
        assert!(rec.tail_discarded);
        assert_eq!(rec.tail_offset, WAL_HEADER + FRAME_SIZE);
        assert!(!rec.index.contains_key(&5));
    }

    #[test]
    fn torn_frame_invalidates_suffix() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
            wal.append_frame(&mut sys, 1, 2, &page(1)).unwrap();
            wal.mark_committed();
            wal.append_frame(&mut sys, 2, 3, &page(2)).unwrap();
            wal.mark_committed();
            wal.sync(&mut sys).unwrap();
        }
        // tear the second frame mid-way
        {
            let mut f = env.open(&mut sys, &wal_path("/a.db")).unwrap();
            f.truncate(&mut sys, WAL_HEADER + FRAME_SIZE + 100).unwrap();
        }
        let (_, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(rec.frames_recovered, 1, "only the intact commit");
        assert!(rec.tail_discarded);
        assert_eq!(rec.db_pages, 2);
    }

    #[test]
    fn corrupt_byte_detected_by_chain() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
            wal.append_frame(&mut sys, 1, 2, &page(1)).unwrap();
            wal.mark_committed();
            wal.sync(&mut sys).unwrap();
        }
        {
            let mut f = env.open(&mut sys, &wal_path("/a.db")).unwrap();
            // flip a data byte inside the frame
            f.pwrite(&mut sys, WAL_HEADER + FRAME_HEADER as u64 + 7, &[0xFF])
                .unwrap();
        }
        let (_, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(rec.frames_recovered, 0);
        assert!(rec.tail_discarded);
        assert_eq!(rec.tail_offset, WAL_HEADER);
    }

    #[test]
    fn check_reports_typed_torn_error() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
            wal.append_frame(&mut sys, 1, 2, &page(1)).unwrap();
            wal.mark_committed();
            wal.append_frame(&mut sys, 2, 0, &page(2)).unwrap();
            wal.sync(&mut sys).unwrap();
        }
        let err = Wal::check(&mut sys, &mut env, "/a.db");
        match err {
            Err(SqlError::TornWal { offset }) => {
                assert_eq!(offset, WAL_HEADER + FRAME_SIZE);
            }
            other => panic!("expected TornWal, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_corrupt_not_torn() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let mut f = env.open(&mut sys, &wal_path("/a.db")).unwrap();
            f.pwrite(&mut sys, 0, b"garbage-header-bytes").unwrap();
        }
        assert!(matches!(
            Wal::open(&mut sys, &mut env, "/a.db"),
            Err(SqlError::CorruptJournal { offset: 0, .. })
        ));
        assert!(matches!(
            Wal::check(&mut sys, &mut env, "/a.db"),
            Err(SqlError::CorruptJournal { offset: 0, .. })
        ));
    }

    #[test]
    fn rollback_discards_uncommitted() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        wal.append_frame(&mut sys, 1, 2, &page(1)).unwrap();
        wal.mark_committed();
        let end = wal.end();
        wal.append_frame(&mut sys, 2, 0, &page(2)).unwrap();
        wal.rollback_uncommitted(&mut sys).unwrap();
        assert_eq!(wal.end(), end);
        // chain restored: a new append after rollback still validates
        wal.append_frame(&mut sys, 3, 4, &page(3)).unwrap();
        wal.mark_committed();
        wal.sync(&mut sys).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(rec.frames_recovered, 2);
        assert!(rec.index.contains_key(&3) && !rec.index.contains_key(&2));
    }

    #[test]
    fn reset_empties_log() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        let (mut wal, _) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        wal.append_frame(&mut sys, 1, 2, &page(1)).unwrap();
        wal.mark_committed();
        wal.sync(&mut sys).unwrap();
        wal.reset(&mut sys).unwrap();
        assert_eq!(wal.end(), WAL_HEADER);
        drop(wal);
        let (_, rec) = Wal::open(&mut sys, &mut env, "/a.db").unwrap();
        assert_eq!(rec.frames_recovered, 0);
    }
}
