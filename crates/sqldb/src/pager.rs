//! Page cache + transactional storage (WAL by default).
//!
//! Mirrors SQLite's two journaling designs: fixed-size pages and an
//! in-memory page cache with LRU eviction, fronting either
//!
//! * a **write-ahead log** ([`JournalMode::Wal`], the default): commit
//!   appends the transaction's pages to `{path}-wal` ending in a commit
//!   record, in one write that is also the sync, and a checkpoint later
//!   folds committed frames back into the main file — a crash at any
//!   byte boundary preserves exactly the committed prefix (see
//!   [`crate::wal`]); or
//! * a **rollback journal** ([`JournalMode::Rollback`], the PR-1 design,
//!   kept as the A/B baseline): each page's *original* content is saved
//!   before its first modification, commit = sync journal → write dirty
//!   pages in place → sync db → delete journal.
//!
//! The paper's speedtest1 analysis (§6.4) hinges on exactly this layer:
//! cache-friendly queries "only involve the OS interface to write batched
//! pages evicted from the cache", while OS-heavy queries miss the cache
//! and pay a cross-cubicle round trip per page.

use crate::error::{Result, SqlError};
use crate::storage::{StorageEnv, StorageFile};
use crate::wal::Wal;
use cubicle_core::{RecoveryEvent, System};
use std::collections::{HashMap, HashSet};

/// Database page size in bytes.
pub const DB_PAGE: usize = 4096;

/// Default page-cache capacity in pages (1 MiB).
pub const DEFAULT_CACHE_PAGES: usize = 256;

const MAGIC: &[u8; 16] = b"CubicleDB v1\0\0\0\0";
const JOURNAL_MAGIC: &[u8; 8] = b"CBJRNL01";

/// How the pager makes transactions durable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JournalMode {
    /// Undo journal + in-place page writes (the PR-1 design).
    Rollback,
    /// Append-only write-ahead log with checkpointing.
    Wal,
}

/// Pager event counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PagerStats {
    /// Page-cache hits.
    pub hits: u64,
    /// Page-cache misses (each costs a file read).
    pub misses: u64,
    /// Dirty evictions (mid-transaction spills: in-place db writes in
    /// rollback mode, WAL frames in WAL mode).
    pub evictions: u64,
    /// `sync` calls issued.
    pub syncs: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Frames appended to the write-ahead log.
    pub wal_frames: u64,
    /// Completed checkpoints (WAL folded back into the db file).
    pub checkpoints: u64,
}

struct CacheEntry {
    data: Vec<u8>,
    dirty: bool,
    tick: u64,
}

struct Journal {
    file: Box<dyn StorageFile>,
    journaled: HashSet<u32>,
    orig_page_count: u32,
    offset: u64,
}

/// The pager: transactional page-granular access to one database file.
pub struct Pager {
    env: Box<dyn StorageEnv>,
    path: String,
    file: Box<dyn StorageFile>,
    cache: HashMap<u32, CacheEntry>,
    cache_cap: usize,
    tick: u64,
    page_count: u32,
    freelist_head: u32,
    schema_root: u32,
    mode: JournalMode,
    /// Rollback-mode transaction state (`Some` while a txn is open).
    journal: Option<Journal>,
    /// The log itself (always `Some` in WAL mode after open).
    wal: Option<Wal>,
    /// Latest *committed* frame per page: `pno → data offset` in the WAL.
    committed_index: HashMap<u32, u64>,
    /// Frames spilled by the *current* transaction (mid-txn evictions).
    txn_index: HashMap<u32, u64>,
    /// WAL-mode transaction open?
    wal_txn: bool,
    /// Event counters.
    pub stats: PagerStats,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("path", &self.path)
            .field("mode", &self.mode)
            .field("pages", &self.page_count)
            .field("cached", &self.cache.len())
            .field("in_txn", &self.in_txn())
            .finish()
    }
}

impl Pager {
    /// Opens (creating or recovering as needed) the database at `path`
    /// in the default [`JournalMode::Wal`].
    ///
    /// # Errors
    ///
    /// I/O errors, [`SqlError::Corrupt`] for a bad header, or
    /// [`SqlError::CorruptJournal`] for an unrecognisable journal / WAL.
    pub fn open(
        sys: &mut System,
        env: Box<dyn StorageEnv>,
        path: &str,
        cache_pages: usize,
    ) -> Result<Pager> {
        Pager::open_with_mode(sys, env, path, cache_pages, JournalMode::Wal)
    }

    /// [`Pager::open`] with an explicit journal mode.
    ///
    /// # Errors
    ///
    /// As [`Pager::open`].
    pub fn open_with_mode(
        sys: &mut System,
        mut env: Box<dyn StorageEnv>,
        path: &str,
        cache_pages: usize,
        mode: JournalMode,
    ) -> Result<Pager> {
        // Crash recovery, step 1: a leftover rollback journal means a
        // rollback-mode transaction died mid-write-back (possibly in a
        // previous incarnation running the other mode); roll the old
        // page images back in before anything reads the file.
        let journal_path = journal_path(path);
        if env.exists(sys, &journal_path)? {
            recover(sys, env.as_mut(), path, &journal_path)?;
        }
        let mut file = env.open(sys, path)?;
        let size = file.size(sys)?;
        let mut pager = Pager {
            env,
            path: path.to_string(),
            file,
            cache: HashMap::new(),
            cache_cap: cache_pages.max(8),
            tick: 0,
            page_count: 1,
            freelist_head: 0,
            schema_root: 0,
            mode,
            journal: None,
            wal: None,
            committed_index: HashMap::new(),
            txn_index: HashMap::new(),
            wal_txn: false,
            stats: PagerStats::default(),
        };
        if size == 0 {
            let mut header = vec![0u8; DB_PAGE];
            header[..16].copy_from_slice(MAGIC);
            header[16..20].copy_from_slice(&1u32.to_le_bytes());
            pager.file.pwrite(sys, 0, &header)?;
        } else {
            let mut header = vec![0u8; DB_PAGE];
            pager.file.pread(sys, 0, &mut header)?;
            if &header[..16] != MAGIC {
                return Err(SqlError::Corrupt("bad database magic".into()));
            }
            pager.page_count = u32::from_le_bytes(header[16..20].try_into().expect("4"));
            pager.freelist_head = u32::from_le_bytes(header[20..24].try_into().expect("4"));
            pager.schema_root = u32::from_le_bytes(header[24..28].try_into().expect("4"));
        }
        if mode == JournalMode::Wal {
            // Crash recovery, step 2: replay the WAL's committed prefix.
            // Committed frames stay in the log (served through the
            // committed index) until a checkpoint folds them back.
            let (wal, recovery) = Wal::open(sys, pager.env.as_mut(), path)?;
            pager.wal = Some(wal);
            if recovery.frames_recovered > 0 || recovery.tail_discarded {
                sys.record_recovery(RecoveryEvent::WalReplay {
                    frames: recovery.frames_recovered,
                    torn: recovery.tail_discarded,
                });
            }
            if !recovery.index.is_empty() {
                pager.committed_index = recovery.index;
                // The header page rides the WAL like any other page, so
                // the committed prefix carries the authoritative
                // page_count / freelist / schema_root.
                pager.reload_header(sys)?;
            }
        }
        // Misses read the database file's pages straight from the file
        // system's where the system offers a map (DESIGN §6s); the log's
        // frames straddle pages and it is truncated at every checkpoint,
        // so it stays on `pread`.
        pager.file.map_reads(sys);
        Ok(pager)
    }

    /// Closes the database: rolls back an open transaction, then closes
    /// the log, a rollback journal and the database file, each whatever
    /// the others do, releasing what the storage holds for them (file
    /// descriptors, staging, page maps). The first error wins.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn close(mut self, sys: &mut System) -> Result<()> {
        let mut out = Ok(());
        if self.in_txn() {
            out = self.rollback(sys);
        }
        if let Some(wal) = self.wal.as_mut() {
            out = out.and(wal.file_mut().close(sys));
        }
        if let Some(journal) = self.journal.as_mut() {
            out = out.and(journal.file.close(sys));
        }
        out.and(self.file.close(sys))
    }

    /// Number of pages in the database (including the header page).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Root page of the schema catalog btree (0 = not yet created).
    pub fn schema_root(&self) -> u32 {
        self.schema_root
    }

    /// The journal mode this pager runs in.
    pub fn mode(&self) -> JournalMode {
        self.mode
    }

    /// Records the schema catalog's root page.
    ///
    /// # Errors
    ///
    /// Requires an open transaction (the header page is journaled).
    pub fn set_schema_root(&mut self, sys: &mut System, root: u32) -> Result<()> {
        self.schema_root = root;
        self.write_header(sys)
    }

    /// Is a transaction open?
    pub fn in_txn(&self) -> bool {
        self.journal.is_some() || self.wal_txn
    }

    // ------------------------------------------------------------------
    // WAL introspection
    // ------------------------------------------------------------------

    /// End offset of the last fully appended WAL frame (0 in rollback
    /// mode).
    pub fn wal_end(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::end)
    }

    /// End offset of the WAL's committed prefix (0 in rollback mode).
    pub fn wal_committed_end(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::committed_end)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begins a transaction (creates the rollback journal in rollback
    /// mode; WAL mode needs no setup).
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] when one is already open.
    pub fn begin(&mut self, sys: &mut System) -> Result<()> {
        if self.in_txn() {
            return Err(SqlError::Transaction("transaction already open".into()));
        }
        match self.mode {
            JournalMode::Wal => {
                self.wal_txn = true;
                Ok(())
            }
            JournalMode::Rollback => {
                let jp = journal_path(&self.path);
                let mut jfile = self.env.open(sys, &jp)?;
                let mut header = Vec::with_capacity(12);
                header.extend_from_slice(JOURNAL_MAGIC);
                header.extend_from_slice(&self.page_count.to_le_bytes());
                jfile.pwrite(sys, 0, &header)?;
                self.journal = Some(Journal {
                    file: jfile,
                    journaled: HashSet::new(),
                    orig_page_count: self.page_count,
                    offset: 12,
                });
                Ok(())
            }
        }
    }

    /// Commits the open transaction.
    ///
    /// WAL mode: append every dirty page as a frame, the last one a
    /// commit record, in one durable write ([`Wal::commit_frames`]), so
    /// an acknowledged commit is durable. A failed WAL commit is rolled
    /// back: none of its pages reaches a later commit.
    /// Rollback mode: journal sync → dirty page write-back
    /// → db sync → journal delete. A failure before the db sync
    /// completes is rolled back from the journal, as ROLLBACK would.
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] without an open transaction; I/O errors.
    pub fn commit(&mut self, sys: &mut System) -> Result<()> {
        match self.mode {
            JournalMode::Wal => self.commit_wal(sys),
            JournalMode::Rollback => self.commit_rollback(sys),
        }
    }

    fn commit_wal(&mut self, sys: &mut System) -> Result<()> {
        if !self.wal_txn {
            return Err(SqlError::Transaction("commit without transaction".into()));
        }
        self.wal_txn = false;
        let mut dirty: Vec<u32> = self
            .cache
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&p, _)| p)
            .collect();
        dirty.sort_unstable();
        if dirty.is_empty() && self.txn_index.is_empty() {
            return Ok(()); // read-only transaction: nothing to make durable
        }
        // One durable write carries every frame, the commit record last.
        // When every modified page was already spilled to the log, the
        // header page is appended once more purely to carry the commit
        // record (and the authoritative page_count with it).
        let header;
        let frames: Vec<(u32, u32, &[u8])> = if dirty.is_empty() {
            header = self.read_page(sys, 0)?;
            dirty.push(0);
            vec![(0, self.page_count, &header[..])]
        } else {
            let last = *dirty.last().expect("non-empty");
            dirty
                .iter()
                .map(|&pno| {
                    let db_size = if pno == last { self.page_count } else { 0 };
                    (pno, db_size, &self.cache[&pno].data[..])
                })
                .collect()
        };
        let wal = self.wal.as_mut().expect("wal mode");
        let offs = match wal.commit_frames(sys, &frames) {
            Ok(offs) => offs,
            Err(e) => {
                // Nothing of a failed commit may ride the next one: roll
                // it back as ROLLBACK would. The append's error wins.
                let _ = self.discard_wal_txn(sys);
                return Err(e);
            }
        };
        // The commit record is durable: promote the transaction's frames
        // into the committed index.
        for (pno, off) in dirty.into_iter().zip(offs) {
            self.cache
                .get_mut(&pno)
                .expect("listed or read above")
                .dirty = false;
            self.txn_index.insert(pno, off);
            self.stats.wal_frames += 1;
        }
        self.committed_index.extend(self.txn_index.drain());
        self.stats.commits += 1;
        self.stats.syncs += 1;
        Ok(())
    }

    fn commit_rollback(&mut self, sys: &mut System) -> Result<()> {
        if self.journal.is_none() {
            return Err(SqlError::Transaction("commit without transaction".into()));
        }
        if let Err(e) = self.write_back(sys) {
            // Nothing of a failed commit may ride the next one: roll it
            // back as ROLLBACK would, from the journal it still holds.
            // The write-back's error wins.
            let _ = self.rollback(sys);
            return Err(e);
        }
        let mut journal = self.journal.take().expect("checked above");
        journal.file.close(sys)?;
        self.env.unlink(sys, &journal_path(&self.path))?;
        Ok(())
    }

    /// Rollback mode's durable half of a commit: journal sync → dirty
    /// page write-back → db sync.
    fn write_back(&mut self, sys: &mut System) -> Result<()> {
        let journal = self.journal.as_mut().expect("rollback-mode transaction");
        journal.file.sync(sys)?;
        self.stats.syncs += 1;
        // The header page was journaled and updated through write_page
        // whenever page_count / freelist / schema_root changed, so the
        // dirty-page sweep below covers it.
        let mut dirty: Vec<u32> = self
            .cache
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&p, _)| p)
            .collect();
        dirty.sort_unstable();
        for pno in dirty {
            let entry = self.cache.get_mut(&pno).expect("listed above");
            self.file
                .pwrite(sys, u64::from(pno) * DB_PAGE as u64, &entry.data)?;
            entry.dirty = false;
        }
        self.file.sync(sys)?;
        self.stats.syncs += 1;
        self.stats.commits += 1;
        Ok(())
    }

    /// Rolls back the open transaction.
    ///
    /// WAL mode: truncate the log back to the last commit record and
    /// drop all cached state. Rollback mode: restore journaled page
    /// images and truncate the file to its size at `begin`.
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] without an open transaction; I/O errors.
    pub fn rollback(&mut self, sys: &mut System) -> Result<()> {
        match self.mode {
            JournalMode::Wal => {
                if !self.wal_txn {
                    return Err(SqlError::Transaction("rollback without transaction".into()));
                }
                self.wal_txn = false;
                self.discard_wal_txn(sys)
            }
            JournalMode::Rollback => {
                let Some(mut journal) = self.journal.take() else {
                    return Err(SqlError::Transaction("rollback without transaction".into()));
                };
                journal.file.close(sys)?;
                drop(journal);
                // Re-read the journal from the file system and replay it.
                let jp = journal_path(&self.path);
                recover(sys, self.env.as_mut(), &self.path, &jp)?;
                // All cached state may be stale now.
                self.cache.clear();
                self.reload_header(sys)
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint (WAL mode)
    // ------------------------------------------------------------------

    /// Folds the WAL's committed frames back into the database file and
    /// empties the log. Equivalent to
    /// [`Pager::checkpoint_with_limit`]`(sys, None)`.
    ///
    /// # Errors
    ///
    /// As [`Pager::checkpoint_with_limit`].
    pub fn checkpoint(&mut self, sys: &mut System) -> Result<bool> {
        self.checkpoint_with_limit(sys, None)
    }

    /// Checkpoints at most `limit` pages (all of them when `None`),
    /// returning `true` when the log is fully folded back and reset.
    ///
    /// An incomplete checkpoint (`Ok(false)`) leaves the WAL intact:
    /// the database file holds a *mix* of old and new pages, but every
    /// committed frame is still durable in the log, so a crash at any
    /// point replays to the same committed state. Pages are written in
    /// ascending page order (deterministic cycle counts).
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] while a transaction is open; I/O
    /// errors. No-op `Ok(true)` in rollback mode.
    pub fn checkpoint_with_limit(
        &mut self,
        sys: &mut System,
        limit: Option<usize>,
    ) -> Result<bool> {
        if self.in_txn() {
            return Err(SqlError::Transaction(
                "checkpoint inside a transaction".into(),
            ));
        }
        if self.wal.is_none() || self.committed_index.is_empty() {
            return Ok(true);
        }
        // Recovery-ordering invariant: the log must be durable before
        // the db file is overwritten — otherwise a crash mid-fold could
        // leave the file half-new with only an unsynced log to replay.
        {
            let wal = self.wal.as_mut().expect("checked above");
            if wal.synced_end() < wal.committed_end() {
                wal.sync(sys)?;
                self.stats.syncs += 1;
            }
        }
        // A committed frame past the database's size is never folded
        // (SQLite's mxPage rule): an honest log holds none, and folding
        // one would grow the file only for the truncate below to undo it.
        let mut pnos: Vec<u32> = self
            .committed_index
            .keys()
            .copied()
            .filter(|&pno| pno < self.page_count)
            .collect();
        pnos.sort_unstable();
        let todo = limit.unwrap_or(pnos.len()).min(pnos.len());
        // One copy from the log into the db file, in page order.
        let segs: Vec<(u64, u64, usize)> = pnos[..todo]
            .iter()
            .map(|pno| {
                let at = u64::from(*pno) * DB_PAGE as u64;
                (self.committed_index[pno], at, DB_PAGE)
            })
            .collect();
        let wal = self.wal.as_mut().expect("checked above");
        self.file.copy_from(sys, wal.file_mut(), &segs)?;
        if todo < pnos.len() {
            return Ok(false);
        }
        self.file
            .truncate(sys, u64::from(self.page_count) * DB_PAGE as u64)?;
        self.file.sync(sys)?;
        self.stats.syncs += 1;
        // Only now that the db file is durable may the log be emptied.
        self.wal.as_mut().expect("checked above").reset(sys)?;
        self.committed_index.clear();
        self.stats.checkpoints += 1;
        // The fold may have grown the file: the map lists the new pages.
        self.file.map_reads(sys);
        Ok(true)
    }

    /// WAL-mode rollback: truncates the log back to the last commit
    /// record and drops every cached page and spilled frame of the
    /// transaction.
    fn discard_wal_txn(&mut self, sys: &mut System) -> Result<()> {
        self.txn_index.clear();
        self.cache.clear();
        self.wal
            .as_mut()
            .expect("wal mode")
            .rollback_uncommitted(sys)?;
        self.reload_header(sys)
    }

    fn reload_header(&mut self, sys: &mut System) -> Result<()> {
        let header = self.read_committed_page(sys, 0)?;
        self.page_count = u32::from_le_bytes(header[16..20].try_into().expect("4"));
        self.freelist_head = u32::from_le_bytes(header[20..24].try_into().expect("4"));
        self.schema_root = u32::from_le_bytes(header[24..28].try_into().expect("4"));
        Ok(())
    }

    /// Reads a page's latest *committed* content, bypassing the cache:
    /// WAL committed index first, then the database file.
    fn read_committed_page(&mut self, sys: &mut System, pno: u32) -> Result<Vec<u8>> {
        let mut data = vec![0u8; DB_PAGE];
        if let Some(&off) = self.committed_index.get(&pno) {
            self.wal
                .as_mut()
                .expect("index implies wal")
                .read_page_at(sys, off, &mut data)?;
        } else {
            self.file
                .pread(sys, u64::from(pno) * DB_PAGE as u64, &mut data)?;
        }
        Ok(data)
    }

    fn write_header(&mut self, sys: &mut System) -> Result<()> {
        let mut header = self.read_page(sys, 0)?;
        header[..16].copy_from_slice(MAGIC);
        header[16..20].copy_from_slice(&self.page_count.to_le_bytes());
        header[20..24].copy_from_slice(&self.freelist_head.to_le_bytes());
        header[24..28].copy_from_slice(&self.schema_root.to_le_bytes());
        self.write_page(sys, 0, &header)
    }

    // ------------------------------------------------------------------
    // Page access
    // ------------------------------------------------------------------

    /// Reads page `pno` (through the cache).
    ///
    /// # Errors
    ///
    /// I/O errors; reading past the end yields a zeroed page.
    pub fn read_page(&mut self, sys: &mut System, pno: u32) -> Result<Vec<u8>> {
        Ok(self.page_ref(sys, pno)?.to_vec())
    }

    /// Reads page `pno` through the cache, returning a borrow of the
    /// cached copy. The btree layer decodes in place from this borrow,
    /// so a cache hit costs no page-sized copy.
    ///
    /// # Errors
    ///
    /// I/O errors; reading past the end yields a zeroed page.
    pub fn page_ref(&mut self, sys: &mut System, pno: u32) -> Result<&[u8]> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.cache.get_mut(&pno) {
            e.tick = tick;
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            let mut data = vec![0u8; DB_PAGE];
            // Freshest source wins: current-txn spill, then the last
            // committed frame, then the database file.
            let wal_off = self
                .txn_index
                .get(&pno)
                .or_else(|| self.committed_index.get(&pno))
                .copied();
            if let Some(off) = wal_off {
                self.wal
                    .as_mut()
                    .expect("index implies wal")
                    .read_page_at(sys, off, &mut data)?;
            } else {
                self.file
                    .pread(sys, u64::from(pno) * DB_PAGE as u64, &mut data)?;
            }
            self.insert_cache(sys, pno, data, false)?;
        }
        Ok(&self.cache.get(&pno).expect("resident after fill").data)
    }

    /// Writes page `pno` (journaling its original content first in
    /// rollback mode; WAL mode dirties the cache copy and spills frames
    /// only on eviction or commit).
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] outside a transaction; I/O errors. When
    /// making room in the cache means spilling a dirty page and the spill
    /// fails, the whole transaction is rolled back before the error
    /// returns, here and in [`Pager::page_ref`]: no page is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`DB_PAGE`] bytes.
    pub fn write_page(&mut self, sys: &mut System, pno: u32, data: &[u8]) -> Result<()> {
        assert_eq!(data.len(), DB_PAGE, "pages are exactly {DB_PAGE} bytes");
        if !self.in_txn() {
            return Err(SqlError::Transaction("write outside a transaction".into()));
        }
        if self.mode == JournalMode::Rollback {
            self.journal_page(sys, pno)?;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.cache.get_mut(&pno) {
            e.data.copy_from_slice(data);
            e.dirty = true;
            e.tick = tick;
            return Ok(());
        }
        self.insert_cache(sys, pno, data.to_vec(), true)
    }

    fn journal_page(&mut self, sys: &mut System, pno: u32) -> Result<()> {
        let journal = self.journal.as_mut().expect("caller checked");
        if journal.journaled.contains(&pno) || pno >= journal.orig_page_count {
            return Ok(()); // fresh pages need no undo image
        }
        // Fetch the original content (cache copy may already be current
        // transaction state — but journaled-set guarantees first touch).
        let mut orig = vec![0u8; DB_PAGE];
        if let Some(e) = self.cache.get(&pno) {
            orig.copy_from_slice(&e.data);
        } else {
            self.file
                .pread(sys, u64::from(pno) * DB_PAGE as u64, &mut orig)?;
        }
        let journal = self.journal.as_mut().expect("caller checked");
        let mut rec = Vec::with_capacity(4 + DB_PAGE);
        rec.extend_from_slice(&pno.to_le_bytes());
        rec.extend_from_slice(&orig);
        journal.file.pwrite(sys, journal.offset, &rec)?;
        journal.offset += rec.len() as u64;
        journal.journaled.insert(pno);
        Ok(())
    }

    fn insert_cache(
        &mut self,
        sys: &mut System,
        pno: u32,
        data: Vec<u8>,
        dirty: bool,
    ) -> Result<()> {
        while self.cache.len() >= self.cache_cap {
            // Evict the least recently used page.
            let victim = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&p, _)| p)
                .expect("cache non-empty");
            // A dirty victim leaves the cache only once its spill has
            // landed; a failed spill rolls the transaction back.
            if let Err(e) = self.spill(sys, victim) {
                // The spill's error wins over the rollback's.
                let _ = self.rollback(sys);
                return Err(e);
            }
            self.cache.remove(&victim);
        }
        self.cache.insert(
            pno,
            CacheEntry {
                data,
                dirty,
                tick: self.tick,
            },
        );
        Ok(())
    }

    /// Writes a dirty cached page out ahead of its eviction: in place in
    /// rollback mode (its undo image is already journaled), as an
    /// ordinary (non-commit) WAL frame in WAL mode, where the db file is
    /// never written mid-transaction. A clean page needs nothing.
    fn spill(&mut self, sys: &mut System, pno: u32) -> Result<()> {
        let entry = &self.cache[&pno];
        if !entry.dirty {
            return Ok(());
        }
        self.stats.evictions += 1;
        match self.mode {
            JournalMode::Rollback => {
                self.file
                    .pwrite(sys, u64::from(pno) * DB_PAGE as u64, &entry.data)?;
            }
            JournalMode::Wal => {
                let wal = self.wal.as_mut().expect("wal mode");
                let off = wal.append_frame(sys, pno, 0, &entry.data)?;
                self.txn_index.insert(pno, off);
                self.stats.wal_frames += 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Page allocation
    // ------------------------------------------------------------------

    /// Allocates a fresh zeroed page (reusing the freelist when
    /// possible) and returns its number.
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] outside a transaction; I/O errors.
    pub fn allocate_page(&mut self, sys: &mut System) -> Result<u32> {
        if !self.in_txn() {
            return Err(SqlError::Transaction(
                "allocation outside a transaction".into(),
            ));
        }
        let pno = if self.freelist_head != 0 {
            let pno = self.freelist_head;
            let page = self.read_page(sys, pno)?;
            self.freelist_head = u32::from_le_bytes(page[..4].try_into().expect("4"));
            pno
        } else {
            let pno = self.page_count;
            self.page_count += 1;
            pno
        };
        self.write_header(sys)?;
        self.write_page(sys, pno, &vec![0u8; DB_PAGE])?;
        Ok(pno)
    }

    /// Returns a page to the freelist.
    ///
    /// # Errors
    ///
    /// [`SqlError::Transaction`] outside a transaction; I/O errors.
    pub fn free_page(&mut self, sys: &mut System, pno: u32) -> Result<()> {
        let mut page = vec![0u8; DB_PAGE];
        page[..4].copy_from_slice(&self.freelist_head.to_le_bytes());
        self.write_page(sys, pno, &page)?;
        self.freelist_head = pno;
        self.write_header(sys)
    }
}

fn journal_path(path: &str) -> String {
    format!("{path}-journal")
}

/// Replays a rollback journal: restores original page images and
/// truncates the database back to its pre-transaction size.
fn recover(
    sys: &mut System,
    env: &mut dyn StorageEnv,
    path: &str,
    journal_path: &str,
) -> Result<()> {
    let mut jfile = env.open(sys, journal_path)?;
    let jsize = jfile.size(sys)?;
    let mut header = [0u8; 12];
    if jsize < 12 || jfile.pread(sys, 0, &mut header)? < 12 {
        // A torn/empty journal from a crash before the first sync: the
        // db was never touched, discard the journal.
        jfile.close(sys)?;
        env.unlink(sys, journal_path)?;
        return Ok(());
    }
    if &header[..8] != JOURNAL_MAGIC {
        // A full-size header with the wrong magic is not the benign
        // artifact of a torn write — surface it instead of silently
        // deleting what might be someone's data.
        jfile.close(sys)?;
        return Err(SqlError::CorruptJournal {
            offset: 0,
            detail: "bad rollback-journal magic".into(),
        });
    }
    let orig_page_count = u32::from_le_bytes(header[8..12].try_into().expect("4"));
    let mut db = env.open(sys, path)?;
    let mut off = 12u64;
    let rec = 4 + DB_PAGE as u64;
    while off + rec <= jsize {
        let mut pno_b = [0u8; 4];
        jfile.pread(sys, off, &mut pno_b)?;
        let pno = u32::from_le_bytes(pno_b);
        let mut data = vec![0u8; DB_PAGE];
        jfile.pread(sys, off + 4, &mut data)?;
        db.pwrite(sys, u64::from(pno) * DB_PAGE as u64, &data)?;
        off += rec;
    }
    db.truncate(sys, u64::from(orig_page_count) * DB_PAGE as u64)?;
    db.sync(sys)?;
    db.close(sys)?;
    jfile.close(sys)?;
    env.unlink(sys, journal_path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::HostEnv;
    use cubicle_core::{IsolationMode, System};

    fn sys() -> System {
        System::new(IsolationMode::Unikraft)
    }

    fn open(sys: &mut System, env: &HostEnv) -> Pager {
        Pager::open(sys, Box::new(env.clone()), "/test.db", 16).unwrap()
    }

    #[test]
    fn fresh_database_has_header() {
        let mut sys = sys();
        let env = HostEnv::new();
        let p = open(&mut sys, &env);
        assert_eq!(p.page_count(), 1);
        assert_eq!(p.schema_root(), 0);
        assert!(!p.in_txn());
        assert_eq!(p.mode(), JournalMode::Wal);
    }

    #[test]
    fn pages_round_trip_through_commit() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        p.begin(&mut sys).unwrap();
        let pno = p.allocate_page(&mut sys).unwrap();
        let mut data = vec![0u8; DB_PAGE];
        data[..5].copy_from_slice(b"btree");
        p.write_page(&mut sys, pno, &data).unwrap();
        p.commit(&mut sys).unwrap();
        drop(p);
        // reopen: data persisted (recovered out of the WAL)
        let mut p = open(&mut sys, &env);
        assert_eq!(p.page_count(), 2);
        let back = p.read_page(&mut sys, pno).unwrap();
        assert_eq!(&back[..5], b"btree");
    }

    #[test]
    fn write_outside_txn_rejected() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        let err = p.write_page(&mut sys, 1, &vec![0u8; DB_PAGE]);
        assert!(matches!(err, Err(SqlError::Transaction(_))));
        assert!(matches!(
            p.allocate_page(&mut sys),
            Err(SqlError::Transaction(_))
        ));
        assert!(matches!(p.commit(&mut sys), Err(SqlError::Transaction(_))));
    }

    #[test]
    fn rollback_restores_old_contents() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        p.begin(&mut sys).unwrap();
        let pno = p.allocate_page(&mut sys).unwrap();
        let mut data = vec![0u8; DB_PAGE];
        data[0] = 0xAA;
        p.write_page(&mut sys, pno, &data).unwrap();
        p.commit(&mut sys).unwrap();

        p.begin(&mut sys).unwrap();
        data[0] = 0xBB;
        p.write_page(&mut sys, pno, &data).unwrap();
        let extra = p.allocate_page(&mut sys).unwrap();
        assert_eq!(extra, 2);
        p.rollback(&mut sys).unwrap();

        assert_eq!(p.read_page(&mut sys, pno).unwrap()[0], 0xAA);
        assert_eq!(p.page_count(), 2, "allocation rolled back");
    }

    #[test]
    fn crash_recovery_discards_uncommitted() {
        let mut sys = sys();
        let env = HostEnv::new();
        {
            let mut p = open(&mut sys, &env);
            p.begin(&mut sys).unwrap();
            let pno = p.allocate_page(&mut sys).unwrap();
            let mut data = vec![0u8; DB_PAGE];
            data[0] = 1;
            p.write_page(&mut sys, pno, &data).unwrap();
            p.commit(&mut sys).unwrap();
            // second txn dies mid-flight: dirty pages in cache, maybe
            // spilled frames in the WAL, but no commit record
            p.begin(&mut sys).unwrap();
            data[0] = 2;
            p.write_page(&mut sys, pno, &data).unwrap();
            // simulate a crash: drop the pager without commit/rollback
        }
        let mut p = open(&mut sys, &env);
        assert_eq!(
            p.read_page(&mut sys, 1).unwrap()[0],
            1,
            "recovered to committed state"
        );
    }

    #[test]
    fn rollback_mode_crash_recovery_replays_journal() {
        let mut sys = sys();
        let env = HostEnv::new();
        let reopen = |sys: &mut System| {
            Pager::open_with_mode(
                sys,
                Box::new(env.clone()),
                "/r.db",
                16,
                JournalMode::Rollback,
            )
            .unwrap()
        };
        {
            let mut p = reopen(&mut sys);
            assert_eq!(p.mode(), JournalMode::Rollback);
            p.begin(&mut sys).unwrap();
            let pno = p.allocate_page(&mut sys).unwrap();
            let mut data = vec![0u8; DB_PAGE];
            data[0] = 1;
            p.write_page(&mut sys, pno, &data).unwrap();
            p.commit(&mut sys).unwrap();
            // second txn dies mid-flight: journal exists on disk
            p.begin(&mut sys).unwrap();
            data[0] = 2;
            p.write_page(&mut sys, pno, &data).unwrap();
        }
        let mut p = reopen(&mut sys);
        assert_eq!(
            p.read_page(&mut sys, 1).unwrap()[0],
            1,
            "recovered to committed state"
        );
    }

    #[test]
    fn eviction_mid_txn_is_safe() {
        let mut sys = sys();
        let env = HostEnv::new();
        // Tiny cache to force dirty evictions inside the transaction.
        let mut p = Pager::open(&mut sys, Box::new(env.clone()), "/t.db", 8).unwrap();
        p.begin(&mut sys).unwrap();
        let pages: Vec<u32> = (0..32)
            .map(|_| p.allocate_page(&mut sys).unwrap())
            .collect();
        for (i, &pno) in pages.iter().enumerate() {
            let mut data = vec![0u8; DB_PAGE];
            data[0] = i as u8;
            p.write_page(&mut sys, pno, &data).unwrap();
        }
        assert!(p.stats.evictions > 0, "test must actually evict");
        p.commit(&mut sys).unwrap();
        for (i, &pno) in pages.iter().enumerate() {
            assert_eq!(p.read_page(&mut sys, pno).unwrap()[0], i as u8);
        }
        // ... and the whole thing survives a reopen via WAL replay
        drop(p);
        let mut p = Pager::open(&mut sys, Box::new(env.clone()), "/t.db", 8).unwrap();
        for (i, &pno) in pages.iter().enumerate() {
            assert_eq!(p.read_page(&mut sys, pno).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn spilled_then_dropped_txn_recovers_clean() {
        let mut sys = sys();
        let env = HostEnv::new();
        {
            let mut p = Pager::open(&mut sys, Box::new(env.clone()), "/s.db", 8).unwrap();
            p.begin(&mut sys).unwrap();
            let a = p.allocate_page(&mut sys).unwrap();
            let mut data = vec![0u8; DB_PAGE];
            data[0] = 7;
            p.write_page(&mut sys, a, &data).unwrap();
            p.commit(&mut sys).unwrap();
            // doomed txn spills frames into the WAL, then "crashes"
            p.begin(&mut sys).unwrap();
            for _ in 0..32 {
                let pno = p.allocate_page(&mut sys).unwrap();
                p.write_page(&mut sys, pno, &vec![0xEEu8; DB_PAGE]).unwrap();
            }
            assert!(p.stats.evictions > 0, "doomed txn must spill");
        }
        let mut p = Pager::open(&mut sys, Box::new(env.clone()), "/s.db", 8).unwrap();
        assert_eq!(p.page_count(), 2, "uncommitted allocations discarded");
        assert_eq!(p.read_page(&mut sys, 1).unwrap()[0], 7);
    }

    #[test]
    fn checkpoint_folds_wal_into_db() {
        let mut sys = sys();
        let env = HostEnv::new();
        {
            let mut p = open(&mut sys, &env);
            p.begin(&mut sys).unwrap();
            let pno = p.allocate_page(&mut sys).unwrap();
            let mut data = vec![0u8; DB_PAGE];
            data[0] = 0x5A;
            p.write_page(&mut sys, pno, &data).unwrap();
            p.commit(&mut sys).unwrap();
            assert!(p.checkpoint(&mut sys).unwrap());
            assert_eq!(p.stats.checkpoints, 1);
            assert_eq!(p.wal_end(), crate::wal::WAL_HEADER, "log emptied");
        }
        // The db file alone (WAL is empty) carries the data now.
        let mut p = open(&mut sys, &env);
        assert_eq!(p.read_page(&mut sys, 1).unwrap()[0], 0x5A);
        assert_eq!(p.page_count(), 2);
    }

    #[test]
    fn partial_checkpoint_keeps_wal_authoritative() {
        let mut sys = sys();
        let env = HostEnv::new();
        {
            let mut p = open(&mut sys, &env);
            p.begin(&mut sys).unwrap();
            for i in 0..6u8 {
                let pno = p.allocate_page(&mut sys).unwrap();
                let mut data = vec![0u8; DB_PAGE];
                data[0] = 0x10 + i;
                p.write_page(&mut sys, pno, &data).unwrap();
            }
            p.commit(&mut sys).unwrap();
            // fold only 2 of the 7 committed pages, then "crash"
            assert!(!p.checkpoint_with_limit(&mut sys, Some(2)).unwrap());
            assert_eq!(p.stats.checkpoints, 0, "incomplete: not counted");
        }
        let mut p = open(&mut sys, &env);
        for i in 0..6u8 {
            assert_eq!(
                p.read_page(&mut sys, 1 + u32::from(i)).unwrap()[0],
                0x10 + i,
                "every committed page survives a mid-checkpoint crash"
            );
        }
    }

    #[test]
    fn checkpoint_inside_txn_rejected() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        p.begin(&mut sys).unwrap();
        assert!(matches!(
            p.checkpoint(&mut sys),
            Err(SqlError::Transaction(_))
        ));
        p.rollback(&mut sys).unwrap();
    }

    #[test]
    fn freelist_reuses_pages() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        p.begin(&mut sys).unwrap();
        let a = p.allocate_page(&mut sys).unwrap();
        let b = p.allocate_page(&mut sys).unwrap();
        p.free_page(&mut sys, a).unwrap();
        let c = p.allocate_page(&mut sys).unwrap();
        assert_eq!(c, a, "freed page is reused");
        let d = p.allocate_page(&mut sys).unwrap();
        assert!(d > b, "then fresh pages again");
        p.commit(&mut sys).unwrap();
    }

    #[test]
    fn allocated_pages_are_zeroed() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        p.begin(&mut sys).unwrap();
        let a = p.allocate_page(&mut sys).unwrap();
        let mut junk = vec![0u8; DB_PAGE];
        junk[100] = 0xEE;
        p.write_page(&mut sys, a, &junk).unwrap();
        p.free_page(&mut sys, a).unwrap();
        let b = p.allocate_page(&mut sys).unwrap();
        assert_eq!(b, a);
        assert_eq!(
            p.read_page(&mut sys, b).unwrap()[100],
            0,
            "recycled page zeroed"
        );
        p.commit(&mut sys).unwrap();
    }

    #[test]
    fn cache_stats_move() {
        let mut sys = sys();
        let env = HostEnv::new();
        let mut p = open(&mut sys, &env);
        p.begin(&mut sys).unwrap();
        let a = p.allocate_page(&mut sys).unwrap();
        p.commit(&mut sys).unwrap();
        let h0 = p.stats.hits;
        p.read_page(&mut sys, a).unwrap();
        p.read_page(&mut sys, a).unwrap();
        assert!(p.stats.hits >= h0 + 2);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            let mut f = env.open(&mut sys, "/bad.db").unwrap();
            f.pwrite(&mut sys, 0, b"not a database file").unwrap();
        }
        let err = Pager::open(&mut sys, Box::new(env.clone()), "/bad.db", 16);
        assert!(matches!(err, Err(SqlError::Corrupt(_))));
    }

    #[test]
    fn corrupt_rollback_journal_rejected() {
        let mut sys = sys();
        let mut env = HostEnv::new();
        {
            // a full-size journal header with the wrong magic
            let mut f = env.open(&mut sys, "/j.db-journal").unwrap();
            f.pwrite(&mut sys, 0, b"NOTJRNL!\x01\x00\x00\x00").unwrap();
        }
        let err = Pager::open(&mut sys, Box::new(env.clone()), "/j.db", 16);
        assert!(matches!(
            err,
            Err(SqlError::CorruptJournal { offset: 0, .. })
        ));
    }

    #[test]
    fn wal_replay_is_counted() {
        let mut sys = sys();
        let env = HostEnv::new();
        {
            let mut p = open(&mut sys, &env);
            p.begin(&mut sys).unwrap();
            let pno = p.allocate_page(&mut sys).unwrap();
            p.write_page(&mut sys, pno, &vec![3u8; DB_PAGE]).unwrap();
            p.commit(&mut sys).unwrap();
        }
        assert_eq!(sys.stats().wal_replays, 0, "clean open: no replay");
        let _p = open(&mut sys, &env);
        let s = sys.stats();
        assert_eq!(s.wal_replays, 1);
        assert!(s.wal_frames_recovered >= 2, "data page + header page");
    }
}
