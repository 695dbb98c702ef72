//! Deterministic fault injection for the containment campaign.
//!
//! A seeded [`Rng64`] drives a storm of faults — wild reads and writes,
//! premature window closes, out-of-window pointer passing, images
//! carrying forbidden instructions, heap exhaustion mid-call — against a
//! three-cubicle micro deployment, and checks after every injection that
//! the blast radius stayed inside the offender: the expected cubicle
//! (and only it) is quarantined, `System::audit()` is clean, and the
//! surviving cubicles still complete cross-calls. Every quarantined
//! offender is then microrebooted and the checks repeat.
//!
//! The same seed must reproduce the same storm bit-for-bit: the report
//! carries an FNV digest over the kernel trace so `faultstorm` can
//! assert replay determinism.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, Errno, IsolationMode, System,
    SystemConfig, Value,
};
use cubicle_mpk::insn::{CodeImage, Insn};
use cubicle_mpk::rng::Rng64;
use cubicle_mpk::VAddr;
use cubicle_ramfs::{install_journal, mount_at, Ramfs};
use cubicle_sqldb::storage::{CubicleEnv, StorageEnv, StorageFile};
use cubicle_sqldb::{Database, SqlError, SqlValue};
use cubicle_ukbase::boot_base;
use cubicle_vfs::{Vfs, VfsPort, VfsProxy};
use std::cell::RefCell;
use std::rc::Rc;

/// An address far above anything the monitor maps in these runs.
const WILD: VAddr = VAddr::new(0x0FFF_0000);

/// Cubicles in the micro deployment.
const POP: usize = 3;
const NAMES: [&str; POP] = ["APP", "SVC", "STORE"];

/// One injected fault shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The target reads unmapped memory in its own frame.
    WildRead,
    /// The target writes unmapped memory in its own frame.
    WildWrite,
    /// The caller opens a window, closes it, then cross-calls an entry
    /// that dereferences the no-longer-shared buffer.
    PrematureClose,
    /// The caller passes a pointer to its memory without ever opening a
    /// window for it.
    BadPointer,
    /// A component image carrying a `wrpkru` reaches the loader.
    ForbiddenImage,
    /// A callee exhausts its heap quota mid-call.
    HeapExhaust,
}

impl FaultKind {
    /// All kinds, in storm-mix order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::WildRead,
        FaultKind::WildWrite,
        FaultKind::PrematureClose,
        FaultKind::BadPointer,
        FaultKind::ForbiddenImage,
        FaultKind::HeapExhaust,
    ];
}

struct Node;
impl_component!(Node);

/// Builds the image for micro-deployment cubicle `i`: a ping entry for
/// liveness probes plus entries the injector drives into each fault.
fn node_image(i: usize) -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new(NAMES[i], CodeImage::plain(256))
        .export(
            b.export(&format!("long ping{i}(void)")).unwrap(),
            |_sys, _this, _| Ok(Value::I64(1)),
        )
        .export(
            b.export(&format!("long deref{i}(const void *p)")).unwrap(),
            |sys, _this, args| {
                sys.read_vec(args[0].as_ptr(), 8)?;
                Ok(Value::I64(0))
            },
        )
        .export(
            b.export(&format!("long hog{i}(uint64_t bytes)")).unwrap(),
            |sys, _this, args| {
                sys.heap_alloc(args[0].as_u64() as usize, 8)?;
                Ok(Value::I64(0))
            },
        )
}

/// Outcome of one campaign run.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Seed the storm was drawn from.
    pub seed: u64,
    /// Faults injected.
    pub injected: u64,
    /// Faults whose blast radius stayed inside the offender.
    pub contained: u64,
    /// Faults that escaped (any failed check). Must be zero.
    pub uncontained: u64,
    /// Quarantines performed by the kernel during the storm.
    pub quarantines: u64,
    /// Microreboots performed to bring offenders back.
    pub restarts: u64,
    /// FNV-1a digest over the kernel trace (replay-determinism witness).
    pub digest: u64,
    /// Human-readable notes for every escaped fault.
    pub escapes: Vec<String>,
}

/// FNV-1a over a byte slice.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs one seeded storm of `injections` faults and reports containment.
///
/// # Panics
///
/// Panics when the micro deployment itself fails to boot — that is a
/// harness bug, not a containment escape.
pub fn run_campaign(seed: u64, injections: usize) -> CampaignReport {
    let mut rng = Rng64::new(seed);
    let mut sys = System::new(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    });
    sys.enable_tracing(1 << 16);

    let mut ids: Vec<CubicleId> = Vec::new();
    for i in 0..POP {
        ids.push(sys.load(node_image(i), Box::new(Node)).unwrap().cid);
    }

    let mut report = CampaignReport {
        seed,
        ..CampaignReport::default()
    };

    for step in 0..injections {
        let kind = FaultKind::ALL[rng.range_usize(0, FaultKind::ALL.len())];
        let t = rng.range_usize(0, POP);
        let c = (t + 1 + rng.range_usize(0, POP - 1)) % POP; // c != t
        report.injected += 1;

        // Fire the fault. `offender` is who the kernel must quarantine;
        // `None` means the fault is contained without a quarantine
        // (resource exhaustion, loader rejection).
        let (offender, fired_ok) = match kind {
            FaultKind::WildRead => {
                let r = sys.run_in_cubicle(ids[t], |sys| sys.read_vec(WILD, 8));
                (Some(t), r.is_err())
            }
            FaultKind::WildWrite => {
                let r = sys.run_in_cubicle(ids[t], |sys| sys.write(WILD, b"stray"));
                (Some(t), r.is_err())
            }
            FaultKind::PrematureClose => {
                let peer = ids[c];
                let r = sys.run_in_cubicle(ids[t], |sys| {
                    let buf = sys.heap_alloc(64, 8)?;
                    let wid = sys.window_init();
                    sys.window_add(wid, buf, 64)?;
                    sys.window_open(wid, peer)?;
                    sys.window_close(wid, peer)?; // revoked before use
                    sys.call(&format!("deref{c}"), &[Value::Ptr(buf)])
                });
                (Some(t), r.is_err())
            }
            FaultKind::BadPointer => {
                let r = sys.run_in_cubicle(ids[t], |sys| {
                    let buf = sys.heap_alloc(64, 8)?;
                    sys.call(&format!("deref{c}"), &[Value::Ptr(buf)])
                });
                (Some(t), r.is_err())
            }
            FaultKind::ForbiddenImage => {
                let bad = CodeImage::from_insns(&[
                    Insn::Plain { len: 32 },
                    Insn::Wrpkru,
                    Insn::Plain { len: 8 },
                ]);
                let r = sys.load(ComponentImage::new("EVIL", bad), Box::new(Node));
                (
                    None,
                    matches!(r, Err(CubicleError::ForbiddenInstruction(_))),
                )
            }
            FaultKind::HeapExhaust => {
                sys.set_heap_limit(ids[c], Some(8)).unwrap();
                let r = sys.run_in_cubicle(ids[t], |sys| {
                    sys.call(&format!("hog{c}"), &[Value::U64(64 * 1024 * 1024)])
                });
                sys.set_heap_limit(ids[c], None).unwrap();
                // Contained as -ENOMEM at the healthy caller; no
                // quarantine — exhaustion is not an isolation breach.
                (None, matches!(r.map(|v| v.as_i64()), Ok(-12)))
            }
        };

        // Verify the blast radius.
        let escape = |why: String, report: &mut CampaignReport| {
            report.uncontained += 1;
            report
                .escapes
                .push(format!("seed {seed:#x} step {step} {kind:?}: {why}"));
        };
        let mut ok = true;
        if !fired_ok {
            escape("fault did not fire as expected".into(), &mut report);
            ok = false;
        }
        for (i, id) in ids.iter().enumerate() {
            let expect = offender == Some(i);
            if sys.cubicle(*id).is_quarantined() != expect {
                escape(
                    format!("{} quarantined={}, expected {expect}", NAMES[i], !expect),
                    &mut report,
                );
                ok = false;
            }
        }
        let audit = sys.audit();
        if !audit.is_clean() {
            escape(format!("audit dirty after fault: {audit}"), &mut report);
            ok = false;
        }
        // Survivors keep serving.
        let healthy: Vec<usize> = (0..POP)
            .filter(|&i| !sys.cubicle(ids[i]).is_quarantined())
            .collect();
        if healthy.len() >= 2 {
            let (a, b) = (healthy[0], healthy[healthy.len() - 1]);
            let r = sys.run_in_cubicle(ids[a], |sys| sys.call(&format!("ping{b}"), &[]));
            if r.map(|v| v.as_i64()) != Ok(1) {
                escape("healthy pair stopped serving".into(), &mut report);
                ok = false;
            }
        }

        // Bring the offender back and re-verify.
        if let Some(i) = offender {
            if sys.cubicle(ids[i]).is_quarantined() {
                sys.restart(ids[i]).unwrap();
                let audit = sys.audit();
                if !audit.is_clean() {
                    escape(format!("audit dirty after restart: {audit}"), &mut report);
                    ok = false;
                }
                let r = sys
                    .run_in_cubicle(ids[(i + 1) % POP], |sys| sys.call(&format!("ping{i}"), &[]));
                if r.map(|v| v.as_i64()) != Ok(1) {
                    escape("offender not serving after microreboot".into(), &mut report);
                    ok = false;
                }
            }
        }
        if ok {
            report.contained += 1;
        }
    }

    let stats = sys.stats();
    report.quarantines = stats.quarantines;
    report.restarts = stats.restarts;

    // Digest the whole trace: same seed ⇒ same storm ⇒ same digest.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    if let Some(trace) = sys.trace() {
        for rec in trace.records() {
            h = fnv1a(h, format!("{rec:?}").as_bytes());
        }
    }
    h = fnv1a(h, sys.export_fault_audit().as_bytes());
    report.digest = h;
    report
}

// =========================================================================
// Crashstorm: seeded crash injection on the durability path
// =========================================================================
//
// Where the fault storm above asks "does the blast radius stay inside the
// offender?", the crash storm asks the stronger question of the recovery
// machinery: after a quarantine lands at the *worst possible instant* of
// the commit path, does reboot-and-replay restore exactly the acknowledged
// state? Injection points cover every phase of the sqldb WAL commit path
// (frames written but unsynced, a frame torn mid-write, checkpoint fold
// half-done) plus the RAMFS inode journal's own torn-append window.

/// A commit-path phase the crash storm can land a quarantine in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// WAL frames (and the commit record) written, sync not yet issued.
    PreWalSync,
    /// Mid-way through a WAL frame's bytes — the torn-frame case.
    MidFrame,
    /// Commit durable, checkpoint about to fold its first page back.
    PostCommitPreCheckpoint,
    /// Mid-way through the checkpoint's db-file writes / truncate.
    MidCheckpoint,
    /// Inside a RAMFS journal append, between record bytes and `len`.
    MidRamfsJournalAppend,
}

impl CrashPoint {
    /// All phases, in storm-mix order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::PreWalSync,
        CrashPoint::MidFrame,
        CrashPoint::PostCommitPreCheckpoint,
        CrashPoint::MidCheckpoint,
        CrashPoint::MidRamfsJournalAppend,
    ];
}

/// Which file a storage operation touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileKind {
    Db,
    Wal,
    Other,
}

fn classify(path: &str) -> FileKind {
    if path.ends_with("-wal") {
        FileKind::Wal
    } else if path.ends_with(".db") {
        FileKind::Db
    } else {
        FileKind::Other
    }
}

/// One mutating storage operation, as observed by [`CrashEnv`].
#[derive(Clone, Copy, Debug)]
enum OpKind {
    Write { len: usize },
    Sync,
    Truncate,
}

/// Shared crash schedule: the observe run records the op trace, the armed
/// run fires a wild access at op `target.0` (after `target.1` bytes of a
/// write have landed — the torn prefix).
#[derive(Default)]
struct CrashPlan {
    ops: u64,
    target: Option<(u64, usize)>,
    fired: bool,
    trace: Vec<(FileKind, OpKind)>,
}

type SharedPlan = Rc<RefCell<CrashPlan>>;

/// [`StorageEnv`] wrapper that counts mutating operations and detonates
/// the armed one mid-flight: the prefix bytes land, then the app touches
/// wild memory and the containment policy quarantines it on the spot.
struct CrashEnv {
    inner: CubicleEnv,
    plan: SharedPlan,
}

struct CrashFile {
    inner: Box<dyn StorageFile>,
    kind: FileKind,
    plan: SharedPlan,
}

impl CrashFile {
    /// Records one mutating op; returns `Some(cut)` when this op is the
    /// armed target (the caller performs the torn prefix, then dies).
    fn tick(&mut self, op: OpKind) -> Option<usize> {
        let mut plan = self.plan.borrow_mut();
        let idx = plan.ops;
        plan.ops += 1;
        plan.trace.push((self.kind, op));
        match plan.target {
            Some((t, cut)) if t == idx => {
                plan.fired = true;
                Some(cut)
            }
            _ => None,
        }
    }

    fn dead(&self) -> bool {
        let plan = self.plan.borrow();
        plan.fired && plan.target.is_some()
    }
}

/// The injected "power failure": a wild read quarantines the calling
/// cubicle (fault containment is on), and the in-flight operation
/// surfaces as an I/O error to the engine.
fn die(sys: &mut System) -> cubicle_sqldb::Result<usize> {
    let _ = sys.read_vec(WILD, 8);
    Err(SqlError::Io(Errno::Efault.neg()))
}

impl StorageFile for CrashFile {
    fn pread(
        &mut self,
        sys: &mut System,
        off: u64,
        buf: &mut [u8],
    ) -> cubicle_sqldb::Result<usize> {
        self.inner.pread(sys, off, buf)
    }

    fn pwrite(&mut self, sys: &mut System, off: u64, data: &[u8]) -> cubicle_sqldb::Result<usize> {
        if self.dead() {
            return Err(SqlError::Io(Errno::Efault.neg()));
        }
        match self.tick(OpKind::Write { len: data.len() }) {
            Some(cut) => {
                if cut > 0 {
                    self.inner.pwrite(sys, off, &data[..cut.min(data.len())])?;
                }
                die(sys)
            }
            None => self.inner.pwrite(sys, off, data),
        }
    }

    fn pread_vec(
        &mut self,
        sys: &mut System,
        segs: &mut [(u64, &mut [u8])],
    ) -> cubicle_sqldb::Result<()> {
        self.inner.pread_vec(sys, segs)
    }

    /// Ticks once per segment, so trace indices count the same writes as
    /// a scalar loop would. An unarmed vector travels whole; an armed one
    /// lands its prefix segments plus the torn cut, then dies.
    fn pwrite_vec(&mut self, sys: &mut System, segs: &[(u64, &[u8])]) -> cubicle_sqldb::Result<()> {
        if self.dead() {
            return Err(SqlError::Io(Errno::Efault.neg()));
        }
        for (i, &(off, data)) in segs.iter().enumerate() {
            if let Some(cut) = self.tick(OpKind::Write { len: data.len() }) {
                let mut landed = segs[..i].to_vec();
                if cut > 0 {
                    landed.push((off, &data[..cut.min(data.len())]));
                }
                if !landed.is_empty() {
                    self.inner.pwrite_vec(sys, &landed)?;
                }
                return die(sys).map(|_| ());
            }
        }
        self.inner.pwrite_vec(sys, segs)
    }

    fn size(&mut self, sys: &mut System) -> cubicle_sqldb::Result<u64> {
        self.inner.size(sys)
    }

    fn truncate(&mut self, sys: &mut System, len: u64) -> cubicle_sqldb::Result<()> {
        if self.dead() {
            return Err(SqlError::Io(Errno::Efault.neg()));
        }
        match self.tick(OpKind::Truncate) {
            Some(_) => die(sys).map(|_| ()),
            None => self.inner.truncate(sys, len),
        }
    }

    fn sync(&mut self, sys: &mut System) -> cubicle_sqldb::Result<()> {
        if self.dead() {
            return Err(SqlError::Io(Errno::Efault.neg()));
        }
        match self.tick(OpKind::Sync) {
            Some(_) => die(sys).map(|_| ()),
            None => self.inner.sync(sys),
        }
    }

    fn close(&mut self, sys: &mut System) -> cubicle_sqldb::Result<()> {
        self.inner.close(sys)
    }
}

impl StorageEnv for CrashEnv {
    fn open(
        &mut self,
        sys: &mut System,
        path: &str,
    ) -> cubicle_sqldb::Result<Box<dyn StorageFile>> {
        let inner = self.inner.open(sys, path)?;
        Ok(Box::new(CrashFile {
            inner,
            kind: classify(path),
            plan: self.plan.clone(),
        }))
    }

    fn unlink(&mut self, sys: &mut System, path: &str) -> cubicle_sqldb::Result<()> {
        self.inner.unlink(sys, path)
    }

    fn exists(&mut self, sys: &mut System, path: &str) -> cubicle_sqldb::Result<bool> {
        self.inner.exists(sys, path)
    }
}

/// The SQLite-over-cubicles stack the crash storm runs against.
struct SqlStack {
    sys: System,
    app: CubicleId,
    vfs: VfsProxy,
    vfs_cid: CubicleId,
    ramfs_cid: CubicleId,
    ramfs_slot: usize,
}

/// Journal region: 64 pages = 256 KiB; small enough that long storms
/// exercise compaction, large enough that a snapshot always fits.
const STORM_JOURNAL_PAGES: usize = 64;

fn boot_sql_stack() -> SqlStack {
    let mut sys = System::new(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    });
    let base = boot_base(&mut sys).expect("boot_base");
    let vfs_loaded = sys
        .load(cubicle_vfs::image(), Box::new(Vfs::default()))
        .expect("load vfs");
    let ramfs_loaded = sys
        .load(cubicle_ramfs::image(), Box::new(Ramfs::default()))
        .expect("load ramfs");
    sys.with_component_mut::<Ramfs, _>(ramfs_loaded.slot, |fs, _| fs.set_alloc(base.alloc))
        .expect("ramfs slot");
    mount_at(&mut sys, vfs_loaded.slot, &ramfs_loaded, "/").expect("mount");
    install_journal(
        &mut sys,
        vfs_loaded.cid,
        ramfs_loaded.cid,
        ramfs_loaded.slot,
        STORM_JOURNAL_PAGES,
    )
    .expect("install journal");
    let app = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(4096)).heap_pages(128),
            Box::new(Node),
        )
        .expect("load app");
    sys.mark_boot_complete();
    SqlStack {
        sys,
        app: app.cid,
        vfs: VfsProxy::resolve(&vfs_loaded).expect("vfs proxy"),
        vfs_cid: vfs_loaded.cid,
        ramfs_cid: ramfs_loaded.cid,
        ramfs_slot: ramfs_loaded.slot,
    }
}

fn open_storm_db(stack: &mut SqlStack, plan: &SharedPlan) -> cubicle_sqldb::Result<Database> {
    let (app, vfs, ramfs) = (stack.app, stack.vfs, stack.ramfs_cid);
    let plan = plan.clone();
    stack.sys.run_in_cubicle(app, move |sys| {
        let port = VfsPort::new(sys, vfs, &[ramfs]).map_err(SqlError::Kernel)?;
        let env = CrashEnv {
            inner: CubicleEnv::new(port),
            plan,
        };
        Database::open_with_cache(sys, Box::new(env), "/storm.db", 16)
    })
}

/// One storm's transaction mix, drawn from the seed.
#[derive(Clone, Debug)]
struct StormWorkload {
    /// Group-commit size.
    group: u32,
    /// Rows per transaction, in execution order.
    txns: Vec<u32>,
    /// `PRAGMA wal_checkpoint` runs after this (1-based) transaction.
    ckpt_after: usize,
}

fn draw_workload(rng: &mut Rng64) -> StormWorkload {
    let n = rng.range_usize(4, 7);
    StormWorkload {
        group: *rng.pick(&[1u32, 4, 8]),
        txns: (0..n).map(|_| rng.range_u64(1, 4) as u32).collect(),
        ckpt_after: rng.range_usize(2, 4),
    }
}

/// What the application observed before the crash. Transactions run in
/// order, so both sets are prefixes and two high-water marks suffice.
#[derive(Clone, Copy, Debug, Default)]
struct StormOutcome {
    /// Highest txn whose COMMIT returned Ok.
    acked_high: usize,
    /// Highest txn covered by a durable WAL sync (group flushed or
    /// checkpointed) at some point the app could observe.
    durable_high: usize,
    /// Highest txn that at least issued its BEGIN.
    attempted: usize,
    /// The schema setup's commit was covered by a sync.
    setup_durable: bool,
    /// A database call failed (the injected crash, in the armed run).
    crashed: bool,
}

fn run_storm_workload(
    sys: &mut System,
    app: CubicleId,
    db: &mut Database,
    w: &StormWorkload,
) -> StormOutcome {
    let mut out = StormOutcome::default();
    let w = w.clone();
    let crashed = sys.run_in_cubicle(app, |sys| {
        db.set_group_commit(w.group);
        if db.execute(sys, "CREATE TABLE t(v INTEGER)").is_err() {
            return true;
        }
        if db.pager_mut().pending_commits() == 0 {
            out.setup_durable = true;
        }
        for (i, rows) in w.txns.iter().enumerate() {
            let i = i + 1;
            out.attempted = i;
            if db.execute(sys, "BEGIN").is_err() {
                return true;
            }
            for j in 0..*rows {
                let stmt = format!("INSERT INTO t VALUES ({})", i as u32 * 1000 + j);
                if db.execute(sys, &stmt).is_err() {
                    return true;
                }
            }
            if db.execute(sys, "COMMIT").is_err() {
                return true;
            }
            out.acked_high = i;
            if db.pager_mut().pending_commits() == 0 {
                out.setup_durable = true;
                out.durable_high = i;
            }
            if i == w.ckpt_after && db.execute(sys, "PRAGMA wal_checkpoint").is_err() {
                return true;
            }
        }
        // Final flush: the observe run ends with everything durable.
        if db.flush(sys).is_err() {
            return true;
        }
        out.setup_durable = true;
        out.durable_high = out.acked_high;
        false
    });
    out.crashed = crashed;
    out
}

/// Picks the armed `(op, cut)` for `point` from the observe-run trace;
/// `None` when the trace offers no such phase (caller falls back).
fn pick_target(
    point: CrashPoint,
    trace: &[(FileKind, OpKind)],
    rng: &mut Rng64,
) -> Option<(u64, usize)> {
    let first_wal_sync = trace
        .iter()
        .position(|(k, op)| *k == FileKind::Wal && matches!(op, OpKind::Sync))?;
    let candidates: Vec<(u64, usize)> = match point {
        CrashPoint::PreWalSync => trace
            .iter()
            .enumerate()
            .filter(|(_, (k, op))| *k == FileKind::Wal && matches!(op, OpKind::Sync))
            .map(|(i, _)| (i as u64, 0))
            .collect(),
        CrashPoint::MidFrame => trace
            .iter()
            .enumerate()
            .filter_map(|(i, (k, op))| match (k, op) {
                (FileKind::Wal, OpKind::Write { len }) if *len > 1 => Some((i as u64, *len)),
                _ => None,
            })
            .map(|(i, len)| (i, 1 + rng.range_usize(0, len - 1)))
            .collect(),
        CrashPoint::PostCommitPreCheckpoint => trace
            .iter()
            .enumerate()
            .skip(first_wal_sync)
            .find(|(_, (k, op))| *k == FileKind::Db && matches!(op, OpKind::Write { .. }))
            .map(|(i, _)| (i as u64, 0))
            .into_iter()
            .collect(),
        CrashPoint::MidCheckpoint => {
            let db_writes: Vec<(u64, usize)> = trace
                .iter()
                .enumerate()
                .skip(first_wal_sync)
                .filter_map(|(i, (k, op))| match (k, op) {
                    (FileKind::Db, OpKind::Write { len }) => Some((i as u64, *len)),
                    (FileKind::Db | FileKind::Wal, OpKind::Truncate) => Some((i as u64, 0)),
                    _ => None,
                })
                .collect();
            // Skip the fold's first page so this phase is disjoint from
            // PostCommitPreCheckpoint.
            db_writes
                .into_iter()
                .skip(1)
                .map(|(i, len)| (i, if len > 1 { rng.range_usize(0, len) } else { 0 }))
                .collect()
        }
        CrashPoint::MidRamfsJournalAppend => Vec::new(), // armed via the journal hook
    };
    if candidates.is_empty() {
        None
    } else {
        Some(*rng.pick(&candidates))
    }
}

/// Outcome of one crash campaign run.
#[derive(Clone, Debug, Default)]
pub struct CrashReport {
    /// Seed the storm was drawn from.
    pub seed: u64,
    /// Crashes injected.
    pub injected: u64,
    /// Injections that recovered with every durability check green.
    pub recovered: u64,
    /// Durability violations (acknowledged data lost, torn transaction,
    /// phantom rows, failed integrity check). Must be zero.
    pub violations: u64,
    /// Kernel quarantines across all storms.
    pub quarantines: u64,
    /// Microreboots across all storms.
    pub restarts: u64,
    /// sqldb WAL replays observed during recovery.
    pub wal_replays: u64,
    /// RAMFS journal replays observed during recovery.
    pub ramfs_journal_replays: u64,
    /// FNV-1a digest over the semantic record (replay-determinism
    /// witness: same seed ⇒ same crashes ⇒ same recovered states).
    pub digest: u64,
    /// Human-readable notes for every violation.
    pub notes: Vec<String>,
}

impl CrashReport {
    fn violation(&mut self, step: usize, point: CrashPoint, why: &str) {
        self.violations += 1;
        self.notes.push(format!(
            "seed {:#x} step {step} {point:?}: {why}",
            self.seed
        ));
    }
}

/// Verifies the durability contract against the recovered database.
///
/// Rules (transactions run strictly in order, WAL replay is a prefix):
/// 1. every durable (synced) transaction is present in full;
/// 2. the present set is a gap-free prefix `1..=m` with
///    `durable_high <= m <= attempted` — acknowledged-but-unsynced tail
///    commits may be lost, but only from the end;
/// 3. no transaction is ever partially present (torn);
/// 4. `PRAGMA integrity_check` reports ok.
fn verify_recovery(
    sys: &mut System,
    app: CubicleId,
    db: &mut Database,
    w: &StormWorkload,
    seen: StormOutcome,
) -> std::result::Result<u64, String> {
    let w = w.clone();
    sys.run_in_cubicle(app, move |sys| {
        let rows = match db.query(sys, "SELECT v FROM t ORDER BY v") {
            Ok(rows) => rows,
            Err(e) => {
                if seen.setup_durable || seen.durable_high > 0 {
                    return Err(format!("durable schema lost: {e}"));
                }
                return Ok(0); // nothing was durable; an empty db is legal
            }
        };
        let present: Vec<i64> = rows
            .iter()
            .filter_map(|r| match r.first() {
                Some(SqlValue::Integer(v)) => Some(*v),
                _ => None,
            })
            .collect();
        let mut high = 0usize;
        for (i, rows_i) in w.txns.iter().enumerate() {
            let i = i + 1;
            let expect: Vec<i64> = (0..*rows_i)
                .map(|j| i64::from(i as u32 * 1000 + j))
                .collect();
            let got: Vec<i64> = present
                .iter()
                .copied()
                .filter(|v| (*v / 1000) as usize == i)
                .collect();
            if got == expect {
                if high != i - 1 {
                    return Err(format!("gap in replayed prefix before txn {i}"));
                }
                high = i;
            } else if !got.is_empty() {
                return Err(format!(
                    "torn txn {i}: {} of {} rows present",
                    got.len(),
                    expect.len()
                ));
            }
        }
        if high < seen.durable_high {
            return Err(format!(
                "durable txns lost: synced through {}, recovered through {high}",
                seen.durable_high
            ));
        }
        if high > seen.attempted {
            return Err(format!("phantom txn: recovered through {high}"));
        }
        match db.query(sys, "PRAGMA integrity_check") {
            Ok(check)
                if check.first().and_then(|r| r.first()) == Some(&SqlValue::Text("ok".into())) => {}
            Ok(check) => return Err(format!("integrity check failed: {check:?}")),
            Err(e) => return Err(format!("integrity check errored: {e}")),
        }
        Ok(high as u64)
    })
}

/// Runs one seeded storm of `injections` commit-path crashes, each
/// followed by microreboot + replay, and reports durability violations.
///
/// # Panics
///
/// Panics when the deployment itself fails to boot or a quarantined
/// cubicle refuses to restart — harness bugs, not durability violations.
pub fn run_crash_campaign(seed: u64, injections: usize) -> CrashReport {
    let mut rng = Rng64::new(seed);
    let mut report = CrashReport {
        seed,
        ..CrashReport::default()
    };
    let mut digest = 0xCBF2_9CE4_8422_2325u64;

    for step in 0..injections {
        let w = draw_workload(&mut rng);
        let point = CrashPoint::ALL[rng.range_usize(0, CrashPoint::ALL.len())];

        // Observe run: same stack, same workload, no crash — yields the
        // op trace the armed run's target is drawn from.
        let plan: SharedPlan = Rc::new(RefCell::new(CrashPlan::default()));
        let mut stack = boot_sql_stack();
        let mut db = open_storm_db(&mut stack, &plan).expect("observe open");
        let observed = run_storm_workload(&mut stack.sys, stack.app, &mut db, &w);
        assert!(!observed.crashed, "observe run must not crash");
        let journal_appends = stack
            .sys
            .with_component_mut::<Ramfs, _>(stack.ramfs_slot, |fs, _| {
                fs.journal().map_or(0, |j| j.appends)
            })
            .expect("ramfs slot");
        let trace = std::mem::take(&mut plan.borrow_mut().trace);
        drop(db);
        drop(stack);

        // Arm. A phase the trace does not offer falls back through the
        // mix so every injection still lands somewhere real.
        let mut point = point;
        let mut target = None;
        if point != CrashPoint::MidRamfsJournalAppend {
            for shift in 0..CrashPoint::ALL.len() {
                let p = CrashPoint::ALL[(CrashPoint::ALL
                    .iter()
                    .position(|q| *q == point)
                    .expect("in ALL")
                    + shift)
                    % CrashPoint::ALL.len()];
                if p == CrashPoint::MidRamfsJournalAppend {
                    point = p;
                    break;
                }
                if let Some(t) = pick_target(p, &trace, &mut rng) {
                    point = p;
                    target = Some(t);
                    break;
                }
            }
        }
        report.injected += 1;

        // Armed run: identical stack + workload, crash scheduled.
        let plan: SharedPlan = Rc::new(RefCell::new(CrashPlan {
            target,
            ..CrashPlan::default()
        }));
        let mut stack = boot_sql_stack();
        if point == CrashPoint::MidRamfsJournalAppend {
            let k = rng.range_u64(0, journal_appends.max(1));
            stack
                .sys
                .with_component_mut::<Ramfs, _>(stack.ramfs_slot, |fs, _| {
                    fs.set_journal_crash_after(Some(k));
                })
                .expect("ramfs slot");
        }
        let seen = match open_storm_db(&mut stack, &plan) {
            Ok(mut db) => {
                let seen = run_storm_workload(&mut stack.sys, stack.app, &mut db, &w);
                drop(db);
                seen
            }
            Err(_) => StormOutcome {
                crashed: true,
                ..StormOutcome::default()
            },
        };
        if !seen.crashed {
            report.violation(step, point, "armed crash never fired");
            continue;
        }

        // Blast radius: exactly the expected offender is quarantined.
        let offender = if point == CrashPoint::MidRamfsJournalAppend {
            stack.ramfs_cid
        } else {
            stack.app
        };
        if !stack.sys.cubicle(offender).is_quarantined() {
            report.violation(step, point, "crash did not quarantine the offender");
            continue;
        }
        for cid in [stack.app, stack.vfs_cid, stack.ramfs_cid] {
            if cid != offender && stack.sys.cubicle(cid).is_quarantined() {
                report.violation(step, point, &format!("fault cascaded into {cid:?}"));
            }
        }
        let audit = stack.sys.audit();
        if !audit.is_clean() {
            report.violation(step, point, &format!("audit dirty after crash: {audit}"));
        }

        // Microreboot + replay: RAMFS's restart hook redoes its inode
        // journal; reopening the database replays the WAL on top.
        stack.sys.restart(offender).expect("restart offender");
        let recovered_high = {
            let plan: SharedPlan = Rc::new(RefCell::new(CrashPlan::default()));
            match open_storm_db(&mut stack, &plan) {
                Ok(mut db) => {
                    let r = verify_recovery(&mut stack.sys, stack.app, &mut db, &w, seen);
                    drop(db);
                    r
                }
                Err(e) => Err(format!("reopen after recovery failed: {e}")),
            }
        };
        let recovered_high = match recovered_high {
            Ok(h) => h,
            Err(why) => {
                report.violation(step, point, &why);
                continue;
            }
        };
        let audit = stack.sys.audit();
        if !audit.is_clean() {
            report.violation(step, point, &format!("audit dirty after recovery: {audit}"));
            continue;
        }

        let stats = stack.sys.stats();
        report.quarantines += stats.quarantines;
        report.restarts += stats.restarts;
        report.wal_replays += stats.wal_replays;
        report.ramfs_journal_replays += stats.ramfs_journal_replays;
        report.recovered += 1;

        // Fold the semantic record: what crashed where, what came back.
        digest = fnv1a(
            digest,
            format!(
                "{step}:{point:?}:{target:?}:g{}:{:?}:a{}:d{}:t{}:r{recovered_high}:q{}:w{}:j{}",
                w.group,
                w.txns,
                seen.acked_high,
                seen.durable_high,
                seen.attempted,
                stats.quarantines,
                stats.wal_replays,
                stats.ramfs_journal_replays,
            )
            .as_bytes(),
        );
    }
    report.digest = digest;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_contains_everything_and_replays_identically() {
        let a = run_campaign(0x5EED, 24);
        assert_eq!(a.uncontained, 0, "escapes: {:?}", a.escapes);
        assert_eq!(a.injected, 24);
        let b = run_campaign(0x5EED, 24);
        assert_eq!(a.digest, b.digest, "same seed must replay bit-identically");
        let c = run_campaign(0x5EED + 1, 24);
        assert_ne!(a.digest, c.digest, "different seed must differ");
    }

    #[test]
    fn every_fault_kind_is_reachable() {
        // 48 draws over 6 kinds: overwhelmingly likely to hit them all;
        // the seed is fixed, so this is deterministic in practice.
        let r = run_campaign(0xF00D, 48);
        assert_eq!(r.uncontained, 0, "escapes: {:?}", r.escapes);
        assert!(r.quarantines > 0 && r.restarts > 0);
    }

    #[test]
    fn crash_campaign_preserves_durability_and_replays_identically() {
        let a = run_crash_campaign(0xC4A5, 12);
        assert_eq!(a.violations, 0, "durability violations: {:?}", a.notes);
        assert_eq!(a.recovered, a.injected);
        assert!(a.quarantines > 0 && a.restarts > 0);
        let b = run_crash_campaign(0xC4A5, 12);
        assert_eq!(a.digest, b.digest, "same seed must replay bit-identically");
        let c = run_crash_campaign(0xC4A5 + 1, 12);
        assert_ne!(a.digest, c.digest, "different seed must differ");
    }

    #[test]
    fn crash_campaign_exercises_wal_and_ramfs_recovery() {
        // Enough injections that both recovery paths (sqldb WAL replay
        // on reopen and the RAMFS journal replay in the restart hook)
        // are observed at least once under a fixed seed.
        let r = run_crash_campaign(0x0DDB, 16);
        assert_eq!(r.violations, 0, "durability violations: {:?}", r.notes);
        assert!(r.wal_replays > 0, "no WAL replay observed");
        assert!(
            r.ramfs_journal_replays > 0,
            "no RAMFS journal replay observed"
        );
    }
}
