//! Deployment builders for the SQLite experiments (Figures 6, 8, 9, 10).

use cubicle_core::{
    impl_component, ComponentImage, CubicleId, IsolationMode, Result, System, SystemConfig,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_ramfs::Ramfs;
use cubicle_sqldb::speedtest::{run_speedtest, SpeedtestConfig, TestResult};
use cubicle_sqldb::storage::CubicleEnv;
use cubicle_sqldb::{Database, JournalMode};
use cubicle_ukbase::alloc::{Alloc, AllocProxy};
use cubicle_ukbase::base::Libc;
use cubicle_ukbase::plat::Plat;
use cubicle_ukbase::time::Time;
use cubicle_vfs::{Vfs, VfsPort, VfsProxy};

/// Platform overhead per OS-boundary call of the user-level library OS,
/// relative to native Linux (calibrated once so that baseline Unikraft
/// lands at the paper's 2.8× of Linux on speedtest1; see EXPERIMENTS.md).
pub const UNIKRAFT_BOUNDARY_TAX: u64 = 16_200;

/// The paper's Figure 9 partitionings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Partitioning {
    /// 3 components: `SQLITE`, `CORE` (PLAT + VFSCORE + ALLOC + RAMFS),
    /// `TIMER` (Figure 9a).
    Merged,
    /// 4 components: `RAMFS` split out of `CORE` (Figure 9b).
    Split,
}

struct SqliteApp;
impl_component!(SqliteApp);

/// A booted SQLite deployment.
pub struct SqliteDeployment {
    /// The kernel.
    pub sys: System,
    /// The application cubicle.
    pub app: CubicleId,
    /// `VFSCORE` proxy.
    pub vfs: VfsProxy,
    /// The file-system backend's cubicle (== CORE when merged).
    pub ramfs_cid: CubicleId,
    /// CORE's cubicle.
    pub core_cid: CubicleId,
}

/// Builds the SQLite deployment.
///
/// `boundary_tax` models the user-level library OS platform overhead
/// (0 for the native-Linux and Genode baselines,
/// [`UNIKRAFT_BOUNDARY_TAX`] for every Unikraft-derived configuration).
///
/// # Errors
///
/// Loader errors.
pub fn build_sqlite(
    mode: IsolationMode,
    partitioning: Partitioning,
    boundary_tax: u64,
) -> Result<SqliteDeployment> {
    let mut sys = System::new(SystemConfig {
        boundary_tax,
        ..mode.into()
    });

    // On the Genode/microkernel baselines the C library's VFS plugin
    // runs *inside the application component* (that is how Genode's
    // libc works, and why the paper's Genode-3 is only 1.4× native
    // Linux): only a *separated* file-system server costs session RPCs.
    // On CubicleOS/Unikraft, VFSCORE is its own module in both
    // configurations.
    let ipc = matches!(mode, IsolationMode::Ipc(_));

    let app = sys.load(
        ComponentImage::new("SQLITE", CodeImage::plain(128 * 1024)).heap_pages(256),
        Box::new(SqliteApp),
    )?;

    // CORE: VFSCORE + PLAT + ALLOC (+ BOOT), per Figure 9's description
    // of the Genode-equivalent module.
    let vfs_loaded = if ipc {
        sys.load_into(cubicle_vfs::image(), Box::new(Vfs::default()), app.cid)?
    } else {
        sys.load(cubicle_vfs::image(), Box::new(Vfs::default()))?
    };
    let core_cid = vfs_loaded.cid;
    let alloc_loaded = sys.load_into(
        cubicle_ukbase::alloc::image(),
        Box::new(Alloc::default()),
        core_cid,
    )?;
    sys.load_into(
        cubicle_ukbase::plat::image(),
        Box::new(Plat::default()),
        core_cid,
    )?;
    // TIMER: its own component in both configurations.
    sys.load(cubicle_ukbase::time::image(), Box::new(Time::default()))?;
    // LIBC: shared cubicle.
    sys.load(
        ComponentImage::new("LIBC", CodeImage::plain(48 * 1024))
            .shared()
            .heap_pages(8),
        Box::new(Libc),
    )?;

    // RAMFS: merged into CORE or isolated, per the experiment.
    let ramfs_loaded = match partitioning {
        Partitioning::Merged => {
            sys.load_into(cubicle_ramfs::image(), Box::new(Ramfs::default()), core_cid)?
        }
        Partitioning::Split => sys.load(cubicle_ramfs::image(), Box::new(Ramfs::default()))?,
    };
    let alloc_proxy = AllocProxy::resolve(&alloc_loaded)?;
    sys.with_component_mut::<Ramfs, _>(ramfs_loaded.slot, |fs, _| fs.set_alloc(alloc_proxy))
        .expect("ramfs slot");
    cubicle_ramfs::mount_at(&mut sys, vfs_loaded.slot, &ramfs_loaded, "/")?;

    sys.mark_boot_complete();
    Ok(SqliteDeployment {
        sys,
        app: app.cid,
        vfs: VfsProxy::resolve(&vfs_loaded)?,
        ramfs_cid: ramfs_loaded.cid,
        core_cid,
    })
}

impl SqliteDeployment {
    /// Opens a database on the deployment's file system.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn open_db(&mut self, cache_pages: usize) -> Result<Database> {
        let (app, vfs, ramfs) = (self.app, self.vfs, self.ramfs_cid);
        self.sys.run_in_cubicle(app, move |sys| {
            let port = VfsPort::new(sys, vfs, &[ramfs])?;
            // speedtest1 runs in rollback mode like the paper's SQLite 3.30:
            // the calibrated constants fit that traffic (EXPERIMENTS.md,
            // journal mode). WAL commits are measured by sql_commit_*.
            Database::open_with_mode(
                sys,
                Box::new(CubicleEnv::new(port)),
                "/speedtest.db",
                cache_pages,
                JournalMode::Rollback,
            )
            .map_err(|e| cubicle_core::CubicleError::Component(e.to_string()))
        })
    }

    /// Runs the full speedtest1 suite and returns per-test results.
    ///
    /// # Errors
    ///
    /// SQL or kernel errors.
    pub fn run_speedtest(
        &mut self,
        db: &mut Database,
        cfg: &SpeedtestConfig,
    ) -> Result<Vec<TestResult>> {
        let app = self.app;
        self.sys.run_in_cubicle(app, |sys| {
            run_speedtest(sys, db, cfg)
                .map_err(|e| cubicle_core::CubicleError::Component(e.to_string()))
        })
    }
}

/// Convenience: build, run, and report total cycles for one configuration.
///
/// # Errors
///
/// Loader, SQL or kernel errors.
pub fn speedtest_total_cycles(
    mode: IsolationMode,
    partitioning: Partitioning,
    boundary_tax: u64,
    cfg: &SpeedtestConfig,
) -> Result<(u64, Vec<TestResult>)> {
    let mut dep = build_sqlite(mode, partitioning, boundary_tax)?;
    let mut db = dep.open_db(cubicle_sqldb::pager::DEFAULT_CACHE_PAGES)?;
    let results = dep.run_speedtest(&mut db, cfg)?;
    let kernel = match mode {
        IsolationMode::Ipc(k) => k.kernel.to_string(),
        m => format!("{m:?}"),
    };
    crate::report::audit_gate(&dep.sys, &format!("speedtest {kernel} {partitioning:?}"));
    let total = results.iter().map(|r| r.cycles).sum();
    Ok((total, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_sqldb::SqlValue;

    #[test]
    fn merged_and_split_deployments_boot() {
        for p in [Partitioning::Merged, Partitioning::Split] {
            let mut dep = build_sqlite(IsolationMode::Full, p, 0).unwrap();
            if p == Partitioning::Merged {
                assert_eq!(dep.ramfs_cid, dep.core_cid);
            } else {
                assert_ne!(dep.ramfs_cid, dep.core_cid);
            }
            let mut db = dep.open_db(64).unwrap();
            let app = dep.app;
            dep.sys.run_in_cubicle(app, |sys| {
                db.execute(sys, "CREATE TABLE t(v INTEGER)").unwrap();
                db.execute(sys, "INSERT INTO t VALUES (7)").unwrap();
                let rows = db.query(sys, "SELECT v FROM t").unwrap();
                assert_eq!(rows[0][0], SqlValue::Integer(7));
            });
        }
    }

    #[test]
    fn splitting_ramfs_costs_little_on_cubicleos() {
        // Figure 10b's headline: the extra compartment costs ~1.4× on
        // CubicleOS. At tiny scale we just require a modest factor.
        let cfg = SpeedtestConfig {
            scale: 2,
            ..Default::default()
        };
        let (merged, _) = speedtest_total_cycles(
            IsolationMode::Full,
            Partitioning::Merged,
            UNIKRAFT_BOUNDARY_TAX,
            &cfg,
        )
        .unwrap();
        let (split, _) = speedtest_total_cycles(
            IsolationMode::Full,
            Partitioning::Split,
            UNIKRAFT_BOUNDARY_TAX,
            &cfg,
        )
        .unwrap();
        let ratio = split as f64 / merged as f64;
        assert!(ratio > 1.0, "split must cost something: {ratio}");
        assert!(ratio < 3.0, "CubicleOS split must stay cheap: {ratio}");
    }

    #[test]
    fn splitting_ramfs_is_expensive_on_microkernels() {
        // A tiny page cache forces the OS-call density that drives
        // Figure 10's ratios without needing the full scale-100 run.
        let cfg = SpeedtestConfig {
            scale: 4,
            ..Default::default()
        };
        let run = |mode: IsolationMode, p: Partitioning, tax: u64| -> u64 {
            let mut dep = build_sqlite(mode, p, tax).unwrap();
            let mut db = dep.open_db(16).unwrap(); // 64 KiB cache
            let results = dep.run_speedtest(&mut db, &cfg).unwrap();
            results.iter().map(|r| r.cycles).sum()
        };
        let sel4 = cubicle_ipc::mode_for(cubicle_ipc::SEL4);
        let ipc_ratio =
            run(sel4, Partitioning::Split, 0) as f64 / run(sel4, Partitioning::Merged, 0) as f64;
        let cub_ratio = run(
            IsolationMode::Full,
            Partitioning::Split,
            UNIKRAFT_BOUNDARY_TAX,
        ) as f64
            / run(
                IsolationMode::Full,
                Partitioning::Merged,
                UNIKRAFT_BOUNDARY_TAX,
            ) as f64;
        assert!(
            ipc_ratio > 1.5 && ipc_ratio > 1.4 * cub_ratio,
            "message-passing split ({ipc_ratio:.2}x) must dwarf CubicleOS ({cub_ratio:.2}x)"
        );
        assert!(
            cub_ratio < 2.0,
            "CubicleOS split stays cheap ({cub_ratio:.2}x)"
        );
    }
}
