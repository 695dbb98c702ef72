//! Property: the monitor's counters and its trace ring are views of one
//! event stream. Seeded random op sequences — resolved and denied
//! faults, grant-cache hits, batched calls, window operations (failing
//! ones too), quarantines and restarts under containment — run on 1 and
//! 4 cores in Full, NoAcl and an IPC mode. When the ring dropped nothing,
//! folding its records from zero through `SysStats::apply` rebuilds
//! exactly the counters' change since tracing began; and tracing, with a
//! large ring or an 8-record one, changes no counter and no clock.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, IpcCostModel, IsolationMode,
    SysStats, System, SystemConfig, TraceEvent, Value, WindowId, WindowOpKind,
};
use cubicle_mpk::insn::{CodeImage, Insn};
use cubicle_mpk::rng::Rng64;
use cubicle_mpk::VAddr;

struct Dummy;
impl_component!(Dummy);

/// An address far above anything the monitor ever maps.
const WILD: VAddr = VAddr::new(0x0FFF_0000);

/// Steps per seeded run.
const OPS: usize = 160;

const SEEDS: [u64; 3] = [0xE7E4_7001, 0xE7E4_7002, 0xE7E4_7003];

fn configs() -> Vec<SystemConfig> {
    let ipc = IsolationMode::Ipc(IpcCostModel {
        kernel: "seL4",
        fixed: 900,
        per_byte: 2,
    });
    let mut out = Vec::new();
    for mode in [IsolationMode::Full, IsolationMode::NoAcl, ipc] {
        for cores in [1, 4] {
            out.push(SystemConfig {
                fault_containment: true,
                cores,
                ..mode.into()
            });
        }
    }
    out
}

/// APP drives the calls, SVC serves them, and a page of BYSTANDER is
/// what SVC may never touch.
struct World {
    sys: System,
    cores: usize,
    app: CubicleId,
    svc: CubicleId,
    foreign: VAddr,
    /// APP's buffer shared with SVC, while APP lives.
    shared: Option<VAddr>,
    /// APP's scratch window for random window operations.
    scratch: Option<WindowId>,
    rejected_loads: u32,
}

fn boot(config: SystemConfig) -> World {
    let b = Builder::new();
    let mut sys = System::new(config);
    let app = sys
        .load(
            ComponentImage::new("APP", CodeImage::plain(256)).heap_pages(4),
            Box::new(Dummy),
        )
        .unwrap()
        .cid;
    let svc = sys
        .load(
            ComponentImage::new("SVC", CodeImage::plain(256))
                .export(
                    b.export("long svc_read(const void *buf, size_t n)")
                        .unwrap(),
                    |sys, _this, args| {
                        let (addr, len) = args[0].as_buf();
                        let v = sys.read_vec(addr, len)?;
                        Ok(Value::I64(i64::from(v[0])))
                    },
                )
                .export(b.export("long svc_wild(void)").unwrap(), |sys, _this, _| {
                    sys.read_vec(WILD, 8)?;
                    Ok(Value::I64(0))
                }),
            Box::new(Dummy),
        )
        .unwrap()
        .cid;
    let bystander = sys
        .load(
            ComponentImage::new("BYSTANDER", CodeImage::plain(64)).heap_pages(1),
            Box::new(Dummy),
        )
        .unwrap()
        .cid;
    let foreign = sys
        .run_in_cubicle(bystander, |sys| sys.heap_alloc(64, 8))
        .unwrap();
    World {
        sys,
        cores: config.cores,
        app,
        svc,
        foreign,
        shared: None,
        scratch: None,
        rejected_loads: 0,
    }
}

impl World {
    /// APP's buffer shared with SVC, allocated on first use.
    fn shared(&mut self) -> Option<VAddr> {
        if self.shared.is_none() {
            let svc = self.svc;
            self.shared = self
                .sys
                .run_in_cubicle(self.app, |sys| {
                    let buf = sys.heap_alloc(4096, 4096)?;
                    sys.share(&[(buf, 4096)], &[svc])?;
                    Ok::<_, CubicleError>(buf)
                })
                .ok();
        }
        self.shared
    }

    /// SVC reads `buf` for APP, `n` times in one batch (a plain call
    /// when `n` is 1). Outcomes vary with the mode and the quarantine
    /// state; only the views of them are under test.
    fn read_via_svc(&mut self, buf: VAddr, n: usize) {
        let entry = self.sys.entry("svc_read").unwrap();
        let args = [Value::buf_in(buf, 8)];
        let batch = vec![&args[..]; n];
        let _ = self.sys.run_in_cubicle(self.app, |sys| {
            if n == 1 {
                sys.cross_call(entry, &args).map(drop)
            } else {
                sys.cross_call_batch(entry, &batch).map(drop)
            }
        });
    }

    fn window_op(&mut self, rng: &mut Rng64) {
        let (svc, foreign) = (self.svc, self.foreign);
        let Some(wid) = self.scratch else {
            self.scratch = Some(self.sys.run_in_cubicle(self.app, |sys| sys.window_init()));
            return;
        };
        let pick = rng.range_usize(0, 8);
        let _ = self.sys.run_in_cubicle(self.app, |sys| match pick {
            0 => {
                let p = sys.heap_alloc(64, 8)?;
                sys.window_add(wid, p, 64)
            }
            1 => sys.window_add(wid, foreign, 64), // not APP's: NotOwner
            2 => sys.window_remove(wid, WILD),     // no range there
            3 => sys.window_open(wid, svc),
            4 => sys.window_close(wid, svc),
            5 => sys.window_close_all(wid),
            6 => sys.window_destroy(WindowId(9_999)), // no such window
            _ => sys.window_destroy(wid),
        });
        if pick == 7 {
            self.scratch = None;
        }
    }

    fn step(&mut self, rng: &mut Rng64) {
        if self.cores > 1 {
            self.sys.switch_to_core(rng.range_usize(0, self.cores));
        }
        let app_alive = !self.sys.cubicle(self.app).is_quarantined();
        match rng.range_usize(0, 10) {
            // APP writes its shared buffer (taking the page back) and SVC
            // reads it: a window grant, then grant-cache hits.
            0..=2 if app_alive => {
                if let Some(buf) = self.shared() {
                    let _ = self
                        .sys
                        .run_in_cubicle(self.app, |sys| sys.write(buf, &[7]));
                    let n = rng.range_usize(1, 4);
                    self.read_via_svc(buf, n);
                }
            }
            // SVC touches the bystander's page: denied, SVC blamed.
            3 if app_alive => self.read_via_svc(self.foreign, 1),
            // APP passes a page it never shared: denied, APP blamed as
            // the confused deputy, its frame unwound.
            4 if app_alive => {
                if let Ok(p) = self
                    .sys
                    .run_in_cubicle(self.app, |sys| sys.heap_alloc(4096, 4096))
                {
                    self.read_via_svc(p, 1);
                }
            }
            // SVC makes a wild access: a raw fault, SVC blamed.
            5 if app_alive => {
                let _ = self
                    .sys
                    .run_in_cubicle(self.app, |sys| sys.call("svc_wild", &[]));
            }
            6 if app_alive => self.window_op(rng),
            7 => {
                let _ = self.sys.quarantine(self.svc, "seeded");
            }
            8 if self.rejected_loads < 2 => {
                self.rejected_loads += 1;
                let evil = ComponentImage::new(
                    "EVIL",
                    CodeImage::from_insns(&[Insn::Plain { len: 8 }, Insn::Wrpkru]),
                );
                assert!(self.sys.load(evil, Box::new(Dummy)).is_err());
            }
            _ => {
                for cid in [self.app, self.svc] {
                    if self.sys.cubicle(cid).is_quarantined() {
                        let _ = self.sys.restart(cid);
                    }
                }
            }
        }
        if self.sys.cubicle(self.app).is_quarantined() {
            // Quarantine reclaimed APP's memory and windows.
            self.shared = None;
            self.scratch = None;
        }
    }
}

/// Runs `OPS` seeded steps after boot, with a `ring`-record trace ring
/// when given; returns the system and the counters when tracing began.
fn run(config: SystemConfig, seed: u64, ring: Option<usize>) -> (System, SysStats) {
    let mut world = boot(config);
    let before = world.sys.stats().clone();
    if let Some(capacity) = ring {
        world.sys.enable_tracing(capacity);
    }
    let mut rng = Rng64::new(seed);
    for _ in 0..OPS {
        world.step(&mut rng);
    }
    (world.sys, before)
}

fn fold(sys: &System) -> SysStats {
    let mut folded = SysStats::default();
    for r in sys.trace().expect("tracing enabled").records() {
        folded.apply(&r.event);
    }
    folded
}

#[test]
fn the_ring_folds_to_the_counters() {
    for config in configs() {
        let (mut deltas, mut failed_window_ops) = (Vec::new(), 0);
        for seed in SEEDS {
            let (sys, before) = run(config, seed, Some(1 << 16));
            let trace = sys.trace().unwrap();
            assert_eq!(trace.dropped(), 0, "{config:?}: the ring must hold the run");
            let delta = sys.stats().since(&before);
            assert_eq!(fold(&sys), delta, "{config:?} seed {seed:#x}");
            failed_window_ops += trace
                .records()
                .filter(|r| matches!(r.event, TraceEvent::WindowOp { ok: false, .. }))
                .count();
            deltas.push(delta);
        }
        // The workload reached what the views must agree on.
        let total = |f: fn(&SysStats) -> u64| deltas.iter().map(f).sum::<u64>();
        assert!(failed_window_ops > 0, "{config:?}");
        assert!(total(|s| s.batch_dispatches) > 0, "{config:?}");
        assert!(total(|s| s.quarantines) > 0, "{config:?}");
        assert!(total(|s| s.restarts) > 0, "{config:?}");
        assert!(total(|s| s.contained_faults) > 0, "{config:?}");
        assert!(total(|s| s.loads_rejected) > 0, "{config:?}");
        match config.mode {
            IsolationMode::Full => {
                assert!(total(|s| s.faults_denied) > 0, "{config:?}");
                assert!(total(|s| s.grant_cache_hits) > 0, "{config:?}");
                assert!(total(|s| s.grant_cache_invalidations) > 0, "{config:?}");
                let unwound = total(|s| s.unwound_frames);
                assert!(unwound > total(|s| s.contained_faults), "{config:?}");
            }
            IsolationMode::NoAcl => assert!(total(|s| s.faults_resolved) > 0, "{config:?}"),
            _ => assert!(total(|s| s.ipc_msgs) > 0, "{config:?}"),
        }
    }
}

#[test]
fn tracing_changes_no_counter_and_no_clock() {
    for config in configs() {
        for seed in SEEDS {
            let observe = |ring| {
                let (sys, _) = run(config, seed, ring);
                let clocks: Vec<u64> = (0..sys.machine().num_cores())
                    .map(|i| sys.machine().core_cycles(i))
                    .collect();
                (sys.stats().clone(), clocks, sys.machine_stats())
            };
            let off = observe(None);
            assert_eq!(observe(Some(1 << 16)), off, "{config:?} seed {seed:#x}");
            assert_eq!(observe(Some(8)), off, "{config:?} seed {seed:#x}");
        }
    }
}

#[test]
fn a_failed_window_op_is_counted_in_every_view() {
    let mut world = boot(IsolationMode::Full.into());
    let before = world.sys.stats().clone();
    world.sys.enable_tracing(64);
    let foreign = world.foreign;
    world.sys.run_in_cubicle(world.app, |sys| {
        let wid = sys.window_init();
        assert!(sys.window_add(wid, foreign, 64).is_err(), "not APP's page");
        assert!(sys.window_remove(wid, WILD).is_err(), "no range at WILD");
    });
    let delta = world.sys.stats().since(&before);
    assert_eq!(delta.window_ops, 3, "every charged op counts");
    let ops: Vec<(WindowOpKind, bool)> = world
        .sys
        .trace()
        .unwrap()
        .records()
        .filter_map(|r| match r.event {
            TraceEvent::WindowOp { op, ok, .. } => Some((op, ok)),
            _ => None,
        })
        .collect();
    assert_eq!(
        ops,
        [
            (WindowOpKind::Init, true),
            (WindowOpKind::Add, false),
            (WindowOpKind::Remove, false),
        ]
    );
    assert_eq!(fold(&world.sys), delta);
    let chrome = world.sys.export_chrome_trace();
    assert!(chrome.contains("\"window_add_failed\""));
    assert!(chrome.contains("\"window_remove_failed\""));
}
