//! Kernel-level integration tests: isolation, trap-and-map, windows, CFI.

use cubicle_core::{
    component_mut, impl_component, Builder, ComponentImage, CubicleError, CubicleId, IsolationMode,
    System, SystemConfig, Value,
};
use cubicle_mpk::insn::{CodeImage, Insn};
use cubicle_mpk::CostModel;

struct Dummy;
impl_component!(Dummy);

struct Counter {
    calls: u64,
}
impl_component!(Counter);

fn load_plain(sys: &mut System, name: &str) -> cubicle_core::LoadedComponent {
    sys.load(
        ComponentImage::new(name, CodeImage::plain(256)),
        Box::new(Dummy),
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Spatial isolation: cubicles cannot touch each other's memory
// ---------------------------------------------------------------------------

#[test]
fn cross_cubicle_access_without_window_is_denied() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");

    let secret = sys.run_in_cubicle(a.cid, |sys| {
        let p = sys.heap_alloc(32, 8).unwrap();
        sys.write(p, b"top secret tls key").unwrap();
        p
    });

    let denial = sys.run_in_cubicle(b.cid, |sys| sys.read_vec(secret, 8));
    match denial {
        Err(CubicleError::WindowDenied {
            accessor, owner, ..
        }) => {
            assert_eq!(accessor, b.cid);
            assert_eq!(owner, a.cid);
        }
        other => panic!("expected WindowDenied, got {other:?}"),
    }
    assert_eq!(sys.stats().faults_denied, 1);
}

#[test]
fn same_cubicle_access_is_allowed() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    sys.run_in_cubicle(a.cid, |sys| {
        let p = sys.heap_alloc(64, 8).unwrap();
        sys.write(p, b"mine").unwrap();
        assert_eq!(sys.read_vec(p, 4).unwrap(), b"mine");
    });
}

#[test]
fn unikraft_mode_has_no_isolation() {
    // The baseline: single unprotected address space.
    let mut sys = System::new(IsolationMode::Unikraft);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let p = sys.run_in_cubicle(a.cid, |sys| {
        let p = sys.heap_alloc(16, 8).unwrap();
        sys.write(p, b"open").unwrap();
        p
    });
    let read = sys.run_in_cubicle(b.cid, |sys| sys.read_vec(p, 4).unwrap());
    assert_eq!(read, b"open");
    assert_eq!(sys.machine_stats().faults, 0);
}

// ---------------------------------------------------------------------------
// Windows: temporal isolation with zero-copy grants
// ---------------------------------------------------------------------------

#[test]
fn open_window_grants_and_retags_zero_copy() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let b_cid = b.cid;

    let buf = sys.run_in_cubicle(a.cid, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf, b"shared payload").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 4096).unwrap();
        sys.window_open(wid, b_cid).unwrap();
        buf
    });

    let bytes_written_before = sys.machine_stats().bytes_written;
    let data = sys.run_in_cubicle(b.cid, |sys| sys.read_vec(buf, 14).unwrap());
    assert_eq!(data, b"shared payload");
    assert_eq!(sys.stats().faults_resolved, 1, "one trap-and-map retag");
    assert_eq!(sys.machine_stats().retags, 1);
    assert_eq!(
        sys.machine_stats().bytes_written,
        bytes_written_before,
        "grant must not copy any data"
    );
}

#[test]
fn window_acl_is_per_cubicle() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let c = load_plain(&mut sys, "C");
    let b_cid = b.cid;

    let buf = sys.run_in_cubicle(a.cid, |sys| {
        let buf = sys.heap_alloc(128, 8).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 128).unwrap();
        sys.window_open(wid, b_cid).unwrap();
        buf
    });

    assert!(sys
        .run_in_cubicle(b.cid, |sys| sys.read_vec(buf, 8))
        .is_ok());
    let denied = sys.run_in_cubicle(c.cid, |sys| sys.read_vec(buf, 8));
    assert!(matches!(denied, Err(CubicleError::WindowDenied { .. })));
}

#[test]
fn window_acls_admit_only_loaded_cubicles() {
    // 64 + B would shift out of the u64 mask (aliasing B's bit where the
    // shift wraps); an unloaded ID below 64 would leave a bit for the
    // next load to inherit. Every ACL edit refuses both, unedited.
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A").cid;
    let b = load_plain(&mut sys, "B").cid;
    let (alias, unloaded) = (CubicleId(64 + b.0), CubicleId(b.0 + 1));
    let buf = sys.run_in_cubicle(a, |sys| {
        let buf = sys.heap_alloc(64, 8).unwrap();
        sys.write(buf, b"owner's bytes").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 64).unwrap();
        for peer in [alias, unloaded, CubicleId(u16::MAX)] {
            let refused = Err(CubicleError::NoSuchCubicle(peer));
            assert_eq!(sys.window_open(wid, peer), refused);
            assert_eq!(sys.window_share(wid, peer), refused);
            assert_eq!(sys.reshare(wid, peer), refused);
            assert_eq!(sys.window_close(wid, peer), refused);
            assert_eq!(sys.share(&[(buf, 64)], &[peer]).map(|_| ()), refused);
        }
        assert_eq!(sys.cubicle(a).window(wid).unwrap().mask(), 0);
        buf
    });
    assert_eq!(
        sys.cubicle(a).window_count(),
        1,
        "the failed share's window is gone"
    );
    for reader in [b, load_plain(&mut sys, "C").cid] {
        let denied = sys.run_in_cubicle(reader, |sys| sys.read_vec(buf, 8));
        assert!(
            matches!(denied, Err(CubicleError::WindowDenied { .. })),
            "{}: {denied:?}",
            sys.cubicle_name(reader)
        );
    }
    sys.audit().assert_clean("refused ACL edits");
}

#[test]
fn closed_window_is_lazy_causal_consistency() {
    // Closing does not eagerly revoke: B may still touch the page it was
    // granted, until A (the owner) reclaims it by accessing it.
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let (a_cid, b_cid) = (a.cid, b.cid);

    let (buf, wid) = sys.run_in_cubicle(a_cid, |sys| {
        let buf = sys.heap_alloc(64, 8).unwrap();
        sys.write(buf, b"window data").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 64).unwrap();
        sys.window_open(wid, b_cid).unwrap();
        (buf, wid)
    });

    // B faults in the page.
    sys.run_in_cubicle(b_cid, |sys| sys.read_vec(buf, 4).unwrap());
    // A closes the window…
    sys.run_in_cubicle(a_cid, |sys| sys.window_close(wid, b_cid).unwrap());
    // …but the tag still belongs to B: access is still possible (causal
    // tag consistency, paper §5.6).
    assert!(sys
        .run_in_cubicle(b_cid, |sys| sys.read_vec(buf, 4))
        .is_ok());
    // Once the owner touches the page it is retagged back…
    sys.run_in_cubicle(a_cid, |sys| sys.read_vec(buf, 4).unwrap());
    // …and B is locked out again.
    let denied = sys.run_in_cubicle(b_cid, |sys| sys.read_vec(buf, 4));
    assert!(matches!(denied, Err(CubicleError::WindowDenied { .. })));
}

#[test]
fn window_add_rejects_non_owned_memory() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");

    let a_buf = sys.run_in_cubicle(a.cid, |sys| sys.heap_alloc(32, 8).unwrap());
    // B cannot publish A's memory in its own windows.
    let err = sys.run_in_cubicle(b.cid, |sys| {
        let wid = sys.window_init();
        sys.window_add(wid, a_buf, 32)
    });
    assert!(matches!(err, Err(CubicleError::NotOwner { .. })));
}

#[test]
fn window_management_is_owner_only() {
    // A window created by A is invisible to B (windows are per-cubicle).
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let wid = sys.run_in_cubicle(a.cid, |sys| sys.window_init());
    let err = sys.run_in_cubicle(b.cid, |sys| sys.window_open(wid, CubicleId::MONITOR));
    assert!(matches!(err, Err(CubicleError::NoSuchWindow(_))));
}

#[test]
fn sub_page_window_grants_whole_page() {
    // Windows work at page granularity (paper §5.3 note): publishing 10
    // bytes exposes the rest of the page — developers must align.
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let b_cid = b.cid;
    let buf = sys.run_in_cubicle(a.cid, |sys| {
        let buf = sys.heap_alloc(4096, 4096).unwrap();
        sys.write(buf + 100, b"adjacent").unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 10).unwrap();
        sys.window_open(wid, b_cid).unwrap();
        buf
    });
    // The faulting access inside the 10-byte range retags the whole page…
    sys.run_in_cubicle(b_cid, |sys| sys.read_vec(buf, 4).unwrap());
    // …and the adjacent data on the same page becomes readable too.
    let leak = sys.run_in_cubicle(b_cid, |sys| sys.read_vec(buf + 100, 8).unwrap());
    assert_eq!(leak, b"adjacent");
}

#[test]
fn window_remove_disables_future_grants() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = load_plain(&mut sys, "B");
    let b_cid = b.cid;
    let buf = sys.run_in_cubicle(a.cid, |sys| {
        let buf = sys.heap_alloc(64, 8).unwrap();
        let wid = sys.window_init();
        sys.window_add(wid, buf, 64).unwrap();
        sys.window_open(wid, b_cid).unwrap();
        sys.window_remove(wid, buf).unwrap();
        buf
    });
    let denied = sys.run_in_cubicle(b_cid, |sys| sys.read_vec(buf, 4));
    assert!(matches!(denied, Err(CubicleError::WindowDenied { .. })));
}

// ---------------------------------------------------------------------------
// Cross-cubicle calls & CFI
// ---------------------------------------------------------------------------

fn counter_image(name: &str, entry: &str) -> ComponentImage {
    let builder = Builder::new();
    ComponentImage::new(name, CodeImage::plain(256)).export(
        builder.export(&format!("void {entry}(void)")).unwrap(),
        |_sys, this, _args| {
            component_mut::<Counter>(this).calls += 1;
            Ok(Value::Unit)
        },
    )
}

#[test]
fn cross_call_dispatches_and_counts_edges() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let b = sys
        .load(
            counter_image("B", "b_touch"),
            Box::new(Counter { calls: 0 }),
        )
        .unwrap();

    sys.run_in_cubicle(a.cid, |sys| {
        for _ in 0..5 {
            sys.call("b_touch", &[]).unwrap();
        }
    });
    assert_eq!(sys.stats().edge(a.cid, b.cid), 5);
    assert_eq!(sys.stats().cross_calls, 5);
}

#[test]
fn unknown_entry_is_cfi_violation() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    let err = sys.run_in_cubicle(a.cid, |sys| sys.call("not_an_entry", &[]));
    assert!(matches!(err, Err(CubicleError::NoSuchEntry(_))));
}

#[test]
fn reentrant_cross_call_rejected() {
    // A → B → A-style nesting into the *same component* is rejected
    // (paper §5.6: nested calls are not supported and never needed).
    struct SelfCaller;
    impl_component!(SelfCaller);
    let builder = Builder::new();
    let img = ComponentImage::new("LOOP", CodeImage::plain(128)).export(
        builder.export("void loop_entry(void)").unwrap(),
        |sys, _this, _args| sys.call("loop_entry", &[]),
    );
    let mut sys = System::new(IsolationMode::Full);
    sys.load(img, Box::new(SelfCaller)).unwrap();
    let err = sys.call("loop_entry", &[]);
    assert!(matches!(err, Err(CubicleError::ReentrantCall(_))));
}

#[test]
fn callee_runs_with_its_own_privileges() {
    // While B executes, it cannot read A's memory even though A called it.
    let builder = Builder::new();
    struct Spy;
    impl_component!(Spy);
    let img = ComponentImage::new("SPY", CodeImage::plain(128)).export(
        builder.export("long spy_read(const void *p)").unwrap(),
        |sys, _this, args| {
            let target = args[0].as_ptr();
            match sys.read_vec(target, 8) {
                Ok(_) => Ok(Value::I64(1)), // leaked!
                Err(CubicleError::WindowDenied { .. }) => Ok(Value::I64(0)),
                Err(e) => Err(e),
            }
        },
    );
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    sys.load(img, Box::new(Spy)).unwrap();

    let leaked = sys.run_in_cubicle(a.cid, |sys| {
        let secret = sys.heap_alloc(32, 8).unwrap();
        sys.write(secret, b"private!").unwrap();
        // No window opened: the callee must be denied.
        sys.call("spy_read", &[Value::Ptr(secret)])
            .unwrap()
            .as_i64()
    });
    assert_eq!(
        leaked, 0,
        "callee must not read caller memory without a window"
    );
}

#[test]
fn mpk_modes_switch_pkru_on_calls() {
    let mut sys = System::new(IsolationMode::Full);
    load_plain(&mut sys, "A");
    sys.load(
        counter_image("B", "b_touch"),
        Box::new(Counter { calls: 0 }),
    )
    .unwrap();
    let w0 = sys.machine_stats().wrpkru;
    sys.call("b_touch", &[]).unwrap();
    assert_eq!(
        sys.machine_stats().wrpkru - w0,
        4,
        "2 wrpkru per transition, call + return"
    );

    let mut sys = System::new(IsolationMode::NoMpk);
    load_plain(&mut sys, "A");
    sys.load(
        counter_image("B", "b_touch"),
        Box::new(Counter { calls: 0 }),
    )
    .unwrap();
    let w0 = sys.machine_stats().wrpkru;
    sys.call("b_touch", &[]).unwrap();
    assert_eq!(sys.machine_stats().wrpkru, w0, "NoMpk never writes PKRU");
}

#[test]
fn ablation_mode_costs_are_ordered() {
    // Same workload, the four Fig. 6 configurations: cost must be
    // monotone Unikraft ≤ NoMpk ≤ NoAcl ≤ Full.
    fn run(mode: IsolationMode) -> u64 {
        let builder = Builder::new();
        let reader = ComponentImage::new("B", CodeImage::plain(128)).export(
            builder
                .export("long b_read(const void *buf, size_t n)")
                .unwrap(),
            |sys, _this, args| {
                let (addr, len) = args[0].as_buf();
                let v = sys.read_vec(addr, len)?;
                Ok(Value::I64(v[0] as i64))
            },
        );
        let mut sys = System::new(mode);
        let a = load_plain(&mut sys, "A");
        let b = sys.load(reader, Box::new(Counter { calls: 0 })).unwrap();
        let b_cid = b.cid;
        sys.run_in_cubicle(a.cid, |sys| {
            let buf = sys.heap_alloc(4096, 4096).unwrap();
            let t0 = sys.now();
            for i in 0..100u8 {
                // the owner touches its buffer (reclaiming the page)…
                sys.write(buf, &[i]).unwrap();
                // …then grants it and calls across, as the ports do
                let wid = sys.window_init();
                sys.window_add(wid, buf, 4096).unwrap();
                sys.window_open(wid, b_cid).unwrap();
                sys.call("b_read", &[Value::buf_in(buf, 64)]).unwrap();
                sys.window_destroy(wid).unwrap();
            }
            sys.now() - t0
        })
    }
    let unikraft = run(IsolationMode::Unikraft);
    let no_mpk = run(IsolationMode::NoMpk);
    let no_acl = run(IsolationMode::NoAcl);
    let full = run(IsolationMode::Full);
    assert!(unikraft < no_mpk, "{unikraft} < {no_mpk}");
    assert!(no_mpk < no_acl, "{no_mpk} < {no_acl}");
    assert!(no_acl < full, "{no_acl} < {full}");
}

// ---------------------------------------------------------------------------
// Loader integrity (paper §5.4)
// ---------------------------------------------------------------------------

#[test]
fn loader_rejects_wrpkru_in_code() {
    let mut sys = System::new(IsolationMode::Full);
    let img = ComponentImage::new(
        "EVIL",
        CodeImage::from_insns(&[Insn::Plain { len: 10 }, Insn::Wrpkru]),
    );
    let err = sys.load(img, Box::new(Dummy));
    assert!(matches!(err, Err(CubicleError::ForbiddenInstruction(_))));
}

#[test]
fn loader_rejects_syscall_in_code() {
    let mut sys = System::new(IsolationMode::Full);
    let img = ComponentImage::new("EVIL", CodeImage::from_insns(&[Insn::Syscall]));
    assert!(matches!(
        sys.load(img, Box::new(Dummy)),
        Err(CubicleError::ForbiddenInstruction(_))
    ));
}

#[test]
fn loader_rejects_hidden_unaligned_sequence() {
    let mut sys = System::new(IsolationMode::Full);
    let img = ComponentImage::new(
        "SNEAKY",
        CodeImage::from_insns(&[Insn::ImmCarrier {
            imm: [0x0F, 0x01, 0xEF, 0x90],
        }]),
    );
    assert!(matches!(
        sys.load(img, Box::new(Dummy)),
        Err(CubicleError::ForbiddenInstruction(_))
    ));
}

#[test]
fn loader_rejects_forged_trampolines() {
    let mallory = Builder::untrusted();
    let img = ComponentImage::new("FORGED", CodeImage::plain(64)).export(
        mallory.export("void fake(void)").unwrap(),
        |_sys, _this, _args| Ok(Value::Unit),
    );
    let mut sys = System::new(IsolationMode::Full);
    let err = sys.load(img, Box::new(Dummy));
    assert!(matches!(err, Err(CubicleError::UntrustedTrampoline { .. })));
}

#[test]
fn loader_rejects_duplicate_symbols() {
    let mut sys = System::new(IsolationMode::Full);
    sys.load(counter_image("B1", "touch"), Box::new(Counter { calls: 0 }))
        .unwrap();
    let err = sys.load(counter_image("B2", "touch"), Box::new(Counter { calls: 0 }));
    assert!(matches!(err, Err(CubicleError::DuplicateSymbol(_))));
}

#[test]
fn rejected_images_give_back_their_cubicle_and_key() {
    // More rejections than the pool has keys: a rejected image that kept
    // its key would leave the clean load below `OutOfKeys`.
    let mut sys = System::new(IsolationMode::Full);
    for _ in 0..20 {
        let img = ComponentImage::new(
            "EVIL",
            CodeImage::from_insns(&[Insn::Plain { len: 10 }, Insn::Wrpkru]),
        );
        let err = sys.load(img, Box::new(Dummy));
        assert!(matches!(err, Err(CubicleError::ForbiddenInstruction(_))));
    }
    let mallory = Builder::untrusted();
    for _ in 0..20 {
        let img = ComponentImage::new("FORGED", CodeImage::plain(64)).export(
            mallory.export("void fake(void)").unwrap(),
            |_sys, _this, _args| Ok(Value::Unit),
        );
        let err = sys.load(img, Box::new(Dummy));
        assert!(matches!(err, Err(CubicleError::UntrustedTrampoline { .. })));
    }
    let b1 = sys
        .load(counter_image("B1", "touch"), Box::new(Counter { calls: 0 }))
        .unwrap();
    for _ in 0..20 {
        let err = sys.load(counter_image("B2", "touch"), Box::new(Counter { calls: 0 }));
        assert!(matches!(err, Err(CubicleError::DuplicateSymbol(_))));
    }
    assert_eq!(sys.stats().loads_rejected, 20);
    let a = load_plain(&mut sys, "A");
    assert_eq!(
        a.cid.index(),
        b1.cid.index() + 1,
        "no empty cubicle left behind"
    );
}

#[test]
fn code_pages_are_execute_only() {
    // W^X: loaded code cannot be read even by its own cubicle.
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    // Code is the first region mapped for the cubicle; find one of its
    // pages via the page-owner map by scanning low addresses.
    let mut code_addr = None;
    for page in 16..64u64 {
        let addr = cubicle_mpk::VAddr::new(page * 4096);
        if sys.page_owner(addr) == Some(a.cid) {
            code_addr = Some(addr);
            break;
        }
    }
    let code_addr = code_addr.expect("component has code pages");
    let err = sys.run_in_cubicle(a.cid, |sys| sys.read_vec(code_addr, 4));
    assert!(
        err.is_err(),
        "code pages must not be readable (execute-only)"
    );
}

#[test]
fn the_15th_isolated_cubicle_parks_and_runs() {
    // Keys 1–14 bind and key 15 is the parked key: the 15th isolated
    // cubicle loads parked and binds on entry.
    let mut sys = System::new(IsolationMode::Full);
    for i in 0..14 {
        load_plain(&mut sys, &format!("C{i}"));
    }
    let c14 = load_plain(&mut sys, "C14").cid;
    assert_eq!(sys.cubicle(c14).key, cubicle_core::PARKED_KEY);
    let back = sys.run_in_cubicle(c14, |sys| {
        let p = sys.heap_alloc(16, 8).unwrap();
        sys.write(p, b"parked").unwrap();
        sys.read_vec(p, 6).unwrap()
    });
    assert_eq!(back, b"parked");
    assert_ne!(sys.cubicle(c14).key, cubicle_core::PARKED_KEY);
    assert_eq!(sys.key_evictions(), 1);
    sys.audit()
        .assert_clean("after the 15th cubicle bound a key");
}

#[test]
fn load_into_shares_protection_domain() {
    // Fig. 9a: CORE+RAMFS merged into one compartment — components in the
    // same cubicle access each other's memory freely.
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "CORE");
    let merged = sys
        .load_into(
            ComponentImage::new("RAMFS", CodeImage::plain(64)),
            Box::new(Dummy),
            a.cid,
        )
        .unwrap();
    assert_eq!(merged.cid, a.cid);
    let p = sys.run_in_cubicle(a.cid, |sys| {
        let p = sys.heap_alloc(16, 8).unwrap();
        sys.write(p, b"same domain").unwrap();
        p
    });
    // Any code in the merged cubicle reads it without a window.
    let ok = sys.run_in_cubicle(a.cid, |sys| sys.read_vec(p, 11).unwrap());
    assert_eq!(ok, b"same domain");
}

// ---------------------------------------------------------------------------
// Shared cubicles
// ---------------------------------------------------------------------------

#[test]
fn shared_cubicle_data_is_accessible_to_all() {
    let mut sys = System::new(IsolationMode::Full);
    let libc = sys
        .load(
            ComponentImage::new("LIBC", CodeImage::plain(64)).shared(),
            Box::new(Dummy),
        )
        .unwrap();
    let a = load_plain(&mut sys, "A");
    let shared_buf = sys.run_in_cubicle(libc.cid, |sys| {
        let p = sys.heap_alloc(32, 8).unwrap();
        sys.write(p, b"global table").unwrap();
        p
    });
    // An isolated cubicle reads shared static data without any fault.
    let f0 = sys.machine_stats().faults;
    let data = sys.run_in_cubicle(a.cid, |sys| sys.read_vec(shared_buf, 12).unwrap());
    assert_eq!(data, b"global table");
    assert_eq!(sys.machine_stats().faults, f0);
}

// ---------------------------------------------------------------------------
// Memory primitives
// ---------------------------------------------------------------------------

#[test]
fn stack_alloc_balances() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    sys.run_in_cubicle(a.cid, |sys| {
        let p1 = sys.stack_alloc(100).unwrap();
        let p2 = sys.stack_alloc(100).unwrap();
        assert_ne!(p1, p2);
        sys.write(p1, b"stackvar").unwrap();
        sys.stack_free(100);
        sys.stack_free(100);
        let p3 = sys.stack_alloc(100).unwrap();
        assert_eq!(p1, p3, "stack discipline reuses the frame");
        sys.stack_free(100);
    });
}

#[test]
fn stack_overflow_detected() {
    let mut sys = System::new(IsolationMode::Full);
    let a = sys
        .load(
            ComponentImage::new("A", CodeImage::plain(64)).stack_pages(1),
            Box::new(Dummy),
        )
        .unwrap();
    let err = sys.run_in_cubicle(a.cid, |sys| sys.stack_alloc(8192));
    assert!(matches!(err, Err(CubicleError::OutOfMemory(_))));
}

#[test]
fn grant_pages_transfers_ownership() {
    let mut sys = System::new(IsolationMode::Full);
    let alloc = load_plain(&mut sys, "ALLOC");
    let app = load_plain(&mut sys, "APP");
    let app_cid = app.cid;
    let granted = sys.run_in_cubicle(alloc.cid, |sys| {
        let base = sys.alloc_pages(4);
        sys.grant_pages_to(base, 4 * 4096, app_cid).unwrap();
        base
    });
    assert_eq!(sys.page_owner(granted), Some(app.cid));
    // The app uses the pages as its own: no windows needed.
    sys.run_in_cubicle(app.cid, |sys| {
        sys.write(granted, b"now mine").unwrap();
        assert_eq!(sys.read_vec(granted, 8).unwrap(), b"now mine");
    });
}

#[test]
fn heap_grows_on_demand() {
    let mut sys = System::new(IsolationMode::Full);
    let a = sys
        .load(
            ComponentImage::new("A", CodeImage::plain(64)).heap_pages(1),
            Box::new(Dummy),
        )
        .unwrap();
    sys.run_in_cubicle(a.cid, |sys| {
        let big = sys.heap_alloc(1 << 20, 8).unwrap(); // 1 MiB ≫ 1 page
        sys.fill(big, 0xAB, 1 << 20).unwrap();
        let mut probe = [0u8; 1];
        sys.read(big + ((1 << 20) - 1), &mut probe).unwrap();
        assert_eq!(probe[0], 0xAB);
    });
}

#[test]
fn guard_gaps_catch_overruns() {
    let mut sys = System::new(SystemConfig {
        cost: CostModel::free(),
        ..IsolationMode::Full.into()
    });
    let a = load_plain(&mut sys, "A");
    sys.run_in_cubicle(a.cid, |sys| {
        let base = sys.alloc_pages(1);
        // Write past the end of the allocation: hits the unmapped guard.
        let err = sys.write(base + 4096, b"overrun");
        assert!(matches!(err, Err(CubicleError::MachineFault(_))));
    });
}

#[test]
fn copy_moves_bytes_across_pages() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    sys.run_in_cubicle(a.cid, |sys| {
        let src = sys.heap_alloc(10_000, 8).unwrap();
        let dst = sys.heap_alloc(10_000, 8).unwrap();
        let pattern: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        sys.write(src, &pattern).unwrap();
        sys.copy(dst, src, 10_000).unwrap();
        assert_eq!(sys.read_vec(dst, 10_000).unwrap(), pattern);
    });
}

// ---------------------------------------------------------------------------
// Measurement plumbing
// ---------------------------------------------------------------------------

#[test]
fn since_boot_windows_counters() {
    let mut sys = System::new(IsolationMode::Full);
    let a = load_plain(&mut sys, "A");
    sys.load(
        counter_image("B", "b_touch"),
        Box::new(Counter { calls: 0 }),
    )
    .unwrap();
    sys.run_in_cubicle(a.cid, |sys| sys.call("b_touch", &[]).unwrap());
    sys.mark_boot_complete();
    sys.run_in_cubicle(a.cid, |sys| {
        sys.call("b_touch", &[]).unwrap();
        sys.call("b_touch", &[]).unwrap();
    });
    let (cycles, stats) = sys.since_boot();
    assert!(cycles > 0);
    assert_eq!(stats.cross_calls, 2, "boot-time call excluded");
}
