//! # cubicle-ipc — message-passing baselines
//!
//! The paper's §6.5 compares CubicleOS against component frameworks with
//! *message-based interfaces*: Genode running on Linux, seL4, Fiasco.OC
//! and NOVA (Figure 10). Architecturally the difference is that a
//! message-based crossing must (a) enter the kernel and switch protection
//! contexts, and (b) **copy** every buffer argument through the message
//! channel — there are no windows and no zero-copy grants.
//!
//! This crate provides the per-kernel cost models
//! ([`IsolationMode::Ipc`]), [`mode_for`] and [`crossing_cost`]. The same
//! component graph (VFSCORE, RAMFS, …) runs unchanged under these
//! baselines: the kernel's `cross_call` charges the message costs
//! according to the transfer direction of each
//! [`cubicle_core::Value::Buf`] argument, and VFSCORE moves bulk data to
//! a separated server in [`cubicle_core::IPC_PACKET_BYTES`] packets.
//!
//! ## Calibration
//!
//! The `fixed` constants model one synchronous call/reply pair, including
//! the Genode RPC layer on top of the raw kernel IPC path (session
//! routing, capability translation, dispatcher). The `per_byte` constants
//! model the copy in + copy out through a dataspace/packet stream.
//! Values are chosen once to land the published Figure 10b ratios and are
//! documented in `EXPERIMENTS.md`; the raw-kernel ordering (seL4's fast
//! IPC < Fiasco.OC ≈ NOVA < Linux's heavyweight transport) follows the
//! literature.

use cubicle_core::{IpcCostModel, IsolationMode};

/// Genode on **seL4**: fast kernel IPC, but strict capability transfer
/// rules make the Genode layer do extra work per crossing; bulk data
/// moves through packet-stream dataspaces.
pub const SEL4: IpcCostModel = IpcCostModel {
    kernel: "SeL4",
    fixed: 33_000,
    per_byte: 6,
};

/// Genode on **Fiasco.OC**: L4-family IPC with a mature Genode backend.
pub const FIASCO_OC: IpcCostModel = IpcCostModel {
    kernel: "Fiasco.OC",
    fixed: 14_700,
    per_byte: 4,
};

/// Genode on **NOVA**: microhypervisor IPC, close to Fiasco.OC in
/// Genode's published numbers.
pub const NOVA: IpcCostModel = IpcCostModel {
    kernel: "NOVA",
    fixed: 16_500,
    per_byte: 4,
};

/// Genode on **Linux**: crossings are SysV-IPC + socket round trips
/// between full processes — by far the most expensive transport (the
/// paper's Genode-4 is 29× slower than native Linux).
pub const GENODE_LINUX: IpcCostModel = IpcCostModel {
    kernel: "Genode/Linux",
    fixed: 168_000,
    per_byte: 20,
};

/// All four kernels of Figure 10b, in the paper's presentation order.
pub const KERNELS: [IpcCostModel; 4] = [SEL4, FIASCO_OC, NOVA, GENODE_LINUX];

/// Convenience: the isolation mode for a kernel model.
pub fn mode_for(kernel: IpcCostModel) -> IsolationMode {
    IsolationMode::Ipc(kernel)
}

/// Estimated cycles for one call with `payload` buffer bytes — the
/// quantity `cross_call` charges in IPC mode (useful for tests and
/// analytical sanity checks).
pub fn crossing_cost(kernel: &IpcCostModel, payload: usize) -> u64 {
    kernel.fixed + kernel.per_byte * payload as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_core::{component_mut, impl_component, Builder, ComponentImage, System, Value};
    use cubicle_mpk::insn::CodeImage;

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate cost-model sanity checks
    fn kernel_ordering_follows_the_literature() {
        assert!(
            FIASCO_OC.fixed < SEL4.fixed,
            "Genode's seL4 backend is slower than Fiasco's"
        );
        assert!(NOVA.fixed < SEL4.fixed);
        assert!(
            SEL4.fixed < GENODE_LINUX.fixed,
            "process-based transport is the slowest"
        );
    }

    struct Sink {
        bytes_seen: u64,
    }
    impl_component!(Sink);

    fn sink_image() -> ComponentImage {
        let b = Builder::new();
        ComponentImage::new("SINK", CodeImage::plain(128)).export(
            b.export("long sink_write(const void *buf, size_t n)")
                .unwrap(),
            |_sys, this, args| {
                let (_, len) = args[0].as_buf();
                component_mut::<Sink>(this).bytes_seen += len as u64;
                Ok(Value::I64(len as i64))
            },
        )
    }

    struct App;
    impl_component!(App);

    #[test]
    fn ipc_mode_charges_fixed_plus_per_byte() {
        let mut sys = System::new(mode_for(SEL4));
        sys.load(sink_image(), Box::new(Sink { bytes_seen: 0 }))
            .unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(64)),
                Box::new(App),
            )
            .unwrap();
        sys.run_in_cubicle(app.cid, |sys| {
            let buf = sys.heap_alloc(10_000, 8).unwrap();
            let t0 = sys.now();
            sys.call("sink_write", &[Value::buf_in(buf, 10_000)])
                .unwrap();
            let dt = sys.now() - t0;
            // fixed + per_byte·n, within slack for the callee's own work
            let expected = crossing_cost(&SEL4, 10_000);
            assert!(dt >= expected, "{dt} >= {expected}");
            assert!(dt < expected + 5_000, "{dt} ≈ {expected}");
        });
        assert_eq!(sys.stats().ipc_msgs, 2);
        assert_eq!(sys.stats().ipc_bytes, 10_000);
    }

    #[test]
    fn ipc_mode_never_faults() {
        let mut sys = System::new(mode_for(FIASCO_OC));
        sys.load(sink_image(), Box::new(Sink { bytes_seen: 0 }))
            .unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(64)),
                Box::new(App),
            )
            .unwrap();
        sys.run_in_cubicle(app.cid, |sys| {
            let buf = sys.heap_alloc(4096, 8).unwrap();
            sys.call("sink_write", &[Value::buf_in(buf, 4096)]).unwrap();
        });
        assert_eq!(sys.machine_stats().faults, 0);
        assert_eq!(sys.machine_stats().retags, 0);
    }

    #[test]
    fn scalar_only_calls_cost_just_the_round_trip() {
        let b = Builder::new();
        let img = ComponentImage::new("NOP", CodeImage::plain(64))
            .export(b.export("void nop(void)").unwrap(), |_sys, _this, _args| {
                Ok(Value::Unit)
            });
        struct Nop;
        impl_component!(Nop);
        let mut sys = System::new(mode_for(NOVA));
        sys.load(img, Box::new(Nop)).unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(64)),
                Box::new(App),
            )
            .unwrap();
        sys.run_in_cubicle(app.cid, |sys| {
            let t0 = sys.now();
            sys.call("nop", &[]).unwrap();
            assert_eq!(sys.now() - t0, NOVA.fixed);
        });
    }

    #[test]
    fn merged_components_skip_the_kernel() {
        // Components in the same protection domain call directly even in
        // IPC mode — the basis of the 3- vs 4-component comparison.
        let mut sys = System::new(mode_for(SEL4));
        let core = sys
            .load(
                ComponentImage::new("CORE", CodeImage::plain(64)),
                Box::new(App),
            )
            .unwrap();
        sys.load_into(sink_image(), Box::new(Sink { bytes_seen: 0 }), core.cid)
            .unwrap();
        sys.run_in_cubicle(core.cid, |sys| {
            let buf = sys.heap_alloc(8192, 8).unwrap();
            let t0 = sys.now();
            sys.call("sink_write", &[Value::buf_in(buf, 8192)]).unwrap();
            let dt = sys.now() - t0;
            assert!(dt < 100, "same-domain call must be a plain call, got {dt}");
        });
        assert_eq!(sys.stats().ipc_msgs, 0);
    }
}
