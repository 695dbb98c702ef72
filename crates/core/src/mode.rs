//! Isolation modes: the knobs behind the paper's ablation and baselines.

/// Cycle cost model for a message-passing (microkernel-style) transport,
/// used by the IPC baselines of §6.5 / Figure 10.
///
/// The same component graph runs unchanged; every cross-component call is
/// charged as a synchronous IPC: a fixed kernel round trip plus a
/// per-byte marshalling cost for each buffer argument (microkernel
/// interfaces must copy — they have no windows).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IpcCostModel {
    /// Human-readable kernel name ("seL4", "Fiasco.OC", …).
    pub kernel: &'static str,
    /// Fixed cycles per call/return pair: two address-space switches, the
    /// kernel IPC path, capability/endpoint lookup, and the dispatcher on
    /// the callee side.
    pub fixed: u64,
    /// Cycles per byte moved through the message channel (covers the
    /// copy in, the copy out, and cache effects).
    pub per_byte: u64,
}

/// Effective signalling granularity of bulk-data *server* interfaces
/// under every IPC baseline (Genode packet streams): a bulk operation to
/// a file-system server is split into packets of this many bytes, each
/// its own kernel round trip. Window-based CubicleOS has no analogue —
/// grants are per-range, not per-packet.
pub const IPC_PACKET_BYTES: usize = 4096;

/// How the kernel mediates component interaction.
///
/// `Unikraft`, `NoMpk`, `NoAcl` and `Full` generate the four curves of
/// Figure 6; `Ipc` generates the Genode/microkernel baselines of
/// Figure 10.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IsolationMode {
    /// Baseline Unikraft: direct calls in a single unprotected address
    /// space. No trampolines, no MPK, windows are free no-ops.
    Unikraft,
    /// Cross-cubicle call trampolines (stack switch, entry bookkeeping)
    /// but no MPK protection: the PKRU stays wide open, so no faults and
    /// no retagging. "CubicleOS w/o MPK" in Figure 6.
    NoMpk,
    /// MPK protection active (PKRU switched per cubicle, trap-and-map
    /// runs) but window ACLs are not consulted: any faulting access is
    /// granted. "CubicleOS w/o ACLs" in Figure 6.
    NoAcl,
    /// Full CubicleOS: trampolines + MPK + window ACLs.
    #[default]
    Full,
    /// Message-based interface baseline: direct data access is replaced by
    /// per-call marshalling costs according to the given kernel model.
    Ipc(IpcCostModel),
}

impl IsolationMode {
    /// Does this mode switch PKRU across cubicles (and therefore fault)?
    pub(crate) const fn mpk_active(self) -> bool {
        matches!(self, IsolationMode::NoAcl | IsolationMode::Full)
    }

    /// Does this mode run cross-cubicle call trampolines?
    pub(crate) const fn trampolines_active(self) -> bool {
        matches!(
            self,
            IsolationMode::NoMpk | IsolationMode::NoAcl | IsolationMode::Full
        )
    }

    /// Does this mode consult (and charge for) window ACLs?
    pub(crate) const fn acls_active(self) -> bool {
        matches!(self, IsolationMode::Full)
    }

    /// Short label used by the benchmark harnesses.
    pub const fn label(self) -> &'static str {
        match self {
            IsolationMode::Unikraft => "Unikraft",
            IsolationMode::NoMpk => "CubicleOS w/o MPK",
            IsolationMode::NoAcl => "CubicleOS w/o ACLs",
            IsolationMode::Full => "CubicleOS",
            IsolationMode::Ipc(m) => m.kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_ladder_is_monotone() {
        // Each Fig. 6 configuration enables a superset of mechanisms.
        assert!(!IsolationMode::Unikraft.trampolines_active());
        assert!(IsolationMode::NoMpk.trampolines_active());
        assert!(!IsolationMode::NoMpk.mpk_active());
        assert!(IsolationMode::NoAcl.mpk_active());
        assert!(!IsolationMode::NoAcl.acls_active());
        assert!(IsolationMode::Full.mpk_active());
        assert!(IsolationMode::Full.acls_active());
    }

    #[test]
    fn ipc_mode_has_no_mpk() {
        let ipc = IsolationMode::Ipc(IpcCostModel {
            kernel: "seL4",
            fixed: 1,
            per_byte: 1,
        });
        assert!(!ipc.mpk_active());
        assert!(!ipc.acls_active());
        assert_eq!(ipc.label(), "seL4");
    }

    #[test]
    fn labels_match_figure_6() {
        assert_eq!(IsolationMode::Unikraft.label(), "Unikraft");
        assert_eq!(IsolationMode::NoMpk.label(), "CubicleOS w/o MPK");
        assert_eq!(IsolationMode::NoAcl.label(), "CubicleOS w/o ACLs");
        assert_eq!(IsolationMode::Full.label(), "CubicleOS");
    }

    #[test]
    fn default_is_full() {
        assert_eq!(IsolationMode::default(), IsolationMode::Full);
    }
}
