//! # cubicle-core — the CubicleOS kernel
//!
//! Reproduction of the runtime described in *"CubicleOS: A Library OS with
//! Software Componentisation for Practical Isolation"* (ASPLOS 2021).
//!
//! CubicleOS mutually isolates the components of a monolithic library OS
//! (Unikraft) without switching to message-passing interfaces. Its three
//! abstractions, all implemented here:
//!
//! * **cubicles** — spatial isolation: each component's pages carry a
//!   private MPK key; any stray access faults ([`System::load`]);
//! * **windows** — temporal isolation: user-managed ACLs over a cubicle's
//!   own memory ranges, letting peers access function-call arguments
//!   zero-copy ([`System::window_init`] and friends — paper Table 1;
//!   components share buffers through [`System::share`] and the scoped
//!   [`System::with_shared`], which issue those calls for them);
//! * **cross-cubicle calls** — CFI-enforcing trampolines generated by the
//!   trusted [`Builder`] and dispatched by [`System::cross_call`].
//!
//! The monitor authorises cross-cubicle accesses lazily with
//! **trap-and-map**: a protection fault is resolved by finding the page's
//! owner (O(1) page-metadata map), linearly searching the owner's window
//! descriptors, checking the ACL bitmask (O(1)) and *retagging* the page
//! to the accessor — no copying, few MPK keys.
//!
//! # Example: the paper's Figure 2/4 walk-through
//!
//! ```
//! use cubicle_core::{
//!     Builder, ComponentImage, IsolationMode, System, Value, component_mut, impl_component,
//! };
//! use cubicle_mpk::insn::CodeImage;
//!
//! // A minimal RAMFS-like component: copies the caller's buffer into its
//! // own heap when `ramfs_write(buf, len)` is invoked.
//! struct Ramfs;
//! impl_component!(Ramfs);
//!
//! # fn main() -> Result<(), cubicle_core::CubicleError> {
//! let mut sys = System::new(IsolationMode::Full);
//! let builder = Builder::new();
//!
//! let ramfs = sys.load(
//!     ComponentImage::new("RAMFS", CodeImage::plain(512)).export(
//!         builder.export("ssize_t ramfs_write(const void *buf, size_t len)").unwrap(),
//!         |sys, _this, args| {
//!             let (src, len) = args[0].as_buf();
//!             let dst = sys.heap_alloc(len, 8)?;     // RAMFS-owned memory
//!             sys.copy(dst, src, len)?;              // faults → trap-and-map
//!             Ok(Value::I64(len as i64))
//!         },
//!     ),
//!     Box::new(Ramfs),
//! )?;
//!
//! // The "application" cubicle owns a buffer and opens a window to it.
//! struct App;
//! impl_component!(App);
//! let app = sys.load(ComponentImage::new("APP", CodeImage::plain(512)), Box::new(App))?;
//!
//! let ramfs_cid = ramfs.cid;
//! let result = sys.run_in_cubicle(app.cid, |sys| -> Result<i64, cubicle_core::CubicleError> {
//!     let buf = sys.heap_alloc(64, 8)?;
//!     sys.write(buf, b"hello, cubicle")?;
//!     let wid = sys.window_init();
//!     sys.window_add(wid, buf, 64)?;
//!     sys.window_open(wid, ramfs_cid)?;            // grant access
//!     let n = sys.call("ramfs_write", &[Value::buf_in(buf, 14)])?.as_i64();
//!     sys.window_close(wid, ramfs_cid)?;           // revoke (lazily)
//!     Ok(n)
//! })?;
//! assert_eq!(result, 14);
//! # Ok(())
//! # }
//! ```

mod audit;
mod builder;
mod component;
mod cubicle;
mod errno;
mod error;
mod heap;
mod ids;
mod ledger;
mod metrics;
mod mode;
mod race;
mod span;
mod stats;
mod system;
mod trace;
mod value;
mod window;

pub use audit::{AuditFinding, AuditReport, InvariantClass};
pub use builder::{Builder, ExportDecl, ParseExportError, SignedExport, ABI_REG_ARGS};
pub use component::{component_mut, Component, ComponentImage, EntryFn};
pub use cubicle::{Cubicle, CubicleState, RegionType, StackSlot};
pub use errno::Errno;
pub use error::{CubicleError, Result};
pub use heap::{InvalidFree, SubAllocator};
pub use ids::{CubicleId, EntryId, WindowId};
pub use ledger::LedgerRow;
pub use metrics::{CycleHisto, Metrics, NUM_BUCKETS};
pub use mode::{IpcCostModel, IsolationMode, IPC_PACKET_BYTES};
pub use race::{AccessInfo, LocksetViolation, RaceDetector, RaceObject, RaceReport};
pub use span::{CycleAttribution, SpanFrame, SpanProfiler, SpanRecord};
pub use stats::{Series, SysStats};
pub use system::{
    LoadedComponent, MonitorLock, MonitorLockStats, PageMeta, RestartPolicy, Snapshot, System,
    SystemConfig, PARKED_KEY,
};
pub use trace::{
    FaultAudit, FaultDecision, GrantLookup, Incident, RecoveryEvent, TraceBuffer, TraceEvent,
    TraceRecord, WindowOpKind,
};
pub use value::{BufDir, Value};
pub use window::{Window, WindowCheck, WindowRange};
