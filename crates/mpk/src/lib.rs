//! Simulated Intel MPK machine for the CubicleOS reproduction.
//!
//! The ASPLOS'21 CubicleOS prototype runs on real Intel Memory Protection
//! Keys (MPK) hardware. This crate is the laboratory substitute: a small,
//! deterministic machine model that provides exactly the pieces of the ISA
//! CubicleOS depends on (see paper §2.2 and §5):
//!
//! * a paged virtual **address space** whose page-table entries carry a
//!   4-bit **protection key** ([`ProtKey`]) in addition to classic
//!   read/write/execute permissions ([`PageFlags`]);
//! * a per-thread **PKRU register** ([`Pkru`]) with a 2-bit
//!   access-disable/write-disable field per key, writable in ~20 cycles
//!   (`wrpkru`), while *retagging* a page (`pkey_mprotect`) costs
//!   ~1,100 cycles;
//! * **protection faults** ([`Fault`]) raised on any access that the current
//!   PKRU value or the page permissions do not allow — the hook CubicleOS'
//!   monitor uses for its lazy trap-and-map scheme;
//! * a synthetic **instruction stream** ([`insn::CodeImage`]) so the loader
//!   can scan component binaries for forbidden `wrpkru`/`syscall`
//!   sequences before mapping them executable;
//! * a **cycle counter** driven by a [`CostModel`] so that experiments can
//!   report simulated time from measured event counts.
//!
//! Everything here is mechanism; policy (cubicles, windows, trap-and-map)
//! lives in the `cubicle-core` crate.
//!
//! # Example
//!
//! ```
//! use cubicle_mpk::{Machine, ProtKey, PageFlags, Pkru, PAGE_SIZE, VAddr};
//!
//! # fn main() -> Result<(), cubicle_mpk::Fault> {
//! let mut m = Machine::new();
//! let key = ProtKey::new(3).unwrap();
//! let page = VAddr::new(0x1000);
//! m.map_page(page, key, PageFlags::rw());
//!
//! // A PKRU value that can only touch key 3:
//! m.set_pkru(Pkru::deny_all().allowing(key));
//! m.write(page, b"hello")?;
//!
//! // Key 3 revoked: the same access now faults.
//! m.set_pkru(Pkru::deny_all());
//! assert!(m.write(page, b"denied").is_err());
//! # Ok(())
//! # }
//! ```

mod addr;
mod cost;
mod fault;
mod machine;
mod page;
mod pkru;

pub mod insn;
pub mod rng;
pub mod sched;

pub use addr::{pages_covering, PageNum, VAddr, PAGE_SIZE};
pub use cost::CostModel;
pub use fault::{AccessKind, Fault, FaultKind};
pub use machine::{CoreStats, Machine, MachineStats};
pub use page::{PageEntry, PageFlags};
pub use pkru::{KeyRights, Pkru, ProtKey, NUM_KEYS};
pub use sched::CoreScheduler;
