//! Window descriptors: user-managed ACLs for temporal memory sharing.
//!
//! "Each window contains a set of memory ranges in a cubicle, and the set
//! of other cubicles that can access them at any point in time" (paper
//! §3). Descriptors hold an address, a size and a bitmask of cubicles
//! (§5.3); the monitor searches them linearly during trap-and-map, which
//! is fast because "all but one cubicle have less than ten windows at any
//! point in time".
//!
//! A descriptor carries no rights: an admitted cubicle may load and
//! store. Load-only sharing is a right of a key, the write-disable bit
//! of a read-only pair key in the peer's PKRU set (DESIGN §6s).

use crate::ids::{CubicleId, WindowId};
use cubicle_mpk::{PageNum, VAddr};

/// One contiguous memory range published in a window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowRange {
    /// First byte of the range.
    pub start: VAddr,
    /// Length in bytes.
    pub len: usize,
}

impl WindowRange {
    /// Returns `true` if `addr` falls inside this range.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.start && addr.raw() < self.start.raw() + self.len as u64
    }

    /// Returns `true` if any byte of this range lies on `page`.
    pub fn covers_page(&self, page: PageNum) -> bool {
        self.len > 0 && self.start.page() <= page && page <= (self.start + (self.len - 1)).page()
    }
}

/// A window: a set of ranges plus the ACL bitmask of cubicles that may
/// access them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Window {
    id: WindowId,
    ranges: Vec<WindowRange>,
    /// Bit *i* set ⇒ cubicle *i* may access the window's contents.
    mask: u64,
}

impl Window {
    /// Creates an empty, closed window.
    pub fn new(id: WindowId) -> Window {
        Window {
            id,
            ranges: Vec::new(),
            mask: 0,
        }
    }

    /// This window's identifier.
    pub fn id(&self) -> WindowId {
        self.id
    }

    /// The published ranges.
    pub fn ranges(&self) -> &[WindowRange] {
        &self.ranges
    }

    /// The raw ACL bitmask.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Associates the memory range `[ptr, ptr+len)` with this window
    /// (`cubicle_window_add`).
    pub fn add_range(&mut self, ptr: VAddr, len: usize) {
        self.ranges.push(WindowRange { start: ptr, len });
    }

    /// Removes the range previously added at `ptr`
    /// (`cubicle_window_remove`). Returns `true` if a range was removed.
    pub fn remove_range(&mut self, ptr: VAddr) -> bool {
        let before = self.ranges.len();
        self.ranges.retain(|r| r.start != ptr);
        self.ranges.len() != before
    }

    /// Opens the window for `cid` (`cubicle_window_open`).
    pub fn open_for(&mut self, cid: CubicleId) {
        self.mask |= cid.mask_bit();
    }

    /// Closes the window for `cid` (`cubicle_window_close`).
    pub fn close_for(&mut self, cid: CubicleId) {
        self.mask &= !cid.mask_bit();
    }

    /// Closes the window for everyone (`cubicle_window_close_all`).
    pub fn close_all(&mut self) {
        self.mask = 0;
    }

    /// Is the window currently open for `cid`?
    pub fn is_open_for(&self, cid: CubicleId) -> bool {
        self.mask & cid.mask_bit() != 0
    }

    /// Returns `(covers, allowed)` for an access by `accessor` at `addr`:
    /// whether any range covers the address and, if so, whether the ACL
    /// admits the accessor. Also reports the number of ranges probed, so
    /// the monitor can charge the linear-search cost.
    pub fn check(&self, addr: VAddr, accessor: CubicleId) -> WindowCheck {
        let mut probes = 0;
        for range in &self.ranges {
            probes += 1;
            if range.contains(addr) {
                return WindowCheck {
                    covers: true,
                    allowed: self.is_open_for(accessor),
                    probes,
                };
            }
        }
        WindowCheck {
            covers: false,
            allowed: false,
            probes,
        }
    }
}

/// Result of probing one window during trap-and-map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowCheck {
    /// A range of the window covers the faulting address.
    pub covers: bool,
    /// The ACL admits the accessor (meaningful only when `covers`).
    pub allowed: bool,
    /// Number of range descriptors inspected.
    pub probes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Window {
        Window::new(WindowId(1))
    }

    #[test]
    fn new_window_is_closed_and_empty() {
        let win = w();
        assert_eq!(win.ranges().len(), 0);
        assert_eq!(win.mask(), 0);
        assert!(!win.is_open_for(CubicleId(3)));
    }

    #[test]
    fn range_containment() {
        let r = WindowRange {
            start: VAddr::new(0x1000),
            len: 0x100,
        };
        assert!(r.contains(VAddr::new(0x1000)));
        assert!(r.contains(VAddr::new(0x10ff)));
        assert!(!r.contains(VAddr::new(0x1100)));
        assert!(!r.contains(VAddr::new(0xfff)));
        assert!(r.covers_page(PageNum(1)));
        assert!(!r.covers_page(PageNum(0)) && !r.covers_page(PageNum(2)));
        let empty = WindowRange {
            start: VAddr::new(0x1000),
            len: 0,
        };
        assert!(!empty.covers_page(PageNum(1)));
    }

    #[test]
    fn open_close_per_cubicle() {
        let mut win = w();
        win.open_for(CubicleId(2));
        win.open_for(CubicleId(5));
        assert!(win.is_open_for(CubicleId(2)));
        assert!(win.is_open_for(CubicleId(5)));
        assert!(!win.is_open_for(CubicleId(3)));
        win.close_for(CubicleId(2));
        assert!(!win.is_open_for(CubicleId(2)));
        assert!(win.is_open_for(CubicleId(5)));
        win.close_all();
        assert_eq!(win.mask(), 0);
    }

    #[test]
    fn add_remove_ranges() {
        let mut win = w();
        win.add_range(VAddr::new(0x1000), 16);
        win.add_range(VAddr::new(0x2000), 32);
        assert_eq!(win.ranges().len(), 2);
        assert!(win.remove_range(VAddr::new(0x1000)));
        assert_eq!(win.ranges().len(), 1);
        assert!(!win.remove_range(VAddr::new(0x1000)));
    }

    #[test]
    fn check_reports_probes_and_acl() {
        let mut win = w();
        win.add_range(VAddr::new(0x1000), 16);
        win.add_range(VAddr::new(0x2000), 16);
        win.open_for(CubicleId(4));

        // hit on second range, allowed
        let c = win.check(VAddr::new(0x2008), CubicleId(4));
        assert!(c.covers && c.allowed);
        assert_eq!(c.probes, 2);

        // hit but ACL closed for this cubicle
        let c = win.check(VAddr::new(0x2008), CubicleId(7));
        assert!(c.covers && !c.allowed);

        // miss scans everything
        let c = win.check(VAddr::new(0x9000), CubicleId(4));
        assert!(!c.covers && !c.allowed);
        assert_eq!(c.probes, 2);
    }

    #[test]
    fn reopening_after_close_works() {
        let mut win = w();
        win.open_for(CubicleId(1));
        win.close_all();
        win.open_for(CubicleId(1));
        assert!(win.is_open_for(CubicleId(1)));
    }
}
