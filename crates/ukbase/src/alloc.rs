//! The `ALLOC` cubicle: system-wide coarse-grained allocator.
//!
//! Figure 5 shows `ALLOC` as "a system-wide memory allocator"; in the
//! SQLite deployment (Figure 8) "each cubicle uses only its own memory
//! allocation library, and ALLOC is used only for coarse-grained
//! allocations". `ALLOC` owns an arena of pages and *transfers page
//! ownership* to the requesting cubicle, because "pages are strictly
//! assigned an owner and type at allocation time" (paper §5.3).

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleId, EntryId, LoadedComponent, Result, System,
    Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::{VAddr, PAGE_SIZE};

/// State of the `ALLOC` component: a free list of reclaimed page runs.
#[derive(Debug, Default)]
pub struct Alloc {
    /// Reclaimed (addr, pages) runs available for reuse.
    free_runs: Vec<(VAddr, usize)>,
    /// Pages ever granted (statistics).
    pub pages_granted: u64,
}

impl_component!(Alloc, restart = reboot_reset);

impl Alloc {
    /// Microreboot hook: recorded free runs pointed into pages that were
    /// reclaimed with the cubicle, so the free list starts empty.
    fn reboot_reset(&mut self) {
        self.free_runs.clear();
    }
}

/// Synthetic code size of the component (bytes) — mirrors a small
/// allocator's text segment.
const CODE_SIZE: usize = 6 * 1024;

/// Builds the loadable `ALLOC` image.
pub fn image() -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new("ALLOC", CodeImage::plain(CODE_SIZE))
        .heap_pages(4)
        .export(
            b.export("void *uk_palloc(size_t pages)").unwrap(),
            entry_palloc,
        )
        .export(
            b.export("void uk_pfree(void *addr, size_t pages)").unwrap(),
            entry_pfree,
        )
}

fn entry_palloc(
    sys: &mut System,
    this: &mut dyn cubicle_core::Component,
    args: &[Value],
) -> Result<Value> {
    let pages = args[0].as_u64() as usize;
    if pages == 0 {
        return Ok(Value::I64(cubicle_core::Errno::Einval.neg()));
    }
    let state = cubicle_core::component_mut::<Alloc>(this);
    // Reuse a reclaimed run when one fits, else carve fresh pages.
    let base = match state.free_runs.iter().position(|&(_, n)| n >= pages) {
        Some(i) => {
            let (addr, n) = state.free_runs[i];
            if n == pages {
                state.free_runs.remove(i);
            } else {
                state.free_runs[i] = (addr + pages * PAGE_SIZE, n - pages);
            }
            addr
        }
        None => sys.alloc_pages(pages),
    };
    state.pages_granted += pages as u64;
    let caller = sys.caller_cubicle();
    sys.grant_pages_to(base, pages * PAGE_SIZE, caller)?;
    Ok(Value::Ptr(base))
}

fn entry_pfree(
    sys: &mut System,
    this: &mut dyn cubicle_core::Component,
    args: &[Value],
) -> Result<Value> {
    let addr = args[0].as_ptr();
    let pages = args[1].as_u64() as usize;
    // The pages come back to ALLOC's ownership. The *caller* transferred
    // them implicitly by calling pfree; from ALLOC's context we adopt
    // them by recording the run. (Ownership metadata was flipped by the
    // caller-side proxy before the call — see `AllocProxy::pfree`.) A run
    // ALLOC does not own page by page, or one already free, is refused:
    // recorded, the next `uk_palloc` it fits would fail to grant it. The
    // check reads page metadata only, free of charge.
    let me = sys.current_cubicle();
    let state = cubicle_core::component_mut::<Alloc>(this);
    let owned = pages > 0
        && addr.page_offset() == 0
        && (0..pages).all(|i| sys.page_owner(addr + i * PAGE_SIZE) == Some(me));
    let end = |base: VAddr, n: usize| base + n * PAGE_SIZE;
    if !owned
        || state
            .free_runs
            .iter()
            .any(|&(a, n)| a < end(addr, pages) && addr < end(a, n))
    {
        return Ok(Value::I64(cubicle_core::Errno::Einval.neg()));
    }
    state.free_runs.push((addr, pages));
    Ok(Value::Unit)
}

/// Typed caller-side proxy for the `ALLOC` entries.
#[derive(Clone, Copy, Debug)]
pub struct AllocProxy {
    cid: CubicleId,
    palloc: EntryId,
    pfree: EntryId,
}

impl AllocProxy {
    /// Resolves the proxy from the loaded component.
    ///
    /// # Errors
    ///
    /// [`cubicle_core::CubicleError::NoSuchEntry`] when the image does
    /// not export the expected symbols.
    pub fn resolve(loaded: &LoadedComponent) -> Result<AllocProxy> {
        Ok(AllocProxy {
            cid: loaded.cid,
            palloc: loaded.entry("uk_palloc")?,
            pfree: loaded.entry("uk_pfree")?,
        })
    }

    /// The `ALLOC` cubicle's ID.
    pub fn cid(&self) -> CubicleId {
        self.cid
    }

    /// Allocates `pages` pages owned by the calling cubicle.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn palloc(&self, sys: &mut System, pages: usize) -> Result<VAddr> {
        match sys.cross_call(self.palloc, &[Value::U64(pages as u64)])? {
            Value::Ptr(p) => Ok(p),
            Value::I64(e) => Err(cubicle_core::CubicleError::Component(format!(
                "uk_palloc failed: {e}"
            ))),
            other => Err(cubicle_core::CubicleError::Component(format!(
                "uk_palloc returned {other:?}"
            ))),
        }
    }

    /// Returns `pages` pages starting at `addr` to the allocator.
    ///
    /// The calling cubicle must own them; ownership is transferred back
    /// to `ALLOC` before the call (the grant direction mirrors
    /// `uk_palloc`).
    ///
    /// # Errors
    ///
    /// [`cubicle_core::CubicleError::NotOwner`] when the caller does not
    /// own the pages; [`cubicle_core::CubicleError::Component`] when
    /// `ALLOC` refuses the run.
    pub fn pfree(&self, sys: &mut System, addr: VAddr, pages: usize) -> Result<()> {
        sys.grant_pages_to(addr, pages * PAGE_SIZE, self.cid)?;
        match sys.cross_call(self.pfree, &[Value::Ptr(addr), Value::U64(pages as u64)])? {
            Value::I64(e) => Err(cubicle_core::CubicleError::Component(format!(
                "uk_pfree failed: {e}"
            ))),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_core::{CubicleError, IsolationMode};

    struct Dummy;
    impl_component!(Dummy);

    fn setup() -> (System, AllocProxy, CubicleId) {
        let mut sys = System::new(IsolationMode::Full);
        let alloc = sys.load(image(), Box::new(Alloc::default())).unwrap();
        let proxy = AllocProxy::resolve(&alloc).unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(64)),
                Box::new(Dummy),
            )
            .unwrap();
        (sys, proxy, app.cid)
    }

    #[test]
    fn palloc_grants_caller_owned_pages() {
        let (mut sys, proxy, app) = setup();
        let base = sys.run_in_cubicle(app, |sys| proxy.palloc(sys, 4).unwrap());
        assert_eq!(sys.page_owner(base), Some(app));
        sys.run_in_cubicle(app, |sys| {
            sys.write(base, b"coarse allocation").unwrap();
            assert_eq!(sys.read_vec(base, 6).unwrap(), b"coarse");
        });
    }

    #[test]
    fn pfree_reclaims_and_reuses() {
        let (mut sys, proxy, app) = setup();
        let (b1, b2) = sys.run_in_cubicle(app, |sys| {
            let b1 = proxy.palloc(sys, 2).unwrap();
            proxy.pfree(sys, b1, 2).unwrap();
            let b2 = proxy.palloc(sys, 2).unwrap();
            (b1, b2)
        });
        assert_eq!(b1, b2, "freed run is reused");
        // After pfree + re-palloc, the app owns it again.
        assert_eq!(sys.page_owner(b2), Some(app));
    }

    #[test]
    fn freed_pages_are_protected_from_old_owner() {
        let (mut sys, proxy, app) = setup();
        let base = sys.run_in_cubicle(app, |sys| {
            let base = proxy.palloc(sys, 1).unwrap();
            proxy.pfree(sys, base, 1).unwrap();
            base
        });
        // Ownership went back to ALLOC: the app cannot touch it anymore.
        let denied = sys.run_in_cubicle(app, |sys| sys.read_vec(base, 8));
        assert!(matches!(denied, Err(CubicleError::WindowDenied { .. })));
    }

    #[test]
    fn pfree_of_unowned_pages_rejected() {
        let (mut sys, proxy, app) = setup();
        let other = sys
            .load(
                ComponentImage::new("OTHER", CodeImage::plain(64)),
                Box::new(Dummy),
            )
            .unwrap();
        let theirs = sys.run_in_cubicle(other.cid, |sys| proxy.palloc(sys, 1).unwrap());
        let err = sys.run_in_cubicle(app, |sys| proxy.pfree(sys, theirs, 1));
        assert!(matches!(err, Err(CubicleError::NotOwner { .. })));
    }

    #[test]
    fn a_direct_pfree_of_pages_alloc_does_not_hold_is_refused() {
        let (mut sys, proxy, victim) = setup();
        let mut load = |name| {
            let image = ComponentImage::new(name, CodeImage::plain(64));
            sys.load(image, Box::new(Dummy)).unwrap().cid
        };
        let (evil, third) = (load("EVIL"), load("THIRD"));
        let (page, free_run) = sys.run_in_cubicle(victim, |sys| {
            let page = proxy.palloc(sys, 1).unwrap();
            let free_run = proxy.palloc(sys, 1).unwrap();
            proxy.pfree(sys, free_run, 1).unwrap();
            (page, free_run)
        });
        // EVIL skips the proxy's ownership transfer: VICTIM's page is
        // refused, and so is a run already on the free list.
        let refused = sys.run_in_cubicle(evil, |sys| {
            [page, free_run].map(|addr| {
                let args = [Value::Ptr(addr), Value::U64(1)];
                sys.cross_call(proxy.pfree, &args).unwrap()
            })
        });
        let einval = Value::I64(cubicle_core::Errno::Einval.neg());
        assert_eq!(refused, [einval, einval]);
        // THIRD gets the free run once, then a fresh page.
        let got = sys.run_in_cubicle(third, |sys| [proxy.palloc(sys, 1), proxy.palloc(sys, 1)]);
        assert_eq!(got[0], Ok(free_run));
        assert!(
            got[1].as_ref().is_ok_and(|&p| p != page && p != free_run),
            "{got:?}"
        );
        assert_eq!(sys.page_owner(page), Some(victim));
    }

    #[test]
    fn zero_page_request_is_einval() {
        let (mut sys, proxy, app) = setup();
        let err = sys.run_in_cubicle(app, |sys| proxy.palloc(sys, 0));
        assert!(err.is_err());
    }

    #[test]
    fn calls_counted_on_alloc_edge() {
        let (mut sys, proxy, app) = setup();
        sys.run_in_cubicle(app, |sys| {
            for _ in 0..3 {
                let p = proxy.palloc(sys, 1).unwrap();
                proxy.pfree(sys, p, 1).unwrap();
            }
        });
        assert_eq!(sys.stats().edge(app, proxy.cid()), 6);
    }
}
