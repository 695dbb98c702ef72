//! The MPK key pool: one draw/release pair for the loader, the
//! microreboot and quarantine, tag virtualisation's lazy binding
//! (paper §8), and the pair keys of windows shared with one peer.

use super::observe::PageOp;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, WindowId};
use cubicle_mpk::{ProtKey, NUM_KEYS};

/// The reserved "parked" protection key used by tag virtualisation: it
/// is never granted in any PKRU set, so pages of unbound cubicles are
/// inaccessible until trap-and-map faults them back in.
pub const PARKED_KEY: ProtKey = match ProtKey::new(15) {
    Some(k) => k,
    None => unreachable!(),
};

/// The physical MPK keys the monitor hands to cubicles (key 0 stays
/// with the monitor): the loader and the microreboot draw from it, and
/// quarantine releases into it.
///
/// Without virtualisation the pool holds keys 1–15 and a key is bound
/// for the cubicle's lifetime. With MPK tag virtualisation (paper §8:
/// "if more tags were required, CubicleOS could use existing tag
/// virtualisation mechanisms [libmpk]") it holds keys 1–14 and
/// [`PARKED_KEY`] stands in for an unbound cubicle; entering a parked
/// cubicle whose pool is full evicts the least-recently-used binding
/// and parks the evicted cubicle's pages — each retag at full
/// `pkey_mprotect` cost, which is what makes virtualisation expensive
/// and the paper's "one key per compartment" frugality valuable.
///
/// A non-virtualised pool also lends pair keys: the first
/// [`PairShare`] between two cubicles pins a free key for the pair, and
/// the end of their last share returns it.
pub(crate) struct KeyPool {
    /// physical key → what it is bound to.
    bindings: Vec<(ProtKey, Option<Binding>)>,
    /// Tag virtualisation is on.
    pub(crate) virtualised: bool,
    tick: u64,
    /// Evictions performed (statistics).
    evictions: u64,
    /// Live pair shares, in the order they were made (§6l of DESIGN).
    pub(crate) shares: Vec<PairShare>,
}

/// What a physical key of the pool is bound to.
#[derive(Clone, Copy)]
enum Binding {
    /// A cubicle's own key, with an LRU tick (`u64::MAX` pins a shared
    /// cubicle's key).
    Cubicle(CubicleId, u64),
    /// The pair key of two cubicles with at least one live
    /// [`PairShare`] between them, pinned until the last one ends.
    Pair,
}

/// One persistent window its owner shares with exactly one peer under
/// the pair key k(owner, peer) (`System::window_share`): both members'
/// PKRU sets enable `key`, so neither traps on the window's pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PairShare {
    pub(crate) owner: CubicleId,
    pub(crate) peer: CubicleId,
    pub(crate) wid: WindowId,
    pub(crate) key: ProtKey,
}

impl PairShare {
    /// Is `cid` one of the pair?
    pub(crate) fn has(&self, cid: CubicleId) -> bool {
        self.owner == cid || self.peer == cid
    }

    /// Is this a share between `a` and `b`, in either direction?
    fn pairs(&self, a: CubicleId, b: CubicleId) -> bool {
        self.has(a) && self.has(b)
    }
}

impl KeyPool {
    pub(super) fn new(virtualised: bool) -> KeyPool {
        let end = if virtualised {
            PARKED_KEY.raw()
        } else {
            NUM_KEYS as u8
        };
        KeyPool {
            bindings: (1..end)
                .map(|k| (ProtKey::new(k).expect("in range"), None))
                .collect(),
            virtualised,
            tick: 0,
            evictions: 0,
            shares: Vec::new(),
        }
    }

    /// Binds the lowest free key to `cid`. With the pool exhausted, a
    /// virtualised pool starts an isolated cubicle parked (it binds on
    /// first entry); a shared cubicle must stay reachable from every
    /// PKRU set, so it pins its key or fails.
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfKeys`] when no key can be handed out.
    pub(super) fn draw(&mut self, cid: CubicleId, shared: bool) -> Result<ProtKey> {
        match self.bindings.iter_mut().find(|(_, b)| b.is_none()) {
            Some(slot) => {
                let tick = if shared { u64::MAX } else { 0 };
                slot.1 = Some(Binding::Cubicle(cid, tick));
                Ok(slot.0)
            }
            None if self.virtualised && !shared => Ok(PARKED_KEY),
            None => Err(CubicleError::OutOfKeys),
        }
    }

    /// Returns `cid`'s key, if it holds one, to the pool.
    pub(super) fn release(&mut self, cid: CubicleId) {
        if let Some(slot) = self
            .bindings
            .iter_mut()
            .find(|(_, b)| matches!(b, Some(Binding::Cubicle(c, _)) if *c == cid))
        {
            slot.1 = None;
        }
    }

    /// The live pair key of `a` and `b`, in either direction.
    pub(crate) fn pair_key(&self, a: CubicleId, b: CubicleId) -> Option<ProtKey> {
        self.shares.iter().find(|s| s.pairs(a, b)).map(|s| s.key)
    }

    /// Records that `owner` shares `wid` with `peer` and returns the
    /// pair's key — the live one, or the lowest free key, pinned. `None`
    /// when the share already exists, the pool is virtualised (a pinned
    /// pair key would shrink the binding pool for good) or no key is
    /// free: the window then stays merely open.
    pub(super) fn share(
        &mut self,
        owner: CubicleId,
        peer: CubicleId,
        wid: WindowId,
    ) -> Option<ProtKey> {
        if self.virtualised
            || self
                .shares
                .iter()
                .any(|s| s.owner == owner && s.peer == peer && s.wid == wid)
        {
            return None;
        }
        let key = match self.pair_key(owner, peer) {
            Some(key) => key,
            None => {
                let slot = self.bindings.iter_mut().find(|(_, b)| b.is_none())?;
                slot.1 = Some(Binding::Pair);
                slot.0
            }
        };
        self.shares.push(PairShare {
            owner,
            peer,
            wid,
            key,
        });
        Some(key)
    }

    /// Could `n` more pairs each pin a key of their own now?
    pub(super) fn can_pin(&self, n: usize) -> bool {
        !self.virtualised && self.bindings.iter().filter(|(_, b)| b.is_none()).count() >= n
    }

    /// Ends every share `ends` selects and returns them; a pair whose
    /// last share ended gives its key back to the pool.
    pub(super) fn unshare(&mut self, ends: impl Fn(&PairShare) -> bool) -> Vec<PairShare> {
        let ended: Vec<PairShare> = self.shares.extract_if(.., |s| ends(s)).collect();
        for s in &ended {
            if self.pair_key(s.owner, s.peer).is_none() {
                if let Some(slot) = self.bindings.iter_mut().find(|(k, _)| *k == s.key) {
                    slot.1 = None;
                }
            }
        }
        ended
    }
}

impl System {
    /// Number of key-binding evictions performed by the virtualisation
    /// layer (0 when virtualisation is off or never needed).
    pub fn key_evictions(&self) -> u64 {
        self.keys.evictions
    }

    /// Binds `cid` to a physical key if it is parked. No-op without
    /// virtualisation (keys are permanent then).
    #[inline]
    pub(super) fn ensure_bound(&mut self, cid: CubicleId) {
        let kv = &mut self.keys;
        if !kv.virtualised {
            return;
        }
        kv.tick += 1;
        let tick = kv.tick;
        if self.cubicles[cid.index()].key != PARKED_KEY {
            // refresh the LRU stamp of the existing binding
            let key = self.cubicles[cid.index()].key;
            if let Some(slot) = kv.bindings.iter_mut().find(|(k, _)| *k == key) {
                if let Some(Binding::Cubicle(bound, t)) = &mut slot.1 {
                    if *bound == cid && !self.cubicles[cid.index()].shared {
                        *t = tick;
                    }
                }
            }
            return;
        }
        // find a free physical key, or evict the least recently used
        // binding that is neither pinned (shared) nor currently running
        let active: Vec<CubicleId> = self.call_stack.iter().map(|f| f.cubicle).collect();
        let slot_idx = kv
            .bindings
            .iter()
            .position(|(_, b)| b.is_none())
            .unwrap_or_else(|| {
                kv.bindings
                    .iter()
                    .enumerate()
                    .filter_map(|(i, (_, b))| match *b {
                        Some(Binding::Cubicle(c, t)) if t != u64::MAX && !active.contains(&c) => {
                            Some((i, t))
                        }
                        _ => None,
                    })
                    .min_by_key(|&(_, t)| t)
                    .map(|(i, _)| i)
                    .expect("at least one evictable binding")
            });
        let (phys, prev) = kv.bindings[slot_idx];
        kv.bindings[slot_idx].1 = Some(Binding::Cubicle(cid, tick));
        if let Some(Binding::Cubicle(evicted, _)) = prev {
            kv.evictions += 1;
            self.cubicles[evicted.index()].key = PARKED_KEY;
            // all pages currently tagged with the physical key are parked;
            // trap-and-map will lazily fault them back in for whoever is
            // authorised (each retag at pkey_mprotect cost)
            for page in self.machine.pages_with_key(phys) {
                self.page_op(page.base(), PageOp::Retag(PARKED_KEY))
                    .expect("page exists");
            }
        }
        self.cubicles[cid.index()].key = phys;
    }
}
