//! The MPK key pool: one draw/release pair for the loader, the
//! microreboot and quarantine, plus tag virtualisation's lazy binding
//! (paper §8).

use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::CubicleId;
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
pub(crate) struct KeyPool {
    /// physical key → bound cubicle, with an LRU tick (`u64::MAX` pins
    /// a shared cubicle's key).
    bindings: Vec<(ProtKey, Option<(CubicleId, u64)>)>,
    /// Tag virtualisation is on.
    pub(crate) virtualised: bool,
    tick: u64,
    /// Evictions performed (statistics).
    evictions: u64,
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
                slot.1 = Some((cid, tick));
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
            .find(|(_, b)| b.is_some_and(|(c, _)| c == cid))
        {
            slot.1 = None;
        }
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
                if let Some((bound, t)) = &mut slot.1 {
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
                    .filter(|(_, (_, b))| {
                        b.is_some_and(|(c, t)| t != u64::MAX && !active.contains(&c))
                    })
                    .min_by_key(|(_, (_, b))| b.expect("filtered").1)
                    .map(|(i, _)| i)
                    .expect("at least one evictable binding")
            });
        let (phys, prev) = kv.bindings[slot_idx];
        kv.bindings[slot_idx].1 = Some((cid, tick));
        if let Some((evicted, _)) = prev {
            kv.evictions += 1;
            self.cubicles[evicted.index()].key = PARKED_KEY;
            // all pages currently tagged with the physical key are parked;
            // trap-and-map will lazily fault them back in for whoever is
            // authorised (each retag at pkey_mprotect cost)
            for page in self.machine.pages_with_key(phys) {
                self.machine
                    .set_page_key(page.base(), PARKED_KEY)
                    .expect("page exists");
            }
        }
        self.cubicles[cid.index()].key = phys;
    }
}
