//! The MPK key pool: one draw/release pair for the loader, the
//! microreboot and quarantine, lazy binding of parked cubicles (paper
//! §8's tag virtualisation), and the pair keys of windows shared with
//! one peer, read-write or read-only.

use super::observe::PageOp;
use super::System;
use crate::error::{CubicleError, Result};
use crate::ids::{CubicleId, WindowId};
use cubicle_mpk::{KeyRights, ProtKey};

/// The parked key, carried by quarantined cubicles and isolated ones
/// waiting for a key: never bound and enabled in no PKRU set, so parked
/// pages are inaccessible until trap-and-map faults them back in.
pub const PARKED_KEY: ProtKey = ProtKey::new(15).expect("MPK has 16 keys");

/// The MPK keys the monitor binds: 1–14 (key 0 is the monitor's, 15 is
/// [`PARKED_KEY`]). The loader and the microreboot draw from it and
/// quarantine releases into it. An isolated cubicle that finds no free
/// key starts parked and binds on entry by eviction, each retag of the
/// evicted pages at full `pkey_mprotect` cost (paper §8: "CubicleOS
/// could use existing tag virtualisation mechanisms [libmpk]"). The
/// first [`PairShare`] of a pair pins a free key for it (never by
/// eviction); the end of its last share returns it. A read-write pair is
/// unordered; a read-only one is (owner, peer), so it never shares a key
/// with the read-write pair of the same two cubicles.
pub(crate) struct KeyPool {
    /// physical key → what it is bound to.
    bindings: Vec<(ProtKey, Option<Binding>)>,
    /// Entries so far; a cubicle's `last_entered` is a reading of it.
    tick: u64,
    /// Evictions performed (statistics).
    evictions: u64,
    /// Live pair shares, in the order they were made (§6l of DESIGN).
    pub(crate) shares: Vec<PairShare>,
}

/// What a physical key of the pool is bound to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Binding {
    /// A cubicle's own key, pinned while the cubicle is shared.
    Cubicle(CubicleId),
    /// The pair key of a pair with at least one live [`PairShare`],
    /// pinned until the last one ends.
    Pair,
}

/// One persistent window its owner shares with exactly one peer under
/// the pair key k(owner, peer) (`System::window_share`): both members'
/// PKRU sets enable `key`, so neither traps on the window's pages. The
/// owner's rights are read-write; the peer's are `rights`, read-only for
/// a `System::share_read_only` (the key's write-disable bit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PairShare {
    pub(crate) owner: CubicleId,
    pub(crate) peer: CubicleId,
    pub(crate) wid: WindowId,
    pub(crate) key: ProtKey,
    pub(crate) rights: KeyRights,
}

impl PairShare {
    /// Is `cid` one of the pair?
    pub(crate) fn has(&self, cid: CubicleId) -> bool {
        self.owner == cid || self.peer == cid
    }

    /// `cid`'s rights on the pair key: read-write for the owner, the
    /// share's rights for the peer, none for anyone else.
    pub(crate) fn rights_of(&self, cid: CubicleId) -> KeyRights {
        if self.owner == cid {
            KeyRights::ReadWrite
        } else if self.peer == cid {
            self.rights
        } else {
            KeyRights::None
        }
    }

    /// The pair its key is bound to ([`pair_of`]).
    pub(crate) fn pair(&self) -> Pair {
        pair_of(self.owner, self.peer, self.rights)
    }
}

/// What a pair key is bound to: two cubicles and the peer's rights.
pub(crate) type Pair = (CubicleId, CubicleId, KeyRights);

/// The pair a share from `owner` to `peer` with `rights` binds its key
/// to: the unordered members of a read-write share, (owner, peer) of a
/// read-only one.
pub(crate) fn pair_of(owner: CubicleId, peer: CubicleId, rights: KeyRights) -> Pair {
    match rights {
        KeyRights::ReadWrite => (owner.min(peer), owner.max(peer), rights),
        rights => (owner, peer, rights),
    }
}

impl KeyPool {
    pub(super) fn new() -> KeyPool {
        KeyPool {
            bindings: (1..PARKED_KEY.raw())
                .map(|k| (ProtKey::new(k).expect("in range"), None))
                .collect(),
            tick: 0,
            evictions: 0,
            shares: Vec::new(),
        }
    }

    /// What `key` is bound to.
    pub(crate) fn binding(&self, key: ProtKey) -> Option<Binding> {
        let slot = self.bindings.iter().find(|(k, _)| *k == key);
        slot.and_then(|s| s.1)
    }

    /// Binds the lowest free key to `cid`. With the pool full, an
    /// isolated cubicle starts parked (it binds on entry); a shared
    /// cubicle must stay reachable from every PKRU set, so it fails.
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfKeys`] for a shared cubicle and a full pool.
    pub(super) fn draw(&mut self, cid: CubicleId, shared: bool) -> Result<ProtKey> {
        match self.bindings.iter_mut().find(|(_, b)| b.is_none()) {
            Some(slot) => {
                slot.1 = Some(Binding::Cubicle(cid));
                Ok(slot.0)
            }
            None if shared => Err(CubicleError::OutOfKeys),
            None => Ok(PARKED_KEY),
        }
    }

    /// Returns `key` to the pool (a no-op for the parked key).
    pub(super) fn release(&mut self, key: ProtKey) {
        if let Some(slot) = self.bindings.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = None;
        }
    }

    /// The live key of `pair`.
    fn key_of(&self, pair: Pair) -> Option<ProtKey> {
        self.shares.iter().find(|s| s.pair() == pair).map(|s| s.key)
    }

    /// The live read-write pair key of `a` and `b`, in either direction.
    pub(crate) fn pair_key(&self, a: CubicleId, b: CubicleId) -> Option<ProtKey> {
        self.key_of(pair_of(a, b, KeyRights::ReadWrite))
    }

    /// The live read-only pair key `owner` shares pages with `peer`
    /// under.
    pub(crate) fn read_only_key(&self, owner: CubicleId, peer: CubicleId) -> Option<ProtKey> {
        self.key_of(pair_of(owner, peer, KeyRights::ReadOnly))
    }

    /// Could a new share of `pair` get a key now: the pair's live one,
    /// or a free one to pin? The one answer behind [`KeyPool::share`]
    /// and `System::share_read_only`'s refusal.
    pub(super) fn can_bind(&self, pair: Pair) -> bool {
        self.key_of(pair).is_some() || self.can_pin(1)
    }

    /// Records that `owner` shares `wid` with `peer`, who gets `rights`
    /// on it, and returns the pair's key — the live one, or the lowest
    /// free key, pinned. `None` when the share already exists or the
    /// pair cannot bind a key ([`KeyPool::can_bind`]): the window then
    /// stays merely open.
    pub(super) fn share(
        &mut self,
        owner: CubicleId,
        peer: CubicleId,
        wid: WindowId,
        rights: KeyRights,
    ) -> Option<ProtKey> {
        let pair = pair_of(owner, peer, rights);
        let exists = self
            .shares
            .iter()
            .any(|s| s.owner == owner && s.peer == peer && s.wid == wid);
        if exists || !self.can_bind(pair) {
            return None;
        }
        let key = self.key_of(pair).unwrap_or_else(|| {
            let slot = self.bindings.iter_mut().find(|(_, b)| b.is_none());
            let slot = slot.expect("can_bind saw a free key");
            slot.1 = Some(Binding::Pair);
            slot.0
        });
        let share = PairShare {
            owner,
            peer,
            wid,
            key,
            rights,
        };
        self.shares.push(share);
        Some(share.key)
    }

    /// Keys not bound to anything (statistics, leak tests).
    pub(super) fn free_keys(&self) -> usize {
        self.bindings.iter().filter(|(_, b)| b.is_none()).count()
    }

    /// Could `n` more pairs each pin a key of their own now?
    pub(super) fn can_pin(&self, n: usize) -> bool {
        self.free_keys() >= n
    }

    /// Ends every share `ends` selects and returns them; a pair whose
    /// last share ended gives its key back to the pool.
    pub(super) fn unshare(&mut self, ends: impl Fn(&PairShare) -> bool) -> Vec<PairShare> {
        let ended: Vec<PairShare> = self.shares.extract_if(.., |s| ends(s)).collect();
        for s in &ended {
            if self.key_of(s.pair()).is_none() {
                self.release(s.key);
            }
        }
        ended
    }
}

impl System {
    /// Number of key-binding evictions performed (0 while the pool never
    /// ran full).
    pub fn key_evictions(&self) -> u64 {
        self.keys.evictions
    }

    /// Keys of the pool bound to nothing: neither a cubicle nor a pair.
    pub fn free_keys(&self) -> usize {
        self.keys.free_keys()
    }

    /// Stamps `cid` as just entered and binds it if it is parked (a
    /// quarantined cubicle stays parked).
    ///
    /// # Errors
    ///
    /// [`CubicleError::OutOfKeys`] when no binding is evictable.
    #[inline]
    pub(super) fn ensure_bound(&mut self, cid: CubicleId) -> Result<()> {
        self.keys.tick += 1;
        let c = &mut self.cubicles[cid.index()];
        c.last_entered = self.keys.tick;
        if c.key != PARKED_KEY || c.is_quarantined() {
            return Ok(());
        }
        self.bind_parked(cid)
    }

    /// Binds parked `cid` to the lowest free key, or else to the key of
    /// the cubicle entered least recently that is neither shared nor on
    /// the call stack, parking that cubicle's pages: trap-and-map faults
    /// them back in for whoever is authorised.
    #[cold]
    fn bind_parked(&mut self, cid: CubicleId) -> Result<()> {
        let rank = |b| match b {
            None => Some((false, 0)),
            Some(Binding::Cubicle(c)) => {
                let c = &self.cubicles[c.index()];
                let running = self.call_stack.iter().any(|f| f.cubicle == c.id);
                (!c.shared && !running).then_some((true, c.last_entered))
            }
            Some(Binding::Pair) => None,
        };
        let slots = self.keys.bindings.iter().enumerate();
        let (_, slot) = slots
            .filter_map(|(i, &(_, b))| Some((rank(b)?, i)))
            .min()
            .ok_or(CubicleError::OutOfKeys)?;
        let (phys, prev) = self.keys.bindings[slot];
        self.keys.bindings[slot].1 = Some(Binding::Cubicle(cid));
        if let Some(Binding::Cubicle(evicted)) = prev {
            self.keys.evictions += 1;
            self.cubicles[evicted.index()].key = PARKED_KEY;
            for page in self.machine.pages_with_key(phys) {
                self.page_op(page.base(), PageOp::Retag(PARKED_KEY))
                    .expect("page exists");
            }
        }
        self.cubicles[cid.index()].key = phys;
        Ok(())
    }
}
