//! The kernel invariant auditor: `System::audit()`.
//!
//! The loader verifies a component *before* it runs (forbidden-instruction
//! scan, W^X mapping, builder signatures — paper §5.4). The auditor is the
//! complementary *runtime* check: it walks a snapshot of machine + kernel
//! state and verifies that the global isolation invariants still hold
//! after any sequence of cross-calls, trap-and-map resolutions, window
//! operations and key-pool evictions. Harnesses run it at scenario end;
//! the test suite runs it after every step of randomized scenarios.
//!
//! Invariant classes checked:
//!
//! * **W^X** — no mapped page is simultaneously writable and executable,
//!   and no page the monitor recorded as [`RegionType::Code`] is writable
//!   at all (the loader flips code pages to execute-only after copy-in);
//! * **causal tag consistency** (§5.6) — every page's MPK key matches the
//!   holder recorded by the monitor (owner, or the peer trap-and-map last
//!   admitted), the parked key, or the pair key of a live window share
//!   that covers the page and whose pair includes the holder (DESIGN
//!   §6l); a non-owner holder must be justified by a window grant;
//!   machine page table and monitor page metadata cover the same pages;
//! * **window ranges** — every range published in a window descriptor
//!   covers only pages owned by the window's cubicle;
//! * **stack guards** — the unmapped guard pages below and above each
//!   cubicle stack are still unmapped, and the stack has not overflowed
//!   its region;
//! * **key uniqueness** — each key a cubicle or a pair holds has one
//!   holder, which the key pool binds it to, one key per pair (a
//!   read-only pair is not the read-write pair of the same cubicles),
//!   and each member holds exactly the rights its share grants (a
//!   load-only right lives nowhere else, DESIGN §6s); the pool
//!   binds no other key and never the parked key, which parked and
//!   quarantined cubicles carry;
//! * **quarantine** — a quarantined cubicle is fully torn down: it owns
//!   and holds no pages, publishes no windows, is one of no pair share,
//!   carries the parked key and has no stack;
//! * **concurrency** — the monitor's lock discipline held: every lock's
//!   recorded critical sections are pairwise non-overlapping in simulated
//!   time, and each cubicle's re-entrancy stack pool is consistent (slot 0
//!   mirrors the primary stack, pooled stacks are owned `Stack` regions
//!   with intact guards, live slots match in-flight frames, quarantined
//!   cubicles have no pool);
//! * **sanitizer** — when CubicleSan is enabled
//!   ([`crate::SystemConfig::race_detection`]), its history is clean: no
//!   data races, no lock-order cycle, no Eraser lockset violations.
//!   Silent (like any disabled subsystem) when detection is off.

use crate::cubicle::RegionType;
use crate::system::{Binding, MonitorLock, System, PARKED_KEY};
use cubicle_mpk::{pages_covering, KeyRights, ProtKey, VAddr, NUM_KEYS, PAGE_SIZE};
use std::fmt;

/// The invariant class a finding belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InvariantClass {
    /// A page is writable and executable, or a code page is writable.
    WriteExecute,
    /// A page's MPK key disagrees with the monitor's holder record, a
    /// non-owner holder has no justifying window, or the machine page
    /// table and the monitor metadata disagree about what is mapped.
    TagConsistency,
    /// A window descriptor range covers a page its cubicle does not own.
    WindowRange,
    /// A stack guard page is mapped, or a stack overflowed its region.
    StackGuard,
    /// Two cubicles hold the same MPK key.
    KeyUniqueness,
    /// A quarantined cubicle still owns resources (pages, windows, a
    /// stack or a live key) that [`System::quarantine`] must reclaim.
    Quarantine,
    /// The multi-core lock/ownership discipline broke: overlapping
    /// critical sections on a monitor lock, or an inconsistent
    /// re-entrancy stack pool.
    Concurrency,
    /// CubicleSan (when enabled) recorded a data race, a lock-order
    /// cycle or an Eraser lockset violation.
    Sanitizer,
}

impl fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvariantClass::WriteExecute => "w^x",
            InvariantClass::TagConsistency => "tag-consistency",
            InvariantClass::WindowRange => "window-range",
            InvariantClass::StackGuard => "stack-guard",
            InvariantClass::KeyUniqueness => "key-uniqueness",
            InvariantClass::Quarantine => "quarantine",
            InvariantClass::Concurrency => "concurrency",
            InvariantClass::Sanitizer => "sanitizer",
        })
    }
}

/// One invariant violation discovered by [`System::audit`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditFinding {
    /// Which invariant class fired.
    pub class: InvariantClass,
    /// Human-readable description with addresses/cubicles involved.
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.class, self.detail)
    }
}

/// Structured result of one [`System::audit`] walk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditReport {
    /// All violations, in discovery order (empty when the state is
    /// consistent).
    pub findings: Vec<AuditFinding>,
    /// Mapped pages examined.
    pub pages_checked: usize,
    /// Window descriptors examined.
    pub windows_checked: usize,
    /// Cubicles examined.
    pub cubicles_checked: usize,
}

impl AuditReport {
    /// `true` when no invariant fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings belonging to `class`.
    pub fn of_class(&self, class: InvariantClass) -> impl Iterator<Item = &AuditFinding> {
        self.findings.iter().filter(move |f| f.class == class)
    }

    /// Panics with the full findings list unless the report is clean.
    /// Harness- and test-side convenience.
    ///
    /// # Panics
    ///
    /// When any invariant fired; the message lists every finding.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "kernel audit failed ({context}): {} finding(s)\n{self}",
            self.findings.len()
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} finding(s) over {} pages, {} windows, {} cubicles",
            self.findings.len(),
            self.pages_checked,
            self.windows_checked,
            self.cubicles_checked
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

impl System {
    /// Walks machine + kernel state and checks the global isolation
    /// invariants (see the module documentation for the classes).
    /// Read-only and free of simulated cycles: auditing is an observer,
    /// like tracing, so it can run mid-scenario without perturbing
    /// measurements.
    pub fn audit(&self) -> AuditReport {
        let mut findings = Vec::new();

        // ── pass 1: every mapped page ────────────────────────────────
        let mapped = self.machine.mapped_pages();
        for &(page, entry) in &mapped {
            if entry.flags.can_write() && entry.flags.can_execute() {
                findings.push(AuditFinding {
                    class: InvariantClass::WriteExecute,
                    detail: format!("page {} is writable and executable ({})", page, entry.flags),
                });
            }
            let Some(meta) = self.page_meta.get(&page) else {
                findings.push(AuditFinding {
                    class: InvariantClass::TagConsistency,
                    detail: format!("mapped page {page} has no monitor metadata"),
                });
                continue;
            };
            if meta.region == RegionType::Code && entry.flags.can_write() {
                findings.push(AuditFinding {
                    class: InvariantClass::WriteExecute,
                    detail: format!(
                        "code page {} of {} is writable ({})",
                        page,
                        self.cubicles[meta.owner.index()].name,
                        entry.flags
                    ),
                });
            }
            let holder = &self.cubicles[meta.holder.index()];
            // A parked page is a legitimate state for any page: no PKRU
            // set enables its key.
            if entry.key != holder.key
                && entry.key != PARKED_KEY
                && self
                    .shared_home_key(meta.owner, meta.holder, page)
                    .is_none_or(|(key, _)| key != entry.key)
            {
                findings.push(AuditFinding {
                    class: InvariantClass::TagConsistency,
                    detail: format!(
                        "page {} tagged {} but holder {} expects {}",
                        page, entry.key, holder.name, holder.key
                    ),
                });
            }
            if self.holders_need_windows() && meta.holder != meta.owner && meta.via.is_none() {
                findings.push(AuditFinding {
                    class: InvariantClass::TagConsistency,
                    detail: format!(
                        "page {} held by {} but owned by {} with no justifying window",
                        page,
                        holder.name,
                        self.cubicles[meta.owner.index()].name
                    ),
                });
            }
        }
        // The reverse direction: monitor metadata for pages the machine
        // no longer maps would let trap-and-map hand out dead addresses.
        // Sorted by page so findings render in the same order run to run
        // (the determinism lint caught this iterating the map directly).
        let mut stale: Vec<_> = self
            .page_meta
            .iter() // verify: order-ok — sorted before reporting below
            .filter(|(&page, _)| self.machine.page_entry(page.base()).is_none())
            .map(|(&page, meta)| (page, meta.owner))
            .collect();
        stale.sort_unstable_by_key(|&(page, _)| page);
        for (page, owner) in stale {
            findings.push(AuditFinding {
                class: InvariantClass::TagConsistency,
                detail: format!(
                    "monitor metadata for unmapped page {} (owner {})",
                    page,
                    self.cubicles[owner.index()].name
                ),
            });
        }

        // ── pass 2: window descriptors ───────────────────────────────
        let mut windows_checked = 0;
        for c in &self.cubicles {
            for w in &c.windows {
                windows_checked += 1;
                for r in w.ranges() {
                    for page in pages_covering(r.start, r.len) {
                        match self.page_meta.get(&page) {
                            Some(m) if m.owner == c.id => {}
                            Some(m) => findings.push(AuditFinding {
                                class: InvariantClass::WindowRange,
                                detail: format!(
                                    "{} of {} covers page {} owned by {}",
                                    w.id(),
                                    c.name,
                                    page,
                                    self.cubicles[m.owner.index()].name
                                ),
                            }),
                            None => findings.push(AuditFinding {
                                class: InvariantClass::WindowRange,
                                detail: format!(
                                    "{} of {} covers untracked page {}",
                                    w.id(),
                                    c.name,
                                    page
                                ),
                            }),
                        }
                    }
                }
            }
        }

        // ── pass 3: stack guards ─────────────────────────────────────
        for c in &self.cubicles {
            if c.stack_len == 0 {
                continue;
            }
            let above = c.stack_base + c.stack_len;
            if self.machine.page_entry(above).is_some() {
                findings.push(AuditFinding {
                    class: InvariantClass::StackGuard,
                    detail: format!("guard page above {}'s stack is mapped ({above})", c.name),
                });
            }
            if c.stack_base.raw() >= PAGE_SIZE as u64 {
                let below = VAddr::new(c.stack_base.raw() - PAGE_SIZE as u64);
                if self.machine.page_entry(below).is_some() {
                    findings.push(AuditFinding {
                        class: InvariantClass::StackGuard,
                        detail: format!("guard page below {}'s stack is mapped ({below})", c.name),
                    });
                }
            }
            if c.stack_used > c.stack_len {
                findings.push(AuditFinding {
                    class: InvariantClass::StackGuard,
                    detail: format!(
                        "{}'s stack overflowed: {} used of {} bytes",
                        c.name, c.stack_used, c.stack_len
                    ),
                });
            }
        }

        // ── pass 4: key uniqueness ───────────────────────────────────
        // Each key a cubicle or a pair holds has one holder, the key
        // pool's binding for it; parked and quarantined cubicles carry
        // the parked key, which is no key and which the pool never binds.
        let shares = &self.keys.shares;
        let pair = |s: &crate::system::PairShare| {
            format!(
                "{}+{}",
                self.cubicles[s.owner.index()].name,
                self.cubicles[s.peer.index()].name
            )
        };
        let name = |b: Option<Binding>| match b {
            Some(Binding::Cubicle(c)) => self.cubicles[c.index()].name.clone(),
            Some(Binding::Pair) => "the holders of a pair key".to_string(),
            None => "no one".to_string(),
        };
        let mut held = [None; NUM_KEYS];
        let cubicles = self.cubicles.iter().skip(1).filter(|c| c.key != PARKED_KEY);
        let holders = cubicles.map(|c| (c.key, Binding::Cubicle(c.id)));
        for (key, b) in holders.chain(shares.iter().map(|s| (s.key, Binding::Pair))) {
            let first = *held[usize::from(key.raw())].get_or_insert(b);
            if first != b {
                findings.push(AuditFinding {
                    class: InvariantClass::KeyUniqueness,
                    detail: format!(
                        "{} and {} both hold {key}",
                        name(Some(first)),
                        name(Some(b))
                    ),
                });
            }
        }
        for key in ProtKey::all().skip(1) {
            let (bound, holder) = (self.keys.binding(key), held[usize::from(key.raw())]);
            if bound != holder {
                findings.push(AuditFinding {
                    class: InvariantClass::KeyUniqueness,
                    detail: format!(
                        "the key pool binds {key} to {}, but {} holds it",
                        name(bound),
                        name(holder)
                    ),
                });
            }
        }
        // One key per pair: a read-write pair either way round, a
        // read-only one as (owner, peer).
        for (i, s) in shares.iter().enumerate() {
            if let Some(t) = shares[..i]
                .iter()
                .find(|t| (t.key == s.key) != (t.pair() == s.pair()))
            {
                findings.push(AuditFinding {
                    class: InvariantClass::KeyUniqueness,
                    detail: format!(
                        "pairs {} ({}) and {} ({}) do not hold one key per pair",
                        pair(t),
                        t.key,
                        pair(s),
                        s.key
                    ),
                });
            }
        }
        // Each member holds the rights its share grants on the pair key:
        // the owner read-write, the peer read-write or read-only.
        for s in shares {
            for (member, rights) in [(s.owner, KeyRights::ReadWrite), (s.peer, s.rights)] {
                let held = self.pkru_for(member).rights(s.key);
                if held != rights {
                    findings.push(AuditFinding {
                        class: InvariantClass::KeyUniqueness,
                        detail: format!(
                            "{} holds {held:?} on {} of pair {}, which grants it {rights:?}",
                            self.cubicles[member.index()].name,
                            s.key,
                            pair(s)
                        ),
                    });
                }
            }
        }

        // ── pass 5: quarantine teardown ──────────────────────────────
        for c in self.cubicles.iter().filter(|c| c.is_quarantined()) {
            let owned = self.page_meta.values().filter(|m| m.owner == c.id).count();
            if owned > 0 {
                findings.push(AuditFinding {
                    class: InvariantClass::Quarantine,
                    detail: format!("quarantined {} still owns {owned} page(s)", c.name),
                });
            }
            let held = self
                .page_meta
                .values()
                .filter(|m| m.holder == c.id && m.owner != c.id)
                .count();
            if held > 0 {
                findings.push(AuditFinding {
                    class: InvariantClass::Quarantine,
                    detail: format!("quarantined {} still holds {held} foreign page(s)", c.name),
                });
            }
            if let Some(s) = self.keys.shares.iter().find(|s| s.has(c.id)) {
                findings.push(AuditFinding {
                    class: InvariantClass::Quarantine,
                    detail: format!(
                        "quarantined {} still shares {} of {} under pair key {}",
                        c.name,
                        s.wid,
                        self.cubicles[s.owner.index()].name,
                        s.key
                    ),
                });
            }
            if !c.windows.is_empty() {
                findings.push(AuditFinding {
                    class: InvariantClass::Quarantine,
                    detail: format!(
                        "quarantined {} still publishes {} window(s)",
                        c.name,
                        c.windows.len()
                    ),
                });
            }
            if c.key != PARKED_KEY {
                findings.push(AuditFinding {
                    class: InvariantClass::Quarantine,
                    detail: format!("quarantined {} still carries live {}", c.name, c.key),
                });
            }
            if c.stack_len != 0 {
                findings.push(AuditFinding {
                    class: InvariantClass::Quarantine,
                    detail: format!("quarantined {} still has a mapped stack", c.name),
                });
            }
        }

        // ── pass 6: concurrency (lock sections + stack pools) ────────
        for lock in MonitorLock::all() {
            let st = &self.locks.locks[lock as usize];
            let mut prev_end = 0u64;
            for &(start, end) in &st.sections {
                if start < prev_end {
                    findings.push(AuditFinding {
                        class: InvariantClass::Concurrency,
                        detail: format!(
                            "{} lock sections overlap: [{start}, {end}) begins before \
                             the previous section ended at {prev_end}",
                            lock.name()
                        ),
                    });
                }
                if end < start {
                    findings.push(AuditFinding {
                        class: InvariantClass::Concurrency,
                        detail: format!(
                            "{} lock section [{start}, {end}) ends before it starts",
                            lock.name()
                        ),
                    });
                }
                prev_end = prev_end.max(end);
            }
            if st.free_at < prev_end {
                findings.push(AuditFinding {
                    class: InvariantClass::Concurrency,
                    detail: format!(
                        "{} lock free_at {} predates its last recorded section end {prev_end}",
                        lock.name(),
                        st.free_at
                    ),
                });
            }
        }
        for c in &self.cubicles {
            if c.is_quarantined() {
                if !c.stack_pool.is_empty() {
                    findings.push(AuditFinding {
                        class: InvariantClass::Concurrency,
                        detail: format!(
                            "quarantined {} still has {} pooled stack slot(s)",
                            c.name,
                            c.stack_pool.len()
                        ),
                    });
                }
                continue;
            }
            if c.stack_pool.is_empty() {
                continue;
            }
            let s0 = c.stack_pool[0];
            if s0.base != c.stack_base || s0.len != c.stack_len {
                findings.push(AuditFinding {
                    class: InvariantClass::Concurrency,
                    detail: format!(
                        "{}'s stack-pool slot 0 ({}, {} bytes) does not mirror the \
                         primary stack ({}, {} bytes)",
                        c.name, s0.base, s0.len, c.stack_base, c.stack_len
                    ),
                });
            }
            for (i, s) in c.stack_pool.iter().enumerate().skip(1) {
                for page in pages_covering(s.base, s.len) {
                    match self.page_meta.get(&page) {
                        Some(m) if m.owner == c.id && m.region == RegionType::Stack => {}
                        Some(m) => findings.push(AuditFinding {
                            class: InvariantClass::Concurrency,
                            detail: format!(
                                "{}'s pooled stack slot {i} page {} is {:?} owned by {}",
                                c.name,
                                page,
                                m.region,
                                self.cubicles[m.owner.index()].name
                            ),
                        }),
                        None => findings.push(AuditFinding {
                            class: InvariantClass::Concurrency,
                            detail: format!(
                                "{}'s pooled stack slot {i} page {} is untracked",
                                c.name, page
                            ),
                        }),
                    }
                }
                let above = s.base + s.len;
                if self.machine.page_entry(above).is_some() {
                    findings.push(AuditFinding {
                        class: InvariantClass::Concurrency,
                        detail: format!(
                            "guard page above {}'s pooled stack slot {i} is mapped ({above})",
                            c.name
                        ),
                    });
                }
            }
            let live = c
                .stack_pool
                .iter()
                .filter(|s| s.busy_until == u64::MAX)
                .count();
            let frames = self.live_pool_frames(c.id);
            if live != frames {
                findings.push(AuditFinding {
                    class: InvariantClass::Concurrency,
                    detail: format!(
                        "{} has {live} live pooled stack slot(s) but {frames} in-flight \
                         frame(s) holding one",
                        c.name
                    ),
                });
            }
        }

        // ── pass 7: sanitizer clean (CubicleSan) ─────────────────────
        // A run without detection has no detector history, so this pass
        // is silent, like any audit pass over a disabled subsystem.
        for r in self.race_reports() {
            findings.push(AuditFinding {
                class: InvariantClass::Sanitizer,
                detail: r.to_string(),
            });
        }
        if let Some(cycle) = self.lockorder_cycle() {
            findings.push(AuditFinding {
                class: InvariantClass::Sanitizer,
                detail: format!("lock-order cycle: {cycle}"),
            });
        }
        for v in self.lockset_violations() {
            findings.push(AuditFinding {
                class: InvariantClass::Sanitizer,
                detail: v,
            });
        }

        AuditReport {
            findings,
            pages_checked: mapped.len(),
            windows_checked,
            cubicles_checked: self.cubicles.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_and_finding_display() {
        let f = AuditFinding {
            class: InvariantClass::WriteExecute,
            detail: "page p17 is writable and executable (rwx)".into(),
        };
        assert_eq!(
            f.to_string(),
            "[w^x] page p17 is writable and executable (rwx)"
        );
        assert_eq!(
            InvariantClass::TagConsistency.to_string(),
            "tag-consistency"
        );
        assert_eq!(InvariantClass::WindowRange.to_string(), "window-range");
        assert_eq!(InvariantClass::StackGuard.to_string(), "stack-guard");
        assert_eq!(InvariantClass::KeyUniqueness.to_string(), "key-uniqueness");
        assert_eq!(InvariantClass::Quarantine.to_string(), "quarantine");
        assert_eq!(InvariantClass::Concurrency.to_string(), "concurrency");
        assert_eq!(InvariantClass::Sanitizer.to_string(), "sanitizer");
    }

    #[test]
    fn report_render_and_filters() {
        let report = AuditReport {
            findings: vec![
                AuditFinding {
                    class: InvariantClass::StackGuard,
                    detail: "guard mapped".into(),
                },
                AuditFinding {
                    class: InvariantClass::KeyUniqueness,
                    detail: "dup".into(),
                },
            ],
            pages_checked: 10,
            windows_checked: 2,
            cubicles_checked: 3,
        };
        assert!(!report.is_clean());
        assert_eq!(report.of_class(InvariantClass::StackGuard).count(), 1);
        assert_eq!(report.of_class(InvariantClass::WriteExecute).count(), 0);
        let text = report.to_string();
        assert!(text.contains("2 finding(s) over 10 pages, 2 windows, 3 cubicles"));
        assert!(text.contains("[stack-guard] guard mapped"));
    }

    #[test]
    #[should_panic(expected = "kernel audit failed (unit)")]
    fn assert_clean_panics_with_context() {
        AuditReport {
            findings: vec![AuditFinding {
                class: InvariantClass::WriteExecute,
                detail: "boom".into(),
            }],
            pages_checked: 1,
            windows_checked: 0,
            cubicles_checked: 1,
        }
        .assert_clean("unit");
    }

    #[test]
    fn fresh_system_audits_clean() {
        let sys = crate::System::new(crate::IsolationMode::Full);
        let report = sys.audit();
        report.assert_clean("fresh system");
        assert_eq!(report.pages_checked, 0);
        assert_eq!(report.cubicles_checked, 1); // the monitor
    }
}
