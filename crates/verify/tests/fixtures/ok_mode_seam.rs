// Fixture: a component that asks the seam and never reads the mode.
// Never compiled; fed to the mode-seam pass as a component file. Its
// own `mode` (a journal mode) is not the isolation mode.

struct Pager {
    mode: JournalMode,
}

impl Pager {
    fn mode(&self) -> JournalMode {
        self.mode
    }
}

fn backend_rw(sys: &mut System, pager: &Pager, len: usize) -> usize {
    // sys.mode() and mpk_active in a comment do not count
    let doc = "sys.mode().mpk_active()";
    if pager.mode() == JournalMode::Wal && sys.share_traps() {
        return doc.len();
    }
    sys.max_transfer().min(len)
}
