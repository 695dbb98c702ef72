// Fixture: a non-root monitor file with an unlocked page-metadata write.
// Never compiled; fed to the lock-discipline pass through the module
// walk, not as a file named on its own.

impl System {
    fn record_owner(&mut self, addr: VAddr, owner: CubicleId) {
        if let Some(m) = self.page_meta.get_mut(&addr.page()) {
            m.owner = owner;
        }
    }
}
