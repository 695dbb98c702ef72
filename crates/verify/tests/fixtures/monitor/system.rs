// Fixture: the root file of a monitor module split into submodules.
// Never compiled; its one mutation sits inside the matching lock scope,
// so the finding must come from the submodule file next to it.

mod trap;

impl System {
    fn map_fresh(&mut self, addr: VAddr) {
        let start = self.lock_acquire(MonitorLock::PageMeta);
        self.page_meta.insert(addr.page(), meta);
        self.lock_release(MonitorLock::PageMeta, start);
    }
}
