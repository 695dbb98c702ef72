// Fixture: the isolation seam may read the mode.
// Never compiled; fed to the mode-seam pass through `check_core`.

impl System {
    pub(super) fn window_ops_charged(&self) -> bool {
        self.mode.acls_active()
    }
}
