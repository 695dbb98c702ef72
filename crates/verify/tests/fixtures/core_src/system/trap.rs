// Fixture: a kernel file outside the seam with one planted mode read.
// Never compiled; fed to the mode-seam pass through `check_core`.

impl System {
    fn resolve_fault_locked(&mut self, fault: Fault) -> Result<()> {
        if !self.mode.mpk_active() {
            return Err(self.deny_raw_fault(fault));
        }
        // Asking the seam, or reading a config's mode, is fine.
        if self.window_ops_charged() && config.mode == IsolationMode::Full {
            return Ok(());
        }
        Ok(())
    }
}
