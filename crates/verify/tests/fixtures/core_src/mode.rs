// Fixture: the mode's own definition may call its predicates.
// Never compiled; fed to the mode-seam pass through `check_core`.

impl IsolationMode {
    pub(crate) const fn acls_active(self) -> bool {
        matches!(self, IsolationMode::Full)
    }
}

fn ladder() {
    assert!(IsolationMode::Full.acls_active());
}
