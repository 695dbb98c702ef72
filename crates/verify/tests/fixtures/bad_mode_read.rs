// Fixture: a component that reads the isolation mode (two sites).
// Never compiled; fed to the mode-seam pass as a component file.

fn backend_rw(sys: &mut System, len: usize) -> usize {
    let packet = match sys.mode() {
        IsolationMode::Ipc(_) => 4096,
        _ => usize::MAX,
    };
    packet.min(len)
}

fn pwrite_sync(mode: IsolationMode) -> bool {
    mode.mpk_active()
}
