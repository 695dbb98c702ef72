//! The `cubicle-verify` CLI: the trusted builder's gate.
//!
//! Runs the source-level isolation lint + dependency-DAG check over the
//! workspace, then smoke-tests the runtime side (loader rejection and
//! `System::audit`) on a throwaway kernel. Exits non-zero on any finding,
//! which is what makes the CI job gating.

use cubicle_core::{ComponentImage, CubicleError, Incident, IsolationMode, System};
use cubicle_mpk::insn::{CodeImage, Insn};
use std::process::ExitCode;

struct Probe;
cubicle_core::impl_component!(Probe);

/// Exercises the runtime half of the verifier on a scratch kernel: the
/// loader must reject a forbidden image (recording the exhaustive scan
/// in the incident log) and the invariant auditor must pass on the
/// resulting state.
fn kernel_self_check() -> Result<(), String> {
    let mut sys = System::new(IsolationMode::Full);

    let evil = ComponentImage::new(
        "EVIL",
        CodeImage::from_insns(&[Insn::Plain { len: 8 }, Insn::Wrpkru, Insn::Syscall]),
    );
    match sys.load(evil, Box::new(Probe)) {
        Err(CubicleError::ForbiddenInstruction(_)) => {}
        other => return Err(format!("loader accepted a forbidden image: {other:?}")),
    }
    let rejections: Vec<_> = sys
        .incidents()
        .iter()
        .filter(|i| matches!(i, Incident::LoadRejected { .. }))
        .collect();
    if rejections.len() != 1 {
        return Err(format!(
            "expected one loader rejection incident, got {rejections:?}"
        ));
    }
    if sys.stats().loads_rejected != 1 || sys.stats().forbidden_insns != 2 {
        return Err(format!(
            "loader audit counters wrong: {} rejected / {} occurrences",
            sys.stats().loads_rejected,
            sys.stats().forbidden_insns
        ));
    }

    let clean = ComponentImage::new("PROBE", CodeImage::plain(256));
    sys.load(clean, Box::new(Probe))
        .map_err(|e| format!("loader refused a clean image: {e:?}"))?;

    let audit = sys.audit();
    if !audit.is_clean() {
        return Err(format!(
            "invariant auditor failed on a fresh kernel:\n{audit}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let root = cubicle_verify::workspace_root();
    println!("cubicle-verify: workspace {}", root.display());

    let report = match cubicle_verify::run_all(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cubicle-verify: I/O error while scanning: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{report}");

    match kernel_self_check() {
        Ok(()) => println!("kernel self-check: loader rejection + invariant audit OK"),
        Err(e) => {
            eprintln!("kernel self-check FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }

    if report.is_clean() {
        println!("cubicle-verify: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cubicle-verify: FAIL ({} finding(s))",
            report.findings.len()
        );
        ExitCode::FAILURE
    }
}
