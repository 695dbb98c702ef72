//! `cubench` — the repository's benchmark: what isolation costs real
//! workloads, end to end and layer by layer.
//!
//! ```text
//! cubench run --workload <name> --seed <u64> [--seconds 10] [--trace <0|1|dir>] [--out <file.json>]
//! cubench diff <parent.json>... -- <change.json>...
//! ```
//!
//! A run drives one workload (`nginx-small`, `nginx-large`,
//! `sqlite-cached`, `sqlite-oscall`) in one single-threaded process,
//! twice over the same seeded op sequence: a Unikraft leg (the paper's
//! monolithic baseline, used only for the isolation tax) and a Full leg
//! (what the metrics describe). `--trace` adds a third, traced replay of
//! the Full leg's first session for the per-cubicle split. Every metric
//! is printed as `workload metric value unit`; the last line is the
//! JSON result, with the end-to-end metrics or, traced, the per-layer
//! ones. See `README.md` beside this file.

mod diff;
mod measure;
mod report;
mod sql;
mod stats;
mod web;
mod workload;

use cubicle_bench::scenario::UNIKRAFT_BOUNDARY_TAX;
use cubicle_core::IsolationMode;
use measure::{Leg, TraceOut, TraceTo};
use report::{Report, RunData};
use std::path::{Path, PathBuf};
use workload::{Kind, Workload, WEB_SESSION};

const USAGE: &str = "usage:
  cubench run --workload <name> --seed <u64> [--seconds 10] [--trace <0|1|dir>] [--out <file.json>]
  cubench diff <parent.json>... -- <change.json>...
workloads: nginx-small, nginx-large, sqlite-cached, sqlite-oscall";

/// How long a run measures, in seconds: `run_seconds` of `BENCHMARK.json`.
/// Each workload's op count is fixed and sized for it, so `--seconds`
/// may only name this value.
const RUN_SECONDS: u64 = 10;

/// Where `--trace 1` writes the observability artifacts.
const DEFAULT_TRACE_DIR: &str = "target/cubench-trace";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("diff") => diff::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut trace, mut out) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                if value.parse() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "--seconds must be {RUN_SECONDS}: the op counts are sized for it"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_TRACE_DIR)),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
        out,
    })
}

fn cmd_run(args: &[String]) -> i32 {
    let args = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    if cfg!(debug_assertions) {
        // debug builds cross-check the grant cache on every fault and
        // skip optimisation: their host times describe nothing shipped
        eprintln!("error: cubench measures release builds only (cargo run --release)");
        return 2;
    }
    measure::keep_heap_resident();
    let run = measure(
        args.workload,
        args.seed,
        args.workload.ops,
        args.trace.as_deref(),
    )
    .and_then(|data| Ok((data.report()?, data)));
    let (report, data) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} seed {}: {e}", args.workload.name, args.seed);
            return 1;
        }
    };
    print_report(&report, &data);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json() + "\n") {
            eprintln!("error: writing {}: {e}", path.display());
            return 1;
        }
    }
    match report.result_line(args.trace.is_some()) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn print_report(r: &Report, data: &RunData) {
    for m in r.end_to_end.iter().chain(&r.per_layer).chain(&r.extra) {
        println!("{} {} {} {}", r.workload, m.name, m.value, m.unit);
    }
    let w = data.workload;
    if let Some(x) = r.get("full_over_unikraft_x") {
        println!("# {}: Full/Unikraft {x:.3}x (paper: {})", w.name, w.paper);
    }
    let samples = data.full.samples.len();
    let block = samples.div_ceil(report::HOST_BLOCKS);
    println!(
        "# {}: {samples} Full-leg samples (sim p99 has {} beyond it); host timings over {} blocks of {block} (block p90 has {} beyond it)",
        w.name,
        samples / 100,
        report::HOST_BLOCKS,
        block / 10
    );
    if let Some((_, out)) = &data.traced {
        for (name, cycles, _) in &out.cubicles {
            if *cycles > 0 && !report::CUBICLES.contains(&name.as_str()) {
                println!(
                    "# {}: unlisted cubicle {name}: {cycles} self cycles",
                    w.name
                );
            }
        }
        println!(
            "# {}: traced window {} cycles; wrote {}",
            w.name,
            out.window,
            out.artifacts
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "# {}: kernel audits clean over {} sessions; {} of {} checked ops failed",
        w.name,
        data.full.setup_ns.len()
            + data.unikraft.setup_ns.len()
            + usize::from(data.traced.is_some()),
        r.failed,
        r.attempted
    );
}

/// Runs both legs of `w` over `ops` measured ops (and, with `trace`, the
/// traced replay of the Full leg's first session, its artifacts in that
/// directory).
fn measure<'w>(
    w: &'w Workload,
    seed: u64,
    ops: usize,
    trace: Option<&Path>,
) -> Result<RunData<'w>, String> {
    let sessions = w.sessions(ops);
    // one set of artifacts per workload: the next traced run replaces it
    let trace = trace.map(|dir| TraceTo { dir, stem: w.name });
    let ((full, unikraft, traced), boundary_tax) = match &w.kind {
        Kind::Web { sizes } => {
            let files = workload::web_files(seed, sizes);
            let requests = workload::web_requests(seed, ops);
            let legs = legs(w.name, sessions.len(), ops, trace, |mode, i, leg, trace| {
                let from = i * WEB_SESSION;
                web::session(
                    mode,
                    &files,
                    &requests[from..from + sessions[i]],
                    leg,
                    trace,
                )
            })?;
            (legs, 0)
        }
        Kind::Sqlite(spec) => {
            let plan = sql::Plan {
                spec,
                seed,
                initial: sql::Table::generate(seed, spec),
            };
            // room for the checkpoints the writes trigger
            let samples = ops + ops / spec.checkpoint_every as usize;
            let legs = legs(
                w.name,
                sessions.len(),
                samples,
                trace,
                |mode, i, leg, trace| sql::session(mode, &plan, i, sessions[i], leg, trace),
            )?;
            (legs, UNIKRAFT_BOUNDARY_TAX)
        }
    };
    Ok(RunData {
        workload: w,
        seed,
        boundary_tax,
        full,
        unikraft,
        traced,
        peak_rss_mib: measure::peak_rss_mib()?,
    })
}

/// A traced replay of a session and the split it yielded.
type Traced = Option<(Leg, TraceOut)>;

/// The Full leg, the Unikraft leg, and the traced replay of the Full
/// leg's first session, each from `sessions` calls of `session`. The
/// sample buffers are sized up front (`samples` per leg) so that their
/// growth does not show in the process's peak memory.
fn legs(
    name: &str,
    sessions: usize,
    samples: usize,
    trace: Option<TraceTo>,
    mut session: impl FnMut(
        IsolationMode,
        usize,
        &mut Leg,
        Option<TraceTo>,
    ) -> Result<Option<TraceOut>, String>,
) -> Result<(Leg, Leg, Traced), String> {
    // The legs alternate session by session, so the Full leg's host
    // times span the whole run (averaging over the host's busy spells)
    // and start from a warmed-up process.
    let start = std::time::Instant::now();
    let (mut unikraft, mut full) = (Leg::with_capacity(samples), Leg::with_capacity(samples));
    for i in 0..sessions {
        session(IsolationMode::Unikraft, i, &mut unikraft, None)?;
        session(IsolationMode::Full, i, &mut full, None)?;
    }
    eprintln!(
        "cubench: {name}: Unikraft and Full legs, {sessions} sessions each, {:.1} s",
        start.elapsed().as_secs_f64()
    );
    let traced = match trace {
        None => None,
        Some(_) => {
            eprintln!("cubench: {name}: traced replay of session 0");
            let mut leg = Leg::default();
            let out = session(IsolationMode::Full, 0, &mut leg, trace)?
                .ok_or("traced session returned no split")?;
            let untraced = &full.samples[..leg.samples.len()];
            if leg
                .samples
                .iter()
                .map(|s| s.cycles)
                .ne(untraced.iter().map(|s| s.cycles))
            {
                return Err("tracing changed the simulated cycles of session 0".into());
            }
            Some((leg, out))
        }
    };
    Ok((full, unikraft, traced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OpKind, SqliteSpec};
    use cubicle_bench::report::results::json::{self, Value};

    /// Each workload's shape with a table small enough for a debug build.
    fn tiny(w: &Workload) -> Workload {
        let kind = match &w.kind {
            Kind::Web { sizes } => Kind::Web { sizes: *sizes },
            Kind::Sqlite(s) => Kind::Sqlite(SqliteSpec {
                rows: 300,
                key_space: 60,
                sessions: 2,
                checkpoint_every: 8,
                ..*s
            }),
        };
        Workload {
            name: w.name,
            ops: w.ops,
            paper: w.paper,
            kind,
        }
    }

    fn sim(r: &Report) -> [f64; 3] {
        [
            "sim_cycles_per_op",
            "sim_p99_cycles",
            "isolation_tax_cycles_per_op",
        ]
        .map(|m| r.get(m).unwrap())
    }

    #[test]
    fn tiny_workloads_are_deterministic_and_correct() {
        for w in &workload::WORKLOADS {
            let w = tiny(w);
            let ops = if w.name == "nginx-large" { 6 } else { 50 };
            let a = measure(&w, 11, ops, None).unwrap();
            let b = measure(&w, 11, ops, None).unwrap();
            let c = measure(&w, 12, ops, None).unwrap();
            let (ra, rb) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(
                sim(&ra).map(f64::to_bits),
                sim(&rb).map(f64::to_bits),
                "{}",
                w.name
            );
            let cycles = |d: &RunData| d.full.samples.iter().map(|s| s.cycles).collect::<Vec<_>>();
            assert_eq!(cycles(&a), cycles(&b), "{}", w.name);
            assert_ne!(
                cycles(&a),
                cycles(&c),
                "{}: the seed moves the inputs",
                w.name
            );
            assert!(ra.attempted >= 2 * ops as u64);
            assert_eq!(ra.get("failed_ops_frac"), Some(0.0), "{}", w.name);
            assert!(ra.get("mech.other_cycles_per_op").unwrap() >= 0.0);
        }
    }

    #[test]
    fn workload_mixes_load_their_layers() {
        let cached = tiny(workload::find("sqlite-cached").unwrap());
        let r = measure(&cached, 5, 40, None).unwrap().report().unwrap();
        assert_eq!(r.get("core.cross_calls_per_op"), Some(0.0));
        assert_eq!(r.get("sqldb.misses_per_op"), Some(0.0));
        assert_eq!(r.get("isolation_tax_cycles_per_op"), Some(0.0));
        let oscall = tiny(workload::find("sqlite-oscall").unwrap());
        let r = measure(&oscall, 5, 40, None).unwrap().report().unwrap();
        assert!(r.get("sqldb.syncs_per_op").unwrap() > 0.5);
        assert!(r.get("isolation_tax_cycles_per_op").unwrap() > 0.0);
        assert!(
            r.get(&format!("sqldb.{}.cycles_mean", OpKind::Checkpoint.name()))
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn traced_replay_partitions_and_fills_every_layer_metric() {
        let dir = std::env::temp_dir().join(format!("cubench-test-{}", std::process::id()));
        let w = workload::find("nginx-small").unwrap();
        let data = measure(w, 3, 12, Some(&dir)).unwrap();
        let r = data.report().unwrap();
        let line = json::parse(&r.result_line(true).unwrap()).unwrap();
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("the result line has a metric map")
        };
        assert_eq!(metrics.len(), report::per_layer_specs().len());
        let (leg, out) = data.traced.as_ref().unwrap();
        let self_sum: u64 = out.cubicles.iter().map(|c| c.1).sum();
        assert_eq!(
            self_sum,
            leg.total_cycles(),
            "the split covers every traced cycle"
        );
        assert!(r.get("NGINX.self_cycles_per_op").unwrap() > 0.0);
        assert!(r.get("LWIP.calls_in_per_op").unwrap() > 0.0);
        assert!(!out.artifacts.is_empty());
        // one leaked descriptor per request (httpd never closes the file)
        assert_eq!(r.get("vfs.fds_leaked_per_op"), Some(1.0));

        // no cross-call at all: every cycle is the application's own
        let cached = tiny(workload::find("sqlite-cached").unwrap());
        let r = measure(&cached, 3, 20, Some(&dir))
            .unwrap()
            .report()
            .unwrap();
        assert_eq!(
            r.get("SQLITE.self_cycles_per_op"),
            r.get("sim_cycles_per_op")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn word(better: report::Better) -> &'static str {
        match better {
            report::Better::Lower => "lower",
            report::Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = json::parse(include_str!("../BENCHMARK.json")).unwrap();
        assert_eq!(spec.get("run_seconds").unwrap().as_u64(), Some(RUN_SECONDS));
        let list = |key: &str| {
            spec.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        };
        let names = |key: &str| -> Vec<String> {
            list(key)
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let workloads: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        for (m, j) in report::END_TO_END.iter().zip(list("end_to_end")) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(word(m.better)));
            assert_eq!(j.get("bound"), Some(&Value::Num(m.bound)));
        }
        assert_eq!(names("end_to_end").len(), report::END_TO_END.len());
        let layers = list("per_layer");
        let specs = report::per_layer_specs();
        assert_eq!(layers.len(), specs.len());
        for ((name, unit, better), j) in specs.iter().zip(layers) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(name.as_str()));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(*unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(word(*better)));
        }
    }

    #[test]
    fn the_run_length_is_fixed() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let run = parse_run(&args(
            "--workload nginx-small --seed 7 --seconds 10 --trace 0",
        ));
        assert!(run.is_ok_and(|r| r.seed == 7 && r.trace.is_none()));
        assert!(parse_run(&args("--workload nginx-small --seed 7 --seconds 5")).is_err());
    }
}
