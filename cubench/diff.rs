//! `cubench diff <parent.json>... -- <change.json>...`: compares two sets
//! of `cubench run --out` files, workload by workload. Each end-to-end
//! metric gets both sides' medians and quartiles, the share of pairs the
//! change wins and a verdict under its bound (the bounds `BENCHMARK.json`
//! lists, which a test holds equal to [`END_TO_END`]). Failed ops and the
//! isolation tax are judged beside them. Then the per-layer metrics that
//! moved most point at the layer a change touched.

use crate::report::{per_layer_specs, Better, Report, END_TO_END};
use crate::stats::{median, quartiles};

/// How many per-layer movers to list.
const MOVERS: usize = 10;

/// The isolation tax and the share by which it may rise. It is not an
/// end-to-end metric of `BENCHMARK.json`, which judges a metric by a
/// share of its median and so needs one that never reads 0, and the tax
/// reads exactly 0 on `sqlite-cached`: there [`verdict`] calls any rise
/// a regression.
const TAX: (&str, f64) = ("isolation_tax_cycles_per_op", 0.01);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Is `a` strictly better than `b`?
fn beats(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Share of pairs `(parent[i], change[i])` the change wins; ties count
/// for neither side.
pub fn win_share(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p, better))
        .count();
    wins as f64 / pairs as f64
}

/// The verdict for one metric on one workload:
/// - regressed: the change's median is worse than the parent's by more
///   than `bound` (a share of the parent's median);
/// - improved: the change wins at least nine tenths of the pairs and the
///   medians differ by more than the parent's interquartile distance;
/// - unresolved: the parent's own spread is wider than the bound, and
///   not every change run beats every parent run;
/// - unchanged: otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_by = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    let worse_share = if pm == 0.0 {
        if worse_by > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse_by / pm.abs()
    };
    if worse_share > bound {
        return Verdict::Regressed;
    }
    if win_share(parent, change, better) >= 0.9
        && beats(cm, pm, better)
        && (cm - pm).abs() > q3 - q1
    {
        return Verdict::Improved;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| beats(c, p, better)));
    if (q3 - q1) > bound * pm.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Report::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Failed and attempted ops over `runs`.
fn failures(runs: &[&Report]) -> (u64, u64) {
    runs.iter()
        .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
}

fn values<'a>(runs: &'a [&Report], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    runs.iter().filter_map(move |r| r.get(name))
}

fn fmt_side(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
}

/// One judged row of a workload's table.
#[derive(Debug)]
struct Row {
    name: &'static str,
    unit: &'static str,
    parent: String,
    change: String,
    /// Share of pairs the change wins (none for failed ops).
    wins: Option<f64>,
    verdict: Verdict,
}

/// Judges one workload's runs: every end-to-end metric and the tax by
/// [`verdict`], then failed ops. Any failed op of the change is a
/// regression, and an improvement it shows elsewhere does not count.
fn judge(p: &[&Report], c: &[&Report]) -> Vec<Row> {
    let (pf, pa) = failures(p);
    let (cf, ca) = failures(c);
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .chain([(TAX.0, "cycles", Better::Lower, TAX.1)]);
    let mut rows = Vec::new();
    for (name, unit, better, bound) in metrics {
        let pv: Vec<f64> = values(p, name).collect();
        let cv: Vec<f64> = values(c, name).collect();
        if pv.is_empty() || cv.is_empty() {
            continue;
        }
        rows.push(Row {
            name,
            unit,
            parent: fmt_side(&pv),
            change: fmt_side(&cv),
            wins: Some(win_share(&pv, &cv, better)),
            verdict: match verdict(&pv, &cv, better, bound) {
                Verdict::Improved if cf > 0 => Verdict::Unresolved,
                v => v,
            },
        });
    }
    rows.push(Row {
        name: "failed_ops",
        unit: "count",
        parent: format!("{pf} of {pa}"),
        change: format!("{cf} of {ca}"),
        wins: None,
        verdict: if cf > 0 {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        },
    });
    rows
}

pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: cubench diff <parent.json>... -- <change.json>...");
            2
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (mut parent, mut change, mut after_sep) = (Vec::new(), Vec::new(), false);
    for a in args {
        match a.as_str() {
            "--" => after_sep = true,
            path if after_sep => change.push(load(path)?),
            path => parent.push(load(path)?),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("need result files on both sides of `--`".into());
    }
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        let p: Vec<&Report> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Report> = change.iter().filter(|r| r.workload == w).collect();
        if c.is_empty() {
            println!("== {w}: no change runs");
            continue;
        }
        println!("== {w}: {} parent runs, {} change runs", p.len(), c.len());
        println!(
            "{:<20} {:<7} {:<46} {:<46} {:>5} verdict",
            "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins"
        );
        for r in judge(&p, &c) {
            let wins = r
                .wins
                .map_or(String::new(), |w| format!("{:.0}%", 100.0 * w));
            println!(
                "{:<20} {:<7} {:<46} {:<46} {wins:>5} {}",
                r.name,
                r.unit,
                r.parent,
                r.change,
                r.verdict.as_str()
            );
        }
        let mut moved: Vec<(f64, String, f64, f64, Better)> = per_layer_specs()
            .into_iter()
            .filter_map(|(name, _, better)| {
                let pm = median(&values(&p, &name).collect::<Vec<_>>());
                let cm = median(&values(&c, &name).collect::<Vec<_>>());
                let scale = pm.abs().max(cm.abs());
                (scale > 0.0 && pm != cm).then(|| ((cm - pm).abs() / scale, name, pm, cm, better))
            })
            .collect();
        moved.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        println!("per-layer metrics that moved most:");
        if moved.is_empty() {
            println!("  (none moved)");
        }
        for (_, name, pm, cm, better) in moved.into_iter().take(MOVERS) {
            let pct = if pm == 0.0 {
                "from 0".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (cm - pm) / pm.abs())
            };
            let way = if beats(cm, pm, better) {
                "better"
            } else {
                "worse"
            };
            println!("  {name:<36} {pm:.6} -> {cm:.6} ({pct}, {way})");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let same = parent;
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(win_share(&parent, &faster, Better::Lower), 1.0);
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // for a higher-is-better metric the same numbers read the other way
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // a noisy parent cannot certify "unchanged"
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 100.0, 90.0, 110.0,
        ];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ties count for neither side
        assert_eq!(win_share(&[1.0, 2.0], &[1.0, 1.0], Better::Lower), 0.5);
        // any rise from a zero median is a regression
        assert_eq!(
            verdict(&[0.0; 3], &[0.0, 1.0, 1.0], Better::Lower, 0.01),
            Verdict::Regressed
        );
    }

    fn run_of(tax: f64, rss: f64, failed: u64) -> Report {
        let metric = |name: &str, value: f64| crate::report::Metric {
            name: name.into(),
            value,
            unit: String::new(),
        };
        Report {
            workload: "w".into(),
            seed: 1,
            attempted: 100,
            failed,
            end_to_end: vec![metric("peak_rss_mb", rss)],
            per_layer: vec![metric(TAX.0, tax)],
            extra: Vec::new(),
        }
    }

    fn verdicts(p: &[Report], c: &[Report]) -> Vec<(&'static str, Verdict)> {
        let (p, c): (Vec<_>, Vec<_>) = (p.iter().collect(), c.iter().collect());
        judge(&p, &c)
            .into_iter()
            .map(|r| (r.name, r.verdict))
            .collect()
    }

    #[test]
    fn failed_ops_and_a_tax_from_zero_regress() {
        let parent: Vec<Report> = (0..5)
            .map(|i| run_of(0.0, 20.0 + f64::from(i), 0))
            .collect();
        let leaner: Vec<Report> = (0..5)
            .map(|i| run_of(0.0, 10.0 + f64::from(i), 0))
            .collect();
        assert_eq!(
            verdicts(&parent, &leaner),
            [
                ("peak_rss_mb", Verdict::Improved),
                (TAX.0, Verdict::Unchanged),
                ("failed_ops", Verdict::Unchanged)
            ]
        );
        // the same gain, but one op failed: it does not count
        let mut failing = leaner;
        failing[2].failed = 1;
        assert_eq!(
            verdicts(&parent, &failing),
            [
                ("peak_rss_mb", Verdict::Unresolved),
                (TAX.0, Verdict::Unchanged),
                ("failed_ops", Verdict::Regressed)
            ]
        );
        // sqlite-cached's tax is exactly 0: a few cycles of it regress
        let taxed: Vec<Report> = (0..5)
            .map(|i| run_of(3.0, 20.0 + f64::from(i), 0))
            .collect();
        assert_eq!(verdicts(&parent, &taxed)[1], (TAX.0, Verdict::Regressed));
    }
}
