//! The metrics: their names, units and directions, and how a run's legs
//! turn into them.

use crate::measure::{Leg, Sample, TraceOut};
use crate::stats::{median, percentile};
use crate::workload::{Workload, KINDS};
use cubicle_bench::report::results::json::{self, Value};
use cubicle_mpk::CostModel;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric with the bound (a share of the parent's median)
/// by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every end-to-end metric, from the untraced legs. The `sim_*` values
/// are deterministic for a seed; host timings come from the Full leg
/// (see [`HOST_BLOCKS`]). Host timings get 20 %: across ten seeds they
/// spread 1-6 % (interquartile), but the shared 2-vCPU host they were
/// measured on also drifts, by 13 % over 100 s of runs of one seed.
/// `setup_s` gets the widest bound: it is the share of a run that moves
/// most with the host's memory bandwidth.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "sim_cycles_per_op",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "host_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "host_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Host timings are taken per block: the Full leg's ops, in execution
/// order, are cut into this many blocks, and a run reports the lower
/// quartile of the blocks' p50 and p90 (the upper quartile of their
/// throughput). A slow spell of the host that covers fewer than three
/// quarters of the blocks then leaves the metric where it was; a slower
/// simulator moves every block.
pub const HOST_BLOCKS: usize = 20;

/// `(p50s, p90s, ops per second)` of each block of `samples`, each list
/// sorted.
fn host_blocks(samples: &[Sample]) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for block in samples.chunks(samples.len().div_ceil(HOST_BLOCKS).max(1)) {
        let mut ns: Vec<u64> = block.iter().map(|s| s.host_ns).collect();
        ns.sort_unstable();
        p50s.push(percentile(&ns, 50.0));
        p90s.push(percentile(&ns, 90.0));
        rates.push(ns.len() as f64 / (ns.iter().sum::<u64>() as f64 / 1e9));
    }
    p50s.sort_unstable();
    p90s.sort_unstable();
    rates.sort_by(f64::total_cmp);
    (p50s, p90s, rates)
}

/// Cubicles the traced session splits cycles over (`MONITOR` runs the
/// host-side fetch loop: the client and the wire model).
pub const CUBICLES: [&str; 11] = [
    "MONITOR", "NGINX", "LWIP", "NETDEV", "VFSCORE", "RAMFS", "ALLOC", "PLAT", "TIME", "SQLITE",
    "LIBC",
];

/// Trap-and-map and crossing mechanisms, priced with the paper's cost
/// model; `mech.other_cycles_per_op` is what remains of the total.
const MECHANISMS: [&str; 6] = [
    "trap",
    "retag",
    "wrpkru",
    "acl_walk",
    "trampoline",
    "boundary_tax",
];

/// `(name, unit, better)` of every per-layer metric, in report order.
/// The per-cubicle and `trace.*` rows need `--trace`.
pub fn per_layer_specs() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut v: Vec<(String, &'static str, Better)> = [
        ("mpk.accesses_per_op", "count", Lower),
        ("mpk.bytes_moved_per_op", "bytes", Lower),
        ("mpk.tlb_hit_ratio", "ratio", Higher),
        ("mpk.wrpkru_per_op", "count", Lower),
        ("mpk.retags_per_op", "count", Lower),
        ("mpk.faults_per_op", "count", Lower),
        ("core.cross_calls_per_op", "count", Lower),
        ("core.acl_probes_per_fault", "count", Lower),
        ("core.grant_cache_hits_per_fault", "ratio", Higher),
        ("core.batched_call_share", "ratio", Higher),
        ("core.window_ops_per_op", "count", Lower),
        ("core.stack_bytes_copied_per_op", "bytes", Lower),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for m in MECHANISMS.iter().chain(&["other"]) {
        v.push((format!("mech.{m}_cycles_per_op"), "cycles", Lower));
    }
    for (n, u, b) in [
        ("isolation_tax_cycles_per_op", "cycles", Lower),
        ("full_over_unikraft_x", "x", Lower),
        ("server.host_us_per_op", "us", Lower),
        ("server.cycles_per_op", "cycles", Lower),
        ("server.calls_per_op", "count", Lower),
        ("client.host_us_per_op", "us", Lower),
        ("sqldb.pager_hit_ratio", "ratio", Higher),
        ("sqldb.misses_per_op", "count", Lower),
        ("sqldb.syncs_per_op", "count", Lower),
        ("sqldb.wal_frames_per_op", "count", Lower),
        ("sqldb.evictions_per_op", "count", Lower),
    ] {
        v.push((n.to_string(), u, b));
    }
    for k in KINDS {
        v.push((format!("sqldb.{}.cycles_mean", k.name()), "cycles", Lower));
    }
    v.push(("vfs.fds_leaked_per_op".into(), "count", Lower));
    for c in CUBICLES {
        v.push((format!("{c}.self_cycles_per_op"), "cycles", Lower));
        v.push((format!("{c}.calls_in_per_op"), "count", Lower));
    }
    v.push(("trace.host_overhead_x".into(), "x", Lower));
    v.push(("trace.dropped_events".into(), "count", Lower));
    v
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The outcome of one `cubench run`.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed and saved, but outside the benchmark's metric lists:
    /// sample counts, per-kind host latencies, `failed_ops_frac`.
    pub extra: Vec<Metric>,
}

/// What a run measured, before it is turned into metrics.
pub struct RunData<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    /// Boundary tax the deployments charge per crossing.
    pub boundary_tax: u64,
    pub full: Leg,
    pub unikraft: Leg,
    pub traced: Option<(Leg, TraceOut)>,
    pub peak_rss_mib: f64,
}

/// Metric values by name, later ordered by the spec lists.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn take(&self, name: &str, unit: &str) -> Option<Metric> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            })
    }
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl RunData<'_> {
    /// Derives every metric. Fails when the mechanism rows price more
    /// cycles than the ops took.
    pub fn report(&self) -> Result<Report, String> {
        let f = &self.full;
        let n = f.samples.len() as u64;
        let per = |x: u64| ratio(x, n);
        let mut cycles: Vec<u64> = f.samples.iter().map(|s| s.cycles).collect();
        cycles.sort_unstable();
        let total = f.total_cycles();
        let (p50s, p90s, rates) = host_blocks(&f.samples);
        let setups: Vec<f64> = f.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();

        let mut v = Values::default();
        v.set("sim_cycles_per_op", per(total));
        v.set("sim_p99_cycles", percentile(&cycles, 99.0) as f64);
        v.set("host_p50_us", percentile(&p50s, 25.0) as f64 / 1e3);
        v.set("host_p90_us", percentile(&p90s, 25.0) as f64 / 1e3);
        v.set("host_ops_per_s", percentile(&rates, 75.0));
        v.set("setup_s", median(&setups));
        v.set("peak_rss_mb", self.peak_rss_mib);

        let c = &f.counters;
        v.set("mpk.accesses_per_op", per(c.reads + c.writes));
        v.set(
            "mpk.bytes_moved_per_op",
            per(c.bytes_read + c.bytes_written),
        );
        v.set(
            "mpk.tlb_hit_ratio",
            ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
        );
        v.set("mpk.wrpkru_per_op", per(c.wrpkru));
        v.set("mpk.retags_per_op", per(c.retags));
        v.set("mpk.faults_per_op", per(c.machine_faults));
        v.set("core.cross_calls_per_op", per(c.cross_calls));
        v.set(
            "core.acl_probes_per_fault",
            ratio(c.acl_probes, c.faults_resolved),
        );
        v.set(
            "core.grant_cache_hits_per_fault",
            ratio(c.grant_cache_hits, c.faults_resolved),
        );
        // logical calls = unbatched crossings + the calls batches carried
        let logical = c.cross_calls - c.batch_dispatches + c.batched_calls;
        v.set("core.batched_call_share", ratio(c.batched_calls, logical));
        v.set("core.window_ops_per_op", per(c.window_ops));
        v.set("core.stack_bytes_copied_per_op", per(c.stack_bytes_copied));

        let cost = CostModel::paper();
        let priced = [
            c.faults_resolved * (cost.trap + cost.page_meta_lookup),
            // grant-cache hits retag without the `pkey_mprotect` charge
            c.retags.saturating_sub(c.grant_cache_hits) * cost.pkey_mprotect,
            c.wrpkru * cost.wrpkru,
            c.acl_probes * cost.acl_probe,
            c.crossings * 2 * cost.trampoline,
            c.crossings * self.boundary_tax,
        ];
        let named: u64 = priced.iter().sum();
        if named > total {
            return Err(format!(
                "mechanism rows price {named} cycles, more than the {total} the ops took"
            ));
        }
        for (m, cycles) in MECHANISMS.iter().zip(priced) {
            v.set(format!("mech.{m}_cycles_per_op"), per(cycles));
        }
        v.set("mech.other_cycles_per_op", per(total - named));

        let base = self.unikraft.total_cycles();
        v.set(
            "isolation_tax_cycles_per_op",
            (total as f64 - base as f64) / n as f64,
        );
        v.set("full_over_unikraft_x", ratio(total, base));
        v.set("server.host_us_per_op", per(f.server_ns) / 1e3);
        v.set("server.cycles_per_op", per(f.server_cycles));
        v.set("server.calls_per_op", per(f.server_calls));
        v.set("client.host_us_per_op", per(f.client_ns) / 1e3);
        v.set(
            "sqldb.pager_hit_ratio",
            ratio(c.pager_hits, c.pager_hits + c.pager_misses),
        );
        v.set("sqldb.misses_per_op", per(c.pager_misses));
        v.set("sqldb.syncs_per_op", per(c.pager_syncs));
        v.set("sqldb.wal_frames_per_op", per(c.wal_frames));
        v.set("sqldb.evictions_per_op", per(c.pager_evictions));
        let is_sql = matches!(self.workload.kind, crate::workload::Kind::Sqlite(_));
        let mut extra = Vec::new();
        let mut add_extra = |name: String, value: f64, unit: &str| {
            extra.push(Metric {
                name,
                value,
                unit: unit.to_string(),
            });
        };
        for (i, k) in KINDS.iter().enumerate() {
            let of_kind: Vec<_> = f
                .samples
                .iter()
                .filter(|s| is_sql && usize::from(s.kind) == i)
                .collect();
            let sum: u64 = of_kind.iter().map(|s| s.cycles).sum();
            v.set(
                format!("sqldb.{}.cycles_mean", k.name()),
                ratio(sum, of_kind.len() as u64),
            );
            if !of_kind.is_empty() {
                let mut h: Vec<u64> = of_kind.iter().map(|s| s.host_ns).collect();
                h.sort_unstable();
                add_extra(
                    format!("sqldb.{}.host_us_p50", k.name()),
                    percentile(&h, 50.0) as f64 / 1e3,
                    "us",
                );
            }
        }
        v.set(
            "vfs.fds_leaked_per_op",
            f.fds_leaked as f64 / n.max(1) as f64,
        );

        if let Some((leg, out)) = &self.traced {
            let ops = leg.samples.len() as u64;
            for name in CUBICLES {
                let (cyc, calls) = out
                    .cubicles
                    .iter()
                    .find(|(c, _, _)| c == name)
                    .map_or((0, 0), |&(_, cyc, calls)| (cyc, calls));
                v.set(format!("{name}.self_cycles_per_op"), ratio(cyc, ops));
                v.set(format!("{name}.calls_in_per_op"), ratio(calls, ops));
            }
            let untraced: u64 = f.samples[..leg.samples.len()]
                .iter()
                .map(|s| s.host_ns)
                .sum();
            let traced: u64 = leg.samples.iter().map(|s| s.host_ns).sum();
            v.set("trace.host_overhead_x", ratio(traced, untraced));
            v.set("trace.dropped_events", out.dropped as f64);
        }

        let attempted = self.full.samples.len()
            + self.unikraft.samples.len()
            + self.traced.as_ref().map_or(0, |(l, _)| l.samples.len());
        let failed = self.full.failed
            + self.unikraft.failed
            + self.traced.as_ref().map_or(0, |(l, _)| l.failed);
        add_extra(
            "failed_ops_frac".into(),
            ratio(failed, attempted as u64),
            "ratio",
        );
        add_extra("ops".into(), n as f64, "count");
        add_extra("sessions".into(), f.setup_ns.len() as f64, "count");
        let values = v.0.iter().map(|(name, x)| (name, *x));
        if let Some((name, _)) = values
            .chain(extra.iter().map(|m| (&m.name, m.value)))
            .find(|(_, x)| !x.is_finite())
        {
            return Err(format!("metric {name} is not a finite number"));
        }

        Ok(Report {
            workload: self.workload.name.to_string(),
            seed: self.seed,
            attempted: attempted as u64,
            failed,
            end_to_end: END_TO_END
                .iter()
                .filter_map(|m| v.take(m.name, m.unit))
                .collect(),
            per_layer: per_layer_specs()
                .iter()
                .filter_map(|(name, unit, _)| v.take(name, unit))
                .collect(),
            extra,
        })
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`. Names and units are the
/// benchmark's own identifiers, which need no escaping; values are
/// finite (checked by [`RunData::report`]), and `Display` for `f64`
/// writes the shortest decimal that reads back as the same value.
fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The metrics of one map of a result file, in name order.
fn metrics_from(map: Option<&Value>) -> Result<Vec<Metric>, String> {
    let Some(Value::Obj(members)) = map else {
        return Err("missing metric map".into());
    };
    let mut metrics = members
        .iter()
        .map(|(name, body)| {
            let Some(Value::Num(value)) = body.get("value") else {
                return Err(format!("{name}: no value"));
            };
            Ok(Metric {
                name: name.clone(),
                value: *value,
                unit: body
                    .get("unit")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{name}: no unit"))?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(metrics)
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, wherever it is listed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The full result file (`--out`), which `cubench diff` reads. The
    /// seed is a string: a JSON number holds only 53 bits exactly.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"cubench/1\", \"workload\": \"{}\", \"seed\": \"{}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}, \"extra\": {}}}",
            self.workload,
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer),
            metrics_json(&self.extra)
        )
    }

    /// Reads a result file back; each metric list comes back in name
    /// order.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let json = json::parse(text)?;
        if json.get("schema").and_then(Value::as_str) != Some("cubench/1") {
            return Err("not a cubench/1 result file".into());
        }
        let count = |key: &str| {
            json.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        Ok(Report {
            workload: json
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("missing `workload`")?
                .to_string(),
            seed: json
                .get("seed")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("missing `seed`")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            end_to_end: metrics_from(json.get("end_to_end"))?,
            per_layer: metrics_from(json.get("per_layer"))?,
            extra: metrics_from(json.get("extra"))?,
        })
    }

    /// The one-line result a run ends with: the end-to-end metrics, or
    /// with `traced` the per-layer ones (all of them must be present).
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let metrics = if traced {
            let specs = per_layer_specs();
            if self.per_layer.len() != specs.len() {
                return Err(format!(
                    "{} of {} per-layer metrics measured",
                    self.per_layer.len(),
                    specs.len()
                ));
            }
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(metrics)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Counters, Sample};
    use crate::workload::find;

    fn leg(cycles: &[u64], counters: Counters) -> Leg {
        Leg {
            samples: cycles
                .iter()
                .map(|&c| Sample {
                    kind: 0,
                    cycles: c,
                    host_ns: c / 10,
                })
                .collect(),
            setup_ns: vec![3, 1, 2],
            counters,
            ..Leg::default()
        }
    }

    fn data(counters: Counters) -> RunData<'static> {
        RunData {
            workload: find("nginx-small").unwrap(),
            seed: u64::MAX,
            boundary_tax: 100,
            full: leg(&[50_000, 70_000], counters),
            unikraft: leg(&[40_000, 60_000], Counters::default()),
            traced: None,
            peak_rss_mib: 12.5,
        }
    }

    #[test]
    fn mechanism_rows_sum_to_sim_cycles() {
        let counters = Counters {
            faults_resolved: 4,
            retags: 5,
            wrpkru: 40,
            acl_probes: 9,
            crossings: 10,
            cross_calls: 12,
            ..Counters::default()
        };
        let r = data(counters).report().unwrap();
        let total = r.get("sim_cycles_per_op").unwrap();
        assert_eq!(total, 60_000.0);
        let rows: Vec<f64> = MECHANISMS
            .iter()
            .chain(&["other"])
            .map(|m| r.get(&format!("mech.{m}_cycles_per_op")).unwrap())
            .collect();
        assert!(rows.iter().all(|&x| x >= 0.0));
        assert_eq!(rows.iter().sum::<f64>(), total);
        // 4 traps at 4 230, 5 retags at 1 100, 40 wrpkru at 20, 9 probes
        // at 12, 10 crossings at 2 × 60 + 100: over two ops
        assert_eq!(rows[0], 4.0 * 4_230.0 / 2.0);
        assert_eq!(rows[4], 10.0 * 120.0 / 2.0);
        assert_eq!(rows[5], 10.0 * 100.0 / 2.0);
        assert_eq!(r.get("isolation_tax_cycles_per_op"), Some(10_000.0));
        assert_eq!(r.get("setup_s"), Some(2e-9));
    }

    #[test]
    fn host_blocks_shrug_off_a_slow_spell() {
        // 2 000 ops of 10 us, the middle half of the run three times slower
        let samples: Vec<Sample> = (0..2_000)
            .map(|i| Sample {
                kind: 0,
                cycles: 1,
                host_ns: if (500..1_500).contains(&i) {
                    30_000
                } else {
                    10_000
                },
            })
            .collect();
        let (p50s, p90s, rates) = host_blocks(&samples);
        assert_eq!(p50s.len(), HOST_BLOCKS);
        assert_eq!(percentile(&p50s, 25.0), 10_000);
        assert_eq!(percentile(&p90s, 25.0), 10_000);
        assert_eq!(percentile(&rates, 75.0), 100_000.0);
        // a spell over three quarters of the blocks does show
        let slow: Vec<Sample> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| Sample {
                host_ns: if i < 1_600 { 30_000 } else { 10_000 },
                ..*s
            })
            .collect();
        assert_eq!(percentile(&host_blocks(&slow).0, 25.0), 30_000);
    }

    #[test]
    fn overpriced_mechanisms_fail_the_run() {
        let counters = Counters {
            faults_resolved: 1_000,
            ..Counters::default()
        };
        assert!(data(counters).report().is_err());
    }

    #[test]
    fn result_file_round_trips() {
        let r = data(Counters::default()).report().unwrap();
        let back = Report::from_json(&r.to_json()).unwrap();
        let by_name = |mut v: Vec<Metric>| {
            v.sort_by(|a, b| a.name.cmp(&b.name));
            v
        };
        assert_eq!(back.end_to_end, by_name(r.end_to_end.clone()));
        assert_eq!(back.per_layer, by_name(r.per_layer.clone()));
        assert_eq!(back.extra, by_name(r.extra.clone()));
        assert_eq!(
            (back.workload.as_str(), back.attempted, back.failed),
            ("nginx-small", 4, 0)
        );
        assert_eq!(back.seed, u64::MAX, "seeds keep all 64 bits");
        let names: Vec<_> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        // an untraced run lacks the per-cubicle rows a traced result needs
        assert!(r.result_line(true).is_err());
        let line = json::parse(&r.result_line(false).unwrap()).unwrap();
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("the result line has a metric map")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}
