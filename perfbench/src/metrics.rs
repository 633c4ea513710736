//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! checkout root is generated from these tables (`--write-benchmark-json`)
//! and a self-test keeps the two identical.

use std::collections::BTreeMap;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// Workloads: name and why it exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "clifford_ga",
        "fig12 EFT_FULL grid via run_sweep: the stabilizer estimator and the GA do the work; statesim stays idle",
    ),
    (
        "density_vqe",
        "fig13 reduced grid: density-matrix run_noisy is over 99% of each energy; the stabilizer code never runs",
    ),
    (
        "cheap_grid",
        "~8 us advisor points through the local executor, farm-checked; trace 1 adds the planner (planner_mixed dropped: its p50 spread 21-28% > 25% bound)",
    ),
];

/// Workloads the binary runs but `BENCHMARK.json` does not list, with
/// the reason. `planner_mixed` measures waits, not work: its request
/// latency is half the server's 2 ms accept poll plus the host's timer
/// wake-up delay, and across two sets of ten runs on the shared host its
/// median latency spread 21-28% of the median, past the largest bound a
/// metric may have. Its traced section still runs inside the traced
/// `cheap_grid` run, so the planner layer keeps its per-layer metrics.
pub const UNLISTED: [(&str, &str); 1] = [(
    "planner_mixed",
    "planner over loopback, seeded open loop at an assumed 100 req/s and query mix (no real traffic record exists): accept, parse, admission and write dominate",
)];

/// Workloads whose runs pin the process, and with it the speed probe, to
/// the core it starts on. The shared host's two cores run at different
/// speeds for minutes at a time, and a probe must sample the core the
/// work runs on. `clifford_ga` is pinned too: unpinned, its four GA
/// threads spread over both cores, and its wall time followed whichever
/// core was slower and how often both were free (ten seeds spread its
/// scaled wall time 17.5% of the median while its scaled CPU time spread
/// 3%). Pinned, every listed workload measures one core's work.
pub const PINNED: [&str; 3] = ["clifford_ga", "density_vqe", "cheap_grid"];

/// Whether `metric` on `workload` times CPU-bound work and is therefore
/// reported scaled to [`crate::host::REFERENCE_SPEED`]: the time as
/// measured times the speed the host probe saw over the run, divided by
/// the reference speed. The shared host's speed drifts by up to a factor
/// of two over tens of minutes, which moves every CPU-bound time by as
/// much; the scaled time does not move with it, while a change in the
/// work the program does moves it in full. Times set by waits (the
/// planner's accept poll and request latency) are reported as measured.
pub fn scaled(workload: &str, metric: &str) -> bool {
    match workload {
        "planner_mixed" => matches!(metric, "cpu_s" | "setup_s"),
        _ => matches!(metric, "wall_s" | "cpu_s" | "setup_s"),
    }
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// There is no latency metric. The only request latency the benchmark
/// measures is the unlisted `planner_mixed` workload's (printed with every
/// run of it). On the figure workloads the median point latency is the
/// time of whichever point sits in the middle, which moves with the
/// seed's couplings (ten seeds spread it 13% of its median, against 5%
/// for the whole sweep); on `cheap_grid` the unit a user waits for is
/// the grid run, which `wall_s` already is. Both are printed.
///
/// Tail latency is printed with every run (percentile, value, sample
/// count) but carries no bound: on a shared two-core host its run-to-run
/// spread is several times any bound a regression gate could use.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// One per-layer metric.
pub struct PerLayer {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where a layer does not run on that workload).
pub const PER_LAYER: [PerLayer; 57] = [
    // eftq_stabilizer
    lower("stabilizer.estimate_s", "s"),
    lower("stabilizer.estimate_calls", "count"),
    lower("stabilizer.template_bind_s", "s"),
    lower("stabilizer.template_compile_s", "s"),
    lower("stabilizer.group_compile_s", "s"),
    lower("stabilizer.tableau_run_s", "s"),
    lower("stabilizer.grouped_expect_s", "s"),
    lower("stabilizer.frames_s", "s"),
    lower("stabilizer.flip_plane_s", "s"),
    // eftq_circuit
    lower("circuit.bind_clifford_s", "s"),
    lower("circuit.bind_s", "s"),
    // eftq_optim
    lower("optim.ga_self_s", "s"),
    lower("optim.ga_evals", "count"),
    higher("optim.ga_memo_hit_ratio", "ratio"),
    lower("optim.nm_self_s", "s"),
    lower("optim.nm_evals", "count"),
    // eft_vqa
    lower("core.reeval_s", "s"),
    lower("core.genome_energy_s", "s"),
    lower("core.measured_energy_s", "s"),
    // eftq_statesim
    lower("statesim.run_noisy_s", "s"),
    lower("statesim.run_noisy_calls", "count"),
    // eftq_numerics
    lower("numerics.lanczos_s", "s"),
    // eftq_sweep
    lower("sweep.eval_busy_s", "s"),
    lower("sweep.executor_self_s", "s"),
    lower("farm.wall_s", "s"),
    lower("farm.self_s", "s"),
    lower("sweep.point_p50_s", "s"),
    lower("sweep.point_max_s", "s"),
    higher("sweep.cache_hit_ratio", "ratio"),
    lower("protocol.encode_us", "us"),
    lower("protocol.decode_us", "us"),
    lower("rows.to_json_us", "us"),
    lower("jsonl.parse_row_us", "us"),
    lower("farm.grant_us", "us"),
    lower("farm.complete_us", "us"),
    lower("farm.leases", "count"),
    higher("farm.points_per_lease", "count"),
    // eftq_planner
    lower("planner.index_load_s", "s"),
    lower("planner.surface_eval_ns", "ns"),
    lower("planner.exact_plan_us", "us"),
    lower("planner.parse_ns", "ns"),
    lower("planner.write_ns", "ns"),
    lower("client.connect_ms", "ms"),
    lower("client.ttfb_ms", "ms"),
    lower("planner.unattributed_ms", "ms"),
    lower("planner.server_shed", "count"),
    lower("planner.server_deadline", "count"),
    lower("planner.server_degraded", "count"),
    higher("planner.server_exact", "count"),
    lower("planner.server_mean_ms", "ms"),
    lower("planner.client_server_gap_ms", "ms"),
    higher("planner.max_rps", "1/s"),
    lower("generator.lateness_p99_ms", "ms"),
    // the traced run itself
    lower("trace.overhead_s", "s"),
    lower("trace.row_mismatches", "count"),
    lower("trace.replay_mismatches", "count"),
    lower("trace.untimed_wall_s", "s"),
];

/// A workload's measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` text these tables define.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let w: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(n),
                json_str(why)
            )
        })
        .collect();
    s.push_str(&w.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.bound
            )
        })
        .collect();
    s.push_str(&e.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let p: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(m.name),
                json_str(m.unit),
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            )
        })
        .collect();
    s.push_str(&p.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The result line: the last line a run prints on stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    trace: bool,
) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|m| metric_json(m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = *values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("workload did not measure {}", m.name));
                metric_json(m.name, v, m.unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a non-finite reading is a bug in the
    // measurement and is reported as such rather than printed.
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json_str(name),
        json_str(unit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the checkout root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --write-benchmark-json"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_mode() {
        let mut v = Values::new();
        for m in &END_TO_END {
            v.insert(m.name, 1.5);
        }
        let line = result_line(true, 3, 0, &v, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(END_TO_END
            .iter()
            .all(|m| line.contains(&format!("\"{}\"", m.name))));
        let traced = result_line(true, 3, 0, &Values::new(), true);
        assert!(PER_LAYER
            .iter()
            .all(|m| traced.contains(&format!("\"{}\"", m.name))));
    }
}
