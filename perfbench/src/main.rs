//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the program's public entry points, checks
//! every output, prints each metric by name and unit, and ends with one
//! JSON result line. `--trace 0` measures the end-to-end metrics with no
//! instrumentation inside the program's calls; `--trace 1` adds a
//! separate traced run that times each layer's public functions from
//! outside and prints a "where the time goes" table. Seed 0 is the
//! default seed: the figure workloads then use the paper's couplings and
//! their outputs are byte-checked against the checked-in artifacts.
//!
//! `--write-benchmark-json` regenerates `BENCHMARK.json` from the metric
//! tables; `--write-reference` recaptures the `clifford_ga` reference
//! rows for seed 0.

mod checks;
mod grid;
mod host;
mod metrics;
mod planner;
mod spans;
mod stats;
mod sweeps;

use metrics::Values;

/// What one run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed; 0 is the default seed.
    pub seed: u64,
    /// Seconds the timed section repeats for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// A workload's result.
pub struct Outcome {
    /// Units of work attempted (points or requests).
    pub attempted: u64,
    /// Units that failed their output check.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Measured metrics by name.
    pub values: Values,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Host facts.
    pub facts: host::HostFacts,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --write-benchmark-json | --write-reference";

enum Command {
    Run(String, RunCfg),
    WriteManifest,
    WriteReference,
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args == ["--write-benchmark-json"] {
        return Ok(Command::WriteManifest);
    }
    if args == ["--write-reference"] {
        return Ok(Command::WriteReference);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("want 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let mut known = metrics::WORKLOADS.iter().chain(&metrics::UNLISTED);
    if !known.any(|w| w.0 == workload) {
        let names: Vec<&str> = metrics::WORKLOADS
            .iter()
            .chain(&metrics::UNLISTED)
            .map(|w| w.0)
            .collect();
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            names.join(", ")
        ));
    }
    Ok(Command::Run(
        workload,
        RunCfg {
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(metrics::RUN_SECONDS as f64),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Every workload reads the checked-in artifacts; without them there
    // is nothing to run against.
    let baselines = host::repo_root().join("ci/baselines");
    if !baselines.is_dir() {
        eprintln!(
            "perfbench: {} is missing; run from a full checkout",
            baselines.display()
        );
        std::process::exit(2);
    }
    let (name, cfg) = match command {
        Command::WriteManifest => {
            let path = host::repo_root().join("BENCHMARK.json");
            std::fs::write(&path, metrics::benchmark_json()).expect("write BENCHMARK.json");
            println!("wrote {}", path.display());
            return;
        }
        Command::WriteReference => {
            let path = sweeps::write_reference();
            println!("wrote {}", path.display());
            return;
        }
        Command::Run(name, cfg) => (name, cfg),
    };
    // Pinned workloads run, with the speed probe, on one core; the host's
    // core count is read first, for the host facts.
    host::nproc();
    let pinned = metrics::PINNED.contains(&name.as_str()).then(host::pin_to_current_cpu);
    host::start_speed_probe();
    let mut out = match name.as_str() {
        "clifford_ga" => sweeps::clifford_ga(&cfg),
        "density_vqe" => sweeps::density_vqe(&cfg),
        "planner_mixed" => planner::planner_mixed(&cfg),
        "cheap_grid" => grid::cheap_grid(&cfg),
        _ => unreachable!("workload names are validated by parse"),
    };
    let speed = host::stop_speed_probe();
    let mut scaled = Vec::new();
    if !cfg.trace {
        for (metric, value) in out.values.iter_mut() {
            if metrics::scaled(&name, metric) {
                scaled.push(format!("{metric}={value:.6}"));
                *value *= speed.scale();
            }
        }
    }
    // Work files of this process only; other runs may share the directory.
    if let Ok(entries) = std::fs::read_dir(host::work_dir()) {
        let prefix = format!("{}-", std::process::id());
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    println!(
        "workload={name} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "{} pinned={}",
        out.facts.line(),
        pinned.map_or("no".to_string(), |cpu| format!("cpu{cpu}"))
    );
    println!(
        "host speed: {:.1} probe rounds per CPU second over {} samples; reference {:.1}; scale {:.4}",
        speed.speed,
        speed.samples,
        host::REFERENCE_SPEED,
        speed.scale()
    );
    if !scaled.is_empty() {
        println!(
            "as measured, before scaling to the reference speed: {}",
            scaled.join(" ")
        );
    }
    for note in &out.notes {
        println!("{note}");
    }
    let listed: Vec<(&str, &str)> = if cfg.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    for (metric, unit) in listed {
        let v = out.values.get(metric).copied().unwrap_or(0.0);
        println!("  {metric:<32} {v:>16.6} {unit}");
    }
    if !out.correct {
        println!(
            "OUTPUT CHECK FAILED: {} of {} units failed",
            out.failed, out.attempted
        );
    }
    println!(
        "{}",
        metrics::result_line(
            out.correct,
            out.attempted,
            out.failed,
            &out.values,
            cfg.trace
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let Ok(Command::Run(w, cfg)) = parse(&args(
            "--workload density_vqe --seed 4 --seconds 12 --trace 1",
        )) else {
            panic!("driver command line rejected");
        };
        assert_eq!(w, "density_vqe");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (4, 12.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload clifford_ga --trace 2")).is_err());
        assert!(parse(&args("--workload clifford_ga --seconds")).is_err());
    }
}
