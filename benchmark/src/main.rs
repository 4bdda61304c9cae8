//! End-to-end host-time benchmark of the vlog simulator. See README.md.
//!
//! One workload per process: `--workload NAME --seed S --seconds T
//! --trace 0|1` measures it and prints every metric as `<workload>
//! <metric> <value> <unit>`, then one JSON object on the last line.
//! Without `--workload` the binary runs every workload, end to end and
//! traced, each in a child process of its own (fresh RSS, allocator and
//! thread-locals), and writes `benchmark/out/results.json`.

mod alloc;
mod host;
mod measure;
mod names;
mod plan;
mod probes;
mod summary;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use measure::{Outcome, RunSpec};
use names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where trace files, results and the sweep's report files go, relative
/// to the repository root (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
              [--quick] [--include-known-failing]
       run.sh --list | --compare A.txt B.txt

  --workload NAME   measure one workload in this process (default: all,
                    each end to end and traced, in child processes)
  --seed S          every cluster's ClusterConfig::seed (default 11); the
                    work is the same under every seed (see --list)
  --seconds T       measuring time per run (default 15)
  --trace 0|1       0: end-to-end metrics, tracing off (default);
                    1: per-layer metrics and benchmark/out/trace_NAME.json
  --quick           one iteration per phase, for smoke use
  --include-known-failing
                    add the nas CG.S/16 recovery cells that do not
                    complete today to recovery_mix
  --list            print workload and metric names with units; no run
  --compare A B     compare two saved outputs of a full run (repeat.sh)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    known_failing: bool,
}

enum Mode {
    Run(Args),
    Help,
    List,
    Compare(PathBuf, PathBuf),
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: names::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        known_failing: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !names::is_workload(&name) {
                    return Err(format!("unknown workload {name} (see --list)"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let raw = value()?;
                args.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed {raw}: not a u64"))?;
            }
            "--seconds" => {
                let raw = value()?;
                args.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {raw}: not a duration"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--include-known-failing" => args.known_failing = true,
            "--help" | "-h" => return Ok(Mode::Help),
            "--list" => return Ok(Mode::List),
            "--compare" => return Ok(Mode::Compare(value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Mode::Run(args))
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<15} {why}");
    }
    println!(
        "--seed sets every cluster's ClusterConfig::seed and nothing else: all six workloads \
         are fixed canonical runs that do the same work under every seed"
    );
    for (title, defs) in [
        ("end-to-end metrics (tracing off)", &END_TO_END[..]),
        ("per-layer metrics (traced run)", &PER_LAYER[..]),
    ] {
        println!("{title}:");
        for m in defs {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
            println!(
                "  {:<40} {:<8} {} is better{bound}",
                m.name,
                m.unit,
                m.better.label()
            );
        }
    }
}

/// A value as JSON and the metric lines print it: all its digits, and 0
/// for the non-finite results of a degenerate division.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn failed_share(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Measures one workload in this process and prints its result.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let spec = RunSpec {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        known_failing: args.known_failing,
        out: PathBuf::from(OUT_DIR),
    };
    let Outcome {
        attempted,
        failed,
        metrics,
    } = if args.trace {
        measure::traced(&spec)
    } else {
        measure::end_to_end(&spec)
    };
    for (def, value) in &metrics {
        println!("{workload} {} {} {}", def.name, number(*value), def.unit);
    }
    println!("{workload} attempted {attempted} count");
    println!("{workload} failed {failed} count");
    println!(
        "{workload} failed_share {} ratio",
        number(failed_share(attempted, failed))
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                number(*value),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        fields.join(", ")
    );
    // The known-failing cells are reported, not gated: the flag exists
    // to watch them, and they fail until the recovery bug is fixed.
    if failed > 0 && !args.known_failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One `<workload> <metric> <value> <unit>` line.
struct Row {
    workload: String,
    metric: String,
    value: f64,
    unit: String,
}

fn parse_rows(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|line| {
            let mut tokens = line.split_whitespace();
            let row = Row {
                workload: tokens.next()?.to_string(),
                metric: tokens.next()?.to_string(),
                value: tokens.next()?.parse().ok()?,
                unit: tokens.next()?.to_string(),
            };
            (tokens.next().is_none() && names::is_workload(&row.workload)).then_some(row)
        })
        .collect()
}

/// Runs every workload (or the one named), end to end and traced, each
/// in its own child process; echoes the children's metric lines and
/// writes them to `results.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the path of this executable");
    let mut rows = Vec::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            if args.known_failing {
                child.arg("--include-known-failing");
            }
            // `output` waits for the child and collects its stdout;
            // stderr is inherited so progress and panics show live.
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn a child of this executable");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let child_rows = parse_rows(&stdout);
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            if !output.status.success() || child_rows.is_empty() {
                eprintln!("{workload} --trace {trace}: {}", output.status);
                ok = false;
            }
            rows.extend(child_rows);
        }
    }
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                r.workload,
                r.metric,
                number(r.value),
                r.unit
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"threads\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        args.seed,
        host::threads(),
        entries.join(",\n")
    );
    let path = Path::new(OUT_DIR).join("results.json");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!("results: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Counts that must be bit-identical between two runs of one commit.
fn is_exact(def: &MetricDef) -> bool {
    let n = def.name;
    n.starts_with("model.")
        || n.starts_with("core.el.")
        || n.ends_with(".calls")
        || n.ends_with(".events")
        || n.ends_with(".runs")
        || ["explore.distinct_schedules", "explore.violations"].contains(&n)
}

/// A/A comparison of two saved full runs: every end-to-end pair must
/// agree within the metric's bound, every exact count must be equal.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| match std::fs::read_to_string(p) {
        Ok(text) => parse_rows(&text),
        Err(e) => {
            eprintln!("{}: {e}", p.display());
            Vec::new()
        }
    };
    let (a_rows, b_rows) = (load(a), load(b));
    let find = |rows: &[Row], w: &str, m: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .map(|r| r.value)
    };
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff %", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(x), Some(y)) = (
                find(&a_rows, workload, def.name),
                find(&b_rows, workload, def.name),
            ) else {
                eprintln!("{workload} {}: missing from one side", def.name);
                ok = false;
                continue;
            };
            if let Some(bound) = def.bound {
                let diff = (y - x) / x;
                let verdict = if diff.abs() <= bound { "" } else { "  OUTSIDE" };
                println!(
                    "{workload:<14} {:<14} {x:>16.6} {y:>16.6} {:>8.2} {:>5.0}%{verdict}",
                    def.name,
                    diff * 100.0,
                    bound * 100.0
                );
                ok &= diff.abs() <= bound;
            } else if is_exact(def) && x != y {
                println!("{workload:<14} {} differs: {x} vs {y}", def.name);
                ok = false;
            }
        }
    }
    if ok {
        println!("A/A: every end-to-end pair within its bound, every exact count identical");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // First of all: the program under test must see generated inputs
    // only, and caches its knobs on first use.
    host::scrub_env();
    match parse_args(std::env::args().skip(1)) {
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Mode::List) => {
            list();
            ExitCode::SUCCESS
        }
        Ok(Mode::Compare(a, b)) => compare(&a, &b),
        Ok(Mode::Run(args)) => match args.workload.clone() {
            Some(workload) => run_one(&args, &workload),
            None => run_all(&args),
        },
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Mode, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let argv = "--workload causal_el --seed 7 --seconds 3 --trace 1";
        let Ok(Mode::Run(args)) = parse(&argv.split(' ').collect::<Vec<_>>()) else {
            panic!("driver-style arguments must parse");
        };
        assert_eq!(args.workload.as_deref(), Some("causal_el"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(!args.quick && !args.known_failing);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for argv in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn metric_lines_round_trip_through_the_row_parser() {
        let text = "causal_el wall_s 0.3612 s\nnoise line here\n\
                    {\"correct\": true}\nnot_a_workload wall_s 1 s\nsweep_regimes model.messages 12 count\n";
        let rows = parse_rows(text);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric.as_str(), rows[0].value), ("wall_s", 0.3612));
        assert_eq!(rows[1].workload, "sweep_regimes");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(1.0 / 0.0), "0");
    }

    #[test]
    fn exact_counts_are_the_documented_families() {
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|d| is_exact(d))
            .map(|d| d.name)
            .collect();
        assert!(exact.contains(&"model.fingerprint"));
        assert!(exact.contains(&"sim.calendar.calls"));
        assert!(exact.contains(&"sim.kernel.events"));
        assert!(exact.contains(&"core.el.records"));
        assert!(!exact
            .iter()
            .any(|n| n.ends_with("_s") && !n.starts_with("model.")));
        assert!(!exact.iter().any(|n| n.starts_with("alloc.")));
    }
}
