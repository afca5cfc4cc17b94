//! `rqfa-benchmark`: the wall-clock, outside-in benchmark of the rqfa
//! serving stack. See `README.md` beside this package.
//!
//! ```text
//! rqfa-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! rqfa-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
//! rqfa-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, the last line of standard output being one JSON object. The
//! second runs every workload, each in a child process of its own so
//! that peak memory and CPU time are per workload, first with tracing
//! off and then with it on, and can save all results for `compare`.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode, Stdio};

use rqfa_benchmark::json::Json;
use rqfa_benchmark::run::{self, Report, Scale};
use rqfa_benchmark::spec::{self, Spec, WORKLOADS};
use rqfa_benchmark::{compare, machine};

const USAGE: &str = "usage:
  rqfa-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  rqfa-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
  rqfa-benchmark compare A.json B.json [--spec BENCHMARK.json]";

/// The measured phase's default length, seconds; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.5 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("rqfa-benchmark compare: {message}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("rqfa-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.workload {
        Some(spec) => run_one(spec, &args),
        None => run_all(&args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload here and prints its metrics; the last line is the
/// JSON object the driver reads.
fn run_one(spec: &'static Spec, args: &Args) -> bool {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let report = run::run(spec, args.seed, scale, args.traced);
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        spec.name,
        args.seed,
        scale.seconds,
        u8::from(args.traced),
        machine::cores(),
    );
    for metric in &report.metrics {
        println!(
            "  {:<34} {:>16.4} {:<6} n={}",
            metric.def.name, metric.value, metric.def.unit, metric.samples
        );
    }
    println!("{}", report_json(&report).render());
    report.correct
}

fn report_json(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|metric| {
                (
                    metric.def.name,
                    Json::obj([
                        ("value", Json::Num(metric.value)),
                        ("unit", Json::Str(metric.def.unit.into())),
                    ]),
                )
            })),
        ),
    ])
}

/// Runs every workload, each twice (tracing off, then on) in a child
/// process of its own, and saves the parsed results when asked to.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_correct = true;
    let mut results = Vec::new();
    for spec in &WORKLOADS {
        let mut members = Vec::new();
        for (traced, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", spec.name, "--trace", traced])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdout(Stdio::piped());
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command.output().expect("child process starts");
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let parsed = text.lines().last().and_then(|line| Json::parse(line).ok());
            let correct = output.status.success()
                && parsed.as_ref().and_then(|p| p.get("correct")?.as_bool()) == Some(true);
            if !correct {
                eprintln!(
                    "rqfa-benchmark: {} --trace {traced} did not pass",
                    spec.name
                );
                all_correct = false;
            }
            members.push((key, parsed.unwrap_or(Json::Null)));
        }
        results.push((spec.name, Json::obj(members)));
    }
    if let Some(path) = &args.out {
        let document = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("workloads", Json::obj(results)),
        ]);
        if let Err(error) = std::fs::write(path, document.render() + "\n") {
            eprintln!("rqfa-benchmark: cannot write {path}: {error}");
            all_correct = false;
        }
    }
    all_correct
}
