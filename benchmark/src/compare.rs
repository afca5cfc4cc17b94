//! `rqfa-benchmark compare A B`: for every workload and end-to-end
//! metric, both values, the difference with its base, the bound from
//! `BENCHMARK.json`, and a verdict. `A` is the base (the parent commit
//! or the first set), `B` the candidate. Either side may be several
//! result files joined by commas; their median is compared and their
//! spread decides between `regressed` and `unresolved`.

use crate::json::Json;
use crate::tally::{median, spread};

struct Bounded {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_spec(path: &str) -> Result<(Vec<String>, Vec<Bounded>), String> {
    let spec = read_json(path)?;
    let workloads = spec
        .get("workloads")
        .map(|w| w.elements())
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    let metrics = spec
        .get("end_to_end")
        .map(|m| m.elements())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    Ok((workloads, metrics))
}

/// One side's values of a metric on a workload, one per result file.
fn side(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|file| {
            file.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compares two sets; `Ok(true)` when nothing regressed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--spec" {
            spec_path = iter.next().ok_or("--spec needs a value")?.clone();
        } else {
            paths.push(arg);
        }
    }
    let [base_paths, candidate_paths] = paths[..] else {
        return Err("compare takes two result sets".into());
    };
    let load = |list: &str| {
        list.split(',')
            .map(read_json)
            .collect::<Result<Vec<_>, _>>()
    };
    let (base, candidate) = (load(base_paths)?, load(candidate_paths)?);
    let (workloads, metrics) = read_spec(&spec_path)?;

    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "change", "bound"
    );
    let mut regressed = 0;
    for workload in &workloads {
        for metric in &metrics {
            let a = side(&base, workload, &metric.name);
            let b = side(&candidate, workload, &metric.name);
            let label = format!("{} [{}]", metric.name, metric.unit);
            if a.is_empty() || b.is_empty() {
                println!(
                    "{workload:<14} {label:<28} {:>14} {:>14} {:>9} {:>7}  unresolved (missing)",
                    "-", "-", "-", "-"
                );
                continue;
            }
            let (base_value, value) = (median(&a), median(&b));
            let change = (value - base_value) / base_value.abs().max(f64::MIN_POSITIVE);
            let worsening = if metric.higher_is_better {
                -change
            } else {
                change
            };
            let verdict = if worsening <= metric.bound {
                "ok"
            } else if spread(&a).max(spread(&b)) > metric.bound {
                // The sets are noisier than the bound: a difference this
                // size cannot be told from run-to-run variation.
                "unresolved"
            } else {
                regressed += 1;
                "regressed"
            };
            println!(
                "{workload:<14} {label:<28} {base_value:>14.4} {value:>14.4} {:>+8.2}% {:>6.0}%  {verdict}",
                change * 100.0,
                metric.bound * 100.0,
            );
        }
    }
    println!(
        "change is (candidate - base) / base; n = {} base, {} candidate result set(s); {regressed} regressed",
        base.len(),
        candidate.len()
    );
    Ok(regressed == 0)
}
