//! The frame-journey benchmark: four workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! nvc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//!     One run, as the driver asks for it. Prints every metric by name
//!     with its unit; the last stdout line is one JSON object with
//!     `correct`, `attempted`, `failed` and `metrics`.
//! nvc-benchmark --all [--seed N] [--seconds S] [--quick] [--repeat N] [--out FILE]
//!     Every workload, untraced then traced, each in a fresh child
//!     process. Exits non-zero on any incorrect output; with
//!     `--repeat`, also when an end-to-end spread exceeds its bound.
//! nvc-benchmark --manifest
//!     Prints `BENCHMARK.json`.
//! ```
//!
//! Results go to stdout and `--out`/`--spans` only; nothing is written
//! into the repository tree.

#![forbid(unsafe_code)]

mod catalogue;
mod json;
mod pacer;
mod probes;
mod procfs;
mod stats;
mod trace;
mod workloads;

use catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use json::Json;
use stats::{median, percentile_supported, quartile_spread};
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::decode_sparse::DecodeSparse;
use workloads::encode_sparse::EncodeSparse;
use workloads::relay_live::RelayLive;
use workloads::serve_sessions::ServeSessions;
use workloads::{Outcome, RunArgs};

/// Seeds the baseline table is recorded with: 1 while a change is
/// written, 2 held out.
const DEFAULT_SEED: u64 = 1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("nvc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The value after `--name`, parsed.
fn option<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let flag = |name: &str| args.iter().any(|a| a == name);
    if flag("--manifest") {
        print!("{}", catalogue::manifest());
        return Ok(true);
    }
    let quick = flag("--quick");
    let seed = option(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 =
        option(args, "--seconds")?.unwrap_or(if quick { 0.5 } else { RUN_SECONDS as f64 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if flag("--all") {
        let plan = Plan {
            seed,
            seconds,
            quick,
        };
        let repeat: usize = option(args, "--repeat")?.unwrap_or(1);
        let out: Option<String> = option(args, "--out")?;
        return run_all(&plan, repeat.max(1), out.as_deref());
    }
    let Some(workload) = option::<String>(args, "--workload")? else {
        return Err("give --workload NAME, --all or --manifest".into());
    };
    let trace = match option::<u8>(args, "--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(_) => return Err("--trace takes 0 or 1".into()),
    };
    let run_args = RunArgs {
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        setup_reps: if quick { 1 } else { workloads::SETUP_REPS },
    };
    let outcome = run_workload(&workload, &run_args)?;
    if let Some(path) = option::<String>(args, "--spans")? {
        let spans = outcome
            .tracer
            .as_ref()
            .map_or(Json::Arr(vec![]), |t| t.to_json());
        std::fs::write(&path, format!("{spans}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    let result = report_one(&workload, &outcome)?;
    println!("{result}");
    Ok(outcome.window.correct())
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "decode_sparse" => workloads::run::<DecodeSparse>(args),
        "encode_sparse" => workloads::run::<EncodeSparse>(args),
        "serve_sessions" => workloads::run::<ServeSessions>(args),
        "relay_live" => workloads::run::<RelayLive>(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Prints one run's metrics for a reader and returns the result object
/// for the driver.
fn report_one(workload: &str, outcome: &Outcome) -> Result<Json, String> {
    let window = &outcome.window;
    let samples = window.frame_ms.len();
    let note = |q: f64| {
        let rule = if percentile_supported(samples + window.failed as usize, q) {
            ""
        } else {
            ", fewer than 10 samples beyond it"
        };
        format!("n={samples}{rule}")
    };
    let metrics: Vec<(&str, &str, f64, String)> = match &outcome.layers {
        None => {
            let value = |name: &str| -> Result<(f64, String), String> {
                Ok(match name {
                    "setup_s" => (
                        median(&outcome.setup_s),
                        format!("median of {}", outcome.setup_s.len()),
                    ),
                    "fps" => (
                        window.fps(),
                        format!("median of {} passes", window.pass_fps.len()),
                    ),
                    "frame_ms_p50" => (window.latency_percentile(0.5), note(0.5)),
                    "cpu_ms_per_frame" => (
                        window.cpu_ms_per_frame(),
                        format!("{} frames", window.attempted),
                    ),
                    "peak_rss_mb" => (procfs::peak_rss_mib()?, String::new()),
                    "bpp" => (outcome.bpp, String::new()),
                    "psnr_db" => (outcome.psnr_db, String::new()),
                    other => return Err(format!("end-to-end metric `{other}` has no source")),
                })
            };
            END_TO_END
                .iter()
                .map(|m| value(m.name).map(|(v, note)| (m.name, m.unit, v, note)))
                .collect::<Result<_, _>>()?
        }
        Some(layers) => PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name), String::new()))
            .collect(),
    };
    let kind = if outcome.layers.is_some() {
        "per-layer, traced"
    } else {
        "end-to-end, untraced"
    };
    println!("{workload} ({kind})");
    for (name, unit, value, note) in &metrics {
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("  ({note})")
        };
        println!("  {name:<42} {value:>16.4} {unit}{note}");
    }
    if outcome.layers.is_none() {
        // Demoted from the end-to-end list (it could not hold a bound on
        // the reference host), still printed: this is the full window.
        let p90 = window.latency_percentile(0.9);
        println!(
            "  {:<42} {p90:>16.4} ms  ({}; not gated)",
            "frame_ms_p90",
            note(0.9)
        );
    }
    println!(
        "  frames attempted {}, failed {}",
        window.attempted, window.failed
    );
    for why in &window.failures {
        println!("  FAILED: {why}");
    }
    Ok(Json::obj([
        ("correct", Json::Bool(window.correct())),
        ("attempted", Json::Num(window.attempted as f64)),
        ("failed", Json::Num(window.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value, _)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ]))
}

struct Plan {
    seed: u64,
    seconds: f64,
    quick: bool,
}

/// One child run: its metrics by name and whether its outputs were
/// correct.
struct ChildRun {
    metrics: Vec<(String, f64)>,
    correct: bool,
}

/// Runs one workload in a fresh child process, so that its peak
/// resident memory is its own, and reads its result line back.
fn run_child(plan: &Plan, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if plan.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    let Ok(result) = Json::parse(last) else {
        return Err(format!(
            "{workload}: no result line (exit {}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    };
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        metrics,
        correct: result.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
    })
}

/// The recorded baseline: host, seeds, geometry, paced rates and, per
/// seed, the `bpp` and `psnr_db` every workload must still produce.
const BASELINE: &str = include_str!("../baseline.json");

/// `bpp` and `psnr_db` are exact for a seed. For a pinned seed, any
/// difference from the pin means the bitstream or the reconstruction
/// changed: that is reported as a failure, never re-baselined in
/// passing. Returns whether the run agrees with its pins (or has none).
fn pins_hold(baseline: &Json, seed: u64, workload: &str, run: &ChildRun) -> bool {
    let Some(pins) = baseline
        .get("pins")
        .and_then(|p| p.get(&seed.to_string()))
        .and_then(|p| p.get(workload))
    else {
        return true;
    };
    let mut hold = true;
    for name in ["bpp", "psnr_db"] {
        let pinned = pins.get(name).and_then(Json::as_f64);
        let measured = run.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        let agree =
            matches!((pinned, measured), (Some(p), Some(m)) if (p - m).abs() <= 1e-9 * p.abs());
        if !agree {
            println!("{workload}: {name} is {measured:?}, pinned {pinned:?} for seed {seed}: PIN MISMATCH");
            hold = false;
        }
    }
    hold
}

/// Simulated-time metrics: they must repeat exactly.
fn is_simulated_time(name: &str) -> bool {
    name.starts_with("sim.") && name != "sim.host_us_per_frame"
}

fn run_all(plan: &Plan, repeat: usize, out: Option<&str>) -> Result<bool, String> {
    println!(
        "host: nproc = {}, C = clamp(nproc, 2, 4) = {}; seed {}, {} s per run, {} set(s)",
        workloads::nproc(),
        workloads::clients(),
        plan.seed,
        plan.seconds,
        repeat
    );
    let baseline = Json::parse(BASELINE)?;
    let mut ok = true;
    // sets[set][workload] = (untraced, traced)
    let mut sets: Vec<Vec<(ChildRun, ChildRun)>> = Vec::new();
    for set in 0..repeat {
        if repeat > 1 {
            println!("--- set {} of {repeat} ---", set + 1);
        }
        let mut runs = Vec::new();
        for w in &WORKLOADS {
            let untraced = run_child(plan, w.name, false)?;
            let traced = run_child(plan, w.name, true)?;
            if !(untraced.correct && traced.correct) {
                println!("{}: INCORRECT OUTPUT", w.name);
                ok = false;
            }
            ok &= pins_hold(&baseline, plan.seed, w.name, &untraced);
            runs.push((untraced, traced));
        }
        sets.push(runs);
    }
    if repeat > 1 {
        ok &= report_repeat(&sets);
    }
    if let Some(path) = out {
        let doc = Json::obj([
            ("nproc", Json::Num(workloads::nproc() as f64)),
            ("clients", Json::Num(workloads::clients() as f64)),
            ("seed", Json::Num(plan.seed as f64)),
            ("seconds", Json::Num(plan.seconds)),
            (
                "sets",
                Json::Arr(
                    sets.iter()
                        .map(|runs| {
                            Json::obj(WORKLOADS.iter().zip(runs).map(|(w, (untraced, traced))| {
                                let table = |run: &ChildRun| {
                                    Json::obj(
                                        run.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))),
                                    )
                                };
                                (
                                    w.name,
                                    Json::obj([
                                        ("correct", Json::Bool(untraced.correct && traced.correct)),
                                        ("end_to_end", table(untraced)),
                                        ("per_layer", table(traced)),
                                    ]),
                                )
                            }))
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "{}",
        if ok {
            "benchmark: OK"
        } else {
            "benchmark: FAILED"
        }
    );
    Ok(ok)
}

/// Per end-to-end metric and workload: min / median / max over the
/// sets and the quartile spread against the bound. Returns whether
/// every spread held its bound and every exact count repeated.
fn report_repeat(sets: &[Vec<(ChildRun, ChildRun)>]) -> bool {
    let mut ok = true;
    println!("--- spread over {} sets ---", sets.len());
    for (wi, w) in WORKLOADS.iter().enumerate() {
        println!("{}", w.name);
        for m in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|runs| runs[wi].0.metrics.iter().find(|(k, _)| k == m.name))
                .map(|(_, v)| *v)
                .collect();
            let spread = quartile_spread(&values).unwrap_or(0.0);
            let sorted = stats::sorted(&values);
            let held = spread <= m.bound;
            ok &= held;
            println!(
                "  {:<18} min {:>12.4}  median {:>12.4}  max {:>12.4} {:<10} spread {:>6.2} % = {:>4.2} x bound{}",
                m.name,
                sorted.first().copied().unwrap_or(0.0),
                median(&values),
                sorted.last().copied().unwrap_or(0.0),
                m.unit,
                spread * 100.0,
                spread / m.bound,
                if held { "" } else { "  EXCEEDS BOUND" }
            );
        }
        // Exact numbers: simulated time from the traced runs, rate and
        // quality from the untraced ones.
        let exact = PER_LAYER
            .iter()
            .map(|l| (l.name, true))
            .filter(|(name, _)| is_simulated_time(name))
            .chain([("bpp", false), ("psnr_db", false)]);
        for (name, traced) in exact {
            let mut values = sets.iter().filter_map(|runs| {
                let run = if traced { &runs[wi].1 } else { &runs[wi].0 };
                run.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
            });
            let first = values.next();
            if values.any(|v| Some(v) != first) {
                println!("  {name} did not repeat exactly");
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `baseline.json` records the geometry, rates and seeds the source
    /// actually uses, and pins both seeds on all four workloads.
    #[test]
    fn baseline_records_the_source_constants() {
        use workloads::{decode_sparse as ds, relay_live as rl, serve_sessions as ss};
        let baseline = Json::parse(BASELINE).unwrap();
        let number = |path: &[&str]| {
            path.iter()
                .try_fold(&baseline, |at, key| at.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("baseline.json has no number at {path:?}"))
        };
        assert_eq!(number(&["run_seconds"]), RUN_SECONDS as f64);
        assert_eq!(number(&["setup_reps"]), workloads::SETUP_REPS as f64);
        assert_eq!(number(&["seeds", "default"]), DEFAULT_SEED as f64);
        let geometry = [
            ("decode_sparse", ds::WIDTH, ds::HEIGHT, ds::FRAMES),
            ("encode_sparse", ds::WIDTH, ds::HEIGHT, ds::FRAMES),
            ("serve_sessions", ss::WIDTH, ss::HEIGHT, ss::FRAMES),
            ("relay_live", rl::WIDTH, rl::HEIGHT, rl::FRAMES),
        ];
        assert_eq!(geometry.map(|g| g.0), WORKLOADS.each_ref().map(|w| w.name));
        for (name, width, height, frames) in geometry {
            assert_eq!(number(&["workloads", name, "width"]), width as f64);
            assert_eq!(number(&["workloads", name, "height"]), height as f64);
            assert_eq!(number(&["workloads", name, "frames"]), frames as f64);
            for seed in ["1", "2"] {
                assert!(number(&["pins", seed, name, "bpp"]) > 0.0);
                assert!(number(&["pins", seed, name, "psnr_db"]) > 0.0);
            }
        }
        assert_eq!(
            number(&["workloads", "serve_sessions", "paced_fps"]),
            ss::PACED_FPS
        );
        assert_eq!(
            number(&["workloads", "relay_live", "paced_fps"]),
            rl::PACED_FPS
        );
    }

    #[test]
    fn a_moved_pin_is_a_failure() {
        let baseline = Json::parse(BASELINE).unwrap();
        let pinned = |name: &str| {
            baseline
                .get("pins")
                .and_then(|p| p.get("1"))
                .and_then(|p| p.get("relay_live"))
                .and_then(|p| p.get(name))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let run = |bpp: f64| ChildRun {
            metrics: vec![("bpp".into(), bpp), ("psnr_db".into(), pinned("psnr_db"))],
            correct: true,
        };
        assert!(pins_hold(&baseline, 1, "relay_live", &run(pinned("bpp"))));
        assert!(!pins_hold(
            &baseline,
            1,
            "relay_live",
            &run(pinned("bpp") * 1.001)
        ));
        assert!(
            pins_hold(&baseline, 77, "relay_live", &run(0.5)),
            "no pin, no verdict"
        );
    }

    /// The names a `--quick` run prints are the names in
    /// `BENCHMARK.json`: none missing, none extra, on every workload
    /// and in both modes.
    #[test]
    fn quick_run_prints_exactly_the_catalogue() {
        let manifest = Json::parse(&catalogue::manifest()).unwrap();
        let names = |key: &str| -> BTreeSet<String> {
            manifest
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        for workload in names("workloads") {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = RunArgs {
                    seed: DEFAULT_SEED,
                    budget: Duration::from_millis(200),
                    trace,
                    setup_reps: 1,
                };
                let outcome = run_workload(&workload, &args).unwrap();
                let result = report_one(&workload, &outcome).unwrap();
                let keys: Vec<&str> = result
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
                let printed: BTreeSet<String> = result
                    .get("metrics")
                    .and_then(Json::as_object)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                assert_eq!(
                    printed,
                    names(key),
                    "{workload} --trace {}",
                    u8::from(trace)
                );
            }
        }
    }
}
