//! `ledger`: the repo's benchmark. One end-to-end yardstick and one
//! per-layer breakdown for training steps and served requests, over the
//! layer crates' public APIs only.
//!
//! ```text
//! ledger [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics on the bare
//! engine; `--trace 1` is a separate run that wraps the transports in
//! `CountingTransport`, records spans around every call into a layer,
//! replays each layer at the workload's shapes, and writes
//! `ledger_trace.<workload>.json`. Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See the README beside this package for the tables.

mod counting;
mod fabric;
mod layers;
mod machine;
mod measured;
mod metrics;
mod serve;
mod spans;
mod spec;
mod stats;
mod train;

pub use measured::Measured;
pub use metrics::Metrics;
use spans::Tracer;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Socket files live here (relative, so paths stay short and inside the
/// checkout the benchmark runs from); removed at exit.
const TMP_DIR: &str = ".ledger_tmp";

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
}

impl RunArgs {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-ups timed per untraced run, at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;
/// Set-ups repeat for this long: a serving set-up is 40 ms of
/// bind/spawn/warm-up, and the median of five moved by a quarter between
/// two sets of runs of the same code.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Median seconds of the set-ups of one run, and how many there were.
pub struct SetUp {
    pub median_s: f64,
    pub count: usize,
}

/// Builds (and warms) an engine at least [`MIN_SETUPS`] times and until
/// [`SETUP_BUDGET`] is spent, dropping each before the next; hands back
/// the last one.
pub fn timed_setups<T>(mut set_up: impl FnMut() -> T) -> (T, SetUp) {
    let start = std::time::Instant::now();
    let mut secs = Vec::new();
    let mut engine = None;
    while secs.len() < MIN_SETUPS || start.elapsed() < SETUP_BUDGET {
        drop(engine.take());
        let t0 = std::time::Instant::now();
        engine = Some(set_up());
        secs.push(t0.elapsed().as_secs_f64());
    }
    let set_ups = SetUp {
        median_s: stats::median(&secs),
        count: secs.len(),
    };
    (engine.expect("MIN_SETUPS is at least 1"), set_ups)
}

enum Workload {
    Train(&'static train::TrainSpec),
    Serve(&'static serve::ServeSpec),
}

fn find_workload(name: &str) -> Result<Workload, String> {
    let train = train::SPECS.iter().find(|s| s.name == name);
    let serve = serve::SPECS.iter().find(|s| s.name == name);
    match (train, serve) {
        (Some(s), _) => Ok(Workload::Train(s)),
        (None, Some(s)) => Ok(Workload::Serve(s)),
        (None, None) => Err(format!("unknown workload `{name}`")),
    }
}

/// What an untraced run hands back.
pub struct Untraced {
    pub measured: Measured,
    pub set_up: SetUp,
    pub correct: bool,
}

/// Prints the result line `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}` and hands back `correct`.
fn print_result(correct: bool, m: &Measured, metrics: &[(&str, f64, &str)]) -> bool {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted, m.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!("{out}}}}}");
    correct
}

/// Runs one workload untraced and prints the end-to-end metrics; `Ok`
/// carries the run's `correct`.
fn run_end_to_end(name: &str, args: &RunArgs) -> Result<bool, String> {
    let run = match find_workload(name)? {
        Workload::Train(s) => train::run_untraced(s, args),
        Workload::Serve(s) => serve::run_untraced(s, args),
    };
    let m = &run.measured;
    let sum = m.summary().ok_or_else(|| {
        format!(
            "{name}: the window gave {} ops, a slice needs {}",
            m.succeeded(),
            measured::MIN_SLICE_OPS
        )
    })?;
    let rss = machine::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        ("tokens_per_s", sum.tokens_per_s),
        ("op_p50_ms", sum.p50_ms),
        ("peak_rss_mb", rss),
        ("setup_s", run.set_up.median_s),
    ];
    let fail_ratio = m.failed as f64 / m.attempted as f64;
    println!(
        "{name}: {} ops attempted, {} failed (fail_ratio {fail_ratio}), timed wall {:.3} s, \
         whole-window {:.1} tok/s",
        m.attempted,
        m.failed,
        m.wall_s,
        m.tokens_per_s()
    );
    println!("  slice tok/s: {:.0?}", sum.slice_tokens_per_s);
    println!("  slice p50 ms: {:.3?}", sum.slice_p50_ms);
    let mut metrics = Vec::new();
    for e in spec::END_TO_END {
        let (_, value) = values
            .iter()
            .find(|(n, _)| *n == e.name)
            .expect("every end-to-end metric is measured");
        let samples = match e.name {
            "setup_s" => format!("median of {} set-ups", run.set_up.count),
            "peak_rss_mb" => "at exit".to_string(),
            _ => format!(
                "mean of the best {} of {} slices of n={}",
                measured::BEST_SLICES,
                sum.slice_p50_ms.len(),
                sum.ops_per_slice
            ),
        };
        println!("  {:<14} {value:>14.4} {:<6} ({samples})", e.name, e.unit);
        metrics.push((e.name, *value, e.unit));
    }
    Ok(print_result(run.correct && m.failed == 0, m, &metrics))
}

/// Runs one workload traced, prints the per-layer metrics and writes the
/// span file.
fn run_per_layer(name: &str, args: &RunArgs) -> Result<bool, String> {
    let mut tracer = Tracer::new();
    let (m, values) = match find_workload(name)? {
        Workload::Train(s) => train::run_traced(s, args, &mut tracer),
        Workload::Serve(s) => serve::run_traced(s, args, &mut tracer),
    };
    println!(
        "{name} (traced): {} ops attempted, {} failed, timed wall {:.3} s, {} spans",
        m.attempted,
        m.failed,
        m.wall_s,
        tracer.len()
    );
    let mut metrics = Vec::new();
    for p in spec::PER_LAYER {
        let value = values
            .get(p.name)
            .ok_or_else(|| format!("{name}: per-layer metric `{}` was not measured", p.name))?;
        println!("  {:<34} {value:>16.4} {}", p.name, p.unit);
        metrics.push((p.name, value, p.unit));
    }
    if let Some(stray) = values.stray() {
        return Err(format!("{name}: `{stray}` is not in the per-layer table"));
    }
    let path = format!("ledger_trace.{name}.json");
    std::fs::write(&path, tracer.to_json(name, args.seed))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("[spans written to {path}]");
    Ok(print_result(m.failed == 0, &m, &metrics))
}

struct Cli {
    workload: String,
    trace: bool,
    run: RunArgs,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".to_string(),
        trace: false,
        run: RunArgs {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => {
                cli.run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer")?
            }
            "--seconds" => {
                cli.run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// `--workload all`: one child process per workload, in table order, so
/// `peak_rss_mb` is each workload's own and a crash names its workload.
fn run_each_in_a_child(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &cli.run.seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--print-benchmark-json") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_each_in_a_child(&cli);
    }
    // Two cores: one kernel thread per rank, never the pool's default.
    actcomp_tensor::pool::set_threads(1);
    println!("{}", machine::block(cli.run.seed));
    if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
        eprintln!("error: creating {TMP_DIR}: {e}");
        return ExitCode::from(2);
    }
    // `SocketTransport` binds Unix sockets under `temp_dir()`. Set before
    // any thread exists.
    std::env::set_var("TMPDIR", TMP_DIR);
    let outcome = if cli.trace {
        run_per_layer(&cli.workload, &cli.run)
    } else {
        run_end_to_end(&cli.workload, &cli.run)
    };
    // Only if empty: the socket guards have unlinked their files.
    let _ = std::fs::remove_dir(TMP_DIR);
    let ok = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        false
    });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
