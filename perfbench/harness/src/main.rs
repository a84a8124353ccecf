//! `e3-perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! e3-perfbench run   --workload W --seed N --seconds S --trace 0|1 --out DIR [--size full|min]
//! e3-perfbench setup --workload W --seed N [--size full|min]
//! ```
//!
//! `run` measures one workload and prints a one-line JSON report
//! (`perfbench/run.py` turns it into the benchmark's result line).
//! `setup` builds the workload's ready state, prints `ready`, and exits:
//! `run` spawns it several times to time process start to ready.
//! Everything is driven through public calls of the E3 crates.

mod fleet;
mod http;
mod replay;
mod report;
mod single;
mod spans;

use e3_envs::EnvId;
use e3_platform::{BackendKind, E3Platform};
use e3_telemetry::Tracer;
use report::{median, Report};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Process start-to-ready measurements per batch. One batch runs
/// before the timed region and one after it; `setup_s` is the median
/// of both, so one moment of host contention cannot set it.
const SETUP_REPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BipedalCpu,
    LanderInax,
    FleetServe,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "bipedal-cpu" => Some(Workload::BipedalCpu),
            "lander-inax" => Some(Workload::LanderInax),
            "fleet-serve" => Some(Workload::FleetServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BipedalCpu => "bipedal-cpu",
            Workload::LanderInax => "lander-inax",
            Workload::FleetServe => "fleet-serve",
        }
    }
}

/// `full` is the benchmark; `min` shrinks every workload for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Min,
}

#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    size: Size,
    pub out: PathBuf,
}

fn single_spec(workload: Workload, size: Size) -> single::Spec {
    let (env, backend) = match workload {
        Workload::LanderInax => (EnvId::LunarLander, BackendKind::Inax),
        _ => (EnvId::Bipedal, BackendKind::Cpu),
    };
    let (population, reference_generations, epoch_generations) = match (workload, size) {
        (_, Size::Min) => (10, 2, 4),
        (Workload::LanderInax, Size::Full) => (200, 4, 20),
        (_, Size::Full) => (200, 3, 10),
    };
    single::Spec {
        env,
        backend,
        population,
        reference_generations,
        epoch_generations,
    }
}

fn fleet_spec(size: Size) -> fleet::Spec {
    match size {
        Size::Full => fleet::Spec {
            population: 50,
            generations: 10,
            reference_runs: 2,
        },
        Size::Min => fleet::Spec {
            population: 10,
            generations: 4,
            reference_runs: 1,
        },
    }
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let mode = raw.next().ok_or("missing mode (run | setup)")?;
    let mut args = Args {
        workload: Workload::BipedalCpu,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out: PathBuf::from("."),
    };
    let mut workload = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "min" => Size::Min,
                    _ => return Err(format!("unknown size {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("missing --workload")?;
    Ok((mode, args))
}

/// Builds the workload's ready state, announces it, and tears it down.
fn setup(args: &Args) -> Result<(), String> {
    let ready = || {
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "ready");
        let _ = stdout.flush();
    };
    match args.workload {
        Workload::FleetServe => {
            let manager = std::sync::Arc::new(std::sync::Mutex::new(e3_islands::RunManager::new()));
            let mut server = e3_serve::serve(manager, e3_serve::ServeOptions::default())
                .map_err(|e| format!("bind: {e}"))?;
            ready();
            server.shutdown();
        }
        workload => {
            let spec = single_spec(workload, args.size);
            let platform = E3Platform::new(single::config(spec, 2), spec.backend, args.seed);
            ready();
            drop(platform);
        }
    }
    Ok(())
}

/// Times `SETUP_REPS` fresh processes from spawn to `ready`.
fn measure_setup(args: &Args, report: &mut Report) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let size = if args.size == Size::Min {
        "min"
    } else {
        "full"
    };
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let child = Command::new(&exe)
            .args(["setup", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string(), "--size", size])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(child) => child,
            Err(err) => {
                report.ops.record(false, || format!("setup spawn: {err}"));
                continue;
            }
        };
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = started.elapsed().as_secs_f64();
        let status = child.wait();
        let ok = read.is_ok() && line.trim() == "ready" && status.is_ok_and(|s| s.success());
        report
            .ops
            .record(ok, || format!("setup process failed: {line:?}"));
        if ok {
            samples.push(elapsed);
        }
    }
    samples
}

/// Whether the JIT tier emits native code on this host.
pub fn jit_native() -> bool {
    let genome = e3_neat::Genome::bare(2, 1);
    e3_neat::NetPlan::compile(&genome)
        .ok()
        .is_some_and(|plan| e3_jit::CompiledPlan::compile(&plan).is_ok())
}

/// Writes the workload's Chrome trace next to the other outputs.
pub fn write_trace(tracer: &Tracer, args: &Args) -> Result<String, String> {
    let path = args
        .out
        .join(format!("{}.trace.json", args.workload.name()));
    tracer
        .write_chrome_trace(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Span categories whose self time is reported per unit of work; the
/// replay categories are fixed-budget loops, so their self time says
/// nothing.
const SELF_TIME_LAYERS: [&str; 4] = ["harness", "platform", "islands", "serve"];

/// Records self time per span category, per unit of work (generation
/// or tenant run).
pub fn self_times(report: &mut Report, tracer: &Tracer, units: usize) {
    let totals = spans::self_ms_by_category(&tracer.spans());
    for (cat, ms) in &totals {
        report
            .self_times
            .push((cat.clone(), ms / units.max(1) as f64));
    }
    for cat in SELF_TIME_LAYERS {
        let ms = totals.get(cat).copied().unwrap_or(0.0);
        report.layer(
            &format!("{cat}.self_ms"),
            ms / units.max(1) as f64,
            "ms",
            units,
        );
    }
}

/// Records the traced segment's end-to-end metrics as `traced.*`
/// properties, and the tracing overhead on `evals_per_s`.
pub fn traced_e2e(report: &mut Report, traced: Vec<(&'static str, f64, &'static str, usize)>) {
    for (name, value, unit, _) in traced {
        if name == "evals_per_s" {
            if let Some(untraced) = report.e2e.iter().find(|m| m.name == name) {
                let overhead = (untraced.value - value) / untraced.value * 100.0;
                report.layer("trace.overhead_pct", overhead, "%", 2);
            }
        }
        report.property(&format!("traced.{name}"), value, unit);
    }
}

fn run(args: &Args) -> Report {
    let mut report = Report {
        workload: args.workload.name().to_string(),
        ..Report::default()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.host = vec![
        ("nproc".to_string(), cores.to_string()),
        ("arch".to_string(), std::env::consts::ARCH.to_string()),
        ("os".to_string(), std::env::consts::OS.to_string()),
        ("jit_native".to_string(), jit_native().to_string()),
    ];
    let mut setup = measure_setup(args, &mut report);
    if let Err(err) = std::fs::create_dir_all(&args.out) {
        report
            .ops
            .record(false, || format!("create {}: {err}", args.out.display()));
    }
    let result = match args.workload {
        Workload::FleetServe => fleet::run(fleet_spec(args.size), args, &mut report),
        workload => single::run(single_spec(workload, args.size), args, &mut report),
    };
    if let Err(err) = result {
        report.ops.record(false, || err);
    }
    setup.extend(measure_setup(args, &mut report));
    report.e2e("setup_s", median(&setup), "s", setup.len());
    report.e2e("peak_rss_mb", report::peak_rss_mb(), "MB", 1);
    let (rate, attempted) = (report.ops.error_rate(), report.ops.attempted as usize);
    report.e2e("error_rate", rate, "ratio", attempted);
    report
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("e3-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match mode.as_str() {
        "setup" => match setup(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("e3-perfbench: setup: {err}");
                ExitCode::FAILURE
            }
        },
        "run" => {
            println!("{}", run(&args).to_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("e3-perfbench: unknown mode {mode}");
            ExitCode::from(2)
        }
    }
}
