//! The `fleet-serve` workload: a closed loop of small island runs
//! against one in-process `RunManager` with an `e3_serve` server
//! attached.
//!
//! Harness thread A submits a tenant run, tails its
//! `/runs/{id}/events` stream to the end, joins, and repeats — one run
//! in flight at a time. Harness thread B polls `GET /metrics` and
//! `GET /runs/{id}` back-to-back for the whole timed region.

use crate::http;
use crate::report::{mean, median, percentile, Digest, Ops, Report};
use crate::{replay, Args};
use e3_envs::EnvId;
use e3_islands::{
    island_seed, Archipelago, ArchipelagoOutcome, IslandsConfig, RunId, RunManager, RunOptions,
    SharedCollector, SubmitOptions, Topology,
};
use e3_neat::Genome;
use e3_platform::store::RunStore;
use e3_platform::{fingerprint, BackendKind, CheckpointPolicy, E3Config, E3Platform, JitConfig};
use e3_serve::{serve, ServeOptions};
use e3_telemetry::{Collector, MemoryCollector, TelemetryError, TelemetryEvent, Tracer};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The tenant shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub population: usize,
    pub generations: usize,
    /// Tenant runs replayed on a bare `Archipelago` before timing.
    pub reference_runs: usize,
}

const ISLANDS: usize = 2;

/// One tenant: CartPole, 2 islands on a ring migrating every 2
/// generations, one evaluation thread, the JIT tier on, and (when
/// served) checkpoints every 2 generations keeping 2.
fn tenant(spec: Spec, seed: u64, checkpoints: Option<&Path>) -> IslandsConfig {
    let base = E3Config::builder(EnvId::CartPole)
        .population_size(spec.population)
        .max_generations(spec.generations)
        .target_fitness(f64::INFINITY)
        .threads(1)
        .jit(JitConfig {
            enabled: true,
            ..JitConfig::default()
        })
        .build();
    let builder = IslandsConfig::builder(base)
        .backend(BackendKind::Cpu)
        .islands(ISLANDS)
        .topology(Topology::Ring)
        .migration_interval(2)
        .seed(seed);
    match checkpoints {
        Some(dir) => builder
            .checkpoint(
                CheckpointPolicy::new(dir.display().to_string())
                    .every(2)
                    .keep_last(2),
            )
            .build(),
        None => builder.build(),
    }
}

/// What a finished tenant run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    fingerprints: Vec<u64>,
    migrations: usize,
    /// Island and migration records, canonicalized and sorted (two
    /// islands interleave differently from run to run).
    records: Vec<String>,
}

fn outcome(result: &ArchipelagoOutcome, events: &[TelemetryEvent]) -> Outcome {
    let mut records: Vec<String> = events
        .iter()
        .filter_map(|event| match event {
            TelemetryEvent::Island(r) => Some(format!(
                "island {} gen {} best {:016x} ever {:016x} species {} retired {}",
                r.island,
                r.generation,
                r.best_fitness.to_bits(),
                r.best_ever.to_bits(),
                r.species,
                r.retired
            )),
            TelemetryEvent::Migration(r) => Some(format!(
                "migration {} gen {} from {:?} in {} out {}",
                r.island, r.generation, r.sources, r.immigrants, r.emigrants
            )),
            _ => None,
        })
        .collect();
    records.sort();
    Outcome {
        fingerprints: result
            .islands
            .iter()
            .map(|i| i.population_fingerprint)
            .collect(),
        migrations: result.migrations,
        records,
    }
}

/// Collects a reference run's records.
struct Sink(Arc<Mutex<Vec<TelemetryEvent>>>);

impl Collector for Sink {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        self.0.lock().expect("sink lock").push(event.clone());
        Ok(())
    }
}

/// The tenant run on a bare `Archipelago`: no service, no server, no
/// checkpoints.
fn reference(spec: Spec, seed: u64) -> Result<Outcome, String> {
    let archipelago = Archipelago::new(tenant(spec, seed, None)).map_err(|e| e.to_string())?;
    let events = Arc::new(Mutex::new(Vec::new()));
    let collector = SharedCollector::new(Sink(Arc::clone(&events)));
    let result = archipelago
        .run(&RunOptions::with_drivers(1), &collector)
        .map_err(|e| e.to_string())?;
    let events = events.lock().expect("sink lock");
    Ok(outcome(&result, &events))
}

/// Timings and records of one served tenant run.
#[derive(Debug, Default)]
struct Tenant {
    submit_ms: f64,
    join_ms: f64,
    run_ms: f64,
    events: usize,
    island_records: usize,
    species: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    migrations: usize,
    lag_ms: Vec<f64>,
    bests: Vec<Genome>,
}

#[derive(Debug, Clone, Copy)]
struct Scrape {
    first_byte_ms: f64,
    total_ms: f64,
    bytes: usize,
    series: usize,
    finished_runs: usize,
}

#[derive(Debug)]
struct Served {
    setup_s: f64,
    wall_s: f64,
    tenants: Vec<Tenant>,
    polled: Polled,
}

/// The served side both harness threads talk to.
#[derive(Clone, Copy)]
struct Service<'a> {
    manager: &'a Arc<Mutex<RunManager>>,
    addr: SocketAddr,
    /// The tenant run in flight, for thread B's status polls.
    current: &'a Mutex<Option<RunId>>,
    tracer: &'a Tracer,
}

/// What thread B saw.
#[derive(Debug, Default)]
struct Polled {
    scrapes: Vec<Scrape>,
    status_ms: Vec<f64>,
    /// Whether any `/runs/{id}` snapshot carried JIT counters.
    status_jit: bool,
    ops: Ops,
}

/// Thread B: scrape and status polls until told to stop.
fn poll(service: Service<'_>, finished: &AtomicUsize, stop: &AtomicBool) -> Polled {
    let Service {
        addr,
        current,
        tracer,
        ..
    } = service;
    let mut scrapes = Vec::new();
    let mut status_ms = Vec::new();
    let mut status_jit = false;
    let mut local = Ops::default();
    while !stop.load(Ordering::Relaxed) {
        let finished_runs = finished.load(Ordering::Relaxed);
        let response = {
            let _span = tracer.span("GET /metrics", "serve");
            http::get(addr, "/metrics")
        };
        let ok = matches!(&response, Ok(r) if r.status == 200);
        local.record(ok, || {
            format!(
                "GET /metrics failed: {:?}",
                response.as_ref().map(|r| r.status)
            )
        });
        if let (true, Ok(r)) = (ok, &response) {
            let body = String::from_utf8_lossy(&r.body);
            scrapes.push(Scrape {
                first_byte_ms: r.first_byte_s * 1e3,
                total_ms: r.total_s * 1e3,
                bytes: r.body.len(),
                series: body
                    .lines()
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .count(),
                finished_runs,
            });
        }
        let id = *current.lock().expect("current-run lock");
        if let Some(id) = id {
            let response = {
                let _span = tracer.span("GET /runs/{id}", "serve");
                http::get(addr, &format!("/runs/{id}"))
            };
            let ok = matches!(&response, Ok(r) if r.status == 200);
            local.record(ok, || {
                format!(
                    "GET /runs/{id} failed: {:?}",
                    response.as_ref().map(|r| r.status)
                )
            });
            if let (true, Ok(r)) = (ok, &response) {
                status_ms.push(r.total_s * 1e3);
                status_jit |= !String::from_utf8_lossy(&r.body).contains("\"jit\":null");
            }
        }
    }
    Polled {
        scrapes,
        status_ms,
        status_jit,
        ops: local,
    }
}

/// Thread A's work for one tenant run.
fn tenant_run(
    service: Service<'_>,
    spec: Spec,
    seed: u64,
    dir: &Path,
    ops: &mut Ops,
    expected: Option<&Outcome>,
) -> Option<Tenant> {
    let Service {
        manager,
        addr,
        current,
        tracer,
    } = service;
    let _ = std::fs::remove_dir_all(dir);
    let config = tenant(spec, seed, Some(dir));
    let _run_span = tracer.span("tenant_run", "harness");
    let submitted = Instant::now();
    let id = {
        let _span = tracer.span("RunManager::submit", "islands");
        manager
            .lock()
            .expect("manager lock")
            .submit(config, SubmitOptions::default())
    };
    let submit_ms = submitted.elapsed().as_secs_f64() * 1e3;
    let id = match id {
        Ok(id) => id,
        Err(err) => {
            ops.record(false, || format!("submit: {err}"));
            return None;
        }
    };
    let subscription = manager
        .lock()
        .expect("manager lock")
        .subscribe(id)
        .expect("a just-submitted run is known");
    *current.lock().expect("current-run lock") = Some(id);
    let drainer = thread::spawn(move || {
        subscription
            .iter()
            .map(|event| (Instant::now(), event))
            .collect::<Vec<_>>()
    });
    let lines = {
        let _span = tracer.span("GET /runs/{id}/events", "serve");
        http::tail(addr, &format!("/runs/{id}/events"))
    };
    let end_of_stream = Instant::now();
    let result = {
        let _span = tracer.span("RunManager::join", "islands");
        manager.lock().expect("manager lock").join(id)
    };
    let joined = Instant::now();
    *current.lock().expect("current-run lock") = None;
    let events = drainer.join().expect("subscription drainer panicked");
    let _ = std::fs::remove_dir_all(dir);

    let lines = match lines {
        Ok(lines) => lines,
        Err(err) => {
            ops.record(false, || format!("{id}: event stream: {err}"));
            Vec::new()
        }
    };
    let result = match result {
        Some(Ok(result)) if result.completed => result,
        other => {
            ops.record(false, || {
                format!("{id}: run did not complete: {:?}", other.map(|r| r.err()))
            });
            return None;
        }
    };
    ops.record(true, String::new);
    // Serving must be lossless: the HTTP stream carries exactly the
    // in-process records, in order.
    let same_stream = lines.len() == events.len()
        && lines.iter().zip(&events).all(|((_, line), (_, event))| {
            serde_json::to_string(event).is_ok_and(|json| &json == line)
        });
    ops.check(same_stream, || {
        format!(
            "{id}: /events carried {} lines for {} records",
            lines.len(),
            events.len()
        )
    });
    let records: Vec<TelemetryEvent> = events.iter().map(|(_, e)| e.clone()).collect();
    if let Some(expected) = expected {
        ops.check(&outcome(&result, &records) == expected, || {
            format!("{id}: differs from the bare-Archipelago reference")
        });
    }
    let mut tenant = Tenant {
        submit_ms,
        join_ms: (joined - end_of_stream).as_secs_f64() * 1e3,
        run_ms: (joined - submitted).as_secs_f64() * 1e3,
        events: records.len(),
        migrations: result.migrations,
        bests: result
            .islands
            .iter()
            .filter_map(|i| i.best.as_ref().map(|b| b.genome.clone()))
            .collect(),
        ..Tenant::default()
    };
    for event in &records {
        match event {
            TelemetryEvent::Island(r) => {
                tenant.island_records += 1;
                tenant.species.push(r.species as f64);
            }
            TelemetryEvent::Checkpoint(r) => tenant.checkpoint_bytes.push(r.bytes as f64),
            _ => {}
        }
    }
    tenant.lag_ms = lines
        .iter()
        .zip(&events)
        .map(|((http, _), (local, _))| http.saturating_duration_since(*local).as_secs_f64() * 1e3)
        .collect();
    Some(tenant)
}

fn serve_loop(
    spec: Spec,
    args: &Args,
    seconds: f64,
    tracer: &Tracer,
    expected: &[Outcome],
    ops: &mut Ops,
) -> Result<Served, String> {
    let created = Instant::now();
    let manager = {
        let _span = tracer.span("RunManager::new", "islands");
        Arc::new(Mutex::new(RunManager::new()))
    };
    let mut server = {
        let _span = tracer.span("e3_serve::serve", "serve");
        serve(Arc::clone(&manager), ServeOptions::default()).map_err(|e| format!("bind: {e}"))?
    };
    let setup_s = created.elapsed().as_secs_f64();
    let addr = server.local_addr();
    let current = Mutex::new(None);
    let finished = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let budget = Duration::from_secs_f64(seconds);
    let mut tenants = Vec::new();
    let started = Instant::now();
    let mut polled = thread::scope(|scope| {
        let service = Service {
            manager: &manager,
            addr,
            current: &current,
            tracer,
        };
        let (finished, stop) = (&finished, &stop);
        let poller = scope.spawn(move || poll(service, finished, stop));
        let mut index = 0usize;
        while index < expected.len() || started.elapsed() < budget {
            let dir: PathBuf = args.out.join(format!("checkpoints/run-{index}"));
            let seed = args.seed + index as u64;
            if let Some(t) = tenant_run(service, spec, seed, &dir, ops, expected.get(index)) {
                tenants.push(t);
            }
            finished.fetch_add(1, Ordering::Relaxed);
            index += 1;
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("poller thread panicked")
    });
    let wall_s = started.elapsed().as_secs_f64();
    server.shutdown();
    ops.merge(std::mem::take(&mut polled.ops));
    Ok(Served {
        setup_s,
        wall_s,
        tenants,
        polled,
    })
}

/// Least-squares slope of `/metrics` bytes against finished runs.
fn bytes_per_run(scrapes: &[Scrape]) -> f64 {
    let xs: Vec<f64> = scrapes.iter().map(|s| s.finished_runs as f64).collect();
    let ys: Vec<f64> = scrapes.iter().map(|s| s.bytes as f64).collect();
    let (mx, my) = (mean(&xs), mean(&ys));
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// The end-to-end metrics one served segment yields.
fn e2e(spec: Spec, served: &Served) -> Vec<(&'static str, f64, &'static str, usize)> {
    let runs = served.tenants.len();
    let run_ms: Vec<f64> = served.tenants.iter().map(|t| t.run_ms).collect();
    let scrape_ms: Vec<f64> = served.polled.scrapes.iter().map(|s| s.total_ms).collect();
    let scrapes = scrape_ms.len();
    let evals = served
        .tenants
        .iter()
        .map(|t| t.island_records)
        .sum::<usize>()
        * spec.population;
    vec![
        ("evals_per_s", evals as f64 / served.wall_s, "1/s", runs),
        ("op_ms_p50", median(&run_ms), "ms", runs),
        ("op_ms_p90", percentile(&run_ms, 0.9), "ms", runs),
        ("runs_per_s", runs as f64 / served.wall_s, "1/s", runs),
        ("run_ms_p50", median(&run_ms), "ms", runs),
        ("run_ms_p90", percentile(&run_ms, 0.9), "ms", runs),
        ("scrape_ms_p50", median(&scrape_ms), "ms", scrapes),
        ("scrape_ms_p90", percentile(&scrape_ms, 0.9), "ms", scrapes),
    ]
}

pub fn run(spec: Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let expected: Vec<Outcome> = (0..spec.reference_runs)
        .map(|i| reference(spec, args.seed + i as u64))
        .collect::<Result<_, _>>()?;
    let mut digest = Digest::default();
    for outcome in &expected {
        for fp in &outcome.fingerprints {
            digest.word(*fp);
        }
        digest.word(outcome.migrations as u64);
        for record in &outcome.records {
            digest.bytes(record.as_bytes());
        }
    }
    report.digest = digest.finish();

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ops = Ops::default();
    let served = serve_loop(
        spec,
        args,
        seconds,
        &Tracer::disabled(),
        &expected,
        &mut ops,
    )?;
    for (name, value, unit, samples) in e2e(spec, &served) {
        report.e2e(name, value, unit, samples);
    }
    report.property(
        "metrics_bytes_per_finished_run",
        bytes_per_run(&served.polled.scrapes),
        "bytes",
    );
    report.property(
        "status_snapshot_has_jit",
        f64::from(u8::from(served.polled.status_jit)),
        "bool",
    );
    report.property("tenant_runs_timed", served.tenants.len() as f64, "count");

    if args.trace {
        let tracer = Tracer::enabled();
        let traced = serve_loop(spec, args, seconds, &tracer, &expected, &mut ops)?;
        crate::traced_e2e(report, e2e(spec, &traced));
        layers(spec, args, &traced, &tracer, &mut ops, report)?;
        report.trace_file = Some(crate::write_trace(&tracer, args)?);
        crate::self_times(report, &tracer, traced.tenants.len());
    }
    report.ops.merge(ops);
    Ok(())
}

fn layers(
    spec: Spec,
    args: &Args,
    traced: &Served,
    tracer: &Tracer,
    ops: &mut Ops,
    report: &mut Report,
) -> Result<(), String> {
    let tenants = &traced.tenants;
    let n = tenants.len();
    let per_run = |f: &dyn Fn(&Tenant) -> f64| mean(&tenants.iter().map(f).collect::<Vec<_>>());
    report.layer("platform.setup_ms", traced.setup_s * 1e3, "ms", 1);
    let submit: Vec<f64> = tenants.iter().map(|t| t.submit_ms).collect();
    let join: Vec<f64> = tenants.iter().map(|t| t.join_ms).collect();
    report.layer("islands.submit_ms", median(&submit), "ms", n);
    report.layer("islands.join_ms", median(&join), "ms", n);
    report.layer(
        "islands.migrations",
        per_run(&|t| t.migrations as f64),
        "count",
        n,
    );
    report.layer(
        "store.checkpoints",
        per_run(&|t| t.checkpoint_bytes.len() as f64),
        "count",
        n,
    );
    let bytes: Vec<f64> = tenants
        .iter()
        .flat_map(|t| t.checkpoint_bytes.clone())
        .collect();
    report.layer("store.bytes", mean(&bytes), "bytes", bytes.len());
    let scrapes = &traced.polled.scrapes;
    let first_byte: Vec<f64> = scrapes.iter().map(|s| s.first_byte_ms).collect();
    let metric_bytes: Vec<f64> = scrapes.iter().map(|s| s.bytes as f64).collect();
    report.layer(
        "serve.first_byte_ms",
        median(&first_byte),
        "ms",
        scrapes.len(),
    );
    report.layer(
        "serve.metrics_bytes",
        mean(&metric_bytes),
        "bytes",
        scrapes.len(),
    );
    report.layer(
        "serve.status_ms",
        median(&traced.polled.status_ms),
        "ms",
        traced.polled.status_ms.len(),
    );
    let lag: Vec<f64> = tenants.iter().flat_map(|t| t.lag_ms.clone()).collect();
    report.layer("serve.event_lag_ms", median(&lag), "ms", lag.len());
    report.layer(
        "telemetry.events_per_run",
        per_run(&|t| t.events as f64),
        "count",
        n,
    );
    let series = scrapes.last().map_or(0, |s| s.series);
    report.layer("telemetry.series", series as f64, "count", scrapes.len());
    let species: Vec<f64> = tenants.iter().flat_map(|t| t.species.clone()).collect();
    report.layer("neat.species", mean(&species), "count", species.len());

    let bests: Vec<Genome> = tenants.iter().flat_map(|t| t.bests.clone()).collect();
    replay::neat(report, &bests, EnvId::CartPole, tracer, args.seed);
    replay::envs(report, EnvId::CartPole, spec.population, tracer, args.seed);
    island_replay(spec, args, tracer, ops, report)
}

/// Replays island 0 of the first tenant on a plain `E3Platform` (no
/// migration): the island scheduler forwards only island, migration
/// and checkpoint records, so the `Eval`, `Exec` and `Jit` records the
/// exec and jit metrics read come from this replay. It also times
/// `RunStore::save` of the island's state, the store's fsync'd write.
fn island_replay(
    spec: Spec,
    args: &Args,
    tracer: &Tracer,
    ops: &mut Ops,
    report: &mut Report,
) -> Result<(), String> {
    let config = tenant(spec, args.seed, None).island_config(0);
    let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, island_seed(args.seed, 0));
    let mut events = MemoryCollector::new();
    for _ in 0..spec.generations {
        let _gen = tracer.span("replay generation", "replay");
        {
            let _span = tracer.span("E3Platform::eval_phase_with", "replay");
            platform
                .eval_phase_with(&mut events)
                .map_err(|e| e.to_string())?;
        }
        let _span = tracer.span("E3Platform::evolve_phase_with", "replay");
        platform
            .evolve_phase_with(&mut events)
            .map_err(|e| e.to_string())?;
    }
    let steps: u64 = events.evals().map(|e| e.total_steps).sum();
    let steps_per_gen: Vec<f64> = events.evals().map(|e| e.total_steps as f64).collect();
    report.layer(
        "envs.steps_per_gen",
        mean(&steps_per_gen),
        "count",
        steps_per_gen.len(),
    );
    let execs: Vec<_> = events.execs().collect();
    let m = execs.len();
    let wall: Vec<f64> = execs.iter().map(|x| x.wall_seconds * 1e3).collect();
    let util: Vec<f64> = execs.iter().map(|x| x.worker_utilization).collect();
    let hits: Vec<f64> = execs.iter().map(|x| x.cache_hit_rate).collect();
    let steals: Vec<f64> = execs.iter().map(|x| x.steal_count as f64).collect();
    let imbalance: Vec<f64> = execs
        .iter()
        .map(|x| {
            let avg = mean(&x.shard_seconds);
            let max = x.shard_seconds.iter().cloned().fold(0.0, f64::max);
            if avg > 0.0 {
                max / avg
            } else {
                1.0
            }
        })
        .collect();
    report.layer("exec.wall_ms", median(&wall), "ms", m);
    report.layer("exec.worker_utilization", mean(&util), "ratio", m);
    report.layer("exec.cache_hit_rate", mean(&hits), "ratio", m);
    report.layer("exec.steal_count", mean(&steals), "count", m);
    report.layer("exec.shard_imbalance", median(&imbalance), "ratio", m);

    let jits: Vec<_> = events.jits().collect();
    let compiled: u64 = jits.iter().map(|j| j.compiled).sum();
    let fallbacks: u64 = jits.iter().map(|j| j.fallbacks).sum();
    let activations: u64 = jits.iter().map(|j| j.activations).sum();
    let compile_ms: f64 = jits.iter().map(|j| j.compile_seconds * 1e3).sum();
    let k = jits.len();
    report.layer("jit.compiled", compiled as f64, "count", k);
    report.layer("jit.compile_ms", compile_ms, "ms", k);
    report.layer("jit.fallbacks", fallbacks as f64, "count", k);
    report.layer(
        "jit.native_share",
        activations as f64 / steps.max(1) as f64,
        "ratio",
        k,
    );
    report.property(
        "jit_native_share",
        activations as f64 / steps.max(1) as f64,
        "ratio",
    );
    if crate::jit_native() {
        ops.check(compiled > 0, || {
            "jit: native target but no plan was compiled".to_string()
        });
    } else {
        ops.check(fallbacks > 0, || {
            "jit: unsupported target but no fallback recorded".to_string()
        });
    }

    // The store's own write path, on the island's real state.
    let dir = args.out.join("checkpoints/store-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let state = platform.capture_state();
    let mut store = RunStore::open(&dir, fingerprint(&config, BackendKind::Cpu, args.seed), 2)
        .map_err(|e| e.to_string())?;
    let mut save_ms = Vec::new();
    for generation in 0..8 {
        let started = Instant::now();
        let saved = {
            let _span = tracer.span("RunStore::save", "store");
            store.save(generation, None, &state)
        };
        save_ms.push(started.elapsed().as_secs_f64() * 1e3);
        ops.record(saved.is_ok(), || {
            format!("store replay save: {:?}", saved.err())
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    report.layer("store.checkpoint_ms", median(&save_ms), "ms", save_ms.len());
    Ok(())
}
