//! `serve-100k` and `serve-small`: PUP served as top-20 over loopback HTTP
//! through the program's registry, scoring engine and gateway, with a hot
//! swap to the next generation under closed-loop traffic.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pup_ckpt::chaos::FaultPlan;
use pup_ckpt::registry::{GenerationManifest, ModelRegistry};
use pup_ckpt::Checkpoint;
use pup_data::io::load_dataset;
use pup_data::Quantization;
use pup_eval::try_rank_candidates;
use pup_models::Pup;
use pup_recsys::{FitConfig, ModelKind, Pipeline};
use pup_serve::{
    initiate_swap, wire_registry_promotion, Fallback, Gateway, GenScorerFactory, NetConfig,
    RecommenderScorer, Request, Scorer, ServeConfig, Server, ServiceShared, SwapConfig,
    SwapController, SwapOutcome, TenantConfig,
};

use crate::http::{closed_loop, open_loop, poisson_plan, Client, Phase};
use crate::inputs::Inputs;
use crate::oracle::{Graph, Oracle};
use crate::stats::{median, percentile, SplitMix, ZipfUsers};
use crate::trace::{allocs, count_allocs, Spans};
use crate::{Args, Metrics, Tally, Workload};

const K: usize = 20;
const ZIPF: f64 = 1.0;
/// Requests due in the first half second of a load phase are left out of
/// its latencies and throughput as warm-up.
const WARMUP: Duration = Duration::from_millis(500);
/// After `/health` reports the new generation, requests sent this much
/// later must come from it; earlier ones may come from either generation.
const SWAP_GRACE: Duration = Duration::from_millis(50);
const SWAP_TIMEOUT: Duration = Duration::from_secs(60);
/// Closed-loop throughput is the median of its completions per window of
/// this length, so a host slowdown in a few windows does not set it.
const RATE_WINDOW: Duration = Duration::from_millis(500);

/// How a serving workload is run.
struct Spec {
    /// Per-request deadline, sized so no request degrades at this load.
    deadline: Duration,
    /// Set-ups before the load phases, the last of which serves them.
    setup_reps: usize,
    /// Set-ups of throwaway services after the closed loop, while the kept
    /// one idles: they spread the set-up samples over the run.
    late_setup_reps: usize,
    /// `name:key:rate:burst` of the one tenant, or open access.
    tenant: Option<&'static str>,
    /// Client connections of the closed loops.
    conns: usize,
    /// Open-loop phase: requests and rate (requests/s); none when 0.
    open_requests: usize,
    open_rate: f64,
    /// Share of `--seconds` given to the closed-loop phase.
    closed_share: f64,
    swaps: usize,
    /// Answers compared with the oracle, per load phase.
    oracle_samples: usize,
    /// Sequential requests of the traced run's net/engine phases.
    traced_requests: usize,
}

fn spec(w: Workload) -> Spec {
    match w {
        // A dense score (~11 ms) and a full sort (~5 ms) are nearly all of a
        // request; the deadline covers queueing behind a swap's rebuilds.
        Workload::Serve100k => Spec {
            deadline: Duration::from_secs(20),
            setup_reps: 3,
            late_setup_reps: 0,
            tenant: None,
            conns: 2,
            open_requests: 420,
            open_rate: 40.0,
            closed_share: 0.25,
            swaps: 1,
            oracle_samples: 24,
            traced_requests: 40,
        },
        // Score and rank are ~0.1 ms of a ~0.17 ms request; HTTP, auth, rate
        // limiting, the admission queue and serialization are the rest. The
        // tenant's contract is far above what one connection can send.
        _ => Spec {
            deadline: Duration::from_secs(2),
            setup_reps: 5,
            late_setup_reps: 10,
            tenant: Some("bench:bench-key:100000000:100000000"),
            conns: 1,
            open_requests: 0,
            open_rate: 0.0,
            closed_share: 0.6,
            swaps: 9,
            oracle_samples: 200,
            traced_requests: 2_000,
        },
    }
}

fn api_key(spec: &Spec) -> Option<&'static str> {
    spec.tenant.and_then(|t| t.split(':').nth(1))
}

/// One running service: pipeline, registry, engine and gateway.
struct Service {
    pipeline: Arc<Pipeline>,
    registry: ModelRegistry,
    shared: Arc<ServiceShared>,
    factory: GenScorerFactory,
    gateway: Gateway,
    addr: SocketAddr,
}

struct SetupTimes {
    total: f64,
    load: f64,
    split: f64,
}

fn fit() -> (ModelKind, FitConfig) {
    let cfg = crate::train::fit_config(crate::inputs::PUP_EPOCHS);
    (ModelKind::Pup(crate::train::pup_config(&cfg)), cfg)
}

/// Set-up as `pup serve` does it: load the CSVs, split, open the registry,
/// restore the serving generation on every worker, start the engine and
/// the gateway, and wait for the first `/health` 200.
fn start_service(
    inputs: &Inputs,
    reg_dir: &std::path::Path,
    spec: &Spec,
    replicas: &Arc<AtomicU64>,
    spans: &Spans,
) -> Result<(Service, SetupTimes), String> {
    let _s = spans.span("setup");
    let t0 = Instant::now();
    let (dataset, _) = {
        let _s = spans.span("data.load_dataset");
        load_dataset(&inputs.items, &inputs.interactions, inputs.levels, Quantization::Uniform)
            .map_err(|e| e.to_string())?
    };
    let t1 = Instant::now();
    let pipeline = {
        let _s = spans.span("core.Pipeline::new");
        Arc::new(Pipeline::new(dataset))
    };
    let t2 = Instant::now();
    let registry = ModelRegistry::open(reg_dir).map_err(|e| e.to_string())?;
    let serving = registry.serving_generation().map_err(|e| e.to_string())?.gen;
    let split = pipeline.split();
    let (n_users, n_items) = (split.n_users, split.n_items);
    let fallback =
        Fallback::from_train(n_users, n_items, &split.train).map_err(|e| e.to_string())?;
    let serve_cfg =
        ServeConfig { deadline_ns: spec.deadline.as_nanos() as u64, ..ServeConfig::default() };
    let shared = Arc::new(ServiceShared::with_swap(
        serve_cfg,
        fallback,
        n_users,
        FaultPlan::none(),
        SwapController::new(serving, SwapConfig::default()),
    ));
    wire_registry_promotion(&shared, registry.clone());
    let factory: GenScorerFactory = {
        let (pipeline, registry, replicas) =
            (Arc::clone(&pipeline), registry.clone(), Arc::clone(replicas));
        let (kind, cfg) = fit();
        Arc::new(move |gen| {
            replicas.fetch_add(1, Ordering::SeqCst);
            let ckpt = registry.load(gen).map_err(|e| e.to_string())?;
            let model = pipeline
                .restore_from_checkpoint(kind.clone(), &cfg, &ckpt)
                .map_err(|e| e.to_string())?;
            Ok(Box::new(RecommenderScorer::new(model, n_items)) as Box<dyn Scorer>)
        })
    };
    let server = {
        let _s = spans.span("serve.Server::start");
        Server::start_with_generations(Arc::clone(&shared), Arc::clone(&factory))
            .map_err(|e| e.to_string())?
    };
    let mut net = NetConfig::default();
    if let Some(t) = spec.tenant {
        net.tenants = TenantConfig::parse_list(t)?;
    }
    let gateway = Gateway::start(net, server).map_err(|e| e.to_string())?;
    let addr = gateway.local_addr();
    let mut health = Client::new(addr, None);
    loop {
        match health.get("/health") {
            Ok((200, _)) => break,
            _ if t0.elapsed() > Duration::from_secs(60) => {
                return Err("no /health 200 in 60 s".into())
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let times = SetupTimes {
        total: t0.elapsed().as_secs_f64(),
        load: (t1 - t0).as_secs_f64(),
        split: (t2 - t1).as_secs_f64(),
    };
    Ok((Service { pipeline, registry, shared, factory, gateway, addr }, times))
}

/// A hot swap: `from`/`to` index the benchmark's two checkpoints.
struct SwapWindow {
    start_ns: u64,
    promoted_ns: u64,
    from: usize,
    to: usize,
}

/// Publishes `ckpt` as the next generation, starts the swap and waits for
/// `/health` to report it. Returns the swap time, the publish time and the
/// new generation's manifest.
fn hot_swap(
    svc: &Service,
    ckpt: &Checkpoint,
    health: &mut Client,
) -> Result<(f64, f64, GenerationManifest), String> {
    let t0 = Instant::now();
    let manifest = svc.registry.publish(ckpt).map_err(|e| e.to_string())?;
    let publish_s = t0.elapsed().as_secs_f64();
    let seen_before = svc.shared.swap.transitions().len();
    initiate_swap(&svc.shared, &svc.registry, &svc.factory, manifest.gen)
        .map_err(|e| e.to_string())?;
    loop {
        if health.health_generation()? == manifest.gen {
            return Ok((t0.elapsed().as_secs_f64(), publish_s, manifest));
        }
        if let Some(t) = svc.shared.swap.transitions().get(seen_before) {
            if t.outcome != SwapOutcome::Promoted {
                return Err(format!("swap to generation {} {}", manifest.gen, t.outcome.label()));
            }
        }
        if t0.elapsed() > SWAP_TIMEOUT {
            return Err(format!(
                "generation {} not promoted within {SWAP_TIMEOUT:?}",
                manifest.gen
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn record_phase(tally: &mut Tally, phase: &Phase) {
    tally.ok_many("http", phase.attempted - phase.failures.len() as u64);
    for f in &phase.failures {
        tally.op("http", Err(f.clone()));
    }
}

/// Completions per second of a closed-loop phase after its warm-up: the
/// median over the whole [`RATE_WINDOW`]s before `end_ns` of each window's
/// rate, measured from its first to its last completion.
fn throughput(phase: &Phase, end_ns: u64) -> f64 {
    let from = WARMUP.as_nanos() as u64;
    let window = RATE_WINDOW.as_nanos() as u64;
    let mut done = vec![Vec::new(); (end_ns.saturating_sub(from) / window) as usize];
    for r in phase.recs.iter().filter(|r| r.due_ns >= from) {
        let at = r.due_ns + r.latency_ns;
        if let Some(w) = done.get_mut(((at - from) / window) as usize) {
            w.push(at);
        }
    }
    let rates: Vec<f64> = done
        .iter()
        .filter_map(|w| {
            let (first, last) = (*w.iter().min()?, *w.iter().max()?);
            (last > first).then(|| (w.len() - 1) as f64 / ((last - first) as f64 / 1e9))
        })
        .collect();
    median(&rates)
}

/// Runs a closed loop until `body` returns, then `tail` longer.
fn closed_loop_around<T>(
    svc: &Service,
    spec: &Spec,
    users: &ZipfUsers,
    seed: u64,
    tail: Duration,
    body: impl FnOnce(Instant) -> T,
) -> (Phase, T, u64) {
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            closed_loop(svc.addr, api_key(spec), spec.conns, users, seed, K, epoch, &stop)
        });
        let out = body(epoch);
        std::thread::sleep(tail);
        let end_ns = epoch.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::SeqCst);
        let phase = h.join().expect("closed-loop thread panicked");
        (phase, out, end_ns)
    })
}

/// Which checkpoints may have answered a request sent at `due_ns` and
/// answered `latency_ns` later, given the phase's swaps.
/// The phase starts on checkpoint 0.
fn allowed_gens(due_ns: u64, latency_ns: u64, swaps: &[SwapWindow]) -> Vec<usize> {
    let grace = SWAP_GRACE.as_nanos() as u64;
    let mut current = 0;
    for w in swaps {
        if due_ns + latency_ns < w.start_ns {
            break;
        }
        if due_ns < w.promoted_ns + grace {
            return vec![w.from, w.to];
        }
        current = w.to;
    }
    vec![current]
}

pub fn run(
    args: &Args,
    inputs: &Inputs,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let spec = spec(args.workload);
    let spans = Spans::new(args.trace);
    let run_dir = crate::work_root().join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let reg_dir = run_dir.join("registry");
    let ckpts = [
        pup_ckpt::store::load(&inputs.gens[0]).map_err(|e| e.to_string())?,
        pup_ckpt::store::load(&inputs.gens[1]).map_err(|e| e.to_string())?,
    ];
    ModelRegistry::open(&reg_dir).and_then(|r| r.publish(&ckpts[0])).map_err(|e| e.to_string())?;
    let result = run_in(args, &spec, inputs, &reg_dir, &ckpts, &spans, tally, metrics);
    let _ = std::fs::remove_dir_all(&run_dir);
    result?;
    spans.write(&crate::work_root().join("traces").join(format!(
        "{}-s{}.jsonl",
        args.workload.name(),
        args.seed
    )))
}

#[allow(clippy::too_many_arguments)]
fn run_in(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    reg_dir: &std::path::Path,
    ckpts: &[Checkpoint; 2],
    spans: &Spans,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let replicas = Arc::new(AtomicU64::new(0));
    let mut setups = Vec::new();
    let mut kept = None;
    let mut replicas_before_last = 0;
    for rep in 0..spec.setup_reps {
        if rep + 1 == spec.setup_reps {
            replicas_before_last = replicas.load(Ordering::SeqCst);
        }
        let (svc, times) = start_service(inputs, reg_dir, spec, &replicas, spans)?;
        setups.push(times);
        if let Some(old) = kept.replace(svc) {
            let _ = old.gateway.shutdown();
        }
    }
    let svc = kept.ok_or("no set-up ran")?;
    let n_users = svc.pipeline.split().n_users;
    let mut rng = SplitMix::new(args.seed);
    let users = ZipfUsers::new(n_users, ZIPF, &mut rng);
    let warm = WARMUP.as_nanos() as u64;

    // Phase 1 (serve-100k): open loop at a fixed Poisson rate.
    let open = if spec.open_requests > 0 {
        let plan = poisson_plan(spec.open_requests, spec.open_rate, &users, &mut rng);
        let _s = spans.span("phase.open_loop");
        let p = open_loop(svc.addr, api_key(spec), spec.conns, &plan, K);
        record_phase(tally, &p);
        Some(p)
    } else {
        None
    };

    // Phase 2: closed loop for a share of the run.
    let closed_len =
        Duration::from_secs_f64(args.seconds * spec.closed_share).max(WARMUP + RATE_WINDOW);
    let (closed, (), closed_end) = {
        let _s = spans.span("phase.closed_loop");
        closed_loop_around(&svc, spec, &users, rng.next_u64(), closed_len, |_| ())
    };
    record_phase(tally, &closed);

    for _ in 0..spec.late_setup_reps {
        let throwaway = Arc::new(AtomicU64::new(0));
        let (extra, times) = start_service(inputs, reg_dir, spec, &throwaway, spans)?;
        setups.push(times);
        let _ = extra.gateway.shutdown();
    }

    // Phase 3: hot swaps under closed-loop traffic, alternating the two
    // checkpoints so every swap publishes a new generation.
    let mut health = Client::new(svc.addr, None);
    let (swap_phase, swaps, _) = {
        let _s = spans.span("phase.swap");
        closed_loop_around(&svc, spec, &users, rng.next_u64(), WARMUP, |epoch| {
            let mut out = Vec::new();
            std::thread::sleep(WARMUP);
            for i in 0..spec.swaps {
                let (from, to) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                let start_ns = epoch.elapsed().as_nanos() as u64;
                let r = hot_swap(&svc, &ckpts[to], &mut health);
                let promoted_ns = epoch.elapsed().as_nanos() as u64;
                let ok = r.is_ok();
                out.push((r, SwapWindow { start_ns, promoted_ns, from, to }));
                if !ok {
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            out
        })
    };
    record_phase(tally, &swap_phase);
    let mut swap_s = Vec::new();
    let mut publish_s = Vec::new();
    let (mut ckpt_bytes, mut last_published) = (0, 0);
    let mut windows = Vec::new();
    for (r, w) in swaps {
        match r {
            Ok((s, p, manifest)) => {
                swap_s.push(s);
                publish_s.push(p);
                ckpt_bytes = manifest.ckpt_len;
                last_published = manifest.gen;
                windows.push(w);
                tally.op("swap", Ok(()));
            }
            Err(e) => {
                windows.push(SwapWindow { promoted_ns: u64::MAX / 2, ..w });
                tally.op("swap", Err(e));
            }
        }
    }
    let last_gen = windows.last().map_or(0, |w| w.to);

    let replicas_built = replicas.load(Ordering::SeqCst) - replicas_before_last;
    // Traced run only: the layers behind one request, each timed alone.
    let traced =
        if args.trace { Some(traced_layers(spec, &svc, &users, &mut rng, tally)?) } else { None };

    let (net, report) = svc.gateway.shutdown();
    let rss = crate::stats::peak_rss_mb()?;

    // Output checks: every answer holds K distinct unseen items; sampled
    // answers equal the oracle's top-K of the generation that served them.
    let pipeline = &svc.pipeline;
    let data = pipeline.train_data();
    let graph = Graph::new(
        data.n_users,
        data.n_items,
        data.n_price_levels,
        data.n_categories,
        data.item_price_level,
        data.item_category,
        data.train,
    );
    let mut bad = Vec::new();
    let phases: Vec<(&Phase, &[SwapWindow])> = open
        .iter()
        .map(|p| (p, &[][..]))
        .chain([(&closed, &[][..]), (&swap_phase, &windows[..])])
        .collect();
    for (phase, _) in &phases {
        for r in &phase.recs {
            let mut d = r.items.clone();
            d.sort_unstable();
            d.dedup();
            let seen = graph.seen(r.user as usize);
            if r.items.len() != K || d.len() != K || d.iter().any(|i| seen.binary_search(i).is_ok())
            {
                bad.push(format!("user {}: {:?}", r.user, r.items));
            }
        }
    }
    let n_answers: usize = phases.iter().map(|(p, _)| p.recs.len()).sum();
    tally.check(
        "every answer holds 20 distinct items outside the user's training items",
        bad.is_empty(),
        format!(
            "{} of {n_answers} bad{}",
            bad.len(),
            bad.first().map(|b| format!(", first {b}")).unwrap_or_default()
        ),
    );
    let oracles = [
        Oracle::from_checkpoint(&graph, &ckpts[0], 1.0)?,
        Oracle::from_checkpoint(&graph, &ckpts[1], 1.0)?,
    ];
    let (mut checked, mut wrong) = (0, Vec::new());
    for (phase, wins) in &phases {
        let step = (phase.recs.len() / spec.oracle_samples).max(1);
        for r in phase.recs.iter().step_by(step) {
            let gens = allowed_gens(r.due_ns, r.latency_ns, wins);
            let results: Vec<Result<(), String>> =
                gens.iter().map(|&g| oracles[g].check(r.user as usize, &r.items, K)).collect();
            checked += 1;
            if results.iter().all(Result::is_err) {
                wrong.push(
                    results.into_iter().filter_map(Result::err).collect::<Vec<_>>().join(" / "),
                );
            }
        }
    }
    tally.check(
        "sampled answers equal the oracle's top-20 of the serving generation",
        wrong.is_empty() && checked > 0,
        format!(
            "{checked} checked, {} wrong{}",
            wrong.len(),
            wrong.first().map(|w| format!(": {w}")).unwrap_or_default()
        ),
    );
    let post_swap = swap_phase
        .recs
        .iter()
        .filter(|r| allowed_gens(r.due_ns, r.latency_ns, &windows) == [last_gen])
        .count();
    tally.check(
        "answers after the last swap come from its generation",
        post_swap > 0 && report.active_gen == last_published,
        format!(
            "{post_swap} answers after the swap, engine serves generation {}",
            report.active_gen
        ),
    );
    let degraded = report.degraded_breaker + report.degraded_deadline + report.degraded_failure;
    tally.check("no degraded answers", degraded == 0, format!("{degraded} degraded"));

    let setup = median(&setups.iter().map(|s| s.total).collect::<Vec<_>>());
    if !args.trace {
        metrics.put("setup_s", setup, "s");
        metrics.put("peak_rss_mb", rss, "MB");
        metrics.put("throughput_per_s", throughput(&closed, closed_end), "1/s");
        // Latency from the open loop where there is one, else the closed.
        let timed = open.as_ref().unwrap_or(&closed);
        metrics.put("top20_ms", percentile(&timed.latencies_ms(warm), 50.0), "ms");
        metrics.put("publish_to_ready_s", median(&swap_s), "s");
        return Ok(());
    }

    let t = traced.expect("traced layers measured above");
    metrics.put("data.load_s", median(&setups.iter().map(|s| s.load).collect::<Vec<_>>()), "s");
    metrics.put("core.split_s", median(&setups.iter().map(|s| s.split).collect::<Vec<_>>()), "s");
    metrics.put("models.build_s", t.build_s, "s");
    metrics.put("models.restore_s", t.restore_s, "s");
    metrics.put("ckpt.load_s", t.ckpt_load_s, "s");
    metrics.put("ckpt.publish_s", median(&publish_s), "s");
    metrics.put("ckpt.bytes", ckpt_bytes as f64, "bytes");
    metrics.put("serve.replicas_built", replicas_built as f64, "count");
    metrics.put("serve.score_ms", t.score_ms, "ms");
    metrics.put("serve.rank_ms", t.rank_ms, "ms");
    metrics.put("serve.engine_request_ms", t.engine_ms, "ms");
    metrics.put("serve.allocs_per_request", t.allocs_per_request, "count");
    let qw = report.queue_wait_ns.as_ref();
    metrics.put("serve.queue_wait_ms_p50", qw.map_or(0.0, |h| h.p50 / 1e6), "ms");
    metrics.put("serve.queue_wait_ms_p99", qw.map_or(0.0, |h| h.p99 / 1e6), "ms");
    metrics.put("serve.max_queue_depth", report.max_queue_depth as f64, "count");
    metrics.put("serve.shadow_scored", report.shadow_scored as f64, "count");
    metrics.put("net.request_ms", t.net_ms, "ms");
    metrics.put("net.overhead_ms", t.net_ms - t.engine_ms, "ms");
    metrics.put(
        "net.requests_per_conn",
        net.requests as f64 / net.conns_accepted.max(1) as f64,
        "count",
    );
    metrics.put(
        "loadgen.late_ms_max",
        open.as_ref().map_or(0.0, |p| p.late_ns_max as f64 / 1e6),
        "ms",
    );
    metrics.put("trace.overhead_pct", t.overhead_pct, "%");

    let load = median(&setups.iter().map(|s| s.load).collect::<Vec<_>>());
    let split = median(&setups.iter().map(|s| s.split).collect::<Vec<_>>());
    println!(
        "coverage setup_s: {:.1}% (load + split + ckpt load + restore of {setup:.4} s)",
        100.0 * (load + split + t.ckpt_load_s + t.restore_s) / setup
    );
    println!(
        "coverage latency (sequential): {:.1}% (score + rank of {:.4} ms)",
        100.0 * (t.score_ms + t.rank_ms) / t.net_ms,
        t.net_ms
    );
    println!(
        "coverage publish_to_ready_s: {:.1}% (publish + 2 x (ckpt load + restore) of {:.4} s)",
        100.0 * (median(&publish_s) + 2.0 * (t.ckpt_load_s + t.restore_s)) / median(&swap_s),
        median(&swap_s)
    );
    Ok(())
}

struct TracedLayers {
    build_s: f64,
    restore_s: f64,
    ckpt_load_s: f64,
    score_ms: f64,
    rank_ms: f64,
    engine_ms: f64,
    allocs_per_request: f64,
    net_ms: f64,
    overhead_pct: f64,
}

/// Sequential HTTP requests: p50 latency in ms.
fn sequential(
    svc: &Service,
    spec: &Spec,
    users: &ZipfUsers,
    rng: &mut SplitMix,
    tally: &mut Tally,
) -> f64 {
    let mut client = Client::new(svc.addr, api_key(spec));
    let mut lat = Vec::new();
    for _ in 0..spec.traced_requests {
        let user = users.draw(rng);
        let t = Instant::now();
        let r = client.recommend(user, K).map(|_| ());
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        tally.op("http", r);
    }
    percentile(&lat[lat.len() / 10..], 50.0)
}

fn traced_layers(
    spec: &Spec,
    svc: &Service,
    users: &ZipfUsers,
    rng: &mut SplitMix,
    tally: &mut Tally,
) -> Result<TracedLayers, String> {
    let pipeline = &svc.pipeline;
    let (kind, cfg) = fit();
    let t = Instant::now();
    let built = Pup::new(&pipeline.train_data(), crate::train::pup_config(&cfg));
    let build_s = t.elapsed().as_secs_f64();
    drop(built);
    let gen = svc.shared.swap.active_gen();
    let t = Instant::now();
    let ckpt = svc.registry.load(gen).map_err(|e| e.to_string())?;
    let ckpt_load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = pipeline.restore_from_checkpoint(kind, &cfg, &ckpt).map_err(|e| e.to_string())?;
    let restore_s = t.elapsed().as_secs_f64();
    drop(ckpt);

    // Score and rank, called directly on a replica.
    let scorer = RecommenderScorer::new(model, pipeline.split().n_items);
    let train = pipeline.split().train_items_by_user();
    let (mut score, mut rank) = (Vec::new(), Vec::new());
    for _ in 0..spec.oracle_samples {
        let u = users.draw(rng) as usize;
        let unseen: Vec<u32> =
            (0..scorer.n_items() as u32).filter(|i| train[u].binary_search(i).is_err()).collect();
        let t = Instant::now();
        let scores = scorer.score(u).map_err(|e| e.to_string())?;
        score.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let ranked = try_rank_candidates(&scores, &unseen, K).map_err(|e| e.to_string())?;
        rank.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(ranked);
    }
    drop(scorer);

    // The engine alone: a second server without the gateway.
    let split = pipeline.split();
    let fallback = Fallback::from_train(split.n_users, split.n_items, &split.train)
        .map_err(|e| e.to_string())?;
    let serve_cfg =
        ServeConfig { deadline_ns: spec.deadline.as_nanos() as u64, ..ServeConfig::default() };
    let shared = Arc::new(ServiceShared::with_swap(
        serve_cfg,
        fallback,
        split.n_users,
        FaultPlan::none(),
        SwapController::new(gen, SwapConfig::default()),
    ));
    let server = Server::start_with_generations(shared, Arc::clone(&svc.factory))
        .map_err(|e| e.to_string())?;
    let mut engine = Vec::new();
    count_allocs(true);
    let a0 = allocs();
    for _ in 0..spec.traced_requests {
        let user = users.draw(rng) as usize;
        let t = Instant::now();
        let r = server.submit(Request { user, k: K }).and_then(|h| h.wait());
        engine.push(t.elapsed().as_secs_f64() * 1e3);
        tally.op(
            "engine-request",
            match r {
                Ok(resp) if !resp.source.is_degraded() => Ok(()),
                Ok(resp) => Err(format!("degraded: {}", resp.source.label())),
                Err(e) => Err(e.to_string()),
            },
        );
    }
    let n_allocs = allocs() - a0;
    count_allocs(false);
    server.shutdown();

    // Sequential HTTP, untraced then with allocation counting on.
    let net_ms = sequential(svc, spec, users, rng, tally);
    count_allocs(true);
    let net_traced_ms = sequential(svc, spec, users, rng, tally);
    count_allocs(false);

    Ok(TracedLayers {
        build_s,
        restore_s,
        ckpt_load_s,
        score_ms: median(&score),
        rank_ms: median(&rank),
        engine_ms: percentile(&engine[engine.len() / 10..], 50.0),
        allocs_per_request: n_allocs as f64 / spec.traced_requests as f64,
        net_ms,
        overhead_pct: (net_traced_ms / net_ms - 1.0) * 100.0,
    })
}
