//! End-to-end benchmark of PUP training, evaluation and HTTP serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-yelp|serve-100k|serve-small --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end metrics, the same five on every workload; with `--trace 1` they
//! are the per-layer metrics, timed around calls into the program's public
//! functions from this crate's own code. See `perfbench/README.md`.

mod http;
mod inputs;
mod oracle;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The three workloads; see README.md for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainYelp,
    Serve100k,
    ServeSmall,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "train-yelp" => Ok(Self::TrainYelp),
            "serve-100k" => Ok(Self::Serve100k),
            "serve-small" => Ok(Self::ServeSmall),
            other => Err(format!("unknown workload {other:?} (train-yelp|serve-100k|serve-small)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::TrainYelp => "train-yelp",
            Self::Serve100k => "serve-100k",
            Self::ServeSmall => "serve-small",
        }
    }
}

/// Every per-layer metric of a traced run, with its unit (the `per_layer`
/// list of BENCHMARK.json).
const PER_LAYER: [(&str, &str); 35] = [
    ("data.load_s", "s"),
    ("core.split_s", "s"),
    ("models.build_s", "s"),
    ("models.restore_s", "s"),
    ("train.propagate_ms_per_step", "ms"),
    ("train.decode_ms_per_step", "ms"),
    ("train.rest_ms_per_step", "ms"),
    ("train.allocs_per_step", "count"),
    ("train.sampler_rejects_per_draw", "ratio"),
    ("op.fwd_spmm_ms", "ms"),
    ("op.bwd_spmm_ms", "ms"),
    ("op.fwd_tanh_ms", "ms"),
    ("op.fwd_dropout_ms", "ms"),
    ("op.bwd_gather_rows_ms", "ms"),
    ("op.bwd_rowwise_dot_ms", "ms"),
    ("op.adam_step_ms", "ms"),
    ("eval.score_ms_per_user", "ms"),
    ("eval.rank_ms_per_user", "ms"),
    ("ckpt.load_s", "s"),
    ("ckpt.publish_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("serve.replicas_built", "count"),
    ("serve.score_ms", "ms"),
    ("serve.rank_ms", "ms"),
    ("serve.engine_request_ms", "ms"),
    ("serve.allocs_per_request", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.max_queue_depth", "count"),
    ("serve.shadow_scored", "count"),
    ("net.request_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.requests_per_conn", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line of a measuring run.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where a run keeps its inputs, scratch registries and trace files: a
/// directory of the checkout the benchmark runs from.
pub fn work_root() -> PathBuf {
    PathBuf::from(".perfbench")
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err(format!("--seconds must be at least 1, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed operations of one kind.
pub struct OpCount {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

/// Operation accounting plus the output checks of one run.
#[derive(Default)]
pub struct Tally {
    ops: Vec<OpCount>,
    failed_checks: usize,
}

impl Tally {
    fn entry(&mut self, kind: &'static str) -> &mut OpCount {
        if let Some(pos) = self.ops.iter().position(|o| o.kind == kind) {
            return &mut self.ops[pos];
        }
        self.ops.push(OpCount { kind, attempted: 0, failed: 0, reasons: Vec::new() });
        self.ops.last_mut().expect("just pushed")
    }

    /// Records one operation of `kind`: `Ok` or a failure reason.
    pub fn op(&mut self, kind: &'static str, outcome: Result<(), String>) {
        let e = self.entry(kind);
        e.attempted += 1;
        if let Err(reason) = outcome {
            e.failed += 1;
            if e.reasons.len() < 5 {
                e.reasons.push(reason);
            }
        }
    }

    /// Records `n` successful operations of `kind` at once.
    pub fn ok_many(&mut self, kind: &'static str, n: u64) {
        self.entry(kind).attempted += n;
    }

    /// Records the result of one output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        println!("check {name}: {} ({detail})", if passed { "ok" } else { "FAILED" });
        if !passed {
            self.failed_checks += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }
}

/// Metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Adds every per-layer metric the workload did not measure, as 0: the
    /// workload makes no call into that layer.
    fn fill_per_layer(&mut self) {
        for (name, unit) in PER_LAYER {
            if !self.0.iter().any(|(n, _, _)| n == name) {
                self.put(name, 0.0, unit);
            }
        }
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    stats::json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    oracle::toy_graph_check()?;
    let inputs = inputs::ensure(args.workload, args.seed)?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    match args.workload {
        Workload::TrainYelp => train::run(args, &inputs, &mut tally, &mut metrics)?,
        Workload::Serve100k | Workload::ServeSmall => {
            serve::run(args, &inputs, &mut tally, &mut metrics)?
        }
    }
    if args.trace {
        metrics.fill_per_layer();
    }
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--prepare` is the child-process entry point that builds a seed's inputs.
    if argv.first().map(String::as_str) == Some("--prepare") {
        return match inputs::prepare_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --prepare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("perfbench").is_dir() {
        eprintln!("perfbench: run from the root of the repository checkout");
        return ExitCode::from(2);
    }
    let (tally, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attempted: u64 = tally.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = tally.ops.iter().map(|o| o.failed).sum();
    for o in &tally.ops {
        println!("ops {}: attempted {} failed {}", o.kind, o.attempted, o.failed);
        for r in &o.reasons {
            println!("  failure: {r}");
        }
    }
    for (name, value, unit) in &metrics.0 {
        println!("metric {name} = {} {unit}", stats::json_num(*value));
    }
    let correct = tally.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
