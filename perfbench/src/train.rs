//! `train-yelp`: load, split, build and train PUP, then evaluate every test
//! user with the paper's full-ranking protocol. Nothing of `pup-serve` runs.

use std::time::{Duration, Instant};

use pup_data::io::load_dataset;
use pup_data::Quantization;
use pup_eval::try_rank_candidates;
use pup_models::{BprModel, BprTrainer, Pup, PupConfig, Recommender, TrainConfig};
use pup_recsys::{FitConfig, ModelKind, Pipeline};

use crate::inputs::{Inputs, PUP_EPOCHS};
use crate::stats::median;
use crate::trace::{allocs, count_allocs, Spans, TimedModel};
use crate::{Args, Metrics, Tally};

const K: usize = 20;

/// The program's default fit configuration with `epochs` epochs.
pub fn fit_config(epochs: usize) -> FitConfig {
    FitConfig { train: TrainConfig { epochs, ..TrainConfig::default() }, ..FitConfig::default() }
}

/// PUP's default configuration as `Pipeline::fit` completes it from `cfg`.
pub fn pup_config(cfg: &FitConfig) -> PupConfig {
    PupConfig { dropout: cfg.dropout, seed: cfg.seed, ..PupConfig::default() }
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// One epoch through the trainer's own `run_epoch`, counted as one
/// `train-epoch` operation; returns its mean loss and duration.
fn epoch<M: BprModel>(
    trainer: &mut BprTrainer,
    model: &mut M,
    tally: &mut Tally,
) -> Result<(f64, Duration), String> {
    let t = Instant::now();
    let outcome = trainer.run_epoch(model).map_err(|e| format!("diverged: {e}"));
    tally.op("train-epoch", outcome.as_ref().map(|_| ()).map_err(Clone::clone));
    outcome.map(|loss| (loss, t.elapsed()))
}

/// One pass over every test user: this crate's own Recall@K and NDCG@K,
/// from its own top-K lists, and the time spent in the evaluation layer's
/// two calls, in ms per user.
struct UserPass {
    recall: f64,
    ndcg: f64,
    users: usize,
    score_ms: f64,
    rank_ms: f64,
}

fn user_pass(model: &dyn Recommender, pipeline: &Pipeline) -> UserPass {
    let split = pipeline.split();
    let train = split.train_items_by_user();
    let valid = split.valid_items_by_user();
    let test = split.test_items_by_user();
    let (mut recall, mut ndcg, mut users) = (0.0, 0.0, 0usize);
    let (mut score, mut rank) = (Duration::ZERO, Duration::ZERO);
    for u in 0..split.n_users {
        let truth = &test[u];
        if truth.is_empty() {
            continue;
        }
        let mut pool: Vec<u32> = (0..split.n_items as u32)
            .filter(|i| train[u].binary_search(i).is_err() && valid[u].binary_search(i).is_err())
            .collect();
        let t = Instant::now();
        let scores = model.score_items(u);
        score += t.elapsed();
        let t = Instant::now();
        std::hint::black_box(try_rank_candidates(&scores, &pool, K).ok());
        rank += t.elapsed();

        pool.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]).then(a.cmp(&b)));
        let hits: Vec<bool> = pool.iter().take(K).map(|i| truth.binary_search(i).is_ok()).collect();
        recall += hits.iter().filter(|&&h| h).count() as f64 / truth.len() as f64;
        let dcg: f64 = hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(r, _)| 1.0 / (r as f64 + 2.0).log2())
            .sum();
        let idcg: f64 = (0..truth.len().min(K)).map(|r| 1.0 / (r as f64 + 2.0).log2()).sum();
        ndcg += dcg / idcg;
        users += 1;
    }
    let n = users.max(1) as f64;
    let per_user_ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    UserPass {
        recall: recall / n,
        ndcg: ndcg / n,
        users,
        score_ms: per_user_ms(score),
        rank_ms: per_user_ms(rank),
    }
}

pub fn run(
    args: &Args,
    inputs: &Inputs,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let t_run = Instant::now();
    let spans = Spans::new(args.trace);
    let cfg = fit_config(PUP_EPOCHS);
    let load = || {
        load_dataset(&inputs.items, &inputs.interactions, inputs.levels, Quantization::Uniform)
            .map(|(d, _)| d)
            .map_err(|e| e.to_string())
    };

    // Set-up: load CSV, split, build PUP (graph, Â, init) and its trainer.
    // It takes ~0.06 s, so it is repeated: once before training and once
    // after each evaluation pass, spreading the repeats over the run.
    let (mut setup, mut load_s, mut split_s, mut build_s) = (vec![], vec![], vec![], vec![]);
    let mut set_up = || -> Result<(Pipeline, Pup, BprTrainer), String> {
        let _s = spans.span("setup");
        let t0 = Instant::now();
        let dataset = {
            let _s = spans.span("data.load_dataset");
            load()?
        };
        let t1 = Instant::now();
        let pipeline = {
            let _s = spans.span("core.Pipeline::new");
            Pipeline::new(dataset)
        };
        let t2 = Instant::now();
        let model = {
            let _s = spans.span("models.Pup::new");
            Pup::new(&pipeline.train_data(), pup_config(&cfg))
        };
        let t3 = Instant::now();
        let data = pipeline.train_data();
        let trainer = BprTrainer::new(&model, data.n_users, data.n_items, data.train, &cfg.train);
        setup.push(t0.elapsed().as_secs_f64());
        load_s.push((t1 - t0).as_secs_f64());
        split_s.push((t2 - t1).as_secs_f64());
        build_s.push((t3 - t2).as_secs_f64());
        Ok((pipeline, model, trainer))
    };
    let (pipeline, mut model, mut trainer) = set_up()?;
    let n_examples = pipeline.split().train.len() as f64;

    // Publish to ready: the trained model published as the next generation
    // of a registry, loaded back and restored into a model that ranks, as a
    // serving replica does it. Repeated once per round; each restored model
    // must score like the trained one.
    let run_dir = crate::work_root().join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let registry = pup_ckpt::registry::ModelRegistry::open(&run_dir.join("registry"))
        .map_err(|e| e.to_string())?;
    let mut ready_s = Vec::new();
    let mut publish_to_ready = |model: &Pup, trainer: &BprTrainer| -> Result<bool, String> {
        let ckpt = trainer.checkpoint(model);
        let t = Instant::now();
        let restored = {
            let _s = spans.span("publish_to_ready");
            let manifest = registry.publish(&ckpt).map_err(|e| e.to_string())?;
            let loaded = registry.load(manifest.gen).map_err(|e| e.to_string())?;
            pipeline
                .restore_from_checkpoint(ModelKind::Pup(pup_config(&cfg)), &cfg, &loaded)
                .map_err(|e| e.to_string())?
        };
        ready_s.push(t.elapsed().as_secs_f64());
        Ok((0..pipeline.split().n_users.min(2)).all(|u| {
            let (a, b) = (model.score_items(u), restored.score_items(u));
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
        }))
    };
    let mut restored_same = true;

    // Rounds of one epoch, one evaluation pass and one set-up, so the three
    // timings sample the same stretch of the run; then rounds of evaluation
    // and set-up while the run has time. The model is finalized before each
    // pass; that touches no training state, so the losses are unchanged.
    let (mut losses, mut durs, mut eval_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut report = None;
    while eval_s.len() < PUP_EPOCHS
        || (t_run.elapsed().as_secs_f64() + 1.5 * median(&eval_s) < args.seconds
            && eval_s.len() < 50)
    {
        if losses.len() < PUP_EPOCHS {
            let (loss, d) = {
                let _s = spans.span("train.epoch");
                epoch(&mut trainer, &mut model, tally)?
            };
            losses.push(loss);
            durs.push(d);
            model.finalize();
        }
        let t = Instant::now();
        let r = {
            let _s = spans.span("evaluate");
            pipeline.evaluate(&model, &[K])
        };
        eval_s.push(t.elapsed().as_secs_f64());
        tally.op("eval-pass", Ok(()));
        report = Some(r);
        drop(set_up()?);
        restored_same &= publish_to_ready(&model, &trainer)?;
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    // The first epoch is warm-up.
    let epoch_s = median(&secs(&durs[1..]));
    let report = report.ok_or("no evaluation ran")?;
    let program = report.at(K);
    let rss = crate::stats::peak_rss_mb()?;

    // Output checks.
    let own = {
        let _s = spans.span("eval.user_pass");
        user_pass(&model, &pipeline)
    };
    tally.check(
        "recall@20 recomputed from top-20 lists",
        (own.recall - program.recall).abs() < 1e-12 && own.users == report.n_users,
        format!(
            "own {:.6} over {} users, program {:.6} over {}",
            own.recall, own.users, program.recall, report.n_users
        ),
    );
    tally.check(
        "ndcg@20 recomputed from top-20 lists",
        (own.ndcg - program.ndcg).abs() < 1e-12,
        format!("own {:.6}, program {:.6}", own.ndcg, program.ndcg),
    );
    let pop = pipeline.fit(ModelKind::ItemPop, &cfg);
    let pop_recall = pipeline.evaluate(pop.as_ref(), &[K]).at(K).recall;
    tally.check(
        "PUP recall@20 beats ItemPop",
        program.recall > pop_recall,
        format!("PUP {:.4}, ItemPop {pop_recall:.4}", program.recall),
    );
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    tally.check("last epoch loss below first", last < first, format!("{first:.5} -> {last:.5}"));
    println!("losses: {losses:?}");
    tally.check(
        "every model restored through the registry scores like the trained one",
        restored_same,
        format!("{} restores, 2 users each", ready_s.len()),
    );

    if !args.trace {
        metrics.put("setup_s", median(&setup), "s");
        metrics.put("peak_rss_mb", rss, "MB");
        metrics.put("throughput_per_s", n_examples / epoch_s, "1/s");
        metrics.put("top20_ms", median(&eval_s) * 1e3 / report.n_users as f64, "ms");
        metrics.put("publish_to_ready_s", median(&ready_s), "s");
        return Ok(());
    }

    // Traced run: train a second, identical model through the timing
    // adapter with the program's op telemetry on; its losses must equal
    // the untraced pass's.
    let data = pipeline.train_data();
    let mut model2 = Pup::new(&data, pup_config(&cfg));
    let mut trainer2 = BprTrainer::new(&model2, data.n_users, data.n_items, data.train, &cfg.train);
    pup_obs::start();
    count_allocs(true);
    let a0 = allocs();
    let mut timed = TimedModel::new(&mut model2);
    let (mut losses2, mut durs2) = (Vec::new(), Vec::new());
    for _ in 0..PUP_EPOCHS {
        let _s = spans.span("train.traced_epoch");
        let (loss, d) = epoch(&mut trainer2, &mut timed, tally)?;
        losses2.push(loss);
        durs2.push(d);
    }
    let n_allocs = allocs() - a0;
    count_allocs(false);
    let tel = pup_obs::finish();
    let same = losses.iter().zip(&losses2).all(|(a, b)| a.to_bits() == b.to_bits());
    tally.check("traced losses equal untraced", same, format!("{} epochs", losses2.len()));

    let steps = timed.steps.max(1) as f64;
    let step_ms = durs2.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / steps;
    let prop_ms = timed.propagate.as_secs_f64() * 1e3 / steps;
    let dec_ms = timed.decode.as_secs_f64() * 1e3 / steps;
    let epochs = durs2.len().max(1) as f64;
    let op_ms = |name: &str| tel.hist(name).map_or(0.0, |h| h.sum / 1e6 / epochs);
    let ctr = |name: &str| tel.counter(name).unwrap_or(0) as f64;

    metrics.put("data.load_s", median(&load_s), "s");
    metrics.put("core.split_s", median(&split_s), "s");
    metrics.put("models.build_s", median(&build_s), "s");
    metrics.put("train.propagate_ms_per_step", prop_ms, "ms");
    metrics.put("train.decode_ms_per_step", dec_ms, "ms");
    metrics.put("train.rest_ms_per_step", step_ms - prop_ms - dec_ms, "ms");
    metrics.put("train.allocs_per_step", n_allocs as f64 / steps, "count");
    metrics.put(
        "train.sampler_rejects_per_draw",
        ctr("sampler.rejections") / ctr("sampler.draws").max(1.0),
        "ratio",
    );
    for (metric, hist) in [
        ("op.fwd_spmm_ms", "fwd.spmm"),
        ("op.bwd_spmm_ms", "bwd.spmm"),
        ("op.fwd_tanh_ms", "fwd.tanh"),
        ("op.fwd_dropout_ms", "fwd.dropout"),
        ("op.bwd_gather_rows_ms", "bwd.gather_rows"),
        ("op.bwd_rowwise_dot_ms", "bwd.rowwise_dot"),
        ("op.adam_step_ms", "opt.adam_step"),
    ] {
        metrics.put(metric, op_ms(hist), "ms");
    }
    metrics.put("eval.score_ms_per_user", own.score_ms, "ms");
    metrics.put("eval.rank_ms_per_user", own.rank_ms, "ms");

    // The checkpoint layer on the trained model.
    let run_dir = crate::work_root().join(format!("run-{}", std::process::id()));
    let registry = pup_ckpt::registry::ModelRegistry::open(&run_dir.join("registry"))
        .map_err(|e| e.to_string())?;
    let ckpt = trainer.checkpoint(&model);
    let t = Instant::now();
    let manifest = registry.publish(&ckpt).map_err(|e| e.to_string())?;
    let publish_s = t.elapsed().as_secs_f64();
    metrics.put("ckpt.publish_s", publish_s, "s");
    metrics.put("ckpt.bytes", manifest.ckpt_len as f64, "bytes");
    let t = Instant::now();
    let loaded = registry.load(manifest.gen).map_err(|e| e.to_string())?;
    let ckpt_load_s = t.elapsed().as_secs_f64();
    metrics.put("ckpt.load_s", ckpt_load_s, "s");
    let t = Instant::now();
    let restored = pipeline
        .restore_from_checkpoint(ModelKind::Pup(pup_config(&cfg)), &cfg, &loaded)
        .map_err(|e| e.to_string())?;
    let restore_s = t.elapsed().as_secs_f64();
    metrics.put("models.restore_s", restore_s, "s");
    let same = (0..pipeline.split().n_users.min(8)).all(|u| {
        let (a, b) = (model.score_items(u), restored.score_items(u));
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
    });
    tally.check("restored checkpoint scores equal the trained model", same, "8 users".into());
    let _ = std::fs::remove_dir_all(&run_dir);

    let overhead = (median(&secs(&durs2[1..])) / epoch_s - 1.0) * 100.0;
    metrics.put("trace.overhead_pct", overhead, "%");
    let op_total: f64 = tel
        .hists
        .iter()
        .filter(|h| !h.name.starts_with("metric."))
        .map(|h| h.summary.sum)
        .sum::<f64>()
        / 1e9
        / epochs;
    let epoch2 = durs2.iter().map(Duration::as_secs_f64).sum::<f64>() / epochs;
    println!(
        "coverage setup_s: {:.1}% (load + split + build of {:.4} s)",
        100.0 * (median(&load_s) + median(&split_s) + median(&build_s)) / median(&setup),
        median(&setup)
    );
    println!(
        "coverage train epoch: {:.1}% (op self-times of {epoch2:.4} s)",
        100.0 * op_total / epoch2
    );
    println!(
        "coverage publish_to_ready_s: {:.1}% (publish + load + restore of {:.4} s)",
        100.0 * (publish_s + ckpt_load_s + restore_s) / median(&ready_s),
        median(&ready_s)
    );
    println!(
        "coverage top20_ms: {:.1}% (score + rank of an evaluation pass of {:.4} s)",
        100.0 * (own.score_ms + own.rank_ms) * own.users as f64 / 1e3 / median(&eval_s),
        median(&eval_s)
    );
    spans.write(&crate::work_root().join("traces").join(format!("train-yelp-s{}.jsonl", args.seed)))
}
