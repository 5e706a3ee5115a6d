//! Per-seed inputs: synthetic datasets from the program's own generators
//! and, for the serving workloads, PUP checkpoints from a training run of
//! the program.
//!
//! Inputs are made once per (workload, seed) by a child process of this
//! binary (`--prepare`), so their memory never counts in a measuring run's
//! `peak_rss_mb`, and are kept under `.perfbench/inputs/` for later runs of
//! the same seed. A finished input directory appears by an atomic rename.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use pup_data::io::{load_dataset, save_dataset};
use pup_data::synthetic::{generate, yelp_like, GeneratorConfig};
use pup_data::Quantization;
use pup_models::{BprTrainer, Pup};
use pup_recsys::Pipeline;

use crate::Workload;

/// Epochs of the PUP training in `train-yelp`, and of the serving
/// checkpoint of `serve-small` (generation 1; generation 2 is one epoch on).
pub const PUP_EPOCHS: usize = 15;

/// The `serve-100k` catalog: 100,000 items, ~4,000 users, 200,000 events,
/// k-core filtering off so the catalog keeps every item.
fn catalog_100k(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_users: 4_000,
        n_items: 100_000,
        n_categories: 1_000,
        n_price_levels: 10,
        n_interactions: 200_000,
        kcore: 0,
        seed,
        ..GeneratorConfig::default()
    }
}

/// `serve-100k` checkpoints come from a short run of the program's trainer:
/// batches of this size over the first batch of training pairs, generation
/// 1 after [`SHORT_RUN_EPOCHS`] epochs and generation 2 one epoch later.
const SHORT_RUN_BATCH: usize = 16_384;
const SHORT_RUN_EPOCHS: usize = 1;

/// A prepared input directory.
pub struct Inputs {
    pub items: PathBuf,
    pub interactions: PathBuf,
    /// Price levels to quantize to when loading the CSVs.
    pub levels: usize,
    /// Serving checkpoints: generation 1 and generation 2.
    pub gens: [PathBuf; 2],
}

fn price_levels(w: Workload) -> usize {
    match w {
        Workload::TrainYelp | Workload::ServeSmall => 4,
        Workload::Serve100k => 10,
    }
}

fn layout(w: Workload, dir: &Path) -> Inputs {
    Inputs {
        items: dir.join("items.csv"),
        interactions: dir.join("interactions.csv"),
        levels: price_levels(w),
        gens: [dir.join("gen-1.pupckpt"), dir.join("gen-2.pupckpt")],
    }
}

/// Returns the seed's inputs, making them first if they do not exist yet.
pub fn ensure(w: Workload, seed: u64) -> Result<Inputs, String> {
    let dir = crate::work_root().join("inputs").join(format!("{}-s{seed}", w.name()));
    if !dir.join("READY").is_file() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t = Instant::now();
        let status = Command::new(exe)
            .args(["--prepare", w.name(), &seed.to_string()])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start input preparation: {e}"))?;
        if !status.success() {
            return Err(format!(
                "input preparation for {} seed {seed} failed ({status})",
                w.name()
            ));
        }
        eprintln!("inputs for {} seed {seed} made in {:.1}s", w.name(), t.elapsed().as_secs_f64());
        evict_old_inputs(w, &dir);
    }
    Ok(layout(w, &dir))
}

/// Seeds whose inputs stay on disk per workload: a serve-100k seed takes
/// ~330 MB (two checkpoints with their Adam moments).
const KEPT_SEEDS: usize = 3;

/// Deletes the workload's least recently made input directories beyond
/// [`KEPT_SEEDS`], never `keep`.
fn evict_old_inputs(w: Workload, keep: &Path) {
    let Some(root) = keep.parent() else { return };
    let Ok(entries) = std::fs::read_dir(root) else { return };
    let prefix = format!("{}-s", w.name());
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix) && e.path() != keep)
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    dirs.sort();
    let excess = (dirs.len() + 1).saturating_sub(KEPT_SEEDS);
    for (_, dir) in dirs.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `--prepare WORKLOAD SEED DIR`: makes the inputs in a temporary sibling
/// directory, then renames it to `DIR`.
pub fn prepare_main(args: &[String]) -> Result<(), String> {
    let [w, seed, dir] = args else {
        return Err("usage: --prepare WORKLOAD SEED DIR".into());
    };
    let w = Workload::parse(w)?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let dir = PathBuf::from(dir);
    let tmp = dir.with_extension(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let paths = layout(w, &tmp);

    let dataset = match w {
        Workload::TrainYelp => yelp_like(0.1, seed).dataset,
        Workload::ServeSmall => yelp_like(0.05, seed).dataset,
        Workload::Serve100k => generate(&catalog_100k(seed)).dataset,
    };
    save_dataset(&dataset, None, &paths.items, &paths.interactions).map_err(|e| e.to_string())?;
    drop(dataset);

    if w != Workload::TrainYelp {
        // Train on the dataset exactly as a measuring run will load it.
        let (dataset, _) =
            load_dataset(&paths.items, &paths.interactions, paths.levels, Quantization::Uniform)
                .map_err(|e| e.to_string())?;
        let pipeline = Pipeline::new(dataset);
        let data = pipeline.train_data();
        let (cfg, pairs, epochs) = match w {
            Workload::ServeSmall => (crate::train::fit_config(PUP_EPOCHS), data.train, PUP_EPOCHS),
            _ => {
                let mut cfg = crate::train::fit_config(SHORT_RUN_EPOCHS);
                cfg.train.batch_size = SHORT_RUN_BATCH;
                let n = SHORT_RUN_BATCH.min(data.train.len());
                (cfg, &data.train[..n], SHORT_RUN_EPOCHS)
            }
        };
        let mut model = Pup::new(&data, crate::train::pup_config(&cfg));
        let mut trainer = BprTrainer::new(&model, data.n_users, data.n_items, pairs, &cfg.train);
        for gen in 0..2 {
            let todo = if gen == 0 { epochs } else { 1 };
            for _ in 0..todo {
                let loss = trainer.run_epoch(&mut model).map_err(|e| e.to_string())?;
                eprintln!(
                    "prepare {}: epoch {} loss {loss:.5}",
                    w.name(),
                    trainer.completed_epochs()
                );
            }
            pup_ckpt::store::save_atomic(&trainer.checkpoint(&model), &paths.gens[gen])
                .map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(tmp.join("READY"), b"ok\n").map_err(|e| e.to_string())?;
    if dir.join("READY").is_file() {
        // Another run made the same inputs meanwhile; keep theirs.
        let _ = std::fs::remove_dir_all(&tmp);
        return Ok(());
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir).map_err(|e| format!("{} -> {}: {e}", tmp.display(), dir.display()))
}
