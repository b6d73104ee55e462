//! `mocc` — the spec-file CLI: validate and run declarative
//! experiments end to end, no recompilation.
//!
//! ```text
//! mocc run <spec.json> [--threads N] [--batch N] [--fast-math] [--out FILE] [--cache] [--cache-dir DIR]
//! mocc hunt <spec.json> [--budget N] [--baseline SCHEME] [--out-dir DIR] [--seed N] [--threads N]
//! mocc train <spec.json> [--zoo DIR] [--resume DIR] [--out FILE] [--max-iters N]
//! mocc validate <spec.json>...
//! mocc list-schemes
//! mocc cache stats|verify|gc [--cache-dir DIR] [--older-than-days N]
//! mocc serve [--cache-dir DIR] [--socket PATH] [--threads N]
//! mocc audit [ROOT] [--format json|text] [--rule ID]
//! ```
//!
//! `run` loads an [`ExperimentSpec`] document (see `docs/SPECS.md`),
//! validates it against the scheme registry, executes it — including
//! `mocc` schemes, whose policy the spec's `policy` section pins
//! reproducibly — and writes the canonical-JSON report to stdout (or
//! `--out`). The report is byte-identical for any `--threads` value.
//! With `--cache` the run is memoized per cell through the
//! content-addressed result store (see `docs/CACHING.md`): cells seen
//! before are served from disk, only missing cells are simulated, and
//! the report bytes are identical either way.
//!
//! `hunt` runs the coverage-guided adversarial search
//! (`mocc_core::hunt`, see `docs/EVALUATION.md`): starting from a
//! sweep spec whose scheme is a `mocc` label, it mutates the scenario
//! axes under a seeded RNG, scores the policy against a baseline
//! scheme on each candidate cell, and writes every losing regime to
//! `--out-dir` as a ready-to-run spec file that `mocc validate`
//! accepts.
//!
//! `train` runs a [`TrainSpec`] document (see `docs/TRAINING.md`)
//! through the checkpointed offline trainer and lands the artifact in
//! the model zoo (`models/` by default) with provenance — spec digest,
//! seed, iteration count, final eval metrics. Runs checkpoint
//! periodically; a killed run resumed with `--resume` produces a
//! byte-identical final model.
//!
//! `validate` checks documents without running anything — experiment
//! and train specs alike, dispatching on the document's `kind` — and
//! every problem is a typed [`SpecError`] naming the offending label
//! or field. `list-schemes` prints the scheme vocabulary and the label
//! grammar. `cache` inspects and maintains the store; `serve` answers
//! spec requests over a line-delimited JSON protocol (stdin/stdout,
//! or a Unix socket with `--socket`), sharing one store across
//! clients.
//!
//! `audit` runs the workspace's static-analysis pass (`mocc-audit`,
//! see `docs/AUDIT.md`): byte-determinism and unsafe-hygiene contract
//! rules over every workspace crate, exiting nonzero on any finding.
//!
//! [`SpecError`]: mocc_eval::SpecError
//! [`TrainSpec`]: mocc_core::TrainSpec

use mocc_core::{TrainOptions, TrainSpec};
use mocc_eval::{ExperimentSpec, SchemeRegistry, SweepRunner};
use mocc_store::ResultStore;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
mocc — run declarative MOCC experiment specs (docs/SPECS.md)

USAGE:
    mocc run <spec.json> [--threads N] [--batch N] [--fast-math] [--out FILE] [--cache] [--cache-dir DIR]
    mocc hunt <spec.json> [--budget N] [--baseline SCHEME] [--out-dir DIR] [--seed N] [--threads N]
    mocc train <spec.json> [--zoo DIR] [--resume DIR] [--out FILE] [--max-iters N]
    mocc validate <spec.json>...
    mocc list-schemes
    mocc cache stats|verify|gc [--cache-dir DIR] [--older-than-days N]
    mocc serve [--cache-dir DIR] [--socket PATH] [--threads N]
    mocc audit [ROOT] [--format json|text] [--rule ID]

OPTIONS (run):
    --threads N   worker threads (default: MOCC_SWEEP_THREADS or all cores)
    --batch N     override the policy section's inference batch size
    --fast-math   select the approximate-tanh inference tier (docs/PERFORMANCE.md);
                  changes report bytes, so it is part of the cache key
    --out FILE    write the canonical-JSON report to FILE instead of stdout
    --cache       memoize cells through the result store (docs/CACHING.md)
    --cache-dir DIR  store location (implies --cache; default:
                     $MOCC_CACHE_DIR or target/mocc-cache/store)

OPTIONS (hunt):
    --budget N        candidate cells to evaluate (default: 24; each costs
                      two one-cell runs, policy and baseline)
    --baseline SCHEME registry scheme to score against (default: cubic)
    --out-dir DIR     where losing spec files land (default: target/mocc-hunt)
    --seed N          mutation RNG seed (default: 7; independent of the
                      spec's simulation seed)

OPTIONS (train):
    --zoo DIR      model zoo directory (default: $MOCC_ZOO_DIR or models)
    --resume DIR   resume from the checkpoints in DIR (and keep
                   checkpointing there)
    --out FILE     also copy the final model.json to FILE
    --max-iters N  stop after N total schedule iterations (the run can
                   be resumed later)

OPTIONS (cache gc):
    --older-than-days N  also drop entries untouched for more than N days

OPTIONS (serve):
    --socket PATH  accept connections on a Unix socket instead of stdin

OPTIONS (audit):
    --format FMT   report format: text (default) or json (canonical,
                   byte-stable — see docs/AUDIT.md)
    --rule ID      report only findings of one rule
    ROOT           workspace root to scan (default: ascend from the
                   working directory to the [workspace] Cargo.toml)
";

/// Environment variable naming the default store directory.
const CACHE_DIR_ENV: &str = "MOCC_CACHE_DIR";
/// Fallback store directory (relative to the working directory).
const DEFAULT_CACHE_DIR: &str = "target/mocc-cache/store";
/// Environment variable naming the default model zoo directory.
const ZOO_DIR_ENV: &str = "MOCC_ZOO_DIR";
/// Fallback zoo directory (relative to the working directory).
const DEFAULT_ZOO_DIR: &str = "models";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("hunt") => cmd_hunt(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("list-schemes") => cmd_list_schemes(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--flag N` style options out of `args`, returning the
/// remaining positional arguments.
fn split_options(args: &[String]) -> Result<(Vec<&str>, Options), String> {
    let mut positional = Vec::new();
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => opts.threads = Some(parse_count(&mut it, "--threads")?),
            "--batch" => opts.batch = Some(parse_count(&mut it, "--batch")?),
            "--fast-math" => opts.fast_math = true,
            "--out" => {
                opts.out = Some(
                    it.next()
                        .ok_or_else(|| "--out needs a file path".to_string())?
                        .clone(),
                )
            }
            "--cache" => opts.cache = true,
            "--cache-dir" => {
                opts.cache = true;
                opts.cache_dir = Some(
                    it.next()
                        .ok_or_else(|| "--cache-dir needs a directory path".to_string())?
                        .clone(),
                )
            }
            "--older-than-days" => {
                opts.older_than_days = Some(parse_count(&mut it, "--older-than-days")? as u64)
            }
            "--zoo" => {
                opts.zoo = Some(
                    it.next()
                        .ok_or_else(|| "--zoo needs a directory path".to_string())?
                        .clone(),
                )
            }
            "--resume" => {
                opts.resume = Some(
                    it.next()
                        .ok_or_else(|| "--resume needs a checkpoint directory".to_string())?
                        .clone(),
                )
            }
            "--max-iters" => opts.max_iters = Some(parse_count(&mut it, "--max-iters")?),
            "--budget" => opts.budget = Some(parse_count(&mut it, "--budget")?),
            "--seed" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--seed needs an unsigned integer".to_string())?;
                opts.seed = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("--seed {raw:?} is not an unsigned integer"))?,
                )
            }
            "--baseline" => {
                opts.baseline = Some(
                    it.next()
                        .ok_or_else(|| "--baseline needs a scheme label".to_string())?
                        .clone(),
                )
            }
            "--out-dir" => {
                opts.out_dir = Some(
                    it.next()
                        .ok_or_else(|| "--out-dir needs a directory path".to_string())?
                        .clone(),
                )
            }
            "--socket" => {
                opts.socket = Some(
                    it.next()
                        .ok_or_else(|| "--socket needs a path".to_string())?
                        .clone(),
                )
            }
            "--format" => {
                opts.format = Some(
                    it.next()
                        .ok_or_else(|| "--format needs `json` or `text`".to_string())?
                        .clone(),
                )
            }
            "--rule" => {
                opts.rule = Some(
                    it.next()
                        .ok_or_else(|| "--rule needs a rule id".to_string())?
                        .clone(),
                )
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other:?}\n\n{USAGE}"))
            }
            other => positional.push(other),
        }
    }
    Ok((positional, opts))
}

#[derive(Default)]
struct Options {
    threads: Option<usize>,
    batch: Option<usize>,
    fast_math: bool,
    out: Option<String>,
    cache: bool,
    cache_dir: Option<String>,
    older_than_days: Option<u64>,
    socket: Option<String>,
    zoo: Option<String>,
    resume: Option<String>,
    max_iters: Option<usize>,
    budget: Option<usize>,
    baseline: Option<String>,
    out_dir: Option<String>,
    seed: Option<u64>,
    format: Option<String>,
    rule: Option<String>,
}

impl Options {
    /// The store root: `--cache-dir`, else `$MOCC_CACHE_DIR`, else the
    /// in-repo default.
    fn store_root(&self) -> PathBuf {
        match &self.cache_dir {
            Some(dir) => PathBuf::from(dir),
            // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_CACHE_DIR in the CLI
            None => std::env::var(CACHE_DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from(DEFAULT_CACHE_DIR)),
        }
    }

    fn open_store(&self) -> Result<ResultStore, String> {
        let root = self.store_root();
        let store = ResultStore::open(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        if store.repaired_tail() {
            eprintln!(
                "[mocc] cache: repaired a half-written ledger line in {}",
                root.display()
            );
        }
        Ok(store)
    }

    fn runner(&self) -> SweepRunner {
        match self.threads {
            Some(n) => SweepRunner::with_threads(n),
            None => SweepRunner::auto(),
        }
    }

    /// The model zoo root: `--zoo`, else `$MOCC_ZOO_DIR`, else the
    /// in-repo default.
    fn zoo_root(&self) -> PathBuf {
        match &self.zoo {
            Some(dir) => PathBuf::from(dir),
            // audit:allow(env-discipline): strict-parse helper — the one reader of MOCC_ZOO_DIR
            None => std::env::var(ZOO_DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from(DEFAULT_ZOO_DIR)),
        }
    }
}

fn parse_count<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<usize, String> {
    let raw = it
        .next()
        .ok_or_else(|| format!("{flag} needs a positive integer"))?;
    raw.parse::<usize>()
        .ok()
        .filter(|n| *n >= 1)
        .ok_or_else(|| format!("{flag} {raw:?} is not a positive integer"))
}

/// Unix seconds — the CLI's timestamp chokepoint; libraries take
/// timestamps as arguments to stay deterministic. One of the two
/// named clock sites (`mocc audit` clock-discipline; the other is
/// `mocc_bench::timing`).
fn now_ts() -> u64 {
    // audit:allow(clock-discipline): the CLI timestamp chokepoint — timestamps flow into the cache ledger, never into results
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The `--older-than-days N` cutoff for `mocc cache gc`: entries last
/// touched *strictly before* `now − N·86 400` are dropped (a ledger
/// timestamp exactly at the cutoff survives — see the store's gc
/// contract). `None` disables the age filter. Computed once here from
/// the CLI's single clock read ([`now_ts`]); the store itself never
/// reads a clock. Both steps saturate so absurd `N` values clamp the
/// cutoff to the epoch instead of wrapping around.
fn gc_cutoff(now: u64, older_than_days: Option<u64>) -> Option<u64> {
    older_than_days.map(|days| now.saturating_sub(days.saturating_mul(86_400)))
}

fn load_spec(path: &str) -> Result<ExperimentSpec, String> {
    ExperimentSpec::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Best-effort peek at a spec document's `kind` tag, for dispatching
/// between experiment and train specs. Unreadable or malformed files
/// return `None` and fall through to the full parser, which owns the
/// real error message.
fn spec_kind(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let Value::Obj(obj) = serde_json::from_str(&text).ok()? else {
        return None;
    };
    match obj.get("kind") {
        Some(Value::Str(kind)) => Some(kind.clone()),
        _ => None,
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    if opts.socket.is_some() || opts.older_than_days.is_some() || opts.budget.is_some() {
        return Err(
            "`mocc run` does not take --socket, --older-than-days, or --budget".to_string(),
        );
    }
    let &[path] = positional.as_slice() else {
        return Err(format!("`mocc run` takes exactly one spec file\n\n{USAGE}"));
    };
    if spec_kind(path).as_deref() == Some("train") {
        return Err(format!(
            "{path} is a training spec — run it with `mocc train {path}`"
        ));
    }
    let mut exp = load_spec(path)?;
    if let Some(batch) = opts.batch {
        match &mut exp.policy {
            Some(policy) => policy.batch = batch,
            None => {
                return Err(format!(
                    "{path}: --batch overrides the spec's policy section, \
                     but this spec has none (no `mocc` schemes)"
                ))
            }
        }
    }
    if opts.fast_math {
        match &mut exp.policy {
            Some(policy) => policy.fast_math = true,
            None => {
                return Err(format!(
                    "{path}: --fast-math selects the policy's inference tier, \
                     but this spec has no policy section (no `mocc` schemes)"
                ))
            }
        }
    }
    let runner = opts.runner();
    eprintln!(
        "[mocc] {}: {} cells over {} worker threads",
        exp.name,
        exp.cell_count(),
        runner.threads()
    );
    let json = if opts.cache {
        let store = opts.open_store()?;
        let (report, stats) = mocc_core::run_experiment_cached(&runner, &exp, &store, now_ts())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "[mocc] cache: {} hits, {} misses ({})",
            stats.hits,
            stats.misses,
            store.root().display()
        );
        report.to_canonical_json()
    } else {
        mocc_core::run_experiment(&runner, &exp)
            .map_err(|e| format!("{path}: {e}"))?
            .to_canonical_json()
    };
    match &opts.out {
        Some(out) => std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?,
        None => println!("{json}"),
    }
    Ok(())
}

/// Runs the coverage-guided adversarial search over one sweep spec:
/// mutate scenario axes under a seeded RNG, score the MOCC policy
/// against a baseline scheme per cell, and emit every losing regime
/// as a ready-to-run spec file.
fn cmd_hunt(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    if opts.batch.is_some() || opts.fast_math || opts.cache || opts.out.is_some() {
        return Err(
            "`mocc hunt` takes only --budget, --baseline, --out-dir, --seed, and --threads"
                .to_string(),
        );
    }
    let &[path] = positional.as_slice() else {
        return Err(format!(
            "`mocc hunt` takes exactly one spec file\n\n{USAGE}"
        ));
    };
    let exp = load_spec(path)?;
    let mut hunt_opts = mocc_core::HuntOptions::default();
    if let Some(budget) = opts.budget {
        hunt_opts.budget = budget;
    }
    if let Some(baseline) = &opts.baseline {
        hunt_opts.baseline = baseline.clone();
    }
    if let Some(dir) = &opts.out_dir {
        hunt_opts.out_dir = PathBuf::from(dir);
    }
    if let Some(seed) = opts.seed {
        hunt_opts.seed = seed;
    }
    let runner = opts.runner();
    eprintln!(
        "[mocc] hunt {}: budget {} vs baseline {:?}, seed {}, {} worker threads",
        exp.name,
        hunt_opts.budget,
        hunt_opts.baseline,
        hunt_opts.seed,
        runner.threads()
    );
    let outcome = mocc_core::hunt(&runner, &exp, &hunt_opts).map_err(|e| format!("{path}: {e}"))?;
    for f in &outcome.findings {
        println!(
            "{}  margin {:+.4} (mocc {:.4} vs {} {:.4})",
            f.path.display(),
            f.margin,
            f.mocc_utility,
            hunt_opts.baseline,
            f.baseline_utility
        );
    }
    eprintln!(
        "[mocc] hunt {}: {} candidates evaluated, {} regimes covered, {} losing specs in {}",
        exp.name,
        outcome.evaluated,
        outcome.coverage,
        outcome.findings.len(),
        hunt_opts.out_dir.display()
    );
    Ok(())
}

/// Runs (or resumes) one training spec through the checkpointed
/// trainer; a completed run lands in the zoo with provenance.
fn cmd_train(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    if opts.threads.is_some()
        || opts.batch.is_some()
        || opts.fast_math
        || opts.cache
        || opts.socket.is_some()
        || opts.older_than_days.is_some()
    {
        return Err("`mocc train` takes only --zoo, --resume, --out, and --max-iters".to_string());
    }
    let &[path] = positional.as_slice() else {
        return Err(format!(
            "`mocc train` takes exactly one spec file\n\n{USAGE}"
        ));
    };
    let spec = TrainSpec::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    spec.validate().map_err(|e| format!("{path}: {e}"))?;

    let zoo = opts.zoo_root();
    let checkpoint_dir = match &opts.resume {
        Some(dir) => PathBuf::from(dir),
        None => zoo.join(&spec.name).join("checkpoints"),
    };
    let train_opts = TrainOptions {
        checkpoint_dir: Some(checkpoint_dir.clone()),
        resume_from: opts.resume.as_ref().map(PathBuf::from),
        max_iters: opts.max_iters,
        // Wall-time logging only; training itself never reads a clock.
        clock: Some(mocc_bench::timing::monotonic_secs),
    };
    let total = spec.schedule_len().map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "[mocc] train {}: {} scheduled iterations, spec digest {}",
        spec.name,
        total,
        &spec.digest()[..12]
    );

    let run = mocc_core::train_spec(&spec, &train_opts).map_err(|e| format!("{path}: {e}"))?;
    if !run.completed {
        eprintln!(
            "[mocc] train {}: stopped at iteration {} of {}; resume with \
             `mocc train {path} --zoo {} --resume {}`",
            spec.name,
            run.outcome.iterations,
            total,
            zoo.display(),
            checkpoint_dir.display()
        );
        return Ok(());
    }
    let model_path = mocc_core::save_trained(&zoo, &spec, &run.agent, run.outcome.iterations)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "[mocc] train {}: {} iterations in {:.1}s -> {}",
        spec.name,
        run.outcome.iterations,
        run.outcome.wall_secs,
        model_path.display()
    );
    if let Some(out) = &opts.out {
        std::fs::copy(&model_path, out).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("[mocc] train {}: copied model to {out}", spec.name);
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    if positional.is_empty() {
        return Err(format!("`mocc validate` takes spec files\n\n{USAGE}"));
    }
    if opts.threads.is_some()
        || opts.batch.is_some()
        || opts.out.is_some()
        || opts.cache
        || opts.fast_math
        || opts.zoo.is_some()
        || opts.resume.is_some()
        || opts.max_iters.is_some()
        || opts.budget.is_some()
        || opts.baseline.is_some()
        || opts.out_dir.is_some()
        || opts.seed.is_some()
    {
        return Err("`mocc validate` takes no options".to_string());
    }
    let registry = SchemeRegistry::builtin();
    let mut failures = 0usize;
    for path in &positional {
        if spec_kind(path).as_deref() == Some("train") {
            match TrainSpec::load(Path::new(path))
                .and_then(|spec| spec.validate().map(|()| spec))
                .map_err(|e| format!("{path}: {e}"))
            {
                Ok(spec) => {
                    println!(
                        "{path}: ok (train, {} iterations, model {})",
                        spec.schedule_len().expect("validated"),
                        spec.name
                    );
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    failures += 1;
                }
            }
            continue;
        }
        match load_spec(path).and_then(|exp| {
            exp.validate_in(&registry)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(exp)
        }) {
            Ok(exp) => {
                let kind = match exp.needs_policy() {
                    true => "policy-driven",
                    false => "baseline-only",
                };
                println!("{path}: ok ({} cells, {kind})", exp.cell_count());
            }
            Err(msg) => {
                eprintln!("{msg}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} specs invalid", positional.len()));
    }
    Ok(())
}

fn cmd_list_schemes(args: &[String]) -> Result<(), String> {
    if !args.is_empty() {
        return Err("`mocc list-schemes` takes no arguments".to_string());
    }
    let registry = SchemeRegistry::builtin();
    println!("registry schemes:");
    for (name, summary) in registry.entries() {
        println!("  {name:<14} {summary}");
    }
    println!("\nmocc schemes (need a `policy` section in the spec):");
    println!("  mocc           the policy under the spec's default preference");
    println!("  mocc:thr       throughput preference <0.8, 0.1, 0.1>");
    println!("  mocc:lat       latency preference <0.1, 0.8, 0.1>");
    println!("  mocc:bal       balanced preference <1/3, 1/3, 1/3>");
    println!("  mocc:w1,w2,w3  explicit (thr, lat, loss) weights, normalized");
    println!(
        "\ncompetition mixes: duel:<a>+<b>[+…] | stair:<scheme>:<n>x<phase_s> \
         | incast:<scheme>:<n>x<stagger_s>"
    );
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    let &[action] = positional.as_slice() else {
        return Err(format!(
            "`mocc cache` takes one action: stats, verify, or gc\n\n{USAGE}"
        ));
    };
    let store = opts.open_store()?;
    match action {
        "stats" => {
            let s = store.stats().map_err(|e| e.to_string())?;
            println!("store:        {}", store.root().display());
            println!("objects:      {} ({} bytes)", s.objects, s.object_bytes);
            println!("keys:         {}", s.keys);
            println!(
                "ledger:       {} puts, {} hits, {} misses",
                s.puts, s.hits, s.misses
            );
            if s.bad_ledger_lines > 0 || s.truncated_ledger_tail {
                println!(
                    "damage:       {} bad lines, truncated tail: {}",
                    s.bad_ledger_lines, s.truncated_ledger_tail
                );
            }
            Ok(())
        }
        "verify" => {
            let report = store.verify().map_err(|e| e.to_string())?;
            for issue in &report.issues {
                eprintln!("issue: {issue}");
            }
            if report.is_clean() {
                println!(
                    "{}: clean ({} objects verified)",
                    store.root().display(),
                    report.objects_checked
                );
                Ok(())
            } else {
                Err(format!(
                    "{}: {} issues found ({} objects verified); corrupt entries \
                     degrade to recomputation — run `mocc cache gc` to drop them",
                    store.root().display(),
                    report.issues.len(),
                    report.objects_checked
                ))
            }
        }
        "gc" => {
            let before = gc_cutoff(now_ts(), opts.older_than_days);
            let report = store.gc(before).map_err(|e| e.to_string())?;
            println!(
                "{}: kept {} objects, removed {}, dropped {} ledger lines",
                store.root().display(),
                report.kept,
                report.removed_objects,
                report.removed_ledger_lines
            );
            Ok(())
        }
        other => Err(format!(
            "unknown cache action {other:?}: expected stats, verify, or gc"
        )),
    }
}

/// Runs the workspace static-analysis pass (docs/AUDIT.md). Exits
/// nonzero on any finding, so CI can gate on it directly.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    if opts.threads.is_some()
        || opts.batch.is_some()
        || opts.fast_math
        || opts.cache
        || opts.out.is_some()
        || opts.socket.is_some()
    {
        return Err("`mocc audit` takes only --format, --rule, and an optional root".to_string());
    }
    let root = match positional.as_slice() {
        [] => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            mocc_audit::workspace_root_from(&cwd).ok_or_else(|| {
                "no [workspace] Cargo.toml above the working directory; pass the root explicitly"
                    .to_string()
            })?
        }
        [dir] => PathBuf::from(dir),
        _ => return Err(format!("`mocc audit` takes at most one root\n\n{USAGE}")),
    };
    let mut report = mocc_audit::audit_workspace(&root)
        .map_err(|e| format!("auditing {}: {e}", root.display()))?;
    if let Some(rule) = &opts.rule {
        if mocc_audit::rules::rule_by_id(rule).is_none() {
            let known: Vec<&str> = mocc_audit::rules::RULES.iter().map(|r| r.id).collect();
            return Err(format!(
                "unknown rule {rule:?}; known rules: {}",
                known.join(", ")
            ));
        }
        report.retain_rule(rule);
    }
    match opts.format.as_deref() {
        None | Some("text") => print!("{}", report.to_text()),
        Some("json") => print!("{}", report.to_json()),
        Some(other) => return Err(format!("--format takes `json` or `text`, not {other:?}")),
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "audit found {} violation(s) (rules: docs/AUDIT.md)",
            report.findings.len()
        ))
    }
}

// ---- mocc serve -------------------------------------------------------

/// One store-backed daemon serving spec requests over a line-delimited
/// JSON protocol. Each request is one JSON object per line:
///
/// ```text
/// {"op":"ping"}
/// {"op":"stats"}
/// {"op":"run","spec":{...ExperimentSpec...}}
/// {"op":"run","path":"examples/specs/sweep_cubic.json"}
/// {"op":"shutdown"}
/// ```
///
/// and each response one JSON object per line: `{"ok":true,...}` with
/// the canonical report under `"report"` plus `"hits"`/`"misses"`, or
/// `{"ok":false,"error":"..."}`. Malformed requests answer an error
/// and keep the session alive; `shutdown` ends the daemon.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (positional, opts) = split_options(args)?;
    if !positional.is_empty() {
        return Err(format!(
            "`mocc serve` takes no positional arguments\n\n{USAGE}"
        ));
    }
    let store = opts.open_store()?;
    let runner = opts.runner();
    match &opts.socket {
        None => {
            eprintln!(
                "[mocc] serve: reading ops from stdin, store {}",
                store.root().display()
            );
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_session(stdin.lock(), stdout.lock(), &runner, &store)?;
            Ok(())
        }
        Some(path) => {
            use std::os::unix::net::UnixListener;
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "[mocc] serve: listening on {path}, store {}",
                store.root().display()
            );
            for conn in listener.incoming() {
                let conn = conn.map_err(|e| e.to_string())?;
                let session = match conn.try_clone() {
                    Ok(read) => serve_session(BufReader::new(read), conn, &runner, &store),
                    Err(e) => Err(e.to_string()),
                };
                match session {
                    Ok(true) => break,
                    Ok(false) => {}
                    // A client hanging up ends its session, not the daemon.
                    Err(e) => eprintln!("[mocc] serve: connection dropped: {e}"),
                }
            }
            let _ = std::fs::remove_file(path);
            Ok(())
        }
    }
}

/// Upper bound on one request line. Longer lines are discarded in
/// bounded chunks and answered with a structured error, so a client
/// cannot make the daemon buffer an arbitrarily large request.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Serves one client session; returns true when the client asked the
/// daemon to shut down (not merely disconnected).
///
/// Per-request faults — malformed JSON, invalid UTF-8, an oversized
/// line, or a panic inside op dispatch — answer `{"ok":false,...}` and
/// keep the session alive; only a transport-level read/write error
/// ends it.
fn serve_session(
    mut reader: impl BufRead,
    mut writer: impl Write,
    runner: &SweepRunner,
    store: &ResultStore,
) -> Result<bool, String> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader
            .by_ref()
            .take(MAX_REQUEST_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(false); // Client disconnected.
        }
        let (response, shutdown) = if buf.len() > MAX_REQUEST_BYTES && !buf.ends_with(b"\n") {
            drain_line(&mut reader)?;
            (
                error_response(&format!("request line exceeds {MAX_REQUEST_BYTES} bytes")),
                false,
            )
        } else {
            // Lossy decoding: invalid UTF-8 becomes a JSON parse error
            // on the replacement characters, not a dead session.
            let line = String::from_utf8_lossy(&buf);
            if line.trim().is_empty() {
                continue;
            }
            serve_line(&line, runner, store)
        };
        writeln!(writer, "{response}").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Discards the rest of the current input line (the request already
/// exceeded [`MAX_REQUEST_BYTES`]), consuming the reader's buffer in
/// place so memory stays bounded. EOF also ends the line.
fn drain_line(reader: &mut impl BufRead) -> Result<(), String> {
    loop {
        let available = reader.fill_buf().map_err(|e| e.to_string())?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}

/// [`serve_one`] behind a panic guard: a panic while dispatching one
/// request becomes a structured error response instead of unwinding
/// through the serve loop and killing the daemon.
fn serve_line(line: &str, runner: &SweepRunner, store: &ResultStore) -> (String, bool) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(|| serve_one(line, runner, store))) {
        Ok(result) => result,
        Err(payload) => (
            // `&*payload`: deref the box so we downcast the payload,
            // not the `Box<dyn Any>` itself.
            error_response(&format!("internal error: {}", panic_message(&*payload))),
            false,
        ),
    }
}

/// Best-effort text of a caught panic payload (`panic!` carries a
/// `&str` or `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    for (k, v) in fields {
        map.insert(k.to_string(), v);
    }
    Value::Obj(map)
}

fn error_response(msg: &str) -> String {
    serde_json::to_string(&obj(vec![
        ("error", Value::Str(msg.to_string())),
        ("ok", Value::Bool(false)),
    ]))
    .expect("response serializes")
}

/// Handles one protocol line; returns `(response line, shutdown?)`.
fn serve_one(line: &str, runner: &SweepRunner, store: &ResultStore) -> (String, bool) {
    let request: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return (error_response(&format!("bad request JSON: {e}")), false),
    };
    let Value::Obj(request) = request else {
        return (error_response("request must be a JSON object"), false);
    };
    let op = match request.get("op") {
        Some(Value::Str(op)) => op.as_str(),
        _ => return (error_response("request needs a string `op` field"), false),
    };
    match op {
        "ping" => (
            serde_json::to_string(&obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("ping".to_string())),
            ]))
            .expect("response serializes"),
            false,
        ),
        "shutdown" => (
            serde_json::to_string(&obj(vec![
                ("ok", Value::Bool(true)),
                ("op", Value::Str("shutdown".to_string())),
            ]))
            .expect("response serializes"),
            true,
        ),
        "stats" => match store.stats() {
            Err(e) => (error_response(&e.to_string()), false),
            Ok(s) => (
                serde_json::to_string(&obj(vec![
                    ("hits", s.hits.to_value()),
                    ("keys", s.keys.to_value()),
                    ("misses", s.misses.to_value()),
                    ("objects", s.objects.to_value()),
                    ("ok", Value::Bool(true)),
                    ("puts", s.puts.to_value()),
                ]))
                .expect("response serializes"),
                false,
            ),
        },
        "run" => {
            let exp = match (request.get("spec"), request.get("path")) {
                (Some(spec), None) => {
                    ExperimentSpec::from_value(spec).map_err(|e| format!("bad spec: {e}"))
                }
                (None, Some(Value::Str(path))) => {
                    ExperimentSpec::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
                }
                _ => Err("run needs exactly one of `spec` (inline) or `path`".to_string()),
            };
            let result = exp.and_then(|exp| {
                mocc_core::run_experiment_cached(runner, &exp, store, now_ts())
                    .map_err(|e| e.to_string())
            });
            match result {
                Err(e) => (error_response(&e), false),
                Ok((report, stats)) => {
                    let report_value: Value = serde_json::from_str(&report.to_canonical_json())
                        .expect("canonical report parses");
                    (
                        serde_json::to_string(&obj(vec![
                            ("hits", stats.hits.to_value()),
                            ("misses", stats.misses.to_value()),
                            ("ok", Value::Bool(true)),
                            ("report", report_value),
                        ]))
                        .expect("response serializes"),
                        false,
                    )
                }
            }
        }
        other => (error_response(&format!("unknown op {other:?}")), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn gc_cutoff_is_now_minus_whole_days() {
        assert_eq!(gc_cutoff(1_000_000, None), None);
        assert_eq!(gc_cutoff(1_000_000, Some(0)), Some(1_000_000));
        assert_eq!(gc_cutoff(1_000_000, Some(1)), Some(1_000_000 - 86_400));
        assert_eq!(gc_cutoff(1_000_000, Some(7)), Some(1_000_000 - 7 * 86_400));
    }

    #[test]
    fn gc_cutoff_saturates_instead_of_wrapping() {
        // More days than the clock holds: clamp to the epoch; an
        // entry at ts 0 still survives (`0 < 0` is false).
        assert_eq!(gc_cutoff(5, Some(1)), Some(0));
        assert_eq!(gc_cutoff(u64::MAX, Some(u64::MAX)), Some(0));
    }

    #[test]
    fn drain_line_stops_at_the_newline() {
        let mut reader = std::io::BufReader::new(&b"tail of oversized line\nnext"[..]);
        drain_line(&mut reader).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "next");
    }

    #[test]
    fn drain_line_accepts_eof_as_line_end() {
        let mut reader = std::io::BufReader::new(&b"no newline at all"[..]);
        drain_line(&mut reader).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let p = catch_unwind(AssertUnwindSafe(|| panic!("plain str"))).unwrap_err();
        assert_eq!(panic_message(&*p), "plain str");
        let p = catch_unwind(AssertUnwindSafe(|| panic!("with {}", "args"))).unwrap_err();
        assert_eq!(panic_message(&*p), "with args");
    }
}
