//! perfbench-tracer: the in-process half of perfbench.
//!
//! ```text
//! perfbench-tracer reference <manifest.json> <ref-dir>
//! perfbench-tracer trace <manifest.json> <ref-dir> --seconds S --scratch DIR
//!                        [--store SNAPSHOT] [--spans FILE]
//! perfbench-tracer spawn <result-file> <program> [args...]
//! ```
//!
//! `reference` computes, untimed, what every program output must equal:
//! each spec through `mocc_core::run_experiment` at one thread (specs
//! shared over two threads), the train spec through
//! `mocc_core::train_spec`. It writes `reports/<spec file name>`,
//! `model.json` and `meta.json` (cell counts, train iterations).
//!
//! `trace` replays the workload's inputs through the same public calls
//! the `mocc` binary makes, in alternating untraced and traced passes
//! until `--seconds` have passed, checks every output against the
//! reference, and prints the per-layer metrics as one JSON line; with
//! `--spans` the first traced pass's spans are written as JSON lines.
//! All library calls the benchmark times live in this crate.
//!
//! `spawn` runs one program process for `run.py` and records its own
//! CPU time and peak memory (see `spawn.rs`).

mod serve;
mod spans;
mod spawn;
mod sweep;
mod train;

use mocc_bench::timing::Stopwatch;
use serde::Value;
use spans::{self_times, Span, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads of the replayed runs, as `mocc run --threads 2`.
const THREADS: usize = 2;

/// Every per-layer metric, with its unit. Layers a workload does not
/// exercise report 0.
const METRICS: &[(&str, &str)] = &[
    ("spec.load_validate_ms", "ms"),
    ("spec.expand_ms", "ms"),
    ("core.policy_load_ms", "ms"),
    ("cache.policy_digest_ms", "ms"),
    ("cache.key_us", "us"),
    ("store.open_ms", "ms"),
    ("store.get_hit_us", "us"),
    ("store.get_miss_us", "us"),
    ("store.put_us", "us"),
    ("store.stats_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.sha256_mb_per_s", "MB/s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.cell_ms_p50", "ms"),
    ("netsim.cell_ms_max", "ms"),
    ("policy.eval_batch_ms", "ms"),
    ("policy.decisions", "count"),
    ("nn.forward_ns_per_row", "ns"),
    ("policy.forward_share", "ratio"),
    ("runner.busy_ratio", "ratio"),
    ("report.reduce_us", "us"),
    ("report.decode_us", "us"),
    ("report.serialize_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.service_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("rl.rollout_ms", "ms"),
    ("rl.env_steps_per_s", "1/s"),
    ("rl.ppo_update_ms", "ms"),
    ("trainer.checkpoint_ms", "ms"),
    ("trainer.checkpoint_bytes", "bytes"),
    ("self.spec_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.cache_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.netsim_ms", "ms"),
    ("self.policy_ms", "ms"),
    ("self.runner_ms", "ms"),
    ("self.report_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.rl_ms", "ms"),
    ("self.trainer_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_ms", "ms"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("reference") if args.len() == 3 => reference(&args[1], Path::new(&args[2])),
        Some("trace") => trace(&args[1..]),
        Some("spawn") => match spawn::spawn(&args[1..]) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        _ => Err("usage: perfbench-tracer reference <manifest> <ref-dir> | \
                  trace <manifest> <ref-dir> --seconds S --scratch DIR [--store SNAPSHOT] \
                  [--spans FILE] | spawn <result-file> <program> [args...]"
            .to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench-tracer: {msg}");
            ExitCode::FAILURE
        }
    }
}

// ---- manifest --------------------------------------------------------------

struct Manifest {
    workload: String,
    specs: Vec<String>,
    train: Option<String>,
    doc: BTreeMap<String, Value>,
}

impl Manifest {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let Value::Obj(doc) = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?
        else {
            return Err(format!("{path}: not a JSON object"));
        };
        let workload = match doc.get("workload") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("{path}: no workload")),
        };
        let specs = strings(doc.get("specs"));
        let train = match doc.get("train") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        Ok(Manifest {
            workload,
            specs,
            train,
            doc,
        })
    }
}

fn strings(v: Option<&Value>) -> Vec<String> {
    match v {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|i| match i {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn counts(v: Option<&Value>) -> BTreeMap<String, u64> {
    match v {
        Some(Value::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| match v {
                Value::U64(n) => Some((k.clone(), *n)),
                Value::I64(n) => u64::try_from(*n).ok().map(|n| (k.clone(), n)),
                _ => None,
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn report_path(ref_dir: &Path, spec: &str) -> PathBuf {
    let name = Path::new(spec).file_name().expect("spec path names a file");
    ref_dir.join("reports").join(name)
}

// ---- reference -------------------------------------------------------------

fn reference(manifest: &str, ref_dir: &Path) -> Result<(), String> {
    let man = Manifest::load(manifest)?;
    let mut meta = BTreeMap::new();
    if let Some(spec_path) = &man.train {
        let spec = mocc_core::TrainSpec::load(Path::new(spec_path)).map_err(|e| e.to_string())?;
        let run = mocc_core::train_spec(&spec, &mocc_core::TrainOptions::default())
            .map_err(|e| format!("{spec_path}: {e}"))?;
        std::fs::write(ref_dir.join("model.json"), run.agent.to_json())
            .map_err(|e| e.to_string())?;
        meta.insert("train_name".to_string(), Value::Str(spec.name.clone()));
        meta.insert(
            "train_iterations".to_string(),
            Value::U64(run.outcome.iterations as u64),
        );
    } else {
        std::fs::create_dir_all(ref_dir.join("reports")).map_err(|e| e.to_string())?;
        let half = man.specs.len().div_ceil(2);
        let results: Vec<Result<Vec<(String, u64)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = man
                .specs
                .chunks(half.max(1))
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|path| {
                                let exp = mocc_eval::ExperimentSpec::load(Path::new(path))
                                    .map_err(|e| format!("{path}: {e}"))?;
                                let runner = mocc_eval::SweepRunner::with_threads(1);
                                let json = mocc_core::run_experiment(&runner, &exp)
                                    .map_err(|e| format!("{path}: {e}"))?
                                    .to_canonical_json();
                                std::fs::write(report_path(ref_dir, path), json)
                                    .map_err(|e| e.to_string())?;
                                Ok((path.clone(), exp.cell_count() as u64))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let mut cells = BTreeMap::new();
        for part in results {
            for (path, n) in part? {
                cells.insert(path, Value::U64(n));
            }
        }
        meta.insert("cells".to_string(), Value::Obj(cells));
    }
    let json = serde_json::to_string(&Value::Obj(meta)).map_err(|e| e.to_string())?;
    std::fs::write(ref_dir.join("meta.json"), json).map_err(|e| e.to_string())
}

// ---- trace -----------------------------------------------------------------

struct Pass {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
    wall: f64,
}

struct Totals {
    attempted: u64,
    failed: u64,
}

impl Totals {
    fn unit(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn trace(args: &[String]) -> Result<(), String> {
    let (manifest, ref_dir) = match args {
        [m, r, ..] => (m.as_str(), PathBuf::from(r)),
        _ => return Err("trace needs <manifest> <ref-dir>".to_string()),
    };
    let mut seconds = 10.0;
    let mut scratch = None;
    let mut snapshot = None;
    let mut spans_out = None;
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds {value:?}"))?
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--store" => snapshot = Some(PathBuf::from(value)),
            "--spans" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let scratch = scratch.ok_or("trace needs --scratch")?;
    let man = Manifest::load(manifest)?;
    let mut totals = Totals {
        attempted: 0,
        failed: 0,
    };
    let wl = Workload::new(&man, &ref_dir, &scratch, snapshot)?;

    // Alternate untraced and traced passes until the time is up.
    let sw = Stopwatch::start();
    let mut untraced = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut k = 0usize;
    while traced.is_empty() || sw.elapsed_secs() < seconds {
        for on in [false, true] {
            let tr = Tracer::new(on);
            let wall = wl.pass(&tr, k, &mut totals)?;
            k += 1;
            if on {
                let (spans, counts) = tr.into_parts();
                traced.push(Pass {
                    spans,
                    counts,
                    wall,
                });
            } else {
                untraced.push(wall);
            }
        }
    }
    // Counts are properties of the inputs: every traced pass must agree.
    for p in &traced[1..] {
        totals.unit(p.counts == traced[0].counts);
    }
    if let Some(path) = &spans_out {
        write_spans(path, &traced[0].spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut m = summarize(&traced, &untraced);
    wl.probes(&traced[0], &mut m)?;

    let mut metrics = BTreeMap::new();
    for (name, unit) in METRICS {
        let value = m.get(*name).copied().unwrap_or(0.0);
        let mut entry = BTreeMap::new();
        entry.insert("unit".to_string(), Value::Str(unit.to_string()));
        entry.insert("value".to_string(), Value::F64(value));
        metrics.insert(name.to_string(), Value::Obj(entry));
    }
    let mut out = BTreeMap::new();
    out.insert("attempted".to_string(), Value::U64(totals.attempted));
    out.insert("failed".to_string(), Value::U64(totals.failed));
    out.insert("metrics".to_string(), Value::Obj(metrics));
    out.insert("passes".to_string(), Value::U64(traced.len() as u64));
    println!(
        "{}",
        serde_json::to_string(&Value::Obj(out)).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Writes one pass's spans as JSON lines: name, request/cell id,
/// parent span (line index), start and end in ms from the first span.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let t0 = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), Value::Str(s.name.to_string()));
        obj.insert("id".to_string(), Value::U64(s.id));
        obj.insert(
            "parent".to_string(),
            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
        );
        obj.insert("start_ms".to_string(), Value::F64((s.start - t0) * 1e3));
        obj.insert("end_ms".to_string(), Value::F64((s.end - t0) * 1e3));
        let line = serde_json::to_string(&Value::Obj(obj)).map_err(std::io::Error::other)?;
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Durations in seconds of every span named `name`, over all passes.
fn durations(passes: &[Pass], name: &str) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.spans.iter().filter(|s| s.name == name).map(Span::secs))
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn summarize(traced: &[Pass], untraced: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ms = |name| mean(&durations(traced, name)) * 1e3;
    let us = |name| mean(&durations(traced, name)) * 1e6;
    m.insert("spec.load_validate_ms", ms("spec.load_validate"));
    m.insert("spec.expand_ms", ms("spec.expand"));
    m.insert("core.policy_load_ms", ms("core.policy_load"));
    m.insert("cache.policy_digest_ms", ms("cache.policy_digest"));
    m.insert("cache.key_us", us("cache.key"));
    m.insert("store.open_ms", ms("store.open"));
    m.insert("store.get_hit_us", us("store.get_hit"));
    m.insert("store.get_miss_us", us("store.get_miss"));
    m.insert("store.put_us", us("store.put"));
    m.insert("store.stats_ms", ms("store.stats"));
    m.insert("policy.eval_batch_ms", ms("policy.eval_batch"));
    m.insert("report.reduce_us", us("report.reduce"));
    m.insert("report.decode_us", us("report.decode"));
    m.insert("report.serialize_ms", ms("report.serialize"));
    m.insert("serve.service_ms", ms("serve.request"));
    m.insert("rl.rollout_ms", ms("rl.rollout"));
    m.insert("rl.ppo_update_ms", ms("rl.ppo_update"));
    m.insert("trainer.checkpoint_ms", ms("trainer.checkpoint"));

    let first = &traced[0].counts;
    let count = |name: &str| first.get(name).copied().unwrap_or(0) as f64;
    let gets = count("store.gets");
    if gets > 0.0 {
        m.insert("store.hit_ratio", count("store.hits") / gets);
    }
    m.insert("netsim.events", count("netsim.events"));
    m.insert("report.bytes", count("report.bytes"));
    m.insert(
        "trainer.checkpoint_bytes",
        count("trainer.checkpoint_bytes"),
    );

    let cells = durations(traced, "netsim.cell");
    if !cells.is_empty() {
        let events: f64 = traced
            .iter()
            .map(|p| p.counts.get("netsim.events").copied().unwrap_or(0) as f64)
            .sum();
        m.insert(
            "netsim.ns_per_event",
            cells.iter().sum::<f64>() * 1e9 / events,
        );
        m.insert("netsim.cell_ms_p50", median(&cells) * 1e3);
        m.insert(
            "netsim.cell_ms_max",
            cells.iter().copied().fold(0.0, f64::max) * 1e3,
        );
    }
    let rollout: f64 = durations(traced, "rl.rollout").iter().sum();
    if rollout > 0.0 {
        let steps: f64 = traced
            .iter()
            .map(|p| p.counts.get("rl.env_steps").copied().unwrap_or(0) as f64)
            .sum();
        m.insert("rl.env_steps_per_s", steps / rollout);
    }
    let run: f64 = durations(traced, "runner.run").iter().sum();
    if run > 0.0 {
        let busy: f64 = durations(traced, "runner.chunk").iter().sum::<f64>()
            + durations(traced, "policy.eval_batch").iter().sum::<f64>();
        m.insert("runner.busy_ratio", busy / (THREADS as f64 * run));
    }

    // Self time per layer (span-name prefix), per pass; coverage of the
    // pass wall time by top-level spans.
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut covered = 0.0;
    for p in traced {
        for (s, own) in p.spans.iter().zip(self_times(&p.spans)) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(0.0) += own;
            if s.parent.is_none() {
                covered += s.secs();
            }
        }
    }
    let passes = traced.len() as f64;
    for (layer, key) in [
        ("spec", "self.spec_ms"),
        ("core", "self.core_ms"),
        ("cache", "self.cache_ms"),
        ("store", "self.store_ms"),
        ("netsim", "self.netsim_ms"),
        ("policy", "self.policy_ms"),
        ("runner", "self.runner_ms"),
        ("report", "self.report_ms"),
        ("serve", "self.serve_ms"),
        ("rl", "self.rl_ms"),
        ("trainer", "self.trainer_ms"),
    ] {
        m.insert(
            key,
            layers.get(layer).copied().unwrap_or(0.0) * 1e3 / passes,
        );
    }
    let walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    let wall = mean(&walls);
    m.insert("trace.wall_ms", median(&walls) * 1e3);
    m.insert("trace.untraced_wall_ms", median(untraced) * 1e3);
    m.insert(
        "trace.overhead_ms",
        (median(&walls) - median(untraced)) * 1e3,
    );
    m.insert("trace.coverage", covered / passes / wall);
    m.insert(
        "trace.unattributed_ms",
        (wall - covered / passes).max(0.0) * 1e3,
    );
    m
}

// ---- workloads -------------------------------------------------------------

enum Workload {
    Sweeps {
        specs: Vec<String>,
        refs: Vec<Vec<u8>>,
    },
    Serve {
        inputs: serve::ServeInputs,
        snapshot: PathBuf,
        scratch: PathBuf,
    },
    Train {
        spec: String,
        model: Vec<u8>,
        scratch: PathBuf,
    },
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

impl Workload {
    fn new(
        man: &Manifest,
        ref_dir: &Path,
        scratch: &Path,
        snapshot: Option<PathBuf>,
    ) -> Result<Self, String> {
        match man.workload.as_str() {
            "train" => Ok(Workload::Train {
                spec: man.train.clone().ok_or("train manifest without a spec")?,
                model: read(&ref_dir.join("model.json"))?,
                scratch: scratch.to_path_buf(),
            }),
            "serve-cache" => {
                let meta = std::fs::read_to_string(ref_dir.join("meta.json"))
                    .map_err(|e| e.to_string())?;
                let Value::Obj(meta) = serde_json::from_str(&meta).map_err(|e| e.to_string())?
                else {
                    return Err("meta.json is not an object".to_string());
                };
                let mut lines = BTreeMap::new();
                let mut refs = BTreeMap::new();
                for spec in &man.specs {
                    let text = std::fs::read_to_string(spec).map_err(|e| e.to_string())?;
                    lines.insert(
                        spec.clone(),
                        format!("{{\"op\":\"run\",\"spec\":{}}}", text.trim()),
                    );
                    refs.insert(spec.clone(), read(&report_path(ref_dir, spec))?);
                }
                let schedules = match man.doc.get("schedules") {
                    Some(Value::Arr(s)) => s.iter().map(|c| strings(Some(c))).collect(),
                    _ => return Err("serve manifest without schedules".to_string()),
                };
                let replay = match man.doc.get("replay") {
                    Some(Value::U64(n)) => *n as usize,
                    _ => return Err("serve manifest without replay".to_string()),
                };
                Ok(Workload::Serve {
                    inputs: serve::ServeInputs {
                        schedules,
                        lines,
                        refs,
                        cells: counts(meta.get("cells")),
                        new_cells: counts(man.doc.get("new_cells")),
                        replay,
                    },
                    snapshot: snapshot.ok_or("serve-cache needs --store")?,
                    scratch: scratch.to_path_buf(),
                })
            }
            _ => Ok(Workload::Sweeps {
                refs: man
                    .specs
                    .iter()
                    .map(|s| read(&report_path(ref_dir, s)))
                    .collect::<Result<_, _>>()?,
                specs: man.specs.clone(),
            }),
        }
    }

    /// One replay of the workload's inputs, every output checked;
    /// returns its wall time (store copies and clean-up excluded).
    fn pass(&self, tr: &Tracer, k: usize, totals: &mut Totals) -> Result<f64, String> {
        match self {
            Workload::Sweeps { specs, refs } => {
                let sw = Stopwatch::start();
                for (i, (spec, want)) in specs.iter().zip(refs).enumerate() {
                    let got = sweep::run_spec(spec, i as u64, THREADS, tr);
                    if let Ok(json) = &got {
                        tr.count("report.bytes", json.len() as u64);
                    }
                    let ok = matches!(&got, Ok(json) if json.as_bytes() == want.as_slice());
                    if !ok {
                        eprintln!("perfbench-tracer: {spec}: replay differs from the reference");
                    }
                    totals.unit(ok);
                }
                Ok(sw.elapsed_secs())
            }
            Workload::Serve {
                inputs,
                snapshot,
                scratch,
            } => {
                let store = scratch.join(format!("tracer-store-{k}"));
                let _ = std::fs::remove_dir_all(&store);
                serve::copy_tree(snapshot, &store).map_err(|e| e.to_string())?;
                let sw = Stopwatch::start();
                let out = serve::pass(inputs, &store, tr)?;
                let wall = sw.elapsed_secs();
                totals.attempted += out.attempted;
                totals.failed += out.failed;
                let _ = std::fs::remove_dir_all(&store);
                Ok(wall)
            }
            Workload::Train {
                spec,
                model,
                scratch,
            } => {
                let dir = scratch.join(format!("tracer-train-{k}"));
                let _ = std::fs::remove_dir_all(&dir);
                let sw = Stopwatch::start();
                let got = train::pass(spec, &dir, tr);
                let wall = sw.elapsed_secs();
                let ok = matches!(&got, Ok(bytes) if bytes == model);
                if !ok {
                    eprintln!("perfbench-tracer: replayed model.json differs from the reference");
                }
                totals.unit(ok);
                let _ = std::fs::remove_dir_all(&dir);
                Ok(wall)
            }
        }
    }

    /// Untimed probes after the passes: policy decision counts and
    /// forward cost (policy specs), SHA-256 throughput (serve).
    fn probes(&self, first: &Pass, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        match self {
            Workload::Sweeps { specs, .. } => {
                let (mut decisions, mut events, mut forward) = (0u64, 0u64, 0.0f64);
                for spec in specs {
                    let (d, e) = sweep::policy_counts(spec)?;
                    if let Some(ns) = sweep::forward_ns_per_row(spec)? {
                        forward += d as f64 * ns;
                    }
                    decisions += d;
                    events += e;
                }
                if decisions > 0 {
                    m.insert("policy.decisions", decisions as f64);
                    m.insert("nn.forward_ns_per_row", forward / decisions as f64);
                    // Policy cells' events come from the decision replay;
                    // the timed passes count only registry-scheme cells.
                    let timed = first.counts.get("netsim.events").copied().unwrap_or(0);
                    m.insert("netsim.events", (timed + events) as f64);
                    let eval: f64 = first
                        .spans
                        .iter()
                        .filter(|s| s.name == "policy.eval_batch")
                        .map(Span::secs)
                        .sum();
                    if eval > 0.0 {
                        m.insert("policy.forward_share", forward * 1e-9 / eval);
                    }
                }
            }
            Workload::Serve { snapshot, .. } => {
                m.insert("store.sha256_mb_per_s", serve::sha256_mb_per_s(snapshot)?);
            }
            Workload::Train { .. } => {}
        }
        Ok(())
    }
}
