//! Replays the `mocc serve` request schedule in-process against a
//! fresh copy of the store snapshot: the cached-run pipeline of
//! `mocc_core::run_experiment_cached` taken apart into its public
//! calls (spec parse, expansion, policy load and digest, cell keys,
//! store gets and puts, simulation of the misses, report assembly),
//! plus the daemon's response encoding.

use crate::spans::Tracer;
use crate::sweep::{policy_evaluator, TimedCells};
use mocc_core::{agent_from_policy, policy_digest};
use mocc_eval::{
    sweep_cell_key, CellEvaluator, CellReport, ExperimentSpec, PolicyIdentity, SchemeRegistry,
    SweepCell, SweepReport, Workload,
};
use mocc_store::ResultStore;
use serde::{Deserialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Ledger timestamp for replayed requests (the store never reads a
/// clock; the value only lands in ledger lines).
const TS: u64 = 1_700_000_000;

pub struct ServeInputs {
    /// Per client: spec paths, or "stats".
    pub schedules: Vec<Vec<String>>,
    /// Request line per spec path.
    pub lines: BTreeMap<String, String>,
    /// Reference report per spec path.
    pub refs: BTreeMap<String, Vec<u8>>,
    /// Cells per spec path, and the cells a first request misses.
    pub cells: BTreeMap<String, u64>,
    pub new_cells: BTreeMap<String, u64>,
    /// Requests replayed per client in one pass.
    pub replay: usize,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

/// One pass over the first `replay` requests of every client,
/// interleaved round-robin, against the store in `store_dir`.
pub fn pass(inp: &ServeInputs, store_dir: &Path, tr: &Tracer) -> Result<Outcome, String> {
    let store = tr
        .span("store.open", 0, || ResultStore::open(store_dir))
        .map_err(|e| format!("{}: {e}", store_dir.display()))?;
    let registry = SchemeRegistry::builtin();
    let mut seen: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); inp.schedules.len()];
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
    };
    let mut id = 0u64;
    for k in 0..inp.replay {
        for (c, sched) in inp.schedules.iter().enumerate() {
            let Some(req) = sched.get(k) else { continue };
            id += 1;
            let ok = if req == "stats" {
                tr.span("serve.request", id, || {
                    tr.span("store.stats", id, || store.stats()).is_ok()
                })
            } else {
                let first = seen[c].insert(req.as_str());
                let misses = if first {
                    inp.new_cells.get(req).copied().unwrap_or(0)
                } else {
                    0
                };
                let cells = inp.cells[req];
                let expected = format!(
                    "{{\"hits\":{},\"misses\":{misses},\"ok\":true,\"report\":{}}}",
                    cells - misses,
                    String::from_utf8_lossy(&inp.refs[req])
                );
                let reply = tr.span("serve.request", id, || {
                    run_request(&inp.lines[req], id, &store, &registry, tr)
                });
                match reply {
                    Ok(reply) if reply == expected => true,
                    Ok(reply) => {
                        eprintln!("perfbench-tracer: {req}: reply differs: {:.200}", reply);
                        false
                    }
                    Err(e) => {
                        eprintln!("perfbench-tracer: {req}: {e}");
                        false
                    }
                }
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
    }
    Ok(out)
}

fn run_request(
    line: &str,
    id: u64,
    store: &ResultStore,
    registry: &SchemeRegistry,
    tr: &Tracer,
) -> Result<String, String> {
    let exp = tr.span("spec.load_validate", id, || {
        let request: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let Value::Obj(request) = request else {
            return Err("request is not an object".to_string());
        };
        let spec = request.get("spec").ok_or("request has no spec")?;
        let exp = ExperimentSpec::from_value(spec).map_err(|e| e.to_string())?;
        exp.validate_in(registry).map_err(|e| e.to_string())?;
        Ok(exp)
    })?;
    let Workload::Sweep(w) = &exp.workload else {
        return Err("serve replay covers sweep specs".to_string());
    };
    let (spec, cells) = tr.span("spec.expand", id, || {
        let spec = exp.to_sweep_spec().expect("sweep workload lowers");
        let cells = spec.expand();
        (spec, cells)
    });
    let policy = exp.policy.as_ref().filter(|_| exp.needs_policy());
    let agent = match policy {
        Some(p) => Some(
            tr.span("core.policy_load", id, || agent_from_policy(p))
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let identity = match (policy, &agent) {
        (Some(p), Some(agent)) => Some(PolicyIdentity {
            digest: tr.span("cache.policy_digest", id, || policy_digest(agent)),
            preference: p.preference.label(),
            initial_rate_frac: p.initial_rate_frac,
            fast_math: p.fast_math,
        }),
        _ => None,
    };
    let keys: Vec<String> = cells
        .iter()
        .map(|c| {
            tr.span("cache.key", c.index, || {
                sweep_cell_key(c, w.scheme.label(), &spec, identity.as_ref())
            })
        })
        .collect();

    let mut reports: Vec<Option<CellReport>> = vec![None; cells.len()];
    let mut missing = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let blob = tr.timed(
            id,
            || store.get(key, TS),
            |b| match b {
                Some(_) => "store.get_hit",
                None => "store.get_miss",
            },
        );
        tr.count("store.gets", 1);
        let verified = blob.and_then(|blob| {
            tr.span("report.decode", id, || {
                let report: CellReport = serde_json::from_str(&blob).ok()?;
                let canonical = serde_json::to_string(&report).expect("report serializes");
                (canonical == blob && report.index == cells[i].index).then_some(report)
            })
        });
        match verified {
            Some(r) => {
                tr.count("store.hits", 1);
                reports[i] = Some(r);
            }
            None => missing.push(i),
        }
    }
    let (hits, misses) = ((cells.len() - missing.len()) as u64, missing.len() as u64);
    let miss_cells: Vec<SweepCell> = missing.iter().map(|&i| cells[i].clone()).collect();
    let computed: Vec<CellReport> = match (policy, &agent) {
        (Some(p), Some(agent)) => {
            let ev = policy_evaluator(&exp, agent, p);
            miss_cells
                .chunks(p.batch.max(1))
                .flat_map(|chunk| {
                    tr.span("policy.eval_batch", chunk[0].index, || {
                        CellEvaluator::eval_batch(&ev, chunk)
                    })
                })
                .collect()
        }
        _ => {
            let timed = TimedCells {
                registry,
                scheme: &w.scheme,
                tr,
                parent: None,
            };
            miss_cells.iter().map(|c| timed.cell(c)).collect()
        }
    };
    for (&slot, report) in missing.iter().zip(computed) {
        let blob = serde_json::to_string(&report).expect("report serializes");
        tr.span("store.put", id, || store.put(&keys[slot], &blob, TS))
            .map_err(|e| e.to_string())?;
        reports[slot] = Some(report);
    }
    let reports: Vec<CellReport> = reports
        .into_iter()
        .map(|r| r.expect("every cell resolved"))
        .collect();
    let report = tr.span("report.serialize", id, || {
        SweepReport::new(&exp.name, spec.seed, spec.duration_s, reports).to_canonical_json()
    });
    tr.count("report.bytes", report.len() as u64);
    Ok(tr.span("serve.respond", id, || {
        let report: Value = serde_json::from_str(&report).expect("canonical report parses");
        let mut obj = BTreeMap::new();
        obj.insert("hits".to_string(), Value::U64(hits));
        obj.insert("misses".to_string(), Value::U64(misses));
        obj.insert("ok".to_string(), Value::Bool(true));
        obj.insert("report".to_string(), report);
        serde_json::to_string(&Value::Obj(obj)).expect("response serializes")
    }))
}

/// `mocc_store::sha256_hex` throughput over the snapshot's own blobs,
/// in MB/s, over at least 50 ms of hashing.
pub fn sha256_mb_per_s(snapshot: &Path) -> Result<f64, String> {
    let mut blobs = Vec::new();
    collect_files(&snapshot.join("objects"), &mut blobs).map_err(|e| e.to_string())?;
    let data: Vec<Vec<u8>> = blobs
        .iter()
        .map(std::fs::read)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    if data.is_empty() {
        return Err("empty snapshot".to_string());
    }
    let sw = mocc_bench::timing::Stopwatch::start();
    let mut bytes = 0usize;
    while sw.elapsed_secs() < 0.05 {
        for d in &data {
            std::hint::black_box(mocc_store::sha256_hex(std::hint::black_box(d)));
            bytes += d.len();
        }
    }
    Ok(bytes as f64 / 1e6 / sw.elapsed_secs())
}

pub fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_files(&p, out)?;
        } else {
            out.push(p);
        }
    }
    Ok(())
}

/// Copies a store directory tree (the snapshot) to `dst`.
pub fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    let mut entries: Vec<_> = std::fs::read_dir(src)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for p in entries {
        let to = dst.join(p.file_name().expect("directory entry has a name"));
        if p.is_dir() {
            copy_tree(&p, &to)?;
        } else {
            std::fs::copy(&p, &to)?;
        }
    }
    Ok(())
}
