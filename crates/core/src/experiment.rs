//! The policy-aware experiment runner: every `ExperimentSpec` — MOCC
//! or not, cached or not — end to end.
//!
//! `mocc-eval`'s [`SweepRunner::run_in`] executes any spec whose
//! schemes the registry can instantiate, but `mocc` / `mocc:<pref>`
//! labels need a *policy*. [`run_experiment_in`] closes that gap: it
//! validates the spec, materializes the agent its [`PolicySpec`]
//! describes (a saved model file or a seeded fresh agent — both
//! reproducible), wraps it in the batched [`BatchMoccEvaluator`], and
//! hands both to that one entry point. Specs without `mocc` schemes
//! pass straight through, so this is the one entry point a CLI needs.

use crate::agent::MoccAgent;
use crate::batch_eval::{preference_from_spec, BatchMoccEvaluator};
use crate::config::MoccConfig;
use mocc_eval::{
    CacheStats, ExperimentSpec, PolicyIdentity, PolicySpec, SchemeKind, SchemeRegistry, SchemeSpec,
    SpecError, SweepReport, SweepRunner, Workload,
};
use mocc_store::ResultStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Materializes the agent a [`PolicySpec`] describes: loaded from
/// `path` when set, otherwise freshly initialized from `seed` under
/// the named config preset. Both forms are deterministic, so a spec
/// file pins the exact policy bits an experiment ran with.
pub fn agent_from_policy(policy: &PolicySpec) -> Result<MoccAgent, SpecError> {
    PolicySource::of(policy)?.build(policy)
}

/// What a materialized policy is remembered by: its content, never
/// its name. A model file is keyed on its exact text, re-read on every
/// request, so a model rewritten on disk is re-parsed and re-digested.
#[derive(PartialEq)]
enum PolicySource {
    /// A freshly initialized agent under the `fast` (or `default`)
    /// config preset.
    Seeded { fast: bool, seed: u64 },
    /// A saved agent file's text.
    File(String),
}

impl PolicySource {
    fn of(policy: &PolicySpec) -> Result<Self, SpecError> {
        if let Some(path) = &policy.path {
            return std::fs::read_to_string(path)
                .map(PolicySource::File)
                .map_err(|e| load_error(path, e));
        }
        let seed = policy.seed;
        match policy.config.as_str() {
            "fast" => Ok(PolicySource::Seeded { fast: true, seed }),
            "default" => Ok(PolicySource::Seeded { fast: false, seed }),
            other => Err(SpecError::InvalidSpec {
                reason: format!("policy.config {other:?} must be \"fast\" or \"default\""),
            }),
        }
    }

    fn build(&self, policy: &PolicySpec) -> Result<MoccAgent, SpecError> {
        match self {
            PolicySource::File(text) => MoccAgent::from_json(text).map_err(|e| {
                let path = policy.path.as_deref().unwrap_or_default();
                load_error(path, e)
            }),
            PolicySource::Seeded { fast, seed } => {
                let cfg = if *fast {
                    MoccConfig::fast()
                } else {
                    MoccConfig::default()
                };
                Ok(MoccAgent::new(cfg, &mut StdRng::seed_from_u64(*seed)))
            }
        }
    }
}

/// The error [`MoccAgent::load`] failures surface as.
fn load_error(path: &str, e: impl std::fmt::Display) -> SpecError {
    SpecError::Io {
        path: path.to_string(),
        reason: e.to_string(),
    }
}

/// A materialized agent and its [`policy_digest`], computed on first
/// use (uncached runs never need it).
struct Materialized {
    agent: MoccAgent,
    digest: OnceLock<String>,
}

impl Materialized {
    fn digest(&self) -> &str {
        self.digest.get_or_init(|| policy_digest(&self.agent))
    }
}

/// The policy this process materialized last, so a long-running caller
/// (`mocc serve`) whose requests share one policy pays for parsing and
/// digesting it once per content rather than once per request. A
/// request for any other content replaces it.
static MEMO: Mutex<Option<(PolicySource, Arc<Materialized>)>> = Mutex::new(None);

/// [`agent_from_policy`] through the process-wide memo.
fn materialize(policy: &PolicySpec) -> Result<Arc<Materialized>, SpecError> {
    let source = PolicySource::of(policy)?;
    // Every update replaces the slot whole, so a panic elsewhere while
    // it was locked (the daemon survives panics per request) must not
    // disable the memo for the rest of the process.
    let memo = || MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((held, agent)) = &*memo() {
        if *held == source {
            return Ok(Arc::clone(agent));
        }
    }
    let fresh = Arc::new(Materialized {
        agent: source.build(policy)?,
        digest: OnceLock::new(),
    });
    *memo() = Some((source, Arc::clone(&fresh)));
    Ok(fresh)
}

/// Runs any [`ExperimentSpec`] — the complete entry point behind the
/// `mocc` CLI. Baseline-only specs run on the built-in registry;
/// specs with `mocc` schemes are served by the batched inference
/// path, reproducibly materialized from the spec's policy section.
/// The report carries the experiment's name as its controller label
/// and inherits the runner's byte-identity contract (any thread
/// count, any batch size).
pub fn run_experiment(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
) -> Result<SweepReport, SpecError> {
    run_experiment_in(runner, exp, &SchemeRegistry::builtin(), None).map(|(report, _)| report)
}

/// The memoizing counterpart of [`run_experiment`]: serves every cell
/// it can from `store` and simulates only the misses, with the merged
/// report byte-identical to an uncached run. `ts` is the caller's
/// ledger timestamp — libraries never read a clock.
pub fn run_experiment_cached(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
    store: &ResultStore,
    ts: u64,
) -> Result<(SweepReport, CacheStats), SpecError> {
    run_experiment_in(runner, exp, &SchemeRegistry::builtin(), Some((store, ts)))
}

/// [`run_experiment`] against a custom (pluggable) registry, cached
/// in `store` at ledger timestamp `ts` when `cache` is given
/// (uncached runs report zero hits and misses).
///
/// The evaluator's default preference — served to bare `mocc` labels
/// and to every competition flow without its own — is
/// `policy.preference`, except that a sweep under `mocc:<pref>` runs
/// its explicit preference. Cached `mocc` cells are keyed by the
/// agent's [`policy_digest`], so a retrained or edited model can never
/// be served another model's cells.
///
/// One restriction: in a competition that mixes `mocc` flows with
/// registry schemes, the non-MOCC contenders (and the `tcp_baseline`)
/// must be *built-in* schemes — the batched evaluator resolves them
/// through the built-in vocabulary. Custom schemes compete freely in
/// policy-free experiments.
pub fn run_experiment_in(
    runner: &SweepRunner,
    exp: &ExperimentSpec,
    registry: &SchemeRegistry,
    cache: Option<(&ResultStore, u64)>,
) -> Result<(SweepReport, CacheStats), SpecError> {
    exp.validate_in(registry)?;
    let Some(policy) = exp.policy.as_ref().filter(|_| exp.needs_policy()) else {
        return runner.run_in(exp, registry, None, cache);
    };
    let pref = match &exp.workload {
        Workload::Sweep(w) => match w.scheme.kind() {
            SchemeKind::Mocc(p) => p,
            SchemeKind::MoccDefault => &policy.preference,
            SchemeKind::Registry => unreachable!("needs_policy implies a mocc scheme"),
        },
        Workload::Competition(_) => {
            check_builtin_contenders(exp)?;
            &policy.preference
        }
    };
    let policy_agent = materialize(policy)?;
    let evaluator = BatchMoccEvaluator::new(
        &policy_agent.agent,
        preference_from_spec(pref),
        policy.initial_rate_frac,
    )
    .with_batch_size(policy.batch)
    .with_fast_math(policy.fast_math);
    let identity = || PolicyIdentity {
        digest: policy_agent.digest().to_string(),
        preference: policy.preference.label(),
        initial_rate_frac: policy.initial_rate_frac,
        fast_math: policy.fast_math,
    };
    runner.run_in(exp, registry, Some((&evaluator, &identity)), cache)
}

/// Competitions mixing `mocc` flows with registry schemes resolve the
/// non-MOCC contenders (and the `tcp_baseline`) through the built-in
/// vocabulary only — the batched evaluator has no custom registry.
fn check_builtin_contenders(exp: &ExperimentSpec) -> Result<(), SpecError> {
    let builtin = SchemeRegistry::builtin();
    for label in exp.scheme_labels() {
        let spec = SchemeSpec::parse(&label)?;
        if !spec.is_mocc() && builtin.resolve(&spec).is_err() {
            return Err(SpecError::InvalidSpec {
                reason: format!(
                    "scheme {label:?} is registry-custom; competitions with \
                     `mocc` flows resolve non-MOCC contenders through the \
                     built-in vocabulary only"
                ),
            });
        }
    }
    Ok(())
}

/// The SHA-256 hex digest of an agent's canonical JSON artifact — the
/// **policy identity** inside every cache key its cells are stored
/// under. Serialization is canonical (sorted keys, shortest
/// round-trip floats), so the digest is stable across machines and
/// identical for a freshly seeded agent and the same agent reloaded
/// from disk.
pub fn policy_digest(agent: &MoccAgent) -> String {
    mocc_store::sha256_hex(agent.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preference;
    use mocc_eval::{CompetitionSpec, ContenderMix, SweepSpec};

    fn policy() -> PolicySpec {
        PolicySpec {
            seed: 11,
            config: "fast".to_string(),
            ..PolicySpec::default()
        }
    }

    fn small_sweep() -> SweepSpec {
        SweepSpec {
            bandwidth_mbps: vec![6.0],
            owd_ms: vec![10, 30],
            queue_pkts: vec![100],
            duration_s: 3,
            seed: 5,
            agent_mi: true,
            ..SweepSpec::single_cell()
        }
    }

    /// A mocc sweep experiment from a pure spec document equals the
    /// hand-wired BatchMoccEvaluator path byte for byte — the policy
    /// section pins the same agent the code would build.
    #[test]
    fn spec_driven_mocc_sweep_matches_hand_wired_evaluator() {
        let matrix = small_sweep();
        let mut exp =
            ExperimentSpec::from_sweep("mocc-thr", SchemeSpec::parse("mocc:thr").unwrap(), &matrix);
        exp.policy = Some(policy());
        let runner = SweepRunner::with_threads(2);
        let via_spec = run_experiment(&runner, &exp).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let evaluator = BatchMoccEvaluator::new(&agent, Preference::throughput(), 0.3);
        let via_code = runner.run_cells(&matrix, "mocc-thr", &evaluator);
        assert_eq!(via_spec.to_canonical_json(), via_code.to_canonical_json());
    }

    /// A mocc competition experiment from a pure spec document equals
    /// the hand-wired competition evaluator path byte for byte.
    #[test]
    fn spec_driven_mocc_competition_matches_hand_wired_evaluator() {
        let matrix = CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("mocc:thr", "mocc:lat"),
                ContenderMix::duel("mocc:bal", "cubic"),
            ],
            bandwidth_mbps: vec![8.0],
            owd_ms: vec![10],
            duration_s: 4,
            seed: 5,
            ..CompetitionSpec::quick()
        };
        let mut exp = ExperimentSpec::from_competition("mocc-competition", &matrix);
        exp.policy = Some(PolicySpec {
            batch: 8,
            ..policy()
        });
        let runner = SweepRunner::with_threads(2);
        let via_spec = run_experiment(&runner, &exp).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let evaluator =
            BatchMoccEvaluator::new(&agent, Preference::balanced(), 0.3).with_batch_size(8);
        let via_code = runner.run_competition_cells(&matrix, "mocc-competition", &evaluator);
        assert_eq!(via_spec.to_canonical_json(), via_code.to_canonical_json());
    }

    /// Baseline-only specs delegate to the eval-side runner, and the
    /// full spec→JSON→spec→report loop is lossless.
    #[test]
    fn baseline_specs_delegate_and_round_trip() {
        let exp = ExperimentSpec::from_sweep(
            "cubic",
            SchemeSpec::parse("cubic").unwrap(),
            &small_sweep(),
        );
        let runner = SweepRunner::with_threads(2);
        let direct = runner.run(&exp).unwrap();
        let via_core = run_experiment(&runner, &exp).unwrap();
        let via_json = run_experiment(
            &runner,
            &ExperimentSpec::from_json(&exp.to_canonical_json()).unwrap(),
        )
        .unwrap();
        assert_eq!(direct.to_canonical_json(), via_core.to_canonical_json());
        assert_eq!(direct.to_canonical_json(), via_json.to_canonical_json());
    }

    #[test]
    fn policy_errors_are_typed() {
        // Unreadable path.
        let bad = PolicySpec {
            path: Some("/nonexistent/agent.json".to_string()),
            ..policy()
        };
        assert!(matches!(agent_from_policy(&bad), Err(SpecError::Io { .. })));
        // Missing policy section on a mocc spec fails validation.
        let exp =
            ExperimentSpec::from_sweep("mocc", SchemeSpec::parse("mocc").unwrap(), &small_sweep());
        assert!(matches!(
            run_experiment(&SweepRunner::with_threads(1), &exp),
            Err(SpecError::InvalidSpec { .. })
        ));
    }

    /// The memo hands out the same identity a fresh materialization
    /// would, keys files on their bytes (a rewritten model is a new
    /// policy), and fails exactly as [`MoccAgent::load`] does.
    #[test]
    fn memoized_policies_match_fresh_materialization() {
        let dir = std::env::temp_dir().join(format!("mocc-memo-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.json");
        let file_policy = PolicySpec {
            path: Some(path.display().to_string()),
            ..policy()
        };
        let seeded = |seed| MoccAgent::new(MoccConfig::fast(), &mut StdRng::seed_from_u64(seed));
        let fresh_digest = |p: &PolicySpec| policy_digest(&agent_from_policy(p).unwrap());
        for seed in [3, 4] {
            seeded(seed).save(&path).unwrap();
            for p in [&file_policy, &policy()] {
                assert_eq!(materialize(p).unwrap().digest(), fresh_digest(p));
                assert_eq!(materialize(p).unwrap().digest(), fresh_digest(p));
            }
            assert_eq!(
                materialize(&file_policy).unwrap().digest(),
                policy_digest(&seeded(seed)),
                "a rewritten model file is a new policy"
            );
        }

        let load_error = |p: &PolicySpec| {
            let path = p.path.clone().unwrap();
            let reason = MoccAgent::load(std::path::Path::new(&path))
                .err()
                .unwrap()
                .to_string();
            SpecError::Io { path, reason }.to_string()
        };
        let missing = PolicySpec {
            path: Some(dir.join("missing.json").display().to_string()),
            ..policy()
        };
        std::fs::write(&path, "{\"cfg\": garbled").unwrap();
        for p in [&missing, &file_policy] {
            let want = load_error(p);
            assert_eq!(agent_from_policy(p).err().unwrap().to_string(), want);
            assert_eq!(materialize(p).err().unwrap().to_string(), want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A saved agent file loaded through `policy.path` reproduces the
    /// in-memory agent's decisions exactly.
    #[test]
    fn policy_path_loads_saved_agents() {
        let dir = std::env::temp_dir().join("mocc-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.json");
        let mut rng = StdRng::seed_from_u64(3);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        agent.save(&path).unwrap();

        let matrix = small_sweep();
        let mut exp = ExperimentSpec::from_sweep(
            "mocc-file",
            SchemeSpec::parse("mocc:bal").unwrap(),
            &matrix,
        );
        exp.policy = Some(PolicySpec {
            path: Some(path.display().to_string()),
            ..policy()
        });
        let runner = SweepRunner::with_threads(1);
        let via_file = run_experiment(&runner, &exp).unwrap();
        let evaluator = BatchMoccEvaluator::new(&agent, Preference::balanced(), 0.3);
        let via_mem = runner.run_cells(&matrix, "mocc-file", &evaluator);
        assert_eq!(via_file.to_canonical_json(), via_mem.to_canonical_json());
        std::fs::remove_file(&path).ok();
    }
}
