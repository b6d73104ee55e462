//! Replays `mocc run` in-process: spec load and validation, expansion,
//! policy materialization, the sharded runner and report
//! serialization, with spans around each crate's public calls.

use crate::spans::Tracer;
use mocc_core::{agent_from_policy, preference_from_spec, stats_features, write_obs};
use mocc_core::{BatchMoccEvaluator, MoccAgent, Preference};
use mocc_eval::{
    contender_by_name, CellEvaluator, CellReport, CompetitionCell, CompetitionEvaluator,
    ExperimentSpec, PolicySpec, SchemeCtx, SchemeKind, SchemeRegistry, SchemeSpec, SweepCell,
    SweepReport, SweepRunner, Workload,
};
use mocc_netsim::cc::{CongestionControl, ExternalRate, FixedRate};
use mocc_netsim::{Processed, Simulator};
use mocc_nn::{ForwardTier, Matrix};
use mocc_rl::PolicyScratch;
use std::collections::VecDeque;
use std::path::Path;

/// Runs registry-scheme cells one at a time, timing the simulator
/// (`netsim.cell`, events counted) apart from the reduction to a
/// report (`report.reduce`) -- the same calls `mocc_eval::run_cell`
/// makes.
pub struct TimedCells<'a> {
    pub registry: &'a SchemeRegistry,
    pub scheme: &'a SchemeSpec,
    pub tr: &'a Tracer,
    pub parent: Option<usize>,
}

impl TimedCells<'_> {
    pub fn cell(&self, cell: &SweepCell) -> CellReport {
        let ctx = SchemeCtx {
            peak_rate_bps: cell.scenario.link.trace.max_rate(),
        };
        let ccs: Vec<Box<dyn CongestionControl>> = (0..cell.scenario.flows.len())
            .map(|_| {
                self.registry
                    .instantiate(self.scheme, &ctx)
                    .expect("validated registry scheme")
            })
            .collect();
        let res = self.tr.span("netsim.cell", cell.index, || {
            let mut sim = Simulator::new(cell.scenario.clone(), ccs);
            let mut events = 0u64;
            while sim.process_next().is_some() {
                events += 1;
            }
            self.tr.count("netsim.events", events);
            sim.result()
        });
        self.tr.span("report.reduce", cell.index, || {
            CellReport::from_sim(cell, &res)
        })
    }
}

impl CellEvaluator for TimedCells<'_> {
    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        self.tr.under(self.parent, || {
            cells
                .iter()
                .map(|c| self.tr.span("runner.chunk", c.index, || self.cell(c)))
                .collect()
        })
    }
}

/// Times each chunk the runner hands the policy evaluator.
pub struct TimedPolicy<'a> {
    pub inner: &'a BatchMoccEvaluator,
    pub tr: &'a Tracer,
    pub parent: Option<usize>,
}

impl CellEvaluator for TimedPolicy<'_> {
    fn batch_size(&self) -> usize {
        CellEvaluator::batch_size(self.inner)
    }

    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        self.tr.under(self.parent, || {
            self.tr.span("policy.eval_batch", cells[0].index, || {
                CellEvaluator::eval_batch(self.inner, cells)
            })
        })
    }
}

impl CompetitionEvaluator for TimedPolicy<'_> {
    fn batch_size(&self) -> usize {
        CompetitionEvaluator::batch_size(self.inner)
    }

    fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport> {
        self.tr.under(self.parent, || {
            self.tr.span("policy.eval_batch", cells[0].index, || {
                CompetitionEvaluator::eval_batch(self.inner, cells)
            })
        })
    }
}

/// The evaluator `mocc_core::run_experiment` builds for a policy spec:
/// sweeps take the scheme's own preference, competitions the policy
/// section's default.
pub fn policy_evaluator(
    exp: &ExperimentSpec,
    agent: &MoccAgent,
    policy: &PolicySpec,
) -> BatchMoccEvaluator {
    let pref = match &exp.workload {
        Workload::Sweep(w) => match w.scheme.kind() {
            SchemeKind::Mocc(p) => preference_from_spec(p),
            _ => preference_from_spec(&policy.preference),
        },
        Workload::Competition(_) => preference_from_spec(&policy.preference),
    };
    BatchMoccEvaluator::new(agent, pref, policy.initial_rate_frac)
        .with_batch_size(policy.batch)
        .with_fast_math(policy.fast_math)
}

/// One spec through load, expansion and the runner; returns the
/// canonical report.
pub fn run_spec(path: &str, id: u64, threads: usize, tr: &Tracer) -> Result<String, String> {
    let exp = tr
        .span("spec.load_validate", id, || {
            let exp = ExperimentSpec::load(Path::new(path))?;
            exp.validate()?;
            Ok::<_, mocc_eval::SpecError>(exp)
        })
        .map_err(|e| format!("{path}: {e}"))?;
    let runner = SweepRunner::with_threads(threads);
    let agent = match &exp.policy {
        Some(policy) if exp.needs_policy() => Some(
            tr.span("core.policy_load", id, || agent_from_policy(policy))
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        _ => None,
    };
    let report: SweepReport = match &exp.workload {
        Workload::Sweep(w) => {
            let spec = tr.span("spec.expand", id, || {
                let spec = exp.to_sweep_spec().expect("sweep workload lowers");
                std::hint::black_box(spec.expand());
                spec
            });
            match (&agent, &exp.policy) {
                (Some(agent), Some(policy)) => {
                    let ev = policy_evaluator(&exp, agent, policy);
                    tr.span("runner.run", id, || {
                        let timed = TimedPolicy {
                            inner: &ev,
                            tr,
                            parent: tr.current(),
                        };
                        runner.run_cells(&spec, &exp.name, &timed)
                    })
                }
                _ => {
                    let registry = SchemeRegistry::builtin();
                    tr.span("runner.run", id, || {
                        let timed = TimedCells {
                            registry: &registry,
                            scheme: &w.scheme,
                            tr,
                            parent: tr.current(),
                        };
                        runner.run_cells(&spec, &exp.name, &timed)
                    })
                }
            }
        }
        Workload::Competition(_) => {
            let spec = tr.span("spec.expand", id, || {
                let spec = exp
                    .to_competition_spec()
                    .expect("competition workload lowers");
                std::hint::black_box(spec.expand());
                spec
            });
            match (&agent, &exp.policy) {
                (Some(agent), Some(policy)) => {
                    let ev = policy_evaluator(&exp, agent, policy);
                    tr.span("runner.run", id, || {
                        let timed = TimedPolicy {
                            inner: &ev,
                            tr,
                            parent: tr.current(),
                        };
                        runner.run_competition_cells(&spec, &exp.name, &timed)
                    })
                }
                _ => tr
                    .span("runner.run", id, || runner.run(&exp))
                    .map_err(|e| format!("{path}: {e}"))?,
            }
        }
    };
    Ok(tr.span("report.serialize", id, || report.to_canonical_json()))
}

/// Monitor-interval decisions the policy serves for one spec, and the
/// simulator events behind them: an untimed cell-by-cell replay of the
/// batched evaluator's lockstep loop (one observation row per
/// decision; a batch of one is bitwise equal to any batch).
pub fn policy_counts(path: &str) -> Result<(u64, u64), String> {
    let exp = ExperimentSpec::load(Path::new(path)).map_err(|e| e.to_string())?;
    let Some(policy) = exp.policy.as_ref().filter(|_| exp.needs_policy()) else {
        return Ok((0, 0));
    };
    let agent = agent_from_policy(policy).map_err(|e| e.to_string())?;
    let cfg = agent.cfg;
    let tier = if policy.fast_math {
        ForwardTier::Fast
    } else {
        ForwardTier::Scalar
    };
    let mut obs = Matrix::default();
    let mut means = Vec::new();
    let mut scratch = PolicyScratch::default();
    let mut decide = |pref: &Preference, history: &VecDeque<[f32; 3]>| {
        obs.reshape(1, cfg.obs_dim());
        write_obs(pref, history, obs.row_mut(0));
        agent
            .ppo
            .policy
            .mean_action_batch_tier(&obs, &mut means, &mut scratch, tier);
        means[0]
    };
    let fresh = || VecDeque::from(vec![[0.0f32; 3]; cfg.history]);
    let (mut decisions, mut events) = (0u64, 0u64);
    match &exp.workload {
        Workload::Sweep(w) => {
            let pref = match w.scheme.kind() {
                SchemeKind::Mocc(p) => preference_from_spec(p),
                _ => preference_from_spec(&policy.preference),
            };
            for cell in exp.to_sweep_spec().expect("sweep lowers").expand() {
                let peak = cell.scenario.link.trace.max_rate();
                let ccs: Vec<Box<dyn CongestionControl>> = (0..cell.scenario.flows.len())
                    .map(|flow| -> Box<dyn CongestionControl> {
                        if flow == 0 {
                            Box::new(ExternalRate {
                                initial_rate_bps: policy.initial_rate_frac * peak,
                            })
                        } else {
                            Box::new(FixedRate::new(peak))
                        }
                    })
                    .collect();
                let mut sim = Simulator::new(cell.scenario.clone(), ccs);
                let mut history = fresh();
                while let Some(p) = sim.process_next() {
                    events += 1;
                    if let Processed::Monitor(0, stats) = p {
                        history.pop_front();
                        history.push_back(stats_features(&stats));
                        let mean = decide(&pref, &history);
                        let next = cfg.apply_action(sim.rate(0), mean);
                        sim.set_rate(0, next);
                        decisions += 1;
                    }
                }
            }
        }
        Workload::Competition(_) => {
            let default = preference_from_spec(&policy.preference);
            for cell in exp
                .to_competition_spec()
                .expect("competition lowers")
                .expand()
            {
                let peak = cell.scenario.link.trace.max_rate();
                let mut prefs: Vec<Option<Preference>> = Vec::new();
                let ccs: Vec<Box<dyn CongestionControl>> = cell
                    .labels
                    .iter()
                    .map(|label| -> Box<dyn CongestionControl> {
                        let spec = SchemeSpec::parse(label).expect("validated label");
                        let pref = match spec.kind() {
                            SchemeKind::MoccDefault => Some(default),
                            SchemeKind::Mocc(p) => Some(preference_from_spec(p)),
                            SchemeKind::Registry => None,
                        };
                        prefs.push(pref);
                        match pref {
                            Some(_) => Box::new(ExternalRate {
                                initial_rate_bps: policy.initial_rate_frac * peak,
                            }),
                            None => contender_by_name(label).expect("validated contender"),
                        }
                    })
                    .collect();
                let mut histories: Vec<VecDeque<[f32; 3]>> =
                    prefs.iter().map(|_| fresh()).collect();
                let mut sim = Simulator::new(cell.scenario.clone(), ccs);
                while let Some(p) = sim.process_next() {
                    events += 1;
                    let Processed::Monitor(f, stats) = p else {
                        continue;
                    };
                    let Some(pref) = prefs[f] else { continue };
                    let departed = cell.scenario.flows[f]
                        .stop
                        .is_some_and(|stop| sim.now() >= stop);
                    if departed {
                        continue;
                    }
                    histories[f].pop_front();
                    histories[f].push_back(stats_features(&stats));
                    let mean = decide(&pref, &histories[f]);
                    let next = cfg.apply_action(sim.rate(f), mean);
                    sim.set_rate(f, next);
                    decisions += 1;
                }
            }
        }
    }
    Ok((decisions, events))
}

/// `GaussianPolicy::mean_action_batch_tier` on the spec's own network
/// at its batch size (capped by its cell count): nanoseconds per
/// observation row, over at least 20 ms of repeated calls.
pub fn forward_ns_per_row(path: &str) -> Result<Option<f64>, String> {
    let exp = ExperimentSpec::load(Path::new(path)).map_err(|e| e.to_string())?;
    let Some(policy) = exp.policy.as_ref().filter(|_| exp.needs_policy()) else {
        return Ok(None);
    };
    let agent = agent_from_policy(policy).map_err(|e| e.to_string())?;
    let rows = policy.batch.min(exp.cell_count()).max(1);
    let tier = if policy.fast_math {
        ForwardTier::Fast
    } else {
        ForwardTier::Scalar
    };
    let history = VecDeque::from(vec![[0.1f32, 0.2, 0.0]; agent.cfg.history]);
    let pref = preference_from_spec(&policy.preference);
    let mut obs = Matrix::zeros(rows, agent.cfg.obs_dim());
    for r in 0..rows {
        write_obs(&pref, &history, obs.row_mut(r));
    }
    let mut means = Vec::new();
    let mut scratch = PolicyScratch::default();
    let sw = mocc_bench::timing::Stopwatch::start();
    let mut calls = 0u64;
    while calls < 8 || sw.elapsed_secs() < 0.02 {
        agent.ppo.policy.mean_action_batch_tier(
            std::hint::black_box(&obs),
            &mut means,
            &mut scratch,
            tier,
        );
        std::hint::black_box(&means);
        calls += 1;
    }
    Ok(Some(sw.elapsed_secs() * 1e9 / (calls * rows as u64) as f64))
}
