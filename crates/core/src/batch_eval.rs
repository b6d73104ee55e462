//! Batched MOCC policy evaluation across sweep cells.
//!
//! [`BatchMoccEvaluator`] implements [`mocc_eval::CellEvaluator`] by
//! stepping a whole chunk of simulators in lockstep: each simulator
//! runs in external-agent mode and pauses at its flow's monitor
//! intervals; the paused cells' observations are stacked into one
//! matrix and a single batched forward pass
//! ([`GaussianPolicy::mean_action_batch`]) produces every cell's next
//! rate. One matmul serves many cells, so the per-interval inference
//! cost is amortized `B`-fold while each cell's trajectory stays
//! bitwise identical to a batch of one — the batched forward is pinned
//! (by property test) to equal the scalar path bit for bit, and each
//! simulator only ever consumes its own decisions.
//!
//! The same evaluator also implements
//! [`mocc_eval::CompetitionEvaluator`]: in competition cells every
//! `mocc`/`mocc:<pref>`-labelled flow runs in external-agent mode, so
//! several preference-conditioned MOCC flows can *compete* on one
//! bottleneck while the chunk's monitor-interval decisions are still
//! served from batched forward passes. Both kinds run one lockstep
//! loop: a sweep cell is simply a lineup whose flow 0 is
//! policy-driven.

use crate::agent::MoccAgent;
use crate::config::MoccConfig;
use crate::controller::Controller;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_eval::{
    competition_report, contender_by_name, CellEvaluator, CellReport, CompetitionCell,
    CompetitionEvaluator, MoccPrefSpec, SchemeKind, SchemeSpec, SpecError, SweepCell,
};
use mocc_netsim::cc::{CongestionControl, ExternalRate, FixedRate};
use mocc_netsim::{Scenario, SimResult, Simulator};
use mocc_nn::{ForwardTier, Matrix};
use mocc_rl::{GaussianPolicy, PolicyScratch};

/// Evaluates sweep cells under a trained MOCC policy with batched
/// inference. The policy drives flow 0 of every cell; any remaining
/// flows are cross traffic paced by [`FixedRate`] at the cell's peak
/// bandwidth (their application pattern, e.g. on/off, still limits
/// what they offer).
pub struct BatchMoccEvaluator {
    policy: GaussianPolicy<PrefNet>,
    cfg: MoccConfig,
    pref: Preference,
    initial_rate_frac: f64,
    batch: usize,
    tier: ForwardTier,
}

impl BatchMoccEvaluator {
    /// Wraps a trained agent for preference `pref`; flow 0 of each cell
    /// starts at `initial_rate_frac` of the cell's peak bandwidth.
    pub fn new(agent: &MoccAgent, pref: Preference, initial_rate_frac: f64) -> Self {
        BatchMoccEvaluator {
            policy: agent.ppo.policy.clone(),
            cfg: agent.cfg,
            pref,
            initial_rate_frac,
            batch: 32,
            tier: ForwardTier::Scalar,
        }
    }

    /// Overrides the number of cells evaluated per batch (≥ 1).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Selects the approximate fast-math forward tier
    /// (`mocc_nn::simd`) for this evaluator's inference. Off (the
    /// bit-exact scalar reference) by default; unlike `--threads` and
    /// `--batch` this knob *does* change report bytes, so callers must
    /// carry it in the cache-key policy identity.
    pub fn with_fast_math(mut self, enabled: bool) -> Self {
        self.tier = if enabled {
            ForwardTier::Fast
        } else {
            ForwardTier::Scalar
        };
        self
    }

    /// Resolves a competition contender label through the shared
    /// scheme grammar: `Ok(Some(pref))` for `mocc` / `mocc:<pref>`
    /// labels (bare `mocc` uses the evaluator's default preference),
    /// `Ok(None)` for registry labels, and a typed [`SpecError`] for
    /// malformed labels — a typo'd preference can neither silently
    /// fall through to the baseline registry nor panic mid-run when
    /// the spec was validated up front.
    fn mocc_pref(&self, label: &str) -> Result<Option<Preference>, SpecError> {
        let spec = SchemeSpec::parse(label)?;
        Ok(match spec.kind() {
            SchemeKind::MoccDefault => Some(self.pref),
            SchemeKind::Mocc(p) => Some(preference_from_spec(p)),
            SchemeKind::Registry => None,
        })
    }
}

/// Maps a declarative [`MoccPrefSpec`] (the parsed `<pref>` part of a
/// `mocc:<pref>` label) onto a concrete, normalized [`Preference`].
pub fn preference_from_spec(spec: &MoccPrefSpec) -> Preference {
    match spec {
        MoccPrefSpec::Throughput => Preference::throughput(),
        MoccPrefSpec::Latency => Preference::latency(),
        MoccPrefSpec::Balanced => Preference::balanced(),
        MoccPrefSpec::Weights([t, l, s]) => Preference::new(*t as f32, *l as f32, *s as f32),
    }
}

/// A cell kind the lockstep loop runs: its scenario, which flows the
/// policy drives (and under which preference), what drives the rest,
/// and how a finished simulation reduces to a report.
trait LockstepCell {
    fn scenario(&self) -> &Scenario;

    /// The preference conditioning flow `flow`'s observation when the
    /// policy drives it; `None` for a fixed controller.
    fn policy_pref(&self, ev: &BatchMoccEvaluator, flow: usize) -> Option<Preference>;

    /// The controller of a flow the policy does not drive.
    fn fixed(&self, flow: usize) -> Box<dyn CongestionControl>;

    fn reduce(&self, res: &SimResult) -> CellReport;
}

/// A sweep cell is a lineup whose flow 0 runs the policy under the
/// evaluator's preference and whose other flows are cross traffic
/// paced by [`FixedRate`] at the cell's peak bandwidth.
impl LockstepCell for SweepCell {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn policy_pref(&self, ev: &BatchMoccEvaluator, flow: usize) -> Option<Preference> {
        (flow == 0).then_some(ev.pref)
    }

    fn fixed(&self, _flow: usize) -> Box<dyn CongestionControl> {
        Box::new(FixedRate::new(self.scenario.link.trace.max_rate()))
    }

    fn reduce(&self, res: &SimResult) -> CellReport {
        CellReport::from_sim(self, res)
    }
}

/// In a competition cell every `mocc` / `mocc:<pref>`-labelled flow
/// runs the policy — so one cell may hold *several* competing MOCC
/// flows with different preferences — and every other label is a
/// built-in baseline, as is the friendliness control.
impl LockstepCell for CompetitionCell {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn policy_pref(&self, ev: &BatchMoccEvaluator, flow: usize) -> Option<Preference> {
        ev.mocc_pref(&self.labels[flow])
            .unwrap_or_else(|e| panic!("{e} (spec not validated?)"))
    }

    fn fixed(&self, flow: usize) -> Box<dyn CongestionControl> {
        contender(&self.labels[flow])
    }

    fn reduce(&self, res: &SimResult) -> CellReport {
        competition_report(self, res, &contender)
    }
}

/// A built-in baseline by label; validated specs name no other.
fn contender(label: &str) -> Box<dyn CongestionControl> {
    contender_by_name(label).unwrap_or_else(|| {
        panic!(
            "{} (spec not validated?)",
            SpecError::UnknownScheme {
                name: label.to_string(),
                known: mocc_eval::SchemeRegistry::builtin()
                    .names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            }
        )
    })
}

/// One policy-driven flow of a running cell.
struct MoccFlow {
    flow: usize,
    ctl: Controller,
}

/// Per-cell in-flight state while a batch runs.
struct CellRun {
    index: usize,
    sim: Simulator,
    /// `controlled[f]` marks flow `f` as policy-driven.
    controlled: Vec<bool>,
    mocc: Vec<MoccFlow>,
    /// The flow whose monitor interval paused the simulator this round.
    paused: usize,
}

impl CellRun {
    /// The controller of the flow that paused the simulator.
    fn paused_ctl(&self) -> &Controller {
        &self
            .mocc
            .iter()
            .find(|m| m.flow == self.paused)
            .expect("paused flow is controlled")
            .ctl
    }
}

impl BatchMoccEvaluator {
    /// The one lockstep loop behind both evaluator impls: launches one
    /// external-agent simulator per cell, then in each round advances
    /// every live cell to the next monitor interval of *any* of its
    /// policy-driven flows, stacks one observation per paused cell
    /// (conditioned on that flow's preference and history), forwards
    /// once, and applies each decision to the flow that asked for it.
    /// Each cell's decision sequence depends only on its own event
    /// order, so reports stay byte-identical across batch sizes and
    /// worker counts.
    fn eval_lockstep<C: LockstepCell>(&self, cells: &[C]) -> Vec<CellReport> {
        let obs_dim = self.cfg.obs_dim();
        let mut scratch = PolicyScratch::default();
        let mut obs = Matrix::default();
        let mut means: Vec<f32> = Vec::with_capacity(cells.len());
        let mut reports: Vec<Option<CellReport>> = (0..cells.len()).map(|_| None).collect();

        let mut runs: Vec<CellRun> = cells
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let scenario = cell.scenario();
                let peak = scenario.link.trace.max_rate();
                let mut controlled = vec![false; scenario.flows.len()];
                let mut mocc = Vec::new();
                let ccs: Vec<Box<dyn CongestionControl>> = (0..scenario.flows.len())
                    .map(|flow| -> Box<dyn CongestionControl> {
                        let Some(pref) = cell.policy_pref(self, flow) else {
                            return cell.fixed(flow);
                        };
                        controlled[flow] = true;
                        mocc.push(MoccFlow {
                            flow,
                            ctl: Controller::new(self.cfg, Some(pref)),
                        });
                        Box::new(ExternalRate {
                            initial_rate_bps: self.initial_rate_frac * peak,
                        })
                    })
                    .collect();
                CellRun {
                    index,
                    sim: Simulator::new(scenario.clone(), ccs),
                    controlled,
                    mocc,
                    paused: 0,
                }
            })
            .collect();

        while !runs.is_empty() {
            let mut i = 0;
            while i < runs.len() {
                let cell = &cells[runs[i].index];
                let finished = loop {
                    let run = &mut runs[i];
                    let CellRun {
                        sim, controlled, ..
                    } = run;
                    match sim.advance_until_monitor_where(|f| controlled[f]) {
                        Some((f, stats)) => {
                            // A departed flow's monitor intervals keep
                            // firing until the horizon; steering it
                            // would be a no-op (it never sends again),
                            // so its pauses are drained here instead
                            // of spending batched inference on them.
                            let departed = cell.scenario().flows[f]
                                .stop
                                .is_some_and(|stop| sim.now() >= stop);
                            if departed {
                                continue;
                            }
                            let mf = run
                                .mocc
                                .iter_mut()
                                .find(|m| m.flow == f)
                                .expect("paused flow is controlled");
                            mf.ctl.observe(&stats);
                            run.paused = f;
                            break false;
                        }
                        None => break true,
                    }
                };
                if finished {
                    // Horizon reached: reduce to metrics and drop out
                    // of the batch.
                    let run = runs.swap_remove(i);
                    reports[run.index] = Some(cell.reduce(&run.sim.result()));
                } else {
                    i += 1;
                }
            }
            if runs.is_empty() {
                break;
            }
            obs.reshape(runs.len(), obs_dim);
            for (r, run) in runs.iter().enumerate() {
                run.paused_ctl().write_obs(obs.row_mut(r));
            }
            self.policy
                .mean_action_batch_tier(&obs, &mut means, &mut scratch, self.tier);
            for (run, &mean) in runs.iter_mut().zip(&means) {
                let next = run.paused_ctl().next_rate(run.sim.rate(run.paused), mean);
                run.sim.set_rate(run.paused, next);
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every cell produced a report"))
            .collect()
    }
}

impl CellEvaluator for BatchMoccEvaluator {
    fn batch_size(&self) -> usize {
        self.batch
    }

    fn eval_batch(&self, cells: &[SweepCell]) -> Vec<CellReport> {
        self.eval_lockstep(cells)
    }
}

impl CompetitionEvaluator for BatchMoccEvaluator {
    fn batch_size(&self) -> usize {
        self.batch
    }

    fn eval_batch(&self, cells: &[CompetitionCell]) -> Vec<CellReport> {
        self.eval_lockstep(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocc_eval::{FlowLoad, SweepRunner, SweepSpec, TraceShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> SweepSpec {
        SweepSpec {
            bandwidth_mbps: vec![4.0, 8.0],
            owd_ms: vec![10, 30],
            queue_pkts: vec![100],
            loss: vec![0.0, 0.01],
            shapes: vec![TraceShape::Constant],
            loads: vec![FlowLoad::Steady(1), FlowLoad::OnOffCross(1)],
            duration_s: 3,
            mss_bytes: 1500,
            seed: 5,
            agent_mi: true,
        }
    }

    fn evaluator() -> BatchMoccEvaluator {
        let mut rng = StdRng::seed_from_u64(11);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        BatchMoccEvaluator::new(&agent, Preference::throughput(), 0.3)
    }

    /// The core determinism contract: the report is byte-identical
    /// whether cells are evaluated one at a time or 32 at a time, on
    /// one worker or several — batching is pure amortization.
    #[test]
    fn batch_size_cannot_change_the_report() {
        let spec = spec();
        let runner1 = SweepRunner::with_threads(1);
        let runner4 = SweepRunner::with_threads(4);
        let single = runner1.run_cells(&spec, "mocc-batched", &evaluator().with_batch_size(1));
        let batched = runner4.run_cells(&spec, "mocc-batched", &evaluator().with_batch_size(32));
        assert_eq!(single.to_canonical_json(), batched.to_canonical_json());
        assert_eq!(single.cells.len(), spec.cell_count());
        assert!(single.cells.iter().all(|c| c.goodput_mbps > 0.0));
    }

    /// The policy must actually be driving: the controlled flow's rate
    /// departs from its initial value.
    #[test]
    fn policy_controls_the_rate() {
        let cells = spec().expand();
        let reports = CellEvaluator::eval_batch(&evaluator(), &cells[..2]);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.goodput_mbps > 0.0, "{r:?}");
            assert!(r.utilization > 0.0, "{r:?}");
        }
    }

    fn competition_spec() -> mocc_eval::CompetitionSpec {
        use mocc_eval::{CompetitionSpec, ContenderMix};
        CompetitionSpec {
            mixes: vec![
                ContenderMix::duel("mocc:thr", "mocc:lat"),
                ContenderMix::duel("mocc:bal", "cubic"),
                ContenderMix::staircase("mocc:bal", 2, 1.0),
            ],
            bandwidth_mbps: vec![8.0],
            owd_ms: vec![10, 30],
            duration_s: 4,
            seed: 5,
            ..CompetitionSpec::quick()
        }
    }

    /// The competition determinism contract (acceptance criterion):
    /// the report is byte-identical whether competing-MOCC cells are
    /// evaluated one at a time on one worker or 8 at a time on four.
    #[test]
    fn competition_batch_size_cannot_change_the_report() {
        let spec = competition_spec();
        let single = SweepRunner::with_threads(1).run_competition_cells(
            &spec,
            "mocc-competition",
            &evaluator().with_batch_size(1),
        );
        let batched = SweepRunner::with_threads(4).run_competition_cells(
            &spec,
            "mocc-competition",
            &evaluator().with_batch_size(8),
        );
        assert_eq!(single.to_canonical_json(), batched.to_canonical_json());
        assert_eq!(single.cells.len(), spec.cell_count());
        assert!(single.cells.iter().all(|c| c.goodput_mbps > 0.0));
    }

    /// Mixed-preference MOCC pairs: both policy-driven flows move real
    /// traffic (neither starves outright at this horizon) and the
    /// competition metrics come out finite where defined.
    #[test]
    fn competing_mocc_flows_are_both_driven() {
        let cells = competition_spec().expand();
        let reports = CompetitionEvaluator::eval_batch(&evaluator(), &cells);
        for r in &reports {
            assert!(r.goodput_mbps > 0.0, "{r:?}");
            assert!(r.jain > 0.0 && r.jain <= 1.0, "{r:?}");
            if let Some(f) = r.friendliness {
                assert!(f.is_finite() && f >= 0.0, "{r:?}");
            }
        }
    }

    #[test]
    fn mocc_labels_parse_and_reject() {
        let ev = evaluator();
        assert_eq!(ev.mocc_pref("cubic").unwrap(), None);
        assert_eq!(
            ev.mocc_pref("mocc").unwrap(),
            Some(Preference::throughput())
        );
        assert_eq!(
            ev.mocc_pref("mocc:lat").unwrap(),
            Some(Preference::latency())
        );
        let w = ev.mocc_pref("mocc:0.5,0.3,0.2").unwrap().unwrap();
        assert!((w.thr - 0.5).abs() < 1e-6);
    }

    /// A typo'd preference is a typed error — it neither panics nor
    /// silently falls through to the baseline registry.
    #[test]
    fn malformed_mocc_label_is_a_typed_error() {
        match evaluator().mocc_pref("mocc:fast") {
            Err(SpecError::MalformedMoccPref { label, .. }) => assert_eq!(label, "mocc:fast"),
            other => panic!("expected MalformedMoccPref, got {other:?}"),
        }
    }
}
