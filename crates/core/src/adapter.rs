//! Deployment adapter: a trained policy as a [`CongestionControl`].
//!
//! This is how MOCC (and the Aurora baseline) runs *inside* multi-flow
//! simulations (fairness, friendliness, application experiments): at
//! each monitor interval the flow's [`Controller`] records the
//! statistics, the policy network infers an action from its
//! observation, and the controller applies the Eq. 1 rate update,
//! exactly like the user-space/kernel-space deployments in §5.

use crate::agent::MoccAgent;
use crate::aurora::AuroraAgent;
use crate::controller::Controller;
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_netsim::cc::{CongestionControl, MonitorStats, RateControl, SenderView};
use mocc_nn::{Mlp, Network};
use mocc_rl::GaussianPolicy;

/// A deterministic policy the adapter can deploy: one action per
/// observation.
pub trait Actor: Send {
    /// The action for `obs`.
    fn act(&self, obs: &[f32]) -> f32;
}

impl<N: Network> Actor for GaussianPolicy<N> {
    fn act(&self, obs: &[f32]) -> f32 {
        self.mean_action(obs)
    }
}

/// A deployed flow: a policy driving one [`Controller`].
pub struct PolicyCc<P> {
    name: &'static str,
    policy: P,
    ctl: Controller,
    obs: Vec<f32>,
    initial_rate_bps: f64,
}

/// A deployed MOCC flow with a registered preference.
pub type MoccCc = PolicyCc<GaussianPolicy<PrefNet>>;

/// A deployed single-objective Aurora flow (preference-free
/// observation).
pub type AuroraCc = PolicyCc<GaussianPolicy<Mlp>>;

impl<P: Actor> PolicyCc<P> {
    /// Deploys `policy` over `ctl` as the congestion controller
    /// `name`, starting at `initial_rate_bps`.
    pub fn from_parts(
        name: &'static str,
        policy: P,
        ctl: Controller,
        initial_rate_bps: f64,
    ) -> Self {
        PolicyCc {
            name,
            policy,
            obs: vec![0.0; ctl.obs_dim()],
            ctl,
            initial_rate_bps,
        }
    }
}

impl MoccCc {
    /// Wraps a trained agent's policy for the given application
    /// preference (the `Register(w)` step of §5).
    pub fn new(agent: &MoccAgent, pref: Preference, initial_rate_bps: f64) -> Self {
        PolicyCc::from_parts(
            "mocc",
            agent.ppo.policy.clone(),
            Controller::new(agent.cfg, Some(pref)),
            initial_rate_bps,
        )
    }

    /// The registered preference.
    pub fn pref(&self) -> Preference {
        self.ctl.pref().expect("a MOCC flow has a preference")
    }
}

impl AuroraCc {
    /// Wraps a trained Aurora agent's policy for deployment.
    pub fn new(agent: &AuroraAgent, initial_rate_bps: f64) -> Self {
        PolicyCc::from_parts(
            "aurora",
            agent.ppo.policy.clone(),
            Controller::new(agent.cfg, None),
            initial_rate_bps,
        )
    }
}

impl<P: Actor> CongestionControl for PolicyCc<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn init(&mut self, _view: &SenderView, ctl: &mut RateControl) {
        self.ctl.reset();
        ctl.pacing_rate_bps = self.initial_rate_bps;
        ctl.cwnd_pkts = f64::INFINITY;
    }

    fn on_monitor(&mut self, _view: &SenderView, mi: &MonitorStats, ctl: &mut RateControl) {
        self.ctl.observe(mi);
        self.ctl.write_obs(&mut self.obs);
        let action = self.policy.act(&self.obs);
        ctl.pacing_rate_bps = self.ctl.next_rate(ctl.pacing_rate_bps, action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoccConfig;
    use mocc_netsim::{Scenario, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mocc_cc_paces_in_simulator() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let sc = Scenario::single(5e6, 20, 500, 0.0, 10);
        let cc = MoccCc::new(&agent, Preference::throughput(), 1e6);
        assert_eq!(cc.pref(), Preference::throughput());
        let res = Simulator::new(sc, vec![Box::new(cc)]).run();
        assert!(res.flows[0].total_sent > 0);
        assert!(res.flows[0].total_acked > 0);
    }

    #[test]
    fn two_mocc_flows_coexist() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let sc = Scenario::dumbbell(10e6, 10, 200, 2, 0.0, 10);
        let res = Simulator::new(
            sc,
            vec![
                Box::new(MoccCc::new(&agent, Preference::throughput(), 1e6)),
                Box::new(MoccCc::new(&agent, Preference::latency(), 1e6)),
            ],
        )
        .run();
        assert!(res.flows[0].total_acked > 0);
        assert!(res.flows[1].total_acked > 0);
    }

    #[test]
    fn aurora_cc_runs_in_simulator() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MoccConfig {
            rollout_steps: 60,
            episode_mis: 60,
            ..MoccConfig::fast()
        };
        let agent = AuroraAgent::new(cfg, Preference::throughput(), &mut rng);
        let sc = Scenario::single(5e6, 20, 500, 0.0, 10);
        let res = Simulator::new(sc, vec![Box::new(AuroraCc::new(&agent, 1e6))]).run();
        assert_eq!(res.flows[0].name, "aurora");
        assert!(res.flows[0].total_sent > 0, "untrained policy still paces");
    }
}
