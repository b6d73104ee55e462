//! The MOCC agent: preference-conditioned actor-critic.

use crate::config::MoccConfig;
use crate::prefnet::PrefNet;
use mocc_rl::{GaussianPolicy, Ppo, PpoConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The complete MOCC learner: a PPO actor-critic whose actor and critic
/// both carry the preference sub-network (Fig. 3).
#[derive(Clone, Serialize, Deserialize)]
pub struct MoccAgent {
    /// Hyperparameters (Table 2).
    pub cfg: MoccConfig,
    /// The PPO learner over [`PrefNet`] networks.
    pub ppo: Ppo<PrefNet>,
}

impl MoccAgent {
    /// Builds an untrained agent with the paper's architecture.
    pub fn new<R: Rng>(cfg: MoccConfig, rng: &mut R) -> Self {
        let hist_dim = 3 * cfg.history;
        let actor = PrefNet::new(3, cfg.pn_features, hist_dim, &cfg.hidden, 1, rng);
        let critic = PrefNet::new(3, cfg.pn_features, hist_dim, &cfg.hidden, 1, rng);
        let ppo_cfg = PpoConfig {
            gamma: cfg.gamma,
            lr: cfg.lr,
            value_lr: cfg.lr,
            entropy_coef: cfg.entropy_start,
            ..Default::default()
        };
        MoccAgent {
            cfg,
            ppo: Ppo::from_nets(GaussianPolicy::from_net(actor), critic, ppo_cfg),
        }
    }

    /// Serializes the agent to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("agent serialization")
    }

    /// Restores an agent from [`MoccAgent::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Saves the agent to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads an agent from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::preference::Preference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The deterministic action for `pref` after η intervals of
    /// `features` — the observation every deployment assembles.
    fn act(agent: &MoccAgent, pref: Preference, features: f32) -> f32 {
        let mut ctl = Controller::new(agent.cfg, Some(pref));
        for _ in 0..agent.cfg.history {
            ctl.push([features; 3]);
        }
        agent.ppo.policy.mean_action(&ctl.obs())
    }

    #[test]
    fn act_depends_on_preference() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let a = act(&agent, Preference::throughput(), 0.1);
        let b = act(&agent, Preference::latency(), 0.1);
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a, b, "preference must steer the policy");
    }

    #[test]
    fn json_roundtrip_preserves_policy() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let back = MoccAgent::from_json(&agent.to_json()).unwrap();
        assert_eq!(
            act(&agent, Preference::balanced(), 0.2),
            act(&back, Preference::balanced(), 0.2)
        );
    }

    #[test]
    fn save_and_load_file() {
        let mut rng = StdRng::seed_from_u64(2);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        let dir = std::env::temp_dir().join("mocc-agent-test.json");
        agent.save(&dir).unwrap();
        let back = MoccAgent::load(&dir).unwrap();
        assert_eq!(
            act(&agent, Preference::throughput(), 0.0),
            act(&back, Preference::throughput(), 0.0)
        );
        let _ = std::fs::remove_file(dir);
    }
}
