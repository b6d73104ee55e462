//! Figure 18 — learning-algorithm ablation: MOCC-PPO vs MOCC-DQN.
//!
//! Trains a DQN variant (discretized rate actions, same environment,
//! same budget) and compares reward CDFs. The paper finds PPO ≈ 3× the
//! reward because Q-learning handles the continuous sending-rate action
//! poorly.

use mocc_bench::{header, mean_reward, row, with_agent_mi};
use mocc_core::{Actor, Controller, MoccCc, MoccEnv, PolicyCc, Preference};
use mocc_netsim::metrics::percentile;
use mocc_netsim::{ScenarioRange, Simulator};
use mocc_rl::{Dqn, DqnConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The DQN variant's deployment policy: the greedy grid action.
struct DqnGreedy {
    q: mocc_nn::Mlp,
    actions: Vec<f32>,
}

impl Actor for DqnGreedy {
    fn act(&self, obs: &[f32]) -> f32 {
        let qs = self.q.forward(obs);
        let best = qs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.actions[best]
    }
}

fn main() {
    let full = mocc_bench::full_scale();
    let episodes = if full { 600 } else { 250 };
    let n_objectives = if full { 40 } else { 20 };
    let n_conditions = if full { 5 } else { 3 };

    let ppo_agent = mocc_bench::trained_mocc();

    // Train the DQN on the same environment with a comparable budget,
    // cycling the preference across landmarks like the PPO training.
    let cfg = ppo_agent.cfg;
    let mut rng = StdRng::seed_from_u64(55);
    let actions = Dqn::uniform_grid(-cfg.action_clip as f32, cfg.action_clip as f32, 9);
    let mut dqn = Dqn::new(
        cfg.obs_dim(),
        &cfg.hidden,
        actions.clone(),
        DqnConfig {
            eps_decay_steps: (episodes * cfg.episode_mis / 2) as u64,
            ..Default::default()
        },
        &mut rng,
    );
    let landmarks = mocc_core::landmarks(cfg.omega_step);
    eprintln!("[fig18] training MOCC-DQN for {episodes} episodes...");
    let t0 = mocc_bench::timing::Stopwatch::start();
    for ep in 0..episodes {
        let pref = landmarks[ep % landmarks.len()];
        let seed: u64 = rng.gen();
        let mut env = MoccEnv::training(cfg, pref, ScenarioRange::training(), seed);
        let _ = dqn.train_episode(&mut env, cfg.episode_mis, &mut rng);
    }
    eprintln!("[fig18] DQN training: {:.1}s", t0.elapsed_secs());

    // Score both on random objectives × conditions.
    let mut objective_rng = StdRng::seed_from_u64(77);
    let objectives: Vec<Preference> = (0..n_objectives)
        .map(|_| Preference::random(&mut objective_rng))
        .collect();
    let range = ScenarioRange::testing();
    let conditions: Vec<mocc_netsim::Scenario> = (0..n_conditions)
        .map(|_| range.sample(&mut objective_rng, 20))
        .collect();

    let mut ppo_rewards: Vec<f64> = Vec::new();
    let mut dqn_rewards: Vec<f64> = Vec::new();
    for sc in &conditions {
        let cap = sc.link.trace.max_rate();
        let base = sc.link.base_rtt().as_millis_f64();
        for w in &objectives {
            let cc = Box::new(MoccCc::new(&ppo_agent, *w, 0.3 * cap));
            let res = Simulator::new(with_agent_mi(sc.clone()), vec![cc]).run();
            ppo_rewards.push(mean_reward(&res.flows[0].mi_records, cap, base, w) as f64);

            let cc = Box::new(PolicyCc::from_parts(
                "mocc-dqn",
                DqnGreedy {
                    q: dqn.q.clone(),
                    actions: actions.clone(),
                },
                Controller::new(cfg, Some(*w)),
                0.3 * cap,
            ));
            let res = Simulator::new(with_agent_mi(sc.clone()), vec![cc]).run();
            dqn_rewards.push(mean_reward(&res.flows[0].mi_records, cap, base, w) as f64);
        }
    }

    println!("== Figure 18: MOCC-PPO vs MOCC-DQN reward CDF ==");
    header(
        "variant",
        &["p25".into(), "p50".into(), "p75".into(), "mean".into()],
        9,
    );
    for (name, rewards) in [("mocc-ppo", &ppo_rewards), ("mocc-dqn", &dqn_rewards)] {
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        row(
            name,
            &[
                percentile(rewards, 25.0),
                percentile(rewards, 50.0),
                percentile(rewards, 75.0),
                mean,
            ],
            9,
            3,
        );
    }
    let ppo_mean = ppo_rewards.iter().sum::<f64>() / ppo_rewards.len() as f64;
    let dqn_mean = dqn_rewards.iter().sum::<f64>() / dqn_rewards.len() as f64;
    println!(
        "\nPPO/DQN mean-reward ratio: {:.2}x (paper: ~3x on its reward scale)",
        ppo_mean / dqn_mean.max(1e-9)
    );
}
