//! Replays `mocc train` in-process: the schedule `train_spec` runs,
//! taken apart into its public calls -- batched rollout collection
//! over `MoccEnv`s, the PPO update, and checkpoint writes -- then the
//! zoo artifact. The final `model.json` must equal the reference
//! `train_spec` produced, which pins the replay to the real run.

use crate::spans::Tracer;
use mocc_core::{
    build_schedule, save_trained, write_checkpoint, MoccAgent, MoccEnv, TrainCheckpoint,
    TrainRegime, TrainSpec,
};
use mocc_nn::ForwardTier;
use mocc_rl::{collect_rollouts_batched_tier, BatchRolloutScratch, Env};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// One training run into `dir`; returns the final model bytes.
pub fn pass(spec_path: &str, dir: &Path, tr: &Tracer) -> Result<Vec<u8>, String> {
    let spec = tr
        .span("spec.load_validate", 0, || {
            let spec = TrainSpec::load(Path::new(spec_path))?;
            spec.validate()?;
            Ok::<_, mocc_eval::SpecError>(spec)
        })
        .map_err(|e| format!("{spec_path}: {e}"))?;
    let mut cfg = spec.resolved_config().map_err(|e| e.to_string())?;
    if spec.regime == TrainRegime::TransferParallel && cfg.parallel_envs <= 1 {
        cfg.parallel_envs = 4;
    }
    let range = spec.scenario_range().map_err(|e| e.to_string())?;
    let digest = spec.digest();
    let (points, schedule) = build_schedule(&cfg, spec.regime);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut agent = MoccAgent::new(cfg, &mut rng);
    let checkpoints = dir.join("checkpoints");
    let mut curve = Vec::new();
    let mut scratch = BatchRolloutScratch::default();
    let end = schedule.len();

    for (it, step) in schedule.iter().enumerate() {
        tr.span("trainer.iteration", it as u64, || -> Result<(), String> {
            let contrast = step
                .contrast
                .then(|| points[rng.gen_range(0..points.len())]);
            let pref = points[step.pref_idx];
            agent.ppo.cfg.entropy_coef = agent.cfg.entropy_at(it);
            let steps = agent.cfg.rollout_steps;
            let n_envs = agent.cfg.parallel_envs.max(1);
            let seed = rng.gen::<u64>();
            let (per_env, tier) = if n_envs > 1 {
                ((steps / n_envs).max(20), ForwardTier::Fast)
            } else {
                (steps, ForwardTier::Scalar)
            };
            let mut envs: Vec<MoccEnv> = (0..n_envs)
                .map(|i| MoccEnv::training(agent.cfg, pref, range, seed.wrapping_add(i as u64)))
                .collect();
            let mut rollouts = tr.span("rl.rollout", it as u64, || {
                let mut refs: Vec<&mut dyn Env> =
                    envs.iter_mut().map(|e| e as &mut dyn Env).collect();
                collect_rollouts_batched_tier(
                    &agent.ppo.policy,
                    &agent.ppo.value,
                    &mut refs,
                    per_env,
                    &mut rng,
                    &mut scratch,
                    tier,
                )
            });
            let reward = rollouts[0].mean_reward();
            if let Some(c) = contrast {
                // One scalar-tier environment: bitwise the trainer's
                // single-env rollout, RNG stream included.
                let mut env = MoccEnv::training(agent.cfg, c, range, seed.wrapping_add(1000));
                rollouts.extend(tr.span("rl.rollout", it as u64, || {
                    collect_rollouts_batched_tier(
                        &agent.ppo.policy,
                        &agent.ppo.value,
                        &mut [&mut env as &mut dyn Env],
                        steps,
                        &mut rng,
                        &mut scratch,
                        ForwardTier::Scalar,
                    )
                }));
            }
            tr.count(
                "rl.env_steps",
                rollouts.iter().map(|r| r.len() as u64).sum(),
            );
            tr.span("rl.ppo_update", it as u64, || {
                agent.ppo.update(&rollouts, &mut rng)
            });
            curve.push(reward);
            let done = it + 1;
            if (spec.checkpoint_every > 0 && done % spec.checkpoint_every == 0) || done == end {
                tr.span("trainer.checkpoint", it as u64, || {
                    write_checkpoint(
                        &checkpoints,
                        &TrainCheckpoint {
                            version: 1,
                            spec_digest: digest.clone(),
                            iteration: done,
                            rng_state: rng.state().to_vec(),
                            curve: curve.clone(),
                            agent: agent.clone(),
                        },
                    )
                })
                .map_err(|e| e.to_string())?;
                let bytes = std::fs::metadata(checkpoints.join("checkpoint.json"))
                    .map_err(|e| e.to_string())?
                    .len();
                tr.count("trainer.checkpoint_bytes", bytes);
            }
            Ok(())
        })?;
    }
    let model = tr
        .span("trainer.save", 0, || {
            save_trained(&dir.join("zoo"), &spec, &agent, curve.len())
        })
        .map_err(|e| e.to_string())?;
    std::fs::read(&model).map_err(|e| format!("{}: {e}", model.display()))
}
