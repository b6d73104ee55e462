//! Criterion micro-benchmarks behind Fig. 17: per-invocation cost of
//! policy inference (user-space deployments pay this every monitor
//! interval) versus heuristic per-ACK arithmetic (kernel datapaths).

use criterion::{criterion_group, criterion_main, Criterion};
use mocc_core::{stats_features, Controller, MoccAgent, MoccConfig, Preference};
use mocc_netsim::cc::{AckInfo, RateControl, SenderView};
use mocc_netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn view() -> SenderView {
    SenderView {
        now: SimTime::from_secs(1),
        mss_bytes: 1500,
        min_rtt: Some(SimDuration::from_millis(20)),
        srtt: Some(SimDuration::from_millis(25)),
        inflight_pkts: 10,
        total_sent: 1000,
        total_acked: 990,
        total_lost: 0,
    }
}

fn bench_inference(c: &mut Criterion) {
    // An untrained agent has identical inference cost to a trained one;
    // avoid depending on the model cache inside benches.
    let mut rng = StdRng::seed_from_u64(0);
    let agent = MoccAgent::new(MoccConfig::default(), &mut rng);
    let pref = Preference::throughput();
    let ctl = Controller::new(agent.cfg, Some(pref));
    let mut obs = vec![0.0f32; ctl.obs_dim()];
    c.bench_function("mocc_prefnet_inference", |b| {
        b.iter(|| {
            black_box(&ctl).write_obs(&mut obs);
            black_box(agent.ppo.policy.mean_action(&obs))
        })
    });

    let aurora = mocc_core::AuroraAgent::new(MoccConfig::default(), pref, &mut rng);
    let obs = vec![0.1f32; 30];
    c.bench_function("aurora_mlp_inference", |b| {
        b.iter(|| black_box(aurora.ppo.policy.mean_action(black_box(&obs))))
    });
}

fn bench_heuristics(c: &mut Criterion) {
    let v = view();
    let ack = AckInfo {
        seq: 1,
        rtt: SimDuration::from_millis(25),
        acked_bytes: 1500,
    };
    let mut group = c.benchmark_group("per_ack");
    for name in ["cubic", "vegas", "copa"] {
        let mut cc = mocc_cc::by_name(name).unwrap();
        let mut ctl = RateControl::open();
        cc.init(&v, &mut ctl);
        group.bench_function(name, |b| {
            b.iter(|| cc.on_ack(black_box(&v), black_box(&ack), &mut ctl))
        });
    }
    group.finish();
}

fn bench_features(c: &mut Criterion) {
    let mi = mocc_netsim::MonitorStats {
        start: SimTime::ZERO,
        end: SimTime::from_millis(40),
        pkts_sent: 100,
        pkts_acked: 99,
        pkts_lost: 1,
        throughput_bps: 5e6,
        sending_rate_bps: 5.1e6,
        mean_rtt: Some(SimDuration::from_millis(25)),
        loss_rate: 0.01,
        send_ratio: 1.01,
        latency_ratio: 1.2,
        latency_gradient: 0.001,
    };
    c.bench_function("mi_feature_extraction", |b| {
        b.iter(|| black_box(stats_features(black_box(&mi))))
    });
}

criterion_group!(benches, bench_inference, bench_heuristics, bench_features);
criterion_main!(benches);
