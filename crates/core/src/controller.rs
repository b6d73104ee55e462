//! The MOCC controller core: the one control loop every deployment of
//! a policy runs.
//!
//! §4.1 defines the state as the application preference followed by
//! an η-interval history of `(l, p, q)` statistics, and Eq. 1 turns
//! the policy's action into a multiplicative rate update. [`Controller`]
//! owns that loop — history, preference, observation layout and rate
//! update — for the training environment ([`crate::MoccEnv`]), the
//! simulator adapters ([`crate::MoccCc`], [`crate::AuroraCc`]), the §5
//! library facade ([`crate::MoccLib`]) and the batched evaluator
//! ([`crate::BatchMoccEvaluator`]). The policy sees one observation
//! layout and one rate update everywhere by construction.

use crate::config::MoccConfig;
use crate::preference::Preference;
use mocc_netsim::MonitorStats;
use std::collections::VecDeque;

/// Converts one interval's send ratio `l`, latency ratio `p` and
/// latency gradient `q` into the three state features
/// `(l − 1, p − 1, 10·q)`, clamped for numerical stability.
pub(crate) fn features(send_ratio: f64, latency_ratio: f64, latency_gradient: f64) -> [f32; 3] {
    [
        (send_ratio as f32 - 1.0).clamp(0.0, 5.0),
        (latency_ratio as f32 - 1.0).clamp(0.0, 5.0),
        (latency_gradient as f32 * 10.0).clamp(-1.0, 1.0),
    ]
}

/// The three state features of one monitor interval (see
/// [`Controller::observe`]).
pub fn stats_features(stats: &MonitorStats) -> [f32; 3] {
    features(
        stats.send_ratio,
        stats.latency_ratio,
        stats.latency_gradient,
    )
}

/// Assembles the policy observation — the preference followed by the
/// η-interval feature history — into `out` (length
/// [`MoccConfig::obs_dim`]). This is [`Controller::write_obs`] for a
/// controller with a preference.
///
/// # Panics
///
/// Panics if `out` is shorter than 3.
pub fn write_obs(pref: &Preference, history: &VecDeque<[f32; 3]>, out: &mut [f32]) {
    out[..3].copy_from_slice(&pref.as_array());
    write_history(history, &mut out[3..]);
}

fn write_history(history: &VecDeque<[f32; 3]>, out: &mut [f32]) {
    for (chunk, h) in out.chunks_exact_mut(3).zip(history) {
        chunk.copy_from_slice(h);
    }
}

/// One flow's MOCC control state: the η-interval feature history, the
/// preference conditioning the observation (absent for Aurora's
/// preference-free observation, Fig. 2a), and the Eq. 1 rate update
/// bounded by a rate ceiling.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: MoccConfig,
    pref: Option<Preference>,
    history: VecDeque<[f32; 3]>,
    ceiling_bps: f64,
}

impl Controller {
    /// A controller with an all-zero history and the deployment rate
    /// ceiling ([`MoccConfig::MAX_RATE_BPS`]).
    pub fn new(cfg: MoccConfig, pref: Option<Preference>) -> Self {
        Controller {
            cfg,
            pref,
            history: VecDeque::from(vec![[0.0; 3]; cfg.history]),
            ceiling_bps: MoccConfig::MAX_RATE_BPS,
        }
    }

    /// The preference in the observation, if any.
    pub fn pref(&self) -> Option<Preference> {
        self.pref
    }

    /// Replaces the preference in the observation.
    pub(crate) fn set_pref(&mut self, pref: Option<Preference>) {
        self.pref = pref;
    }

    /// Sets the upper bound of [`Controller::next_rate`]. The training
    /// environment caps each episode at four times its link capacity.
    pub(crate) fn set_ceiling(&mut self, ceiling_bps: f64) {
        self.ceiling_bps = ceiling_bps;
    }

    /// Zeroes the history (a new flow or episode).
    pub fn reset(&mut self) {
        self.history.iter_mut().for_each(|h| *h = [0.0; 3]);
    }

    /// Appends one interval's features, dropping the oldest.
    pub(crate) fn push(&mut self, features: [f32; 3]) {
        self.history.pop_front();
        self.history.push_back(features);
    }

    /// Appends one monitor interval's statistics, dropping the oldest.
    pub fn observe(&mut self, stats: &MonitorStats) {
        self.push(stats_features(stats));
    }

    /// Observation length: `3 × η`, plus 3 with a preference.
    pub fn obs_dim(&self) -> usize {
        let hist = 3 * self.cfg.history;
        if self.pref.is_some() {
            3 + hist
        } else {
            hist
        }
    }

    /// Writes the observation — the preference (if any) followed by
    /// the history, oldest first — into `out` (length
    /// [`Controller::obs_dim`]).
    pub fn write_obs(&self, out: &mut [f32]) {
        match &self.pref {
            Some(pref) => write_obs(pref, &self.history, out),
            None => write_history(&self.history, out),
        }
    }

    /// The observation as a fresh vector.
    pub fn obs(&self) -> Vec<f32> {
        let mut obs = vec![0.0; self.obs_dim()];
        self.write_obs(&mut obs);
        obs
    }

    /// The rate after applying policy action `mean` to `rate_bps` by
    /// Eq. 1, bounded to [10 kbps, the ceiling].
    pub fn next_rate(&self, rate_bps: f64, mean: f32) -> f64 {
        self.cfg
            .apply_action_capped(rate_bps, mean, self.ceiling_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_layout_with_and_without_preference() {
        let cfg = MoccConfig {
            history: 2,
            ..MoccConfig::fast()
        };
        let mut ctl = Controller::new(cfg, Some(Preference::new(0.5, 0.3, 0.2)));
        assert_eq!(ctl.obs(), vec![0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        ctl.push([1.0, 2.0, 3.0]);
        ctl.push([4.0, 5.0, 6.0]);
        ctl.push([7.0, 8.0, 9.0]);
        assert_eq!(ctl.obs(), vec![0.5, 0.3, 0.2, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        ctl.set_pref(None);
        assert_eq!(ctl.obs_dim(), 6);
        assert_eq!(ctl.obs(), vec![4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        ctl.reset();
        assert_eq!(ctl.obs(), vec![0.0; 6]);
    }

    #[test]
    fn features_clamp_each_statistic() {
        assert_eq!(features(1.5, 1.25, 0.05), [0.5, 0.25, 0.5]);
        assert_eq!(features(0.5, 9.0, -1.0), [0.0, 5.0, -1.0]);
    }

    #[test]
    fn next_rate_respects_the_ceiling() {
        let mut ctl = Controller::new(MoccConfig::default(), None);
        // The action is clipped to ±2: at most ×/÷ (1 + 2α) per interval.
        assert_eq!(ctl.next_rate(1e6, 9.0), 1e6 * (1.0 + 0.025 * 2.0));
        assert_eq!(ctl.next_rate(1e6, -9.0), 1e6 / (1.0 + 0.025 * 2.0));
        assert_eq!(ctl.next_rate(1e9, 1.0), 1e9);
        ctl.set_ceiling(2e6);
        assert_eq!(ctl.next_rate(1.99e6, 2.0), 2e6);
        assert_eq!(ctl.next_rate(1e3, -2.0), 1e4);
    }
}
