//! The portable MOCC library facade (§5).
//!
//! The paper packages MOCC behind three functions so any datapath (UDT
//! user-space, CCP kernel-space, or this repository's simulator) can
//! embed it:
//!
//! - `Register(w)` — declare the application's preference,
//! - `ReportStatus(s_t)` — feed the latest network statistics,
//! - `GetSendingRate()` — read back the rate for the next interval.

use crate::agent::MoccAgent;
use crate::config::MoccConfig;
use crate::controller::{features, Controller};
use crate::preference::Preference;
use crate::prefnet::PrefNet;
use mocc_rl::GaussianPolicy;
use serde::{Deserialize, Serialize};

/// One interval's network status, as reported by the datapath.
/// Mirrors the state statistics of §4.1.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetStatus {
    /// Send ratio `l_t`: packets sent over packets acknowledged.
    pub send_ratio: f64,
    /// Latency ratio `p_t`: interval mean RTT over historical min RTT.
    pub latency_ratio: f64,
    /// Latency gradient `q_t`: d(RTT)/dt.
    pub latency_gradient: f64,
}

/// Errors from the library facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoccLibError {
    /// `report_status`/`get_sending_rate` before `register`.
    NotRegistered,
    /// A reported statistic is NaN or infinite; the report was
    /// rejected and the controller is unchanged.
    InvalidStatus {
        /// The offending [`NetStatus`] field.
        field: &'static str,
    },
}

impl std::fmt::Display for MoccLibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoccLibError::NotRegistered => {
                write!(f, "no application registered; call register(w) first")
            }
            MoccLibError::InvalidStatus { field } => {
                write!(f, "reported status field {field} is not finite")
            }
        }
    }
}

impl std::error::Error for MoccLibError {}

/// The plug-and-play MOCC library.
pub struct MoccLib {
    policy: GaussianPolicy<PrefNet>,
    cfg: MoccConfig,
    /// `None` until an application registers.
    ctl: Option<Controller>,
    rate_bps: f64,
}

impl MoccLib {
    /// Builds the library around a trained agent, starting at
    /// `initial_rate_bps`.
    pub fn new(agent: &MoccAgent, initial_rate_bps: f64) -> Self {
        MoccLib {
            policy: agent.ppo.policy.clone(),
            cfg: agent.cfg,
            ctl: None,
            rate_bps: initial_rate_bps,
        }
    }

    /// `Register(w)`: declares the application's requirement and
    /// starts a fresh history.
    pub fn register(&mut self, w: Preference) {
        self.ctl = Some(Controller::new(self.cfg, Some(w)));
    }

    /// `ReportStatus(s_t)`: feeds the latest interval statistics and
    /// advances the rate decision. A status with a NaN or infinite
    /// field is rejected with [`MoccLibError::InvalidStatus`] and
    /// changes neither the history nor the rate.
    pub fn report_status(&mut self, s: NetStatus) -> Result<(), MoccLibError> {
        let ctl = self.ctl.as_mut().ok_or(MoccLibError::NotRegistered)?;
        for (field, value) in [
            ("send_ratio", s.send_ratio),
            ("latency_ratio", s.latency_ratio),
            ("latency_gradient", s.latency_gradient),
        ] {
            if !value.is_finite() {
                return Err(MoccLibError::InvalidStatus { field });
            }
        }
        ctl.push(features(s.send_ratio, s.latency_ratio, s.latency_gradient));
        let mean = self.policy.mean_action(&ctl.obs());
        self.rate_bps = ctl.next_rate(self.rate_bps, mean);
        Ok(())
    }

    /// `GetSendingRate()`: the rate (bits per second) for the next
    /// interval.
    pub fn get_sending_rate(&self) -> Result<f64, MoccLibError> {
        self.ctl.as_ref().ok_or(MoccLibError::NotRegistered)?;
        Ok(self.rate_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lib() -> MoccLib {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = MoccAgent::new(MoccConfig::fast(), &mut rng);
        MoccLib::new(&agent, 2e6)
    }

    fn status() -> NetStatus {
        NetStatus {
            send_ratio: 1.1,
            latency_ratio: 1.2,
            latency_gradient: 0.0,
        }
    }

    #[test]
    fn requires_registration() {
        let mut l = lib();
        assert_eq!(
            l.report_status(status()).unwrap_err(),
            MoccLibError::NotRegistered
        );
        assert!(l.get_sending_rate().is_err());
    }

    #[test]
    fn register_report_get_roundtrip() {
        let mut l = lib();
        l.register(Preference::throughput());
        assert_eq!(l.get_sending_rate().unwrap(), 2e6);
        l.report_status(status()).unwrap();
        let r = l.get_sending_rate().unwrap();
        assert!(r > 0.0 && r.is_finite());
        // Rate moved by at most the Eq. 1 bound (α × clip = 12.5 %).
        assert!(r / 2e6 < 1.2 && r / 2e6 > 0.8, "rate {r}");
    }

    /// A non-finite field is rejected before it reaches the history:
    /// the rate stays put and later good reports steer it as if the
    /// bad one had never been sent.
    #[test]
    fn non_finite_status_is_rejected_without_side_effects() {
        let mut poisoned = lib();
        let mut clean = lib();
        poisoned.register(Preference::balanced());
        clean.register(Preference::balanced());
        poisoned.report_status(status()).unwrap();
        clean.report_status(status()).unwrap();
        let before = poisoned.get_sending_rate().unwrap();
        for (bad, field) in [
            (
                NetStatus {
                    send_ratio: f64::NAN,
                    ..status()
                },
                "send_ratio",
            ),
            (
                NetStatus {
                    latency_ratio: f64::INFINITY,
                    ..status()
                },
                "latency_ratio",
            ),
            (
                NetStatus {
                    latency_gradient: f64::NEG_INFINITY,
                    ..status()
                },
                "latency_gradient",
            ),
        ] {
            assert_eq!(
                poisoned.report_status(bad).unwrap_err(),
                MoccLibError::InvalidStatus { field }
            );
            assert_eq!(poisoned.get_sending_rate().unwrap(), before);
        }
        for _ in 0..15 {
            poisoned.report_status(status()).unwrap();
            clean.report_status(status()).unwrap();
        }
        let rate = poisoned.get_sending_rate().unwrap();
        assert!(rate.is_finite(), "rate {rate}");
        assert_eq!(rate.to_bits(), clean.get_sending_rate().unwrap().to_bits());
    }

    #[test]
    fn reregistration_resets_history() {
        let mut l = lib();
        l.register(Preference::throughput());
        for _ in 0..5 {
            l.report_status(status()).unwrap();
        }
        l.register(Preference::latency());
        // History cleared; next decision comes from fresh state.
        l.report_status(status()).unwrap();
        assert!(l.get_sending_rate().is_ok());
    }
}
