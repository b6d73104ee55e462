//! First-order optimizers.
//!
//! The paper trains with Adam at learning rate 1e-3 (Table 2); plain
//! SGD is provided for ablations and tests.

use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba, 2014) with per-slot first/second-moment state.
///
/// Parameter tensors are identified by a stable `slot` index supplied by
/// the model (see [`crate::mlp::Mlp::for_each_param`]); state buffers
/// are lazily sized on first use. Moments are index-keyed `Vec`s, not a
/// hash map: slot indices are small and dense, and checkpoint bytes
/// must not depend on a process-randomized iteration order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the paper's defaults (β₁ = 0.9, β₂ = 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Starts a new optimizer step (advances the bias-correction clock).
    /// Call once per gradient application, before `update_slot`s.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies the Adam update to one parameter tensor.
    pub fn update_slot(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "gradient length mismatch");
        let t = self.t.max(1);
        if self.m.len() <= slot {
            self.m.resize(slot + 1, Vec::new());
            self.v.resize(slot + 1, Vec::new());
        }
        if self.m[slot].is_empty() {
            self.m[slot] = vec![0.0; params.len()];
            self.v[slot] = vec![0.0; params.len()];
        }
        let m = &mut self.m[slot];
        let v = &mut self.v[slot];
        assert_eq!(m.len(), params.len(), "Adam slot {slot} changed size");
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        // Zipped slices drop the bounds checks, so this vectorizes.
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    /// Resets moment state (used when restarting training on a
    /// transferred model).
    pub fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies `params -= lr * grads`.
    pub fn update(&self, params: &mut [f32], grads: &[f32]) {
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

/// Clips a gradient vector to a maximum L2 norm, returning the original
/// norm. Standard PPO practice to stabilize updates.
pub fn clip_grad_norm(grads: &mut [f32], max_norm: f32) -> f32 {
    let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `update_slot` is bitwise the indexed loop it replaced, in the
    /// parameters and both moments, over several steps (the bias
    /// corrections change every step) and a length that is no multiple
    /// of any vector width.
    #[test]
    fn update_slot_bitwise_matches_indexed_loop() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 261;
        let mut adam = Adam::new(1e-3);
        let mut params: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut p_ref = params.clone();
        let (mut m_ref, mut v_ref) = (vec![0.0f32; n], vec![0.0f32; n]);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for step in 1..=12 {
            let grads: Vec<f32> = (0..n)
                .map(|i| match i % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            adam.begin_step();
            adam.update_slot(0, &mut params, &grads);

            let (b1, b2) = (adam.beta1, adam.beta2);
            let bc1 = 1.0 - b1.powi(step);
            let bc2 = 1.0 - b2.powi(step);
            for i in 0..n {
                let g = grads[i];
                m_ref[i] = b1 * m_ref[i] + (1.0 - b1) * g;
                v_ref[i] = b2 * v_ref[i] + (1.0 - b2) * g * g;
                let mhat = m_ref[i] / bc1;
                let vhat = v_ref[i] / bc2;
                p_ref[i] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
            }
            assert_eq!(bits(&params), bits(&p_ref), "params drifted at step {step}");
            assert_eq!(bits(&adam.m[0]), bits(&m_ref), "m drifted at step {step}");
            assert_eq!(bits(&adam.v[0]), bits(&v_ref), "v drifted at step {step}");
        }
    }

    /// Minimizing f(x) = (x − 3)² with Adam converges to 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.begin_step();
            adam.update_slot(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adam_slots_are_independent() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32];
        let mut b = vec![10.0f32];
        for _ in 0..300 {
            adam.begin_step();
            let ga = [2.0 * (a[0] - 1.0)];
            adam.update_slot(0, &mut a, &ga);
            let gb = [2.0 * (b[0] + 1.0)];
            adam.update_slot(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 0.05);
        assert!((b[0] + 1.0).abs() < 0.05);
    }

    #[test]
    fn sgd_step() {
        let sgd = Sgd::new(0.5);
        let mut p = vec![1.0f32, 2.0];
        sgd.update(&mut p, &[2.0, -2.0]);
        assert_eq!(p, vec![0.0, 3.0]);
    }

    #[test]
    fn grad_clip() {
        let mut g = vec![3.0f32, 4.0]; // norm 5
        let n = clip_grad_norm(&mut g, 1.0);
        assert!((n - 5.0).abs() < 1e-6);
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-6);
        // Below the cap: untouched.
        let mut h = vec![0.3f32, 0.4];
        clip_grad_norm(&mut h, 1.0);
        assert_eq!(h, vec![0.3, 0.4]);
    }

    #[test]
    fn adam_accepts_slots_in_any_order() {
        // Slot 2 touched before slot 0: the index-keyed buffers must
        // grow to fit and keep untouched slots empty.
        let mut adam = Adam::new(0.1);
        let mut hi = vec![5.0f32];
        adam.begin_step();
        adam.update_slot(2, &mut hi, &[1.0]);
        let mut lo = vec![1.0f32, 2.0];
        adam.update_slot(0, &mut lo, &[0.5, -0.5]);
        assert_eq!(adam.m.len(), 3);
        assert!(adam.m[1].is_empty());
        assert_eq!(adam.m[0].len(), 2);
    }

    #[test]
    fn adam_reset_clears_state() {
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0f32];
        adam.begin_step();
        adam.update_slot(0, &mut x, &[1.0]);
        assert_eq!(adam.steps(), 1);
        adam.reset();
        assert_eq!(adam.steps(), 0);
    }
}
