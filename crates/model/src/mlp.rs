//! A from-scratch 3-layer multi-layer perceptron, replicating the paper's
//! component-level FPGA resource model (§V-D): trained per component class
//! on synthesis-oracle samples with an 80/10/10 train/validation/test
//! split, predicting `[lut, ff, bram, dsp]` from component features.
//!
//! ReLU hidden activations, linear output, Adam optimizer, z-score input
//! normalization and max-scaling of outputs.

use overgen_telemetry::Rng;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Minibatch size.
    pub batch: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            lr: 3e-3,
            batch: 32,
            seed: 7,
        }
    }
}

/// Report of a training run (relative errors are mean |err|/mean(|y|)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Relative error on the training split.
    pub train_rel_err: f64,
    /// Relative error on the validation split.
    pub val_rel_err: f64,
    /// Relative error on the held-out test split.
    pub test_rel_err: f64,
    /// Samples used.
    pub samples: usize,
}

/// A dense 3-layer MLP: `in -> h1 (ReLU) -> h2 (ReLU) -> out (linear)`.
#[derive(Debug, Clone)]
pub struct Mlp {
    sizes: [usize; 4],
    // weights\[l\] has shape (sizes\[l+1\], sizes\[l\]), row major.
    weights: Vec<Vec<f64>>,
    biases: Vec<Vec<f64>>,
    in_mean: Vec<f64>,
    in_std: Vec<f64>,
    out_scale: Vec<f64>,
}

impl Mlp {
    /// Create with random (He) initialization.
    pub fn new(inputs: usize, h1: usize, h2: usize, outputs: usize, seed: u64) -> Self {
        let sizes = [inputs, h1, h2, outputs];
        let mut rng = Rng::seed_from_u64(seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..3 {
            let (n_in, n_out) = (sizes[l], sizes[l + 1]);
            let scale = (2.0 / n_in as f64).sqrt();
            weights.push(
                (0..n_in * n_out)
                    .map(|_| (rng.gen_f64() * 2.0 - 1.0) * scale)
                    .collect(),
            );
            biases.push(vec![0.0; n_out]);
        }
        Mlp {
            sizes,
            weights,
            biases,
            in_mean: vec![0.0; inputs],
            in_std: vec![1.0; inputs],
            out_scale: vec![1.0; outputs],
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.sizes[0]
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.sizes[3]
    }

    fn normalize(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .enumerate()
            .map(|(i, v)| (v - self.in_mean[i]) / self.in_std[i])
            .collect()
    }

    /// Forward pass returning denormalized outputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input size.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.sizes[0], "input size mismatch");
        let (_, _, out) = self.forward_norm(&self.normalize(x));
        out.iter()
            .zip(&self.out_scale)
            .map(|(v, s)| v * s)
            .collect()
    }

    /// Forward pass on normalized inputs, returning all activations.
    fn forward_norm(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let h1 = self.layer(0, x, true);
        let h2 = self.layer(1, &h1, true);
        let out = self.layer(2, &h2, false);
        (h1, h2, out)
    }

    fn layer(&self, l: usize, x: &[f64], relu: bool) -> Vec<f64> {
        let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
        let w = &self.weights[l];
        let b = &self.biases[l];
        (0..n_out)
            .map(|o| {
                let mut acc = b[o];
                let row = &w[o * n_in..(o + 1) * n_in];
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                if relu {
                    acc.max(0.0)
                } else {
                    acc
                }
            })
            .collect()
    }

    /// Train on `(xs, ys)` with an 80/10/10 train/val/test split
    /// (paper §V-D). Returns the error report.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length or are too small to split.
    pub fn train(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], cfg: &TrainConfig) -> TrainReport {
        assert_eq!(xs.len(), ys.len());
        assert!(xs.len() >= 10, "need at least 10 samples");
        let n = xs.len();
        let mut rng = Rng::seed_from_u64(cfg.seed);

        // Shuffle indices deterministically, then split 80/10/10.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let n_train = n * 8 / 10;
        let n_val = n / 10;
        let (train_idx, rest) = idx.split_at(n_train);
        let (val_idx, test_idx) = rest.split_at(n_val);

        // Fit input normalization and output scale on the training split.
        let d = self.sizes[0];
        let o = self.sizes[3];
        self.in_mean = vec![0.0; d];
        self.in_std = vec![0.0; d];
        for &i in train_idx {
            for (k, v) in xs[i].iter().enumerate() {
                self.in_mean[k] += v;
            }
        }
        for m in &mut self.in_mean {
            *m /= train_idx.len() as f64;
        }
        for &i in train_idx {
            for (k, v) in xs[i].iter().enumerate() {
                self.in_std[k] += (v - self.in_mean[k]).powi(2);
            }
        }
        for s in &mut self.in_std {
            *s = (*s / train_idx.len() as f64).sqrt().max(1e-9);
        }
        self.out_scale = vec![1e-9; o];
        for &i in train_idx {
            for (k, v) in ys[i].iter().enumerate() {
                self.out_scale[k] = self.out_scale[k].max(v.abs());
            }
        }

        // Adam state.
        let mut mw: Vec<Vec<f64>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut vw = mw.clone();
        let mut mb: Vec<Vec<f64>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        let mut vb = mb.clone();
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut t = 0usize;

        let mut order: Vec<usize> = train_idx.to_vec();
        for _epoch in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(cfg.batch) {
                t += 1;
                // Accumulate gradients over the minibatch.
                let mut gw: Vec<Vec<f64>> =
                    self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
                let mut gb: Vec<Vec<f64>> =
                    self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
                for &i in chunk {
                    let x = self.normalize(&xs[i]);
                    let y: Vec<f64> = ys[i]
                        .iter()
                        .zip(&self.out_scale)
                        .map(|(v, s)| v / s)
                        .collect();
                    let (h1, h2, out) = self.forward_norm(&x);
                    // dL/dout for MSE
                    let mut delta: Vec<f64> =
                        out.iter().zip(&y).map(|(o, y)| 2.0 * (o - y)).collect();
                    // layer 2 (h2 -> out)
                    self.accumulate(2, &h2, &delta, &mut gw, &mut gb);
                    delta = self.backprop(2, &delta, &h2);
                    // layer 1 (h1 -> h2)
                    self.accumulate(1, &h1, &delta, &mut gw, &mut gb);
                    delta = self.backprop(1, &delta, &h1);
                    // layer 0 (x -> h1)
                    self.accumulate(0, &x, &delta, &mut gw, &mut gb);
                }
                let scale = 1.0 / chunk.len() as f64;
                let lr_t = cfg.lr * (1.0 - b2.powi(t as i32)).sqrt() / (1.0 - b1.powi(t as i32));
                for l in 0..3 {
                    for k in 0..self.weights[l].len() {
                        let g = gw[l][k] * scale;
                        mw[l][k] = b1 * mw[l][k] + (1.0 - b1) * g;
                        vw[l][k] = b2 * vw[l][k] + (1.0 - b2) * g * g;
                        self.weights[l][k] -= lr_t * mw[l][k] / (vw[l][k].sqrt() + eps);
                    }
                    for k in 0..self.biases[l].len() {
                        let g = gb[l][k] * scale;
                        mb[l][k] = b1 * mb[l][k] + (1.0 - b1) * g;
                        vb[l][k] = b2 * vb[l][k] + (1.0 - b2) * g * g;
                        self.biases[l][k] -= lr_t * mb[l][k] / (vb[l][k].sqrt() + eps);
                    }
                }
            }
        }

        TrainReport {
            train_rel_err: self.relative_error(xs, ys, train_idx),
            val_rel_err: self.relative_error(xs, ys, val_idx),
            test_rel_err: self.relative_error(xs, ys, test_idx),
            samples: n,
        }
    }

    /// Gradient accumulation for layer `l` given its input activations and
    /// the output-side delta.
    fn accumulate(
        &self,
        l: usize,
        input: &[f64],
        delta: &[f64],
        gw: &mut [Vec<f64>],
        gb: &mut [Vec<f64>],
    ) {
        let n_in = self.sizes[l];
        for (o, d) in delta.iter().enumerate() {
            gb[l][o] += d;
            let row = &mut gw[l][o * n_in..(o + 1) * n_in];
            for (k, x) in input.iter().enumerate() {
                row[k] += d * x;
            }
        }
    }

    /// Propagate delta through layer `l` onto its (ReLU) input.
    fn backprop(&self, l: usize, delta: &[f64], input_act: &[f64]) -> Vec<f64> {
        let n_in = self.sizes[l];
        let w = &self.weights[l];
        (0..n_in)
            .map(|i| {
                if input_act[i] <= 0.0 {
                    0.0 // ReLU gate
                } else {
                    delta
                        .iter()
                        .enumerate()
                        .map(|(o, d)| d * w[o * n_in + i])
                        .sum()
                }
            })
            .collect()
    }

    /// Mean relative error over an index subset.
    fn relative_error(&self, xs: &[Vec<f64>], ys: &[Vec<f64>], idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let mut err = 0.0;
        let mut mag = 0.0;
        for &i in idx {
            let p = self.forward(&xs[i]);
            for (pi, yi) in p.iter().zip(&ys[i]) {
                err += (pi - yi).abs();
                mag += yi.abs();
            }
        }
        err / mag.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth synthetic regression target.
    fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = Rng::seed_from_u64(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..4.0);
            let b: f64 = rng.gen_range(0.0..4.0);
            xs.push(vec![a, b]);
            ys.push(vec![100.0 + 50.0 * a + 20.0 * a * b, 10.0 * b]);
        }
        (xs, ys)
    }

    #[test]
    fn learns_a_smooth_function() {
        let (xs, ys) = dataset(800);
        let mut mlp = Mlp::new(2, 16, 8, 2, 1);
        let report = mlp.train(&xs, &ys, &TrainConfig::default());
        assert!(
            report.test_rel_err < 0.08,
            "test error too high: {}",
            report.test_rel_err
        );
        // validation close to test (no gross overfit)
        assert!(report.val_rel_err < 0.1);
    }

    #[test]
    fn forward_is_deterministic() {
        let (xs, ys) = dataset(100);
        let mut mlp = Mlp::new(2, 8, 4, 2, 1);
        mlp.train(
            &xs,
            &ys,
            &TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let a = mlp.forward(&xs[0]);
        let b = mlp.forward(&xs[0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_size_panics() {
        let mlp = Mlp::new(3, 4, 4, 1, 0);
        let _ = mlp.forward(&[1.0]);
    }

    #[test]
    fn shapes() {
        let mlp = Mlp::new(10, 24, 16, 4, 0);
        assert_eq!(mlp.inputs(), 10);
        assert_eq!(mlp.outputs(), 4);
        assert_eq!(mlp.forward(&[0.0; 10]).len(), 4);
    }
}
