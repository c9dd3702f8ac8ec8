//! Learning-based compression: a linear auto-encoder (§3.2).

use crate::{Compressed, Compressor, Payload};
use actcomp_nn::Parameter;
use actcomp_tensor::{init, Tensor};
use rand::Rng;

/// The paper's auto-encoder compressor: a learnable matrix
/// `w ∈ R^{h×c}` encodes activations `X ∈ R^{(b·s)×h}` as `Xw ∈ R^{(b·s)×c}`,
/// and a decoder matrix `d ∈ R^{c×h}` reconstructs them.
///
/// Both matrices are trainable parameters (visited via
/// [`Compressor::visit_params`]) and receive exact gradients — this is the
/// "learning-based" method that only model parallelism enables, because it
/// needs gradient flow through the compressor. The matrices are all it
/// keeps: [`Compressor::backward`] reads the input from its `x` argument
/// and the code from the message it is handed.
///
/// Since the code `Xw` is linear in `X`, codes from different tensor-parallel
/// workers can be **summed on the wire**, so the auto-encoder is the one
/// compressor that composes with all-reduce ([`Compressor::summable`] is
/// true).
///
/// # Examples
///
/// ```
/// use actcomp_compress::{AutoEncoder, Compressor};
/// use actcomp_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut ae = AutoEncoder::new(&mut rng, 16, 4);
/// let msg = ae.compress(&Tensor::ones([8, 16]));
/// assert_eq!(msg.wire_bytes(2), 8 * 4 * 2); // code is [8, 4]
/// assert!(ae.fits(&msg));
/// ```
#[derive(Debug, Clone)]
pub struct AutoEncoder {
    /// Encoder matrix `[h, c]`.
    pub encoder: Parameter,
    /// Decoder matrix `[c, h]`.
    pub decoder: Parameter,
}

impl AutoEncoder {
    /// Creates an auto-encoder compressing `hidden` features to `code_dim`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < code_dim < hidden`.
    pub fn new(rng: &mut impl Rng, hidden: usize, code_dim: usize) -> Self {
        assert!(
            code_dim > 0 && code_dim < hidden,
            "code dim {code_dim} must be in (0, {hidden})"
        );
        AutoEncoder {
            encoder: Parameter::new(init::xavier_uniform(rng, hidden, code_dim)),
            decoder: Parameter::new(init::xavier_uniform(rng, code_dim, hidden)),
        }
    }

    /// Width of the compressed code.
    pub fn code_dim(&self) -> usize {
        self.encoder.value.dims()[1]
    }

    /// Feature width of the activations this auto-encoder compresses.
    pub fn hidden(&self) -> usize {
        self.encoder.value.dims()[0]
    }
}

impl Compressor for AutoEncoder {
    fn name(&self) -> &'static str {
        "ae"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        assert_eq!(
            x.rank(),
            2,
            "AutoEncoder input must be rank 2, got {}",
            x.shape()
        );
        assert_eq!(
            x.dims()[1],
            self.hidden(),
            "AutoEncoder width {} != input width {}",
            self.hidden(),
            x.dims()[1]
        );
        let code = x.matmul(&self.encoder.value);
        Compressed::new(Payload::Dense(code), x.shape().clone())
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        match msg.payload() {
            Payload::Dense(code) => code.matmul(&self.decoder.value),
            _ => panic!("AutoEncoder received a non-dense message"),
        }
    }

    fn fits(&self, msg: &Compressed) -> bool {
        match (msg.shape().dims(), msg.payload()) {
            (&[rows, h], Payload::Dense(code)) => {
                h == self.hidden() && code.dims() == [rows, self.code_dim()]
            }
            _ => false,
        }
    }

    fn backward(&mut self, dy: &Tensor, x: &Tensor, msg: &Compressed) -> Tensor {
        let Payload::Dense(code) = msg.payload() else {
            panic!("AutoEncoder::backward needs the dense code it sent")
        };
        // y = (x E) D
        // dD = codeᵀ dy ; dcode = dy Dᵀ ; dE = xᵀ dcode ; dx = dcode Eᵀ
        // Parameter grads accumulate in place — no product temporary.
        self.decoder.grad.add_matmul_tn(code, dy);
        let dcode = dy.matmul_nt(&self.decoder.value);
        self.encoder.grad.add_matmul_tn(x, &dcode);
        dcode.matmul_nt(&self.encoder.value)
    }

    fn summable(&self) -> bool {
        true
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.encoder);
        f(&mut self.decoder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_nn::testutil::assert_close;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn code_shape_and_wire_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ae = AutoEncoder::new(&mut rng, 32, 8);
        let x = init::randn(&mut rng, [4, 32], 1.0);
        let msg = ae.compress(&x);
        assert_eq!(msg.wire_bytes(2), 4 * 8 * 2);
        assert!((msg.ratio(2) - 4.0).abs() < 1e-9);
        let y = ae.decompress(&msg);
        assert_eq!(y.dims(), &[4, 32]);
    }

    #[test]
    fn codes_are_summable() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ae = AutoEncoder::new(&mut rng, 16, 4);
        assert!(ae.summable());
        let a = init::randn(&mut rng, [2, 16], 1.0);
        let b = init::randn(&mut rng, [2, 16], 1.0);
        // Encoding is linear: enc(a) + enc(b) == enc(a + b).
        let m1 = ae.compress(&a);
        let m2 = ae.compress(&b);
        let summed = m1.sum(&m2);
        let direct = ae.compress(&a.add(&b));
        match (summed.payload(), direct.payload()) {
            (Payload::Dense(s), Payload::Dense(d)) => {
                assert!(s.max_abs_diff(d) < 1e-4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ae = AutoEncoder::new(&mut rng, 6, 3);
        let x = init::randn(&mut rng, [4, 6], 1.0);
        let dy = init::randn(&mut rng, [4, 6], 1.0);

        ae.visit_params(&mut |p| p.zero_grad());
        let msg = ae.compress(&x);
        let dx = ae.backward(&dy, &x, &msg);

        let eps = 1e-2;
        // Input gradient.
        for j in 0..x.len() {
            let mut xp = x.clone();
            xp[j] += eps;
            let mut xm = x.clone();
            xm[j] -= eps;
            let lp = ae.round_trip(&xp).mul(&dy).sum();
            let lm = ae.round_trip(&xm).mul(&dy).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert_close(dx[j], fd, 2e-2, &format!("ae dx[{j}]"));
        }

        // Encoder gradient (sampled).
        let genc = ae.encoder.grad.clone();
        for j in (0..genc.len()).step_by(5) {
            ae.encoder.value[j] += eps;
            let lp = ae.round_trip(&x).mul(&dy).sum();
            ae.encoder.value[j] -= 2.0 * eps;
            let lm = ae.round_trip(&x).mul(&dy).sum();
            ae.encoder.value[j] += eps;
            let fd = (lp - lm) / (2.0 * eps);
            assert_close(genc[j], fd, 2e-2, &format!("ae dE[{j}]"));
        }

        // Decoder gradient (sampled).
        let gdec = ae.decoder.grad.clone();
        for j in (0..gdec.len()).step_by(5) {
            ae.decoder.value[j] += eps;
            let lp = ae.round_trip(&x).mul(&dy).sum();
            ae.decoder.value[j] -= 2.0 * eps;
            let lm = ae.round_trip(&x).mul(&dy).sum();
            ae.decoder.value[j] += eps;
            let fd = (lp - lm) / (2.0 * eps);
            assert_close(gdec[j], fd, 2e-2, &format!("ae dD[{j}]"));
        }
    }

    #[test]
    fn backward_pairs_each_message_with_its_own_code() {
        // Two compresses, then backward with message 1 and then message
        // 0: each gives exactly what a compress/backward pair of its own
        // gives, parameter gradients included, whatever the order.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let xs = [0, 1].map(|_| init::randn(&mut rng, [2, 8], 1.0));
        let dy = init::randn(&mut rng, [2, 8], 1.0);
        let fresh = || AutoEncoder::new(&mut ChaCha8Rng::seed_from_u64(6), 8, 3);
        let grads = |ae: &AutoEncoder| [ae.encoder.grad.clone(), ae.decoder.grad.clone()];

        let mut ae = fresh();
        let msgs = xs.each_ref().map(|x| ae.compress(x));
        for i in [1, 0] {
            ae.visit_params(&mut |p| p.zero_grad());
            let dx = ae.backward(&dy, &xs[i], &msgs[i]);
            let mut paired = fresh();
            let msg = paired.compress(&xs[i]);
            assert_eq!(dx, paired.backward(&dy, &xs[i], &msg), "message {i}");
            assert_eq!(grads(&ae), grads(&paired), "message {i}");
        }
    }

    #[test]
    fn trains_toward_reconstruction() {
        // A linear AE trained with SGD should reduce reconstruction error on
        // a low-rank input distribution.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ae = AutoEncoder::new(&mut rng, 16, 4);
        let basis = init::randn(&mut rng, [4, 16], 1.0);
        let sample = |rng: &mut ChaCha8Rng| {
            let coeff = init::randn(rng, [8, 4], 1.0);
            coeff.matmul(&basis)
        };
        let x0 = sample(&mut rng);
        let e0 = ae.round_trip(&x0).sub(&x0).norm();
        for _ in 0..800 {
            let x = sample(&mut rng);
            ae.visit_params(&mut |p| p.zero_grad());
            let msg = ae.compress(&x);
            let y = ae.decompress(&msg);
            let dy = y.sub(&x).scale(2.0 / x.len() as f32);
            let _ = ae.backward(&dy, &x, &msg);
            ae.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.02, &g);
            });
        }
        let e1 = ae.round_trip(&x0).sub(&x0).norm();
        assert!(e1 < e0 * 0.5, "reconstruction error {e0} -> {e1}");
    }

    #[test]
    #[should_panic(expected = "code dim")]
    fn rejects_expanding_code() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        AutoEncoder::new(&mut rng, 8, 8);
    }
}
