//! Loss functions returning `(loss, dlogits)` pairs.

use actcomp_tensor::{workspace, Tensor};

/// Mean softmax cross-entropy over rows of `[n, classes]` logits.
///
/// Returns the scalar loss and the gradient with respect to the logits
/// (already divided by `n`, so it can be fed straight into backward). The
/// gradient is assembled in a single buffer leased from this thread's
/// default workspace: copy of the probabilities, label subtraction, and
/// `1/n` scaling in place.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of rows or any label is
/// out of range.
///
/// # Examples
///
/// ```
/// use actcomp_nn::loss::softmax_cross_entropy;
/// use actcomp_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![10.0, -10.0], [1, 2]);
/// let (loss, _grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 1e-4); // confidently correct
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(
        logits.rank(),
        2,
        "logits must be rank 2, got {}",
        logits.shape()
    );
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), n, "{} labels for {n} rows", labels.len());
    let probs = logits.softmax_rows();
    let mut loss = 0.0f32;
    workspace::with_thread_default(|ws| {
        let mut grad = ws.lease(n * c);
        grad.copy_from_slice(probs.as_slice());
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            loss -= probs.as_slice()[i * c + y].max(1e-12).ln();
            grad[i * c + y] -= 1.0;
        }
        let inv_n = 1.0 / n as f32;
        for g in &mut grad {
            *g *= inv_n;
        }
        ws.recycle_tensor(probs);
        (loss * inv_n, Tensor::from_vec(grad, [n, c]))
    })
}

/// Masked mean softmax cross-entropy: rows whose `labels[i]` is `None` are
/// ignored (the MLM objective masks most positions).
///
/// Returns `(loss, dlogits)`; if no position is labelled, the loss is zero
/// and the gradient is all zeros.
///
/// # Panics
///
/// Panics on shape mismatch or out-of-range labels.
pub fn masked_cross_entropy(logits: &Tensor, labels: &[Option<usize>]) -> (f32, Tensor) {
    assert_eq!(logits.rank(), 2, "logits must be rank 2");
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), n, "{} labels for {n} rows", labels.len());
    let count = labels.iter().flatten().count();
    if count == 0 {
        return (0.0, Tensor::zeros_like(logits));
    }
    let probs = logits.softmax_rows();
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros_like(logits);
    for (i, lab) in labels.iter().enumerate() {
        if let Some(y) = lab {
            assert!(*y < c, "label {y} out of range for {c} classes");
            loss -= probs.as_slice()[i * c + y].max(1e-12).ln();
            for j in 0..c {
                grad.as_mut_slice()[i * c + j] = probs.as_slice()[i * c + j];
            }
            grad.as_mut_slice()[i * c + y] -= 1.0;
        }
    }
    let inv = 1.0 / count as f32;
    (loss * inv, grad.scale(inv))
}

/// Mean squared error between `[n, 1]` predictions and targets.
///
/// Returns `(loss, dpred)`.
///
/// # Panics
///
/// Panics if `targets.len()` differs from the number of predictions.
pub fn mse(pred: &Tensor, targets: &[f32]) -> (f32, Tensor) {
    assert_eq!(
        pred.len(),
        targets.len(),
        "{} predictions for {} targets",
        pred.len(),
        targets.len()
    );
    let n = targets.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros_like(pred);
    for i in 0..targets.len() {
        let d = pred[i] - targets[i];
        loss += d * d;
        grad[i] = 2.0 * d / n;
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros([2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient sums to zero per row.
        assert!(grad.sum_axis1().norm() < 1e-6);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -0.3, 1.2, 0.1, 0.9, -0.7], [2, 3]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for j in 0..logits.len() {
            let mut lp = logits.clone();
            lp[j] += eps;
            let mut lm = logits.clone();
            lm[j] -= eps;
            let fp = softmax_cross_entropy(&lp, &labels).0;
            let fm = softmax_cross_entropy(&lm, &labels).0;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((grad[j] - fd).abs() < 1e-3, "j={j}: {} vs {fd}", grad[j]);
        }
    }

    #[test]
    fn masked_cross_entropy_ignores_unlabelled() {
        let logits = Tensor::from_vec(vec![5.0, -5.0, 0.0, 0.0], [2, 2]);
        let (loss, grad) = masked_cross_entropy(&logits, &[Some(0), None]);
        assert!(loss < 1e-3);
        assert_eq!(&grad.as_slice()[2..], &[0.0, 0.0]);
    }

    #[test]
    fn masked_cross_entropy_all_masked() {
        let logits = Tensor::ones([2, 3]);
        let (loss, grad) = masked_cross_entropy(&logits, &[None, None]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.norm(), 0.0);
    }

    #[test]
    fn mse_known_values() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let (loss, grad) = mse(&pred, &[0.0, 2.0]);
        assert!((loss - 0.5).abs() < 1e-6);
        assert!((grad[0] - 1.0).abs() < 1e-6);
        assert_eq!(grad[1], 0.0);
    }
}
