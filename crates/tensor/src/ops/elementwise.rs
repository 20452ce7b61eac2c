//! Elementwise arithmetic and broadcasting helpers.

use crate::tensor::Tensor;

/// Elementwise addition of same-shape tensors.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x + y)
}

/// Elementwise subtraction.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x - y)
}

/// Elementwise multiplication.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x * y)
}

/// Multiply every element by a scalar.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    Tensor::build(a.shape().clone(), |out| {
        for (o, &v) in out.iter_mut().zip(a.data()) {
            *o = v * s;
        }
    })
}

/// Add a rank-1 bias over the innermost dimension (broadcast).
pub fn add_bias(a: &Tensor, bias: &Tensor) -> Tensor {
    let inner = *a.dims().last().expect("add_bias requires rank >= 1");
    assert_eq!(bias.dims(), &[inner], "bias must be [{inner}]");
    Tensor::build(a.shape().clone(), |out| {
        for (i, (o, &v)) in out.iter_mut().zip(a.data()).enumerate() {
            *o = v + bias.data()[i % inner];
        }
    })
}

fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
    Tensor::build(a.shape().clone(), |out| {
        for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
            *o = f(x, y);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![0.5, 0.5, 0.5]);
        assert_eq!(sub(&add(&a, &b), &b), a);
    }

    #[test]
    fn mul_and_scale_agree() {
        let a = Tensor::from_vec([2], vec![3.0, 4.0]);
        let twos = Tensor::full([2], 2.0);
        assert_eq!(mul(&a, &twos), scale(&a, 2.0));
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let a = Tensor::zeros([2, 3]);
        let bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let y = add_bias(&a, &bias);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        add(&Tensor::zeros([2]), &Tensor::zeros([3]));
    }
}
