//! The Euclidean distance and norm on feature vectors, squared and not
//! (Section 3.1 uses the Euclidean distance throughout the paper's
//! experiments): sequential sums, which the matching uses above the lane
//! width of [`crate::simd`].

#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Euclidean norm of a vector — the weight function `w_ω` of Definition 7
/// with `ω = 0` (the paper's choice: the origin "has the shortest average
/// distance within the position and has no volume").
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Squared Euclidean norm (weight function for the permutation-distance
/// instantiation of the matching distance).
#[inline]
pub fn sq_norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::check_metric_axioms;
    use proptest::prelude::*;

    #[test]
    fn known_values() {
        let a = [0.0, 0.0, 0.0];
        let b = [3.0, 4.0, 0.0];
        assert_eq!(euclidean(&a, &b), 5.0);
        assert_eq!(sq_euclidean(&a, &b), 25.0);
        assert_eq!(norm(&b), 5.0);
        assert_eq!(sq_norm(&b), 25.0);
    }

    proptest! {
        #[test]
        fn lp_metric_axioms(vals in proptest::collection::vec(-100.0f64..100.0, 12)) {
            let sample: Vec<Vec<f64>> = vals.chunks(3).map(|c| c.to_vec()).collect();
            let refs: Vec<&[f64]> = sample.iter().map(|v| v.as_slice()).collect();
            for (i, a) in refs.iter().enumerate() {
                prop_assert!(euclidean(a, a).abs() < 1e-9);
                for b in &refs {
                    prop_assert!((euclidean(a, b) - euclidean(b, a)).abs() < 1e-9);
                    for c in &refs {
                        prop_assert!(euclidean(a, b) <= euclidean(a, c) + euclidean(c, b) + 1e-9,
                            "triangle violated at sample {i}");
                    }
                }
            }
        }

        #[test]
        fn squared_euclidean_is_square_of_euclidean(
            a in proptest::collection::vec(-10.0f64..10.0, 6),
            b in proptest::collection::vec(-10.0f64..10.0, 6),
        ) {
            let d = euclidean(&a, &b);
            prop_assert!((sq_euclidean(&a, &b) - d * d).abs() < 1e-9);
        }
    }

    #[test]
    fn trait_objects_dispatch() {
        let d: &dyn crate::Distance<[f64]> = &euclidean;
        assert_eq!(d.distance(&[0.0], &[2.0]), 2.0);
        let sample = [vec![0.0, 1.0], vec![3.0, -1.0], vec![2.0, 2.0]];
        check_metric_axioms(&|a: &Vec<f64>, b: &Vec<f64>| euclidean(a, b), &sample, 1e-12).unwrap();
    }
}
