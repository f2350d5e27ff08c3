//! Joints over many variables. A conditioning set of `k` attributes makes
//! a `2 + k`-variable joint, and `k` is user-controlled (`--k`, the v2
//! `top_k` override), so the marginal entropies must not cap the number
//! of variables.

use nexus_info::{InfoContext, JointCounts};
use nexus_table::Codes;

/// `n` rows of a variable cycling through `card` values with period
/// `card * stride`.
fn var(n: usize, card: u32, stride: usize) -> Codes {
    Codes {
        codes: (0..n)
            .map(|i| ((i / stride) % card as usize) as u32)
            .collect(),
        cardinality: card,
        validity: None,
    }
}

#[test]
fn cmi_with_fifteen_conditioning_variables() {
    let n = 512;
    let x = var(n, 2, 1);
    let y = var(n, 2, 1);
    let z: Vec<Codes> = (0..15).map(|j| var(n, 2, 1 << (j % 9))).collect();
    let refs: Vec<&Codes> = z.iter().collect();
    let cmi = InfoContext::default().cmi_mm(&x, &y, &refs);
    // `z[0]` equals `x`, so nothing is left to explain.
    assert!(cmi.is_finite() && cmi.abs() < 1e-9, "cmi {cmi}");
}

#[test]
fn marginals_of_a_seventeen_variable_joint() {
    let n = 256;
    let vars: Vec<Codes> = (0..17).map(|j| var(n, 2, 1 << (j % 8))).collect();
    let refs: Vec<&Codes> = vars.iter().collect();
    let joint = JointCounts::count(&refs, None, None);
    // Variables 0..8 have distinct strides, so their joint is uniform
    // over 2^8 cells; 8..16 repeat them.
    let (h, cells) = joint.marginal_entropy_and_cells(&[0, 1, 2, 3, 4, 5, 6, 7, 16]);
    assert_eq!(cells, 256);
    assert!((h - 8.0).abs() < 1e-12, "h {h}");
    let last = joint.marginal_entropy_and_cells(&[16]);
    assert_eq!(last.1, 2);
    assert!((last.0 - 1.0).abs() < 1e-12);
}

#[test]
fn marginals_beyond_u64_keys_with_many_variables() {
    // 17 variables of cardinality 16: a 2^68 key space takes the u128
    // marginal path.
    let n = 64;
    let vars: Vec<Codes> = (0..17).map(|j| var(n, 16, 1 + j % 2)).collect();
    let refs: Vec<&Codes> = vars.iter().collect();
    let joint = JointCounts::count(&refs, None, None);
    let (h, cells) = joint.marginal_entropy_and_cells(&[0, 16]);
    assert_eq!(cells, 16);
    assert!((h - 4.0).abs() < 1e-12, "h {h}");
}
