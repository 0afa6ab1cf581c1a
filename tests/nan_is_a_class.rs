//! NaN is a class, not a bit pattern.  Rust fixes no bits for the NaN that
//! arithmetic returns (RFC 3514), so two engines, tiers or kernel ops that
//! compute the same product may return NaNs of different sign or payload.
//! Translation validation compares its witness runs' floats by
//! `finch::same_f64` — equal bits, or both NaN; ±0 stay distinct —
//! so a correct kernel whose inputs hold NaNs of both signs compiles under
//! `ValidationLevel::Full` and computes NaN.

use looplets_repro::finch::build::*;
use looplets_repro::finch::{ExecConfig, Kernel, Tensor, ValidationLevel};

#[test]
fn a_walked_dot_of_nans_of_both_signs_compiles_under_full_validation_and_is_nan() {
    let a = Tensor::sparse_list_vector("A", &[f64::NAN, 1.0, 0.0, 3.0]);
    let b = Tensor::sparse_list_vector("B", &[-f64::NAN, 1.0, 0.0, 2.0]);
    let config = ExecConfig { validation: ValidationLevel::Full, ..ExecConfig::default() };
    let mut kernel = Kernel::with_config(config);
    kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
    let i = idx("i");
    let walked = |name: &str| access(name, [i.walk()]);
    let program = forall(i.clone(), add_assign(scalar("C"), mul(walked("A"), walked("B"))));
    let mut kernel = kernel.compile(&program).expect("a correct kernel compiles");
    kernel.run().expect("the dot runs");
    let c = kernel.output("C").expect("the scalar output");
    assert!(c.len() == 1 && c[0].is_nan(), "{c:?}");
}
