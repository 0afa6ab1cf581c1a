//! Scalar runtime values.
//!
//! The target IR is dynamically typed over a small universe of scalars:
//! 64-bit integers (also used for indices and positions), 64-bit floats,
//! booleans, and the special `Missing` value introduced by the paper's
//! `permit` index modifier (§8).  `Missing` propagates through every
//! arithmetic operation and is only eliminated by `coalesce`.

use std::fmt;

use crate::error::RuntimeError;
use crate::expr::{BinOp, UnOp};

/// Whether two floats are the same value: equal bits, or both NaN.  Rust
/// fixes no bits for the NaN that arithmetic returns (RFC 3514), so no
/// engine, tier or kernel op can promise a NaN's sign or payload; `-0.0` and
/// `0.0`, which every engine produces alike, stay distinct.
pub fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A scalar runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer (also used for indices and positions).
    Int(i64),
    /// A 64-bit IEEE float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// The out-of-bounds marker produced by the `permit` index modifier.
    ///
    /// `Missing` propagates: `f(x, Missing) == Missing` for every operator
    /// except `coalesce`, which returns its first non-missing argument.
    Missing,
}

/// The "kind" (runtime type) of a [`Value`], used for buffer allocation and
/// error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// The missing marker.
    Missing,
}

impl Value {
    /// The kind of this value.
    pub fn kind(self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Bool(_) => ValueKind::Bool,
            Value::Missing => ValueKind::Missing,
        }
    }

    /// Is this the `Missing` marker?
    pub fn is_missing(self) -> bool {
        matches!(self, Value::Missing)
    }

    /// Is this value a numeric (or boolean) zero?
    ///
    /// This is the annihilator test used by the zero-annihilation rewrite
    /// rules: `Int(0)`, `Float(0.0)` and `Bool(false)` all count as zero.
    pub fn is_zero(self) -> bool {
        match self {
            Value::Int(x) => x == 0,
            Value::Float(x) => x == 0.0,
            Value::Bool(b) => !b,
            Value::Missing => false,
        }
    }

    /// Is this value a multiplicative identity (`1`, `1.0`, or `true`)?
    pub fn is_one(self) -> bool {
        match self {
            Value::Int(x) => x == 1,
            Value::Float(x) => x == 1.0,
            Value::Bool(b) => b,
            Value::Missing => false,
        }
    }

    /// Interpret the value as an integer, used for indices and positions.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::TypeMismatch`] when the value is `Missing` or
    /// a non-integral float.
    pub fn as_int(self) -> Result<i64, RuntimeError> {
        match self {
            Value::Int(x) => Ok(x),
            Value::Bool(b) => Ok(b as i64),
            Value::Float(x) if x.fract() == 0.0 => Ok(x as i64),
            other => Err(RuntimeError::TypeMismatch { expected: "integer", found: other.kind() }),
        }
    }

    /// Interpret the value as a float.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::TypeMismatch`] when the value is `Missing`.
    pub fn as_float(self) -> Result<f64, RuntimeError> {
        match self {
            Value::Int(x) => Ok(x as f64),
            Value::Float(x) => Ok(x),
            Value::Bool(b) => Ok(if b { 1.0 } else { 0.0 }),
            Value::Missing => {
                Err(RuntimeError::TypeMismatch { expected: "float", found: ValueKind::Missing })
            }
        }
    }

    /// Interpret the value as a boolean.
    ///
    /// Numbers are truthy when nonzero, mirroring the paper's use of `&&`
    /// over pattern matrices in the triangle-counting kernel.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::TypeMismatch`] when the value is `Missing`.
    pub fn as_bool(self) -> Result<bool, RuntimeError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Int(x) => Ok(x != 0),
            Value::Float(x) => Ok(x != 0.0),
            Value::Missing => {
                Err(RuntimeError::TypeMismatch { expected: "bool", found: ValueKind::Missing })
            }
        }
    }

    /// The identity element of a reduction operator, used when initialising
    /// `where`-bound result tensors.
    pub fn identity_of(op: BinOp) -> Value {
        match op {
            BinOp::Add | BinOp::Sub => Value::Float(0.0),
            BinOp::Mul | BinOp::Div => Value::Float(1.0),
            BinOp::Min => Value::Float(f64::INFINITY),
            BinOp::Max => Value::Float(f64::NEG_INFINITY),
            BinOp::Or => Value::Bool(false),
            BinOp::And => Value::Bool(true),
            _ => Value::Float(0.0),
        }
    }

    /// Apply a binary operator to two values, promoting `Int` to `Float`
    /// where needed and propagating `Missing`.
    ///
    /// # Errors
    ///
    /// Returns an error when operand kinds are incompatible (e.g. dividing
    /// by a boolean buffer handle) — in practice only when the compiler has
    /// emitted ill-typed code, which the test suite treats as a bug.
    pub fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
        use BinOp::*;
        if a.is_missing() || b.is_missing() {
            return Ok(Value::Missing);
        }
        // Comparison and logical operators produce booleans.
        match op {
            Eq => return Ok(Value::Bool(Self::loose_eq(a, b))),
            Ne => return Ok(Value::Bool(!Self::loose_eq(a, b))),
            Lt | Le | Gt | Ge => {
                let (x, y) = (a.as_float()?, b.as_float()?);
                let r = match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                };
                return Ok(Value::Bool(r));
            }
            And => return Ok(Value::Bool(a.as_bool()? && b.as_bool()?)),
            Or => return Ok(Value::Bool(a.as_bool()? || b.as_bool()?)),
            _ => {}
        }
        // Arithmetic: stay integral when both operands are integral.
        if let (Value::Int(x), Value::Int(y)) = (a, b) {
            let r = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(RuntimeError::DivisionByZero);
                    }
                    x / y
                }
                Min => x.min(y),
                Max => x.max(y),
                _ => unreachable!("comparison handled above"),
            };
            return Ok(Value::Int(r));
        }
        let (x, y) = (a.as_float()?, b.as_float()?);
        let r = match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Min => x.min(y),
            Max => x.max(y),
            _ => unreachable!("comparison handled above"),
        };
        Ok(Value::Float(r))
    }

    /// Apply a unary operator to a value, propagating `Missing`.  Integer
    /// negation and absolute value wrap on `i64::MIN`, like the integer
    /// arithmetic of [`Value::binop`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::TypeMismatch`] for ill-typed operands.
    pub fn unop(op: UnOp, a: Value) -> Result<Value, RuntimeError> {
        if a.is_missing() {
            return Ok(Value::Missing);
        }
        Ok(match op {
            UnOp::Neg => match a {
                Value::Int(x) => Value::Int(x.wrapping_neg()),
                other => Value::Float(-other.as_float()?),
            },
            UnOp::Not => Value::Bool(!a.as_bool()?),
            UnOp::Abs => match a {
                Value::Int(x) => Value::Int(x.wrapping_abs()),
                other => Value::Float(other.as_float()?.abs()),
            },
            UnOp::Sqrt => Value::Float(a.as_float()?.sqrt()),
            UnOp::Round => Value::Float(a.as_float()?.round().clamp(0.0, 255.0)),
        })
    }

    fn loose_eq(a: Value, b: Value) -> bool {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            _ => match (a.as_float(), b.as_float()) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Float(0.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Bool(b) => write!(f, "{b}"),
            Value::Missing => write!(f, "missing"),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Bool => "bool",
            ValueKind::Missing => "missing",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_propagates_through_binops() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Lt, BinOp::And, BinOp::Max] {
            let r = Value::binop(op, Value::Missing, Value::Float(3.0)).unwrap();
            assert!(r.is_missing(), "{op:?} should propagate missing");
            let r = Value::binop(op, Value::Int(1), Value::Missing).unwrap();
            assert!(r.is_missing(), "{op:?} should propagate missing (rhs)");
        }
    }

    #[test]
    fn missing_propagates_through_unops() {
        for op in [UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Round] {
            assert!(Value::unop(op, Value::Missing).unwrap().is_missing());
        }
    }

    #[test]
    fn integer_negation_and_abs_wrap_like_binop_in_both_profiles() {
        // `-x` and `abs(x)` overflow on `i64::MIN` only; like `binop`'s
        // `wrapping_add` / `_sub` / `_mul` they wrap — the same answer with
        // and without debug assertions, never a panic.
        for op in [UnOp::Neg, UnOp::Abs] {
            assert_eq!(Value::unop(op, Value::Int(i64::MIN)).unwrap(), Value::Int(i64::MIN));
        }
        assert_eq!(Value::unop(UnOp::Neg, Value::Int(i64::MAX)).unwrap(), Value::Int(-i64::MAX));
        assert_eq!(Value::unop(UnOp::Abs, Value::Int(-7)).unwrap(), Value::Int(7));
        let wrapped = Value::binop(BinOp::Sub, Value::Int(0), Value::Int(i64::MIN)).unwrap();
        assert_eq!(wrapped, Value::unop(UnOp::Neg, Value::Int(i64::MIN)).unwrap());
    }

    #[test]
    fn integer_arithmetic_stays_integral() {
        let r = Value::binop(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap();
        assert_eq!(r, Value::Int(5));
        let r = Value::binop(BinOp::Min, Value::Int(2), Value::Int(3)).unwrap();
        assert_eq!(r, Value::Int(2));
        let r = Value::binop(BinOp::Max, Value::Int(2), Value::Int(3)).unwrap();
        assert_eq!(r, Value::Int(3));
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        let r = Value::binop(BinOp::Mul, Value::Int(2), Value::Float(1.5)).unwrap();
        assert_eq!(r, Value::Float(3.0));
    }

    #[test]
    fn comparisons_produce_booleans() {
        assert_eq!(
            Value::binop(BinOp::Lt, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binop(BinOp::Eq, Value::Float(2.0), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binop(BinOp::Ge, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn zero_and_one_tests() {
        assert!(Value::Int(0).is_zero());
        assert!(Value::Float(0.0).is_zero());
        assert!(Value::Bool(false).is_zero());
        assert!(!Value::Missing.is_zero());
        assert!(Value::Int(1).is_one());
        assert!(Value::Float(1.0).is_one());
        assert!(Value::Bool(true).is_one());
    }

    #[test]
    fn division_by_integer_zero_errors() {
        let err = Value::binop(BinOp::Div, Value::Int(1), Value::Int(0)).unwrap_err();
        assert!(matches!(err, RuntimeError::DivisionByZero));
    }

    #[test]
    fn identities_match_reduction_ops() {
        assert!(Value::identity_of(BinOp::Add).is_zero());
        assert!(Value::identity_of(BinOp::Mul).is_one());
        assert_eq!(Value::identity_of(BinOp::Min), Value::Float(f64::INFINITY));
        assert_eq!(Value::identity_of(BinOp::Or), Value::Bool(false));
    }

    #[test]
    fn round_clamps_to_u8_range_like_the_alpha_blend_kernel() {
        assert_eq!(Value::unop(UnOp::Round, Value::Float(300.2)).unwrap(), Value::Float(255.0));
        assert_eq!(Value::unop(UnOp::Round, Value::Float(-3.0)).unwrap(), Value::Float(0.0));
        assert_eq!(Value::unop(UnOp::Round, Value::Float(7.6)).unwrap(), Value::Float(8.0));
    }

    #[test]
    fn display_is_nonempty() {
        for v in [Value::Int(3), Value::Float(2.5), Value::Bool(true), Value::Missing] {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert_eq!(Value::Float(4.0).as_int().unwrap(), 4);
        assert!(Value::Float(4.5).as_int().is_err());
    }
}
