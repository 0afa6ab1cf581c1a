//! Binding tensors to interpreter buffers.
//!
//! Before a tensor can be referenced by generated code, its arrays (`pos`,
//! `idx`, `ofs`, `start`, `tbl`, values) must be registered in the kernel's
//! [`BufferSet`].  [`BoundTensor`] records the resulting [`BufId`]s and the
//! per-level metadata the unfurler needs.

use finch_ir::{BufId, Buffer, BufferSet, Expr, Var};
use finch_looplets::Leaf;

use crate::level::LevelOf;
use crate::tensor::Tensor;

/// The leaf payload produced by unfurling: either the value of the element
/// (innermost level) or the position of the subfiber in the next level.
#[derive(Debug, Clone, PartialEq)]
pub enum UnfurlLeaf {
    /// The element's value as a target-IR expression.
    Value(Expr),
    /// The child position of the subfiber in the next level.
    Subfiber(Expr),
}

impl UnfurlLeaf {
    /// The contained expression, whichever kind it is.
    pub fn expr(&self) -> &Expr {
        match self {
            UnfurlLeaf::Value(e) | UnfurlLeaf::Subfiber(e) => e,
        }
    }
}

impl Leaf for UnfurlLeaf {
    fn substitute_var(&self, var: Var, replacement: &Expr) -> Self {
        match self {
            UnfurlLeaf::Value(e) => UnfurlLeaf::Value(e.substitute(var, replacement)),
            UnfurlLeaf::Subfiber(e) => UnfurlLeaf::Subfiber(e.substitute(var, replacement)),
        }
    }
}

/// One level of a bound tensor: the level's format and size, and the ids of
/// the buffers its arrays are bound to.
pub type BoundLevel = LevelOf<BufId, BufId>;

/// A tensor whose arrays have been registered as interpreter buffers, ready
/// to be unfurled into looplet nests.
#[derive(Debug, Clone)]
pub struct BoundTensor {
    name: String,
    fill: f64,
    levels: Vec<BoundLevel>,
    values: BufId,
}

impl BoundTensor {
    /// Register every array of `tensor` in `bufs` and return the bound
    /// handle.  Buffers are named `"{tensor}_{array}{level}"` so generated
    /// code stays readable (`A_pos1`, `A_idx1`, `A_val`, ...).
    pub fn bind(tensor: &Tensor, bufs: &mut BufferSet) -> Self {
        let name = tensor.name().to_string();
        let levels = tensor.levels().iter().enumerate().map(|(k, level)| {
            level.map(|array, data| bufs.add(&format!("{name}_{array}{k}"), data.to_buffer()))
        });
        let levels = levels.collect();
        let values = bufs.add(&format!("{name}_val"), Buffer::F64(tensor.values().to_vec().into()));
        BoundTensor { name, fill: tensor.fill(), levels, values }
    }

    /// The tensor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.levels.len()
    }

    /// Dimension size of level `k`.
    pub fn dim(&self, k: usize) -> usize {
        self.levels[k].size()
    }

    /// The bound levels.
    pub fn levels(&self) -> &[BoundLevel] {
        &self.levels
    }

    /// The values buffer.
    pub fn values(&self) -> BufId {
        self.values
    }

    /// The fill value this tensor was bound with (baked into the generated
    /// code by [`BoundTensor::fill_expr`], so a rebind must match it).
    pub fn fill(&self) -> f64 {
        self.fill
    }

    /// The fill value as an expression.
    pub fn fill_expr(&self) -> Expr {
        Expr::float(self.fill)
    }

    /// The leaf a level hands to the compiler for a given child position:
    /// the element value for the innermost level, the subfiber position
    /// otherwise.
    pub(crate) fn child_leaf(&self, level: usize, child_pos: Expr) -> UnfurlLeaf {
        if level + 1 == self.levels.len() {
            UnfurlLeaf::Value(Expr::load(self.values, child_pos))
        } else {
            UnfurlLeaf::Subfiber(child_pos)
        }
    }

    /// The value of a zero-dimensional (scalar) tensor.
    pub fn scalar_value(&self) -> Expr {
        Expr::load(self.values, Expr::int(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_registers_named_buffers() {
        let t = Tensor::csr_matrix("A", 2, 4, &[0.0, 1.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let mut bufs = BufferSet::new();
        let b = BoundTensor::bind(&t, &mut bufs);
        assert_eq!(b.ndim(), 2);
        assert_eq!(b.dim(1), 4);
        assert!(bufs.lookup("A_pos1").is_some());
        assert!(bufs.lookup("A_idx1").is_some());
        assert!(bufs.lookup("A_val").is_some());
        assert_eq!(bufs.get(b.values()).len(), 3);
    }

    #[test]
    fn child_leaf_distinguishes_levels() {
        let t = Tensor::csr_matrix("A", 2, 4, &[0.0; 8]);
        let mut bufs = BufferSet::new();
        let b = BoundTensor::bind(&t, &mut bufs);
        assert!(matches!(b.child_leaf(0, Expr::int(1)), UnfurlLeaf::Subfiber(_)));
        assert!(matches!(b.child_leaf(1, Expr::int(1)), UnfurlLeaf::Value(_)));
    }

    #[test]
    fn unfurl_leaf_substitution_reaches_the_expression() {
        let mut names = finch_ir::Names::new();
        let v = names.fresh("p");
        let leaf = UnfurlLeaf::Subfiber(Expr::add(Expr::Var(v), Expr::int(1)));
        let s = leaf.substitute_var(v, &Expr::int(5));
        assert_eq!(s.expr(), &Expr::add(Expr::int(5), Expr::int(1)));
    }

    #[test]
    fn every_level_kind_binds() {
        let data = vec![1.0, 1.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 3.0];
        let tensors = vec![
            Tensor::csr_matrix("a", 3, 3, &data),
            Tensor::vbl_matrix("b", 3, 3, &data),
            Tensor::band_matrix("c", 3, 3, &data),
            Tensor::rle_matrix("d", 3, 3, &data),
            Tensor::packbits_matrix("e", 3, 3, &data),
            Tensor::bitmap_matrix("f", 3, 3, &data),
            Tensor::ragged_matrix("g", 3, 3, &data),
            Tensor::triangular_matrix("h", 3, &data),
            Tensor::symmetric_matrix("i", 3, &data),
        ];
        let mut bufs = BufferSet::new();
        for t in &tensors {
            let b = BoundTensor::bind(t, &mut bufs);
            assert_eq!(b.ndim(), 2);
            assert_eq!(b.name(), t.name());
        }
    }
}
