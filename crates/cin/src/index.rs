//! Index variables, tensor references, protocols and index modifiers.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::expr::CinExpr;

/// A surface-level index variable (`i`, `j`, ...).
///
/// Index variables are identified by name; the compiler maps them to
/// target-IR loop variables during lowering.  The name is shared: a clone
/// is a reference bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexVar(Arc<str>);

impl IndexVar {
    /// Create an index variable with the given name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        IndexVar(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Access through this index with the galloping (leader) protocol.
    pub fn gallop(&self) -> IndexExpr {
        IndexExpr::Var { index: self.clone(), protocol: Protocol::Gallop }
    }

    /// Access through this index with the walking (follower) protocol.
    pub fn walk(&self) -> IndexExpr {
        IndexExpr::Var { index: self.clone(), protocol: Protocol::Walk }
    }

    /// Access through this index with the locate (random access) protocol.
    pub fn locate(&self) -> IndexExpr {
        IndexExpr::Var { index: self.clone(), protocol: Protocol::Locate }
    }
}

impl fmt::Display for IndexVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A reference to a tensor by name.  The compiler resolves names to bound
/// formats at compile time.  The name is shared: a clone is a reference
/// bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorRef(Arc<str>);

impl TensorRef {
    /// Create a tensor reference with the given name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        TensorRef(name.into())
    }

    /// The tensor's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TensorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A map keyed by tensor references can be queried with a plain name
/// (equality, order and hash are the name's).
impl Borrow<str> for TensorRef {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TensorRef {
    fn from(s: &str) -> Self {
        TensorRef::new(s)
    }
}

impl From<String> for TensorRef {
    fn from(s: String) -> Self {
        TensorRef::new(s)
    }
}

/// The access protocol requested for one mode of an access (paper §7).
///
/// The same level format can be traversed in several ways; the protocol
/// annotation selects which looplet nest the format unfurls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// Let the format choose its natural protocol (dense levels locate,
    /// sparse levels walk).
    #[default]
    Default,
    /// Iterate over stored entries in ascending order, following other
    /// iterators (lowered through a `Stepper` nest of `finch-looplets`).
    Walk,
    /// Iterate over stored entries but lead the coiteration, skipping ahead
    /// with binary search (lowered through a `Jumper` nest; merging two
    /// galloping lists yields the mutual-lookahead intersection).
    Gallop,
    /// Random access by index (lowered through a `Lookup` nest).
    Locate,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Default => "default",
            Protocol::Walk => "walk",
            Protocol::Gallop => "gallop",
            Protocol::Locate => "locate",
        };
        f.write_str(s)
    }
}

/// An index expression: an index variable possibly wrapped by modifiers
/// (paper §8).
#[derive(Debug, Clone, PartialEq)]
pub enum IndexExpr {
    /// A plain index variable with a protocol annotation.
    Var {
        /// The index variable.
        index: IndexVar,
        /// The requested protocol.
        protocol: Protocol,
    },
    /// `offset(delta)[i]`: access the parent at `i - delta`, i.e. shift the
    /// parent's coordinate system forward by `delta`.
    Offset {
        /// The shift amount.
        delta: CinExpr,
        /// The wrapped index expression.
        base: Box<IndexExpr>,
    },
    /// `window(lo, hi)[i]`: access the slice `lo..=hi` of the parent; the
    /// mode's dimension becomes `0..=hi-lo`.
    Window {
        /// Inclusive start of the slice (in parent coordinates).
        lo: CinExpr,
        /// Inclusive end of the slice.
        hi: CinExpr,
        /// The wrapped index expression.
        base: Box<IndexExpr>,
    },
    /// `permit[i]`: allow out-of-bounds access; out-of-bounds elements read
    /// as `missing` (eliminated by `coalesce`).
    Permit {
        /// The wrapped index expression.
        base: Box<IndexExpr>,
    },
}

impl IndexExpr {
    /// The index variable at the core of this expression.
    pub fn index_var(&self) -> &IndexVar {
        match self {
            IndexExpr::Var { index, .. } => index,
            IndexExpr::Offset { base, .. }
            | IndexExpr::Window { base, .. }
            | IndexExpr::Permit { base } => base.index_var(),
        }
    }

    /// The protocol annotation at the core of this expression.
    pub fn protocol(&self) -> Protocol {
        match self {
            IndexExpr::Var { protocol, .. } => *protocol,
            IndexExpr::Offset { base, .. }
            | IndexExpr::Window { base, .. }
            | IndexExpr::Permit { base } => base.protocol(),
        }
    }

    /// Wrap with `offset(delta)`.
    pub fn offset(self, delta: CinExpr) -> IndexExpr {
        IndexExpr::Offset { delta, base: Box::new(self) }
    }

    /// Wrap with `window(lo, hi)`.
    pub fn window(self, lo: CinExpr, hi: CinExpr) -> IndexExpr {
        IndexExpr::Window { lo, hi, base: Box::new(self) }
    }

    /// Wrap with `permit`.
    pub fn permit(self) -> IndexExpr {
        IndexExpr::Permit { base: Box::new(self) }
    }
}

impl From<IndexVar> for IndexExpr {
    fn from(index: IndexVar) -> Self {
        IndexExpr::Var { index, protocol: Protocol::Default }
    }
}

impl From<&IndexVar> for IndexExpr {
    fn from(index: &IndexVar) -> Self {
        IndexExpr::Var { index: index.clone(), protocol: Protocol::Default }
    }
}

/// An access into a tensor: `A[i, offset(2)[j], permit[k]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The accessed tensor.
    pub tensor: TensorRef,
    /// One index expression per mode, outermost first.
    pub indices: Vec<IndexExpr>,
}

impl Access {
    /// Create an access.
    pub fn new(tensor: impl Into<TensorRef>, indices: Vec<IndexExpr>) -> Self {
        Access { tensor: tensor.into(), indices }
    }

    /// Number of modes accessed.
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// The index variables of this access, outermost first.
    pub fn index_vars(&self) -> Vec<IndexVar> {
        self.indices.iter().map(|e| e.index_var().clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_selectors_on_index_vars() {
        let i = IndexVar::new("i");
        assert_eq!(i.gallop().protocol(), Protocol::Gallop);
        assert_eq!(i.walk().protocol(), Protocol::Walk);
        assert_eq!(i.locate().protocol(), Protocol::Locate);
        assert_eq!(IndexExpr::from(i.clone()).protocol(), Protocol::Default);
        assert_eq!(i.gallop().index_var(), &i);
    }

    #[test]
    fn modifiers_preserve_the_inner_variable_and_protocol() {
        let j = IndexVar::new("j");
        let e = j.gallop().offset(CinExpr::int(2)).permit();
        assert_eq!(e.index_var().name(), "j");
        assert_eq!(e.protocol(), Protocol::Gallop);
        let w = IndexExpr::from(&j).window(CinExpr::int(3), CinExpr::int(5));
        assert_eq!(w.index_var(), &j);
    }

    #[test]
    fn access_reports_rank_and_vars() {
        let i = IndexVar::new("i");
        let j = IndexVar::new("j");
        let a = Access::new("A", vec![i.clone().into(), j.clone().into()]);
        assert_eq!(a.rank(), 2);
        assert_eq!(a.index_vars(), vec![i, j]);
        assert_eq!(a.tensor.name(), "A");
    }

    #[test]
    fn tensor_ref_conversions() {
        let t: TensorRef = "B".into();
        assert_eq!(t.name(), "B");
        let t: TensorRef = String::from("C").into();
        assert_eq!(format!("{t}"), "C");
    }
}
