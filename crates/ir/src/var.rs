//! Variables and the name generator.
//!
//! Every variable in the target IR is identified by a dense integer id that
//! indexes directly into the interpreter's environment.  Human-readable
//! names (with a gensym suffix when needed) are kept in a side table,
//! [`Names`], which the pretty-printer consults.  Because the compiler only
//! ever creates fresh variables, there is no shadowing and scope handling in
//! the interpreter is trivial.

use std::fmt;

/// A variable of the target IR, identified by a dense id.
///
/// Obtain fresh variables from [`Names::fresh`]; ids are only meaningful
/// relative to the [`Names`] table that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The dense index of this variable (used by the interpreter's
    /// environment and the pretty-printer's name table).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// The variable name table and gensym counter.
///
/// ```
/// use finch_ir::Names;
/// let mut names = Names::new();
/// let i = names.fresh("i");
/// let i2 = names.fresh("i");
/// assert_ne!(i, i2);
/// assert_eq!(names.name(i), "i");
/// assert_eq!(names.name(i2), "i_2");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Names {
    names: Vec<String>,
}

impl Names {
    /// Create an empty name table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a fresh variable whose printed name starts with `prefix`.
    ///
    /// The first variable with a given prefix is printed as the prefix
    /// itself; later ones get a `_k` suffix so that generated code remains
    /// readable (matching the paper's `i_1`, `phase_stop`, ... style).  `k`
    /// is one more than the number of existing names that are the prefix or
    /// start with `prefix_`, bumped past any name already taken (a variable
    /// created from the prefix `x_2` is such a name for the prefix `x`), so
    /// printed names are unique: two variables never read as one in the
    /// printed code, the disassembly or an error message, and the golden
    /// listings stay stable.
    pub fn fresh(&mut self, prefix: &str) -> Var {
        let in_family = |n: &str| {
            n.strip_prefix(prefix).is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
        };
        let count = self.names.iter().filter(|n| in_family(n)).count();
        let name = if count == 0 {
            prefix.to_string()
        } else {
            let mut k = count + 1;
            loop {
                let candidate = format!("{prefix}_{k}");
                if !self.names.contains(&candidate) {
                    break candidate;
                }
                k += 1;
            }
        };
        let id = self.names.len() as u32;
        self.names.push(name);
        Var(id)
    }

    /// The printed name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` was created by a different [`Names`] table.
    pub fn name(&self, var: Var) -> &str {
        &self.names[var.index()]
    }

    /// Number of variables created so far (the size the interpreter's
    /// environment must have).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variables have been created yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all variables created so far.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_unique() {
        let mut names = Names::new();
        let a = names.fresh("p");
        let b = names.fresh("p");
        let c = names.fresh("q");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn names_get_gensym_suffixes() {
        let mut names = Names::new();
        let a = names.fresh("i");
        let b = names.fresh("i");
        let c = names.fresh("i");
        assert_eq!(names.name(a), "i");
        assert_eq!(names.name(b), "i_2");
        assert_eq!(names.name(c), "i_3");
    }

    #[test]
    fn a_prefix_that_looks_like_a_suffixed_name_cannot_collide() {
        // `x_2` is counted as a member of the family of `x`, so the second
        // variable of that family used to print `x_2` as well.
        let mut names = Names::new();
        let first = names.fresh("x_2");
        let x = names.fresh("x");
        let x2 = names.fresh("x");
        assert_eq!(names.name(first), "x_2");
        assert_eq!(names.name(x), "x_3", "one family member exists, `x_2` is taken");
        assert_eq!(names.name(x2), "x_4");
        let mut printed: Vec<&str> = names.iter().map(|v| names.name(v)).collect();
        printed.sort_unstable();
        printed.dedup();
        assert_eq!(printed.len(), names.len());
    }

    #[test]
    fn the_counting_rule_is_unchanged_where_nothing_collides() {
        let mut names = Names::new();
        let printed: Vec<String> = ["A_p0", "A_p0", "A_p", "A_p01", "stride", "A_p", "A_p0"]
            .iter()
            .map(|p| {
                let v = names.fresh(p);
                names.name(v).to_string()
            })
            .collect();
        // `A_p` counts `A_p` and `A_p_…` only: `A_p0` is another family.
        assert_eq!(printed, ["A_p0", "A_p0_2", "A_p", "A_p01", "stride", "A_p_2", "A_p0_3"]);
    }

    #[test]
    fn iter_covers_all_vars() {
        let mut names = Names::new();
        let vars: Vec<_> = (0..5).map(|_| names.fresh("x")).collect();
        let listed: Vec<_> = names.iter().collect();
        assert_eq!(vars, listed);
    }

    #[test]
    fn display_uses_index() {
        let mut names = Names::new();
        let v = names.fresh("x");
        assert_eq!(format!("{v}"), "%0");
        assert!(!names.is_empty());
    }
}
