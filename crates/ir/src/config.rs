//! The compile/run configuration, stated once.
//!
//! Everything that selects *how* a lowered program is compiled and executed
//! — the optimisation level, the two bytecode stages that can be switched
//! off, the validation level, the engine and the two budgets — is one plain
//! [`ExecConfig`] value.  The pipeline ([`crate::opt::optimize_and_lower`])
//! reads it, a compiled kernel records it, and a kernel service compiles
//! under one value of it.

use crate::opt::{OptLevel, ValidationLevel};

/// The execution engine a compiled kernel runs on.
///
/// Both engines execute the same lowered IR and maintain identical
/// [`crate::ExecStats`] work counters; they are differential-tested against
/// each other (outputs and counters bit-identical) in the workspace test
/// suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The flat register bytecode VM ([`crate::vm`]).  The default: the
    /// kernel is compiled once to bytecode and runs in a tight dispatch
    /// loop over unboxed typed registers.
    #[default]
    Bytecode,
    /// The tree-walking interpreter ([`crate::interp`]), retained as the
    /// semantics oracle for differential testing.
    TreeWalk,
}

impl Engine {
    /// A short stable label, used by the benchmark harness and its JSON
    /// report (`tree_walk` / `bytecode`).
    pub fn label(self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::TreeWalk => "tree_walk",
        }
    }
}

/// How a program is compiled (`opt`, `typed`, `simd`, `validation`) and how
/// the result is run (`engine`, the two budgets).
///
/// The fields are what was *asked for*; [`ExecConfig::effective`] says what
/// that comes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecConfig {
    /// The optimisation level.
    pub opt: OptLevel,
    /// Whether the register-type inference stage runs and the VM dispatches
    /// monomorphic typed bytecode.  Needs `opt` above [`OptLevel::None`].
    pub typed: bool,
    /// Whether the vectorize stage fuses matching inner loops into kernel
    /// ops.  Needs `typed`.
    pub simd: bool,
    /// How much checking the pass manager performs after every pass.
    pub validation: ValidationLevel,
    /// The engine a run dispatches to.
    pub engine: Engine,
    /// Executed-statement bound of one run, on either engine.
    pub step_budget: Option<u64>,
    /// Bound on the elements one run may append to growable outputs, on
    /// either engine.
    pub alloc_budget: Option<u64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            opt: OptLevel::default(),
            typed: true,
            simd: true,
            validation: ValidationLevel::default(),
            engine: Engine::default(),
            step_budget: None,
            alloc_budget: None,
        }
    }
}

impl ExecConfig {
    /// What this configuration comes to: typed dispatch only above
    /// [`OptLevel::None`], the vectorize stage only over typed bytecode.
    /// Two configurations with equal effective compile-side fields compile
    /// to the same program.
    pub fn effective(&self) -> ExecConfig {
        let typed = self.typed && self.opt != OptLevel::None;
        ExecConfig { typed, simd: self.simd && typed, ..*self }
    }

    /// Whether `other` asks for the same compilation: a kernel compiled
    /// under `self` can run under `other` as it is.
    pub fn compiles_like(&self, other: &ExecConfig) -> bool {
        (self.opt, self.typed, self.simd, self.validation)
            == (other.opt, other.typed, other.simd, other.validation)
    }

    /// The compile-side configurations that differ in effect, everything
    /// else as in `self`: unoptimised, then [`OptLevel::Default`] untyped,
    /// typed scalar, and typed with kernel ops.  What a differential test
    /// has to cover, next to the engines.
    pub fn matrix(&self) -> [ExecConfig; 4] {
        let at = |opt, typed, simd| ExecConfig { opt, typed, simd, ..*self };
        [
            at(OptLevel::None, false, false),
            at(OptLevel::Default, false, false),
            at(OptLevel::Default, true, false),
            at(OptLevel::Default, true, true),
        ]
    }

    /// A stable label naming every field, for divergence reports and test
    /// messages: `bytecode/default/typed=true/simd=true/…`.
    pub fn label(&self) -> String {
        let budget = |b: Option<u64>| b.map_or("none".to_string(), |b| b.to_string());
        format!(
            "{}/{}/typed={}/simd={}/validation={}/steps={}/allocs={}",
            self.engine.label(),
            self.opt.label(),
            self.typed,
            self.simd,
            self.validation.label(),
            budget(self.step_budget),
            budget(self.alloc_budget),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_gates_typing_on_the_level_and_simd_on_typing() {
        let none = ExecConfig { opt: OptLevel::None, ..ExecConfig::default() };
        assert!(none.typed && none.simd, "the request is kept as asked");
        assert!(!none.effective().typed && !none.effective().simd);
        let untyped = ExecConfig { typed: false, ..ExecConfig::default() };
        assert!(!untyped.effective().simd);
        assert_eq!(ExecConfig::default().effective(), ExecConfig::default());
    }

    #[test]
    fn the_matrix_is_the_effectively_distinct_compilations() {
        let base =
            ExecConfig { engine: Engine::TreeWalk, step_budget: Some(9), ..ExecConfig::default() };
        let matrix = base.matrix();
        for (k, a) in matrix.iter().enumerate() {
            assert_eq!(*a, a.effective(), "{}", a.label());
            assert_eq!((a.engine, a.step_budget), (Engine::TreeWalk, Some(9)), "the rest is kept");
            for b in &matrix[k + 1..] {
                assert!(!a.compiles_like(b), "{} vs {}", a.label(), b.label());
            }
        }
        // Every other (level, typed, simd) request comes to one of the four.
        for opt in OptLevel::all() {
            for (typed, simd) in [(false, false), (false, true), (true, false), (true, true)] {
                let asked = ExecConfig { opt, typed, simd, ..base }.effective();
                assert!(matrix.contains(&asked), "{}", asked.label());
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Engine::Bytecode.label(), "bytecode");
        assert_eq!(Engine::TreeWalk.label(), "tree_walk");
        assert_eq!(Engine::default(), Engine::Bytecode);
        let cfg = ExecConfig {
            validation: ValidationLevel::Off,
            step_budget: Some(7),
            ..ExecConfig::default()
        };
        assert_eq!(
            cfg.label(),
            "bytecode/default/typed=true/simd=true/validation=off/steps=7/allocs=none"
        );
    }
}
