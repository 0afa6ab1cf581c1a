//! The interpreter (virtual machine) that executes lowered target IR.
//!
//! The original Finch implementation splices generated Julia code into the
//! host program and relies on Julia's JIT.  This reproduction executes the
//! generated IR with a straightforward tree-walking interpreter.  The
//! interpreter additionally maintains [`ExecStats`], machine-independent work
//! counters, so the asymptotic claims of the paper (e.g. "the looplet code
//! skips to the start of the block") can be verified exactly in unit tests
//! instead of only being inferred from wall-clock time.

use crate::buffer::{AllocMeter, BufId, BufferSet};
use crate::error::RuntimeError;
use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::value::Value;
use crate::var::{Names, Var};
use crate::vm::Watch;

/// Machine-independent work counters accumulated during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of statements executed.
    pub stmts: u64,
    /// Number of loop-body iterations executed (`for` and `while` bodies).
    pub loop_iters: u64,
    /// Number of buffer loads.
    pub loads: u64,
    /// Number of buffer stores.
    pub stores: u64,
    /// Number of binary searches performed by `seek` functions.
    pub searches: u64,
}

impl ExecStats {
    /// Total of all counters; a coarse proxy for "work performed".
    pub fn total_work(&self) -> u64 {
        self.stmts + self.loads + self.stores + self.searches
    }
}

/// A tree-walking interpreter for the target IR.
///
/// The interpreter owns the variable environment; buffers are passed in at
/// [`Interpreter::run`] so the same program can be executed repeatedly
/// against different data.
#[derive(Debug, Clone)]
pub struct Interpreter {
    env: Vec<Option<Value>>,
    var_names: Vec<String>,
    stats: ExecStats,
    step_budget: Option<u64>,
    watch: Option<Watch>,
    alloc: AllocMeter,
}

impl Interpreter {
    /// Create an interpreter sized for the variables in `names`.
    pub fn new(names: &Names) -> Self {
        Interpreter {
            env: vec![None; names.len()],
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            stats: ExecStats::default(),
            step_budget: None,
            watch: None,
            alloc: AllocMeter::default(),
        }
    }

    /// Limit the number of executed statements; exceeding the budget aborts
    /// execution with [`RuntimeError::StepBudgetExceeded`].  Used by tests
    /// to guard against non-terminating generated code.
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Set or clear the cooperative [`Watch`] (deadline / cancellation),
    /// checked on the same statement path as the step budget — mirroring
    /// [`crate::vm::Vm::set_watch`] so both engines fault identically.
    pub fn set_watch(&mut self, watch: Option<Watch>) {
        self.watch = watch;
    }

    /// Set or clear the output-allocation element budget, charged one unit
    /// per appended element exactly like the VM.
    pub fn set_alloc_budget(&mut self, budget: Option<u64>) {
        self.alloc.set_budget(budget);
    }

    /// Elements appended to growable outputs since the last reset.
    pub fn allocs(&self) -> u64 {
        self.alloc.used()
    }

    /// The work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Reset the work counters, the allocation meter, and the variable
    /// environment.
    pub fn reset(&mut self) {
        self.stats = ExecStats::default();
        self.alloc.reset();
        self.env.iter_mut().for_each(|v| *v = None);
    }

    /// Execute a program against the given buffers.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on out-of-bounds accesses, type errors, or
    /// when the step budget is exceeded.
    pub fn run(&mut self, stmts: &[Stmt], bufs: &mut BufferSet) -> Result<(), RuntimeError> {
        for s in stmts {
            self.exec(s, bufs)?;
        }
        Ok(())
    }

    fn bump(&mut self) -> Result<(), RuntimeError> {
        self.stats.stmts += 1;
        if let Some(budget) = self.step_budget {
            if self.stats.stmts > budget {
                return Err(RuntimeError::StepBudgetExceeded { budget });
            }
        }
        if let Some(watch) = &self.watch {
            watch.check(self.stats.stmts)?;
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &Stmt, bufs: &mut BufferSet) -> Result<(), RuntimeError> {
        self.bump()?;
        match stmt {
            Stmt::Comment(_) => Ok(()),
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let v = self.eval(init, bufs)?;
                self.env[var.index()] = Some(v);
                Ok(())
            }
            Stmt::Store { buf, index, value, reduce } => {
                let idx = self.eval(index, bufs)?.as_int()?;
                let val = self.eval(value, bufs)?;
                self.check_bounds(*buf, idx, bufs)?;
                self.stats.stores += 1;
                bufs.get_mut(*buf).store(idx as usize, val, *reduce)
            }
            Stmt::Append { buf, value } => {
                let val = self.eval(value, bufs)?;
                self.stats.stores += 1;
                self.alloc.charge(1)?;
                bufs.get_mut(*buf).push(val)
            }
            Stmt::FiberEnd { pos, data } => {
                let end = bufs.get(*data).len() as i64;
                self.stats.stores += 1;
                self.alloc.charge(1)?;
                bufs.get_mut(*pos).push(Value::Int(end))
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let c = self.eval(cond, bufs)?;
                // A missing condition (possible under `permit`) selects the
                // else branch, matching `coalesce`-style defaulting.
                let taken = if c.is_missing() { false } else { c.as_bool()? };
                let branch = if taken { then_branch } else { else_branch };
                for s in branch {
                    self.exec(s, bufs)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                loop {
                    let c = self.eval(cond, bufs)?.as_bool()?;
                    if !c {
                        break;
                    }
                    self.stats.loop_iters += 1;
                    for s in body {
                        self.exec(s, bufs)?;
                    }
                }
                Ok(())
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.eval(lo, bufs)?.as_int()?;
                let hi = self.eval(hi, bufs)?.as_int()?;
                let mut i = lo;
                while i <= hi {
                    self.stats.loop_iters += 1;
                    self.env[var.index()] = Some(Value::Int(i));
                    for s in body {
                        self.exec(s, bufs)?;
                    }
                    i += 1;
                }
                Ok(())
            }
            Stmt::Block(body) => {
                for s in body {
                    self.exec(s, bufs)?;
                }
                Ok(())
            }
        }
    }

    fn check_bounds(&self, buf: BufId, idx: i64, bufs: &BufferSet) -> Result<(), RuntimeError> {
        let len = bufs.get(buf).len();
        if idx < 0 || idx as usize >= len {
            return Err(RuntimeError::OutOfBounds {
                buffer: bufs.name(buf).to_string(),
                index: idx,
                len,
            });
        }
        Ok(())
    }

    /// Evaluate a pure expression in the current environment.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on unbound variables, out-of-bounds loads,
    /// or type errors.
    pub fn eval(&mut self, expr: &Expr, bufs: &BufferSet) -> Result<Value, RuntimeError> {
        match expr {
            Expr::Lit(v) => Ok(*v),
            Expr::Var(v) => self.read_var(*v),
            Expr::Load { buf, index } => {
                let idx = self.eval(index, bufs)?;
                if idx.is_missing() {
                    // Accessing an array at a missing index yields missing
                    // (paper §8: `A[missing] = missing`).
                    return Ok(Value::Missing);
                }
                let idx = idx.as_int()?;
                self.check_bounds(*buf, idx, bufs)?;
                self.stats.loads += 1;
                Ok(bufs.get(*buf).load(idx as usize))
            }
            Expr::Unary { op, arg } => {
                let a = self.eval(arg, bufs)?;
                Value::unop(*op, a)
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, bufs)?;
                // `&&` and `||` short-circuit, matching the semantics of the
                // source languages the generated code is modelled on (and
                // protecting guarded loads like `q < end && idx[q] == j`).
                if !a.is_missing() {
                    match op {
                        crate::expr::BinOp::And if !a.as_bool()? => return Ok(Value::Bool(false)),
                        crate::expr::BinOp::Or if a.as_bool()? => return Ok(Value::Bool(true)),
                        _ => {}
                    }
                }
                let b = self.eval(rhs, bufs)?;
                Value::binop(*op, a, b)
            }
            Expr::Select { cond, then, otherwise } => {
                let c = self.eval(cond, bufs)?;
                let taken = if c.is_missing() { false } else { c.as_bool()? };
                if taken {
                    self.eval(then, bufs)
                } else {
                    self.eval(otherwise, bufs)
                }
            }
            Expr::Coalesce(args) => {
                for a in args.iter() {
                    let v = self.eval(a, bufs)?;
                    if !v.is_missing() {
                        return Ok(v);
                    }
                }
                Ok(Value::Missing)
            }
            Expr::Search { buf, lo, hi, key, on_abs } => {
                let lo = self.eval(lo, bufs)?.as_int()?;
                let hi = self.eval(hi, bufs)?.as_int()?;
                let key = self.eval(key, bufs)?.as_int()?;
                self.stats.searches += 1;
                self.binary_search(*buf, lo, hi, key, *on_abs, bufs)
            }
        }
    }

    fn read_var(&self, var: Var) -> Result<Value, RuntimeError> {
        self.env[var.index()].ok_or_else(|| RuntimeError::UnboundVariable {
            name: self.var_names.get(var.index()).cloned().unwrap_or_else(|| format!("{var}")),
        })
    }

    /// Lower-bound search over `buf[lo..=hi]`: the first position `p`
    /// with `buf[p] >= key`, or `hi + 1` when every element is smaller.
    /// Delegates to the shared galloping search ([`crate::seek`]) so both
    /// engines perform the identical (counted) probe sequence.
    fn binary_search(
        &mut self,
        buf: BufId,
        lo: i64,
        hi: i64,
        key: i64,
        on_abs: bool,
        bufs: &BufferSet,
    ) -> Result<Value, RuntimeError> {
        let (pos, probes) = crate::seek::lower_bound(bufs, buf, lo, hi, key, on_abs)?;
        self.stats.loads += probes;
        Ok(Value::Int(pos))
    }

    /// Read the current value of a variable after execution (useful in
    /// tests and for debugging generated code).
    pub fn var_value(&self, var: Var) -> Option<Value> {
        self.env.get(var.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::expr::BinOp;

    fn setup() -> (Names, BufferSet) {
        (Names::new(), BufferSet::new())
    }

    #[test]
    fn for_loop_sums_a_buffer() {
        let (mut names, mut bufs) = setup();
        let x = bufs.add("x", Buffer::F64(vec![1.0, 2.0, 3.0, 4.0].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(3),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let mut interp = Interpreter::new(&names);
        interp.run(&prog, &mut bufs).unwrap();
        assert_eq!(bufs.get(out).load(0), Value::Float(10.0));
        assert_eq!(interp.stats().loop_iters, 4);
        assert_eq!(interp.stats().stores, 4);
    }

    #[test]
    fn while_loop_with_variable_updates() {
        let (mut names, mut bufs) = setup();
        let p = names.fresh("p");
        let acc = names.fresh("acc");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::Let { var: acc, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(5)),
                body: vec![
                    Stmt::Assign { var: acc, value: Expr::add(Expr::Var(acc), Expr::Var(p)) },
                    Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) },
                ],
            },
        ];
        let mut interp = Interpreter::new(&names);
        interp.run(&prog, &mut bufs).unwrap();
        assert_eq!(interp.var_value(acc), Some(Value::Int(10)));
    }

    #[test]
    fn empty_for_loop_does_not_execute() {
        let (mut names, mut bufs) = setup();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(5),
            hi: Expr::int(2),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::int(1),
                reduce: None,
            }],
        }];
        let mut interp = Interpreter::new(&names);
        interp.run(&prog, &mut bufs).unwrap();
        assert_eq!(bufs.get(out).load(0), Value::Int(0));
        assert_eq!(interp.stats().loop_iters, 0);
    }

    #[test]
    fn append_and_fiber_end_assemble_a_sparse_fiber() {
        // for i in 0..=3 { if x[i] != 0 { idx.push(i); val.push(x[i]) } }
        // pos.push(idx.len())
        let (mut names, mut bufs) = setup();
        let x = bufs.add("x", Buffer::F64(vec![0.0, 1.5, 0.0, 2.0].into()));
        let pos = bufs.add("C_pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("C_idx", Buffer::I64(vec![].into()));
        let val = bufs.add("C_val", Buffer::F64(vec![].into()));
        let i = names.fresh("i");
        let prog = vec![
            Stmt::For {
                var: i,
                lo: Expr::int(0),
                hi: Expr::int(3),
                body: vec![Stmt::if_then(
                    Expr::binary(BinOp::Ne, Expr::load(x, Expr::Var(i)), Expr::float(0.0)),
                    vec![
                        Stmt::Append { buf: idx, value: Expr::Var(i) },
                        Stmt::Append { buf: val, value: Expr::load(x, Expr::Var(i)) },
                    ],
                )],
            },
            Stmt::FiberEnd { pos, data: idx },
        ];
        let mut interp = Interpreter::new(&names);
        interp.run(&prog, &mut bufs).unwrap();
        assert_eq!(bufs.get(pos).as_i64(), Some(&[0, 2][..]));
        assert_eq!(bufs.get(idx).as_i64(), Some(&[1, 3][..]));
        assert_eq!(bufs.get(val).as_f64(), Some(&[1.5, 2.0][..]));
        // 2 idx appends + 2 val appends + 1 fiber end, each counted a store.
        assert_eq!(interp.stats().stores, 5);
    }

    #[test]
    fn appending_missing_is_an_error() {
        let (names, mut bufs) = setup();
        let idx = bufs.add("idx", Buffer::I64(vec![].into()));
        let prog = vec![Stmt::Append { buf: idx, value: Expr::missing() }];
        let mut interp = Interpreter::new(&names);
        let err = interp.run(&prog, &mut bufs).unwrap_err();
        assert!(matches!(err, RuntimeError::UnexpectedMissing { .. }));
    }

    #[test]
    fn out_of_bounds_load_is_reported_with_buffer_name() {
        let (mut names, mut bufs) = setup();
        let x = bufs.add("vals", Buffer::F64(vec![1.0].into()));
        let v = names.fresh("v");
        let prog = vec![Stmt::Let { var: v, init: Expr::load(x, Expr::int(7)) }];
        let mut interp = Interpreter::new(&names);
        let err = interp.run(&prog, &mut bufs).unwrap_err();
        match err {
            RuntimeError::OutOfBounds { buffer, index, len } => {
                assert_eq!(buffer, "vals");
                assert_eq!(index, 7);
                assert_eq!(len, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let (mut names, mut bufs) = setup();
        let a = names.fresh("a");
        let b = names.fresh("b");
        let prog = vec![Stmt::Let { var: a, init: Expr::Var(b) }];
        let mut interp = Interpreter::new(&names);
        let err = interp.run(&prog, &mut bufs).unwrap_err();
        assert!(matches!(err, RuntimeError::UnboundVariable { .. }));
    }

    #[test]
    fn step_budget_catches_infinite_loops() {
        let (names, mut bufs) = setup();
        let prog =
            vec![Stmt::While { cond: Expr::bool(true), body: vec![Stmt::Comment("spin".into())] }];
        let mut interp = Interpreter::new(&names).with_step_budget(1000);
        let err = interp.run(&prog, &mut bufs).unwrap_err();
        assert!(matches!(err, RuntimeError::StepBudgetExceeded { .. }));
    }

    #[test]
    fn binary_search_finds_lower_bound() {
        let (names, mut bufs) = setup();
        let idx = bufs.add("idx", Buffer::I64(vec![1, 4, 4, 9, 12].into()));
        let mut interp = Interpreter::new(&names);
        let search = |interp: &mut Interpreter, bufs: &BufferSet, key: i64| {
            interp
                .eval(&Expr::search(idx, Expr::int(0), Expr::int(4), Expr::int(key), false), bufs)
                .unwrap()
                .as_int()
                .unwrap()
        };
        assert_eq!(search(&mut interp, &bufs, 0), 0);
        assert_eq!(search(&mut interp, &bufs, 1), 0);
        assert_eq!(search(&mut interp, &bufs, 2), 1);
        assert_eq!(search(&mut interp, &bufs, 4), 1);
        assert_eq!(search(&mut interp, &bufs, 10), 4);
        assert_eq!(search(&mut interp, &bufs, 13), 5);
        assert!(interp.stats().searches >= 6);
    }

    #[test]
    fn binary_search_on_abs_handles_negative_markers() {
        // PackBits stores literal-region boundaries as negative coordinates.
        let (names, mut bufs) = setup();
        let idx = bufs.add("idx", Buffer::I64(vec![3, -6, 8, -11].into()));
        let mut interp = Interpreter::new(&names);
        let v = interp
            .eval(&Expr::search(idx, Expr::int(0), Expr::int(3), Expr::int(7), true), &bufs)
            .unwrap();
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn coalesce_returns_first_non_missing() {
        let (names, bufs) = setup();
        let mut interp = Interpreter::new(&names);
        let e = Expr::coalesce(vec![Expr::missing(), Expr::float(5.0), Expr::float(7.0)]);
        assert_eq!(interp.eval(&e, &bufs).unwrap(), Value::Float(5.0));
        let e = Expr::coalesce(vec![Expr::missing(), Expr::missing()]);
        assert!(interp.eval(&e, &bufs).unwrap().is_missing());
    }

    #[test]
    fn load_at_missing_index_is_missing() {
        let (names, mut bufs) = setup();
        let x = bufs.add("x", Buffer::F64(vec![1.0].into()));
        let mut interp = Interpreter::new(&names);
        let e = Expr::load(x, Expr::missing());
        assert!(interp.eval(&e, &bufs).unwrap().is_missing());
    }

    #[test]
    fn select_with_missing_condition_takes_else_branch() {
        let (names, bufs) = setup();
        let mut interp = Interpreter::new(&names);
        let e = Expr::select(Expr::missing(), Expr::int(1), Expr::int(2));
        assert_eq!(interp.eval(&e, &bufs).unwrap(), Value::Int(2));
    }

    #[test]
    fn reset_clears_stats_and_env() {
        let (mut names, mut bufs) = setup();
        let a = names.fresh("a");
        let prog = vec![Stmt::Let { var: a, init: Expr::int(1) }];
        let mut interp = Interpreter::new(&names);
        interp.run(&prog, &mut bufs).unwrap();
        assert!(interp.stats().stmts > 0);
        interp.reset();
        assert_eq!(interp.stats(), ExecStats::default());
        assert_eq!(interp.var_value(a), None);
    }
}
