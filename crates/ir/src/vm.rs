//! The register VM that executes compiled [`Program`]s.
//!
//! Where the tree-walker re-traverses `Stmt`/`Expr` nodes and keeps its
//! environment as `Vec<Option<Value>>`, the VM runs a flat instruction
//! stream over an *unboxed* register file: parallel int/float/bool lanes
//! selected by a one-byte tag, so the hot loop never allocates and scalar
//! fast paths skip [`Value`] dispatch entirely.
//!
//! The VM maintains [`ExecStats`] identically to the interpreter — same
//! counters, same increments in the same places — so the two engines can be
//! differential-tested for bit-identical outputs *and* work counters (see
//! `tests/proptests.rs` at the workspace root).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::buffer::{AlignedVec, AllocMeter, BufId, Buffer, BufferSet};
use crate::bytecode::{
    Gather, Guard, Instr, LaneTag, MergeForm, Out, Product, Program, Reg, Step, StepCounts, Term,
    VAcc, VBase, VCost, VFill, VRhs, VScale,
};
use crate::error::RuntimeError;
use crate::expr::BinOp;
use crate::interp::ExecStats;
use crate::value::{Value, ValueKind};
use crate::var::Var;

/// `$body` with `$f` bound to `op`'s float arithmetic ([`Vm::float_arith`])
/// as a closure of a constant op: the `match` on `op` sits outside whatever
/// loop `$body` runs, and each arm's loop is native.
macro_rules! per_op {
    ($op:expr, $f:ident => $body:expr) => {
        per_op!($op, $f => $body; Add Sub Mul Div Min Max)
    };
    ($op:expr, $f:ident => $body:expr; $($name:ident)*) => {
        match $op {
            $(BinOp::$name => {
                let $f = |x: f64, y: f64| Vm::float_arith(BinOp::$name, x, y);
                $body
            })*
            other => unreachable!("{other:?} is not a typed float arithmetic op"),
        }
    };
}

/// Cooperative interruption, checked on the same statement path as the
/// step budget: an externally-armed cancellation flag, an absolute
/// wall-clock deadline, or both.  Tripping either aborts the run with the
/// typed [`RuntimeError::Deadline`]; buffers stay reusable exactly as
/// after a step-budget abort (the next run truncates them in place).
///
/// The flag is shared (`Arc`), so a service can arm one flag to stop a
/// request wherever it is executing.  Both engines look at the watch at
/// the same statements: the flag on a run's first statement and at every
/// [`Watch::TIME_CHECK_PERIOD`] multiple, the clock at every multiple.  A
/// flag raised before the run trips its first statement; one raised
/// mid-run trips within a period, a few microseconds of VM work.  In
/// between nothing is looked at, so a run under a watch that never trips
/// takes the same paths, kernel ops and all, as a run without one.
#[derive(Debug, Clone, Default)]
pub struct Watch {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    ms: u64,
    /// Fault-injection hook: panic once execution reaches this statement
    /// count — lets a test harness provoke a genuine mid-execution panic
    /// (buffers mid-append) without instrumenting generated code.
    fault_stmt: Option<u64>,
}

impl Watch {
    /// Statements between two looks at the flag and the clock (a power of
    /// two, so that the test is a shift).
    pub const TIME_CHECK_PERIOD: u64 = 1024;

    /// A watch that trips when `cancel` is set; `ms` is reported in the
    /// resulting [`RuntimeError::Deadline`].
    pub fn cancelled_by(cancel: Arc<AtomicBool>, ms: u64) -> Self {
        Watch { cancel: Some(cancel), deadline: None, ms, fault_stmt: None }
    }

    /// A watch that trips once the wall clock reaches `deadline`; `ms` is
    /// reported in the resulting [`RuntimeError::Deadline`].
    pub fn until(deadline: Instant, ms: u64) -> Self {
        Watch { cancel: None, deadline: Some(deadline), ms, fault_stmt: None }
    }

    /// Attach a cancellation flag to an existing watch.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Arm the fault-injection hook: the run panics at the first statement
    /// check at or past `stmt` (test harness use only).
    pub fn with_fault_at_stmt(mut self, stmt: u64) -> Self {
        self.fault_stmt = Some(stmt);
        self
    }

    /// The largest statement count, at or past `stmts`, through which
    /// [`Watch::check`] is known to do nothing: short of an injected fault
    /// and of the next statement that looks at the flag or the clock.  At
    /// a run's start it looks at the flag itself, for the run's first
    /// statement: raised, that statement trips; down, it has nothing to
    /// check, and every watched run is spared a call to [`Vm::account`].
    fn quiet_until(&self, stmts: u64) -> u64 {
        let mut quiet = u64::MAX;
        if let Some(at) = self.fault_stmt {
            quiet = quiet.min(at.saturating_sub(1).max(stmts));
        }
        let raised = || self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed));
        if stmts == 0 && raised() {
            quiet = 0;
        } else if self.cancel.is_some() || self.deadline.is_some() {
            let next_check =
                (stmts / Self::TIME_CHECK_PERIOD + 1).saturating_mul(Self::TIME_CHECK_PERIOD);
            quiet = quiet.min(next_check - 1);
        }
        quiet
    }

    /// The statement-path check the tree-walker calls on every statement:
    /// panics at an armed injection point, otherwise trips
    /// [`RuntimeError::Deadline`] on cancellation (the first statement and
    /// every [`Watch::TIME_CHECK_PERIOD`] multiple) or deadline expiry
    /// (every multiple).
    #[inline]
    pub(crate) fn check(&self, stmts: u64) -> Result<(), RuntimeError> {
        if let Some(at) = self.fault_stmt.filter(|&at| stmts >= at) {
            panic!("injected fault: panic at statement {at}");
        }
        if self.trips([stmts, stmts], &mut None) {
            Err(RuntimeError::Deadline { ms: self.ms })
        } else {
            Ok(())
        }
    }

    /// Whether [`Watch::check`] panics or trips at any of the statements
    /// `first..=last` (`first` at least 1), without doing either: what a
    /// kernel op asks of the statements it would count.  `passed` keeps the
    /// clock's answer once read, so that one kernel op reads it at most
    /// once, all of its work running after.
    #[inline]
    fn trips(&self, [first, last]: [u64; 2], passed: &mut Option<bool>) -> bool {
        let period = last / Self::TIME_CHECK_PERIOD > (first - 1) / Self::TIME_CHECK_PERIOD;
        self.fault_stmt.is_some_and(|at| last >= at)
            || (period || first == 1)
                && self.cancel.as_ref().is_some_and(|cancel| cancel.load(Ordering::Relaxed))
            || period
                && self.deadline.is_some_and(|deadline| {
                    *passed.get_or_insert_with(|| Instant::now() >= deadline)
                })
    }
}

/// The runtime type tag of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    /// Never written (reading it is an unbound-variable error).
    Unset,
    /// The int lane holds the value.
    Int,
    /// The float lane holds the value.
    Float,
    /// The bool lane holds the value.
    Bool,
    /// The `missing` marker (no lane payload).
    Missing,
}

/// The result of an unboxed fast-path binary operation, before it is
/// written into a register lane.
#[derive(Debug, Clone, Copy)]
enum Computed {
    /// Integer result.
    Int(i64),
    /// Float result.
    Float(f64),
    /// Boolean result (comparisons and logic).
    Bool(bool),
}

/// A register virtual machine for compiled bytecode.
///
/// The VM owns the register file; buffers are passed to [`Vm::run`] so the
/// same program can execute repeatedly against different data — mirroring
/// [`crate::interp::Interpreter`]'s API.
#[derive(Debug, Clone)]
pub struct Vm {
    pub(crate) tags: Vec<Tag>,
    pub(crate) ints: Vec<i64>,
    pub(crate) floats: Vec<f64>,
    pub(crate) bools: Vec<bool>,
    pub(crate) stats: ExecStats,
    pub(crate) step_budget: Option<u64>,
    pub(crate) watch: Option<Watch>,
    pub(crate) alloc: AllocMeter,
    /// The largest `stats.stmts` at which nothing needs looking at: short
    /// of the step budget, an injected fault and the watch's next look at
    /// its flag or its clock ([`Watch::quiet_until`]).  The dispatch loop
    /// compares against this one number and leaves everything else to
    /// [`Vm::account`]; the kernel ops take what ends under it.  Derived
    /// state: recomputed on every dispatch entry and after every check.
    check_limit: u64,
}

impl Vm {
    /// Create a VM with a register file sized for `program`.
    pub fn new(program: &Program) -> Self {
        let n = program.num_regs();
        Vm {
            tags: vec![Tag::Unset; n],
            ints: vec![0; n],
            floats: vec![0.0; n],
            bools: vec![false; n],
            stats: ExecStats::default(),
            step_budget: None,
            watch: None,
            alloc: AllocMeter::default(),
            check_limit: u64::MAX,
        }
    }

    /// Limit the number of executed statements; exceeding the budget aborts
    /// execution with [`RuntimeError::StepBudgetExceeded`].
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Set or clear the step budget in place (used by the persistent VM
    /// that `finch`'s `CompiledKernel` keeps across reruns).
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.step_budget = budget;
    }

    /// Set or clear the cooperative [`Watch`] (deadline / cancellation),
    /// checked on the same statement path as the step budget.
    pub fn set_watch(&mut self, watch: Option<Watch>) {
        self.watch = watch;
    }

    /// Set or clear the output-allocation element budget; exceeding it
    /// aborts execution with [`RuntimeError::AllocBudgetExceeded`].
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

    /// Reset the work counters, the allocation meter, and the register
    /// file.
    pub fn reset(&mut self) {
        self.stats = ExecStats::default();
        self.alloc.reset();
        self.tags.iter_mut().for_each(|t| *t = Tag::Unset);
    }

    /// Read the current value of a variable after execution (useful in
    /// tests and for debugging generated code).
    pub fn var_value(&self, var: Var) -> Option<Value> {
        self.get(Reg(var.index() as u32))
    }

    #[inline]
    fn get(&self, r: Reg) -> Option<Value> {
        let i = r.index();
        match self.tags[i] {
            Tag::Unset => None,
            Tag::Int => Some(Value::Int(self.ints[i])),
            Tag::Float => Some(Value::Float(self.floats[i])),
            Tag::Bool => Some(Value::Bool(self.bools[i])),
            Tag::Missing => Some(Value::Missing),
        }
    }

    #[inline(always)]
    fn value(&self, r: Reg, program: &Program) -> Result<Value, RuntimeError> {
        self.get(r).ok_or_else(|| RuntimeError::UnboundVariable { name: program.reg_name(r) })
    }

    #[inline]
    fn set(&mut self, r: Reg, v: Value) {
        let i = r.index();
        match v {
            Value::Int(x) => {
                self.tags[i] = Tag::Int;
                self.ints[i] = x;
            }
            Value::Float(x) => {
                self.tags[i] = Tag::Float;
                self.floats[i] = x;
            }
            Value::Bool(b) => {
                self.tags[i] = Tag::Bool;
                self.bools[i] = b;
            }
            Value::Missing => self.tags[i] = Tag::Missing,
        }
    }

    #[inline]
    fn set_int(&mut self, r: Reg, x: i64) {
        let i = r.index();
        self.tags[i] = Tag::Int;
        self.ints[i] = x;
    }

    #[inline]
    fn set_float(&mut self, r: Reg, x: f64) {
        let i = r.index();
        self.tags[i] = Tag::Float;
        self.floats[i] = x;
    }

    #[inline]
    fn set_bool(&mut self, r: Reg, b: bool) {
        let i = r.index();
        self.tags[i] = Tag::Bool;
        self.bools[i] = b;
    }

    /// Truthiness of a register, `None` when missing (strict callers turn
    /// that into a type error, lenient callers into `false`).
    #[inline]
    fn truthy(&self, r: Reg, program: &Program) -> Result<Option<bool>, RuntimeError> {
        let i = r.index();
        Ok(match self.tags[i] {
            Tag::Bool => Some(self.bools[i]),
            Tag::Int => Some(self.ints[i] != 0),
            Tag::Float => Some(self.floats[i] != 0.0),
            Tag::Missing => None,
            Tag::Unset => return Err(RuntimeError::UnboundVariable { name: program.reg_name(r) }),
        })
    }

    fn check_bounds(buf: BufId, idx: i64, bufs: &BufferSet) -> Result<(), RuntimeError> {
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

    /// Execute a compiled program against the given buffers.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on out-of-bounds accesses, type errors, or
    /// when the step budget is exceeded — the same faults, in the same
    /// order, as the tree-walking interpreter.
    pub fn run(&mut self, program: &Program, bufs: &mut BufferSet) -> Result<(), RuntimeError> {
        self.apply_pretags(program);
        self.dispatch::<false>(program, bufs, &mut [])
    }

    /// Execute the program while counting how many times each instruction
    /// (by its absolute pc) was dispatched.  The returned vector is
    /// indexed by pc; the benchmark harness uses it to compute the
    /// executed-typed-instruction fraction, `tests/isa_reach.rs` the
    /// dispatches per opcode.
    /// Semantics and [`ExecStats`] are identical to [`Vm::run`] — only
    /// the (untimed) bookkeeping differs.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Vm::run`].
    pub fn run_profiled(
        &mut self,
        program: &Program,
        bufs: &mut BufferSet,
    ) -> Result<Vec<u64>, RuntimeError> {
        let mut counts = vec![0u64; program.code().len()];
        self.apply_pretags(program);
        self.dispatch::<true>(program, bufs, &mut counts)?;
        Ok(counts)
    }

    /// Pin the tags of statically-typed registers ([`Program::pretags`])
    /// so the typed instructions can skip tag maintenance entirely while
    /// generic instructions reading those registers still observe a
    /// correct tag.  Sound because the typing pass only pretags registers
    /// that are written with this one type on every path and never read
    /// while possibly unset.
    fn apply_pretags(&mut self, program: &Program) {
        for &(r, t) in program.pretags() {
            self.tags[r.index()] = match t {
                LaneTag::Int => Tag::Int,
                LaneTag::Float => Tag::Float,
                LaneTag::Bool => Tag::Bool,
            };
        }
    }

    /// The dispatch loop, monomorphised over whether per-pc execution
    /// counts are collected (so the hot non-profiled path pays nothing).
    fn dispatch<const PROFILE: bool>(
        &mut self,
        program: &Program,
        bufs: &mut BufferSet,
        counts: &mut [u64],
    ) -> Result<(), RuntimeError> {
        let (code, steps) = (program.code(), &program.steps[..]);
        let folded = program.stmt_bump();
        assert_eq!(folded.len(), code.len(), "one folded statement count per instruction");
        self.rearm_limits();
        let mut pc = 0;
        while pc < code.len() {
            let instr = &code[pc];
            if PROFILE {
                counts[pc] += 1;
            }
            // The statements `finalize` folded onto this instruction.
            self.bump_stmts(folded[pc] as u64)?;
            match *instr {
                Instr::BumpStmt => {
                    self.bump_stmts(1)?;
                    pc += 1;
                }
                Instr::Const { dst, cidx } => {
                    self.set(dst, program.consts()[cidx as usize]);
                    pc += 1;
                }
                Instr::Mov { dst, src } => {
                    let (d, s) = (dst.index(), src.index());
                    if self.tags[s] == Tag::Unset {
                        return Err(RuntimeError::UnboundVariable { name: program.reg_name(src) });
                    }
                    self.tags[d] = self.tags[s];
                    self.ints[d] = self.ints[s];
                    self.floats[d] = self.floats[s];
                    self.bools[d] = self.bools[s];
                    pc += 1;
                }
                Instr::Load { dst, buf, idx } => {
                    let v = self.load_value(buf, idx, program, bufs)?;
                    self.set(dst, v);
                    pc += 1;
                }
                Instr::CoerceInt { reg } => {
                    let i = reg.index();
                    match self.tags[i] {
                        Tag::Int => {}
                        Tag::Bool => {
                            self.ints[i] = self.bools[i] as i64;
                            self.tags[i] = Tag::Int;
                        }
                        Tag::Float if self.floats[i].fract() == 0.0 => {
                            self.ints[i] = self.floats[i] as i64;
                            self.tags[i] = Tag::Int;
                        }
                        Tag::Float => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "integer",
                                found: ValueKind::Float,
                            })
                        }
                        Tag::Missing => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "integer",
                                found: ValueKind::Missing,
                            })
                        }
                        Tag::Unset => {
                            return Err(RuntimeError::UnboundVariable {
                                name: program.reg_name(reg),
                            })
                        }
                    }
                    pc += 1;
                }
                Instr::Store { buf, idx, val, reduce } => {
                    let at = self.ints[idx.index()];
                    Self::check_bounds(buf, at, bufs)?;
                    self.stats.stores += 1;
                    let vi = val.index();
                    // Fast path: float value into a float buffer under an
                    // arithmetic reduction — the common accumulator shape.
                    let arith = matches!(
                        reduce,
                        None | Some(
                            BinOp::Add
                                | BinOp::Sub
                                | BinOp::Mul
                                | BinOp::Div
                                | BinOp::Min
                                | BinOp::Max
                        )
                    );
                    if self.tags[vi] == Tag::Float && arith {
                        if let Buffer::F64(data) = bufs.get_mut(buf) {
                            let x = self.floats[vi];
                            let slot = &mut data[at as usize];
                            match reduce {
                                None => *slot = x,
                                Some(op) => *slot = Self::float_arith(op, *slot, x),
                            }
                            pc += 1;
                            continue;
                        }
                    }
                    let v = self.value(val, program)?;
                    bufs.get_mut(buf).store(at as usize, v, reduce)?;
                    pc += 1;
                }
                Instr::Append { buf, val } => {
                    self.stats.stores += 1;
                    self.alloc.charge(1)?;
                    let vi = val.index();
                    // Fast paths for the two lane types sparse assembly
                    // appends (coordinates and values); everything else
                    // defers to the boxed push for identical semantics.
                    match (self.tags[vi], bufs.get_mut(buf)) {
                        (Tag::Int, Buffer::I64(data)) => data.push(self.ints[vi]),
                        (Tag::Float, Buffer::F64(data)) => data.push(self.floats[vi]),
                        (_, other) => {
                            let v = self.value(val, program)?;
                            other.push(v)?;
                        }
                    }
                    pc += 1;
                }
                Instr::FiberEnd { pos, data } => {
                    self.stats.stores += 1;
                    self.alloc.charge(1)?;
                    let end = bufs.get(data).len() as i64;
                    bufs.get_mut(pos).push(Value::Int(end))?;
                    pc += 1;
                }
                Instr::Unary { op, dst, src } => {
                    let a = self.value(src, program)?;
                    self.set(dst, Value::unop(op, a)?);
                    pc += 1;
                }
                Instr::Binary { op, dst, lhs, rhs } => {
                    self.binary(op, dst, lhs, rhs, program)?;
                    pc += 1;
                }
                Instr::Jump { target } => pc = target as usize,
                Instr::JumpIfFalse { src, target, strict } => {
                    match self.truthy(src, program)? {
                        Some(true) => pc += 1,
                        Some(false) => pc = target as usize,
                        // A missing condition selects the else branch
                        // (coalesce-style defaulting), unless the construct
                        // demands a real boolean.
                        None if strict => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "bool",
                                found: ValueKind::Missing,
                            })
                        }
                        None => pc = target as usize,
                    }
                }
                Instr::JumpIfTrue { src, target } => match self.truthy(src, program)? {
                    Some(true) => pc = target as usize,
                    _ => pc += 1,
                },
                Instr::JumpIfMissing { src, target } => {
                    if self.tags[src.index()] == Tag::Missing {
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instr::JumpIfNotMissing { src, target } => {
                    if self.tags[src.index()] == Tag::Missing {
                        pc += 1;
                    } else {
                        pc = target as usize;
                    }
                }
                Instr::WhileTest { cond, end } => match self.truthy(cond, program)? {
                    Some(true) => {
                        self.stats.loop_iters += 1;
                        pc += 1;
                    }
                    Some(false) => pc = end as usize,
                    None => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "bool",
                            found: ValueKind::Missing,
                        })
                    }
                },
                Instr::ForTest { counter, hi, var, end } => {
                    let i = self.ints[counter.index()];
                    if i <= self.ints[hi.index()] {
                        self.stats.loop_iters += 1;
                        self.set_int(var, i);
                        pc += 1;
                    } else {
                        pc = end as usize;
                    }
                }
                Instr::ForStep { counter, test } => {
                    self.ints[counter.index()] = self.ints[counter.index()].wrapping_add(1);
                    pc = test as usize;
                }
                Instr::Seek { dst, buf, lo, hi, key, on_abs } => {
                    let lo = self.ints[lo.index()];
                    let hi = self.ints[hi.index()];
                    let key = self.ints[key.index()];
                    self.stats.searches += 1;
                    let pos = self.binary_search(buf, lo, hi, key, on_abs, bufs)?;
                    self.set_int(dst, pos);
                    pc += 1;
                }
                Instr::BinaryImm { op, dst, lhs, cidx } => {
                    let imm = program.consts()[cidx as usize];
                    self.binary_imm(op, dst, lhs, imm, program)?;
                    pc += 1;
                }
                Instr::LoadBinary { op, dst, lhs, buf, idx } => {
                    // The load half first, with the exact semantics (and
                    // error order) of a standalone `Load`.
                    let loaded = self.load_value(buf, idx, program, bufs)?;
                    self.binary_imm(op, dst, lhs, loaded, program)?;
                    pc += 1;
                }
                Instr::CmpBranch { op, lhs, rhs, target, strict } => {
                    match self.compare(op, lhs, rhs, program)? {
                        Some(true) => pc += 1,
                        Some(false) => pc = target as usize,
                        None if strict => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "bool",
                                found: ValueKind::Missing,
                            })
                        }
                        None => pc = target as usize,
                    }
                }
                Instr::CmpBranchImm { op, lhs, cidx, target, strict } => {
                    let imm = program.consts()[cidx as usize];
                    match self.compare_imm(op, lhs, imm, program)? {
                        Some(true) => pc += 1,
                        Some(false) => pc = target as usize,
                        None if strict => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "bool",
                                found: ValueKind::Missing,
                            })
                        }
                        None => pc = target as usize,
                    }
                }
                Instr::WhileCmp { op, lhs, rhs, end } => {
                    match self.compare(op, lhs, rhs, program)? {
                        Some(true) => {
                            self.stats.loop_iters += 1;
                            pc += 1;
                        }
                        Some(false) => pc = end as usize,
                        None => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "bool",
                                found: ValueKind::Missing,
                            })
                        }
                    }
                }
                Instr::WhileCmpImm { op, lhs, cidx, end } => {
                    let imm = program.consts()[cidx as usize];
                    match self.compare_imm(op, lhs, imm, program)? {
                        Some(true) => {
                            self.stats.loop_iters += 1;
                            pc += 1;
                        }
                        Some(false) => pc = end as usize,
                        None => {
                            return Err(RuntimeError::TypeMismatch {
                                expected: "bool",
                                found: ValueKind::Missing,
                            })
                        }
                    }
                }

                // ---- Monomorphic typed instructions: unboxed lanes, no
                // ---- tag reads or writes (register tags are pinned by
                // ---- `apply_pretags`), identical ExecStats.
                Instr::Nop => pc += 1,
                Instr::ConstI { dst, imm } => {
                    self.ints[dst.index()] = imm;
                    pc += 1;
                }
                Instr::ConstF { dst, imm } => {
                    self.floats[dst.index()] = imm;
                    pc += 1;
                }
                Instr::IMov { dst, src } => {
                    self.ints[dst.index()] = self.ints[src.index()];
                    pc += 1;
                }
                Instr::LoadI64 { dst, buf, idx } => {
                    let at = self.ints[idx.index()];
                    match bufs.get(buf) {
                        Buffer::I64(data) if at >= 0 && (at as usize) < data.len() => {
                            self.stats.loads += 1;
                            self.ints[dst.index()] = data[at as usize];
                        }
                        _ => {
                            Self::check_bounds(buf, at, bufs)?;
                            // Kind drift (a rebound buffer): generic load.
                            let v = self.load_value(buf, idx, program, bufs)?;
                            self.set(dst, v);
                        }
                    }
                    pc += 1;
                }
                Instr::LoadF64 { dst, buf, idx } => {
                    let at = self.ints[idx.index()];
                    match bufs.get(buf) {
                        Buffer::F64(data) if at >= 0 && (at as usize) < data.len() => {
                            self.stats.loads += 1;
                            self.floats[dst.index()] = data[at as usize];
                        }
                        _ => {
                            Self::check_bounds(buf, at, bufs)?;
                            let v = self.load_value(buf, idx, program, bufs)?;
                            self.set(dst, v);
                        }
                    }
                    pc += 1;
                }
                Instr::FMulLoad { dst, lhs, buf, idx } => {
                    let at = self.ints[idx.index()];
                    match bufs.get(buf) {
                        Buffer::F64(data) if at >= 0 && (at as usize) < data.len() => {
                            self.stats.loads += 1;
                            self.floats[dst.index()] = self.floats[lhs.index()] * data[at as usize];
                        }
                        _ => {
                            let loaded = self.load_value(buf, idx, program, bufs)?;
                            self.binary_imm(BinOp::Mul, dst, lhs, loaded, program)?;
                        }
                    }
                    pc += 1;
                }
                Instr::StoreF64 { buf, idx, val, reduce } => {
                    let at = self.ints[idx.index()];
                    Self::check_bounds(buf, at, bufs)?;
                    self.stats.stores += 1;
                    let x = self.floats[val.index()];
                    if let Buffer::F64(data) = bufs.get_mut(buf) {
                        let slot = &mut data[at as usize];
                        match reduce {
                            None => *slot = x,
                            Some(op) => *slot = Self::float_arith(op, *slot, x),
                        }
                    } else {
                        // Kind drift: fall back to the boxed store.
                        bufs.get_mut(buf).store(at as usize, Value::Float(x), reduce)?;
                    }
                    pc += 1;
                }
                Instr::IAppend { buf, val } => {
                    self.stats.stores += 1;
                    self.alloc.charge(1)?;
                    let x = self.ints[val.index()];
                    match bufs.get_mut(buf) {
                        Buffer::I64(data) => data.push(x),
                        other => other.push(Value::Int(x))?,
                    }
                    pc += 1;
                }
                Instr::FAppend { buf, val } => {
                    self.stats.stores += 1;
                    self.alloc.charge(1)?;
                    let x = self.floats[val.index()];
                    match bufs.get_mut(buf) {
                        Buffer::F64(data) => data.push(x),
                        other => other.push(Value::Float(x))?,
                    }
                    pc += 1;
                }
                Instr::IArith { op, dst, lhs, rhs } => {
                    let (x, y) = (self.ints[lhs.index()], self.ints[rhs.index()]);
                    self.ints[dst.index()] = Self::int_arith(op, x, y);
                    pc += 1;
                }
                Instr::FArith { op, dst, lhs, rhs } => {
                    let (x, y) = (self.floats[lhs.index()], self.floats[rhs.index()]);
                    self.floats[dst.index()] = Self::float_arith(op, x, y);
                    pc += 1;
                }
                Instr::IArithImm { op, dst, lhs, imm } => {
                    let x = self.ints[lhs.index()];
                    self.ints[dst.index()] = Self::int_arith(op, x, imm);
                    pc += 1;
                }
                Instr::FArithImm { op, dst, lhs, imm } => {
                    let x = self.floats[lhs.index()];
                    self.floats[dst.index()] = Self::float_arith(op, x, imm);
                    pc += 1;
                }
                Instr::FRound { dst, src } => {
                    self.floats[dst.index()] = round_u8(self.floats[src.index()]);
                    pc += 1;
                }
                Instr::ICmpBranch { op, lhs, rhs, target } => {
                    if Self::cmp_int(op, self.ints[lhs.index()], self.ints[rhs.index()]) {
                        pc += 1;
                    } else {
                        pc = target as usize;
                    }
                }
                Instr::ICmpBranchImm { op, lhs, imm, target } => {
                    if Self::cmp_int(op, self.ints[lhs.index()], imm) {
                        pc += 1;
                    } else {
                        pc = target as usize;
                    }
                }
                Instr::FCmpBranch { op, lhs, rhs, target } => {
                    if Self::cmp_f64(op, self.floats[lhs.index()], self.floats[rhs.index()]) {
                        pc += 1;
                    } else {
                        pc = target as usize;
                    }
                }
                Instr::FCmpBranchImm { op, lhs, imm, target } => {
                    if Self::cmp_f64(op, self.floats[lhs.index()], imm) {
                        pc += 1;
                    } else {
                        pc = target as usize;
                    }
                }
                Instr::IWhileCmp { op, lhs, rhs, end } => {
                    if Self::cmp_int(op, self.ints[lhs.index()], self.ints[rhs.index()]) {
                        self.stats.loop_iters += 1;
                        pc += 1;
                    } else {
                        pc = end as usize;
                    }
                }
                Instr::IWhileCmpImm { op, lhs, imm, end } => {
                    if Self::cmp_int(op, self.ints[lhs.index()], imm) {
                        self.stats.loop_iters += 1;
                        pc += 1;
                    } else {
                        pc = end as usize;
                    }
                }
                Instr::IForTest { counter, hi, var, end } => {
                    let i = self.ints[counter.index()];
                    if i <= self.ints[hi.index()] {
                        self.stats.loop_iters += 1;
                        self.ints[var.index()] = i;
                        pc += 1;
                    } else {
                        pc = end as usize;
                    }
                }
                Instr::ISeek { dst, buf, lo, hi, key, on_abs } => {
                    let lo = self.ints[lo.index()];
                    let hi = self.ints[hi.index()];
                    let key = self.ints[key.index()];
                    self.stats.searches += 1;
                    let pos = self.binary_search(buf, lo, hi, key, on_abs, bufs)?;
                    self.ints[dst.index()] = pos;
                    pc += 1;
                }
                Instr::IAdvance { op, lhs, rhs, reg, by, stmts } => {
                    // Branch-free on the comparison: the count and the
                    // step are both scaled by it.
                    let taken = Self::cmp_int(op, self.ints[lhs.index()], self.ints[rhs.index()]);
                    self.bump_stmts(stmts as u64 * taken as u64)?;
                    let r = reg.index();
                    self.ints[r] = self.ints[r].wrapping_add(by * taken as i64);
                    pc += 1;
                }
                Instr::IWhileNext { op, lhs, rhs, body } => {
                    if Self::cmp_int(op, self.ints[lhs.index()], self.ints[rhs.index()]) {
                        self.stats.loop_iters += 1;
                        pc = body as usize;
                    } else {
                        pc += 1;
                    }
                }
                Instr::IForNext { counter, hi, var, body } => {
                    let i = self.ints[counter.index()].wrapping_add(1);
                    self.ints[counter.index()] = i;
                    if i <= self.ints[hi.index()] {
                        self.stats.loop_iters += 1;
                        self.ints[var.index()] = i;
                        pc = body as usize;
                    } else {
                        pc += 1;
                    }
                }

                // ---- Vectorized kernel ops: each sits immediately before
                // ---- an `IForTest` head and executes that loop's
                // ---- iterations over whole slices, all but the last and
                // ---- none whose statements would trip a check, then
                // ---- advances the counter.  On any failed precondition
                // ---- the op does *nothing* and the scalar loop runs every
                // ---- iteration, so none of these can fault.
                Instr::VFillStoreF64 { .. } => {
                    self.v_fill(bufs, &code[pc]);
                    pc += 1;
                }
                Instr::VMapF64 { .. } => {
                    self.v_map(bufs, &code[pc]);
                    pc += 1;
                }
                Instr::VMulAddF64 { .. } => {
                    self.v_mul_add(bufs, &code[pc]);
                    pc += 1;
                }
                Instr::VReduceF64 { .. } => {
                    self.v_reduce(bufs, &code[pc]);
                    pc += 1;
                }
                Instr::VAppendRangeF64 { .. } => {
                    self.v_append_range(bufs, &code[pc]);
                    pc += 1;
                }
                Instr::IStepLoop { .. } => pc = self.step_loop(bufs, (code, steps), pc),
            }
        }
        Ok(())
    }

    /// Count `n` executed statements.  The one accounting routine behind
    /// both encodings of a statement — an explicit [`Instr::BumpStmt`]
    /// and a count folded into [`Program::stmt_bump`]: one add and one
    /// compare here, everything a statement can trip behind
    /// [`Vm::account`].
    #[inline(always)]
    fn bump_stmts(&mut self, n: u64) -> Result<(), RuntimeError> {
        self.stats.stmts += n;
        if self.stats.stmts > self.check_limit {
            self.account(n)
        } else {
            Ok(())
        }
    }

    /// Re-run the `n` statements just counted one at a time against the
    /// step budget, then the [`Watch`] (injected fault, cancellation,
    /// deadline) — the order and the per-statement counts of the
    /// tree-walker, so a trip leaves `stats.stmts` at exactly the
    /// statement that tripped — and re-arm the limits.
    ///
    /// Every kernel op counts only statements it has checked ([`Vm::steps`],
    /// [`Vm::vbulk`]), so the statements replayed here are the ones the
    /// dispatch loop counted last.  `#[cold]` is for the run *without* a
    /// watch: it keeps the call off the dispatch loop's straight line
    /// (inlining the cold path measured 3 % on the unwatched merge
    /// kernels).
    #[cold]
    #[inline(never)]
    fn account(&mut self, n: u64) -> Result<(), RuntimeError> {
        let counted = self.stats.stmts;
        for stmts in counted - n + 1..=counted {
            self.stats.stmts = stmts;
            if let Some(budget) = self.step_budget.filter(|&budget| stmts > budget) {
                return Err(RuntimeError::StepBudgetExceeded { budget });
            }
            if let Some(watch) = &self.watch {
                watch.check(stmts)?;
            }
        }
        self.rearm_limits();
        Ok(())
    }

    /// The largest statement count, at or past `stmts`, that needs no
    /// step-budget, injected-fault or deadline check.
    fn limit_at(&self, stmts: u64) -> u64 {
        let quiet = self.watch.as_ref().map_or(u64::MAX, |watch| watch.quiet_until(stmts));
        self.step_budget.unwrap_or(u64::MAX).min(quiet)
    }

    /// Whether any of the statements `first..=last` trips the step budget
    /// or the watch ([`Watch::trips`], which keeps the clock's answer in
    /// `passed`).
    fn trips(&self, [first, last]: [u64; 2], passed: &mut Option<bool>) -> bool {
        self.step_budget.is_some_and(|budget| last > budget)
            || self.watch.as_ref().is_some_and(|watch| watch.trips([first, last], passed))
    }

    /// Derive [`Vm::check_limit`] from the step budget, the watch and the
    /// current statement count.
    fn rearm_limits(&mut self) {
        self.check_limit = self.limit_at(self.stats.stmts);
    }

    /// The infallible integer arithmetic subset the typed [`Instr::IArith`]
    /// forms execute — exactly [`Vm::int_binop`]'s arms for these ops.
    #[inline]
    fn int_arith(op: BinOp, x: i64, y: i64) -> i64 {
        match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            other => unreachable!("{other:?} is not a typed int arithmetic op"),
        }
    }

    /// The float arithmetic subset the typed [`Instr::FArith`] forms
    /// execute — exactly [`Vm::float_binop`]'s arms for these ops.
    #[inline(always)]
    fn float_arith(op: BinOp, x: f64, y: f64) -> f64 {
        match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            other => unreachable!("{other:?} is not a typed float arithmetic op"),
        }
    }

    /// The single implementation of load semantics, shared by
    /// [`Instr::Load`] and the load half of [`Instr::LoadBinary`]: a
    /// missing index yields missing without counting a load (paper §8,
    /// `permit`); otherwise the index is coerced, bounds are checked, and
    /// one load is counted.
    #[inline]
    fn load_value(
        &mut self,
        buf: BufId,
        idx: Reg,
        program: &Program,
        bufs: &BufferSet,
    ) -> Result<Value, RuntimeError> {
        let i = idx.index();
        match self.tags[i] {
            Tag::Missing => return Ok(Value::Missing),
            Tag::Unset => {
                return Err(RuntimeError::UnboundVariable { name: program.reg_name(idx) })
            }
            _ => {}
        }
        let at = if self.tags[i] == Tag::Int {
            self.ints[i]
        } else {
            self.value(idx, program)?.as_int()?
        };
        Self::check_bounds(buf, at, bufs)?;
        self.stats.loads += 1;
        Ok(match bufs.get(buf) {
            Buffer::I64(v) => Value::Int(v[at as usize]),
            Buffer::F64(v) => Value::Float(v[at as usize]),
            Buffer::Bool(v) => Value::Bool(v[at as usize]),
        })
    }

    /// `dst = lhs op imm` with the same unboxed fast paths and fallback as
    /// [`Vm::binary`] — the register/immediate form used by
    /// [`Instr::BinaryImm`] and the load half of [`Instr::LoadBinary`].
    /// Shares the operator bodies ([`Vm::int_binop`]/[`Vm::float_binop`])
    /// with the register/register form so fused and unfused execution
    /// cannot drift apart.
    #[inline]
    fn binary_imm(
        &mut self,
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        imm: Value,
        program: &Program,
    ) -> Result<(), RuntimeError> {
        let li = lhs.index();
        match (self.tags[li], imm) {
            (Tag::Int, Value::Int(y)) => {
                let c = Self::int_binop(op, self.ints[li], y)?;
                self.set_computed(dst, c);
            }
            (Tag::Float, Value::Float(y)) => {
                let c = Self::float_binop(op, self.floats[li], y);
                self.set_computed(dst, c);
            }
            _ => {
                let a = self.value(lhs, program)?;
                self.set(dst, Value::binop(op, a, imm)?);
            }
        }
        Ok(())
    }

    #[inline]
    fn set_computed(&mut self, dst: Reg, c: Computed) {
        match c {
            Computed::Int(x) => self.set_int(dst, x),
            Computed::Float(x) => self.set_float(dst, x),
            Computed::Bool(b) => self.set_bool(dst, b),
        }
    }

    /// The int/int fast path shared by [`Vm::binary`] and
    /// [`Vm::binary_imm`]: integer arithmetic with wrapping, equality on
    /// the integers, ordering through f64 — exactly [`Value::binop`].
    #[inline]
    fn int_binop(op: BinOp, x: i64, y: i64) -> Result<Computed, RuntimeError> {
        use BinOp::*;
        Ok(match op {
            Add => Computed::Int(x.wrapping_add(y)),
            Sub => Computed::Int(x.wrapping_sub(y)),
            Mul => Computed::Int(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                Computed::Int(x / y)
            }
            Min => Computed::Int(x.min(y)),
            Max => Computed::Int(x.max(y)),
            Eq | Ne | Lt | Le | Gt | Ge => Computed::Bool(Self::cmp_int(op, x, y)),
            And => Computed::Bool(x != 0 && y != 0),
            Or => Computed::Bool(x != 0 || y != 0),
        })
    }

    /// The float/float fast path shared by [`Vm::binary`] and
    /// [`Vm::binary_imm`], exactly [`Value::binop`]'s float arm.
    #[inline]
    fn float_binop(op: BinOp, x: f64, y: f64) -> Computed {
        use BinOp::*;
        match op {
            Add => Computed::Float(x + y),
            Sub => Computed::Float(x - y),
            Mul => Computed::Float(x * y),
            Div => Computed::Float(x / y),
            Min => Computed::Float(x.min(y)),
            Max => Computed::Float(x.max(y)),
            Eq | Ne | Lt | Le | Gt | Ge => Computed::Bool(Self::cmp_f64(op, x, y)),
            And => Computed::Bool(x != 0.0 && y != 0.0),
            Or => Computed::Bool(x != 0.0 || y != 0.0),
        }
    }

    /// Evaluate a fused comparison to `Some(bool)`, or `None` when the
    /// result is missing — exactly the truthiness the unfused
    /// `Binary` + `JumpIfFalse`/`WhileTest` pair would observe.
    #[inline]
    fn compare(
        &mut self,
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
        program: &Program,
    ) -> Result<Option<bool>, RuntimeError> {
        let (li, ri) = (lhs.index(), rhs.index());
        match (self.tags[li], self.tags[ri]) {
            (Tag::Int, Tag::Int) => Ok(Some(Self::cmp_int(op, self.ints[li], self.ints[ri]))),
            (Tag::Float, Tag::Float) => {
                Ok(Some(Self::cmp_f64(op, self.floats[li], self.floats[ri])))
            }
            _ => {
                let a = self.value(lhs, program)?;
                let b = self.value(rhs, program)?;
                match Value::binop(op, a, b)? {
                    Value::Bool(r) => Ok(Some(r)),
                    Value::Missing => Ok(None),
                    other => unreachable!("comparison produced {other:?}"),
                }
            }
        }
    }

    /// Register/immediate variant of [`Vm::compare`].
    #[inline]
    fn compare_imm(
        &mut self,
        op: BinOp,
        lhs: Reg,
        imm: Value,
        program: &Program,
    ) -> Result<Option<bool>, RuntimeError> {
        let li = lhs.index();
        match (self.tags[li], imm) {
            (Tag::Int, Value::Int(y)) => Ok(Some(Self::cmp_int(op, self.ints[li], y))),
            (Tag::Float, Value::Float(y)) => Ok(Some(Self::cmp_f64(op, self.floats[li], y))),
            _ => {
                let a = self.value(lhs, program)?;
                match Value::binop(op, a, imm)? {
                    Value::Bool(r) => Ok(Some(r)),
                    Value::Missing => Ok(None),
                    other => unreachable!("comparison produced {other:?}"),
                }
            }
        }
    }

    /// Comparison through f64, exactly like [`Value::binop`] (and the
    /// unfused float fast path).
    #[inline]
    fn cmp_f64(op: BinOp, x: f64, y: f64) -> bool {
        match op {
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            other => unreachable!("{other:?} is not a comparison"),
        }
    }

    /// Int/int comparison, exactly like the unfused int fast path:
    /// equality on the integers, ordering through f64 (mirroring
    /// [`Value::binop`]).
    #[inline]
    fn cmp_int(op: BinOp, x: i64, y: i64) -> bool {
        match op {
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            _ => Self::cmp_f64(op, x as f64, y as f64),
        }
    }

    /// `dst = lhs op rhs` with unboxed fast paths for the int/int and
    /// float/float cases; every other combination defers to [`Value::binop`]
    /// so the semantics (promotion, missing propagation, truthiness) stay
    /// byte-for-byte those of the tree-walker.
    #[inline]
    fn binary(
        &mut self,
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
        program: &Program,
    ) -> Result<(), RuntimeError> {
        let (li, ri) = (lhs.index(), rhs.index());
        match (self.tags[li], self.tags[ri]) {
            (Tag::Int, Tag::Int) => {
                let c = Self::int_binop(op, self.ints[li], self.ints[ri])?;
                self.set_computed(dst, c);
            }
            (Tag::Float, Tag::Float) => {
                let c = Self::float_binop(op, self.floats[li], self.floats[ri]);
                self.set_computed(dst, c);
            }
            _ => {
                let a = self.value(lhs, program)?;
                let b = self.value(rhs, program)?;
                self.set(dst, Value::binop(op, a, b)?);
            }
        }
        Ok(())
    }

    /// Lower-bound search over `buf[lo..=hi]`, identical to the
    /// interpreter's: the shared galloping search ([`crate::seek`]), one
    /// bounds check and one counted load per probe.
    fn binary_search(
        &mut self,
        buf: BufId,
        lo: i64,
        hi: i64,
        key: i64,
        on_abs: bool,
        bufs: &BufferSet,
    ) -> Result<i64, RuntimeError> {
        let (pos, probes) = crate::seek::lower_bound(bufs, buf, lo, hi, key, on_abs)?;
        self.stats.loads += probes;
        Ok(pos)
    }

    // -----------------------------------------------------------------
    // Vectorized kernel-op execution.  The contract every kernel op keeps,
    // `IStepLoop` included: it runs iterations of the scalar loop it sits
    // on and leaves registers, buffers and `ExecStats` as they leave them.
    // It checks every precondition (trip count, buffer kinds, full-slice
    // bounds, aliasing) *before* touching any state; on failure it does
    // nothing, and the scalar loop that follows is the fallback.  It stops
    // where the scalar loop stops: it takes an iteration only where every
    // statement it counts passes the check the scalar loop makes there
    // (step budget, injected fault, cancellation, deadline), and stops in
    // front of the first that would not, so that the scalar loop raises
    // the trip at its statement (`Vm::vbulk`; `Vm::steps` for the step
    // loop op).  On success it executes iterations `[lo, end)` over slices,
    // bumps `ExecStats` by the scalar-equivalent per-iteration cost and
    // advances the counter to `end` (`Vm::vcommit`); the scalar loop runs
    // the rest, at least the final iteration (which restores every
    // temporary register and doubles as the remainder handler).  A map's
    // and an inner product's element work is native: `per_op!` hoists
    // each `match` on a `VScale` or `BinOp` out of their element loops, a
    // map runs a stage at a time over a block on the stack (`vmap_f64`),
    // and it rounds with the `round_u8` that `FRound` calls.  A reduction
    // still matches on its pre-scale and op per element.  Each element
    // sees the scalar body's operations in its order, and every fold stays
    // in order.  The `lanes` operand is the fill's unroll width; the other
    // ops ignore it.
    // -----------------------------------------------------------------

    /// Minimum bulk trip count worth taking, one for every kernel op: below
    /// it the op's precondition checks and slice setup cost more than the
    /// dispatches it saves, so the op declines and the scalar loop runs the
    /// whole trip.
    ///
    /// Measured, not guessed: `vectorize`'s ignored `vmin_trip_break_even`
    /// test (`cargo test --release -p finch-ir vmin_trip_break_even --
    /// --ignored --nocapture`) times 4 096 entries of a loop of `bulk + 1`
    /// trips with `simd` on and off, alternately, and prints the median
    /// time per entry of each.  On a 2-core shared Xeon VM, with the floor
    /// at 1, the op's time over the scalar loop's read, at bulk 1, 2, 3, 4
    /// (four runs): `VMulAddF64` 1.02–1.11, 0.73–0.77, 0.57–0.60,
    /// 0.48–0.51; `VFillStoreF64` 0.91–1.00, 0.73–0.76, 0.58–0.62,
    /// 0.49–0.55; `VMapF64` 1.03–1.12, 0.80–0.81, 0.66–0.69, 0.57–0.62.
    /// Every op breaks even between bulk 1 and 2, so the floor is 2: Fig. 9's
    /// window dot (bulk 2–4 per entry) and run-length regions of a few
    /// pixels run as one op.
    pub(crate) const VMIN_TRIP: i64 = 2;

    /// The bulk `lo..end` a kernel op takes of its loop's iterations `lo..hi`
    /// (`counter`'s and `hi`'s values), at `per` statements each: `None`
    /// below [`Vm::VMIN_TRIP`], or where it can take none.  It takes every
    /// iteration that ends under [`Vm::check_limit`]; at the limit, the one
    /// that crosses it if none of that iteration's statements trips
    /// ([`Vm::trips`]: a deadline's clock read that finds time left), and
    /// goes on from there.  It stops in front of an iteration that would
    /// trip, which the scalar loop then runs and raises the trip at its
    /// statement.  A bulk that ends under the limit — always, with no budget
    /// and no watch armed — costs one comparison.
    #[inline(always)]
    fn vbulk(&self, counter: Reg, hi: Reg, per: u64) -> Option<(i64, i64)> {
        let (lo, hiv) = (self.ints[counter.index()], self.ints[hi.index()]);
        let n = hiv.checked_sub(lo).filter(|&n| n >= Self::VMIN_TRIP)? as u64;
        let room = self.check_limit.saturating_sub(self.stats.stmts);
        let taken = if n.saturating_mul(per) <= room { n } else { self.vtake(n, per) };
        (taken > 0).then_some((lo, lo + taken as i64))
    }

    /// How many of a bulk's `n` iterations of `per` statements
    /// [`Vm::vbulk`] takes where they cross [`Vm::check_limit`].  It reads
    /// the clock once at most: every later check period the bulk crosses
    /// takes that read's answer.
    #[cold]
    #[inline(never)]
    fn vtake(&self, n: u64, per: u64) -> u64 {
        let (mut at, mut limit, mut taken) = (self.stats.stmts, self.check_limit, 0);
        let mut passed = None;
        loop {
            let room = limit.saturating_sub(at);
            if (n - taken).saturating_mul(per) <= room {
                return n;
            }
            let fit = room / per;
            (taken, at) = (taken + fit, at + fit * per);
            if self.trips([at + 1, at + per], &mut passed) {
                return taken;
            }
            (taken, at) = (taken + 1, at + per);
            limit = self.limit_at(at);
        }
    }

    /// Commit a kernel op's bulk `lo..end` of its loop's iterations at
    /// `cost` each (the scalar-equivalent accounting), and advance the
    /// loop's `counter` to `end`.
    #[inline(always)]
    fn vcommit(&mut self, counter: Reg, (lo, end): (i64, i64), cost: VCost) {
        let n = end.wrapping_sub(lo) as u64;
        self.stats.loop_iters += n;
        self.vbump(n, cost);
        self.ints[counter.index()] = end;
    }

    /// The loop-invariant element offset of an index shape, computed in
    /// `i128` so overflow anywhere simply fails the span check below.
    #[inline]
    fn vbase_off(&self, base: VBase) -> i128 {
        match base {
            VBase::Var => 0,
            VBase::Scaled { reg, stride } => self.ints[reg.index()] as i128 * stride as i128,
            VBase::Offset { add, sub } => {
                add.map_or(0, |add| self.ints[add.index()] as i128) - self.ints[sub.index()] as i128
            }
        }
    }

    /// The accumulator element `acc` names in an F64 buffer of `len`
    /// elements, or `None` when it is out of bounds.
    #[inline]
    fn vacc_index(&self, acc: VAcc, len: usize) -> Option<usize> {
        let reg = acc.reg.map_or(0, |reg| self.ints[reg.index()] as i128);
        usize::try_from(acc.imm as i128 + reg).ok().filter(|&k| k < len)
    }

    /// The in-bounds element range `[off+lo, off+hi)` of an F64 buffer,
    /// or `None` when the buffer has another kind or any index of the
    /// bulk would be out of bounds.
    #[inline]
    fn vf64_span(
        bufs: &BufferSet,
        buf: BufId,
        off: i128,
        lo: i64,
        hiv: i64,
    ) -> Option<std::ops::Range<usize>> {
        match bufs.get(buf) {
            Buffer::F64(d) => vspan(off, lo, hiv, d.len()),
            _ => None,
        }
    }

    /// Bump the work counters by `n` iterations of `cost` (the
    /// scalar-equivalent accounting; `loop_iters` is bumped separately).
    #[inline]
    fn vbump(&mut self, n: u64, cost: VCost) {
        self.stats.stmts += n * cost.stmts as u64;
        self.stats.loads += n * cost.loads as u64;
        self.stats.stores += n * cost.stores as u64;
    }

    /// A loaded operand's pre-scale, preserving the scalar body's
    /// operand orientation bit-for-bit.
    #[inline]
    fn vscale(pre: VScale, x: f64) -> f64 {
        match pre {
            VScale::None => x,
            VScale::Left { op, imm } => Self::float_arith(op, imm, x),
            VScale::Right { op, imm } => Self::float_arith(op, x, imm),
        }
    }

    /// [`Instr::VFillStoreF64`]: `buf[base + v] = val` for the bulk.  A
    /// register value is read from the float lane, like the typed
    /// `StoreF64` of the scalar body that proves the lane holds it.
    #[inline(never)]
    fn v_fill(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::VFillStoreF64 { buf, base, val, counter, hi, cost, lanes } = *instr else {
            unreachable!("dispatched on a VFillStoreF64")
        };
        let Some(bulk @ (lo, hiv)) = self.vbulk(counter, hi, cost.stmts.into()) else { return };
        let off = self.vbase_off(base);
        let val = match val {
            VFill::Imm(imm) => imm,
            VFill::Reg(reg) => self.floats[reg.index()],
        };
        let Buffer::F64(data) = bufs.get_mut(buf) else { return };
        let Some(span) = vspan(off, lo, hiv, data.len()) else { return };
        vfill_f64(&mut data[span], val, lanes);
        self.vcommit(counter, bulk, cost);
    }

    /// [`Instr::VMapF64`]: `dst[..] reduce= post(pre(a[..]) rhs)` for the
    /// bulk, a stage at a time ([`vmap_f64`]).  The destination is lifted
    /// out of the set for the duration so the sources can be read while it
    /// is written (it aliases neither source — checked; the two sources may
    /// alias each other).
    #[inline(never)]
    fn v_map(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::VMapF64 {
            dst,
            dst_base,
            reduce,
            round,
            a,
            a_base,
            a_pre,
            rhs,
            counter,
            hi,
            cost,
            ..
        } = *instr
        else {
            unreachable!("dispatched on a VMapF64")
        };
        let Some(bulk @ (lo, hiv)) = self.vbulk(counter, hi, cost.stmts.into()) else { return };
        if dst == a {
            return;
        }
        let Some(dspan) = Self::vf64_span(bufs, dst, self.vbase_off(dst_base), lo, hiv) else {
            return;
        };
        let Some(aspan) = Self::vf64_span(bufs, a, self.vbase_off(a_base), lo, hiv) else {
            return;
        };
        let bspan = match rhs {
            VRhs::Buf { buf, base, .. } => {
                if dst == buf {
                    return;
                }
                match Self::vf64_span(bufs, buf, self.vbase_off(base), lo, hiv) {
                    Some(s) => s,
                    None => return,
                }
            }
            _ => 0..0,
        };
        let mut lifted = lift(bufs, dst);
        {
            let Buffer::F64(ddata) = &mut lifted else { unreachable!() };
            let Buffer::F64(adata) = bufs.get(a) else { unreachable!() };
            let b = match rhs {
                VRhs::Buf { buf, .. } => {
                    let Buffer::F64(bdata) = bufs.get(buf) else { unreachable!() };
                    &bdata[bspan]
                }
                _ => &[],
            };
            let map = VMap { a_pre, rhs, round, reduce };
            vmap_f64(&mut ddata[dspan], &adata[aspan], b, map);
        }
        *bufs.get_mut(dst) = lifted;
        self.vcommit(counter, bulk, cost);
    }

    /// [`Instr::VMulAddF64`]: `acc[acc_idx] op= a[..] * b[..]` folded
    /// strictly in order (bit-exact with the scalar loop because the
    /// accumulator aliases neither source — checked; `a` and `b` may be
    /// the same buffer).
    #[inline(never)]
    fn v_mul_add(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::VMulAddF64 { acc, acc_idx, a, a_base, b, b_base, op, counter, hi, cost, .. } =
            *instr
        else {
            unreachable!("dispatched on a VMulAddF64")
        };
        let Some(bulk @ (lo, hiv)) = self.vbulk(counter, hi, cost.stmts.into()) else { return };
        if acc == a || acc == b {
            return;
        }
        let Buffer::F64(accd) = bufs.get(acc) else { return };
        let Some(k) = self.vacc_index(acc_idx, accd.len()) else { return };
        let mut t = accd[k];
        let Some(aspan) = Self::vf64_span(bufs, a, self.vbase_off(a_base), lo, hiv) else {
            return;
        };
        let Some(bspan) = Self::vf64_span(bufs, b, self.vbase_off(b_base), lo, hiv) else {
            return;
        };
        let (Buffer::F64(adata), Buffer::F64(bdata)) = (bufs.get(a), bufs.get(b)) else {
            unreachable!()
        };
        let (xs, ys) = (&adata[aspan], &bdata[bspan]);
        per_op!(op, f => t = xs.iter().zip(ys).fold(t, |t, (&x, &y)| f(t, x * y)));
        match bufs.get_mut(acc) {
            Buffer::F64(d) => d[k] = t,
            _ => unreachable!(),
        }
        self.vcommit(counter, bulk, cost);
    }

    /// [`Instr::VReduceF64`]: `acc[acc_idx] op= pre(src[..])` folded
    /// strictly in order.
    #[inline(never)]
    fn v_reduce(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::VReduceF64 { acc, acc_idx, src, base, pre, op, counter, hi, cost, .. } = *instr
        else {
            unreachable!("dispatched on a VReduceF64")
        };
        let Some(bulk @ (lo, hiv)) = self.vbulk(counter, hi, cost.stmts.into()) else { return };
        if acc == src {
            return;
        }
        let Buffer::F64(accd) = bufs.get(acc) else { return };
        let Some(k) = self.vacc_index(acc_idx, accd.len()) else { return };
        let mut t = accd[k];
        let Some(span) = Self::vf64_span(bufs, src, self.vbase_off(base), lo, hiv) else {
            return;
        };
        let Buffer::F64(sdata) = bufs.get(src) else { unreachable!() };
        for &x in &sdata[span] {
            t = Self::float_arith(op, t, Self::vscale(pre, x));
        }
        match bufs.get_mut(acc) {
            Buffer::F64(d) => d[k] = t,
            _ => unreachable!(),
        }
        self.vcommit(counter, bulk, cost);
    }

    /// [`Instr::VAppendRangeF64`]: `idx_out.push(v)` / `val_out.push(
    /// src[base + v])` for each (passing) bulk iteration.
    #[inline(never)]
    fn v_append_range(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::VAppendRangeF64 {
            idx_out,
            val_out,
            src,
            base,
            guard,
            counter,
            hi,
            cost,
            pass_cost,
            ..
        } = *instr
        else {
            unreachable!("dispatched on a VAppendRangeF64")
        };
        // Worst case every iteration passes the guard: the bulk stops no
        // later than the scalar loop's trip.
        let per = u64::from(cost.stmts) + u64::from(pass_cost.stmts);
        let Some(bulk @ (lo, hiv)) = self.vbulk(counter, hi, per) else { return };
        // Worst case every iteration appends a coordinate and a value; when
        // that might not fit the allocation budget, back off so the scalar
        // loop faults (or not) at exactly the scalar element.
        if !self.alloc.fits(((hiv - lo) as u64).saturating_mul(2)) {
            return;
        }
        if src == idx_out || src == val_out || idx_out == val_out {
            return;
        }
        if !matches!(bufs.get(idx_out), Buffer::I64(_))
            || !matches!(bufs.get(val_out), Buffer::F64(_))
        {
            return;
        }
        let Some(span) = Self::vf64_span(bufs, src, self.vbase_off(base), lo, hiv) else {
            return;
        };
        let mut ilifted = lift(bufs, idx_out);
        let mut vlifted = lift(bufs, val_out);
        let passes;
        {
            let Buffer::I64(ivec) = &mut ilifted else { unreachable!() };
            let Buffer::F64(vvec) = &mut vlifted else { unreachable!() };
            let Buffer::F64(sdata) = bufs.get(src) else { unreachable!() };
            passes = vappend_f64(ivec, vvec, &sdata[span], lo, guard);
        }
        *bufs.get_mut(idx_out) = ilifted;
        *bufs.get_mut(val_out) = vlifted;
        // Pre-checked against the worst case above, so this cannot overrun.
        self.alloc.add_used(passes.saturating_mul(2));
        self.vcommit(counter, bulk, cost);
        self.vbump(passes, pass_cost);
    }

    /// [`Instr::IStepLoop`] at `pc`, out of the dispatch loop: take the steps
    /// its [`Step`] (the op's entry of `steps`) takes — a skip up to the
    /// first match, which the scalar loop runs; a performed step all but the
    /// loop's last — and return where dispatch goes on: the next
    /// instruction, or the loop's exit once a jumper has run its last step.
    /// Skipping, galloping and performing are functions of their own, so
    /// that each one's loops are optimised apart (inlined into this one, the
    /// reduction's loops measured 10–15 % slower on `dot_list_band`).
    #[inline(never)]
    fn step_loop(
        &mut self,
        bufs: &mut BufferSet,
        (code, steps): (&[Instr], &[Step]),
        pc: usize,
    ) -> usize {
        let Instr::IStepLoop { a, p, q, step, start, stop, counts } = code[pc] else {
            unreachable!("dispatched on an IStepLoop")
        };
        // An entry outside the table: the op declines.
        let Some(&step) = steps.get(step as usize) else { return pc + 1 };
        // A lone finger is its own second: `q` is `p`, over the same list.
        let (b, second) = q.unwrap_or((a, p));
        // A skipped step is ended by its leader alone.  A performed one may be
        // ended by both fingers, and counts its `pass` and its store or two
        // pushes on the steps its guard selects — every step, for
        // `Guard::Every` — where a match counts them in place of the
        // fingers' counts.  A store's step also counts its run's statements
        // where the run is not empty, and each element's (`Run::fill`).
        let [each, by_p, by_q] = counts.stmts;
        let (worst, pass, replaces, fill) = match step {
            Step::Skip(_) => (each + by_p.max(by_q), [0; 3], 0, None),
            Step::Perform { guard, out, pass: [stmts, loads], .. } => {
                let both = guard == Guard::Both;
                let ends = if both { by_p.max(by_q).max(stmts) } else { by_p + by_q + stmts };
                let (puts, fill) = match out {
                    Out::Push { .. } => (2, None),
                    Out::Store { gap, .. } => (1, gap.map(|gap| gap.stmts)),
                    Out::Fold { .. } => (1, None),
                };
                let run = fill.map_or(0, |[run, _]| run);
                (each + ends + run, [stmts, loads, puts].map(u64::from), u64::from(both), fill)
            }
        };
        let run = Run {
            regs: [p, second, start],
            stop: self.ints[stop.index()],
            two: q.is_some(),
            counts,
            worst: u64::from(worst).max(1),
            pass,
            replaces,
            fill: fill.map(|fill| fill.map(u64::from)),
        };
        match step {
            Step::Skip(MergeForm::Gallop { a_end, a_row, b_end, b_row }) => {
                // The loop's exit, off its head in front of the op.
                let exit = match pc.checked_sub(1).map(|head| &code[head]) {
                    Some(&Instr::IWhileCmp { op: BinOp::Le, lhs, rhs, end })
                        if (lhs, rhs) == (start, stop) =>
                    {
                        Some(end)
                    }
                    _ => None,
                };
                let left = self.gallop(bufs, [(a, a_end, a_row), (b, b_end, b_row)], &run, exit);
                return left.map_or(pc + 1, |end| end as usize);
            }
            Step::Skip(form) => self.skip(bufs, [a, b], form, &run),
            Step::Perform { guard, product, out, .. } => {
                let _ = self.perform(bufs, [a, b], (guard, product, out), &run);
            }
        }
        pc + 1
    }

    /// How many steps of a step loop op's loop its next batch may take: as
    /// many as fit under `limit` ([`Vm::check_limit`], or past a crossing
    /// [`Vm::cross`] cleared) at the costliest step's statements, so that
    /// nothing a statement can trip is due inside a batch.
    #[inline(always)]
    fn room(&self, limit: u64, run: &Run) -> u64 {
        limit.saturating_sub(self.stats.stmts) / run.worst
    }

    /// Where a step loop op's next batch may end, once the last one stopped
    /// in front of a step of at most `want` statements that did not fit
    /// under its limit: [`Vm::check_limit`] as it stands after the steps
    /// taken, or, where the step crosses that, just past the step if none
    /// of its statements trips ([`Vm::trips`], which keeps the clock's
    /// answer in `passed`) — the rule [`Vm::vtake`] applies to a bulk.
    /// `None` where one trips: the op stops in front of the step, which the
    /// scalar loop runs and trips at its statement.
    #[cold]
    #[inline(never)]
    fn cross(&self, want: u64, passed: &mut Option<bool>) -> Option<u64> {
        let at = self.stats.stmts;
        let limit = self.limit_at(at);
        if at.saturating_add(want) <= limit {
            return Some(limit);
        }
        (!self.trips([at + 1, at + want], passed)).then_some(at + want)
    }

    /// The fingers and the start, as a batch of a step loop op's steps
    /// begins.
    #[inline(always)]
    fn fingers(&self, run: &Run) -> [i64; 3] {
        let [p, q, start] = run.regs;
        [self.ints[p.index()], self.ints[q.index()], self.ints[start.index()]]
    }

    /// Commit `done` steps of a step loop op's loop: the fingers and the
    /// start where the steps left them (`at`), and what they count — one loop
    /// iteration each, the counts of every step and of each finger on the
    /// steps it ended (`ended`, less the ends [`Run::replaces`] on the steps
    /// that passed), [`Run::pass`] on the steps the guard selected
    /// (`passed`), and `extra`.
    #[inline(always)]
    fn commit(
        &mut self,
        run: &Run,
        at: [i64; 3],
        done: u64,
        ended: [u64; 2],
        passed: u64,
        extra: ExecStats,
    ) {
        let ended = ended.map(|n| n - passed * run.replaces);
        let count = |[each, by_p, by_q]: [u32; 3]| {
            done * u64::from(each) + ended[0] * u64::from(by_p) + ended[1] * u64::from(by_q)
        };
        let [pass_stmts, pass_loads, pass_stores] = run.pass.map(|n| passed * n);
        self.stats.loop_iters += done + extra.loop_iters;
        self.stats.stmts += count(run.counts.stmts) + pass_stmts + extra.stmts;
        self.stats.loads += count(run.counts.loads) + pass_loads + extra.loads;
        self.stats.stores += pass_stores + extra.stores;
        self.stats.searches += extra.searches;
        let [p, q, start] = run.regs;
        self.ints[p.index()] = at[0];
        self.ints[q.index()] = at[1];
        self.ints[start.index()] = at[2];
    }

    /// The steps of a step loop op's stepper loop over one finger (not
    /// `TWO`) or two, from the registers `[p, q, start]` on: every step that
    /// is not the loop's last — for a lone finger, that ends at its stride —
    /// and that `body` takes, in batches ([`Vm::room`]) that go on past each
    /// check that passes ([`Vm::cross`]), each step advancing the fingers
    /// whose stride ends it.  `body(acc, step)` is the
    /// accumulator after the step, or `None` to stop in front of it.  Every
    /// comparison decides as the scalar instruction's own does (two fingers'
    /// steps are taken only below the bound, where a stride ends the step
    /// exactly when it is not past the other); the temporaries are not
    /// written, as the loop does not read them before it rewrites them.  The
    /// accumulator, if a step was taken.
    ///
    /// Where a step fills the run in front of it ([`Carry::FILLS`], and
    /// [`Run::fill`]), the run is `start..ss` where `start <= ss - 1` (the
    /// scalar test), and a batch takes a step only where its run's
    /// statements fit too; the run's elements count a loop iteration, a
    /// store and [`Run::fill`]'s statements each.
    #[inline(always)]
    fn steps<const TWO: bool, A: Carry>(
        &mut self,
        [a, b]: [&[i64]; 2],
        run: &Run,
        mut acc: A,
        mut body: impl FnMut(A, &At) -> Option<A>,
    ) -> Option<A> {
        let stop = run.stop;
        let (mut taken, mut limit, mut clock) = (false, self.check_limit, None);
        loop {
            // A step that fills counts its run too: it fits where its
            // statements do.
            let room = if A::FILLS { u64::MAX } else { self.room(limit, run) };
            let mut spare = limit.saturating_sub(self.stats.stmts);
            let [p0, q0, mut from] = self.fingers(run);
            let (mut pv, mut qv, mut done, passed) = (p0, q0, 0, acc.passed());
            let (mut filled, mut runs, mut want) = (0u64, 0u64, None);
            while done < room {
                // A finger outside its list: the scalar load's fault.
                let Some(&s1) = position(a, pv) else { break };
                let (s2, ss) = if TWO {
                    let Some(&s2) = position(b, qv) else { break };
                    (s2, s1.min(s2).min(stop))
                } else if s1 > stop {
                    break;
                } else {
                    (s1, s1)
                };
                let after = ss.wrapping_add(1);
                // Not the loop's last: by its own test, through `f64` — or,
                // for two fingers, below the bound in `i64`, which implies
                // that test and that the step ends at the earlier stride.
                let last = if TWO { ss >= stop } else { !Self::cmp_int(BinOp::Le, after, stop) };
                if last {
                    break;
                }
                let gap = match run.fill {
                    Some(_) if A::FILLS && Self::cmp_int(BinOp::Le, from, ss.wrapping_sub(1)) => {
                        ss.wrapping_sub(from) as u64
                    }
                    _ => 0,
                };
                if A::FILLS {
                    let each = run.fill.map_or(0, |[_, each]| each);
                    let need = run.worst.saturating_add(gap.saturating_mul(each));
                    if need > spare {
                        want = Some(need);
                        break;
                    }
                    spare -= need;
                }
                let Some(next) = body(acc, &At { s: [s1, s2], ss, at: [pv, qv], from, gap }) else {
                    break;
                };
                acc = next;
                filled += gap;
                runs += u64::from(gap > 0);
                if TWO {
                    // `s1 == ss`, and `s2 == ss`: off the step's `min`s, so
                    // that the next loads wait on the strides alone.
                    pv += i64::from(s1 <= s2);
                    qv += i64::from(s2 <= s1);
                } else {
                    // A lone finger ends every step, and is its own second.
                    pv += 1;
                    qv = pv;
                }
                from = after;
                done += 1;
            }
            taken |= done > 0;
            let ended = [(pv - p0) as u64, (qv - q0) as u64];
            let passed = acc.passed() - passed;
            let [run_stmts, each] = run.fill.unwrap_or_default();
            let extra = ExecStats {
                loop_iters: filled,
                stmts: runs * run_stmts + filled * each,
                stores: filled,
                ..ExecStats::default()
            };
            self.commit(run, [pv, qv, from], done, ended, passed, extra);
            // Stopped by the limit alone: cross it, or stop.
            let Some(want) = want.or((done == room).then_some(run.worst)) else {
                return taken.then_some(acc);
            };
            let Some(past) = self.cross(want, &mut clock) else { return taken.then_some(acc) };
            limit = past;
        }
    }

    /// [`Step::Skip`] over two steppers: skip the steps that find `a[p] !=
    /// b[q]` and — in the block form, where `b` ends the step — `b[q]` in the
    /// gap in front of `a[p]`'s block, as the scalar loop computes it: the
    /// body runs unless `ss <= gap_stop = min(s1 - len, ss)` and the block
    /// phase, starting at `gap_stop + 1`, starts past `ss`.
    #[inline(never)]
    fn skip(&mut self, bufs: &BufferSet, [a, b]: [BufId; 2], form: MergeForm, run: &Run) {
        let (Buffer::I64(a), Buffer::I64(b)) = (bufs.get(a), bufs.get(b)) else { return };
        let lists = [&a[..], &b[..]];
        let le = |x, y| Self::cmp_int(BinOp::Le, x, y);
        match form {
            MergeForm::Blocks { ofs } => {
                let Buffer::I64(ofs) = bufs.get(ofs) else { return };
                self.steps::<true, ()>(lists, run, (), |(), step| {
                    let [s1, s2] = step.s;
                    if s1 == s2 || s2 != step.ss {
                        return (s1 != s2).then_some(());
                    }
                    let at = step.at[0] as usize;
                    let &[lo, hi] = ofs.get(at..at + 2)? else { return None };
                    let gap_stop = s1.wrapping_sub(hi.wrapping_sub(lo)).min(step.ss);
                    let gap = le(step.ss, gap_stop) && !le(gap_stop.wrapping_add(1), step.ss);
                    gap.then_some(())
                })
            }
            _ => self.steps::<true, ()>(lists, run, (), |(), step| {
                (step.s[0] != step.s[1]).then_some(())
            }),
        };
    }

    /// [`Step::Perform`]: perform the steps that are not the loop's last —
    /// for a lone stepper, those that end at its stride, so the body runs —
    /// and on those the guard selects, put the product, `((lead * val[p]) *
    /// second) * extent` in the scalar code's order, where the output says:
    /// folded into a local strictly in order and stored into `acc[k]` once,
    /// if a step was selected (nothing else in those steps reads `acc`,
    /// which is no source), pushed ([`Vm::pushing`], for as many steps as
    /// there are entries left in the shorter list), or stored at the step's
    /// end after its run is filled.
    ///
    /// The lead, the accumulator's element and a gather's offset terms are
    /// read once; the op does nothing where one is out of bounds, a buffer
    /// has another kind, or it would write a buffer it reads.  It stops in
    /// front of a step whose loads would fault, or whose pushes the
    /// allocation budget would not hold, so that the scalar loop raises the
    /// error where it raises it.  Each guard × second factor × output that a
    /// loop has is a loop of its own ([`Vm::put`]), and any other
    /// combination is declined.
    #[inline(never)]
    fn perform(
        &mut self,
        bufs: &mut BufferSet,
        [a, b]: [BufId; 2],
        (guard, product, out): (Guard, Product, Out),
        run: &Run,
    ) -> Option<()> {
        let Product { lead, val, second, extent } = product;
        let (x, s) = match second {
            Gather::None => (val, NONE),
            Gather::At { x, at } => (x, if at == run.regs[0] { AT_P } else { AT_Q }),
            Gather::Load { x, .. } => (x, LOAD),
        };
        let (outs, o) = match out {
            Out::Fold { acc, .. } => ([acc, acc], FOLD),
            Out::Push { crd, vals } => ([crd, vals], PUSH),
            Out::Store { dst, .. } => ([dst, dst], STORE),
        };
        let sources = [a, b, val, x, lead.map_or(a, |(buf, _)| buf)];
        let (g, cmp) = match guard {
            Guard::Every => (EVERY, None),
            Guard::Cmp(op, imm) => (CMP, Some((op, imm))),
            Guard::Both => (BOTH, None),
        };
        if outs.iter().any(|buf| sources.contains(buf)) || (lead.is_some() && g != BOTH) {
            return None;
        }
        let lead = match lead.map(|(buf, at)| (bufs.get(buf), self.ints[at.index()])) {
            Some((Buffer::F64(data), at)) => Some(*position(data, at)?),
            Some(_) => return None,
            None => None,
        };
        let mut shift = 0i64;
        for term in match second {
            Gather::Load { ofs, .. } => ofs,
            _ => [Term::Zero; 2],
        } {
            let (Term::Plus { buf, at } | Term::Minus { buf, at }) = term else { continue };
            let Buffer::I64(data) = bufs.get(buf) else { return None };
            let v = *position(data, self.ints[at.index()])?;
            let minus = matches!(term, Term::Minus { .. });
            shift = if minus { shift.wrapping_sub(v) } else { shift.wrapping_add(v) };
        }
        let how = How { ids: [a, b, val, x], lead, shift, cmp, extent, out };
        match (g, s, run.two, o) {
            (EVERY, NONE, false, FOLD) => self.put::<EVERY, NONE, false, FOLD>(bufs, &how, run),
            (EVERY, NONE, true, FOLD) => self.put::<EVERY, NONE, true, FOLD>(bufs, &how, run),
            (EVERY, AT_P, false, FOLD) => self.put::<EVERY, AT_P, false, FOLD>(bufs, &how, run),
            (EVERY, AT_P, true, FOLD) => self.put::<EVERY, AT_P, true, FOLD>(bufs, &how, run),
            (EVERY, AT_Q, true, FOLD) => self.put::<EVERY, AT_Q, true, FOLD>(bufs, &how, run),
            (EVERY, LOAD, false, FOLD) => self.put::<EVERY, LOAD, false, FOLD>(bufs, &how, run),
            (EVERY, LOAD, true, FOLD) => self.put::<EVERY, LOAD, true, FOLD>(bufs, &how, run),
            (EVERY, NONE, false, PUSH) => self.put::<EVERY, NONE, false, PUSH>(bufs, &how, run),
            (CMP, NONE, false, PUSH) => self.put::<CMP, NONE, false, PUSH>(bufs, &how, run),
            (BOTH, AT_Q, true, FOLD) => self.put::<BOTH, AT_Q, true, FOLD>(bufs, &how, run),
            (BOTH, AT_Q, true, PUSH) => self.put::<BOTH, AT_Q, true, PUSH>(bufs, &how, run),
            (EVERY, LOAD, false, STORE) => self.put::<EVERY, LOAD, false, STORE>(bufs, &how, run),
            _ => {}
        }
        Some(())
    }

    /// [`Vm::perform`]'s loop for one guard `G` ([`EVERY`], [`CMP`],
    /// [`BOTH`]), one second factor `S` ([`NONE`], [`AT_P`], [`AT_Q`],
    /// [`LOAD`]), one finger or `TWO`, and one output `O` ([`FOLD`],
    /// [`PUSH`], [`STORE`]).  The
    /// product is formed on every step and kept on a selected one, so that no
    /// branch depends on the data; a step stops the op where a load the
    /// scalar step makes would fault — every step's, but for [`BOTH`], whose
    /// loads only a match makes.  Each combination is a function of its own,
    /// so that its loop is optimised apart: inlined into [`Vm::perform`], the
    /// lone reduction's loop read `dot_list_band` +103 %.
    #[inline(never)]
    fn put<const G: u8, const S: u8, const TWO: bool, const O: u8>(
        &mut self,
        bufs: &mut BufferSet,
        how: &How,
        run: &Run,
    ) {
        let How { ids, lead, shift, cmp, extent, out } = *how;
        let product = |(val, x): (&[f64], &[f64]), step: &At| {
            let v = position(val, step.at[0]).copied();
            let keep = match G {
                EVERY => true,
                CMP => v.zip(cmp).is_some_and(|(v, (op, imm))| Self::cmp_f64(op, v, imm)),
                _ => step.s[0] == step.s[1],
            };
            let y = v.and_then(|v| {
                let v = if G == BOTH { lead.map_or(v, |lead| lead * v) } else { v };
                let at = match S {
                    NONE => return Some(v),
                    AT_P => step.at[0],
                    AT_Q => step.at[1],
                    _ => step.ss.wrapping_add(shift),
                };
                Some(v * position(x, at)?)
            });
            if (G != BOTH || keep) & y.is_none() {
                return None;
            }
            let y = y.unwrap_or(0.0);
            let y = if extent {
                y * step.ss.wrapping_sub(step.from).wrapping_add(1).max(0) as f64
            } else {
                y
            };
            Some((keep, y))
        };
        match out {
            Out::Fold { acc, k, op } if O == FOLD => {
                let slot = self.ints[k.index()];
                let sum = match bufs.get(acc) {
                    Buffer::F64(data) if slot >= 0 && (slot as usize) < data.len() => {
                        data[slot as usize]
                    }
                    _ => return,
                };
                let Some((lists, values)) = sources(bufs, ids) else { return };
                let folded =
                    self.steps::<TWO, (f64, u64)>(lists, run, (sum, 0), |(sum, n), step| {
                        let (keep, y) = product(values, step)?;
                        let folded = Self::float_arith(op, sum, y);
                        Some((if keep { folded } else { sum }, n + u64::from(keep)))
                    });
                if let (Some((sum, 1..)), Buffer::F64(data)) = (folded, bufs.get_mut(acc)) {
                    data[slot as usize] = sum;
                }
            }
            Out::Push { crd, vals } if O == PUSH => {
                // A push takes a step a finger ends: there are no more of them
                // than entries left in the shorter list.
                let Some(([a, b], _)) = sources(bufs, ids) else { return };
                let [p, q, _] = self.fingers(run);
                let left = |list: &[i64], at: i64| {
                    usize::try_from(at).map_or(0, |at| list.len().saturating_sub(at)) as u64
                };
                let most = left(a, p).min(left(b, q));
                self.pushing(bufs, [crd, vals], most, run, |vm, bufs, stage, fit| {
                    let (lists, values) = sources(bufs, ids)?;
                    vm.steps::<TWO, u64>(lists, run, 0, |passed, step| {
                        let (keep, y) = product(values, step)?;
                        if keep & (passed == fit) {
                            return None;
                        }
                        stage.push(step.ss, y, keep);
                        Some(passed + u64::from(keep))
                    })
                });
            }
            Out::Store { dst, op, gap } if O == STORE => {
                // The output is lifted out of `bufs` so that the sources are
                // read beside it; every step the op takes stores inside `[start,
                // stop]`, which is checked once.
                let fill = gap.map_or(0.0, |gap| self.floats[gap.fill.index()]);
                let [_, _, start] = self.fingers(run);
                let mut out = lift(bufs, dst);
                if let (Buffer::F64(data), Some((lists, values))) = (&mut out, sources(bufs, ids)) {
                    let inside = usize::try_from(run.stop).is_ok_and(|stop| stop < data.len());
                    if inside && start >= 0 {
                        self.steps::<TWO, Stored>(lists, run, Stored(0), |Stored(n), step| {
                            let (_, y) = product(values, step)?;
                            let at = usize::try_from(step.ss).ok()?;
                            if step.gap > 0 {
                                vfill_f64(&mut data[step.from as usize..at], fill, 8);
                            }
                            data[at] = vcombine(op, data[at], y);
                            Some(Stored(n + 1))
                        });
                    }
                }
                *bufs.get_mut(dst) = out;
            }
            _ => {}
        }
    }

    /// Take the steps `take(vm, bufs, stage, fit)` takes, pushing what it
    /// stages onto the sparse outputs `crd` (I64) and `vals` (F64); `fit`
    /// is how many pushes of two elements the allocation budget holds, and
    /// `take` returns how many it pushed, if it took a step.  The outputs
    /// are lifted out of `bufs` once, so that `take` reads the sources
    /// beside them, and reserve room for `most` pushes, or as many as there
    /// are statements to take them.  Nothing happens where an output has
    /// another kind.
    #[inline(always)]
    fn pushing(
        &mut self,
        bufs: &mut BufferSet,
        [crd, vals]: [BufId; 2],
        most: u64,
        run: &Run,
        take: impl FnOnce(&mut Self, &BufferSet, &mut Stage<'_>, u64) -> Option<u64>,
    ) {
        let (Buffer::I64(_), Buffer::F64(_)) = (bufs.get(crd), bufs.get(vals)) else { return };
        let fit = self.alloc.budget().map_or(u64::MAX, |b| b.saturating_sub(self.alloc.used())) / 2;
        let reserve = most.min(self.room(self.check_limit, run)).min(fit) as usize;
        let (mut crd_out, mut vals_out) = (lift(bufs, crd), lift(bufs, vals));
        let passed = {
            let (Buffer::I64(crd_out), Buffer::F64(vals_out)) = (&mut crd_out, &mut vals_out)
            else {
                unreachable!("checked above")
            };
            crd_out.reserve(reserve);
            vals_out.reserve(reserve);
            let mut stage =
                Stage { crd: crd_out, vals: vals_out, at: [0; STAGE], v: [0.0; STAGE], n: 0 };
            let passed = take(self, bufs, &mut stage, fit);
            stage.flush();
            passed
        };
        *bufs.get_mut(crd) = crd_out;
        *bufs.get_mut(vals) = vals_out;
        self.alloc.add_used(2 * passed.unwrap_or(0));
    }

    /// [`MergeForm::Gallop`]: skip the steps that match nothing.  In such a
    /// step one finger, the leader, ends the step `ss = min(max(s1, s2),
    /// stop)` and the other, the trailer, does not; the trailer seeks to `ss`
    /// in its row (the VM's own galloping search, over `list[finger..=
    /// end[row] - 1]`) and lands on a coordinate past it.  The leader
    /// advances by one and the trailer moves to where its seek landed; the
    /// step counts two loop iterations (the loop's next one and the
    /// trailer's one-step stepper), one search, and the seek's probes as
    /// loads on top of the leader's counts.  It stops, without committing
    /// its seek, in front of a step whose strides are equal, that neither
    /// finger ends (the step clipped to the bound), whose seek lands on `ss`
    /// (a match) or runs out of its row, or that would fault.
    ///
    /// The loop's last step (`ss == stop`) matching nothing is skipped too
    /// where the op knows the loop's exit, `exit` (the head in front of the
    /// op): it counts one loop iteration fewer, as the bottom test does not
    /// go round again, and the op returns `exit` for the dispatch loop to
    /// continue at.
    ///
    /// The loop's comparisons of coordinates go through `f64`
    /// ([`Vm::cmp_int`]); the recogniser decided them on integers, so the op
    /// also stops where `ss` or `ss + 1` is not exact in an `f64`.
    #[inline(never)]
    fn gallop(
        &mut self,
        bufs: &BufferSet,
        fingers: [(BufId, BufId, Reg); 2],
        run: &Run,
        exit: Option<u32>,
    ) -> Option<u32> {
        /// The magnitude below which every `i64` is exact in an `f64`.
        const EXACT: i64 = 1 << 53;
        let [(a, a_end, a_row), (b, b_end, b_row)] = fingers;
        let (Buffer::I64(a), Buffer::I64(b)) = (bufs.get(a), bufs.get(b)) else { return None };
        // A trailer's last position, `end[row] - 1`: the loop writes neither
        // the row nor (on a step the op skips) the buffer.
        let last = |end: BufId, row: Reg| match bufs.get(end) {
            Buffer::I64(end) => {
                let row = usize::try_from(self.ints[row.index()]).ok()?;
                end.get(row).map(|end| end.wrapping_sub(1))
            }
            _ => None,
        };
        let (a_last, b_last) = (last(a_end, a_row), last(b_end, b_row));
        let stop = run.stop;
        if stop >= EXACT {
            return None;
        }
        let (mut limit, mut clock) = (self.check_limit, None);
        loop {
            let room = self.room(limit, run);
            let [mut pv, mut qv, _] = self.fingers(run);
            let (mut skipped, mut led_by_a, mut probed) = (0, 0, 0);
            let (mut next, mut left) = (None, false);
            while skipped < room {
                let (Some(&s1), Some(&s2)) = (position(a, pv), position(b, qv)) else { break };
                let step_stop = s1.max(s2).min(stop);
                let a_leads = s1 == step_stop;
                let ends = a_leads || s2 == step_stop;
                let last_step = step_stop == stop;
                if s1 == s2 || !ends || step_stop < -EXACT || (last_step && exit.is_none()) {
                    break;
                }
                let (list, from, last) = if a_leads { (b, qv, b_last) } else { (a, pv, a_last) };
                let Some(last) = last else { break };
                let Some((to, probes)) =
                    crate::seek::lower_bound_i64(list, from, last, step_stop, false)
                else {
                    break;
                };
                if position(list, to).is_none_or(|&landed| landed <= step_stop) {
                    break;
                }
                if a_leads {
                    (pv, qv) = (pv + 1, to);
                    led_by_a += 1;
                } else {
                    (pv, qv) = (to, qv + 1);
                }
                probed += probes;
                next = Some(step_stop + 1);
                skipped += 1;
                if last_step {
                    left = true;
                    break;
                }
            }
            if let Some(next) = next {
                let extra = ExecStats {
                    loop_iters: skipped - u64::from(left),
                    searches: skipped,
                    loads: probed,
                    ..ExecStats::default()
                };
                self.commit(run, [pv, qv, next], skipped, [led_by_a, skipped - led_by_a], 0, extra);
                if left {
                    return exit;
                }
            }
            // Stopped by the limit alone: cross it, or stop.
            if skipped < room {
                return None;
            }
            limit = self.cross(run.worst, &mut clock)?;
        }
    }
}

/// What the loops of an [`Instr::IStepLoop`] read of it, its registers
/// resolved.
struct Run {
    /// `p`, `q` (`p` again for a lone finger) and `start`.
    regs: [Reg; 3],
    /// The loop's bound.
    stop: i64,
    /// Whether there are two fingers.
    two: bool,
    /// What a step counts.
    counts: StepCounts,
    /// The statements of the costliest step, at least one.
    worst: u64,
    /// The statements, loads and stores a step the guard of a performed
    /// step selects adds: its `pass`, and its store or its two pushes.
    pass: [u64; 3],
    /// How many of each finger's ends a selected step stands for, counting
    /// its `pass` in place of the fingers' counts: a match's one, as both
    /// fingers end it.
    replaces: u64,
    /// The statements of a store's run that is not empty, and of each of its
    /// elements ([`Gap::stmts`]), if its step fills one.
    fill: Option<[u64; 2]>,
}

/// What a [`Step::Perform`]'s loop reads, resolved once per dispatch: the
/// lists, the values and the second factor's buffer (the values for none),
/// the lead, a gather's offset, a comparison's operator and literal,
/// whether the extent is a factor, and the output.
#[derive(Clone, Copy)]
struct How {
    ids: [BufId; 4],
    lead: Option<f64>,
    shift: i64,
    cmp: Option<(BinOp, f64)>,
    extent: bool,
    out: Out,
}

/// [`Vm::put`]'s guards: [`Guard::Every`], [`Guard::Cmp`], [`Guard::Both`].
const EVERY: u8 = 0;
const CMP: u8 = 1;
const BOTH: u8 = 2;

/// [`Vm::put`]'s second factors: none, a value at `p` or at `q`, a gather
/// at the step's end (the [`Gather`] kinds).
const NONE: u8 = 0;
const AT_P: u8 = 1;
const AT_Q: u8 = 2;
const LOAD: u8 = 3;

/// [`Vm::put`]'s outputs: [`Out::Fold`], [`Out::Push`], [`Out::Store`].
const FOLD: u8 = 0;
const PUSH: u8 = 1;
const STORE: u8 = 2;

/// The lists, and the values and the second factor's buffer, of a performed
/// step.
type Sources<'a> = ([&'a [i64]; 2], (&'a [f64], &'a [f64]));

/// The [`Sources`] of a performed step's `[a, b, val, x]`, if each has its
/// kind.
fn sources(bufs: &BufferSet, [a, b, val, x]: [BufId; 4]) -> Option<Sources<'_>> {
    match (bufs.get(a), bufs.get(b), bufs.get(val), bufs.get(x)) {
        (Buffer::I64(a), Buffer::I64(b), Buffer::F64(val), Buffer::F64(x)) => {
            Some(([&a[..], &b[..]], (&val[..], &x[..])))
        }
        _ => None,
    }
}

/// What a step loop op carries from step to step: the accumulator of
/// [`Vm::steps`].
trait Carry: Copy {
    /// Whether a step fills the run in front of it, where [`Run::fill`]
    /// says it counts: a constant, so that the other carries' loops keep
    /// none of the run's accounting.
    const FILLS: bool = false;

    /// How many of the steps taken so far its guard selected.
    fn passed(self) -> u64 {
        0
    }
}

/// A skip's: nothing.
impl Carry for () {}

/// A fold's: the sum, and the steps selected.
impl Carry for (f64, u64) {
    fn passed(self) -> u64 {
        self.1
    }
}

/// A push's: the steps that pushed.
impl Carry for u64 {
    fn passed(self) -> u64 {
        self
    }
}

/// A store's: the steps taken, each of which stores and fills its run.
#[derive(Clone, Copy)]
struct Stored(u64);

impl Carry for Stored {
    const FILLS: bool = true;

    fn passed(self) -> u64 {
        self.0
    }
}

/// Pushes staged between two copies onto the outputs.
const STAGE: usize = 64;

/// The pushes of a step loop op onto two sparse outputs, staged: every step
/// is written to the stage whether it pushes or not and kept only if it
/// does, so that no branch depends on the values.
struct Stage<'a> {
    /// The outputs, lifted out of their buffer set.
    crd: &'a mut AlignedVec<i64>,
    vals: &'a mut AlignedVec<f64>,
    /// The staged coordinates and values, and how many are kept.
    at: [i64; STAGE],
    v: [f64; STAGE],
    n: usize,
}

impl Stage<'_> {
    /// Stage `crd.push(at) ; vals.push(v)`, kept if `keep`.
    #[inline(always)]
    fn push(&mut self, at: i64, v: f64, keep: bool) {
        self.at[self.n] = at;
        self.v[self.n] = v;
        self.n += usize::from(keep);
        if self.n == STAGE {
            self.flush();
        }
    }

    /// Copy what is kept onto the outputs.
    #[inline(always)]
    fn flush(&mut self) {
        self.crd.extend_from_slice(&self.at[..self.n]);
        self.vals.extend_from_slice(&self.v[..self.n]);
        self.n = 0;
    }
}

/// A step of a step loop op's loop, as the op is about to take it.
struct At {
    /// The fingers' strides (a lone finger's twice).
    s: [i64; 2],
    /// The step's end.
    ss: i64,
    /// The fingers' positions.
    at: [i64; 2],
    /// The step's start.
    from: i64,
    /// The length of the run in front of the step's end, `ss - from` where
    /// `from <= ss - 1`, if the step fills it ([`Carry::FILLS`]); else 0.
    gap: u64,
}

/// `data[at]`, if `at` is a position in it.
#[inline]
fn position<T>(data: &[T], at: i64) -> Option<&T> {
    usize::try_from(at).ok().and_then(|i| data.get(i))
}

/// The element range `[off+lo, off+hi)` of a buffer of `len` elements,
/// or `None` when any index of the bulk would fall out of bounds (the
/// offset is exact `i128` arithmetic, so index overflow lands here too).
#[inline]
fn vspan(off: i128, lo: i64, hiv: i64, len: usize) -> Option<std::ops::Range<usize>> {
    let start = off + lo as i128;
    let end = off + hiv as i128;
    if start < 0 || end > len as i128 {
        return None;
    }
    Some(start as usize..end as usize)
}

/// `x.round().clamp(0.0, 255.0)`, inline and branch-free: [`Instr::FRound`]
/// and a rounding [`Instr::VMapF64`] both round with it, so that the op
/// and its scalar loop agree bit for bit.  Adding and taking away 2^52
/// rounds a magnitude below 2^52 to an integer, ties to even; a tie that
/// went down is lifted, so that ties go away from zero as `f64::round`
/// takes them.  A larger magnitude, and ±∞, clamp to an end whatever the
/// sum does to them, and a NaN comes out quieted with its sign and
/// payload, as libm's `round` returns it.  (`Value::unop(UnOp::Round)`
/// keeps `f64::round`: the tree-walker and the dense meaning check this
/// function against libm on every rounding kernel.)
#[inline(always)]
pub(crate) fn round_u8(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let ax = x.abs();
    let even = (ax + TWO_52) - TWO_52;
    let away = if even - ax == -0.5 { even + 1.0 } else { even };
    away.copysign(x).clamp(0.0, 255.0)
}

/// The elements a vector map evaluates one stage at a time: a block of
/// them sits on the stack, so that a warm run allocates nothing and a
/// stage's output is still in L1 for the next.
const VBLOCK: usize = 64;

/// What a [`Instr::VMapF64`] does with each element: its operands but the
/// buffers and index shapes.
#[derive(Clone, Copy)]
struct VMap {
    a_pre: VScale,
    rhs: VRhs,
    round: bool,
    reduce: Option<BinOp>,
}

/// A vector map over pre-checked, equal-length slices (`b` is empty unless
/// the map reads a second buffer), a block of [`VBLOCK`] elements at a time
/// and, within a block, one stage at a time: pre-scale `a`; pre-scale `b`,
/// or take the immediate; combine; round and clamp; store, or reduce, into
/// `dst`.  Each stage is one native loop with its `match` hoisted out of
/// it, and each element sees the scalar body's operations in its order, so
/// the result is the scalar loop's bit for bit.  A plain store evaluates in
/// `dst` itself.
fn vmap_f64(dst: &mut [f64], a: &[f64], b: &[f64], map: VMap) {
    let (mut ys, mut xs) = ([0.0; VBLOCK], [0.0; VBLOCK]);
    for (k, d) in dst.chunks_mut(VBLOCK).enumerate() {
        let at = k * VBLOCK..k * VBLOCK + d.len();
        let b = b.get(at.clone()).unwrap_or_default();
        match map.reduce {
            None => vmap_block(d, &a[at], b, &mut ys, map),
            Some(op) => {
                let xs = &mut xs[..d.len()];
                vmap_block(xs, &a[at], b, &mut ys, map);
                per_op!(op, f => d.iter_mut().zip(&*xs).for_each(|(d, &x)| *d = f(*d, x)));
            }
        }
    }
}

/// The stages of [`vmap_f64`] in front of the store, over one block:
/// `xs = post(pre(a) rhs)`, `ys` holding `b`'s pre-scaled block.
#[inline]
fn vmap_block(xs: &mut [f64], a: &[f64], b: &[f64], ys: &mut [f64; VBLOCK], map: VMap) {
    vscale_into(xs, a, map.a_pre);
    match map.rhs {
        VRhs::None => {}
        VRhs::Imm { op, imm } => per_op!(op, f => xs.iter_mut().for_each(|x| *x = f(*x, imm))),
        VRhs::Buf { op, pre, .. } => {
            let ys = match pre {
                VScale::None => b,
                _ => {
                    let ys = &mut ys[..b.len()];
                    vscale_into(ys, b, pre);
                    &*ys
                }
            };
            per_op!(op, f => xs.iter_mut().zip(ys).for_each(|(x, &y)| *x = f(*x, y)));
        }
    }
    if map.round {
        xs.iter_mut().for_each(|x| *x = round_u8(*x));
    }
}

/// `out = pre(src)` element by element, preserving the scalar body's
/// operand orientation bit for bit ([`Vm::vscale`], its `match` hoisted): a
/// pre-scale stage of [`vmap_f64`].
#[inline]
fn vscale_into(out: &mut [f64], src: &[f64], pre: VScale) {
    match pre {
        VScale::None => out.copy_from_slice(src),
        VScale::Left { op, imm } => {
            per_op!(op, f => out.iter_mut().zip(src).for_each(|(o, &x)| *o = f(imm, x)))
        }
        VScale::Right { op, imm } => {
            per_op!(op, f => out.iter_mut().zip(src).for_each(|(o, &x)| *o = f(x, imm)))
        }
    }
}

/// Unrolled fill over a pre-checked slice.
fn vfill_f64(dst: &mut [f64], imm: f64, lanes: u8) {
    if lanes == 8 {
        vfill_lanes::<8>(dst, imm);
    } else {
        vfill_lanes::<4>(dst, imm);
    }
}

fn vfill_lanes<const L: usize>(dst: &mut [f64], imm: f64) {
    let (chunks, rest) = dst.as_chunks_mut::<L>();
    for c in chunks {
        *c = [imm; L];
    }
    for s in rest {
        *s = imm;
    }
}

/// Take a kernel op's destination out of the set, so that its sources can
/// be read while it is written; the caller puts it back.  An empty `Bool`
/// holds its place because it allocates nothing (an empty aligned lane
/// reserves its padding): lifting is on every short bulk's path.
fn lift(bufs: &mut BufferSet, id: BufId) -> Buffer {
    std::mem::replace(bufs.get_mut(id), Buffer::Bool(Vec::new()))
}

/// A map's store step: plain write or reduce-combine, exactly
/// [`Instr::StoreF64`]'s float fast path.
#[inline]
fn vcombine(reduce: Option<BinOp>, old: f64, new: f64) -> f64 {
    match reduce {
        None => new,
        Some(op) => Vm::float_arith(op, old, new),
    }
}

/// The (optionally guarded) append stream of [`Instr::VAppendRangeF64`];
/// returns how many iterations passed the guard.
fn vappend_f64(
    idx: &mut crate::buffer::AlignedVec<i64>,
    val: &mut crate::buffer::AlignedVec<f64>,
    src: &[f64],
    lo: i64,
    guard: Option<(BinOp, f64)>,
) -> u64 {
    match guard {
        None => {
            idx.reserve(src.len());
            val.reserve(src.len());
            for (k, &x) in src.iter().enumerate() {
                idx.push(lo + k as i64);
                val.push(x);
            }
            src.len() as u64
        }
        Some((op, imm)) => {
            let mut passes = 0u64;
            for (k, &x) in src.iter().enumerate() {
                if Vm::cmp_f64(op, x, imm) {
                    idx.push(lo + k as i64);
                    val.push(x);
                    passes += 1;
                }
            }
            passes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::interp::Interpreter;
    use crate::stmt::Stmt;
    use crate::var::Names;

    fn run_both(
        stmts: &[Stmt],
        names: &Names,
        bufs: &BufferSet,
    ) -> (
        Result<(), RuntimeError>,
        ExecStats,
        Result<(), RuntimeError>,
        ExecStats,
        BufferSet,
        BufferSet,
    ) {
        let mut bufs_interp = bufs.clone();
        let mut interp = Interpreter::new(names);
        let ri = interp.run(stmts, &mut bufs_interp);

        let program = Program::compile(stmts, names);
        program.validate().expect("program validates");
        let mut bufs_vm = bufs.clone();
        let mut vm = Vm::new(&program);
        let rv = vm.run(&program, &mut bufs_vm);
        (ri, interp.stats(), rv, vm.stats(), bufs_interp, bufs_vm)
    }

    /// Assert the two engines agree on success/failure, stats, and buffers.
    fn assert_parity(stmts: &[Stmt], names: &Names, bufs: &BufferSet) {
        let (ri, si, rv, sv, bi, bv) = run_both(stmts, names, bufs);
        assert_eq!(ri.is_ok(), rv.is_ok(), "engines disagree on outcome: {ri:?} vs {rv:?}");
        if ri.is_ok() {
            assert_eq!(si, sv, "work counters diverge");
            for (id, name, buf) in bi.iter() {
                assert_eq!(buf, bv.get(id), "buffer {name} diverges");
            }
        }
    }

    /// `round_u8` is `f64::round` followed by the clamp, bit for bit (a
    /// NaN by `same_f64`): on an edge table, on a million random bit
    /// patterns, and on a million dyadic halves `±(k + 0.5)` of every
    /// magnitude up to 2^52 and their neighbours.
    #[test]
    fn round_u8_is_libm_round_then_clamp() {
        let libm = |x: f64| x.round().clamp(0.0, 255.0);
        let check = |x: f64| {
            let (got, want) = (round_u8(x), libm(x));
            assert!(
                crate::value::same_f64(got, want),
                "round_u8({x:e}) = {got:e} ({:#x}), libm {want:e} ({:#x}), input {:#x}",
                got.to_bits(),
                want.to_bits(),
                x.to_bits()
            );
        };
        let two_52 = 2f64.powi(52);
        let mut edges = vec![
            0.0,
            0.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            1.5,
            2.5,
            3.5,
            127.5,
            128.5,
            254.5,
            254.49999999999997,
            255.5,
            255.49999999999997,
            256.5,
            1e300,
            two_52 - 0.5,
            two_52,
            two_52 + 1.0,
            two_52 / 2.0 + 0.5,
            two_52 / 2.0 - 0.5,
            2.0 * two_52 + 2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::EPSILON,
        ];
        edges.extend((0..300).map(|k| f64::from(k) + 0.5));
        edges.extend(edges.clone().into_iter().map(|x| -x));
        edges.into_iter().for_each(check);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..1_000_000 {
            check(f64::from_bits(draw()));
            let bits = draw();
            let k = (bits >> 12) >> (bits % 53);
            let half = (k as f64 + 0.5).copysign(f64::from_bits(bits << 63));
            [half, half.next_up(), half.next_down()].into_iter().for_each(check);
        }
    }

    #[test]
    fn for_loop_sums_a_buffer() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
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
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(bufs.get(out).load(0), Value::Float(10.0));
        assert_eq!(vm.stats().loop_iters, 4);
        assert_eq!(vm.stats().stores, 4);
        assert_eq!(vm.stats().loads, 4);
    }

    #[test]
    fn while_loop_matches_interpreter() {
        let mut names = Names::new();
        let bufs = BufferSet::new();
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
        assert_parity(&prog, &names, &bufs);
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(acc), Some(Value::Int(10)));
    }

    #[test]
    fn nested_control_flow_has_identical_stats() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let p = names.fresh("p");
        let i = names.fresh("i");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(4)),
                body: vec![
                    Stmt::If {
                        cond: Expr::eq(Expr::Var(p), Expr::int(2)),
                        then_branch: vec![Stmt::For {
                            var: i,
                            lo: Expr::int(0),
                            hi: Expr::Var(p),
                            body: vec![Stmt::Store {
                                buf: out,
                                index: Expr::int(0),
                                value: Expr::Var(i),
                                reduce: Some(BinOp::Add),
                            }],
                        }],
                        else_branch: vec![Stmt::Comment("skip".into())],
                    },
                    Stmt::Assign { var: p, value: Expr::add(Expr::Var(p), Expr::int(1)) },
                ],
            },
        ];
        assert_parity(&prog, &names, &bufs);
    }

    #[test]
    fn out_of_bounds_load_is_reported_with_buffer_name() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("vals", Buffer::F64(vec![1.0].into()));
        let v = names.fresh("v");
        let prog = vec![Stmt::Let { var: v, init: Expr::load(x, Expr::int(7)) }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        let err = vm.run(&program, &mut bufs).unwrap_err();
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
    fn unbound_variable_is_an_error_with_its_name() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let a = names.fresh("a");
        let b = names.fresh("mystery");
        let prog = vec![Stmt::Let { var: a, init: Expr::Var(b) }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        let err = vm.run(&program, &mut bufs).unwrap_err();
        match err {
            RuntimeError::UnboundVariable { name } => assert_eq!(name, "mystery"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn step_budget_catches_infinite_loops() {
        let names = Names::new();
        let mut bufs = BufferSet::new();
        let prog =
            vec![Stmt::While { cond: Expr::bool(true), body: vec![Stmt::Comment("spin".into())] }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program).with_step_budget(1000);
        let err = vm.run(&program, &mut bufs).unwrap_err();
        assert!(matches!(err, RuntimeError::StepBudgetExceeded { .. }));
    }

    /// An armed cancellation flag is looked at on a run's first statement
    /// and then at every [`Watch::TIME_CHECK_PERIOD`] multiple: raised
    /// mid-run, it trips at the first multiple after the raise — also where
    /// a count of several statements covers it, as a folded one does — and
    /// so does the tree-walker's per-statement check; a step budget inside
    /// the period still trips on its own statement.
    #[test]
    fn a_flag_raised_mid_run_trips_at_the_next_period_multiple() {
        const PERIOD: u64 = Watch::TIME_CHECK_PERIOD;
        let program = Program::compile(&[], &Names::new());
        let armed = |budget: Option<u64>| {
            let flag = Arc::new(AtomicBool::new(false));
            let mut vm = Vm::new(&program);
            vm.set_step_budget(budget);
            vm.set_watch(Some(Watch::cancelled_by(flag.clone(), 7)));
            vm.rearm_limits();
            (vm, flag)
        };
        let (mut vm, flag) = armed(None);
        assert_eq!(vm.check_limit, PERIOD - 1, "down at the start: nothing is due");
        flag.store(true, Ordering::Relaxed);
        vm.rearm_limits();
        assert_eq!(vm.check_limit, 0, "raised at the start: the first statement trips");
        flag.store(false, Ordering::Relaxed);
        vm.rearm_limits();
        vm.bump_stmts(1).expect("the flag is down");
        for _ in 0..10 {
            vm.bump_stmts(1).expect("nothing is due");
        }
        flag.store(true, Ordering::Relaxed);
        // Counts of three from statement 11: 1 023..=1 025 holds the multiple.
        let err = (0..).find_map(|_| vm.bump_stmts(3).err()).expect("the flag trips");
        assert!(matches!(err, RuntimeError::Deadline { ms: 7 }), "{err:?}");
        assert_eq!(vm.stats.stmts, PERIOD, "it trips on the period's multiple");
        let watch = Watch::cancelled_by(flag, 7);
        assert!((12..PERIOD).all(|stmts| watch.check(stmts).is_ok()), "the tree-walker's too");
        assert!(watch.check(PERIOD).is_err() && watch.check(1).is_err());

        let (mut vm, _flag) = armed(Some(20));
        let err = (0..).find_map(|_| vm.bump_stmts(3).err()).expect("the budget trips");
        assert!(matches!(err, RuntimeError::StepBudgetExceeded { budget: 20 }), "{err:?}");
        assert_eq!(vm.stats.stmts, 21, "on the budget's own statement");
    }

    /// A kernel op's work that crosses a [`Watch::TIME_CHECK_PERIOD`]
    /// multiple from statement 1 000, five statements an iteration: under a
    /// raised flag a V-op's bulk and a step loop op's batch each take the
    /// four iterations that end under the multiple and stop in front of the
    /// fifth, whose statements the scalar loop then counts and trips at the
    /// multiple.  Under a flag that is down, the check passes and both run
    /// through to their loop's last iteration.
    #[test]
    fn kernel_ops_stop_in_front_of_a_raised_flags_period_multiple() {
        const PERIOD: u64 = Watch::TIME_CHECK_PERIOD;
        let program = Program::compile(&[], &Names::new());
        // Registers 0, 1, 2: a V-op's counter and bound, or a finger, its
        // second (itself) and the step loop's start.
        let armed = |raised: bool| {
            let mut vm = Vm::new(&program);
            (vm.tags, vm.ints) = (vec![Tag::Int; 3], vec![0, 100, 0]);
            vm.stats.stmts = 1000;
            vm.set_watch(Some(Watch::cancelled_by(Arc::new(AtomicBool::new(raised)), 7)));
            vm.rearm_limits();
            vm
        };
        let trips_at_the_multiple = |mut vm: Vm| {
            let err = (0..5).find_map(|_| vm.bump_stmts(1).err()).expect("the scalar loop trips");
            assert!(matches!(err, RuntimeError::Deadline { ms: 7 }), "{err:?}");
            assert_eq!(vm.stats.stmts, PERIOD);
        };

        let (counter, hi) = (Reg(0), Reg(1));
        let mut vm = armed(true);
        assert_eq!(vm.vbulk(counter, hi, 5), Some((0, 4)), "the bulk stops in front");
        vm.stats.stmts += 4 * 5;
        trips_at_the_multiple(vm);
        assert_eq!(armed(false).vbulk(counter, hi, 5), Some((0, 100)), "and runs through");

        // A lone finger over 0..100 to the bound 99: every step but the last
        // (0..=98) is the op's, counting 4 statements and 1 for the finger.
        let list: Vec<i64> = (0..100).collect();
        let run = Run {
            regs: [Reg(0), Reg(0), Reg(2)],
            stop: 99,
            two: false,
            counts: StepCounts { stmts: [4, 1, 0], loads: [0; 3] },
            worst: 5,
            pass: [0; 3],
            replaces: 0,
            fill: None,
        };
        let mut vm = armed(true);
        assert!(vm.steps::<false, ()>([&list, &list], &run, (), |(), _| Some(())).is_some());
        assert_eq!((vm.ints[0], vm.stats.stmts), (4, 1020), "the batch stops in front");
        trips_at_the_multiple(vm);
        let mut vm = armed(false);
        assert!(vm.steps::<false, ()>([&list, &list], &run, (), |(), _| Some(())).is_some());
        assert_eq!((vm.ints[0], vm.stats.stmts), (99, 1000 + 99 * 5), "and runs through");
    }

    #[test]
    fn seek_counts_one_search_plus_one_load_per_probe() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![1, 4, 4, 9, 12].into()));
        let v = names.fresh("v");
        let prog = vec![Stmt::Let {
            var: v,
            init: Expr::search(idx, Expr::int(0), Expr::int(4), Expr::int(10), false),
        }];
        let (ri, si, rv, sv, _, _) = run_both(&prog, &names, &bufs);
        ri.unwrap();
        rv.unwrap();
        assert_eq!(si, sv);
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Int(4)));
        assert_eq!(vm.stats().searches, 1);
    }

    #[test]
    fn seek_on_abs_handles_negative_markers() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![3, -6, 8, -11].into()));
        let v = names.fresh("v");
        let prog = vec![Stmt::Let {
            var: v,
            init: Expr::search(idx, Expr::int(0), Expr::int(3), Expr::int(7), true),
        }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Int(2)));
    }

    #[test]
    fn coalesce_returns_first_non_missing() {
        let mut names = Names::new();
        let bufs = BufferSet::new();
        let v = names.fresh("v");
        let prog = vec![Stmt::Let {
            var: v,
            init: Expr::coalesce(vec![Expr::missing(), Expr::float(5.0), Expr::float(7.0)]),
        }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Float(5.0)));
        assert_parity(&prog, &names, &bufs);
    }

    #[test]
    fn load_at_missing_index_is_missing() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0].into()));
        let v = names.fresh("v");
        let prog = vec![Stmt::Let { var: v, init: Expr::load(x, Expr::missing()) }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Missing));
        assert_eq!(vm.stats().loads, 0, "a missing-index load is not counted");
    }

    #[test]
    fn select_with_missing_condition_takes_else_branch() {
        let mut names = Names::new();
        let bufs = BufferSet::new();
        let v = names.fresh("v");
        let prog = vec![Stmt::Let {
            var: v,
            init: Expr::select(Expr::missing(), Expr::int(1), Expr::int(2)),
        }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Int(2)));
    }

    #[test]
    fn short_circuit_does_not_evaluate_the_guarded_operand() {
        // `q < 1 && x[q] == 3` with q = 5: the tree-walker never loads
        // x[5]; the bytecode engine must not either (no out-of-bounds, no
        // load counted).
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::I64(vec![3].into()));
        let q = names.fresh("q");
        let v = names.fresh("v");
        let prog = vec![
            Stmt::Let { var: q, init: Expr::int(5) },
            Stmt::Let {
                var: v,
                init: Expr::binary(
                    BinOp::And,
                    Expr::lt(Expr::Var(q), Expr::int(1)),
                    Expr::eq(Expr::load(x, Expr::Var(q)), Expr::int(3)),
                ),
            },
        ];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Bool(false)));
        assert_eq!(vm.stats().loads, 0);
        assert_parity(&prog, &names, &bufs);
    }

    #[test]
    fn missing_lhs_still_evaluates_rhs_of_and() {
        let mut names = Names::new();
        let bufs = BufferSet::new();
        let v = names.fresh("v");
        let prog = vec![Stmt::Let {
            var: v,
            init: Expr::binary(BinOp::And, Expr::missing(), Expr::bool(true)),
        }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Missing));
        assert_parity(&prog, &names, &bufs);
    }

    #[test]
    fn self_referential_coalesce_assignment_does_not_clobber() {
        // v = coalesce(missing, v + 1): the first argument must not wipe v
        // before the second reads it.
        let mut names = Names::new();
        let bufs = BufferSet::new();
        let v = names.fresh("v");
        let prog = vec![
            Stmt::Let { var: v, init: Expr::int(41) },
            Stmt::Assign {
                var: v,
                value: Expr::coalesce(vec![Expr::missing(), Expr::add(Expr::Var(v), Expr::int(1))]),
            },
        ];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Int(42)));
        assert_parity(&prog, &names, &bufs);
    }

    #[test]
    fn empty_for_loop_does_not_execute() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
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
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(bufs.get(out).load(0), Value::Int(0));
        assert_eq!(vm.stats().loop_iters, 0);
        assert_eq!(vm.stats().stmts, 1, "just the for statement itself");
    }

    #[test]
    fn append_and_fiber_end_match_the_interpreter() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
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
        assert_parity(&prog, &names, &bufs);
        let program = Program::compile(&prog, &names);
        program.validate().expect("program validates");
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(bufs.get(pos).as_i64(), Some(&[0, 2][..]));
        assert_eq!(bufs.get(idx).as_i64(), Some(&[1, 3][..]));
        assert_eq!(bufs.get(val).as_f64(), Some(&[1.5, 2.0][..]));
        assert_eq!(vm.stats().stores, 5);
    }

    #[test]
    fn append_of_a_mixed_type_value_defers_to_boxed_push() {
        // A bool appended into an i64 buffer exercises the slow path.
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![].into()));
        let v = names.fresh("v");
        let prog = vec![
            Stmt::Let { var: v, init: Expr::bool(true) },
            Stmt::Append { buf: idx, value: Expr::Var(v) },
        ];
        assert_parity(&prog, &names, &bufs);
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert_eq!(bufs.get(idx).as_i64(), Some(&[1][..]));
    }

    #[test]
    fn reset_clears_stats_and_registers() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let a = names.fresh("a");
        let prog = vec![Stmt::Let { var: a, init: Expr::int(1) }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs).unwrap();
        assert!(vm.stats().stmts > 0);
        vm.reset();
        assert_eq!(vm.stats(), ExecStats::default());
        assert_eq!(vm.var_value(a), None);
    }

    #[test]
    fn run_profiled_counts_every_dispatch_with_identical_semantics() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
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
        let program = Program::compile(&prog, &names);
        let mut plain = Vm::new(&program);
        plain.run(&program, &mut bufs.clone()).unwrap();
        let mut profiled = Vm::new(&program);
        let mut bufs2 = bufs.clone();
        let counts = profiled.run_profiled(&program, &mut bufs2).unwrap();
        assert_eq!(plain.stats(), profiled.stats(), "profiling must not change semantics");
        assert_eq!(counts.len(), program.code().len());
        assert_eq!(bufs2.get(out).load(0), Value::Float(10.0));
        // The loop head runs 5 times (4 iterations + the failing test);
        // the body store runs 4 times; the prologue once.
        let total: u64 = counts.iter().sum();
        assert!(total > 0);
        for (pc, instr) in program.code().iter().enumerate() {
            match instr {
                Instr::ForTest { .. } => assert_eq!(counts[pc], 5),
                Instr::Store { .. } => assert_eq!(counts[pc], 4),
                Instr::Const { .. } if pc < 5 => assert_eq!(counts[pc], 1),
                _ => {}
            }
        }
    }

    #[test]
    fn mixed_type_arithmetic_falls_back_to_value_semantics() {
        let mut names = Names::new();
        let bufs = BufferSet::new();
        let v = names.fresh("v");
        let prog = vec![Stmt::Let { var: v, init: Expr::mul(Expr::int(2), Expr::float(1.5)) }];
        let program = Program::compile(&prog, &names);
        let mut vm = Vm::new(&program);
        vm.run(&program, &mut bufs.clone()).unwrap();
        assert_eq!(vm.var_value(v), Some(Value::Float(3.0)));
    }
}
