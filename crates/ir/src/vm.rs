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

use crate::buffer::{AllocMeter, BufId, Buffer, BufferSet};
use crate::bytecode::{
    Gather, Instr, LaneTag, MergeForm, Program, Reg, Term, VAcc, VBase, VCost, VFill, VRhs, VScale,
};
use crate::error::RuntimeError;
use crate::expr::BinOp;
use crate::interp::ExecStats;
use crate::value::{Value, ValueKind};
use crate::var::Var;

/// Cooperative interruption, checked on the same statement path as the
/// step budget: an externally-armed cancellation flag, an absolute
/// wall-clock deadline, or both.  Tripping either aborts the run with the
/// typed [`RuntimeError::Deadline`]; buffers stay reusable exactly as
/// after a step-budget abort (the next run truncates them in place).
///
/// The flag is shared (`Arc`), so a service can arm one flag to stop a
/// request wherever it is executing.  The wall clock is only consulted
/// every [`Watch::TIME_CHECK_PERIOD`] statements to keep the hot path at
/// one relaxed atomic load.
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
    /// Statements between wall-clock deadline checks (a power of two so
    /// the check compiles to a mask).
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
    /// [`Watch::check`] is known to do nothing *unless the cancellation
    /// flag is raised* — the flag can flip at any moment, so the VM polls
    /// it every [`Vm::POLL_PERIOD`] statements and skips `check` until the
    /// count passes this.
    fn quiet_until(&self, stmts: u64) -> u64 {
        let mut quiet = u64::MAX;
        if let Some(at) = self.fault_stmt {
            quiet = quiet.min(at.saturating_sub(1).max(stmts));
        }
        if self.deadline.is_some() {
            let next_check =
                (stmts / Self::TIME_CHECK_PERIOD + 1).saturating_mul(Self::TIME_CHECK_PERIOD);
            quiet = quiet.min(next_check - 1);
        }
        quiet
    }

    /// The statement-path check the tree-walker calls on every statement:
    /// panics at an armed injection point, otherwise trips
    /// [`RuntimeError::Deadline`] on cancellation (every statement) or
    /// deadline expiry (every [`Watch::TIME_CHECK_PERIOD`] statements).
    #[inline]
    pub(crate) fn check(&self, stmts: u64) -> Result<(), RuntimeError> {
        self.check_since(stmts.saturating_sub(1), stmts)
    }

    /// [`Watch::check`] at statement `stmts` when the last statement checked
    /// was `since`: the clock is read if a multiple of
    /// [`Watch::TIME_CHECK_PERIOD`] lies in `since + 1..=stmts`, so a
    /// kernel op that counts many statements at once does not step over a
    /// deadline check.
    #[inline]
    fn check_since(&self, since: u64, stmts: u64) -> Result<(), RuntimeError> {
        if let Some(at) = self.fault_stmt {
            if stmts >= at {
                panic!("injected fault: panic at statement {at}");
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(RuntimeError::Deadline { ms: self.ms });
            }
        }
        if let Some(deadline) = self.deadline {
            let due = stmts / Self::TIME_CHECK_PERIOD > since / Self::TIME_CHECK_PERIOD;
            if due && Instant::now() >= deadline {
                return Err(RuntimeError::Deadline { ms: self.ms });
            }
        }
        Ok(())
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
    /// The largest `stats.stmts` at which nothing needs looking at: the
    /// dispatch loop compares against this one number and leaves
    /// everything else to [`Vm::poll`].  It is [`Vm::check_limit`], or,
    /// while a cancellation flag is armed, no further than
    /// [`Vm::POLL_PERIOD`] statements past the flag's last poll.  Derived
    /// state, like `check_limit`: recomputed on every dispatch entry and
    /// after every check (to the current count, so a run's first statement
    /// polls) and after every poll.
    stmt_limit: u64,
    /// The largest `stats.stmts` that needs no step-budget, injected-fault
    /// or deadline check.
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
            stmt_limit: u64::MAX,
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

    #[inline]
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
        let code = program.code();
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
                    // Exactly `Value::unop(UnOp::Round, _)` on a float.
                    self.floats[dst.index()] = self.floats[src.index()].round().clamp(0.0, 255.0);
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
                // ---- an `IForTest` head and executes all but the last of
                // ---- that loop's iterations over whole slices, then
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
                Instr::IMergeSkip { .. } => pc = self.merge_run_ahead(bufs, code, pc),
                Instr::IGatherReduce { .. } => {
                    self.gather_reduce(bufs, &code[pc]);
                    pc += 1;
                }
            }
        }
        Ok(())
    }

    /// Statements between two polls of an armed cancellation flag: well
    /// under a microsecond of work, against the milliseconds a drain waits
    /// between looks at its stragglers.
    pub(crate) const POLL_PERIOD: u64 = 64;

    /// Count `n` executed statements.  The one accounting routine behind
    /// both encodings of a statement — an explicit [`Instr::BumpStmt`]
    /// and a count folded into [`Program::stmt_bump`]: one add and one
    /// compare here, everything a statement can trip behind [`Vm::poll`].
    #[inline(always)]
    fn bump_stmts(&mut self, n: u64) -> Result<(), RuntimeError> {
        self.stats.stmts += n;
        if self.stats.stmts > self.stmt_limit {
            self.poll(n)
        } else {
            Ok(())
        }
    }

    /// Past [`Vm::stmt_limit`].  While a cancellation flag is armed (every
    /// service request arms one) that is once every [`Vm::POLL_PERIOD`]
    /// statements, and a look at the flag; anything else is
    /// [`Vm::account`]'s.  `#[cold]` is for the run *without* a watch: it
    /// keeps the call off the dispatch loop's straight line (measured:
    /// inlining this costs the unwatched merge kernels 3 %).
    #[cold]
    #[inline(never)]
    fn poll(&mut self, n: u64) -> Result<(), RuntimeError> {
        if self.still_quiet() {
            Ok(())
        } else {
            self.account(n)
        }
    }

    /// Whether nothing but a poll of the cancellation flag is due and the
    /// flag is down; if so, the next poll is [`Vm::POLL_PERIOD`] statements
    /// on.
    #[inline]
    fn still_quiet(&mut self) -> bool {
        if self.stats.stmts > self.check_limit {
            return false;
        }
        let cancel = self.watch.as_ref().and_then(|watch| watch.cancel.as_ref());
        if cancel.is_none_or(|cancel| cancel.load(Ordering::Relaxed)) {
            return false;
        }
        self.stmt_limit = self.check_limit.min(self.stats.stmts.saturating_add(Self::POLL_PERIOD));
        true
    }

    /// Re-run the `n` statements just counted one at a time against the
    /// step budget, then the [`Watch`] (injected fault, cancellation,
    /// deadline) — the order and the per-statement counts of the
    /// tree-walker, so a trip leaves `stats.stmts` at exactly the
    /// statement that tripped.
    ///
    /// A vectorized kernel op counts its bulk without a check, bounded by
    /// the step budget only.  What it counted past [`Vm::check_limit`] is
    /// checked at the next statement accounted here — so a deadline check
    /// it stepped over is made there — and until then the limits stay.
    #[cold]
    #[inline(never)]
    fn account(&mut self, n: u64) -> Result<(), RuntimeError> {
        if n == 0 {
            return Ok(());
        }
        let counted = self.stats.stmts;
        let mut since = (counted - n).min(self.check_limit);
        for stmts in counted - n + 1..=counted {
            self.stats.stmts = stmts;
            if let Some(budget) = self.step_budget {
                if stmts > budget {
                    return Err(RuntimeError::StepBudgetExceeded { budget });
                }
            }
            if let Some(watch) = &self.watch {
                watch.check_since(since, stmts)?;
            }
            since = stmts;
        }
        self.rearm_limits();
        Ok(())
    }

    /// Derive [`Vm::check_limit`] and [`Vm::stmt_limit`] from the step
    /// budget, the watch and the current statement count.
    fn rearm_limits(&mut self) {
        let budget = self.step_budget.unwrap_or(u64::MAX);
        let (quiet, polled) = match &self.watch {
            Some(watch) => (watch.quiet_until(self.stats.stmts), watch.cancel.is_some()),
            None => (u64::MAX, false),
        };
        self.check_limit = budget.min(quiet);
        self.stmt_limit =
            if polled { self.check_limit.min(self.stats.stmts) } else { self.check_limit };
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
    #[inline]
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
    // Vectorized kernel-op execution.  Shared contract: read the loop
    // bounds, check every precondition (trip count, step budget, buffer
    // kinds, full-slice bounds, aliasing) *before* touching any state;
    // on failure return without doing anything — the scalar loop that
    // follows is the fallback.  On success execute iterations
    // `[lo, hi)` over slices, bump `ExecStats` by the scalar-equivalent
    // per-iteration cost, and advance the counter to `hi` so the scalar
    // loop runs exactly the final iteration (which restores every
    // temporary register and doubles as the remainder handler).
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

    /// Bulk trip count `hi - lo` when enough bulk iterations remain to
    /// amortize the setup (plus the scalar-loop final iteration).
    #[inline]
    fn vbulk_iters(lo: i64, hiv: i64) -> Option<u64> {
        if hiv.checked_sub(lo).is_some_and(|n| n >= Self::VMIN_TRIP) {
            Some(hiv.wrapping_sub(lo) as u64)
        } else {
            None
        }
    }

    /// Whether the bulk's statement count provably fits under the step
    /// budget.  When it might not, the op backs off so the scalar loop
    /// faults (or not) at exactly the scalar point.
    #[inline]
    fn vbudget_ok(&self, n: u64, stmts_per_iter: u64) -> bool {
        match self.step_budget {
            None => true,
            Some(budget) => n
                .checked_mul(stmts_per_iter)
                .and_then(|s| self.stats.stmts.checked_add(s))
                .is_some_and(|total| total <= budget),
        }
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

    /// The optional rounding tail of a vector map — round then clamp,
    /// exactly [`Instr::FRound`].
    #[inline]
    fn vpost(round: bool, x: f64) -> f64 {
        if round {
            x.round().clamp(0.0, 255.0)
        } else {
            x
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
        let (lo, hiv) = (self.ints[counter.index()], self.ints[hi.index()]);
        let Some(n) = Self::vbulk_iters(lo, hiv) else { return };
        if !self.vbudget_ok(n, cost.stmts as u64) {
            return;
        }
        let off = self.vbase_off(base);
        let val = match val {
            VFill::Imm(imm) => imm,
            VFill::Reg(reg) => self.floats[reg.index()],
        };
        let Buffer::F64(data) = bufs.get_mut(buf) else { return };
        let Some(span) = vspan(off, lo, hiv, data.len()) else { return };
        vfill_f64(&mut data[span], val, lanes);
        self.stats.loop_iters += n;
        self.vbump(n, cost);
        self.ints[counter.index()] = hiv;
    }

    /// [`Instr::VMapF64`]: `dst[..] reduce= post(pre(a[..]) rhs)` for the
    /// bulk.  The destination is lifted out of the set for the duration
    /// so the sources can be read while it is written (it aliases
    /// neither source — checked; the two sources may alias each other).
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
            lanes,
        } = *instr
        else {
            unreachable!("dispatched on a VMapF64")
        };
        let (lo, hiv) = (self.ints[counter.index()], self.ints[hi.index()]);
        let Some(n) = Self::vbulk_iters(lo, hiv) else { return };
        if !self.vbudget_ok(n, cost.stmts as u64) || dst == a {
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
                    Some(s) => Some(s),
                    None => return,
                }
            }
            _ => None,
        };
        let mut lifted = lift(bufs, dst);
        {
            let Buffer::F64(ddata) = &mut lifted else { unreachable!() };
            let Buffer::F64(adata) = bufs.get(a) else { unreachable!() };
            let dslice = &mut ddata[dspan];
            let aslice = &adata[aspan];
            match (rhs, bspan) {
                (VRhs::None, _) => {
                    vmap2_f64(dslice, aslice, reduce, lanes, |x| {
                        Self::vpost(round, Self::vscale(a_pre, x))
                    });
                }
                (VRhs::Imm { op, imm }, _) => {
                    vmap2_f64(dslice, aslice, reduce, lanes, |x| {
                        Self::vpost(round, Self::float_arith(op, Self::vscale(a_pre, x), imm))
                    });
                }
                (VRhs::Buf { op, buf, pre, .. }, Some(bspan)) => {
                    let Buffer::F64(bdata) = bufs.get(buf) else { unreachable!() };
                    let bslice = &bdata[bspan];
                    vmap3_f64(dslice, aslice, bslice, reduce, lanes, |x, y| {
                        Self::vpost(
                            round,
                            Self::float_arith(op, Self::vscale(a_pre, x), Self::vscale(pre, y)),
                        )
                    });
                }
                (VRhs::Buf { .. }, None) => unreachable!(),
            }
        }
        *bufs.get_mut(dst) = lifted;
        self.stats.loop_iters += n;
        self.vbump(n, cost);
        self.ints[counter.index()] = hiv;
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
        let (lo, hiv) = (self.ints[counter.index()], self.ints[hi.index()]);
        let Some(n) = Self::vbulk_iters(lo, hiv) else { return };
        if !self.vbudget_ok(n, cost.stmts as u64) || acc == a || acc == b {
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
        for (&x, &y) in adata[aspan].iter().zip(&bdata[bspan]) {
            t = Self::float_arith(op, t, x * y);
        }
        match bufs.get_mut(acc) {
            Buffer::F64(d) => d[k] = t,
            _ => unreachable!(),
        }
        self.stats.loop_iters += n;
        self.vbump(n, cost);
        self.ints[counter.index()] = hiv;
    }

    /// [`Instr::VReduceF64`]: `acc[acc_idx] op= pre(src[..])` folded
    /// strictly in order.
    #[inline(never)]
    fn v_reduce(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::VReduceF64 { acc, acc_idx, src, base, pre, op, counter, hi, cost, .. } = *instr
        else {
            unreachable!("dispatched on a VReduceF64")
        };
        let (lo, hiv) = (self.ints[counter.index()], self.ints[hi.index()]);
        let Some(n) = Self::vbulk_iters(lo, hiv) else { return };
        if !self.vbudget_ok(n, cost.stmts as u64) || acc == src {
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
        self.stats.loop_iters += n;
        self.vbump(n, cost);
        self.ints[counter.index()] = hiv;
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
        let (lo, hiv) = (self.ints[counter.index()], self.ints[hi.index()]);
        let Some(n) = Self::vbulk_iters(lo, hiv) else { return };
        // Worst case every iteration passes the guard.
        if !self.vbudget_ok(n, cost.stmts as u64 + pass_cost.stmts as u64) {
            return;
        }
        // Worst case every iteration appends a coordinate and a value; when
        // that might not fit the allocation budget, back off so the scalar
        // loop faults (or not) at exactly the scalar element.
        if !self.alloc.fits(n.saturating_mul(2)) {
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
        self.stats.loop_iters += n;
        self.vbump(n, cost);
        self.vbump(passes, pass_cost);
        self.ints[counter.index()] = hiv;
    }

    /// [`Instr::IMergeSkip`] at `pc`, out of the dispatch loop: run ahead
    /// in the form's own way and return where dispatch goes on — the next
    /// instruction, or the loop's exit once a jumper has run its last step.
    #[inline(never)]
    fn merge_run_ahead(&mut self, bufs: &BufferSet, code: &[Instr], pc: usize) -> usize {
        let Instr::IMergeSkip { a, p, b, q, form, start, stop, stmts_a, loads_a, stmts_b, loads_b } =
            code[pc]
        else {
            unreachable!("dispatched on an IMergeSkip")
        };
        let counts = [stmts_a, loads_a, stmts_b, loads_b];
        match form {
            MergeForm::Gallop { a_end, a_row, b_end, b_row } => {
                let fingers = [(a, p, a_end, a_row), (b, q, b_end, b_row)];
                // The loop's exit, off its head in front of the op.
                let exit = match pc.checked_sub(1).map(|head| &code[head]) {
                    Some(&Instr::IWhileCmp { op: BinOp::Le, lhs, rhs, end })
                        if (lhs, rhs) == (start, stop) =>
                    {
                        Some(end)
                    }
                    _ => None,
                };
                let left = self.merge_gallop(bufs, fingers, (start, stop), counts, exit);
                return left.map_or(pc + 1, |end| end as usize);
            }
            MergeForm::Blocks { ofs } => {
                self.merge_skip(bufs, (a, p, Some(ofs)), (b, q), start, stop, counts)
            }
            MergeForm::Steps => self.merge_skip(bufs, (a, p, None), (b, q), start, stop, counts),
        }
        pc + 1
    }

    /// [`Instr::IMergeSkip`], dispatched at the top of an iteration of its
    /// merge loop: run ahead through the iterations that find `a[p] !=
    /// b[q]`, are not the loop's last and — in the block form, where `b`
    /// ends the step — find `b[q]` in the gap in front of `a[p]`'s block,
    /// exactly as the scalar loop under the op would — every comparison is
    /// the scalar instruction's own — but for the temporaries, which the
    /// loop does not read before it rewrites them.  `counts` is `[stmts_a,
    /// loads_a, stmts_b, loads_b]`: what an iteration costs, by the finger
    /// that leads it — the one finger it advances.
    ///
    /// An iteration is only skipped while a worst-case one still fits under
    /// [`Vm::stmt_limit`], so nothing a statement can trip is due inside
    /// the run; when it is only the poll of a cancellation flag that comes
    /// due, the op polls (early) and carries on.
    fn merge_skip(
        &mut self,
        bufs: &BufferSet,
        (a, p, ofs): (BufId, Reg, Option<BufId>),
        (b, q): (BufId, Reg),
        start: Reg,
        stop: Reg,
        counts: [u32; 4],
    ) {
        let (Buffer::I64(a), Buffer::I64(b)) = (bufs.get(a), bufs.get(b)) else { return };
        let ofs = match ofs.map(|ofs| bufs.get(ofs)) {
            Some(Buffer::I64(ofs)) => Some(ofs),
            Some(_) => return,
            None => None,
        };
        let [stmts_a, loads_a, stmts_b, loads_b] = counts.map(u64::from);
        // A skipped iteration advances one finger: `a[p] != b[q]`.
        let worst = stmts_a.max(stmts_b).max(1);
        let stop = self.ints[stop.index()];
        loop {
            let (p0, q0) = (self.ints[p.index()], self.ints[q.index()]);
            let (mut pv, mut qv, mut next) = (p0, q0, None);
            let room = self.stmt_limit.saturating_sub(self.stats.stmts) / worst;
            let mut skipped = 0;
            while skipped < room {
                // A finger outside its buffer: the scalar load's fault.
                let (Some(&s1), Some(&s2)) = (a.get(pv as usize), b.get(qv as usize)) else {
                    break;
                };
                let step_stop = s1.min(s2).min(stop);
                let after = step_stop.wrapping_add(1);
                if s1 == s2 || !Self::cmp_int(BinOp::Le, after, stop) {
                    break;
                }
                // Where `b` ends the step, the block form's gap test as the
                // scalar loop computes it: the body runs unless `ss <=
                // gap_stop = min(s1 - len, ss)` and the block phase, starting
                // at `gap_stop + 1`, starts past `ss`.
                if let Some(ofs) = ofs.filter(|_| s2 == step_stop) {
                    let at = pv as usize;
                    let Some(&[lo, hi]) = ofs.get(at..at + 2) else { break };
                    let gap_stop = s1.wrapping_sub(hi.wrapping_sub(lo)).min(step_stop);
                    let le = |x, y| Self::cmp_int(BinOp::Le, x, y);
                    if !le(step_stop, gap_stop) || le(gap_stop.wrapping_add(1), step_stop) {
                        break;
                    }
                }
                pv = pv.wrapping_add((s1 == step_stop) as i64);
                qv = qv.wrapping_add((s2 == step_stop) as i64);
                next = Some(after);
                skipped += 1;
            }
            let Some(next) = next else { return };
            let (led_by_a, led_by_b) = (pv.wrapping_sub(p0) as u64, qv.wrapping_sub(q0) as u64);
            self.stats.loop_iters += skipped;
            self.stats.loads += led_by_a * loads_a + led_by_b * loads_b;
            self.stats.stmts += led_by_a * stmts_a + led_by_b * stmts_b;
            self.ints[p.index()] = pv;
            self.ints[q.index()] = qv;
            self.ints[start.index()] = next;
            if skipped < room || !self.still_quiet() {
                return;
            }
        }
    }

    /// [`Instr::IMergeSkip`]'s jumper form ([`MergeForm::Gallop`]),
    /// dispatched at the top of an iteration of its merge loop: run ahead
    /// through the iterations that match nothing.  In such an iteration one
    /// finger, the leader, ends the step `ss = min(max(s1, s2), stop)` and
    /// the other, the trailer, does not; the trailer seeks to `ss` in its
    /// row (the VM's own galloping search, over `list[finger..=end[row] -
    /// 1]`) and lands on a coordinate past it.  The leader advances by one
    /// and the trailer moves to where its seek landed; the iteration counts
    /// two loop iterations (the loop's next one and the trailer's one-step
    /// stepper), one search, and the seek's probes as loads on top of
    /// `counts`.  It stops, without committing its seek, in front of an
    /// iteration whose strides are equal, that neither finger ends (the step
    /// clipped to the bound), whose seek lands on `ss` (a match) or runs out
    /// of its row, or that would fault.
    ///
    /// The loop's last iteration (`ss == stop`) matching nothing is run too
    /// where the op knows the loop's exit, `exit` (the head in front of the
    /// op): it counts one loop iteration fewer, as the bottom test does not
    /// go round again, and the op returns `exit` for the dispatch loop to
    /// continue at.
    ///
    /// The loop's comparisons of coordinates go through `f64`
    /// ([`Vm::cmp_int`]); the recogniser decided them on integers, so the
    /// op also stops where `ss` or `ss + 1` is not exact in an `f64`.
    fn merge_gallop(
        &mut self,
        bufs: &BufferSet,
        fingers: [(BufId, Reg, BufId, Reg); 2],
        (start, stop): (Reg, Reg),
        counts: [u32; 4],
        exit: Option<u32>,
    ) -> Option<u32> {
        /// The magnitude below which every `i64` is exact in an `f64`.
        const EXACT: i64 = 1 << 53;
        let [(a, p, a_end, a_row), (b, q, b_end, b_row)] = fingers;
        let (Buffer::I64(a), Buffer::I64(b)) = (bufs.get(a), bufs.get(b)) else { return None };
        // A trailer's last position, `end[row] - 1`: the loop writes neither
        // the row nor (on a step the op performs) the buffer.
        let last = |end: BufId, row: Reg| match bufs.get(end) {
            Buffer::I64(end) => {
                let row = usize::try_from(self.ints[row.index()]).ok()?;
                end.get(row).map(|end| end.wrapping_sub(1))
            }
            _ => None,
        };
        let (a_last, b_last) = (last(a_end, a_row), last(b_end, b_row));
        let [stmts_a, loads_a, stmts_b, loads_b] = counts.map(u64::from);
        let worst = stmts_a.max(stmts_b).max(1);
        let stop = self.ints[stop.index()];
        if stop >= EXACT {
            return None;
        }
        loop {
            let (mut pv, mut qv) = (self.ints[p.index()], self.ints[q.index()]);
            let room = self.stmt_limit.saturating_sub(self.stats.stmts) / worst;
            let (mut skipped, mut led_by_a, mut probed) = (0, 0, 0);
            let (mut next, mut left) = (None, false);
            while skipped < room {
                let (Some(&s1), Some(&s2)) = (a.get(pv as usize), b.get(qv as usize)) else {
                    break;
                };
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
                if list.get(to as usize).is_none_or(|&landed| landed <= step_stop) {
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
            let next = next?;
            let led_by_b = skipped - led_by_a;
            self.stats.loop_iters += 2 * skipped - left as u64;
            self.stats.searches += skipped;
            self.stats.loads += led_by_a * loads_a + led_by_b * loads_b + probed;
            self.stats.stmts += led_by_a * stmts_a + led_by_b * stmts_b;
            self.ints[p.index()] = pv;
            self.ints[q.index()] = qv;
            self.ints[start.index()] = next;
            if left {
                return exit;
            }
            if skipped < room || !self.still_quiet() {
                return None;
            }
        }
    }

    /// [`Instr::IGatherReduce`], out of the dispatch loop, dispatched at the
    /// top of an iteration of its step loop: perform the iterations whose
    /// stride `s = crd[p]` is below the bound — `min(s, stop)` is `s`, so
    /// the body runs, and `s + 1 <= stop`, so the loop goes on — folding
    /// each body's value into the accumulator in order, and store it once:
    /// nothing else in those iterations reads `acc`, which is no source.
    /// Every comparison is the scalar instruction's own.
    ///
    /// The accumulator's element and the offset's terms are read once; if
    /// one is out of bounds, or a buffer has another kind, the op does
    /// nothing, and the scalar loop faults where it faults.  An iteration is
    /// only performed while a whole one still fits under [`Vm::stmt_limit`],
    /// polling early as [`Vm::merge_skip`] does.
    #[inline(never)]
    fn gather_reduce(&mut self, bufs: &mut BufferSet, instr: &Instr) {
        let Instr::IGatherReduce { crd, val, p, gather, acc, k, op, start, stop, stmts, loads } =
            *instr
        else {
            unreachable!("dispatched on an IGatherReduce")
        };
        let slot = self.ints[k.index()];
        let mut sum = match bufs.get(acc) {
            Buffer::F64(data) if slot >= 0 && (slot as usize) < data.len() => data[slot as usize],
            _ => return,
        };
        let x = match gather {
            Gather::None => None,
            Gather::Load { x, .. } if x == acc => return,
            Gather::Load { x, ofs } => {
                let Buffer::F64(x) = bufs.get(x) else { return };
                let mut shift = 0i64;
                for term in ofs {
                    let (buf, at, minus) = match term {
                        Term::Zero => continue,
                        Term::Plus { buf, at } => (buf, at, false),
                        Term::Minus { buf, at } => (buf, at, true),
                    };
                    let Buffer::I64(data) = bufs.get(buf) else { return };
                    let Some(&v) =
                        usize::try_from(self.ints[at.index()]).ok().and_then(|i| data.get(i))
                    else {
                        return;
                    };
                    shift = if minus { shift.wrapping_sub(v) } else { shift.wrapping_add(v) };
                }
                Some((x, shift))
            }
        };
        if acc == val {
            return;
        }
        let (Buffer::I64(crd), Buffer::F64(val)) = (bufs.get(crd), bufs.get(val)) else { return };
        let stop = self.ints[stop.index()];
        let per = u64::from(stmts).max(1);
        let mut folded = false;
        loop {
            let mut pv = self.ints[p.index()];
            let room = self.stmt_limit.saturating_sub(self.stats.stmts) / per;
            let (mut done, mut next) = (0, None);
            while done < room {
                // A finger outside its list: the scalar load's fault.
                let Some(at) = usize::try_from(pv).ok() else { break };
                let (Some(&s), Some(&v)) = (crd.get(at), val.get(at)) else { break };
                let after = s.wrapping_add(1);
                if s > stop || !Self::cmp_int(BinOp::Le, after, stop) {
                    break;
                }
                let y = match x {
                    None => v,
                    Some((x, shift)) => {
                        match usize::try_from(s.wrapping_add(shift)).ok().and_then(|i| x.get(i)) {
                            Some(&gathered) => v * gathered,
                            None => break,
                        }
                    }
                };
                sum = Self::float_arith(op, sum, y);
                pv += 1;
                next = Some(after);
                done += 1;
            }
            let Some(next) = next else { break };
            folded = true;
            self.stats.loop_iters += done;
            self.stats.stmts += done * u64::from(stmts);
            self.stats.loads += done * u64::from(loads);
            self.stats.stores += done;
            self.ints[p.index()] = pv;
            self.ints[start.index()] = next;
            if done < room || !self.still_quiet() {
                break;
            }
        }
        if folded {
            if let Buffer::F64(data) = bufs.get_mut(acc) {
                data[slot as usize] = sum;
            }
        }
    }
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

/// Unrolled one-source map over pre-checked, equal-length slices.
fn vmap2_f64(dst: &mut [f64], a: &[f64], reduce: Option<BinOp>, lanes: u8, f: impl Fn(f64) -> f64) {
    if lanes == 8 {
        vmap2_lanes::<8>(dst, a, reduce, &f);
    } else {
        vmap2_lanes::<4>(dst, a, reduce, &f);
    }
}

fn vmap2_lanes<const L: usize>(
    dst: &mut [f64],
    a: &[f64],
    reduce: Option<BinOp>,
    f: &impl Fn(f64) -> f64,
) {
    let (dc, dr) = dst.as_chunks_mut::<L>();
    let (ac, ar) = a.as_chunks::<L>();
    for (d, s) in dc.iter_mut().zip(ac) {
        for k in 0..L {
            d[k] = vcombine(reduce, d[k], f(s[k]));
        }
    }
    for (d, &x) in dr.iter_mut().zip(ar) {
        *d = vcombine(reduce, *d, f(x));
    }
}

/// Take a kernel op's destination out of the set, so that its sources can
/// be read while it is written; the caller puts it back.  An empty `Bool`
/// holds its place because it allocates nothing (an empty aligned lane
/// reserves its padding): lifting is on every short bulk's path.
fn lift(bufs: &mut BufferSet, id: BufId) -> Buffer {
    std::mem::replace(bufs.get_mut(id), Buffer::Bool(Vec::new()))
}

/// Unrolled two-source map over pre-checked, equal-length slices.
fn vmap3_f64(
    dst: &mut [f64],
    a: &[f64],
    b: &[f64],
    reduce: Option<BinOp>,
    lanes: u8,
    f: impl Fn(f64, f64) -> f64,
) {
    if lanes == 8 {
        vmap3_lanes::<8>(dst, a, b, reduce, &f);
    } else {
        vmap3_lanes::<4>(dst, a, b, reduce, &f);
    }
}

fn vmap3_lanes<const L: usize>(
    dst: &mut [f64],
    a: &[f64],
    b: &[f64],
    reduce: Option<BinOp>,
    f: &impl Fn(f64, f64) -> f64,
) {
    let (dc, dr) = dst.as_chunks_mut::<L>();
    let (ac, ar) = a.as_chunks::<L>();
    let (bc, br) = b.as_chunks::<L>();
    for ((d, s), t) in dc.iter_mut().zip(ac).zip(bc) {
        for k in 0..L {
            d[k] = vcombine(reduce, d[k], f(s[k], t[k]));
        }
    }
    for ((d, &x), &y) in dr.iter_mut().zip(ar).zip(br) {
        *d = vcombine(reduce, *d, f(x, y));
    }
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

    /// An armed cancellation flag is polled on a run's first statement and
    /// then once a period: raised mid-run, it stops the run within
    /// `POLL_PERIOD` statements, and a step budget inside the period still
    /// trips on its own statement.
    #[test]
    fn a_flag_raised_mid_run_trips_within_the_poll_period() {
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
        assert_eq!(vm.stmt_limit, 0, "the first statement polls");
        vm.bump_stmts(1).expect("the flag is down");
        assert_eq!(vm.stmt_limit, 1 + Vm::POLL_PERIOD);
        for _ in 0..10 {
            vm.bump_stmts(1).expect("nothing is due");
        }
        flag.store(true, Ordering::Relaxed);
        let mut unnoticed = 0;
        let err = loop {
            match vm.bump_stmts(1) {
                Ok(()) => unnoticed += 1,
                Err(err) => break err,
            }
        };
        assert!(matches!(err, RuntimeError::Deadline { ms: 7 }), "{err:?}");
        assert!(unnoticed < Vm::POLL_PERIOD, "{unnoticed} statements ran under a raised flag");
        assert_eq!(vm.stats.stmts, 2 + Vm::POLL_PERIOD, "it trips on the statement that polls");

        let (mut vm, _flag) = armed(Some(20));
        let err = (0..).find_map(|_| vm.bump_stmts(3).err()).expect("the budget trips");
        assert!(matches!(err, RuntimeError::StepBudgetExceeded { budget: 20 }), "{err:?}");
        assert_eq!(vm.stats.stmts, 21, "on the budget's own statement");
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
