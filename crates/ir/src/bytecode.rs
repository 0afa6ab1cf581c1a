//! A flat register bytecode compiled from the target IR.
//!
//! The tree-walking interpreter in [`crate::interp`] pays pointer-chasing and
//! enum-dispatch overhead for every IR node it revisits.  This module
//! compiles a lowered [`Stmt`] tree *once* into a flat instruction stream
//! with resolved jump offsets; the register VM in [`crate::vm`] then executes
//! it in a tight dispatch loop over unboxed typed registers.
//!
//! Design notes:
//!
//! * **Registers, not a stack.**  Every IR variable owns the register with
//!   its own [`Var`] index; expression temporaries are allocated above the
//!   variables with a LIFO discipline, so the compiled program knows the
//!   exact register-file size up front.
//! * **Resolved jumps.**  Structured control flow (`if`/`while`/`for`,
//!   short-circuit `&&`/`||`, `select`, `coalesce`) becomes conditional
//!   jumps whose absolute targets are patched in a single pass; there is no
//!   label table left at runtime.
//! * **Stats parity.**  The instruction stream reproduces the tree-walker's
//!   [`crate::interp::ExecStats`] exactly: every source statement is
//!   accounted once, either by an explicit [`Instr::BumpStmt`] (what
//!   [`Program::compile`] emits, one per statement) or by a count the
//!   `finalize` pass folded into [`Program::stmt_bump`] for the
//!   instruction that follows it; loop heads count `loop_iters`,
//!   loads/stores are counted by the memory instructions, and the looplet
//!   `seek` lowers to the dedicated [`Instr::Seek`] instruction which
//!   counts one search plus one load per probe, exactly like the
//!   interpreter's search.
//!
//! Evaluation-order subtleties that the compiler preserves bit-for-bit:
//! `&&`/`||` only evaluate their right operand when the left is `true`
//! (resp. `false`) *or missing*; `select` and `if` treat a missing condition
//! as false; `coalesce` stops evaluating at the first non-missing argument;
//! `for` bounds are coerced to integers in evaluation order (`lo` before
//! `hi` is even evaluated); a `store`'s index is coerced before the stored
//! value is evaluated.

use std::fmt;
use std::sync::Arc;

use crate::buffer::BufId;
use crate::expr::{BinOp, Expr, UnOp};
use crate::stmt::Stmt;
use crate::value::Value;
use crate::var::{Names, Var};

/// A register of the bytecode VM, identified by a dense index.
///
/// Registers `0..num_vars` belong to the IR variables (the register index
/// equals [`Var::index`]); higher registers are expression temporaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub(crate) u32);

impl Reg {
    /// The dense index of this register in the VM's register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Placeholder jump target used during compilation, patched before the
/// [`Program`] is returned.  [`Program::validate`] checks none survive.
const PENDING: u32 = u32::MAX;

/// One bytecode instruction.
///
/// Jump targets are absolute instruction indices.  Every instruction either
/// falls through to the next instruction or transfers control to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Count one executed statement and enforce the step budget.  Emitted
    /// once per source [`Stmt`], before the statement's own code; the
    /// `finalize` pass folds most of them into [`Program::stmt_bump`] and
    /// keeps only those a join point needs (loop heads).
    BumpStmt,
    /// `dst = consts[cidx]`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Index into the program's constant pool.
        cidx: u32,
    },
    /// `dst = src`.  Reading an unset register is an error (this is how an
    /// unbound variable read surfaces).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = len(buf)` as an integer.
    BufLen {
        /// Destination register.
        dst: Reg,
        /// The buffer whose length is taken.
        buf: BufId,
    },
    /// `dst = buf[idx]`.  A missing index yields missing (the `permit`
    /// semantics); otherwise the index is coerced to an integer, bounds are
    /// checked, and one load is counted.
    Load {
        /// Destination register.
        dst: Reg,
        /// The buffer read from.
        buf: BufId,
        /// Register holding the element index.
        idx: Reg,
    },
    /// Coerce the register to an integer in place (the interpreter's
    /// `Value::as_int`): booleans widen, integral floats convert, anything
    /// else (including missing) is a type error.
    CoerceInt {
        /// The register coerced.
        reg: Reg,
    },
    /// `buf[idx] reduce= val` (plain store when `reduce` is `None`).  The
    /// index register must already hold an integer (the compiler emits
    /// [`Instr::CoerceInt`] first); bounds are checked and one store is
    /// counted.
    Store {
        /// The destination buffer.
        buf: BufId,
        /// Register holding the (already integer) element index.
        idx: Reg,
        /// Register holding the stored value.
        val: Reg,
        /// Reduction operator (`Some(Add)` means `+=`).
        reduce: Option<BinOp>,
    },
    /// `dst = op src`.
    Unary {
        /// The operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst = lhs op rhs`.  `&&`/`||` appearing here are the *non*
    /// short-circuit completion of the branchy lowering (both operands are
    /// already evaluated).
    Binary {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute target instruction index.
        target: u32,
    },
    /// Jump when the register is falsy.  A missing value jumps when
    /// `strict` is false (`if`/`select` semantics) and raises a type error
    /// when `strict` is true.
    JumpIfFalse {
        /// The register tested.
        src: Reg,
        /// Absolute target instruction index.
        target: u32,
        /// Whether a missing condition is a type error instead of false.
        strict: bool,
    },
    /// Jump when the register is truthy; a missing value falls through.
    /// Used by the short-circuit lowering of `||`.
    JumpIfTrue {
        /// The register tested.
        src: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Jump when the register holds missing (short-circuit `&&`/`||`).
    JumpIfMissing {
        /// The register tested.
        src: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Jump when the register holds a non-missing value (`coalesce`).
    JumpIfNotMissing {
        /// The register tested.
        src: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// `while` loop head: test the (strictly boolean-coercible) condition;
    /// when true count one loop iteration and fall through into the body,
    /// otherwise jump to `end`.
    WhileTest {
        /// Register holding the just-evaluated condition.
        cond: Reg,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// `for` loop head: when `counter <= hi` (both already integers) count
    /// one loop iteration, publish the counter into the loop variable's
    /// register, and fall through; otherwise jump to `end`.
    ForTest {
        /// Register holding the hidden loop counter.
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// The loop variable's register, set to the counter each iteration.
        var: Reg,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// `for` loop back-edge: increment the counter and jump to `test`.
    ForStep {
        /// Register holding the hidden loop counter.
        counter: Reg,
        /// Absolute index of the loop's [`Instr::ForTest`].
        test: u32,
    },
    /// `buf.push(val)`: append one element at the end of a growable buffer
    /// (sparse output assembly).  Counts one store, like [`Instr::Store`].
    Append {
        /// The buffer appended to.
        buf: BufId,
        /// Register holding the appended value.
        val: Reg,
    },
    /// `pos.push(len(data))`: close one fiber of a sparse output level by
    /// recording the current length of its entry array.  Counts one store.
    FiberEnd {
        /// The `pos` (fiber boundary) buffer appended to.
        pos: BufId,
        /// The entry array whose current length is recorded.
        data: BufId,
    },
    /// The looplet `seek`: lower-bound binary search for `key` over
    /// `buf[lo..=hi]` (bounds and key already integers), writing the first
    /// position with `buf[p] >= key` (or `hi + 1`) into `dst`.  Counts one
    /// search plus one load per probe, exactly like the tree-walker.
    Seek {
        /// Destination register for the found position.
        dst: Reg,
        /// The sorted coordinate buffer searched.
        buf: BufId,
        /// Register holding the inclusive lower candidate position.
        lo: Reg,
        /// Register holding the inclusive upper candidate position.
        hi: Reg,
        /// Register holding the key searched for.
        key: Reg,
        /// Compare against `abs(buf[p])` (PackBits stores negated markers).
        on_abs: bool,
    },
    /// Superinstruction: `dst = lhs op consts[cidx]` — the peephole fusion
    /// of a [`Instr::Const`] feeding the right operand of a
    /// [`Instr::Binary`].  Semantics (promotion, missing propagation,
    /// errors) and [`crate::interp::ExecStats`] are exactly those of the
    /// unfused pair.
    BinaryImm {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Constant-pool index of the right operand.
        cidx: u32,
    },
    /// Superinstruction: `dst = lhs op buf[idx]` — the peephole fusion of a
    /// [`Instr::Load`] feeding the right operand of a [`Instr::Binary`].
    /// The load half keeps its exact semantics (missing index yields a
    /// missing operand, bounds are checked, one load is counted) before the
    /// operator is applied.
    LoadBinary {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// The buffer the right operand is loaded from.
        buf: BufId,
        /// Register holding the element index of the load.
        idx: Reg,
    },
    /// Superinstruction: fused compare-and-branch — a comparison
    /// [`Instr::Binary`] feeding a [`Instr::JumpIfFalse`].  Jumps when the
    /// comparison is false; a missing comparison (a missing operand) jumps
    /// when `strict` is false and raises a type error when `strict` is
    /// true, exactly like the unfused pair.
    CmpBranch {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
        /// Absolute target instruction index when the comparison fails.
        target: u32,
        /// Whether a missing comparison is a type error instead of false.
        strict: bool,
    },
    /// Superinstruction: fused compare-immediate-and-branch — a
    /// [`Instr::BinaryImm`] comparison feeding a [`Instr::JumpIfFalse`].
    CmpBranchImm {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Constant-pool index of the right operand.
        cidx: u32,
        /// Absolute target instruction index when the comparison fails.
        target: u32,
        /// Whether a missing comparison is a type error instead of false.
        strict: bool,
    },
    /// Superinstruction: fused `while` head — a comparison
    /// [`Instr::Binary`] feeding a [`Instr::WhileTest`].  When the
    /// comparison holds, counts one loop iteration and falls through;
    /// otherwise jumps to `end`.  A missing comparison is a type error,
    /// like [`Instr::WhileTest`] on a missing condition.
    WhileCmp {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// Superinstruction: fused `while` head with an immediate right
    /// operand — a [`Instr::BinaryImm`] comparison feeding a
    /// [`Instr::WhileTest`].
    WhileCmpImm {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register.
        lhs: Reg,
        /// Constant-pool index of the right operand.
        cidx: u32,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },

    // -----------------------------------------------------------------
    // Monomorphic typed instructions, produced by the register-type
    // inference pass in `crate::opt::typing`.  Each is the exact
    // semantics of its generic counterpart restricted to operands whose
    // runtime tag is statically proven, so the VM executes it directly
    // on the unboxed `ints`/`floats` lanes with no tag reads or writes.
    // They maintain `crate::interp::ExecStats` identically to their
    // generic forms, and every register written by one is listed in
    // [`Program::pretags`] so generic instructions can still read it.
    // -----------------------------------------------------------------
    /// No operation (a statically-discharged [`Instr::CoerceInt`], kept
    /// so jump targets stay stable — the typing pass rewrites 1:1; the
    /// `finalize` pass deletes them).
    Nop,
    /// `ints[dst] = imm` — a typed [`Instr::Const`] with the integer
    /// inlined (no constant-pool read).
    ConstI {
        /// Destination register (statically `Int`).
        dst: Reg,
        /// The inlined integer literal.
        imm: i64,
    },
    /// `floats[dst] = imm` — a typed [`Instr::Const`] with the float
    /// inlined bit-exactly.
    ConstF {
        /// Destination register (statically `Float`).
        dst: Reg,
        /// The inlined float literal.
        imm: f64,
    },
    /// `ints[dst] = ints[src]` — a typed [`Instr::Mov`].
    IMov {
        /// Destination register (statically `Int`).
        dst: Reg,
        /// Source register (proven `Int` and assigned here).
        src: Reg,
    },
    /// `floats[dst] = floats[src]` — a typed [`Instr::Mov`].
    FMov {
        /// Destination register (statically `Float`).
        dst: Reg,
        /// Source register (proven `Float` and assigned here).
        src: Reg,
    },
    /// `ints[dst] = len(buf)` — a typed [`Instr::BufLen`].
    ILen {
        /// Destination register (statically `Int`).
        dst: Reg,
        /// The buffer whose length is taken.
        buf: BufId,
    },
    /// `ints[dst] = i64buf[ints[idx]]` — a typed [`Instr::Load`] from an
    /// I64 buffer.  Bounds are checked and one load is counted, exactly
    /// like the generic form on an integer index.
    LoadI64 {
        /// Destination register (statically `Int`).
        dst: Reg,
        /// The I64 buffer read from.
        buf: BufId,
        /// Register holding the element index (proven `Int`).
        idx: Reg,
    },
    /// `floats[dst] = f64buf[ints[idx]]` — a typed [`Instr::Load`] from
    /// an F64 buffer.
    LoadF64 {
        /// Destination register (statically `Float`).
        dst: Reg,
        /// The F64 buffer read from.
        buf: BufId,
        /// Register holding the element index (proven `Int`).
        idx: Reg,
    },
    /// `floats[dst] = u8buf[ints[idx]] as f64` — a typed [`Instr::Load`]
    /// from a U8 buffer (which loads as a float, like the generic form).
    LoadU8 {
        /// Destination register (statically `Float`).
        dst: Reg,
        /// The U8 buffer read from.
        buf: BufId,
        /// Register holding the element index (proven `Int`).
        idx: Reg,
    },
    /// `floats[dst] = floats[lhs] * f64buf[ints[idx]]` — a typed
    /// [`Instr::LoadBinary`] with a multiply (the inner-product hot
    /// path).  One load is counted.
    FMulLoad {
        /// Destination register (statically `Float`).
        dst: Reg,
        /// Left operand register (proven `Float`).
        lhs: Reg,
        /// The F64 buffer the right operand is loaded from.
        buf: BufId,
        /// Register holding the element index (proven `Int`).
        idx: Reg,
    },
    /// `f64buf[ints[idx]] reduce= floats[val]` — a typed [`Instr::Store`]
    /// into an F64 buffer under an arithmetic (infallible) reduction.
    StoreF64 {
        /// The F64 destination buffer.
        buf: BufId,
        /// Register holding the (already integer) element index.
        idx: Reg,
        /// Register holding the stored value (proven `Float`).
        val: Reg,
        /// Reduction operator (restricted to `Add`/`Sub`/`Mul`/`Div`/
        /// `Min`/`Max` or plain assignment).
        reduce: Option<BinOp>,
    },
    /// `u8buf[ints[idx]] reduce= clamp(round(x))` — a typed
    /// [`Instr::Store`] into a U8 buffer: the reduction (if any) is
    /// computed in f64 against the loaded element, then clamped to
    /// `0..=255` and rounded exactly like [`crate::buffer::Buffer::store`].
    StoreU8 {
        /// The U8 destination buffer.
        buf: BufId,
        /// Register holding the (already integer) element index.
        idx: Reg,
        /// Register holding the stored value (proven `Float`).
        val: Reg,
        /// Reduction operator (restricted to the arithmetic set).
        reduce: Option<BinOp>,
    },
    /// `i64buf.push(ints[val])` — a typed [`Instr::Append`] (sparse
    /// coordinate assembly).  Counts one store.
    IAppend {
        /// The I64 buffer appended to.
        buf: BufId,
        /// Register holding the appended value (proven `Int`).
        val: Reg,
    },
    /// `f64buf.push(floats[val])` — a typed [`Instr::Append`] (sparse
    /// value assembly).  Counts one store.
    FAppend {
        /// The F64 buffer appended to.
        buf: BufId,
        /// Register holding the appended value (proven `Float`).
        val: Reg,
    },
    /// `ints[dst] = ints[lhs] op ints[rhs]` for an infallible integer
    /// arithmetic operator (wrapping `Add`/`Sub`/`Mul`, `Min`, `Max`) —
    /// a typed [`Instr::Binary`].
    IArith {
        /// The operator (`Add`/`Sub`/`Mul`/`Min`/`Max`).
        op: BinOp,
        /// Destination register (statically `Int`).
        dst: Reg,
        /// Left operand register (proven `Int`).
        lhs: Reg,
        /// Right operand register (proven `Int`).
        rhs: Reg,
    },
    /// `floats[dst] = floats[lhs] op floats[rhs]` for a float arithmetic
    /// operator (`Add`/`Sub`/`Mul`/`Div`/`Min`/`Max`) — a typed
    /// [`Instr::Binary`].
    FArith {
        /// The operator (`Add`/`Sub`/`Mul`/`Div`/`Min`/`Max`).
        op: BinOp,
        /// Destination register (statically `Float`).
        dst: Reg,
        /// Left operand register (proven `Float`).
        lhs: Reg,
        /// Right operand register (proven `Float`).
        rhs: Reg,
    },
    /// `ints[dst] = ints[lhs] op imm` — a typed [`Instr::BinaryImm`]
    /// with the integer immediate inlined.
    IArithImm {
        /// The operator (`Add`/`Sub`/`Mul`/`Min`/`Max`).
        op: BinOp,
        /// Destination register (statically `Int`).
        dst: Reg,
        /// Left operand register (proven `Int`).
        lhs: Reg,
        /// The inlined integer immediate.
        imm: i64,
    },
    /// `floats[dst] = floats[lhs] op imm` — a typed [`Instr::BinaryImm`]
    /// with the float immediate inlined bit-exactly.
    FArithImm {
        /// The operator (`Add`/`Sub`/`Mul`/`Div`/`Min`/`Max`).
        op: BinOp,
        /// Destination register (statically `Float`).
        dst: Reg,
        /// Left operand register (proven `Float`).
        lhs: Reg,
        /// The inlined float immediate.
        imm: f64,
    },
    /// `floats[dst] = round(floats[src]).clamp(0, 255)` — a typed
    /// [`Instr::Unary`] for `round_u8` (the alpha-blend hot path).
    FRound {
        /// Destination register (statically `Float`).
        dst: Reg,
        /// Operand register (proven `Float`).
        src: Reg,
    },
    /// Typed [`Instr::CmpBranch`] on two integer registers: equality on
    /// the integers, ordering through f64 (exactly the generic int/int
    /// fast path).  The comparison cannot be missing, so there is no
    /// strictness flag.
    ICmpBranch {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Int`).
        lhs: Reg,
        /// Right operand register (proven `Int`).
        rhs: Reg,
        /// Absolute target instruction index when the comparison fails.
        target: u32,
    },
    /// Typed [`Instr::CmpBranchImm`] with an inlined integer immediate.
    ICmpBranchImm {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Int`).
        lhs: Reg,
        /// The inlined integer immediate.
        imm: i64,
        /// Absolute target instruction index when the comparison fails.
        target: u32,
    },
    /// Typed [`Instr::CmpBranch`] on two float registers.
    FCmpBranch {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Float`).
        lhs: Reg,
        /// Right operand register (proven `Float`).
        rhs: Reg,
        /// Absolute target instruction index when the comparison fails.
        target: u32,
    },
    /// Typed [`Instr::CmpBranchImm`] with an inlined float immediate.
    FCmpBranchImm {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Float`).
        lhs: Reg,
        /// The inlined float immediate.
        imm: f64,
        /// Absolute target instruction index when the comparison fails.
        target: u32,
    },
    /// Typed [`Instr::WhileCmp`] on two integer registers: when the
    /// comparison holds, count one loop iteration and fall through;
    /// otherwise jump to `end`.
    IWhileCmp {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Int`).
        lhs: Reg,
        /// Right operand register (proven `Int`).
        rhs: Reg,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// Typed [`Instr::WhileCmpImm`] with an inlined integer immediate.
    IWhileCmpImm {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Int`).
        lhs: Reg,
        /// The inlined integer immediate.
        imm: i64,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// Typed [`Instr::WhileCmp`] on two float registers.
    FWhileCmp {
        /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Left operand register (proven `Float`).
        lhs: Reg,
        /// Right operand register (proven `Float`).
        rhs: Reg,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// Typed [`Instr::ForTest`]: the loop variable is statically `Int`,
    /// so publishing the counter writes only the int lane (no tag).
    IForTest {
        /// Register holding the hidden loop counter (proven `Int`).
        counter: Reg,
        /// Register holding the inclusive upper bound (proven `Int`).
        hi: Reg,
        /// The loop variable's register (statically `Int`).
        var: Reg,
        /// Absolute index of the first instruction after the loop.
        end: u32,
    },
    /// Typed [`Instr::Seek`] over an I64 coordinate buffer, writing the
    /// found position to the int lane only.  Counts one search plus one
    /// load per probe, exactly like the generic form.
    ISeek {
        /// Destination register (statically `Int`).
        dst: Reg,
        /// The sorted I64 coordinate buffer searched.
        buf: BufId,
        /// Register holding the inclusive lower candidate position.
        lo: Reg,
        /// Register holding the inclusive upper candidate position.
        hi: Reg,
        /// Register holding the key searched for.
        key: Reg,
        /// Compare against `abs(buf[p])` (PackBits stores negated markers).
        on_abs: bool,
    },

    // -----------------------------------------------------------------
    // Vectorized kernel ops, produced by the vectorize pass in
    // `crate::opt::vectorize`.  Each one sits immediately *before* a
    // typed counted loop (an [`Instr::IForTest`] head) and executes all
    // but the last of the loop's iterations over whole buffer slices —
    // unrolled, with no per-element dispatch — then advances the loop
    // counter so the untouched scalar loop runs exactly the final
    // iteration (which doubles as the remainder handler and restores
    // every temporary register bit-for-bit).  When any precondition
    // fails at runtime (rebound buffer kind, an out-of-range access
    // anywhere in the slice, aliasing between source and destination,
    // or a step budget that the bulk could overrun), the kernel op does
    // *nothing* and the scalar loop runs all iterations — the fallback
    // is the original code.  Each op bumps `ExecStats` by its
    // scalar-equivalent `cost` per bulk iteration, so work counters are
    // identical with and without vectorization.
    // -----------------------------------------------------------------
    /// Fill: `f64buf[base + v] = val` for each bulk iteration `v` (the
    /// dense-output initialisation loop, and a run-length region's
    /// broadcast of its run value).
    VFillStoreF64 {
        /// The F64 destination buffer.
        buf: BufId,
        /// Per-iteration element index shape.
        base: VBase,
        /// The fill value: an immediate or a loop-invariant float register.
        val: VFill,
        /// Register holding the loop counter (read, then set to the hi
        /// bound, leaving one iteration for the scalar loop).
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost,
        /// Unroll width (4 or 8).
        lanes: u8,
    },
    /// Elementwise map: `f64dst[..] reduce= post(pre(a[..]) rhs)` for
    /// each bulk iteration (the axpy / elementwise-multiply / alpha-blend
    /// hot paths).  Evaluation order and operand orientation reproduce
    /// the scalar body bit-for-bit.
    VMapF64 {
        /// The F64 destination buffer (must not alias the sources).
        dst: BufId,
        /// Destination index shape.
        dst_base: VBase,
        /// Store reduction (`Some(Add)` is `+=`).
        reduce: Option<BinOp>,
        /// Apply `round_u8` clamping to the value before the store.
        round: bool,
        /// The first F64 source buffer.
        a: BufId,
        /// First source index shape.
        a_base: VBase,
        /// Pre-scale applied to the first loaded operand.
        a_pre: VScale,
        /// The second operand (absent, immediate, or a second load).
        rhs: VRhs,
        /// Register holding the loop counter.
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost,
        /// Unroll width (4 or 8).
        lanes: u8,
    },
    /// Inner product: `f64acc[acc_idx] op= a[..] * b[..]` for each bulk
    /// iteration, folded strictly in order (FP reassociation would break
    /// bit-exactness with the scalar loop).  `a` and `b` may be the same
    /// buffer; neither may alias `acc`.
    VMulAddF64 {
        /// The F64 accumulator buffer.
        acc: BufId,
        /// The accumulator's constant element index (non-negative).
        acc_idx: i64,
        /// The first F64 source buffer.
        a: BufId,
        /// First source index shape.
        a_base: VBase,
        /// The second F64 source buffer.
        b: BufId,
        /// Second source index shape.
        b_base: VBase,
        /// The reduction operator combining into the accumulator.
        op: BinOp,
        /// Register holding the loop counter.
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost,
        /// Unroll width (4 or 8).
        lanes: u8,
    },
    /// Reduction: `f64acc[acc_idx] op= pre(src[..])` for each bulk
    /// iteration, folded strictly in order.
    VReduceF64 {
        /// The F64 accumulator buffer.
        acc: BufId,
        /// The accumulator's constant element index (non-negative).
        acc_idx: i64,
        /// The F64 source buffer (must not alias `acc`).
        src: BufId,
        /// Source index shape.
        base: VBase,
        /// Pre-scale applied to the loaded operand.
        pre: VScale,
        /// The reduction operator (`Add`/`Max`/`Min`/...).
        op: BinOp,
        /// Register holding the loop counter.
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// Scalar-equivalent work per bulk iteration.
        cost: VCost,
        /// Unroll width (4 or 8).
        lanes: u8,
    },
    /// Sparse-output assembly stream: `i64idx_out.push(v)` and
    /// `f64val_out.push(src[..v])` for each bulk iteration, optionally
    /// only where `src[..v] cmp guard_imm` holds (the threshold sieve).
    VAppendRangeF64 {
        /// The I64 coordinate output buffer.
        idx_out: BufId,
        /// The F64 value output buffer.
        val_out: BufId,
        /// The F64 source buffer.
        src: BufId,
        /// Source index shape.
        base: VBase,
        /// Optional filter: append only where `src[..] op imm`.
        guard: Option<(BinOp, f64)>,
        /// Register holding the loop counter.
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// Scalar-equivalent work per bulk iteration (always incurred).
        cost: VCost,
        /// Additional scalar-equivalent work per *passing* iteration.
        pass_cost: VCost,
        /// Unroll width (4 or 8).
        lanes: u8,
    },
    /// Masked constant store into a U8 buffer: `u8dst[..v] = set` where
    /// `src[..v] cmp imm` holds (image binarization), with the stored
    /// value rounded and clamped to `0..=255` exactly like
    /// [`Instr::StoreU8`].
    VCmpSelectU8 {
        /// The U8 destination buffer.
        dst: BufId,
        /// Destination index shape.
        dst_base: VBase,
        /// The F64 source buffer tested.
        src: BufId,
        /// Source index shape.
        src_base: VBase,
        /// The comparison operator of the mask.
        cmp: BinOp,
        /// The comparison immediate.
        cmp_imm: f64,
        /// The value stored where the mask holds.
        set: f64,
        /// Register holding the loop counter.
        counter: Reg,
        /// Register holding the inclusive upper bound.
        hi: Reg,
        /// Scalar-equivalent work per bulk iteration (always incurred).
        cost: VCost,
        /// Additional scalar-equivalent work per *passing* iteration.
        pass_cost: VCost,
        /// Unroll width (4 or 8).
        lanes: u8,
    },
}

/// Per-iteration element index shape of a vectorized kernel op: either
/// the loop counter itself (a dense 1-D walk) or `ints[reg] * stride + v`
/// (a row-major inner loop whose row base is loop-invariant; the base
/// register must never be written inside the loop body).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VBase {
    /// The element index is the bulk iteration counter `v` itself.
    Var,
    /// The element index is `ints[reg] * stride + v` with `stride >= 1`.
    Scaled {
        /// Register holding the loop-invariant row coordinate.
        reg: Reg,
        /// The row stride (elements per row), at least 1.
        stride: i64,
    },
}

/// The value a [`Instr::VFillStoreF64`] stores into every element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VFill {
    /// A literal, inlined bit-exactly (the dense-output initialisation).
    Imm(f64),
    /// A loop-invariant float register, read from the float lane once per
    /// fill (a run value broadcast over its region).  The loop body must
    /// not write the register, and must store it through a typed
    /// [`Instr::StoreF64`] — which is what proves the lane holds it.
    Reg(Reg),
}

/// Pre-scale applied to a loaded operand of a vectorized kernel op,
/// preserving the scalar body's operand orientation bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VScale {
    /// The operand is used as loaded.
    None,
    /// `imm op x` — the [`Instr::FMulLoad`]-shaped `const * load`.
    Left {
        /// The operator.
        op: BinOp,
        /// The left immediate, inlined bit-exactly.
        imm: f64,
    },
    /// `x op imm` — the [`Instr::FArithImm`]-shaped `load * const`.
    Right {
        /// The operator.
        op: BinOp,
        /// The right immediate, inlined bit-exactly.
        imm: f64,
    },
}

/// The second operand of a [`Instr::VMapF64`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VRhs {
    /// No second operand: the map stores the (pre-scaled) first load.
    None,
    /// `x op imm` with an inlined immediate.
    Imm {
        /// The operator.
        op: BinOp,
        /// The immediate, inlined bit-exactly.
        imm: f64,
    },
    /// `x op pre(b[..])` — a second load, with its own index shape and
    /// pre-scale.
    Buf {
        /// The operator combining the two operands.
        op: BinOp,
        /// The second F64 source buffer.
        buf: BufId,
        /// Second source index shape.
        base: VBase,
        /// Pre-scale applied to the second loaded operand.
        pre: VScale,
    },
}

/// Scalar-equivalent [`crate::interp::ExecStats`] deltas one bulk
/// iteration of a vectorized kernel op accounts for — exactly what the
/// replaced scalar loop body would have counted, so work counters stay
/// bit-identical with vectorization on or off.  (`loop_iters` is always
/// one per bulk iteration and is not encoded.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VCost {
    /// Executed statements ([`Instr::BumpStmt`]s) per iteration.
    pub stmts: u8,
    /// Counted loads per iteration.
    pub loads: u8,
    /// Counted stores per iteration.
    pub stores: u8,
}

/// The statically-inferred lane of a register, recorded in
/// [`Program::pretags`] by the typing pass so the VM can pin the
/// register's runtime tag before dispatch (typed instructions then skip
/// the tag write entirely, and generic instructions reading the register
/// still observe a correct tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneTag {
    /// The register always holds an `i64` (int lane).
    Int,
    /// The register always holds an `f64` (float lane).
    Float,
    /// The register always holds a `bool` (bool lane).
    Bool,
}

/// Comparison operators eligible for the typed compare-branch forms.
pub(crate) fn is_cmp_op(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// Integer operators the typed [`Instr::IArith`] forms support: the
/// infallible subset (wrapping arithmetic; no `Div`, which can fault).
pub(crate) fn is_int_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max)
}

/// Float operators the typed [`Instr::FArith`] forms support (all total
/// on f64, including `Div`).
pub(crate) fn is_float_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max)
}

/// Reductions the typed store forms support: plain assignment or an
/// arithmetic combine (the same set the VM's unboxed store fast path
/// accepts).
pub(crate) fn is_arith_reduce(reduce: Option<BinOp>) -> bool {
    match reduce {
        None => true,
        Some(op) => is_float_arith(op),
    }
}

/// Which pcs any instruction can transfer control to, indexed by pc
/// (`code.len() + 1` entries: a loop may exit to one past the end).
/// Targets beyond that are ignored here; [`Program::validate`] rejects them.
pub(crate) fn jump_targets(code: &[Instr]) -> Vec<bool> {
    let mut targets = vec![false; code.len() + 1];
    for instr in code {
        if let Some(slot) = instr.target().and_then(|t| targets.get_mut(t as usize)) {
            *slot = true;
        }
    }
    targets
}

/// The basic blocks of an instruction stream: maximal runs of instructions
/// entered only at their first and left only after their last.  A block
/// starts at pc 0, at every jump target, and after every control transfer
/// (any instruction with a [`Instr::target`]), so a control transfer is
/// always the last instruction of its block.  The compiler emits structured
/// code — every forward edge goes to a higher pc, only loop back edges go
/// down — so visiting blocks in index order is a reverse post-order.
pub(crate) struct Blocks {
    /// First pc of each block, ascending, plus `code.len()` at the end.
    starts: Vec<u32>,
    /// The block each pc belongs to.
    block_of: Vec<u32>,
}

impl Blocks {
    /// Partition `code` into its basic blocks.
    pub(crate) fn of(code: &[Instr]) -> Blocks {
        let mut leaders = jump_targets(code);
        leaders[0] = true;
        for (pc, instr) in code.iter().enumerate() {
            if instr.target().is_some() {
                leaders[pc + 1] = true;
            }
        }
        let mut starts = Vec::new();
        let mut block_of = Vec::with_capacity(code.len());
        for (pc, &leads) in leaders[..code.len()].iter().enumerate() {
            if leads {
                starts.push(pc as u32);
            }
            block_of.push(starts.len() as u32 - 1);
        }
        starts.push(code.len() as u32);
        Blocks { starts, block_of }
    }

    /// How many blocks there are (none for an empty stream).
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The pcs of block `b`.
    pub(crate) fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.starts[b] as usize..self.starts[b + 1] as usize
    }

    /// The block that starts at `pc`: `None` for the past-the-end pc a
    /// loop may exit to (and for anything beyond, which
    /// [`Program::validate`] rejects).
    pub(crate) fn starting_at(&self, pc: usize) -> Option<usize> {
        let b = *self.block_of.get(pc)? as usize;
        debug_assert_eq!(self.starts[b] as usize, pc, "control only enters a block at its start");
        Some(b)
    }
}

/// Point every jump at `map[old target]` — the one step every pass that
/// inserts, fuses or deletes instructions ends with (`map` has one entry per
/// old pc plus one for the past-the-end target).
pub(crate) fn remap_targets(code: &mut [Instr], map: &[u32]) {
    for target in code.iter_mut().filter_map(Instr::target_mut) {
        *target = map[*target as usize];
    }
}

/// The dispatch loop strides over `[Instr]`, so the instruction's size is
/// its cache footprint.  It is 112 bytes because the vectorized kernel ops
/// carry their payloads inline; boxing those belongs to the opcode-table
/// redesign, and until then the size must not grow unnoticed.
const _: () = assert!(std::mem::size_of::<Instr>() == 112);

/// The control-transfer target field of an instruction, by whatever kind of
/// reference `$instr` is: the single authoritative enumeration of branch
/// opcodes behind [`Instr::target_mut`] and [`Instr::target`].
macro_rules! target_field {
    ($instr:expr) => {
        match $instr {
            Instr::Jump { target }
            | Instr::JumpIfFalse { target, .. }
            | Instr::JumpIfTrue { target, .. }
            | Instr::JumpIfMissing { target, .. }
            | Instr::JumpIfNotMissing { target, .. }
            | Instr::CmpBranch { target, .. }
            | Instr::CmpBranchImm { target, .. }
            | Instr::ICmpBranch { target, .. }
            | Instr::ICmpBranchImm { target, .. }
            | Instr::FCmpBranch { target, .. }
            | Instr::FCmpBranchImm { target, .. } => Some(target),
            Instr::WhileTest { end, .. }
            | Instr::ForTest { end, .. }
            | Instr::WhileCmp { end, .. }
            | Instr::WhileCmpImm { end, .. }
            | Instr::IWhileCmp { end, .. }
            | Instr::IWhileCmpImm { end, .. }
            | Instr::FWhileCmp { end, .. }
            | Instr::IForTest { end, .. } => Some(end),
            Instr::ForStep { test, .. } => Some(test),
            _ => None,
        }
    };
}

/// How an instruction operand uses its register.  Every analysis that asks
/// "which registers does this instruction read or write" — register typing,
/// the shard pass's must-defined dataflow — reads the one enumeration
/// behind [`for_each_reg_role`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The operand is read.
    Read,
    /// The operand is (unconditionally, on the relevant edge) written.
    Write,
    /// One field that is both read and written in place
    /// ([`Instr::CoerceInt`]'s register, the counter of [`Instr::ForStep`]
    /// and of the vectorized kernel ops).
    ReadWrite,
}

/// Visit the register of a [`VBase::Scaled`] index shape as a read.
macro_rules! vbase_role {
    ($base:expr, $f:ident) => {
        if let VBase::Scaled { reg, .. } = $base {
            $f(reg, Role::Read);
        }
    };
}

/// Call `$f(field, role)` on every register operand of `$instr` — a `&Instr`
/// or a `&mut Instr`, the fields borrowed alike — in the order reads, then
/// the write.  The one enumeration of operand roles behind
/// [`for_each_reg_role`] and [`for_each_reg_role_mut`].
macro_rules! reg_roles {
    ($instr:expr, $f:ident) => {{
        use Role::*;
        match $instr {
            Instr::BumpStmt | Instr::Jump { .. } | Instr::FiberEnd { .. } | Instr::Nop => {}
            Instr::Const { dst, .. }
            | Instr::ConstI { dst, .. }
            | Instr::ConstF { dst, .. }
            | Instr::BufLen { dst, .. }
            | Instr::ILen { dst, .. } => $f(dst, Write),
            Instr::Mov { dst, src }
            | Instr::IMov { dst, src }
            | Instr::FMov { dst, src }
            | Instr::Unary { dst, src, .. }
            | Instr::FRound { dst, src } => {
                $f(src, Read);
                $f(dst, Write);
            }
            Instr::Load { dst, idx, .. }
            | Instr::LoadI64 { dst, idx, .. }
            | Instr::LoadF64 { dst, idx, .. }
            | Instr::LoadU8 { dst, idx, .. } => {
                $f(idx, Read);
                $f(dst, Write);
            }
            Instr::CoerceInt { reg } => $f(reg, ReadWrite),
            Instr::Store { idx, val, .. }
            | Instr::StoreF64 { idx, val, .. }
            | Instr::StoreU8 { idx, val, .. } => {
                $f(idx, Read);
                $f(val, Read);
            }
            Instr::Binary { dst, lhs, rhs, .. }
            | Instr::IArith { dst, lhs, rhs, .. }
            | Instr::FArith { dst, lhs, rhs, .. } => {
                $f(lhs, Read);
                $f(rhs, Read);
                $f(dst, Write);
            }
            Instr::BinaryImm { dst, lhs, .. }
            | Instr::IArithImm { dst, lhs, .. }
            | Instr::FArithImm { dst, lhs, .. } => {
                $f(lhs, Read);
                $f(dst, Write);
            }
            Instr::LoadBinary { dst, lhs, idx, .. } | Instr::FMulLoad { dst, lhs, idx, .. } => {
                $f(lhs, Read);
                $f(idx, Read);
                $f(dst, Write);
            }
            Instr::JumpIfFalse { src, .. }
            | Instr::JumpIfTrue { src, .. }
            | Instr::JumpIfMissing { src, .. }
            | Instr::JumpIfNotMissing { src, .. } => $f(src, Read),
            Instr::WhileTest { cond, .. } => $f(cond, Read),
            Instr::ForTest { counter, hi, var, .. } | Instr::IForTest { counter, hi, var, .. } => {
                $f(counter, Read);
                $f(hi, Read);
                $f(var, Write);
            }
            Instr::ForStep { counter, .. } => $f(counter, ReadWrite),
            Instr::Append { val, .. } | Instr::IAppend { val, .. } | Instr::FAppend { val, .. } => {
                $f(val, Read)
            }
            Instr::Seek { dst, lo, hi, key, .. } | Instr::ISeek { dst, lo, hi, key, .. } => {
                $f(lo, Read);
                $f(hi, Read);
                $f(key, Read);
                $f(dst, Write);
            }
            Instr::CmpBranch { lhs, rhs, .. }
            | Instr::ICmpBranch { lhs, rhs, .. }
            | Instr::FCmpBranch { lhs, rhs, .. }
            | Instr::WhileCmp { lhs, rhs, .. }
            | Instr::IWhileCmp { lhs, rhs, .. }
            | Instr::FWhileCmp { lhs, rhs, .. } => {
                $f(lhs, Read);
                $f(rhs, Read);
            }
            Instr::CmpBranchImm { lhs, .. }
            | Instr::ICmpBranchImm { lhs, .. }
            | Instr::FCmpBranchImm { lhs, .. }
            | Instr::WhileCmpImm { lhs, .. }
            | Instr::IWhileCmpImm { lhs, .. } => $f(lhs, Read),
            // Vectorized kernel ops: read the bound, any row bases and a
            // register-valued fill, read-write the loop counter.
            Instr::VFillStoreF64 { base, val, counter, hi, .. } => {
                vbase_role!(base, $f);
                if let VFill::Reg(reg) = val {
                    $f(reg, Read);
                }
                $f(hi, Read);
                $f(counter, ReadWrite);
            }
            Instr::VReduceF64 { base, counter, hi, .. }
            | Instr::VAppendRangeF64 { base, counter, hi, .. } => {
                vbase_role!(base, $f);
                $f(hi, Read);
                $f(counter, ReadWrite);
            }
            Instr::VMapF64 { dst_base, a_base, rhs, counter, hi, .. } => {
                vbase_role!(dst_base, $f);
                vbase_role!(a_base, $f);
                if let VRhs::Buf { base: VBase::Scaled { reg, .. }, .. } = rhs {
                    $f(reg, Read);
                }
                $f(hi, Read);
                $f(counter, ReadWrite);
            }
            Instr::VMulAddF64 { a_base, b_base, counter, hi, .. } => {
                vbase_role!(a_base, $f);
                vbase_role!(b_base, $f);
                $f(hi, Read);
                $f(counter, ReadWrite);
            }
            Instr::VCmpSelectU8 { dst_base, src_base, counter, hi, .. } => {
                vbase_role!(dst_base, $f);
                vbase_role!(src_base, $f);
                $f(hi, Read);
                $f(counter, ReadWrite);
            }
        }
    }};
}

/// Visit every register operand together with its [`Role`].
pub(crate) fn for_each_reg_role(instr: &Instr, f: &mut dyn FnMut(Reg, Role)) {
    let mut by_value = |r: &Reg, role| f(*r, role);
    reg_roles!(instr, by_value)
}

/// Visit every register operand mutably together with its [`Role`]: the
/// temp split renames reads and writes of a register independently.
pub(crate) fn for_each_reg_role_mut(instr: &mut Instr, f: &mut dyn FnMut(&mut Reg, Role)) {
    reg_roles!(instr, f)
}

impl Instr {
    /// The control-transfer target of this instruction, if it has one —
    /// shared by every pass that moves instructions (peephole, vectorize,
    /// finalize) or reasons about join points (shard, typing).
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        target_field!(self)
    }

    /// Read-only view of [`Instr::target_mut`].
    pub(crate) fn target(&self) -> Option<u32> {
        target_field!(self).copied()
    }

    /// Whether the instruction starts or closes a loop: a `for`/`while`
    /// head (whose target is the loop's exit, one past its back edge) or
    /// a `for` back edge.
    pub(crate) fn is_loop_edge(&self) -> bool {
        matches!(
            self,
            Instr::ForTest { .. }
                | Instr::IForTest { .. }
                | Instr::ForStep { .. }
                | Instr::WhileTest { .. }
                | Instr::WhileCmp { .. }
                | Instr::WhileCmpImm { .. }
                | Instr::IWhileCmp { .. }
                | Instr::IWhileCmpImm { .. }
                | Instr::FWhileCmp { .. }
        )
    }

    /// The `(counter, hi)` loop registers of a vectorized kernel op
    /// (`None` for every other instruction).
    pub(crate) fn vop_loop_regs(&self) -> Option<(Reg, Reg)> {
        match *self {
            Instr::VFillStoreF64 { counter, hi, .. }
            | Instr::VMapF64 { counter, hi, .. }
            | Instr::VMulAddF64 { counter, hi, .. }
            | Instr::VReduceF64 { counter, hi, .. }
            | Instr::VAppendRangeF64 { counter, hi, .. }
            | Instr::VCmpSelectU8 { counter, hi, .. } => Some((counter, hi)),
            _ => None,
        }
    }

    /// Whether executing this instruction touches the VM's tag array at
    /// all — `true` for the monomorphic typed forms *and* for the
    /// tag-neutral control instructions (`BumpStmt`, `Jump`, `ForStep`,
    /// `FiberEnd`, `Nop`), `false` for every generic instruction that
    /// reads or writes a runtime tag.  The benchmark harness uses this to
    /// compute the executed-typed-instruction fraction.
    pub fn is_tag_free(&self) -> bool {
        match self {
            // Tag-neutral control flow: no register tags involved.
            Instr::BumpStmt
            | Instr::Jump { .. }
            | Instr::ForStep { .. }
            | Instr::FiberEnd { .. } => true,
            // The typed forms.
            Instr::Nop
            | Instr::ConstI { .. }
            | Instr::ConstF { .. }
            | Instr::IMov { .. }
            | Instr::FMov { .. }
            | Instr::ILen { .. }
            | Instr::LoadI64 { .. }
            | Instr::LoadF64 { .. }
            | Instr::LoadU8 { .. }
            | Instr::FMulLoad { .. }
            | Instr::StoreF64 { .. }
            | Instr::StoreU8 { .. }
            | Instr::IAppend { .. }
            | Instr::FAppend { .. }
            | Instr::IArith { .. }
            | Instr::FArith { .. }
            | Instr::IArithImm { .. }
            | Instr::FArithImm { .. }
            | Instr::FRound { .. }
            | Instr::ICmpBranch { .. }
            | Instr::ICmpBranchImm { .. }
            | Instr::FCmpBranch { .. }
            | Instr::FCmpBranchImm { .. }
            | Instr::IWhileCmp { .. }
            | Instr::IWhileCmpImm { .. }
            | Instr::FWhileCmp { .. }
            | Instr::IForTest { .. }
            | Instr::ISeek { .. } => true,
            // The vectorized kernel ops: whole typed loops, no tags.
            Instr::VFillStoreF64 { .. }
            | Instr::VMapF64 { .. }
            | Instr::VMulAddF64 { .. }
            | Instr::VReduceF64 { .. }
            | Instr::VAppendRangeF64 { .. }
            | Instr::VCmpSelectU8 { .. } => true,
            _ => false,
        }
    }

    /// A short stable mnemonic for this instruction's opcode, used by the
    /// benchmark harness's per-opcode execution histogram.
    pub fn opcode(&self) -> &'static str {
        match self {
            Instr::BumpStmt => "bump_stmt",
            Instr::Const { .. } => "const",
            Instr::Mov { .. } => "mov",
            Instr::BufLen { .. } => "buf_len",
            Instr::Load { .. } => "load",
            Instr::CoerceInt { .. } => "coerce_int",
            Instr::Store { .. } => "store",
            Instr::Unary { .. } => "unary",
            Instr::Binary { .. } => "binary",
            Instr::Jump { .. } => "jump",
            Instr::JumpIfFalse { .. } => "jump_if_false",
            Instr::JumpIfTrue { .. } => "jump_if_true",
            Instr::JumpIfMissing { .. } => "jump_if_missing",
            Instr::JumpIfNotMissing { .. } => "jump_if_not_missing",
            Instr::WhileTest { .. } => "while_test",
            Instr::ForTest { .. } => "for_test",
            Instr::ForStep { .. } => "for_step",
            Instr::Append { .. } => "append",
            Instr::FiberEnd { .. } => "fiber_end",
            Instr::Seek { .. } => "seek",
            Instr::BinaryImm { .. } => "binary_imm",
            Instr::LoadBinary { .. } => "load_binary",
            Instr::CmpBranch { .. } => "cmp_branch",
            Instr::CmpBranchImm { .. } => "cmp_branch_imm",
            Instr::WhileCmp { .. } => "while_cmp",
            Instr::WhileCmpImm { .. } => "while_cmp_imm",
            Instr::Nop => "nop",
            Instr::ConstI { .. } => "const_i",
            Instr::ConstF { .. } => "const_f",
            Instr::IMov { .. } => "i_mov",
            Instr::FMov { .. } => "f_mov",
            Instr::ILen { .. } => "i_len",
            Instr::LoadI64 { .. } => "load_i64",
            Instr::LoadF64 { .. } => "load_f64",
            Instr::LoadU8 { .. } => "load_u8",
            Instr::FMulLoad { .. } => "f_mul_load",
            Instr::StoreF64 { .. } => "store_f64",
            Instr::StoreU8 { .. } => "store_u8",
            Instr::IAppend { .. } => "i_append",
            Instr::FAppend { .. } => "f_append",
            Instr::IArith { .. } => "i_arith",
            Instr::FArith { .. } => "f_arith",
            Instr::IArithImm { .. } => "i_arith_imm",
            Instr::FArithImm { .. } => "f_arith_imm",
            Instr::FRound { .. } => "f_round",
            Instr::ICmpBranch { .. } => "i_cmp_branch",
            Instr::ICmpBranchImm { .. } => "i_cmp_branch_imm",
            Instr::FCmpBranch { .. } => "f_cmp_branch",
            Instr::FCmpBranchImm { .. } => "f_cmp_branch_imm",
            Instr::IWhileCmp { .. } => "i_while_cmp",
            Instr::IWhileCmpImm { .. } => "i_while_cmp_imm",
            Instr::FWhileCmp { .. } => "f_while_cmp",
            Instr::IForTest { .. } => "i_for_test",
            Instr::ISeek { .. } => "i_seek",
            Instr::VFillStoreF64 { .. } => "v_fill_store_f64",
            Instr::VMapF64 { .. } => "v_map_f64",
            Instr::VMulAddF64 { .. } => "v_mul_add_f64",
            Instr::VReduceF64 { .. } => "v_reduce_f64",
            Instr::VAppendRangeF64 { .. } => "v_append_range_f64",
            Instr::VCmpSelectU8 { .. } => "v_cmp_select_u8",
        }
    }
}

/// How a parallel shard may touch one buffer written inside a sharded
/// loop region, and how the per-shard copies are stitched back together.
///
/// Recorded by the shard-analysis pass (`crate::opt::shard`) and consumed
/// by the parallel runtime in [`crate::par`].  Every buffer the region
/// writes must carry exactly one role; buffers the region only reads are
/// shared across shards untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// Writes of iteration `i` stay inside the element range
    /// `[i*stride, (i+1)*stride)`, so each shard owns a contiguous slice
    /// and stitching copies each shard's own slice back in order.
    Partitioned {
        /// Elements owned per iteration.
        stride: i64,
    },
    /// An associative integer reduction (`+=` / `min=` / `max=`) into one
    /// fixed element: each shard folds its own partial from the operator's
    /// identity and stitching combines the partials in shard order.
    Reduction {
        /// The fixed accumulator element index.
        index: i64,
        /// The (associative, integer) combining operator.
        op: BinOp,
    },
    /// Append-only output array: each shard appends its own iterations'
    /// entries and stitching concatenates the per-shard suffixes in shard
    /// order, reproducing the serial append order exactly.
    Segment,
    /// A fiber-boundary (`pos`) array fed by [`Instr::FiberEnd`]: like
    /// [`ShardRole::Segment`], but each appended entry records the length
    /// of `data`, so stitching also offsets shard *k*'s entries by the
    /// total entries earlier shards appended to `data`.
    SegmentPos {
        /// The entry array whose length the `pos` entries record.
        data: BufId,
    },
    /// Iteration-local scratch at one fixed element, overwritten before it
    /// is read in every iteration: shards work on private copies and
    /// stitching adopts the last shard's copy (the value the serial run's
    /// final iteration would leave behind).
    Private,
}

/// One top-level counted loop proven shardable: its bytecode extent, the
/// loop registers the runtime repartitions, and the per-buffer stitch
/// roles.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRegion {
    /// First instruction of the region: the loop head, or the vectorized
    /// kernel op immediately before it when one was inserted.
    pub start: u32,
    /// The pc of the loop head ([`Instr::ForTest`] / [`Instr::IForTest`]).
    pub head: u32,
    /// One past the loop's back-edge ([`Instr::ForStep`]); the loop head's
    /// exit target.
    pub end: u32,
    /// The loop counter register; shards re-seed it with their range start.
    pub counter: Reg,
    /// The inclusive upper-bound register; shards re-seed it with their
    /// range end.
    pub hi: Reg,
    /// The loop variable register (written by the head on each test).
    pub var: Reg,
    /// Stitch role of every buffer the region writes.
    pub roles: Vec<(BufId, ShardRole)>,
}

/// The shard plan of a program: every top-level counted loop the shard
/// analysis proved safe to execute as contiguous per-thread row ranges,
/// in program order.  Empty when nothing shards — the runtime then runs
/// the program serially regardless of the requested thread count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardPlan {
    /// The shardable regions, sorted by `start`, non-overlapping.
    pub regions: Vec<ShardRegion>,
}

impl ShardPlan {
    /// Whether the plan contains no shardable region.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// A compiled bytecode program: the instruction stream, its constant pool,
/// and the register-file layout.
///
/// Obtain one with [`Program::compile`] and execute it with
/// [`crate::vm::Vm`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) code: Vec<Instr>,
    pub(crate) consts: Vec<Value>,
    /// The IR variables' names, one per variable register.  Shared: every
    /// pass derives its output from a clone of its input program, and the
    /// table never changes after [`Program::compile`].
    pub(crate) var_names: Arc<[String]>,
    pub(crate) num_regs: usize,
    /// Registers whose runtime tag is statically known (set by the
    /// typing pass in `crate::opt::typing`; empty until it runs).  The
    /// VM pins these tags before dispatch so typed instructions never
    /// touch the tag array.
    pub(crate) pretags: Vec<(Reg, LaneTag)>,
    /// Shardable top-level loops (set by the shard-analysis pass in
    /// `crate::opt::shard`; empty until it runs).
    pub(crate) shard_plan: ShardPlan,
    /// `stmt_bump[pc]` = source statements the VM accounts immediately
    /// before `code[pc]` executes — [`Instr::BumpStmt`]s the `finalize`
    /// pass (`crate::opt::finalize`) took off the instruction stream.
    /// Always `code.len()` entries, all zero until that pass runs; never
    /// nonzero on the target of a back edge (a loop head would account
    /// the statements once per iteration) or on a vectorized kernel op (a
    /// shard region may start there, and every shard re-runs it).  The
    /// target of a forward branch may carry a count (the statement after
    /// an `if`): every edge into it accounts the statements, so a rewrite
    /// must never point a branch past such an instruction.  No static
    /// check can see a count lost that way; the pass manager's exact
    /// `ExecStats` witness is the gate.
    pub(crate) stmt_bump: Vec<u32>,
}

impl Program {
    /// Upper bound on the register file a valid program may demand.  Real
    /// kernels use a few dozen registers; a count beyond this is a
    /// corrupted or hostile encoding, and rejecting it keeps the VM's
    /// up-front register-file allocation bounded.
    pub const REG_LIMIT: usize = 1 << 24;

    /// Compile a lowered IR program into bytecode.
    ///
    /// `names` must be the same table the program's variables were created
    /// from (it sizes the variable portion of the register file and
    /// provides names for error messages).
    pub fn compile(stmts: &[Stmt], names: &Names) -> Program {
        let mut c = Compiler {
            code: Vec::new(),
            consts: Vec::new(),
            num_vars: names.len(),
            next_temp: 0,
            max_temps: 0,
        };
        for s in stmts {
            c.stmt(s);
        }
        debug_assert_eq!(c.next_temp, 0, "temp registers must be freed LIFO");
        Program {
            consts: c.consts,
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            num_regs: c.num_vars + c.max_temps as usize,
            pretags: Vec::new(),
            shard_plan: ShardPlan::default(),
            stmt_bump: vec![0; c.code.len()],
            code: c.code,
        }
    }

    /// This program with its instruction stream replaced by `code` (whose
    /// jump targets the caller has already remapped) and every statement
    /// still explicit in it — for the passes that run before `finalize`.
    pub(crate) fn with_code(&self, code: Vec<Instr>) -> Program {
        debug_assert!(self.stmt_bump.iter().all(|&n| n == 0), "rewriting a finalized program");
        Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: self.consts.clone(),
            var_names: Arc::clone(&self.var_names),
            num_regs: self.num_regs,
            pretags: self.pretags.clone(),
            shard_plan: self.shard_plan.clone(),
        }
    }

    /// The instruction stream.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// The constant pool.
    pub fn consts(&self) -> &[Value] {
        &self.consts
    }

    /// Total number of registers the VM must allocate.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Number of registers owned by IR variables (the low registers).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Registers whose runtime tag was statically inferred by the typing
    /// pass (empty for programs the pass has not run over).
    pub fn pretags(&self) -> &[(Reg, LaneTag)] {
        &self.pretags
    }

    /// Per-pc folded statement counts: `stmt_bump()[pc]` source statements
    /// are accounted (work counter, step budget, watch) immediately before
    /// `code()[pc]` executes.  All zero unless the `finalize` pass ran.
    pub fn stmt_bump(&self) -> &[u32] {
        &self.stmt_bump
    }

    /// The shard plan recorded by the shard-analysis pass: the top-level
    /// counted loops proven safe for contiguous row-range parallel
    /// execution (empty for programs the pass has not run over, or when
    /// nothing shards).
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.shard_plan
    }

    /// The printed name of a register: the variable's name for variable
    /// registers, a synthetic `tN` for temporaries.
    pub fn reg_name(&self, reg: Reg) -> String {
        match self.var_names.get(reg.index()) {
            Some(n) => n.clone(),
            None => format!("t{}", reg.index() - self.var_names.len()),
        }
    }

    /// Check structural invariants: every jump target is resolved and in
    /// range, every `for` back-edge lands on its loop head, every register
    /// index fits the register file (which itself fits
    /// [`Program::REG_LIMIT`]), every constant index is in the pool, and
    /// the folded statement table has one entry per instruction with none
    /// on a loop head or a vectorized kernel op.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_regs > Self::REG_LIMIT {
            return Err(format!(
                "register file of {} exceeds the limit of {}",
                self.num_regs,
                Self::REG_LIMIT
            ));
        }
        let len = self.code.len() as u32;
        let check_target = |pc: usize, t: u32| -> Result<(), String> {
            if t == PENDING {
                return Err(format!("unresolved jump at pc {pc}"));
            }
            if t > len {
                return Err(format!("jump at pc {pc} targets {t}, past the end ({len})"));
            }
            Ok(())
        };
        let check_reg = |pc: usize, r: Reg| -> Result<(), String> {
            if r.index() >= self.num_regs {
                return Err(format!(
                    "instruction at pc {pc} uses register {r} outside the file of {}",
                    self.num_regs
                ));
            }
            Ok(())
        };
        // Shared checks for the vectorized kernel ops.
        let check_vloop = |pc: usize, counter: Reg, hi: Reg, lanes: u8| -> Result<(), String> {
            check_reg(pc, counter)?;
            check_reg(pc, hi)?;
            if lanes != 4 && lanes != 8 {
                return Err(format!(
                    "vector op at pc {pc} has a misaligned lane count {lanes} (must be 4 or 8)"
                ));
            }
            Ok(())
        };
        let check_vbase = |pc: usize, base: VBase| -> Result<(), String> {
            match base {
                VBase::Var => Ok(()),
                VBase::Scaled { reg, stride } => {
                    check_reg(pc, reg)?;
                    if stride < 1 {
                        return Err(format!(
                            "vector op at pc {pc} has a bad slice range (stride {stride})"
                        ));
                    }
                    Ok(())
                }
            }
        };
        let check_vidx = |pc: usize, idx: i64| -> Result<(), String> {
            if idx < 0 {
                return Err(format!(
                    "vector op at pc {pc} has a bad slice range (accumulator index {idx})"
                ));
            }
            Ok(())
        };
        let check_vscale = |pc: usize, pre: VScale| -> Result<(), String> {
            match pre {
                VScale::None => Ok(()),
                VScale::Left { op, .. } | VScale::Right { op, .. } => {
                    if !is_float_arith(op) {
                        return Err(format!("unsupported vector pre-scale op {op:?} at pc {pc}"));
                    }
                    Ok(())
                }
            }
        };
        for (pc, instr) in self.code.iter().enumerate() {
            match *instr {
                Instr::BumpStmt => {}
                Instr::Const { dst, cidx } => {
                    check_reg(pc, dst)?;
                    if cidx as usize >= self.consts.len() {
                        return Err(format!("constant {cidx} at pc {pc} outside the pool"));
                    }
                }
                Instr::Mov { dst, src } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, src)?;
                }
                Instr::BufLen { dst, .. } => check_reg(pc, dst)?,
                Instr::Load { dst, idx, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, idx)?;
                }
                Instr::CoerceInt { reg } => check_reg(pc, reg)?,
                Instr::Store { idx, val, .. } => {
                    check_reg(pc, idx)?;
                    check_reg(pc, val)?;
                }
                Instr::Unary { dst, src, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, src)?;
                }
                Instr::Binary { dst, lhs, rhs, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                }
                Instr::Jump { target } => check_target(pc, target)?,
                Instr::JumpIfFalse { src, target, .. }
                | Instr::JumpIfTrue { src, target }
                | Instr::JumpIfMissing { src, target }
                | Instr::JumpIfNotMissing { src, target } => {
                    check_reg(pc, src)?;
                    check_target(pc, target)?;
                }
                Instr::WhileTest { cond, end } => {
                    check_reg(pc, cond)?;
                    check_target(pc, end)?;
                }
                Instr::ForTest { counter, hi, var, end } => {
                    check_reg(pc, counter)?;
                    check_reg(pc, hi)?;
                    check_reg(pc, var)?;
                    check_target(pc, end)?;
                }
                Instr::ForStep { counter, test } => {
                    check_reg(pc, counter)?;
                    check_target(pc, test)?;
                    // The back-edge must land on a loop head, never in the
                    // middle of nowhere (jump-target alignment).
                    match self.code.get(test as usize) {
                        Some(Instr::ForTest { .. }) | Some(Instr::IForTest { .. }) => {}
                        _ => {
                            return Err(format!(
                                "for back-edge at pc {pc} targets {test}, which is not a loop head"
                            ));
                        }
                    }
                }
                Instr::Append { val, .. } => check_reg(pc, val)?,
                Instr::FiberEnd { .. } => {}
                Instr::Seek { dst, lo, hi, key, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lo)?;
                    check_reg(pc, hi)?;
                    check_reg(pc, key)?;
                }
                Instr::BinaryImm { dst, lhs, cidx, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    if cidx as usize >= self.consts.len() {
                        return Err(format!("constant {cidx} at pc {pc} outside the pool"));
                    }
                }
                Instr::LoadBinary { dst, lhs, idx, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    check_reg(pc, idx)?;
                }
                Instr::CmpBranch { lhs, rhs, target, .. } => {
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                    check_target(pc, target)?;
                }
                Instr::CmpBranchImm { lhs, cidx, target, .. } => {
                    check_reg(pc, lhs)?;
                    check_target(pc, target)?;
                    if cidx as usize >= self.consts.len() {
                        return Err(format!("constant {cidx} at pc {pc} outside the pool"));
                    }
                }
                Instr::WhileCmp { lhs, rhs, end, .. } => {
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                    check_target(pc, end)?;
                }
                Instr::WhileCmpImm { lhs, cidx, end, .. } => {
                    check_reg(pc, lhs)?;
                    check_target(pc, end)?;
                    if cidx as usize >= self.consts.len() {
                        return Err(format!("constant {cidx} at pc {pc} outside the pool"));
                    }
                }
                Instr::Nop => {}
                Instr::ConstI { dst, .. } | Instr::ConstF { dst, .. } => check_reg(pc, dst)?,
                Instr::IMov { dst, src } | Instr::FMov { dst, src } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, src)?;
                }
                Instr::ILen { dst, .. } => check_reg(pc, dst)?,
                Instr::LoadI64 { dst, idx, .. }
                | Instr::LoadF64 { dst, idx, .. }
                | Instr::LoadU8 { dst, idx, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, idx)?;
                }
                Instr::FMulLoad { dst, lhs, idx, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    check_reg(pc, idx)?;
                }
                Instr::StoreF64 { idx, val, reduce, .. }
                | Instr::StoreU8 { idx, val, reduce, .. } => {
                    check_reg(pc, idx)?;
                    check_reg(pc, val)?;
                    if !is_arith_reduce(reduce) {
                        return Err(format!("non-arithmetic typed store reduce at pc {pc}"));
                    }
                }
                Instr::IAppend { val, .. } | Instr::FAppend { val, .. } => check_reg(pc, val)?,
                Instr::IArith { op, dst, lhs, rhs } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                    if !is_int_arith(op) {
                        return Err(format!("unsupported IArith op {op:?} at pc {pc}"));
                    }
                }
                Instr::FArith { op, dst, lhs, rhs } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                    if !is_float_arith(op) {
                        return Err(format!("unsupported FArith op {op:?} at pc {pc}"));
                    }
                }
                Instr::IArithImm { op, dst, lhs, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    if !is_int_arith(op) {
                        return Err(format!("unsupported IArithImm op {op:?} at pc {pc}"));
                    }
                }
                Instr::FArithImm { op, dst, lhs, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lhs)?;
                    if !is_float_arith(op) {
                        return Err(format!("unsupported FArithImm op {op:?} at pc {pc}"));
                    }
                }
                Instr::FRound { dst, src } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, src)?;
                }
                Instr::ICmpBranch { op, lhs, rhs, target }
                | Instr::FCmpBranch { op, lhs, rhs, target } => {
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                    check_target(pc, target)?;
                    if !is_cmp_op(op) {
                        return Err(format!("non-comparison typed branch op {op:?} at pc {pc}"));
                    }
                }
                Instr::ICmpBranchImm { op, lhs, target, .. }
                | Instr::FCmpBranchImm { op, lhs, target, .. } => {
                    check_reg(pc, lhs)?;
                    check_target(pc, target)?;
                    if !is_cmp_op(op) {
                        return Err(format!("non-comparison typed branch op {op:?} at pc {pc}"));
                    }
                }
                Instr::IWhileCmp { op, lhs, rhs, end } | Instr::FWhileCmp { op, lhs, rhs, end } => {
                    check_reg(pc, lhs)?;
                    check_reg(pc, rhs)?;
                    check_target(pc, end)?;
                    if !is_cmp_op(op) {
                        return Err(format!("non-comparison typed while op {op:?} at pc {pc}"));
                    }
                }
                Instr::IWhileCmpImm { op, lhs, end, .. } => {
                    check_reg(pc, lhs)?;
                    check_target(pc, end)?;
                    if !is_cmp_op(op) {
                        return Err(format!("non-comparison typed while op {op:?} at pc {pc}"));
                    }
                }
                Instr::IForTest { counter, hi, var, end } => {
                    check_reg(pc, counter)?;
                    check_reg(pc, hi)?;
                    check_reg(pc, var)?;
                    check_target(pc, end)?;
                }
                Instr::ISeek { dst, lo, hi, key, .. } => {
                    check_reg(pc, dst)?;
                    check_reg(pc, lo)?;
                    check_reg(pc, hi)?;
                    check_reg(pc, key)?;
                }
                Instr::VFillStoreF64 { base, val, counter, hi, cost, lanes, .. } => {
                    check_vloop(pc, counter, hi, lanes)?;
                    check_vbase(pc, base)?;
                    if let VFill::Reg(reg) = val {
                        check_reg(pc, reg)?;
                        if reg == counter || reg == hi {
                            return Err(format!("vector fill at pc {pc} stores a loop register"));
                        }
                    }
                    let _ = cost;
                }
                Instr::VMapF64 {
                    dst_base, reduce, a_base, a_pre, rhs, counter, hi, lanes, ..
                } => {
                    check_vloop(pc, counter, hi, lanes)?;
                    check_vbase(pc, dst_base)?;
                    check_vbase(pc, a_base)?;
                    check_vscale(pc, a_pre)?;
                    if !is_arith_reduce(reduce) {
                        return Err(format!("non-arithmetic vector store reduce at pc {pc}"));
                    }
                    match rhs {
                        VRhs::None => {}
                        VRhs::Imm { op, .. } => {
                            if !is_float_arith(op) {
                                return Err(format!("unsupported vector map op {op:?} at pc {pc}"));
                            }
                        }
                        VRhs::Buf { op, base, pre, .. } => {
                            if !is_float_arith(op) {
                                return Err(format!("unsupported vector map op {op:?} at pc {pc}"));
                            }
                            check_vbase(pc, base)?;
                            check_vscale(pc, pre)?;
                        }
                    }
                }
                Instr::VMulAddF64 { acc_idx, a_base, b_base, op, counter, hi, lanes, .. } => {
                    check_vloop(pc, counter, hi, lanes)?;
                    check_vidx(pc, acc_idx)?;
                    check_vbase(pc, a_base)?;
                    check_vbase(pc, b_base)?;
                    if !is_float_arith(op) {
                        return Err(format!("unsupported vector reduce op {op:?} at pc {pc}"));
                    }
                }
                Instr::VReduceF64 { acc_idx, base, pre, op, counter, hi, lanes, .. } => {
                    check_vloop(pc, counter, hi, lanes)?;
                    check_vidx(pc, acc_idx)?;
                    check_vbase(pc, base)?;
                    check_vscale(pc, pre)?;
                    if !is_float_arith(op) {
                        return Err(format!("unsupported vector reduce op {op:?} at pc {pc}"));
                    }
                }
                Instr::VAppendRangeF64 { base, guard, counter, hi, lanes, .. } => {
                    check_vloop(pc, counter, hi, lanes)?;
                    check_vbase(pc, base)?;
                    if let Some((op, _)) = guard {
                        if !is_cmp_op(op) {
                            return Err(format!(
                                "non-comparison vector guard op {op:?} at pc {pc}"
                            ));
                        }
                    }
                }
                Instr::VCmpSelectU8 { dst_base, src_base, cmp, counter, hi, lanes, .. } => {
                    check_vloop(pc, counter, hi, lanes)?;
                    check_vbase(pc, dst_base)?;
                    check_vbase(pc, src_base)?;
                    if !is_cmp_op(cmp) {
                        return Err(format!("non-comparison vector guard op {cmp:?} at pc {pc}"));
                    }
                }
            }
        }
        for &(r, _) in &self.pretags {
            if r.index() >= self.num_regs {
                return Err(format!(
                    "pretag for register {r} outside the file of {}",
                    self.num_regs
                ));
            }
        }
        if self.stmt_bump.len() != self.code.len() {
            return Err(format!(
                "statement table has {} entries for {} instructions",
                self.stmt_bump.len(),
                self.code.len()
            ));
        }
        for (pc, instr) in self.code.iter().enumerate() {
            let folded = |at: usize| self.stmt_bump.get(at).is_some_and(|&n| n > 0);
            if folded(pc) && instr.vop_loop_regs().is_some() {
                return Err(format!("folded statement count at pc {pc} sits on a vector op"));
            }
            match instr.target() {
                Some(t) if t as usize <= pc && folded(t as usize) => {
                    return Err(format!(
                        "folded statement count at pc {t} sits on a loop head \
                         (the back edge at pc {pc} would account it again)"
                    ));
                }
                _ => {}
            }
        }
        let mut prev_end = 0u32;
        for region in &self.shard_plan.regions {
            let (start, head, end) = (region.start, region.head, region.end);
            if start < prev_end {
                return Err(format!(
                    "shard region at pc {start} overlaps the previous region (ends {prev_end})"
                ));
            }
            if !(start <= head && head < end && end <= len) {
                return Err(format!(
                    "shard region {start}..{end} (head {head}) out of order or past the end ({len})"
                ));
            }
            if head - start > 1 {
                return Err(format!(
                    "shard region at pc {start} starts more than one op before its head {head}"
                ));
            }
            match self.code[head as usize] {
                Instr::ForTest { counter, hi, var, end: exit }
                | Instr::IForTest { counter, hi, var, end: exit } => {
                    if exit != end {
                        return Err(format!(
                            "shard region head at pc {head} exits to {exit}, not the region end {end}"
                        ));
                    }
                    if counter != region.counter || hi != region.hi || var != region.var {
                        return Err(format!(
                            "shard region head at pc {head} uses different loop registers than the plan"
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "shard region head at pc {head} is not a counted-loop head"
                    ));
                }
            }
            match self.code[end as usize - 1] {
                Instr::ForStep { test, .. } if test == head => {}
                _ => {
                    return Err(format!(
                        "shard region at pc {start} does not end with a back-edge to its head {head}"
                    ));
                }
            }
            check_reg(end as usize - 1, region.counter)?;
            check_reg(end as usize - 1, region.hi)?;
            check_reg(end as usize - 1, region.var)?;
            prev_end = end;
        }
        Ok(())
    }

    /// A one-instruction-per-line disassembly with full operand detail:
    /// registers render under their variable (or `tN` temporary) names,
    /// constant-pool operands show the resolved literal, buffers render as
    /// `bK`, and every jump shows its absolute target.  A line whose
    /// instruction carries folded statements ([`Program::stmt_bump`]) ends
    /// in `; +N stmt`.
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, instr) in self.code.iter().enumerate() {
            let _ = write!(out, "{pc:4}: {}", self.disasm_instr(*instr));
            match self.stmt_bump.get(pc) {
                Some(&n) if n > 0 => {
                    let _ = writeln!(out, "  ; +{n} stmt");
                }
                _ => out.push('\n'),
            }
        }
        out
    }

    fn disasm_instr(&self, instr: Instr) -> String {
        let r = |reg: Reg| self.reg_name(reg);
        let c = |cidx: u32| format!("{}", self.consts[cidx as usize]);
        let binop = |op: BinOp, a: String, b: String| {
            if op.is_call_style() {
                format!("{}({a}, {b})", op.symbol())
            } else {
                format!("{a} {} {b}", op.symbol())
            }
        };
        let reduce_op = |reduce: Option<BinOp>| match reduce {
            None => "=".to_string(),
            Some(op) => format!("{}=", op.symbol()),
        };
        let vbase = |base: VBase| match base {
            VBase::Var => "v".to_string(),
            VBase::Scaled { reg, stride } => format!("{}*{stride}+v", r(reg)),
        };
        let vscaled = |pre: VScale, x: String| match pre {
            VScale::None => x,
            VScale::Left { op, imm } => binop(op, format!("{}", Value::Float(imm)), x),
            VScale::Right { op, imm } => binop(op, x, format!("{}", Value::Float(imm))),
        };
        match instr {
            Instr::BumpStmt => "stmt".to_string(),
            Instr::Const { dst, cidx } => format!("{} = const {}", r(dst), c(cidx)),
            Instr::Mov { dst, src } => format!("{} = {}", r(dst), r(src)),
            Instr::BufLen { dst, buf } => format!("{} = len(b{})", r(dst), buf.index()),
            Instr::Load { dst, buf, idx } => {
                format!("{} = b{}[{}]", r(dst), buf.index(), r(idx))
            }
            Instr::CoerceInt { reg } => format!("coerce_int {}", r(reg)),
            Instr::Store { buf, idx, val, reduce } => {
                format!("b{}[{}] {} {}", buf.index(), r(idx), reduce_op(reduce), r(val))
            }
            Instr::Unary { op, dst, src } => {
                format!("{} = {}({})", r(dst), op.symbol(), r(src))
            }
            Instr::Binary { op, dst, lhs, rhs } => {
                format!("{} = {}", r(dst), binop(op, r(lhs), r(rhs)))
            }
            Instr::Jump { target } => format!("jump -> {target}"),
            Instr::JumpIfFalse { src, target, strict } => {
                let strictness = if strict { " (strict)" } else { "" };
                format!("if_false {} -> {target}{strictness}", r(src))
            }
            Instr::JumpIfTrue { src, target } => format!("if_true {} -> {target}", r(src)),
            Instr::JumpIfMissing { src, target } => {
                format!("if_missing {} -> {target}", r(src))
            }
            Instr::JumpIfNotMissing { src, target } => {
                format!("if_not_missing {} -> {target}", r(src))
            }
            Instr::WhileTest { cond, end } => format!("while {} else -> {end}", r(cond)),
            Instr::ForTest { counter, hi, var, end } => {
                format!("for {} = {} while <= {} else -> {end}", r(var), r(counter), r(hi))
            }
            Instr::ForStep { counter, test } => format!("step {} -> {test}", r(counter)),
            Instr::Append { buf, val } => format!("b{}.push({})", buf.index(), r(val)),
            Instr::FiberEnd { pos, data } => {
                format!("b{}.push(len(b{}))", pos.index(), data.index())
            }
            Instr::Seek { dst, buf, lo, hi, key, on_abs } => {
                let f = if on_abs { "seek_abs" } else { "seek" };
                format!("{} = {f}(b{}, {}, {}, {})", r(dst), buf.index(), r(lo), r(hi), r(key))
            }
            Instr::BinaryImm { op, dst, lhs, cidx } => {
                format!("{} = {}", r(dst), binop(op, r(lhs), format!("const {}", c(cidx))))
            }
            Instr::LoadBinary { op, dst, lhs, buf, idx } => {
                let load = format!("b{}[{}]", buf.index(), r(idx));
                format!("{} = {}", r(dst), binop(op, r(lhs), load))
            }
            Instr::CmpBranch { op, lhs, rhs, target, strict } => {
                let strictness = if strict { " (strict)" } else { "" };
                format!("if_false {} -> {target}{strictness}", binop(op, r(lhs), r(rhs)))
            }
            Instr::CmpBranchImm { op, lhs, cidx, target, strict } => {
                let strictness = if strict { " (strict)" } else { "" };
                let cmp = binop(op, r(lhs), format!("const {}", c(cidx)));
                format!("if_false {cmp} -> {target}{strictness}")
            }
            Instr::WhileCmp { op, lhs, rhs, end } => {
                format!("while {} else -> {end}", binop(op, r(lhs), r(rhs)))
            }
            Instr::WhileCmpImm { op, lhs, cidx, end } => {
                let cmp = binop(op, r(lhs), format!("const {}", c(cidx)));
                format!("while {cmp} else -> {end}")
            }
            Instr::Nop => "nop".to_string(),
            Instr::ConstI { dst, imm } => format!("{} = const.i {imm}", r(dst)),
            Instr::ConstF { dst, imm } => {
                format!("{} = const.f {}", r(dst), Value::Float(imm))
            }
            Instr::IMov { dst, src } => format!("{} = {} (i64)", r(dst), r(src)),
            Instr::FMov { dst, src } => format!("{} = {} (f64)", r(dst), r(src)),
            Instr::ILen { dst, buf } => format!("{} = len.i(b{})", r(dst), buf.index()),
            Instr::LoadI64 { dst, buf, idx } => {
                format!("{} = b{}[{}] (i64)", r(dst), buf.index(), r(idx))
            }
            Instr::LoadF64 { dst, buf, idx } => {
                format!("{} = b{}[{}] (f64)", r(dst), buf.index(), r(idx))
            }
            Instr::LoadU8 { dst, buf, idx } => {
                format!("{} = b{}[{}] (u8)", r(dst), buf.index(), r(idx))
            }
            Instr::FMulLoad { dst, lhs, buf, idx } => {
                format!("{} = {} * b{}[{}] (f64)", r(dst), r(lhs), buf.index(), r(idx))
            }
            Instr::StoreF64 { buf, idx, val, reduce } => {
                format!("b{}[{}] {} {} (f64)", buf.index(), r(idx), reduce_op(reduce), r(val))
            }
            Instr::StoreU8 { buf, idx, val, reduce } => {
                format!("b{}[{}] {} {} (u8)", buf.index(), r(idx), reduce_op(reduce), r(val))
            }
            Instr::IAppend { buf, val } => format!("b{}.push({}) (i64)", buf.index(), r(val)),
            Instr::FAppend { buf, val } => format!("b{}.push({}) (f64)", buf.index(), r(val)),
            Instr::IArith { op, dst, lhs, rhs } => {
                format!("{} = {} (i64)", r(dst), binop(op, r(lhs), r(rhs)))
            }
            Instr::FArith { op, dst, lhs, rhs } => {
                format!("{} = {} (f64)", r(dst), binop(op, r(lhs), r(rhs)))
            }
            Instr::IArithImm { op, dst, lhs, imm } => {
                format!("{} = {} (i64)", r(dst), binop(op, r(lhs), format!("{imm}")))
            }
            Instr::FArithImm { op, dst, lhs, imm } => {
                format!(
                    "{} = {} (f64)",
                    r(dst),
                    binop(op, r(lhs), format!("{}", Value::Float(imm)))
                )
            }
            Instr::FRound { dst, src } => format!("{} = round_u8({}) (f64)", r(dst), r(src)),
            Instr::ICmpBranch { op, lhs, rhs, target } => {
                format!("if_false {} (i64) -> {target}", binop(op, r(lhs), r(rhs)))
            }
            Instr::ICmpBranchImm { op, lhs, imm, target } => {
                format!("if_false {} (i64) -> {target}", binop(op, r(lhs), format!("{imm}")))
            }
            Instr::FCmpBranch { op, lhs, rhs, target } => {
                format!("if_false {} (f64) -> {target}", binop(op, r(lhs), r(rhs)))
            }
            Instr::FCmpBranchImm { op, lhs, imm, target } => {
                let cmp = binop(op, r(lhs), format!("{}", Value::Float(imm)));
                format!("if_false {cmp} (f64) -> {target}")
            }
            Instr::IWhileCmp { op, lhs, rhs, end } => {
                format!("while {} (i64) else -> {end}", binop(op, r(lhs), r(rhs)))
            }
            Instr::IWhileCmpImm { op, lhs, imm, end } => {
                format!("while {} (i64) else -> {end}", binop(op, r(lhs), format!("{imm}")))
            }
            Instr::FWhileCmp { op, lhs, rhs, end } => {
                format!("while {} (f64) else -> {end}", binop(op, r(lhs), r(rhs)))
            }
            Instr::IForTest { counter, hi, var, end } => {
                format!("for {} = {} while <= {} (i64) else -> {end}", r(var), r(counter), r(hi))
            }
            Instr::ISeek { dst, buf, lo, hi, key, on_abs } => {
                let f = if on_abs { "seek_abs.i" } else { "seek.i" };
                format!("{} = {f}(b{}, {}, {}, {})", r(dst), buf.index(), r(lo), r(hi), r(key))
            }
            Instr::VFillStoreF64 { buf, base, val, counter, hi, lanes, .. } => {
                let val = match val {
                    VFill::Imm(imm) => format!("{}", Value::Float(imm)),
                    VFill::Reg(reg) => r(reg),
                };
                format!(
                    "vfill.f64 b{}[{}] = {val} for v in [{}, {}) (x{lanes})",
                    buf.index(),
                    vbase(base),
                    r(counter),
                    r(hi)
                )
            }
            Instr::VMapF64 {
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
                lanes,
                ..
            } => {
                let x = vscaled(a_pre, format!("b{}[{}]", a.index(), vbase(a_base)));
                let val = match rhs {
                    VRhs::None => x,
                    VRhs::Imm { op, imm } => binop(op, x, format!("{}", Value::Float(imm))),
                    VRhs::Buf { op, buf, base, pre } => {
                        let y = vscaled(pre, format!("b{}[{}]", buf.index(), vbase(base)));
                        binop(op, x, y)
                    }
                };
                let val = if round { format!("round_u8({val})") } else { val };
                format!(
                    "vmap.f64 b{}[{}] {} {val} for v in [{}, {}) (x{lanes})",
                    dst.index(),
                    vbase(dst_base),
                    reduce_op(reduce),
                    r(counter),
                    r(hi)
                )
            }
            Instr::VMulAddF64 {
                acc,
                acc_idx,
                a,
                a_base,
                b,
                b_base,
                op,
                counter,
                hi,
                lanes,
                ..
            } => {
                let x = format!("b{}[{}]", a.index(), vbase(a_base));
                let y = format!("b{}[{}]", b.index(), vbase(b_base));
                format!(
                    "vmuladd.f64 b{}[{acc_idx}] {} {} for v in [{}, {}) (x{lanes})",
                    acc.index(),
                    reduce_op(Some(op)),
                    binop(BinOp::Mul, x, y),
                    r(counter),
                    r(hi)
                )
            }
            Instr::VReduceF64 { acc, acc_idx, src, base, pre, op, counter, hi, lanes, .. } => {
                let x = vscaled(pre, format!("b{}[{}]", src.index(), vbase(base)));
                format!(
                    "vreduce.f64 b{}[{acc_idx}] {} {x} for v in [{}, {}) (x{lanes})",
                    acc.index(),
                    reduce_op(Some(op)),
                    r(counter),
                    r(hi)
                )
            }
            Instr::VAppendRangeF64 {
                idx_out,
                val_out,
                src,
                base,
                guard,
                counter,
                hi,
                lanes,
                ..
            } => {
                let load = format!("b{}[{}]", src.index(), vbase(base));
                let filter = match guard {
                    None => String::new(),
                    Some((op, imm)) => {
                        format!(
                            " where {}",
                            binop(op, load.clone(), format!("{}", Value::Float(imm)))
                        )
                    }
                };
                format!(
                    "vappend.f64 b{}.push(v), b{}.push({load}){filter} for v in [{}, {}) (x{lanes})",
                    idx_out.index(),
                    val_out.index(),
                    r(counter),
                    r(hi)
                )
            }
            Instr::VCmpSelectU8 {
                dst,
                dst_base,
                src,
                src_base,
                cmp,
                cmp_imm,
                set,
                counter,
                hi,
                lanes,
                ..
            } => {
                let test = binop(
                    cmp,
                    format!("b{}[{}]", src.index(), vbase(src_base)),
                    format!("{}", Value::Float(cmp_imm)),
                );
                format!(
                    "vselect.u8 b{}[{}] = {} where {test} for v in [{}, {}) (x{lanes})",
                    dst.index(),
                    vbase(dst_base),
                    Value::Float(set),
                    r(counter),
                    r(hi)
                )
            }
        }
    }
}

/// The Stmt/Expr → bytecode compiler.
struct Compiler {
    code: Vec<Instr>,
    consts: Vec<Value>,
    num_vars: usize,
    next_temp: u32,
    max_temps: u32,
}

impl Compiler {
    fn emit(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Resolve the pending jump target of the instruction at `at`.
    fn patch(&mut self, at: usize, target: u32) {
        match self.code[at].target_mut() {
            Some(t) => *t = target,
            None => unreachable!("patching non-jump instruction {:?}", self.code[at]),
        }
    }

    fn var_reg(&self, var: Var) -> Reg {
        Reg(var.index() as u32)
    }

    fn alloc(&mut self) -> Reg {
        let r = Reg((self.num_vars as u32) + self.next_temp);
        self.next_temp += 1;
        self.max_temps = self.max_temps.max(self.next_temp);
        r
    }

    fn free(&mut self, n: u32) {
        debug_assert!(self.next_temp >= n);
        self.next_temp -= n;
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        // Dedupe bit-exactly: `Value`'s derived `PartialEq` conflates -0.0
        // with 0.0 (and never matches NaN), but the pool must reproduce the
        // literal the tree-walker evaluates, bit for bit.
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        match self.consts.iter().position(|c| same(c, &v)) {
            Some(k) => k as u32,
            None => {
                self.consts.push(v);
                (self.consts.len() - 1) as u32
            }
        }
    }

    fn emit_const(&mut self, dst: Reg, v: Value) {
        let cidx = self.const_idx(v);
        self.emit(Instr::Const { dst, cidx });
    }

    fn stmt(&mut self, s: &Stmt) {
        self.emit(Instr::BumpStmt);
        match s {
            Stmt::Comment(_) => {}
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let dst = self.var_reg(*var);
                if init.mentions(*var) {
                    // A self-referential initialiser (e.g. `p = p + 1` with a
                    // multi-write expression) must not clobber the variable
                    // before the expression finishes reading it.
                    let t = self.alloc();
                    self.expr(init, t);
                    self.emit(Instr::Mov { dst, src: t });
                    self.free(1);
                } else {
                    self.expr(init, dst);
                }
            }
            Stmt::Store { buf, index, value, reduce } => {
                let ti = self.alloc();
                self.expr(index, ti);
                // The tree-walker coerces the index before evaluating the
                // stored value; keep that order for error parity.
                self.emit(Instr::CoerceInt { reg: ti });
                let tv = self.alloc();
                self.expr(value, tv);
                self.emit(Instr::Store { buf: *buf, idx: ti, val: tv, reduce: *reduce });
                self.free(2);
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let tc = self.alloc();
                self.expr(cond, tc);
                let jf = self.emit(Instr::JumpIfFalse { src: tc, target: PENDING, strict: false });
                self.free(1);
                for s in then_branch {
                    self.stmt(s);
                }
                if else_branch.is_empty() {
                    let here = self.here();
                    self.patch(jf, here);
                } else {
                    let jend = self.emit(Instr::Jump { target: PENDING });
                    let here = self.here();
                    self.patch(jf, here);
                    for s in else_branch {
                        self.stmt(s);
                    }
                    let here = self.here();
                    self.patch(jend, here);
                }
            }
            Stmt::While { cond, body } => {
                let test = self.here();
                let tc = self.alloc();
                self.expr(cond, tc);
                let wt = self.emit(Instr::WhileTest { cond: tc, end: PENDING });
                self.free(1);
                for s in body {
                    self.stmt(s);
                }
                self.emit(Instr::Jump { target: test });
                let here = self.here();
                self.patch(wt, here);
            }
            Stmt::For { var, lo, hi, body } => {
                // A hidden counter register drives the loop so that body
                // assignments to the loop variable cannot derail iteration,
                // matching the tree-walker's private `i`.
                let counter = self.alloc();
                self.expr(lo, counter);
                self.emit(Instr::CoerceInt { reg: counter });
                let thi = self.alloc();
                self.expr(hi, thi);
                self.emit(Instr::CoerceInt { reg: thi });
                let test = self.here();
                let ft = self.emit(Instr::ForTest {
                    counter,
                    hi: thi,
                    var: self.var_reg(*var),
                    end: PENDING,
                });
                for s in body {
                    self.stmt(s);
                }
                self.emit(Instr::ForStep { counter, test });
                let here = self.here();
                self.patch(ft, here);
                self.free(2);
            }
            Stmt::Append { buf, value } => {
                let tv = self.alloc();
                self.expr(value, tv);
                self.emit(Instr::Append { buf: *buf, val: tv });
                self.free(1);
            }
            Stmt::FiberEnd { pos, data } => {
                self.emit(Instr::FiberEnd { pos: *pos, data: *data });
            }
            Stmt::Block(body) => {
                for s in body {
                    self.stmt(s);
                }
            }
        }
    }

    /// Compile an expression, leaving its value in `dst`.
    ///
    /// Operand sub-expressions always evaluate into fresh temporaries, so
    /// `dst` is only ever written by this node itself (`select`, `coalesce`
    /// and the short-circuit operators write it once per control-flow path).
    fn expr(&mut self, e: &Expr, dst: Reg) {
        match e {
            Expr::Lit(v) => self.emit_const(dst, *v),
            Expr::Var(v) => {
                let src = self.var_reg(*v);
                self.emit(Instr::Mov { dst, src });
            }
            Expr::BufLen(b) => {
                self.emit(Instr::BufLen { dst, buf: *b });
            }
            Expr::Load { buf, index } => {
                let t = self.alloc();
                self.expr(index, t);
                self.emit(Instr::Load { dst, buf: *buf, idx: t });
                self.free(1);
            }
            Expr::Unary { op, arg } => {
                let t = self.alloc();
                self.expr(arg, t);
                self.emit(Instr::Unary { op: *op, dst, src: t });
                self.free(1);
            }
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                // a && b: a non-missing false short-circuits to false; a
                // missing still evaluates b (missing && b == missing).
                let ta = self.alloc();
                self.expr(lhs, ta);
                let jm = self.emit(Instr::JumpIfMissing { src: ta, target: PENDING });
                let jf = self.emit(Instr::JumpIfFalse { src: ta, target: PENDING, strict: false });
                let rhs_at = self.here();
                self.patch(jm, rhs_at);
                let tb = self.alloc();
                self.expr(rhs, tb);
                self.emit(Instr::Binary { op: BinOp::And, dst, lhs: ta, rhs: tb });
                self.free(1);
                let jend = self.emit(Instr::Jump { target: PENDING });
                let false_at = self.here();
                self.patch(jf, false_at);
                self.emit_const(dst, Value::Bool(false));
                let end = self.here();
                self.patch(jend, end);
                self.free(1);
            }
            Expr::Binary { op: BinOp::Or, lhs, rhs } => {
                // a || b: a non-missing true short-circuits to true; a
                // missing still evaluates b (missing || b == missing).
                let ta = self.alloc();
                self.expr(lhs, ta);
                let jm = self.emit(Instr::JumpIfMissing { src: ta, target: PENDING });
                let jt = self.emit(Instr::JumpIfTrue { src: ta, target: PENDING });
                let rhs_at = self.here();
                self.patch(jm, rhs_at);
                let tb = self.alloc();
                self.expr(rhs, tb);
                self.emit(Instr::Binary { op: BinOp::Or, dst, lhs: ta, rhs: tb });
                self.free(1);
                let jend = self.emit(Instr::Jump { target: PENDING });
                let true_at = self.here();
                self.patch(jt, true_at);
                self.emit_const(dst, Value::Bool(true));
                let end = self.here();
                self.patch(jend, end);
                self.free(1);
            }
            Expr::Binary { op, lhs, rhs } => {
                let ta = self.alloc();
                self.expr(lhs, ta);
                let tb = self.alloc();
                self.expr(rhs, tb);
                self.emit(Instr::Binary { op: *op, dst, lhs: ta, rhs: tb });
                self.free(2);
            }
            Expr::Select { cond, then, otherwise } => {
                let tc = self.alloc();
                self.expr(cond, tc);
                let jf = self.emit(Instr::JumpIfFalse { src: tc, target: PENDING, strict: false });
                self.free(1);
                self.expr(then, dst);
                let jend = self.emit(Instr::Jump { target: PENDING });
                let else_at = self.here();
                self.patch(jf, else_at);
                self.expr(otherwise, dst);
                let end = self.here();
                self.patch(jend, end);
            }
            Expr::Coalesce(args) => {
                if args.is_empty() {
                    self.emit_const(dst, Value::Missing);
                    return;
                }
                let mut exits = Vec::new();
                for (k, a) in args.iter().enumerate() {
                    self.expr(a, dst);
                    if k + 1 < args.len() {
                        exits
                            .push(self.emit(Instr::JumpIfNotMissing { src: dst, target: PENDING }));
                    }
                }
                let end = self.here();
                for j in exits {
                    self.patch(j, end);
                }
            }
            Expr::Search { buf, lo, hi, key, on_abs } => {
                let tlo = self.alloc();
                self.expr(lo, tlo);
                self.emit(Instr::CoerceInt { reg: tlo });
                let thi = self.alloc();
                self.expr(hi, thi);
                self.emit(Instr::CoerceInt { reg: thi });
                let tkey = self.alloc();
                self.expr(key, tkey);
                self.emit(Instr::CoerceInt { reg: tkey });
                self.emit(Instr::Seek {
                    dst,
                    buf: *buf,
                    lo: tlo,
                    hi: thi,
                    key: tkey,
                    on_abs: *on_abs,
                });
                self.free(3);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, BufferSet};

    fn compile(stmts: &[Stmt], names: &Names) -> Program {
        let p = Program::compile(stmts, names);
        p.validate().expect("compiled program validates");
        p
    }

    /// Nested `for` inside `if` inside `while`: every jump offset must be
    /// resolved, in range, and land where the structure demands.
    #[test]
    fn jump_resolution_on_nested_if_while_for() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let out = bufs.add("out", Buffer::I64(vec![0].into()));
        let p = names.fresh("p");
        let i = names.fresh("i");
        let prog = vec![
            Stmt::Let { var: p, init: Expr::int(0) },
            Stmt::While {
                cond: Expr::lt(Expr::Var(p), Expr::int(3)),
                body: vec![
                    Stmt::If {
                        cond: Expr::eq(Expr::Var(p), Expr::int(1)),
                        then_branch: vec![Stmt::For {
                            var: i,
                            lo: Expr::int(0),
                            hi: Expr::int(4),
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
        let program = compile(&prog, &names);
        // Structure probes beyond validate(): the while's back-edge jumps to
        // the first instruction of its condition, and the for's ForStep
        // jumps to its ForTest.
        let code = program.code();
        let (mut saw_while, mut saw_for) = (false, false);
        for (pc, instr) in code.iter().enumerate() {
            match *instr {
                Instr::WhileTest { end, .. } => {
                    saw_while = true;
                    assert!((end as usize) > pc, "while end must be forward");
                    assert_eq!(end as usize, code.len(), "while is the outermost loop");
                }
                Instr::ForStep { test, .. } => {
                    saw_for = true;
                    assert!(matches!(code[test as usize], Instr::ForTest { .. }));
                }
                _ => {}
            }
        }
        assert!(saw_while && saw_for);
    }

    #[test]
    fn if_without_else_falls_through() {
        let mut names = Names::new();
        let a = names.fresh("a");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::int(0) },
            Stmt::if_then(Expr::bool(true), vec![Stmt::Assign { var: a, value: Expr::int(1) }]),
            Stmt::Assign { var: a, value: Expr::add(Expr::Var(a), Expr::int(10)) },
        ];
        let program = compile(&prog, &names);
        let jf = program
            .code()
            .iter()
            .find_map(|i| match i {
                Instr::JumpIfFalse { target, .. } => Some(*target),
                _ => None,
            })
            .expect("if compiles to a conditional jump");
        // The else-less if jumps past the then-branch, into the trailing
        // statement (which begins with its BumpStmt).
        assert!(matches!(program.code()[jf as usize], Instr::BumpStmt));
    }

    #[test]
    fn short_circuit_and_or_compile_to_branches() {
        let mut names = Names::new();
        let a = names.fresh("a");
        let prog = vec![Stmt::Let {
            var: a,
            init: Expr::binary(
                BinOp::Or,
                Expr::binary(BinOp::And, Expr::bool(true), Expr::bool(false)),
                Expr::bool(true),
            ),
        }];
        let program = compile(&prog, &names);
        let jumps = program
            .code()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::JumpIfMissing { .. }
                        | Instr::JumpIfFalse { .. }
                        | Instr::JumpIfTrue { .. }
                )
            })
            .count();
        assert!(jumps >= 4, "and/or should branch:\n{}", program.disasm());
    }

    #[test]
    fn search_compiles_to_seek_with_coerced_operands() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![1, 3, 5].into()));
        let a = names.fresh("a");
        let prog = vec![Stmt::Let {
            var: a,
            init: Expr::search(idx, Expr::int(0), Expr::int(2), Expr::int(4), false),
        }];
        let program = compile(&prog, &names);
        let seeks = program.code().iter().filter(|i| matches!(i, Instr::Seek { .. })).count();
        let coercions =
            program.code().iter().filter(|i| matches!(i, Instr::CoerceInt { .. })).count();
        assert_eq!(seeks, 1);
        assert_eq!(coercions, 3, "lo, hi and key are all coerced");
    }

    #[test]
    fn constant_pool_deduplicates() {
        let mut names = Names::new();
        let a = names.fresh("a");
        let b = names.fresh("b");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::int(7) },
            Stmt::Let { var: b, init: Expr::add(Expr::int(7), Expr::int(7)) },
        ];
        let program = compile(&prog, &names);
        assert_eq!(program.consts().len(), 1);
    }

    #[test]
    fn constant_pool_keeps_negative_zero_distinct() {
        let mut names = Names::new();
        let a = names.fresh("a");
        let b = names.fresh("b");
        let prog = vec![
            Stmt::Let { var: a, init: Expr::float(0.0) },
            Stmt::Let { var: b, init: Expr::float(-0.0) },
        ];
        let program = compile(&prog, &names);
        assert_eq!(program.consts().len(), 2, "-0.0 must not be interned as 0.0");
        let bits: Vec<u64> = program
            .consts()
            .iter()
            .map(|c| match c {
                Value::Float(x) => x.to_bits(),
                _ => panic!("expected float constants"),
            })
            .collect();
        assert!(bits.contains(&0.0f64.to_bits()) && bits.contains(&(-0.0f64).to_bits()));
    }

    #[test]
    fn register_file_is_sized_for_vars_plus_temps() {
        let mut names = Names::new();
        let a = names.fresh("a");
        let deep = Expr::add(
            Expr::add(Expr::int(1), Expr::int(2)),
            Expr::add(Expr::int(3), Expr::add(Expr::int(4), Expr::int(5))),
        );
        let prog = vec![Stmt::Let { var: a, init: deep }];
        let program = compile(&prog, &names);
        assert_eq!(program.num_vars(), 1);
        assert!(program.num_regs() > program.num_vars());
        assert!(program.num_regs() <= 1 + 6, "LIFO reuse keeps the file small");
    }

    #[test]
    fn reg_names_cover_vars_and_temps() {
        let mut names = Names::new();
        let a = names.fresh("acc");
        let prog = vec![Stmt::Let { var: a, init: Expr::add(Expr::int(1), Expr::int(2)) }];
        let program = compile(&prog, &names);
        assert_eq!(program.reg_name(Reg(0)), "acc");
        assert!(program.reg_name(Reg(1)).starts_with('t'));
    }

    /// Golden disassembly of the sparse-assembly statements: any change to
    /// the instruction encoding of `Append`/`FiberEnd` (operand order,
    /// emitted coercions, temp allocation) shows up as a diff here.
    #[test]
    fn golden_disasm_of_append_and_fiber_end() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let pos = bufs.add("C_pos", Buffer::I64(vec![0].into()));
        let idx = bufs.add("C_idx", Buffer::I64(vec![].into()));
        let i = names.fresh("i");
        let prog = vec![
            Stmt::Let { var: i, init: Expr::int(3) },
            Stmt::Append { buf: idx, value: Expr::Var(i) },
            Stmt::FiberEnd { pos, data: idx },
        ];
        let program = compile(&prog, &names);
        let expected = "   0: stmt
   1: i = const 3
   2: stmt
   3: t0 = i
   4: b1.push(t0)
   5: stmt
   6: b0.push(len(b1))
";
        assert_eq!(program.disasm(), expected);
    }

    /// Golden disassembly of a representative existing kernel shape (a
    /// reducing `for` loop over a buffer), guarding the encoding of the
    /// loop, load and store instructions.
    #[test]
    fn golden_disasm_of_a_reducing_for_loop() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let x = bufs.add("x", Buffer::F64(vec![1.0; 3].into()));
        let out = bufs.add("out", Buffer::F64(vec![0.0].into()));
        let i = names.fresh("i");
        let prog = vec![Stmt::For {
            var: i,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![Stmt::Store {
                buf: out,
                index: Expr::int(0),
                value: Expr::load(x, Expr::Var(i)),
                reduce: Some(BinOp::Add),
            }],
        }];
        let program = compile(&prog, &names);
        let expected = "   0: stmt
   1: t0 = const 0
   2: coerce_int t0
   3: t1 = const 2
   4: coerce_int t1
   5: for i = t0 while <= t1 else -> 13
   6: stmt
   7: t2 = const 0
   8: coerce_int t2
   9: t4 = i
  10: t3 = b0[t4]
  11: b1[t2] += t3
  12: step t0 -> 5
";
        assert_eq!(program.disasm(), expected);
    }

    #[test]
    fn append_operand_registers_are_validated() {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let idx = bufs.add("idx", Buffer::I64(vec![].into()));
        let pos = bufs.add("pos", Buffer::I64(vec![0].into()));
        let v = names.fresh("v");
        let prog = vec![
            Stmt::Let { var: v, init: Expr::int(1) },
            Stmt::Append { buf: idx, value: Expr::Var(v) },
            Stmt::FiberEnd { pos, data: idx },
        ];
        let program = compile(&prog, &names);
        let appends = program.code().iter().filter(|i| matches!(i, Instr::Append { .. })).count();
        let ends = program.code().iter().filter(|i| matches!(i, Instr::FiberEnd { .. })).count();
        assert_eq!((appends, ends), (1, 1));
    }

    #[test]
    fn disasm_lists_every_instruction() {
        let names = Names::new();
        let prog = vec![Stmt::Comment("hi".into())];
        let program = compile(&prog, &names);
        assert_eq!(program.disasm().lines().count(), program.code().len());
    }

    /// Hand-build a program out of typed instructions and golden-check
    /// the disassembly of every typed encoding (operand order, lane
    /// suffixes, inlined immediates, jump targets).
    #[test]
    fn golden_disasm_of_typed_instruction_forms() {
        let mut names = Names::new();
        let p = names.fresh("p");
        let x = names.fresh("x");
        let program = Program {
            code: vec![
                Instr::Nop,
                Instr::ConstI { dst: Reg(0), imm: 7 },
                Instr::ConstF { dst: Reg(1), imm: 1.5 },
                Instr::IMov { dst: Reg(0), src: Reg(0) },
                Instr::FMov { dst: Reg(1), src: Reg(1) },
                Instr::ILen { dst: Reg(0), buf: crate::buffer::BufId(0) },
                Instr::LoadI64 { dst: Reg(0), buf: crate::buffer::BufId(0), idx: Reg(0) },
                Instr::LoadF64 { dst: Reg(1), buf: crate::buffer::BufId(1), idx: Reg(0) },
                Instr::LoadU8 { dst: Reg(1), buf: crate::buffer::BufId(2), idx: Reg(0) },
                Instr::FMulLoad {
                    dst: Reg(1),
                    lhs: Reg(1),
                    buf: crate::buffer::BufId(1),
                    idx: Reg(0),
                },
                Instr::StoreF64 {
                    buf: crate::buffer::BufId(1),
                    idx: Reg(0),
                    val: Reg(1),
                    reduce: Some(BinOp::Add),
                },
                Instr::StoreU8 {
                    buf: crate::buffer::BufId(2),
                    idx: Reg(0),
                    val: Reg(1),
                    reduce: None,
                },
                Instr::IAppend { buf: crate::buffer::BufId(0), val: Reg(0) },
                Instr::FAppend { buf: crate::buffer::BufId(1), val: Reg(1) },
                Instr::IArith { op: BinOp::Add, dst: Reg(0), lhs: Reg(0), rhs: Reg(0) },
                Instr::FArith { op: BinOp::Mul, dst: Reg(1), lhs: Reg(1), rhs: Reg(1) },
                Instr::IArithImm { op: BinOp::Add, dst: Reg(0), lhs: Reg(0), imm: 1 },
                Instr::FArithImm { op: BinOp::Mul, dst: Reg(1), lhs: Reg(1), imm: 0.5 },
                Instr::FRound { dst: Reg(1), src: Reg(1) },
                Instr::ICmpBranch { op: BinOp::Lt, lhs: Reg(0), rhs: Reg(0), target: 24 },
                Instr::ICmpBranchImm { op: BinOp::Eq, lhs: Reg(0), imm: 3, target: 24 },
                Instr::FCmpBranch { op: BinOp::Ne, lhs: Reg(1), rhs: Reg(1), target: 24 },
                Instr::FCmpBranchImm { op: BinOp::Ne, lhs: Reg(1), imm: 0.0, target: 24 },
                Instr::IWhileCmp { op: BinOp::Lt, lhs: Reg(0), rhs: Reg(0), end: 24 },
                Instr::IWhileCmpImm { op: BinOp::Le, lhs: Reg(0), imm: 9, end: 25 },
                Instr::FWhileCmp { op: BinOp::Lt, lhs: Reg(1), rhs: Reg(1), end: 26 },
                Instr::IForTest { counter: Reg(0), hi: Reg(0), var: Reg(0), end: 27 },
                Instr::ISeek {
                    dst: Reg(0),
                    buf: crate::buffer::BufId(0),
                    lo: Reg(0),
                    hi: Reg(0),
                    key: Reg(0),
                    on_abs: true,
                },
            ],
            consts: Vec::new(),
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            num_regs: 2,
            pretags: vec![(Reg(0), LaneTag::Int), (Reg(1), LaneTag::Float)],
            shard_plan: ShardPlan::default(),
            stmt_bump: vec![0; 28],
        };
        let _ = (p, x);
        program.validate().expect("typed forms validate");
        let expected = "   0: nop
   1: p = const.i 7
   2: x = const.f 1.5
   3: p = p (i64)
   4: x = x (f64)
   5: p = len.i(b0)
   6: p = b0[p] (i64)
   7: x = b1[p] (f64)
   8: x = b2[p] (u8)
   9: x = x * b1[p] (f64)
  10: b1[p] += x (f64)
  11: b2[p] = x (u8)
  12: b0.push(p) (i64)
  13: b1.push(x) (f64)
  14: p = p + p (i64)
  15: x = x * x (f64)
  16: p = p + 1 (i64)
  17: x = x * 0.5 (f64)
  18: x = round_u8(x) (f64)
  19: if_false p < p (i64) -> 24
  20: if_false p == 3 (i64) -> 24
  21: if_false x != x (f64) -> 24
  22: if_false x != 0.0 (f64) -> 24
  23: while p < p (i64) else -> 24
  24: while p <= 9 (i64) else -> 25
  25: while x < x (f64) else -> 26
  26: for p = p while <= p (i64) else -> 27
  27: p = seek_abs.i(b0, p, p, p)
";
        assert_eq!(program.disasm(), expected);
    }

    #[test]
    fn typed_validate_rejects_bad_ops_and_pretags() {
        let base = |code: Vec<Instr>, pretags: Vec<(Reg, LaneTag)>| Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: Vec::new(),
            var_names: vec!["a".into()].into(),
            num_regs: 1,
            pretags,
            shard_plan: ShardPlan::default(),
        };
        // A non-comparison op in a typed branch is rejected.
        let p = base(
            vec![Instr::ICmpBranch { op: BinOp::Add, lhs: Reg(0), rhs: Reg(0), target: 1 }],
            Vec::new(),
        );
        assert!(p.validate().is_err());
        // Div is not an infallible integer arithmetic op.
        let p = base(
            vec![Instr::IArith { op: BinOp::Div, dst: Reg(0), lhs: Reg(0), rhs: Reg(0) }],
            Vec::new(),
        );
        assert!(p.validate().is_err());
        // A logical reduce cannot ride a typed store.
        let p = base(
            vec![Instr::StoreF64 {
                buf: crate::buffer::BufId(0),
                idx: Reg(0),
                val: Reg(0),
                reduce: Some(BinOp::And),
            }],
            Vec::new(),
        );
        assert!(p.validate().is_err());
        // Pretags outside the register file are rejected.
        let p = base(vec![Instr::Nop], vec![(Reg(9), LaneTag::Int)]);
        assert!(p.validate().is_err());
    }

    /// Hand-build one malformed program per structural invariant and check
    /// that [`Program::validate`] names the violation: jumps past the end,
    /// unresolved (PENDING) jumps, `for` back-edges that miss their loop
    /// head, out-of-range registers and constant-pool indices, and a
    /// register file past [`Program::REG_LIMIT`].
    #[test]
    fn validate_rejects_each_malformed_encoding() {
        let base = |code: Vec<Instr>| Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: vec![Value::Int(1)],
            var_names: vec!["a".into()].into(),
            num_regs: 1,
            pretags: Vec::new(),
            shard_plan: ShardPlan::default(),
        };

        // Jump past the end of the code (len is 1, so 2 is out of range;
        // exactly len is the legal halt target).
        let p = base(vec![Instr::Jump { target: 2 }]);
        assert!(p.validate().unwrap_err().contains("past the end"));
        let p = base(vec![Instr::Jump { target: 1 }]);
        assert_eq!(p.validate(), Ok(()), "target == len is the halt address");

        // An unresolved jump left over from compilation.
        let p = base(vec![Instr::Jump { target: PENDING }]);
        assert!(p.validate().unwrap_err().contains("unresolved jump"));

        // A `for` back-edge that lands on something other than a loop head.
        let p = base(vec![Instr::Nop, Instr::ForStep { counter: Reg(0), test: 0 }]);
        assert!(p.validate().unwrap_err().contains("not a loop head"));

        // Out-of-range registers, on an untyped and a typed encoding.
        let p = base(vec![Instr::Mov { dst: Reg(3), src: Reg(0) }]);
        assert!(p.validate().unwrap_err().contains("outside the file"));
        let p = base(vec![Instr::IArith { op: BinOp::Add, dst: Reg(0), lhs: Reg(0), rhs: Reg(7) }]);
        assert!(p.validate().unwrap_err().contains("outside the file"));

        // Out-of-range constant-pool indices on every encoding that carries
        // one (typed opcodes inline their immediates instead).
        let oob = [
            Instr::Const { dst: Reg(0), cidx: 5 },
            Instr::BinaryImm { op: BinOp::Add, dst: Reg(0), lhs: Reg(0), cidx: 5 },
            Instr::CmpBranchImm { op: BinOp::Lt, lhs: Reg(0), cidx: 5, target: 1, strict: false },
            Instr::WhileCmpImm { op: BinOp::Lt, lhs: Reg(0), cidx: 5, end: 1 },
        ];
        for instr in oob {
            let p = base(vec![instr]);
            assert!(
                p.validate().unwrap_err().contains("outside the pool"),
                "{instr:?} must be rejected"
            );
        }

        // A register file past the limit is rejected before any decode.
        let mut p = base(vec![Instr::Nop]);
        p.num_regs = Program::REG_LIMIT + 1;
        assert!(p.validate().unwrap_err().contains("exceeds the limit"));

        // The folded statement table: one entry per instruction, and no
        // count where a back edge or a shard would account it again.
        let looping =
            || base(vec![Instr::Mov { dst: Reg(0), src: Reg(0) }, Instr::Jump { target: 0 }]);
        let mut p = looping();
        p.stmt_bump[1] = 2;
        p.validate().expect("a count off the loop head is fine");
        assert!(p.disasm().ends_with("   1: jump -> 0  ; +2 stmt\n"), "{}", p.disasm());
        p.stmt_bump[0] = 1;
        assert!(p.validate().unwrap_err().contains("sits on a loop head"));
        let mut p = looping();
        p.stmt_bump.pop();
        assert!(p.validate().unwrap_err().contains("statement table has 1 entries"));
        let fill = Instr::VFillStoreF64 {
            buf: crate::buffer::BufId(0),
            base: VBase::Var,
            val: VFill::Imm(0.0),
            counter: Reg(0),
            hi: Reg(0),
            cost: VCost { stmts: 1, loads: 0, stores: 1 },
            lanes: 4,
        };
        let mut p = base(vec![fill]);
        p.validate().expect("the kernel op itself is well formed");
        p.stmt_bump[0] = 1;
        assert!(p.validate().unwrap_err().contains("sits on a vector op"));
    }

    /// One hand-built instance of every vectorized kernel-op encoding,
    /// pinned against its exact disassembly.
    #[test]
    fn golden_disasm_of_vector_kernel_ops() {
        let mut names = Names::new();
        let i = names.fresh("i");
        let n = names.fresh("n");
        let k = names.fresh("k");
        let x = names.fresh("x");
        let _ = (i, n, k, x);
        let b = crate::buffer::BufId;
        let cost = VCost { stmts: 1, loads: 1, stores: 1 };
        let program = Program {
            code: vec![
                Instr::VFillStoreF64 {
                    buf: b(0),
                    base: VBase::Var,
                    val: VFill::Imm(0.0),
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    lanes: 8,
                },
                // The register form: a run value broadcast over its region.
                Instr::VFillStoreF64 {
                    buf: b(0),
                    base: VBase::Scaled { reg: Reg(2), stride: 1 },
                    val: VFill::Reg(Reg(3)),
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    lanes: 8,
                },
                Instr::VMapF64 {
                    dst: b(2),
                    dst_base: VBase::Var,
                    reduce: Some(BinOp::Add),
                    round: false,
                    a: b(0),
                    a_base: VBase::Var,
                    a_pre: VScale::Right { op: BinOp::Mul, imm: 0.75 },
                    rhs: VRhs::None,
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    lanes: 8,
                },
                Instr::VMapF64 {
                    dst: b(2),
                    dst_base: VBase::Scaled { reg: Reg(2), stride: 4 },
                    reduce: None,
                    round: true,
                    a: b(0),
                    a_base: VBase::Scaled { reg: Reg(2), stride: 4 },
                    a_pre: VScale::Left { op: BinOp::Mul, imm: 0.6 },
                    rhs: VRhs::Buf {
                        op: BinOp::Add,
                        buf: b(1),
                        base: VBase::Scaled { reg: Reg(2), stride: 4 },
                        pre: VScale::Left { op: BinOp::Mul, imm: 0.4 },
                    },
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    lanes: 8,
                },
                Instr::VMulAddF64 {
                    acc: b(2),
                    acc_idx: 0,
                    a: b(0),
                    a_base: VBase::Var,
                    b: b(1),
                    b_base: VBase::Var,
                    op: BinOp::Add,
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    lanes: 8,
                },
                Instr::VReduceF64 {
                    acc: b(2),
                    acc_idx: 0,
                    src: b(0),
                    base: VBase::Var,
                    pre: VScale::None,
                    op: BinOp::Max,
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    lanes: 8,
                },
                Instr::VAppendRangeF64 {
                    idx_out: b(3),
                    val_out: b(4),
                    src: b(0),
                    base: VBase::Var,
                    guard: Some((BinOp::Gt, 0.3)),
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    pass_cost: VCost { stmts: 2, loads: 1, stores: 2 },
                    lanes: 4,
                },
                Instr::VCmpSelectU8 {
                    dst: b(5),
                    dst_base: VBase::Var,
                    src: b(0),
                    src_base: VBase::Var,
                    cmp: BinOp::Gt,
                    cmp_imm: 0.5,
                    set: 255.0,
                    counter: Reg(0),
                    hi: Reg(1),
                    cost,
                    pass_cost: VCost { stmts: 1, loads: 0, stores: 1 },
                    lanes: 4,
                },
            ],
            consts: Vec::new(),
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            num_regs: 4,
            pretags: vec![
                (Reg(0), LaneTag::Int),
                (Reg(1), LaneTag::Int),
                (Reg(2), LaneTag::Int),
                (Reg(3), LaneTag::Float),
            ],
            shard_plan: ShardPlan::default(),
            stmt_bump: vec![0; 8],
        };
        program.validate().expect("vector kernel ops validate");
        let expected = "   0: vfill.f64 b0[v] = 0.0 for v in [i, n) (x8)
   1: vfill.f64 b0[k*1+v] = x for v in [i, n) (x8)
   2: vmap.f64 b2[v] += b0[v] * 0.75 for v in [i, n) (x8)
   3: vmap.f64 b2[k*4+v] = round_u8(0.6 * b0[k*4+v] + 0.4 * b1[k*4+v]) for v in [i, n) (x8)
   4: vmuladd.f64 b2[0] += b0[v] * b1[v] for v in [i, n) (x8)
   5: vreduce.f64 b2[0] max= b0[v] for v in [i, n) (x8)
   6: vappend.f64 b3.push(v), b4.push(b0[v]) where b0[v] > 0.3 for v in [i, n) (x4)
   7: vselect.u8 b5[v] = 255.0 where b0[v] > 0.5 for v in [i, n) (x4)
";
        assert_eq!(program.disasm(), expected);
    }

    /// Every vectorized kernel op rejects a bad slice range, a misaligned
    /// lane count, and an out-of-range register through [`Program::validate`].
    #[test]
    fn vector_validate_rejects_each_malformed_encoding() {
        let base = |code: Vec<Instr>| Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: Vec::new(),
            var_names: vec!["a".into()].into(),
            num_regs: 1,
            pretags: Vec::new(),
            shard_plan: ShardPlan::default(),
        };
        let b = crate::buffer::BufId;
        let cost = VCost { stmts: 1, loads: 1, stores: 1 };
        // A well-formed instance of each op, parameterised over the loop
        // registers, index shape, and lane width so each malformation can
        // be injected per op.
        type Mk = Box<dyn Fn(Reg, VBase, u8) -> Instr>;
        let mk_ops: Vec<Mk> = vec![
            Box::new(move |r, base, lanes| Instr::VFillStoreF64 {
                buf: b(0),
                base,
                val: VFill::Imm(0.0),
                counter: r,
                hi: r,
                cost,
                lanes,
            }),
            Box::new(move |r, base, lanes| Instr::VMapF64 {
                dst: b(1),
                dst_base: base,
                reduce: None,
                round: false,
                a: b(0),
                a_base: base,
                a_pre: VScale::None,
                rhs: VRhs::None,
                counter: r,
                hi: r,
                cost,
                lanes,
            }),
            Box::new(move |r, base, lanes| Instr::VMulAddF64 {
                acc: b(2),
                acc_idx: 0,
                a: b(0),
                a_base: base,
                b: b(1),
                b_base: base,
                op: BinOp::Add,
                counter: r,
                hi: r,
                cost,
                lanes,
            }),
            Box::new(move |r, base, lanes| Instr::VReduceF64 {
                acc: b(1),
                acc_idx: 0,
                src: b(0),
                base,
                pre: VScale::None,
                op: BinOp::Add,
                counter: r,
                hi: r,
                cost,
                lanes,
            }),
            Box::new(move |r, base, lanes| Instr::VAppendRangeF64 {
                idx_out: b(1),
                val_out: b(2),
                src: b(0),
                base,
                guard: None,
                counter: r,
                hi: r,
                cost,
                pass_cost: cost,
                lanes,
            }),
            Box::new(move |r, base, lanes| Instr::VCmpSelectU8 {
                dst: b(1),
                dst_base: base,
                src: b(0),
                src_base: base,
                cmp: BinOp::Gt,
                cmp_imm: 0.5,
                set: 255.0,
                counter: r,
                hi: r,
                cost,
                pass_cost: cost,
                lanes,
            }),
        ];
        for mk in &mk_ops {
            // The well-formed baseline passes.
            let p = base(vec![mk(Reg(0), VBase::Var, 8)]);
            assert_eq!(p.validate(), Ok(()));
            // Bad slice range: a scaled index shape with stride < 1.
            let p = base(vec![mk(Reg(0), VBase::Scaled { reg: Reg(0), stride: 0 }, 8)]);
            assert!(p.validate().unwrap_err().contains("bad slice range"));
            // Misaligned lane count (must be 4 or 8).
            for lanes in [0, 3, 5, 16] {
                let p = base(vec![mk(Reg(0), VBase::Var, lanes)]);
                assert!(p.validate().unwrap_err().contains("misaligned lane count"));
            }
            // Out-of-range loop registers and index-shape base register.
            let p = base(vec![mk(Reg(9), VBase::Var, 8)]);
            assert!(p.validate().unwrap_err().contains("outside the file"));
            let p = base(vec![mk(Reg(0), VBase::Scaled { reg: Reg(9), stride: 1 }, 8)]);
            assert!(p.validate().unwrap_err().contains("outside the file"));
        }

        // A register-valued fill: the register must be in the file, and can
        // be neither of the loop's own registers.
        let fill = |val: Reg| Instr::VFillStoreF64 {
            buf: b(0),
            base: VBase::Var,
            val: VFill::Reg(val),
            counter: Reg(0),
            hi: Reg(0),
            cost,
            lanes: 8,
        };
        let mut p = base(vec![fill(Reg(1))]);
        p.num_regs = 2;
        assert_eq!(p.validate(), Ok(()));
        assert!(base(vec![fill(Reg(9))]).validate().unwrap_err().contains("outside the file"));
        assert!(base(vec![fill(Reg(0))])
            .validate()
            .unwrap_err()
            .contains("stores a loop register"));

        // A negative accumulator element index is a bad slice range.
        let p = base(vec![Instr::VMulAddF64 {
            acc: b(0),
            acc_idx: -1,
            a: b(1),
            a_base: VBase::Var,
            b: b(2),
            b_base: VBase::Var,
            op: BinOp::Add,
            counter: Reg(0),
            hi: Reg(0),
            cost,
            lanes: 8,
        }]);
        assert!(p.validate().unwrap_err().contains("bad slice range"));

        // Operator whitelists: a logical map reduce, a comparison where
        // arithmetic is required, and arithmetic where a comparison is
        // required are all rejected.
        let p = base(vec![Instr::VMapF64 {
            dst: b(0),
            dst_base: VBase::Var,
            reduce: Some(BinOp::And),
            round: false,
            a: b(1),
            a_base: VBase::Var,
            a_pre: VScale::None,
            rhs: VRhs::None,
            counter: Reg(0),
            hi: Reg(0),
            cost,
            lanes: 8,
        }]);
        assert!(p.validate().unwrap_err().contains("non-arithmetic vector store reduce"));
        let p = base(vec![Instr::VReduceF64 {
            acc: b(0),
            acc_idx: 0,
            src: b(1),
            base: VBase::Var,
            pre: VScale::None,
            op: BinOp::Lt,
            counter: Reg(0),
            hi: Reg(0),
            cost,
            lanes: 8,
        }]);
        assert!(p.validate().unwrap_err().contains("unsupported vector reduce op"));
        let p = base(vec![Instr::VAppendRangeF64 {
            idx_out: b(0),
            val_out: b(1),
            src: b(2),
            base: VBase::Var,
            guard: Some((BinOp::Add, 0.0)),
            counter: Reg(0),
            hi: Reg(0),
            cost,
            pass_cost: cost,
            lanes: 4,
        }]);
        assert!(p.validate().unwrap_err().contains("non-comparison vector guard op"));
    }
}
