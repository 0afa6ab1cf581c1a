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
use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use crate::value::Value;
use crate::var::{Names, Var};

// The instruction set is one table, in `isa.rs`: the enum, its operand walk
// and everything derived from the two.
pub(crate) use crate::isa::{for_each_reg_role, for_each_reg_role_mut, operand_ids};
pub(crate) use crate::isa::{is_arith_reduce, is_cmp_op, is_float_arith, is_int_arith};
pub(crate) use crate::isa::{Edge, Elem, Operand, Piece, Role, Shared, Walk};
pub use crate::isa::{
    Gap, Gather, Guard, Instr, MergeForm, Out, Product, Step, StepCounts, Term, VAcc, VBase, VCost,
    VFill, VRhs, VScale,
};

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

/// Whether `reg` holds the integer literal `imm` wherever the program reads
/// it: the `forward` pass's pinned register, written once, by the run of
/// literals at pc 0, and never again.
pub(crate) fn holds_literal(code: &[Instr], reg: Reg, imm: i64) -> bool {
    let prologue =
        code.iter().take_while(|i| matches!(i, Instr::ConstI { .. } | Instr::ConstF { .. }));
    let pinned = prologue.filter(|&&i| i == Instr::ConstI { dst: reg, imm }).count() == 1;
    let writes = |instr: &Instr| {
        let mut writes = false;
        for_each_reg_role(instr, |r, role| writes |= r == reg && role != Role::Read);
        writes
    };
    pinned && code.iter().filter(|instr| writes(instr)).count() == 1
}

/// "No jump target" in an [`edge_table`].
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Every instruction's jump target ([`NO_EDGE`] for none), read off the ISA
/// table once: a pass that asks "where does this jump" more than once per
/// instruction asks the table, and walks operands once.
pub(crate) fn edge_table(code: &[Instr]) -> Vec<u32> {
    code.iter().map(|instr| instr.target().unwrap_or(NO_EDGE)).collect()
}

/// [`jump_targets`] of the code an [`edge_table`] was read off.
pub(crate) fn jump_targets_of(edges: &[u32]) -> Vec<bool> {
    let mut targets = vec![false; edges.len() + 1];
    for &t in edges {
        if let Some(slot) = targets.get_mut(t as usize) {
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

/// `code` with every `(pc, instr)` of `inserts`, given in ascending `pc`
/// order, placed in front of `code[pc]`, and every jump moved with the
/// instruction it named.  A jump to such a `pc` keeps landing on the
/// original instruction, going around the inserted one, unless `entered`:
/// then it lands on the inserted one, which is entered on every path.
pub(crate) fn splice_before(
    code: &[Instr],
    inserts: &[(usize, Instr)],
    entered: bool,
) -> Vec<Instr> {
    let mut spliced = Vec::with_capacity(code.len() + inserts.len());
    let mut map = Vec::with_capacity(code.len() + 1);
    let mut inserts = inserts.iter().peekable();
    for (pc, instr) in code.iter().enumerate() {
        let arrival = spliced.len() as u32;
        if let Some((_, inserted)) = inserts.next_if(|(at, _)| *at == pc) {
            spliced.push(*inserted);
        }
        map.push(if entered { arrival } else { spliced.len() as u32 });
        spliced.push(*instr);
    }
    debug_assert!(inserts.next().is_none(), "inserts are ascending and inside the code");
    // A target may be one past the last instruction (loop ends).
    map.push(spliced.len() as u32);
    remap_targets(&mut spliced, &map);
    spliced
}

/// A compiled bytecode program: the instruction stream, its constant pool,
/// its step table, and the register-file layout.
///
/// Obtain one with [`Program::compile`] and execute it with
/// [`crate::vm::Vm`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) code: Vec<Instr>,
    pub(crate) consts: Vec<Value>,
    /// What each [`Instr::IStepLoop`] does with a step, by the op's `step`
    /// index: one entry per op (the `merge_skip` pass, `crate::opt::merge_skip`,
    /// appends them), held out of line as the constant pool is.
    pub(crate) steps: Vec<Step>,
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
    /// `stmt_bump[pc]` = source statements the VM accounts immediately
    /// before `code[pc]` executes — [`Instr::BumpStmt`]s the `finalize`
    /// pass (`crate::opt::finalize`) took off the instruction stream.
    /// Always `code.len()` entries, all zero until that pass runs; never
    /// nonzero on the target of a back edge (a loop head would account
    /// the statements once per iteration; a bottom test's target is the
    /// body's first instruction, whose count *is* per iteration) or on a
    /// vectorized kernel op (the statement in front of a vectorized loop
    /// stays an explicit `BumpStmt`, so the op's line in `disasm` and its
    /// per-pc `profile` count are the bulk alone).  The target of a forward
    /// branch may carry a count (the statement after an `if`): every edge
    /// into it accounts the statements, so a rewrite must never point a
    /// branch past such an instruction.  No static check can see a count
    /// lost that way; the pass manager's exact `ExecStats` witness is the
    /// gate.
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
            steps: Vec::new(),
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            num_regs: c.num_vars + c.max_temps as usize,
            pretags: Vec::new(),
            stmt_bump: vec![0; c.code.len()],
            code: c.code,
        }
    }

    /// This program, step table and all, with its instruction stream
    /// replaced by `code` (whose jump targets the caller has already
    /// remapped) and every statement still explicit in it — for the passes
    /// that run before `finalize`.
    pub(crate) fn with_code(&self, code: Vec<Instr>) -> Program {
        debug_assert!(self.stmt_bump.iter().all(|&n| n == 0), "rewriting a finalized program");
        Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: self.consts.clone(),
            steps: self.steps.clone(),
            var_names: Arc::clone(&self.var_names),
            num_regs: self.num_regs,
            pretags: self.pretags.clone(),
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

    /// The step-table entry of `instr` — what a step loop op does with a
    /// step — if it is one and its entry is in the table.
    pub fn step_of(&self, instr: &Instr) -> Option<&Step> {
        match *instr {
            Instr::IStepLoop { step, .. } => self.steps.get(step as usize),
            _ => None,
        }
    }

    /// Call `check` on every operand of `code[pc]` and of its step-table
    /// entry, if it has one, in field order: stop at, and return, the first
    /// operand's error.
    pub(crate) fn try_operands_at<'a, E>(
        &'a self,
        pc: usize,
        mut check: impl FnMut(Operand<'a, Shared>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut verdict = Ok(());
        let mut f = |o| {
            if verdict.is_ok() {
                verdict = check(o);
            }
        };
        self.code[pc].operands(&mut f);
        if let Some(step) = self.step_of(&self.code[pc]) {
            Walk::walk(step, &mut f);
        }
        verdict
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

    /// The printed name of a register: the variable's name for variable
    /// registers, a synthetic `tN` for temporaries.
    pub fn reg_name(&self, reg: Reg) -> String {
        match self.var_names.get(reg.index()) {
            Some(n) => n.clone(),
            None => format!("t{}", reg.index() - self.var_names.len()),
        }
    }

    /// Check structural invariants: every jump target is resolved and in
    /// range, every `for` back-edge lands on its loop head and every bottom
    /// test just past the head of the loop it closes, every register
    /// index fits the register file (which itself fits
    /// [`Program::REG_LIMIT`]), every constant index is in the pool, every
    /// step loop op names an entry of the step table no other op names (whose
    /// operands are checked as the op's own), every
    /// operator belongs to the class its opcode executes (the VM's typed
    /// and fused arms are `unreachable!` outside it), every kernel op has a
    /// lane count of 4 or 8, strides of at least 1 and a non-negative
    /// accumulator index, and the folded statement table has one entry per
    /// instruction with none on a loop head or a vectorized kernel op.
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
        let check_reg = |pc: usize, r: Reg| -> Result<(), String> {
            if r.index() >= self.num_regs {
                return Err(format!(
                    "instruction at pc {pc} uses register {r} outside the file of {}",
                    self.num_regs
                ));
            }
            Ok(())
        };
        // What each kind of operand must satisfy, whichever opcode carries it.
        let check_operand = |pc: usize, operand: Operand<'_, Shared>| -> Result<(), String> {
            match operand {
                Operand::Reg(&r, _) => check_reg(pc, r)?,
                Operand::Buf(..) => {} // needs the buffer set: `opt::verify_bytecode`
                Operand::Target(&t, edge) => {
                    if t == PENDING {
                        return Err(format!("unresolved jump at pc {pc}"));
                    }
                    if t > len {
                        return Err(format!("jump at pc {pc} targets {t}, past the end ({len})"));
                    }
                    // The back-edge must land on a loop head, never in the
                    // middle of nowhere (jump-target alignment).
                    let on_head = matches!(
                        self.code.get(t as usize),
                        Some(Instr::ForTest { .. } | Instr::IForTest { .. })
                    );
                    if edge == Edge::LoopBack && !on_head {
                        return Err(format!(
                            "for back-edge at pc {pc} targets {t}, which is not a loop head"
                        ));
                    }
                    // A bottom test re-enters the body of the loop it
                    // closes: just past the head that exits to just past
                    // this instruction.
                    let exit = Some((pc as u32 + 1, Edge::LoopExit));
                    let past_head = t > 0 && self.code[t as usize - 1].edge() == exit;
                    if edge == Edge::LoopBody && !past_head {
                        return Err(format!(
                            "bottom test at pc {pc} targets {t}, which is not the body of its loop"
                        ));
                    }
                }
                Operand::Const(&cidx) => {
                    if cidx as usize >= self.consts.len() {
                        return Err(format!("constant {cidx} at pc {pc} outside the pool"));
                    }
                }
                Operand::Step(&sidx) => {
                    if sidx as usize >= self.steps.len() {
                        return Err(format!("step entry {sidx} at pc {pc} outside the table"));
                    }
                }
                Operand::Op(op, in_class, what) => {
                    if !in_class(op) {
                        return Err(format!("{what} {op:?} at pc {pc}"));
                    }
                }
                Operand::Lanes(lanes) => {
                    if lanes != 4 && lanes != 8 {
                        return Err(format!(
                            "vector op at pc {pc} has a misaligned lane count {lanes} (must be 4 or 8)"
                        ));
                    }
                }
                Operand::Stride(stride) => {
                    if stride < 1 {
                        return Err(format!(
                            "vector op at pc {pc} has a bad slice range (stride {stride})"
                        ));
                    }
                }
                Operand::AccIdx(idx) => {
                    if idx < 0 {
                        return Err(format!(
                            "vector op at pc {pc} has a bad slice range (accumulator index {idx})"
                        ));
                    }
                }
            }
            Ok(())
        };
        let mut owners = vec![None; self.steps.len()];
        for (pc, instr) in self.code.iter().enumerate() {
            self.try_operands_at(pc, |operand| check_operand(pc, operand))?;
            if let Instr::IStepLoop { step, .. } = *instr {
                if let Some(other) = owners[step as usize].replace(pc) {
                    return Err(format!("step entry {step} at pc {pc} is the op's at pc {other}"));
                }
            }
            if let Instr::VFillStoreF64 { val: VFill::Reg(reg), counter, hi, .. } = *instr {
                if reg == counter || reg == hi {
                    return Err(format!("vector fill at pc {pc} stores a loop register"));
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
            match instr.edge() {
                // A bottom test lands where falling through the head lands:
                // the body's first statement is accounted once per arrival.
                Some((_, Edge::LoopBody)) => {}
                Some((t, _)) if t as usize <= pc && folded(t as usize) => {
                    return Err(format!(
                        "folded statement count at pc {t} sits on a loop head \
                         (the back edge at pc {pc} would account it again)"
                    ));
                }
                _ => {}
            }
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
            let _ = write!(out, "{pc:4}: {}", instr.disasm(self));
            match self.stmt_bump.get(pc) {
                Some(&n) if n > 0 => {
                    let _ = writeln!(out, "  ; +{n} stmt");
                }
                _ => out.push('\n'),
            }
        }
        out
    }

    /// `template` — an instruction's row of the ISA table — with each
    /// `{field}` rendered from `fields` (the module documentation of
    /// `crate::isa` has the syntax).
    pub(crate) fn render(&self, template: &str, instr: &Instr, fields: &[(&str, Piece)]) -> String {
        let mut out = String::new();
        let mut rest = template;
        while let Some(at) = rest.find(['{', '}']) {
            let brace = &rest[at..=at];
            out += &rest[..at];
            rest = &rest[at + 1..];
            if let Some(tail) = rest.strip_prefix(brace) {
                out += brace;
                rest = tail;
                continue;
            }
            let spec = split_top(rest, '}')[0];
            let (name, arg) = spec.split_at(spec.find([':', '?']).unwrap_or(spec.len()));
            let piece = fields.iter().find(|(field, _)| *field == name).map(|&(_, piece)| piece);
            let piece = piece.unwrap_or_else(|| panic!("`{template}` names no field `{name}`"));
            out += &match (arg.strip_prefix('?'), arg.strip_prefix(':')) {
                (Some(text), _) => {
                    if matches!(piece, Piece::Flag(true)) { text } else { "" }.to_string()
                }
                (_, Some(args)) => {
                    let args =
                        split_top(args, '|').into_iter().map(|x| self.render(x, instr, fields));
                    self.show(piece, instr, &args.collect::<Vec<_>>())
                }
                _ => self.show(piece, instr, &[]),
            };
            rest = &rest[spec.len() + 1..];
        }
        out + rest
    }

    /// One field, applied to the operands `args` where it takes any.
    fn show(&self, piece: Piece, instr: &Instr, args: &[String]) -> String {
        match (piece, args) {
            (Piece::Reg(reg), []) => self.reg_name(reg),
            (Piece::Buf(buf), []) => format!("b{}", buf.index()),
            (Piece::Pc(pc), []) => pc.to_string(),
            (Piece::Const(cidx), []) => self.consts[cidx as usize].to_string(),
            (Piece::Step, []) => self.step_loop(instr),
            (Piece::Op(op), []) => op.symbol().to_string(),
            (Piece::Op(op), [a, b]) => binop(op, a, b),
            (Piece::Reduce(reduce), []) => format!("{}=", reduce.map_or("", BinOp::symbol)),
            (Piece::Guard(None), [_]) => String::new(),
            (Piece::Guard(Some((op, imm))), [x]) => format!(" where {}", binop(op, x, &float(imm))),
            (Piece::Un(op), []) => op.symbol().to_string(),
            (Piece::Int(n), []) => n.to_string(),
            (Piece::Float(x), []) => float(x),
            (Piece::Base(base), []) => self.vbase(base),
            (Piece::Acc(VAcc { imm, reg: None }), []) => imm.to_string(),
            (Piece::Acc(VAcc { imm: 0, reg: Some(reg) }), []) => self.reg_name(reg),
            (Piece::Acc(VAcc { imm, reg: Some(reg) }), []) => {
                format!("{}+{imm}", self.reg_name(reg))
            }
            (Piece::Fill(VFill::Imm(imm)), []) => float(imm),
            (Piece::Fill(VFill::Reg(reg)), []) => self.reg_name(reg),
            (Piece::Scale(pre), [x]) => scaled(pre, x),
            (Piece::Rhs(VRhs::None), [x]) => x.clone(),
            (Piece::Rhs(VRhs::Imm { op, imm }), [x]) => binop(op, x, &float(imm)),
            (Piece::Rhs(VRhs::Buf { op, buf, base, pre }), [x]) => {
                binop(op, x, &scaled(pre, &format!("b{}[{}]", buf.index(), self.vbase(base))))
            }
            (piece, args) => unreachable!("{piece:?} does not render over {} operands", args.len()),
        }
    }

    /// A kernel op's index shape.
    fn vbase(&self, base: VBase) -> String {
        match base {
            VBase::Var => "v".to_string(),
            VBase::Scaled { reg, stride } => format!("{}*{stride}+v", self.reg_name(reg)),
            VBase::Offset { add: Some(add), sub } => {
                format!("{}-{}+v", self.reg_name(add), self.reg_name(sub))
            }
            VBase::Offset { add: None, sub } => format!("v-{}", self.reg_name(sub)),
        }
    }

    /// A step loop op's fingers, bounds, step-table entry and counts: its
    /// line after the mnemonic.
    fn step_loop(&self, instr: &Instr) -> String {
        let Instr::IStepLoop { a, p, q, step, start, stop, counts } = *instr else {
            unreachable!("only the step loop op has a step-table index")
        };
        let r = |reg: Reg| self.reg_name(reg);
        let at = |list: BufId, finger: Reg| format!("b{}[{}]", list.index(), r(finger));
        let (mut a_form, mut b_form, mut pass) = (String::new(), String::new(), None);
        let mut filled = None;
        let does = match self.steps.get(step as usize) {
            None => format!("step #{step}"),
            Some(&Step::Skip(form)) => {
                match form {
                    MergeForm::Steps => {}
                    MergeForm::Blocks { ofs } => a_form = format!(" blocks b{}", ofs.index()),
                    MergeForm::Gallop { a_end, a_row, b_end, b_row } => {
                        a_form = format!(" seeks < {}", at(a_end, a_row));
                        b_form = format!(" seeks < {}", at(b_end, b_row));
                    }
                }
                "skip".to_string()
            }
            Some(&Step::Perform { guard, product, out, pass: counted }) => {
                let Product { lead, val, second, extent } = product;
                let mut value = lead.map_or(String::new(), |(buf, k)| at(buf, k) + " * ");
                value += &at(val, p);
                match second {
                    Gather::None => {}
                    Gather::At { x, at: finger } => value += &format!(" * {}", at(x, finger)),
                    Gather::Load { x, ofs } => {
                        let mut index = at(a, p);
                        for term in ofs {
                            let (sign, buf, reg) = match term {
                                Term::Zero => continue,
                                Term::Plus { buf, at } => ('+', buf, at),
                                Term::Minus { buf, at } => ('-', buf, at),
                            };
                            index += &format!(" {sign} {}", at(buf, reg));
                        }
                        value += &format!(" * b{}[{index}]", x.index());
                    }
                }
                if extent {
                    value += " * extent";
                }
                let body = match out {
                    Out::Fold { acc, k, op } => format!("{} {}= {value}", at(acc, k), op.symbol()),
                    Out::Push { crd, vals } => {
                        format!(
                            "b{}.push({}), b{}.push({value})",
                            crd.index(),
                            at(a, p),
                            vals.index()
                        )
                    }
                    Out::Store { dst, op, gap } => {
                        let op = op.map_or("", |op| op.symbol());
                        let stored = format!("b{}[{}] {op}= {value}", dst.index(), at(a, p));
                        match gap {
                            None => stored,
                            Some(Gap { fill, stmts: [run, each] }) => {
                                filled = Some([run, each]);
                                let gap = format!("b{}[{}..{})", dst.index(), r(start), at(a, p));
                                format!("{gap} = {}, {stored}", r(fill))
                            }
                        }
                    }
                };
                match guard {
                    Guard::Every => body,
                    Guard::Cmp(op, imm) => {
                        pass = Some(("pass", counted));
                        format!("{body} where {}", binop(op, &at(val, p), &float(imm)))
                    }
                    Guard::Both => {
                        pass = Some(("match", counted));
                        let (b, q) = q.unwrap_or((a, p));
                        format!("{body} where {} == {}", at(a, p), at(b, q))
                    }
                }
            }
        };
        let cost = |[stmts, loads]: [u32; 2]| {
            let loads = if loads > 0 { format!(" +{loads} load") } else { String::new() };
            format!("+{stmts} stmt{loads}")
        };
        let mut fingers = at(a, p) + &a_form;
        let mut steps = Vec::new();
        let count = |k: usize| [counts.stmts[k], counts.loads[k]];
        if counts.stmts[0] > 0 || counts.loads[0] > 0 {
            steps.push(cost(count(0)));
        }
        steps.push(format!("{} += 1 ; {}", r(p), cost(count(1))));
        if let Some((b, q)) = q {
            fingers += &format!(" ~ {}{b_form}", at(b, q));
            steps.push(format!("{} += 1 ; {}", r(q), cost(count(2))));
        }
        if let Some((what, counted)) = pass {
            steps.push(format!("{what} ; {}", cost(counted)));
        }
        if let Some([run, each]) = filled {
            steps.push(format!("gap ; {} | each ; {}", cost([run, 0]), cost([each, 0])));
        }
        format!("{fingers} in {}..={} (i64) {does} {{ {} }}", r(start), r(stop), steps.join(" | "))
    }
}

/// `text` split at each `sep` outside braces.
fn split_top(text: &str, sep: char) -> Vec<&str> {
    let (mut parts, mut from, mut depth) = (Vec::new(), 0, 0);
    for (at, c) in text.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth > 0 => depth -= 1,
            _ if c == sep && depth == 0 => {
                parts.push(&text[from..at]);
                from = at + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[from..]);
    parts
}

/// `a op b`, or `op(a, b)` for a call-style operator.
fn binop(op: BinOp, a: &str, b: &str) -> String {
    if op.is_call_style() {
        format!("{}({a}, {b})", op.symbol())
    } else {
        format!("{a} {} {b}", op.symbol())
    }
}

/// `x` under a kernel op's pre-scale.
fn scaled(pre: VScale, x: &str) -> String {
    match pre {
        VScale::None => x.to_string(),
        VScale::Left { op, imm } => binop(op, &float(imm), x),
        VScale::Right { op, imm } => binop(op, x, &float(imm)),
    }
}

/// A float immediate, as a float literal displays.
fn float(x: f64) -> String {
    Value::Float(x).to_string()
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
                Instr::LoadI64 { dst: Reg(0), buf: crate::buffer::BufId(0), idx: Reg(0) },
                Instr::LoadF64 { dst: Reg(1), buf: crate::buffer::BufId(1), idx: Reg(0) },
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
                Instr::IAppend { buf: crate::buffer::BufId(0), val: Reg(0) },
                Instr::FAppend { buf: crate::buffer::BufId(1), val: Reg(1) },
                Instr::IArith { op: BinOp::Add, dst: Reg(0), lhs: Reg(0), rhs: Reg(0) },
                Instr::FArith { op: BinOp::Mul, dst: Reg(1), lhs: Reg(1), rhs: Reg(1) },
                Instr::IArithImm { op: BinOp::Add, dst: Reg(0), lhs: Reg(0), imm: 1 },
                Instr::FArithImm { op: BinOp::Mul, dst: Reg(1), lhs: Reg(1), imm: 0.5 },
                Instr::FRound { dst: Reg(1), src: Reg(1) },
                Instr::ICmpBranch { op: BinOp::Lt, lhs: Reg(0), rhs: Reg(0), target: 20 },
                Instr::ICmpBranchImm { op: BinOp::Eq, lhs: Reg(0), imm: 3, target: 20 },
                Instr::FCmpBranch { op: BinOp::Ne, lhs: Reg(1), rhs: Reg(1), target: 20 },
                Instr::FCmpBranchImm { op: BinOp::Ne, lhs: Reg(1), imm: 0.0, target: 20 },
                Instr::IWhileCmp { op: BinOp::Lt, lhs: Reg(0), rhs: Reg(0), end: 20 },
                Instr::IWhileCmpImm { op: BinOp::Le, lhs: Reg(0), imm: 9, end: 21 },
                Instr::IForTest { counter: Reg(0), hi: Reg(0), var: Reg(0), end: 22 },
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
            steps: Vec::new(),
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            num_regs: 2,
            pretags: vec![(Reg(0), LaneTag::Int), (Reg(1), LaneTag::Float)],
            stmt_bump: vec![0; 23],
        };
        let _ = (p, x);
        program.validate().expect("typed forms validate");
        let expected = "   0: nop
   1: p = const.i 7
   2: x = const.f 1.5
   3: p = p (i64)
   4: p = b0[p] (i64)
   5: x = b1[p] (f64)
   6: x = x * b1[p] (f64)
   7: b1[p] += x (f64)
   8: b0.push(p) (i64)
   9: b1.push(x) (f64)
  10: p = p + p (i64)
  11: x = x * x (f64)
  12: p = p + 1 (i64)
  13: x = x * 0.5 (f64)
  14: x = round_u8(x) (f64)
  15: if_false p < p (i64) -> 20
  16: if_false p == 3 (i64) -> 20
  17: if_false x != x (f64) -> 20
  18: if_false x != 0.0 (f64) -> 20
  19: while p < p (i64) else -> 20
  20: while p <= 9 (i64) else -> 21
  21: for p = p while <= p (i64) else -> 22
  22: p = seek_abs.i(b0, p, p, p)
";
        assert_eq!(program.disasm(), expected);

        // Every row of the table, then every form of a nested operand, a
        // flag either way, `=` without a reduction, a call-style operator and
        // a step loop whose entry is not in the table.  Nothing here runs, so
        // the program is not validated.
        use BinOp::*;
        let (r, b) = (Reg, crate::buffer::BufId);
        let cost = VCost { stmts: 1, loads: 1, stores: 1 };
        let (var, scaled) = (VBase::Var, VBase::Scaled { reg: r(2), stride: 4 });
        let window = VBase::Offset { add: Some(r(2)), sub: r(3) };
        let shift = VBase::Offset { add: None, sub: r(3) };
        let fill = |base, val| Instr::VFillStoreF64 {
            buf: b(2),
            base,
            val,
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 8,
        };
        let map = |reduce, round, a_pre, rhs| Instr::VMapF64 {
            dst: b(2),
            dst_base: var,
            reduce,
            round,
            a: b(3),
            a_base: shift,
            a_pre,
            rhs,
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 4,
        };
        let mul_add = |acc_idx, op| Instr::VMulAddF64 {
            acc: b(2),
            acc_idx,
            a: b(3),
            a_base: window,
            b: b(4),
            b_base: var,
            op,
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 8,
        };
        let reduce = |pre| Instr::VReduceF64 {
            acc: b(2),
            acc_idx: VAcc { imm: 0, reg: None },
            src: b(3),
            base: var,
            pre,
            op: Add,
            counter: r(0),
            hi: r(1),
            cost,
            lanes: 4,
        };
        let append = Instr::VAppendRangeF64 {
            idx_out: b(0),
            val_out: b(2),
            src: b(3),
            base: var,
            guard: None,
            counter: r(0),
            hi: r(1),
            cost,
            pass_cost: cost,
            lanes: 8,
        };
        let step_loop = |q, step, each: u32, loads: u32| Instr::IStepLoop {
            a: b(0),
            p: r(0),
            q,
            step,
            start: r(2),
            stop: r(3),
            counts: StepCounts { stmts: [each, 3, 4], loads: [each, loads, 0] },
        };
        let second = Some((b(1), r(6)));
        let fold = |op| Out::Fold { acc: b(4), k: r(1), op };
        let push = Out::Push { crd: b(5), vals: b(6) };
        let gap = Some(Gap { fill: r(5), stmts: [1, 2] });
        let filled = Out::Store { dst: b(4), op: None, gap };
        let added = Out::Store { dst: b(4), op: Some(Add), gap: None };
        let product = |lead, second, extent| Product { lead, val: b(2), second, extent };
        let perform = |guard, product, out| Step::Perform { guard, product, out, pass: [5, 2] };
        let at = Gather::At { x: b(3), at: r(6) };
        let gathered = |ofs| Gather::Load { x: b(3), ofs };
        let (plus, minus) =
            (Term::Plus { buf: b(5), at: r(4) }, Term::Minus { buf: b(6), at: r(5) });
        let mut code = crate::isa::samples();
        let mut steps = vec![crate::isa::sample_step()];
        let forms = [
            (second, Step::Skip(MergeForm::Steps)),
            (second, Step::Skip(MergeForm::Blocks { ofs: b(5) })),
            (
                second,
                Step::Skip(MergeForm::Gallop {
                    a_end: b(5),
                    a_row: r(4),
                    b_end: b(6),
                    b_row: r(5),
                }),
            ),
            (None, perform(Guard::Every, product(None, Gather::None, false), fold(Add))),
            (None, perform(Guard::Cmp(Gt, 5.0), product(None, Gather::None, true), push)),
            (second, perform(Guard::Both, product(Some((b(7), r(5))), at, false), fold(Max))),
            (second, perform(Guard::Both, product(None, at, false), push)),
            (
                None,
                perform(
                    Guard::Every,
                    product(None, gathered([Term::Zero, minus]), true),
                    fold(Add),
                ),
            ),
            (None, perform(Guard::Every, product(None, gathered([minus, plus]), false), push)),
            (None, perform(Guard::Both, product(None, Gather::None, false), fold(Add))),
            (None, perform(Guard::Every, product(None, gathered([Term::Zero; 2]), false), filled)),
            (
                None,
                perform(Guard::Every, product(None, gathered([plus, Term::Zero]), false), added),
            ),
        ];
        for (k, (q, step)) in forms.into_iter().enumerate() {
            code.push(step_loop(q, steps.len() as u32, k as u32 % 2, k as u32 % 3));
            steps.push(step);
        }
        code.extend([
            step_loop(second, 99, 0, 0),
            Instr::Store { buf: b(2), idx: r(0), val: r(1), reduce: None },
            Instr::StoreF64 { buf: b(2), idx: r(0), val: r(1), reduce: None },
            Instr::Binary { op: Max, dst: r(0), lhs: r(1), rhs: r(2) },
            Instr::BinaryImm { op: Min, dst: r(0), lhs: r(1), cidx: 0 },
            Instr::JumpIfFalse { src: r(0), target: 3, strict: true },
            Instr::CmpBranch { op: Ge, lhs: r(0), rhs: r(1), target: 3, strict: true },
            Instr::CmpBranchImm { op: Ne, lhs: r(0), cidx: 0, target: 3, strict: false },
            Instr::Seek { dst: r(0), buf: b(0), lo: r(1), hi: r(2), key: r(3), on_abs: true },
            Instr::ISeek { dst: r(0), buf: b(0), lo: r(1), hi: r(2), key: r(3), on_abs: false },
            Instr::FArithImm { op: Max, dst: r(0), lhs: r(1), imm: -2.0 },
            fill(var, VFill::Imm(0.0)),
            fill(window, VFill::Imm(0.25)),
            fill(shift, VFill::Reg(r(3))),
            map(None, false, VScale::None, VRhs::None),
            map(
                Some(Mul),
                false,
                VScale::Right { op: Max, imm: 1.0 },
                VRhs::Imm { op: Sub, imm: 2.5 },
            ),
            map(
                Some(Max),
                true,
                VScale::None,
                VRhs::Buf { op: Min, buf: b(4), base: scaled, pre: VScale::None },
            ),
            mul_add(VAcc { imm: 3, reg: None }, Max),
            mul_add(VAcc { imm: 0, reg: Some(r(4)) }, Mul),
            reduce(VScale::None),
            reduce(VScale::Left { op: Sub, imm: 1.5 }),
            append,
        ]);
        let program = Program {
            stmt_bump: (0..code.len() as u32).map(|pc| pc % 7 / 6).collect(),
            code,
            consts: vec![Value::Float(2.0)],
            steps,
            var_names: vec!["i".into(), "j".into(), "k".into()].into(),
            num_regs: 8,
            pretags: Vec::new(),
        };
        let expected = "   0: stmt
   1: i = const 2.0
   2: i = j
   3: i = b2[j]
   4: coerce_int i
   5: b2[i] += j
   6: i = -(j)  ; +1 stmt
   7: i = j + k
   8: jump -> 3
   9: if_false i -> 3
  10: if_true i -> 3
  11: if_missing i -> 3
  12: if_not_missing i -> 3
  13: while i else -> 3  ; +1 stmt
  14: for k = i while <= j else -> 3
  15: step i -> 0
  16: b0.push(i)
  17: b0.push(len(b2))
  18: i = seek(b0, j, k, t0)
  19: i = j + const 2.0
  20: i = j * b2[k]  ; +1 stmt
  21: if_false i < j -> 3
  22: if_false i < const 2.0 -> 3 (strict)
  23: while i < j else -> 3
  24: while i < const 2.0 else -> 3
  25: nop
  26: i = const.i 7
  27: i = const.f 1.5  ; +1 stmt
  28: i = j (i64)
  29: i = b0[j] (i64)
  30: i = b2[j] (f64)
  31: i = j * b2[k] (f64)
  32: b2[i] += j (f64)
  33: b0.push(i) (i64)
  34: b2.push(i) (f64)  ; +1 stmt
  35: i = j + k (i64)
  36: i = j / k (f64)
  37: i = j + 1 (i64)
  38: i = j * 0.5 (f64)
  39: i = round_u8(j) (f64)
  40: if_false i < j (i64) -> 3
  41: if_false i == 3 (i64) -> 3  ; +1 stmt
  42: if_false i != j (f64) -> 3
  43: if_false i != 0.0 (f64) -> 3
  44: while i < j (i64) else -> 3
  45: while i <= 9 (i64) else -> 3
  46: for k = i while <= j (i64) else -> 3
  47: i = seek_abs.i(b0, j, k, t0)
  48: if i == j (i64) { k += 1 ; +1 stmt }  ; +1 stmt
  49: next while i <= j (i64) -> 1
  50: next k = i + 1 while <= j (i64) -> 1
  51: vfill.f64 b2[k*4+v] = t0 for v in [i, j) (x8)
  52: vmap.f64 b2[k*4+v] += round_u8(0.6 * b3[t0*4+v] + b4[t1*4+v] * 0.4) for v in [i, j) (x8)
  53: vmuladd.f64 b2[t1+1] += b3[k*4+v] * b4[t0-t2+v] for v in [i, j) (x4)
  54: vreduce.f64 b2[t1+1] max= b3[k*4+v] * 2.0 for v in [i, j) (x8)
  55: vappend.f64 b0.push(v), b2.push(b3[k*4+v]) where b3[k*4+v] > 0.3 for v in [i, j) (x4)  ; +1 stmt
  56: step_loop b0[i] ~ b1[t3] in k..=t0 (i64) b4[j] += b2[i] * b3[b0[i] + b5[t1] - b6[t2]] * extent { +7 stmt +5 load | i += 1 ; +1 stmt | t3 += 1 ; +2 stmt }
  57: step_loop b0[i] ~ b1[t3] in k..=t0 (i64) skip { i += 1 ; +3 stmt | t3 += 1 ; +4 stmt }
  58: step_loop b0[i] blocks b5 ~ b1[t3] in k..=t0 (i64) skip { +1 stmt +1 load | i += 1 ; +3 stmt +1 load | t3 += 1 ; +4 stmt }
  59: step_loop b0[i] seeks < b5[t1] ~ b1[t3] seeks < b6[t2] in k..=t0 (i64) skip { i += 1 ; +3 stmt +2 load | t3 += 1 ; +4 stmt }
  60: step_loop b0[i] in k..=t0 (i64) b4[j] += b2[i] { +1 stmt +1 load | i += 1 ; +3 stmt }
  61: step_loop b0[i] in k..=t0 (i64) b5.push(b0[i]), b6.push(b2[i] * extent) where b2[i] > 5.0 { i += 1 ; +3 stmt +1 load | pass ; +5 stmt +2 load }
  62: step_loop b0[i] ~ b1[t3] in k..=t0 (i64) b4[j] max= b7[t2] * b2[i] * b3[t3] where b0[i] == b1[t3] { +1 stmt +1 load | i += 1 ; +3 stmt +2 load | t3 += 1 ; +4 stmt | match ; +5 stmt +2 load }  ; +1 stmt
  63: step_loop b0[i] ~ b1[t3] in k..=t0 (i64) b5.push(b0[i]), b6.push(b2[i] * b3[t3]) where b0[i] == b1[t3] { i += 1 ; +3 stmt | t3 += 1 ; +4 stmt | match ; +5 stmt +2 load }
  64: step_loop b0[i] in k..=t0 (i64) b4[j] += b2[i] * b3[b0[i] - b6[t2]] * extent { +1 stmt +1 load | i += 1 ; +3 stmt +1 load }
  65: step_loop b0[i] in k..=t0 (i64) b5.push(b0[i]), b6.push(b2[i] * b3[b0[i] - b6[t2] + b5[t1]]) { i += 1 ; +3 stmt +2 load }
  66: step_loop b0[i] in k..=t0 (i64) b4[j] += b2[i] where b0[i] == b0[i] { +1 stmt +1 load | i += 1 ; +3 stmt | match ; +5 stmt +2 load }
  67: step_loop b0[i] in k..=t0 (i64) b4[k..b0[i]) = t2, b4[b0[i]] = b2[i] * b3[b0[i]] { i += 1 ; +3 stmt +1 load | gap ; +1 stmt | each ; +2 stmt }
  68: step_loop b0[i] in k..=t0 (i64) b4[b0[i]] += b2[i] * b3[b0[i] + b5[t1]] { +1 stmt +1 load | i += 1 ; +3 stmt +2 load }
  69: step_loop b0[i] ~ b1[t3] in k..=t0 (i64) step #99 { i += 1 ; +3 stmt | t3 += 1 ; +4 stmt }  ; +1 stmt
  70: b2[i] = j
  71: b2[i] = j (f64)
  72: i = max(j, k)
  73: i = min(j, const 2.0)
  74: if_false i -> 3 (strict)
  75: if_false i >= j -> 3 (strict)
  76: if_false i != const 2.0 -> 3  ; +1 stmt
  77: i = seek_abs(b0, j, k, t0)
  78: i = seek.i(b0, j, k, t0)
  79: i = max(j, -2.0) (f64)
  80: vfill.f64 b2[v] = 0.0 for v in [i, j) (x8)
  81: vfill.f64 b2[k-t0+v] = 0.25 for v in [i, j) (x8)
  82: vfill.f64 b2[v-t0] = t0 for v in [i, j) (x8)
  83: vmap.f64 b2[v] = b3[v-t0] for v in [i, j) (x4)  ; +1 stmt
  84: vmap.f64 b2[v] *= max(b3[v-t0], 1.0) - 2.5 for v in [i, j) (x4)
  85: vmap.f64 b2[v] max= round_u8(min(b3[v-t0], b4[k*4+v])) for v in [i, j) (x4)
  86: vmuladd.f64 b2[3] max= b3[k-t0+v] * b4[v] for v in [i, j) (x8)
  87: vmuladd.f64 b2[t1] *= b3[k-t0+v] * b4[v] for v in [i, j) (x8)
  88: vreduce.f64 b2[0] += b3[v] for v in [i, j) (x4)
  89: vreduce.f64 b2[0] += 1.5 - b3[v] for v in [i, j) (x4)
  90: vappend.f64 b0.push(v), b2.push(b3[v]) for v in [i, j) (x8)  ; +1 stmt
";
        assert_eq!(program.disasm(), expected, "\n{}", program.disasm());
    }

    #[test]
    fn typed_validate_rejects_bad_ops_and_pretags() {
        let base = |code: Vec<Instr>, pretags: Vec<(Reg, LaneTag)>| Program {
            stmt_bump: vec![0; code.len()],
            code,
            consts: Vec::new(),
            steps: Vec::new(),
            var_names: vec!["a".into()].into(),
            num_regs: 1,
            pretags,
        };
        // A non-comparison op in a typed branch is rejected.
        let p = base(
            vec![Instr::ICmpBranch { op: BinOp::Add, lhs: Reg(0), rhs: Reg(0), target: 1 }],
            Vec::new(),
        );
        assert!(p.validate().is_err());
        // So is one in a fused generic compare, which the VM's `compare`
        // would otherwise meet as an `unreachable!`.
        let p = base(
            vec![Instr::WhileCmp { op: BinOp::Add, lhs: Reg(0), rhs: Reg(0), end: 1 }],
            Vec::new(),
        );
        assert!(p.validate().unwrap_err().contains("non-comparison while op Add at pc 0"));
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
            steps: Vec::new(),
            var_names: vec!["a".into()].into(),
            num_regs: 1,
            pretags: Vec::new(),
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
        // count where a back edge would account it again, none on a kernel op.
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
                // A window dot into a register-indexed accumulator.
                Instr::VMulAddF64 {
                    acc: b(2),
                    acc_idx: VAcc { imm: 0, reg: Some(Reg(2)) },
                    a: b(0),
                    a_base: VBase::Offset { add: Some(Reg(2)), sub: Reg(0) },
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
                    acc_idx: VAcc { imm: 0, reg: None },
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
            ],
            consts: Vec::new(),
            steps: Vec::new(),
            var_names: names.iter().map(|v| names.name(v).to_string()).collect(),
            num_regs: 4,
            pretags: vec![
                (Reg(0), LaneTag::Int),
                (Reg(1), LaneTag::Int),
                (Reg(2), LaneTag::Int),
                (Reg(3), LaneTag::Float),
            ],
            stmt_bump: vec![0; 7],
        };
        program.validate().expect("vector kernel ops validate");
        let expected = "   0: vfill.f64 b0[v] = 0.0 for v in [i, n) (x8)
   1: vfill.f64 b0[k*1+v] = x for v in [i, n) (x8)
   2: vmap.f64 b2[v] += b0[v] * 0.75 for v in [i, n) (x8)
   3: vmap.f64 b2[k*4+v] = round_u8(0.6 * b0[k*4+v] + 0.4 * b1[k*4+v]) for v in [i, n) (x8)
   4: vmuladd.f64 b2[k] += b0[k-i+v] * b1[v] for v in [i, n) (x8)
   5: vreduce.f64 b2[0] max= b0[v] for v in [i, n) (x8)
   6: vappend.f64 b3.push(v), b4.push(b0[v]) where b0[v] > 0.3 for v in [i, n) (x4)
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
            steps: Vec::new(),
            var_names: vec!["a".into()].into(),
            num_regs: 1,
            pretags: Vec::new(),
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
                acc_idx: VAcc { imm: 0, reg: Some(r) },
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
                acc_idx: VAcc { imm: 0, reg: None },
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
            let p = base(vec![mk(Reg(0), VBase::Offset { add: None, sub: Reg(9) }, 8)]);
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

        // A negative accumulator element index is a bad slice range, and its
        // register must be in the file.
        let mul_add = |acc_idx| Instr::VMulAddF64 {
            acc: b(0),
            acc_idx,
            a: b(1),
            a_base: VBase::Var,
            b: b(2),
            b_base: VBase::Var,
            op: BinOp::Add,
            counter: Reg(0),
            hi: Reg(0),
            cost,
            lanes: 8,
        };
        let p = base(vec![mul_add(VAcc { imm: -1, reg: None })]);
        assert!(p.validate().unwrap_err().contains("bad slice range"));
        let p = base(vec![mul_add(VAcc { imm: 0, reg: Some(Reg(9)) })]);
        assert!(p.validate().unwrap_err().contains("outside the file"));

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
            acc_idx: VAcc { imm: 0, reg: None },
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
