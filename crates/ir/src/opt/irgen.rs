//! Seeded generator of structured random IR, shared by the differential
//! tests of the passes (`typing`'s reference comparison, `licm`'s and
//! `forward`'s translation validation and run parity).

use crate::buffer::{BufId, Buffer, BufferSet};
use crate::bytecode::Program;
use crate::expr::{BinOp, Expr, UnOp};
use crate::interp::ExecStats;
use crate::stmt::Stmt;
use crate::var::{Names, Var};
use crate::vm::Vm;

/// Run `p` under a statement budget (random `while` loops need not
/// terminate): the outcome, the buffers it left, the work it counted.
pub(crate) fn run_bounded(p: &Program, bufs: &BufferSet) -> (String, BufferSet, ExecStats) {
    let mut bufs = bufs.clone();
    let mut vm = Vm::new(p).with_step_budget(300);
    let outcome = format!("{:?}", vm.run(p, &mut bufs));
    (outcome, bufs, vm.stats())
}

/// Seeded generator of structured random IR for differential tests:
/// nested `for` / `while` / `if`, the stepper's guarded increments,
/// `coalesce` and missing paths, consecutive statements that reuse the
/// LIFO temps at conflicting types, and reads of variables no path (or
/// only some path) has bound.
/// Most draws are well typed, so that programs resemble generated
/// kernels (typed forms, pretags and the temp split all fire); the rest
/// ignore types altogether.
pub(crate) struct IrGen {
    rng: u64,
    /// One draw in this many ignores types.
    wild_one_in: usize,
    /// `ints`/`floats` are mostly assigned their kind; `wild` anything.
    ints: [Var; 3],
    floats: [Var; 3],
    wild: [Var; 2],
    loop_vars: [Var; 4],
    /// How many `for` loops enclose the statement being drawn: their
    /// variables, `loop_vars[..open_loops]`, are bound.
    open_loops: usize,
    f64s: [BufId; 2],
    i64s: [BufId; 2],
    flags: BufId,
}

impl IrGen {
    pub(crate) fn new(seed: u64) -> (IrGen, Names, BufferSet) {
        let mut names = Names::new();
        let mut bufs = BufferSet::new();
        let gen = IrGen {
            rng: seed,
            // Every fourth program is a wild one.
            wild_one_in: if seed.is_multiple_of(4) { 3 } else { 48 },
            ints: std::array::from_fn(|k| names.fresh(&format!("i{k}"))),
            floats: std::array::from_fn(|k| names.fresh(&format!("x{k}"))),
            wild: std::array::from_fn(|k| names.fresh(&format!("w{k}"))),
            loop_vars: std::array::from_fn(|k| names.fresh(&format!("k{k}"))),
            open_loops: 0,
            f64s: [
                bufs.add("val", Buffer::F64(vec![1.5, -2.0, 0.0, 4.25, 3.0, 0.5].into())),
                bufs.add("out", Buffer::F64(vec![0.0; 6].into())),
            ],
            i64s: [
                bufs.add("idx", Buffer::I64(vec![0, 1, 3, 4, 5, 9].into())),
                bufs.add("pos", Buffer::I64(vec![0].into())),
            ],
            flags: bufs.add("mask", Buffer::Bool(vec![true, false, true, true, false, true])),
        };
        (gen, names, bufs)
    }

    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy, const N: usize>(&mut self, from: [T; N]) -> T {
        from[self.below(N)]
    }

    fn any_var(&mut self) -> Var {
        match self.below(4) {
            0 => self.pick(self.ints),
            1 => self.pick(self.floats),
            2 => self.pick(self.wild),
            _ => self.pick(self.loop_vars),
        }
    }

    fn any_buf(&mut self) -> BufId {
        self.pick([self.f64s[0], self.f64s[1], self.i64s[0], self.i64s[1], self.flags])
    }

    fn int_expr(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 3 } else { 8 }) {
            0 => Expr::int(self.below(6) as i64),
            1 => Expr::Var(self.pick(self.ints)),
            // A loop variable: usually one in scope.
            2 if self.open_loops > 0 && !self.wild() => {
                Expr::Var(self.loop_vars[self.below(self.open_loops)])
            }
            2 if self.wild() => Expr::Var(self.pick(self.loop_vars)),
            2 => Expr::int(1),
            3 => Expr::load(self.pick(self.i64s), self.int_expr(depth - 1)),
            // A buffer's length, as the literal lowering knows it by.
            4 => Expr::int(self.pick([1, 6])),
            5 => {
                let op = self.pick([BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max]);
                Expr::binary(op, self.int_expr(depth - 1), self.int_expr(depth - 1))
            }
            6 => Expr::search(
                self.i64s[0],
                self.int_expr(depth - 1),
                self.int_expr(depth - 1),
                self.int_expr(depth - 1),
                self.below(2) == 0,
            ),
            _ => Expr::select(
                self.cond(depth - 1),
                self.int_expr(depth - 1),
                self.int_expr(depth - 1),
            ),
        }
    }

    fn float_expr(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 2 } else { 8 }) {
            0 => Expr::float(self.below(8) as f64 * 0.5 - 1.0),
            1 => Expr::Var(self.pick(self.floats)),
            2 => Expr::load(self.pick(self.f64s), self.int_expr(depth - 1)),
            3 => Expr::load(self.f64s[1], self.int_expr(depth - 1)),
            4 => {
                let op = self.pick([BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Max]);
                Expr::binary(op, self.float_expr(depth - 1), self.float_expr(depth - 1))
            }
            5 => {
                let op = self.pick([UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Round]);
                Expr::unary(op, self.float_expr(depth - 1))
            }
            // The `permit` shape: a load at a possibly-missing index,
            // with a fill value behind it.
            6 => Expr::coalesce(vec![
                Expr::load(self.f64s[0], self.maybe_missing_index(depth - 1)),
                self.float_expr(depth - 1),
            ]),
            _ => Expr::mul(Expr::load(self.f64s[0], self.int_expr(depth - 1)), Expr::float(2.0)),
        }
    }

    fn maybe_missing_index(&mut self, depth: u32) -> Expr {
        match self.below(3) {
            0 => Expr::missing(),
            1 => Expr::select(self.cond(depth), self.int_expr(depth), Expr::missing()),
            _ => self.int_expr(depth),
        }
    }

    fn cond(&mut self, depth: u32) -> Expr {
        let cmp = self.pick([BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge]);
        match self.below(if depth == 0 { 3 } else { 6 }) {
            0 => Expr::binary(cmp, self.int_expr(depth), Expr::int(self.below(5) as i64)),
            1 => Expr::binary(cmp, self.int_expr(depth), self.int_expr(depth)),
            2 => Expr::binary(cmp, self.float_expr(depth), self.float_expr(depth)),
            3 => Expr::load(self.flags, self.int_expr(depth - 1)),
            4 => {
                let op = self.pick([BinOp::And, BinOp::Or]);
                Expr::binary(op, self.cond(depth - 1), self.cond(depth - 1))
            }
            _ => Expr::unary(UnOp::Not, self.cond(depth - 1)),
        }
    }

    /// An expression drawn without regard to type.
    fn wild_expr(&mut self, depth: u32) -> Expr {
        match self.below(if depth == 0 { 5 } else { 12 }) {
            0 => Expr::int(self.below(6) as i64),
            1 => Expr::float(0.5),
            2 => Expr::bool(self.below(2) == 0),
            3 => Expr::missing(),
            4 => Expr::Var(self.any_var()),
            5 => Expr::load(self.any_buf(), self.wild_expr(depth - 1)),
            6 => {
                let op = self.pick([
                    BinOp::Add,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Min,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Eq,
                    BinOp::Lt,
                ]);
                Expr::binary(op, self.wild_expr(depth - 1), self.wild_expr(depth - 1))
            }
            7 => {
                let op = self.pick([UnOp::Neg, UnOp::Not, UnOp::Abs, UnOp::Sqrt, UnOp::Round]);
                Expr::unary(op, self.wild_expr(depth - 1))
            }
            8 => Expr::select(
                self.wild_expr(depth - 1),
                self.wild_expr(depth - 1),
                self.wild_expr(depth - 1),
            ),
            9 => {
                Expr::Coalesce((0..2 + self.below(2)).map(|_| self.wild_expr(depth - 1)).collect())
            }
            10 => self.int_expr(depth),
            _ => self.float_expr(depth),
        }
    }

    /// Whether to draw the next piece without regard to type.
    fn wild(&mut self) -> bool {
        self.below(self.wild_one_in) == 0
    }

    /// A variable to assign and a value for it, usually of its kind.
    fn assignment(&mut self, depth: u32) -> (Var, Expr) {
        if self.wild() {
            return (self.any_var(), self.wild_expr(depth));
        }
        match self.below(5) {
            0 | 1 => (self.pick(self.ints), self.int_expr(depth)),
            2 | 3 => (self.pick(self.floats), self.float_expr(depth)),
            _ => (self.pick(self.wild), self.wild_expr(depth)),
        }
    }

    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        (0..1 + self.below(4)).map(|_| self.stmt(depth)).collect()
    }

    /// A whole program: the typed variables bound to their kind up front
    /// — now and then on one path only, so that later reads may find
    /// them unset — then a few nests.
    pub(crate) fn program(&mut self) -> Vec<Stmt> {
        let mut prog = Vec::new();
        let typed = self.ints.map(|v| (v, true)).into_iter().chain(self.floats.map(|v| (v, false)));
        for (var, int) in typed {
            // Nothing is bound yet: initialise from literals and loads.
            let at = Expr::int(self.below(6) as i64);
            let init = match (int, self.below(2) == 0) {
                (true, true) => at,
                (true, false) => Expr::load(self.i64s[0], at),
                (false, true) => Expr::float(self.below(8) as f64 * 0.5),
                (false, false) => Expr::load(self.f64s[0], at),
            };
            let bind = Stmt::Let { var, init };
            prog.push(if self.below(8) == 0 {
                Stmt::if_then(Expr::load(self.flags, Expr::int(self.below(6) as i64)), vec![bind])
            } else {
                bind
            });
        }
        prog.extend((0..2 + self.below(3)).flat_map(|_| self.block(3)));
        prog
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        match self.below(if depth == 0 { 6 } else { 10 }) {
            0 => {
                let (var, init) = self.assignment(2);
                Stmt::Let { var, init }
            }
            1 => {
                let (var, value) = self.assignment(2);
                Stmt::Assign { var, value }
            }
            2 if self.wild() => Stmt::Store {
                buf: self.any_buf(),
                index: self.wild_expr(1),
                value: self.wild_expr(2),
                reduce: self.pick([None, Some(BinOp::Add), Some(BinOp::And)]),
            },
            2 => Stmt::Store {
                buf: self.f64s[1],
                index: self.int_expr(1),
                value: self.float_expr(2),
                reduce: self.pick([None, Some(BinOp::Add), Some(BinOp::Max)]),
            },
            3 if self.wild() => Stmt::Append { buf: self.any_buf(), value: self.wild_expr(1) },
            3 => match self.below(2) {
                0 => Stmt::Append { buf: self.i64s[1], value: self.int_expr(1) },
                _ => Stmt::Append { buf: self.f64s[1], value: self.float_expr(1) },
            },
            4 => match self.below(2) {
                0 => Stmt::FiberEnd { pos: self.i64s[1], data: self.f64s[1] },
                _ => Stmt::Comment("note".into()),
            },
            // The stepper's finger advance: `if idx == stop { p = p + 1 }`.
            5 => {
                let cmp = self.pick([BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le]);
                let (lhs, rhs, finger) =
                    (self.pick(self.ints), self.pick(self.ints), self.pick(self.ints));
                let by = Expr::int(1 + self.below(2) as i64);
                Stmt::if_then(
                    Expr::binary(cmp, Expr::Var(lhs), Expr::Var(rhs)),
                    vec![Stmt::Assign { var: finger, value: Expr::add(Expr::Var(finger), by) }],
                )
            }
            6 | 7 => Stmt::If {
                cond: if self.wild() { self.wild_expr(1) } else { self.cond(1) },
                then_branch: self.block(depth - 1),
                else_branch: if self.below(2) == 0 { self.block(depth - 1) } else { Vec::new() },
            },
            8 => Stmt::While { cond: self.cond(1), body: self.block(depth - 1) },
            _ => {
                // Nests are at most three deep: there is a variable left.
                let (lo, hi) = (self.int_expr(1), self.int_expr(1));
                let var = self.loop_vars[self.open_loops];
                self.open_loops += 1;
                let body = self.block(depth - 1);
                self.open_loops -= 1;
                Stmt::For { var, lo, hi, body }
            }
        }
    }
}
