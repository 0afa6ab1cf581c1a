//! Sparse-input convolution and concatenation built from index modifiers
//! (`permit`, `offset`) — the paper's §8 and Figure 9.
//!
//! ```bash
//! cargo run --example convolution
//! ```

use looplets_repro::baseline::datagen;
use looplets_repro::baseline::reference::eval;
use looplets_repro::finch::build::*;
use looplets_repro::finch::{CinExpr, Kernel, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- masked 2-D convolution over a sparse grid -------------------------
    let size = 64;
    let ksize = 3usize;
    let grid = datagen::sparse_grid(size, size, 0.05, 9);
    let filter: Vec<f64> = (0..ksize * ksize).map(|v| 1.0 + v as f64 * 0.1).collect();
    println!("grid {size}x{size}, density {:.3}", datagen::density(&grid));

    let a = Tensor::csr_matrix("A", size, size, &grid);
    let aw = Tensor::csr_matrix("Aw", size, size, &grid);
    let f = Tensor::dense_matrix("F", ksize, ksize, &filter);
    let mut kernel = Kernel::new();
    kernel.bind_input(&a).bind_input(&aw).bind_input(&f).bind_output("C", &[size, size], 0.0);

    let (i, k, j, l) = (idx("i"), idx("k"), idx("j"), idx("l"));
    let half = (ksize / 2) as i64;
    let row_index = j.walk().offset(sub(lit_int(half), CinExpr::Index(i.clone()))).permit();
    let col_index = l.walk().offset(sub(lit_int(half), CinExpr::Index(k.clone()))).permit();
    let program = forall(
        i.clone(),
        forall(
            k.clone(),
            forall_in(
                j.clone(),
                lit_int(0),
                lit_int(ksize as i64 - 1),
                forall_in(
                    l.clone(),
                    lit_int(0),
                    lit_int(ksize as i64 - 1),
                    add_assign(
                        access("C", [i.clone(), k.clone()]),
                        mul3(
                            nonzero_mask(access("A", [i.clone(), k.clone()])),
                            coalesce(vec![access("Aw", [row_index, col_index]).into(), lit(0.0)]),
                            access("F", [j, l]),
                        ),
                    ),
                ),
            ),
        ),
    );
    println!("\nconvolution kernel:\n  {program}\n");
    let mut compiled = kernel.compile(&program)?;
    let stats = compiled.run()?;
    let got = compiled.output("C").unwrap();
    let expect = eval(&program, &[&a, &aw, &f], &[("C", &[size, size], 0.0)])?.remove(0);
    let max_err = got.iter().zip(&expect).map(|(g, e)| (g - e).abs()).fold(0.0f64, f64::max);
    println!(
        "masked sparse convolution: total work {}, max |err| vs its dense meaning {max_err:.2e}",
        stats.total_work()
    );

    // --- concatenation ------------------------------------------------------
    let a1 = Tensor::sparse_list_vector("P", &[1.0, 0.0, 2.0, 0.0]);
    let a2 = Tensor::sparse_list_vector("Q", &[0.0, 7.0]);
    let total = 6usize;
    let mut kernel = Kernel::new();
    kernel.bind_input(&a1).bind_input(&a2).bind_output("R", &[total], 0.0);
    let i = idx("i");
    let concat = forall_in(
        i.clone(),
        lit_int(0),
        lit_int(total as i64 - 1),
        assign(
            access("R", [i.clone()]),
            coalesce(vec![
                access("P", [i.walk().permit()]).into(),
                access("Q", [i.walk().offset(lit_int(4)).permit()]).into(),
                lit(0.0),
            ]),
        ),
    );
    let mut compiled = kernel.compile(&concat)?;
    compiled.run()?;
    println!("\nconcatenation R = [P; Q] = {:?}", compiled.output("R").unwrap());
    Ok(())
}
