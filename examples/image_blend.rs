//! Alpha blending over structured image formats (the paper's Figure 10) and
//! all-pairs image similarity (Figure 11).
//!
//! ```bash
//! cargo run --example image_blend
//! ```

use looplets_repro::baseline::datagen;
use looplets_repro::baseline::reference::eval;
use looplets_repro::finch::build::*;
use looplets_repro::finch::{CinExpr, CinStmt, Kernel, Tensor};

/// `A[i,j] = round(α·B[i,j] + β·C[i,j])` over the inputs named `b` and `c`.
fn blend(b: &str, c: &str, alpha: f64, beta: f64) -> CinStmt {
    let (i, j) = (idx("i"), idx("j"));
    forall(
        i.clone(),
        forall(
            j.clone(),
            assign(
                access("A", [i.clone(), j.clone()]),
                round_u8(add(
                    mul(lit(alpha), access(b, [i.clone(), j.clone()])),
                    mul(lit(beta), access(c, [i, j])),
                )),
            ),
        ),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size = 64;
    let fg = datagen::stroke_image(size, 3, 21);
    let bg = datagen::stroke_image(size, 2, 22);
    let (alpha, beta) = (0.7, 0.3);
    let program = blend("B", "Cimg", alpha, beta);

    println!("alpha blending {size}x{size} images (density {:.2})", datagen::density(&fg));
    println!("{:28} {:>14} {:>12}", "format", "total work", "max |err|");
    for (name, b, c) in [
        (
            "dense",
            Tensor::dense_matrix("B", size, size, &fg),
            Tensor::dense_matrix("Cimg", size, size, &bg),
        ),
        (
            "sparse list",
            Tensor::csr_matrix("B", size, size, &fg),
            Tensor::csr_matrix("Cimg", size, size, &bg),
        ),
        (
            "run-length",
            Tensor::rle_matrix("B", size, size, &fg),
            Tensor::rle_matrix("Cimg", size, size, &bg),
        ),
    ] {
        let mut kernel = Kernel::new();
        kernel.bind_input(&b).bind_input(&c).bind_output("A", &[size, size], 0.0);
        let mut k = kernel.compile(&program)?;
        let stats = k.run()?;
        let got = k.output("A").unwrap();
        let reference = eval(&program, &[&b, &c], &[("A", &[size, size], 0.0)])?.remove(0);
        let err = got.iter().zip(&reference).map(|(g, e)| (g - e).abs()).fold(0.0f64, f64::max);
        println!("{:28} {:>14} {:>12.2e}", name, stats.total_work(), err);
    }

    // --- all-pairs image similarity (Figure 11) -----------------------------
    let count = 8;
    let img = 16;
    let m = img * img;
    let batch = datagen::image_batch(count, img, 31, datagen::blob_image);
    let a = Tensor::vbl_matrix("A", count, m, &batch);
    let a2 = Tensor::vbl_matrix("A2", count, m, &batch);

    let mut kernel = Kernel::new();
    kernel
        .bind_input(&a)
        .bind_input(&a2)
        .bind_output("R", &[count], 0.0)
        .bind_output("O", &[count, count], 0.0)
        .bind_output_scalar("o");
    let (k, l, ij, ij2) = (idx("k"), idx("l"), idx("ij"), idx("ij2"));
    let squares = forall(
        k.clone(),
        forall(
            ij.clone(),
            add_assign(
                access("R", [k.clone()]),
                mul(access("A", [k.clone(), ij.clone()]), access("A", [k.clone(), ij])),
            ),
        ),
    );
    let pairwise = forall(
        k.clone(),
        forall(
            l.clone(),
            where_(
                assign(
                    access("O", [k.clone(), l.clone()]),
                    sqrt(add(
                        add(access("R", [k.clone()]), access("R", [l.clone()])),
                        mul(lit(-2.0), CinExpr::Access(scalar("o"))),
                    )),
                ),
                forall(
                    ij2.clone(),
                    add_assign(
                        scalar("o"),
                        mul(access("A", [k.clone(), ij2.clone()]), access("A2", [l.clone(), ij2])),
                    ),
                ),
            ),
        ),
    );
    let program = multi(vec![squares, pairwise]);
    let mut compiled = kernel.compile(&program)?;
    let stats = compiled.run()?;
    let got = compiled.output("O").unwrap();
    let outputs = [("R", &[count][..], 0.0), ("O", &[count, count], 0.0), ("o", &[], 0.0)];
    let expect = eval(&program, &[&a, &a2], &outputs)?.remove(1);
    let err = got.iter().zip(&expect).map(|(g, e)| (g - e).abs()).fold(0.0f64, f64::max);
    println!(
        "\nall-pairs similarity over {count} VBL images: total work {}, max |err| {err:.2e}",
        stats.total_work()
    );
    Ok(())
}
