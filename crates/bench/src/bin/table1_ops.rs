//! Table I regeneration: exercise every fundamental GraphBLAS operation
//! of the paper's Table I (plus the `select`/`kronecker` extensions) on
//! random inputs and verify each against the dense reference mimic,
//! printing the operation table with its mathematical description and
//! conformance status.
//!
//! Run with: `cargo run --release -p lagraph-bench --bin table1_ops`

use graphblas::mimic::{self, DMat, DVec};
use graphblas::prelude::*;
use graphblas::semiring::PLUS_TIMES;
use lagraph::gen::random_matrix;

fn check(name: &str, math: &str, ok: bool) {
    println!("  {:<12} {:<28} {}", name, math, if ok { "conforms" } else { "MISMATCH" });
    assert!(ok, "operation {name} diverged from the reference mimic");
}

fn main() -> graphblas::Result<()> {
    println!("Table I: the fundamental GraphBLAS operations");
    println!("(each checked against the dense reference mimic on random inputs)\n");
    println!("  {:<12} {:<28} status", "operation", "mathematical form");

    let n = 32;
    let af = random_matrix(n, n, 150, 1)?;
    let bf = random_matrix(n, n, 150, 2)?;
    let a = {
        let mut m = Matrix::<i64>::new(n, n)?;
        apply_matrix(&mut m, None, NOACC, |x: f64| (x * 8.0) as i64, &af, &Descriptor::default())?;
        m
    };
    let b = {
        let mut m = Matrix::<i64>::new(n, n)?;
        apply_matrix(&mut m, None, NOACC, |x: f64| (x * 8.0) as i64, &bf, &Descriptor::default())?;
        m
    };
    let u = Vector::from_tuples(n, (0..12).map(|k| (k * 2, k as i64 - 6)).collect(), |_, x| x)?;
    let v = Vector::from_tuples(n, (0..9).map(|k| (k * 3, k as i64)).collect(), |_, x| x)?;
    let da = DMat::from_matrix(&a);
    let db = DMat::from_matrix(&b);
    let du = DVec::from_vector(&u);
    let dv = DVec::from_vector(&v);
    let d = Descriptor::default();

    // mxm
    let mut c = Matrix::<i64>::new(n, n)?;
    mxm(&mut c, None, NOACC, &PLUS_TIMES, &a, &b, &d)?;
    let want = mimic::mxm(&DMat::new(n, n), None, &NOACC, &PLUS_TIMES, &da, &db, &d);
    check("mxm", "C ⊙= A ⊕.⊗ B", c.extract_tuples() == want.to_matrix().extract_tuples());

    // mxv
    let mut w = Vector::<i64>::new(n)?;
    mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &d)?;
    let want = mimic::mxv(&DVec::new(n), None, &NOACC, &PLUS_TIMES, &da, &du, &d);
    check("mxv", "w ⊙= A ⊕.⊗ u", w.extract_tuples() == want.to_vector().extract_tuples());

    // vxm
    let mut w = Vector::<i64>::new(n)?;
    vxm(&mut w, None, NOACC, &PLUS_TIMES, &u, &a, &d)?;
    let want = mimic::vxm(&DVec::new(n), None, &NOACC, &PLUS_TIMES, &du, &da, &d);
    check("vxm", "wᵀ ⊙= uᵀ ⊕.⊗ A", w.extract_tuples() == want.to_vector().extract_tuples());

    // eWiseMult
    let mut w = Vector::<i64>::new(n)?;
    ewise_mult(&mut w, None, NOACC, binaryop::Times, &u, &v, &d)?;
    let want = mimic::ewise_mult_vec(&DVec::new(n), None, &NOACC, &binaryop::Times, &du, &dv, &d);
    check(
        "eWiseMult",
        "C ⊙= A ⊗ B (intersection)",
        w.extract_tuples() == want.to_vector().extract_tuples(),
    );

    // eWiseAdd
    let mut w = Vector::<i64>::new(n)?;
    ewise_add(&mut w, None, NOACC, binaryop::Plus, &u, &v, &d)?;
    let want = mimic::ewise_add_vec(&DVec::new(n), None, &NOACC, &binaryop::Plus, &du, &dv, &d);
    check(
        "eWiseAdd",
        "C ⊙= A ⊕ B (union)",
        w.extract_tuples() == want.to_vector().extract_tuples(),
    );

    // reduce (row)
    let mut w = Vector::<i64>::new(n)?;
    reduce_matrix(&mut w, None, NOACC, &binaryop::Plus, &a, &d)?;
    let want = mimic::reduce_mat_to_vec(&DVec::new(n), None, &NOACC, &binaryop::Plus, &da, &d);
    check("reduce", "w ⊙= ⊕ⱼ A(:, j)", w.extract_tuples() == want.to_vector().extract_tuples());

    // apply
    let mut w = Vector::<i64>::new(n)?;
    apply(&mut w, None, NOACC, unaryop::Ainv, &u, &d)?;
    let want = mimic::apply_vec(&DVec::new(n), None, &NOACC, &unaryop::Ainv, &du, &d);
    check("apply", "C ⊙= f(A)", w.extract_tuples() == want.to_vector().extract_tuples());

    // transpose
    let t = transpose_new(&a)?;
    check(
        "transpose",
        "C ⊙= Aᵀ",
        t.extract_tuples() == da.transpose().to_matrix().extract_tuples(),
    );

    // extract
    let rows: Vec<Index> = (0..n / 2).collect();
    let cols: Vec<Index> = (n / 2..n).collect();
    let mut sub = Matrix::<i64>::new(rows.len(), cols.len())?;
    extract_matrix(
        &mut sub,
        None,
        NOACC,
        &a,
        &IndexSel::List(rows.clone()),
        &IndexSel::List(cols.clone()),
        &d,
    )?;
    let ok = sub.iter().all(|(i, j, x)| a.get(rows[i], cols[j]) == Some(x))
        && a.iter().filter(|&(i, j, _)| i < n / 2 && j >= n / 2).count() == sub.nvals();
    check("extract", "C ⊙= A(i, j)", ok);

    // assign
    let mut target = a.clone();
    assign_matrix(
        &mut target,
        None,
        NOACC,
        &sub,
        &IndexSel::List(rows.clone()),
        &IndexSel::List(cols.clone()),
        &d,
    )?;
    let ok = target.extract_tuples() == a.extract_tuples();
    check("assign", "C(i, j) ⊙= A", ok);

    // select (extension)
    let mut lower = Matrix::<i64>::new(n, n)?;
    select_matrix(&mut lower, None, NOACC, unaryop::StrictLower, &a, &d)?;
    let want = mimic::select_mat(&DMat::new(n, n), None, &NOACC, &unaryop::StrictLower, &da, &d);
    check(
        "select",
        "C ⊙= select(A, pred)",
        lower.extract_tuples() == want.to_matrix().extract_tuples(),
    );

    // kronecker (extension)
    let small = Matrix::from_tuples(2, 2, vec![(0, 0, 2i64), (1, 1, 3)], |_, x| x)?;
    let mut kr = Matrix::<i64>::new(4, 4)?;
    kronecker(&mut kr, None, NOACC, binaryop::Times, &small, &small, &d)?;
    let ok = kr.extract_tuples() == vec![(0, 0, 4), (1, 1, 6), (2, 2, 6), (3, 3, 9)];
    check("kronecker", "C ⊙= kron(A, B)", ok);

    println!("\nAll Table I operations conform to the reference semantics.");
    Ok(())
}
