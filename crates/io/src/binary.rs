//! Binary matrix serialization — the `.grb`-style fast format LAGraph
//! pairs with Matrix Market for large graphs. The layout is the exported
//! CSR arrays with a small header, so a load is one read plus an O(1)
//! import (§IV): no parsing, no re-sorting.
//!
//! Layout (all integers little-endian u64):
//!
//! ```text
//! magic "LAGRBIN1" | type-name len + bytes | nrows | ncols | nvals
//! | ptr[nrows+1] | idx[nvals] | val[nvals] (8 bytes each, to_f64 bits)
//! ```
//!
//! Values travel as `f64` bit patterns via the `Scalar` casts, which is
//! lossless for every built-in type up to 52-bit integers (documented
//! limitation for larger `u64`/`i64` payloads).
//!
//! # The `.lagc` compressed container
//!
//! [`write_lagc`]/[`read_lagc`] wrap the second on-disk format: the
//! gap-encoded compressed storage form serialized section-by-section
//! (magic `LAGC0001`, fixed header, Elias-Fano indexes, γ/δ gap stream,
//! value plane — see `graphblas::compressed` for the exact layout). The
//! payoff over `LAGRBIN1` is on the *read* side: a load memory-maps the
//! file and publishes the sections zero-copy, so a service replica
//! starts in O(1) in the edge count instead of paying a full parse and
//! assembly, and the in-memory footprint equals the compressed file
//! size. Truncated or type-mismatched files are rejected from the
//! header alone; `read_lagc(path, true)` also verifies the whole-file
//! checksum before trusting the mapping.

use std::io::{Read, Write};
use std::path::Path;

use graphblas::{Error, Index, Matrix, Result, Scalar};

const MAGIC: &[u8; 8] = b"LAGRBIN1";

/// Largest up-front reservation a header count may request. The counts
/// are untrusted, so the arrays grow past this only as entries actually
/// arrive: a hostile count fails on the short read instead of aborting
/// the process on a huge allocation.
const RESERVE_CAP: usize = 1 << 16;

fn io_err(e: std::io::Error) -> Error {
    Error::invalid(format!("binary I/O error: {e}"))
}

fn write_u64(w: &mut impl Write, x: u64) -> Result<()> {
    w.write_all(&x.to_le_bytes()).map_err(io_err)
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(u64::from_le_bytes(buf))
}

/// Serialize a matrix. Consumes only a clone's arrays (the input is
/// untouched).
pub fn write_binary<T: Scalar>(m: &Matrix<T>, mut w: impl Write) -> Result<()> {
    let (nrows, ncols, ptr, idx, val) = m.clone().export_csr();
    w.write_all(MAGIC).map_err(io_err)?;
    let name = T::NAME.as_bytes();
    write_u64(&mut w, name.len() as u64)?;
    w.write_all(name).map_err(io_err)?;
    write_u64(&mut w, nrows as u64)?;
    write_u64(&mut w, ncols as u64)?;
    write_u64(&mut w, idx.len() as u64)?;
    for p in &ptr {
        write_u64(&mut w, *p as u64)?;
    }
    for i in &idx {
        write_u64(&mut w, *i as u64)?;
    }
    for x in &val {
        write_u64(&mut w, x.to_f64().to_bits())?;
    }
    Ok(())
}

/// Deserialize a matrix written by [`write_binary`]. The stored type name
/// must match `T`.
pub fn read_binary<T: Scalar>(mut r: impl Read) -> Result<Matrix<T>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(Error::invalid("not a LAGRBIN1 file"));
    }
    let name_len = read_u64(&mut r)? as usize;
    if name_len > 64 {
        return Err(Error::invalid("corrupt type name"));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name).map_err(io_err)?;
    if name != T::NAME.as_bytes() {
        return Err(Error::invalid(format!(
            "type mismatch: file holds {}, requested {}",
            String::from_utf8_lossy(&name),
            T::NAME
        )));
    }
    let nrows = read_u64(&mut r)? as Index;
    let ncols = read_u64(&mut r)? as Index;
    let nvals = read_u64(&mut r)? as usize;
    let nptr = nrows.checked_add(1).ok_or_else(|| Error::invalid("corrupt row count"))?;
    let mut ptr = Vec::with_capacity(nptr.min(RESERVE_CAP));
    for _ in 0..nptr {
        ptr.push(read_u64(&mut r)? as usize);
    }
    let mut idx = Vec::with_capacity(nvals.min(RESERVE_CAP));
    for _ in 0..nvals {
        idx.push(read_u64(&mut r)? as Index);
    }
    let mut val = Vec::with_capacity(nvals.min(RESERVE_CAP));
    for _ in 0..nvals {
        val.push(T::from_f64(f64::from_bits(read_u64(&mut r)?)));
    }
    Matrix::import_csr(nrows, ncols, ptr, idx, val)
}

/// Serialize a matrix into the compressed `.lagc` container. The matrix
/// is encoded (or its existing compressed form streamed) without being
/// consumed; values that don't survive the codec's exact `f64`
/// round-trip are an error rather than a silent loss.
pub fn write_lagc<T: Scalar>(m: &Matrix<T>, path: &Path) -> Result<()> {
    m.write_lagc(path).map_err(io_err)
}

/// Load a `.lagc` container, memory-mapping the heavy sections: O(1) in
/// the edge count, and the matrix stays in the compressed storage form.
/// `verify` adds a whole-file checksum pass before the mapping is
/// trusted (recommended for files that crossed a network).
pub fn read_lagc<T: Scalar>(path: &Path, verify: bool) -> Result<Matrix<T>> {
    Matrix::read_lagc(path, verify).map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f64() {
        let m =
            Matrix::from_tuples(5, 7, vec![(0, 6, 1.25), (4, 0, -2.5), (2, 3, 1e-30)], |_, b| b)
                .expect("build");
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).expect("write");
        let back: Matrix<f64> = read_binary(&buf[..]).expect("read");
        assert_eq!(back.extract_tuples(), m.extract_tuples());
        assert_eq!((back.nrows(), back.ncols()), (5, 7));
    }

    #[test]
    fn round_trip_bool_and_i32() {
        let b =
            Matrix::from_tuples(2, 2, vec![(0, 1, true), (1, 0, false)], |_, x| x).expect("build");
        let mut buf = Vec::new();
        write_binary(&b, &mut buf).expect("write");
        let back: Matrix<bool> = read_binary(&buf[..]).expect("read");
        assert_eq!(back.extract_tuples(), b.extract_tuples());

        let i = Matrix::from_tuples(3, 3, vec![(2, 2, -7i32)], |_, x| x).expect("build");
        let mut buf = Vec::new();
        write_binary(&i, &mut buf).expect("write");
        let back: Matrix<i32> = read_binary(&buf[..]).expect("read");
        assert_eq!(back.get(2, 2), Some(-7));
    }

    #[test]
    fn type_mismatch_rejected() {
        let m = Matrix::from_tuples(2, 2, vec![(0, 0, 1.0f64)], |_, b| b).expect("build");
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).expect("write");
        assert!(read_binary::<i32>(&buf[..]).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(read_binary::<f64>(&b"not a file"[..]).is_err());
        assert!(read_binary::<f64>(&b"LAGRBIN1\xff\xff\xff\xff\xff\xff\xff\xff"[..]).is_err());
    }

    /// A valid `f64` header with the given counts, followed by `body`.
    fn header(nrows: u64, ncols: u64, nvals: u64, body: &[u64]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        let name = f64::NAME.as_bytes();
        buf.extend((name.len() as u64).to_le_bytes());
        buf.extend(name);
        for x in [nrows, ncols, nvals].iter().chain(body) {
            buf.extend(x.to_le_bytes());
        }
        buf
    }

    #[test]
    fn hostile_nvals_is_an_error_not_an_abort() {
        // A well-formed empty row pointer, then a claim of 2^58 entries.
        let buf = header(4, 4, 1 << 58, &[0; 5]);
        assert!(read_binary::<f64>(&buf[..]).is_err());
    }

    #[test]
    fn hostile_nrows_is_an_error_not_an_abort() {
        assert!(read_binary::<f64>(&header(1 << 50, 4, 0, &[])[..]).is_err());
        assert!(read_binary::<f64>(&header(u64::MAX, 4, 0, &[])[..]).is_err());
    }

    #[test]
    fn truncated_body_rejected() {
        let m = Matrix::from_tuples(8, 8, vec![(0, 1, 1.0), (5, 7, 2.0)], |_, b| b).expect("m");
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).expect("write");
        assert!(read_binary::<f64>(&buf[..]).is_ok());
        for cut in [1, 8, 9, 8 * 3] {
            assert!(read_binary::<f64>(&buf[..buf.len() - cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn lagc_round_trip_preserves_tuples_and_stays_compressed() {
        let dir = std::env::temp_dir().join(format!("lagc_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("roundtrip.lagc");
        let tuples: Vec<(usize, usize, f64)> =
            (0..500).map(|k| ((k * 7) % 40, (k * 13) % 60, (k % 9) as f64)).collect();
        let m = Matrix::from_tuples(40, 60, tuples, |_, b| b).expect("build");
        write_lagc(&m, &path).expect("write");
        let back: Matrix<f64> = read_lagc(&path, true).expect("read");
        assert_eq!(back.extract_tuples(), m.extract_tuples());
        assert!(back.is_compressed(), "lagc load should publish the compressed form");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lagc_rejects_truncation() {
        let dir = std::env::temp_dir().join(format!("lagc_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("trunc.lagc");
        let m = Matrix::from_tuples(8, 8, vec![(0, 1, 1.0), (5, 7, 2.0)], |_, b| b).expect("m");
        write_lagc(&m, &path).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() - 4]).expect("truncate");
        assert!(read_lagc::<f64>(&path, false).is_err(), "truncated file must be rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = Matrix::<f64>::new(4, 4).expect("new");
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).expect("write");
        let back: Matrix<f64> = read_binary(&buf[..]).expect("read");
        assert_eq!(back.nvals(), 0);
        assert_eq!(back.nrows(), 4);
    }
}
