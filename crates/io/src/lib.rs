//! # lagraph-io — LAGraph support utilities
//!
//! The I/O support libraries §VI of the paper calls for alongside the
//! algorithm collection:
//!
//! * [`mm`] — Matrix Market I/O (the format LAGraph standardizes on),
//! * [`binary`] — a fast binary matrix format built on the O(1)
//!   import/export of §IV,
//! * [`loc`] — a `cloc`-equivalent line counter used to regenerate the
//!   paper's Table II.
//!
//! Synthetic graph generators live in `lagraph::gen`.

#![warn(missing_docs)]

pub mod binary;
pub mod loc;
pub mod mm;

pub use binary::{read_binary, write_binary};
pub use loc::{count_fn_loc, count_rust_loc};
pub use mm::{read_matrix_market, write_matrix_market, MmField, MmSymmetry};
