//! # lagraph-suite — the LAGraph reproduction, end to end
//!
//! Umbrella crate re-exporting the three layers of the system described
//! in the paper's Fig. 1:
//!
//! * [`graphblas`] — the sparse-linear-algebra substrate (the GraphBLAS);
//! * [`lagraph`] — the collection of graph algorithms built on top of it;
//! * [`lagraph_io`] — I/O support utilities (graph generators live in
//!   `lagraph::gen`).
//!
//! ```
//! use lagraph_suite::prelude::*;
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], GraphKind::Undirected)
//!     .expect("valid graph");
//! let levels = bfs_level(&g, 0).expect("bfs");
//! assert_eq!(levels.get(3), Some(4));
//! ```

pub use graphblas;
pub use lagraph;
pub use lagraph_io;

/// One-stop imports for applications.
pub mod prelude {
    pub use graphblas::prelude::*;
    pub use lagraph::algorithms::*;
    pub use lagraph::graph::{Graph, GraphKind};
    pub use lagraph_io::*;
}
