//! Virtual CPU cost model.
//!
//! The simulator charges each operation's cost (in abstract "instructions")
//! to the executing server's cores. The constants are calibrated so that a
//! TPC-C point query costs roughly 50 µs of server CPU at the simulator's
//! default instruction rate — in line with an in-memory MySQL point select.

/// Fixed per-statement overhead: parse/plan/dispatch.
pub const STMT_BASE: u64 = 20_000;

/// Per B-tree level traversal.
pub const BTREE_STEP: u64 = 600;

/// Per row read out of a table.
pub const ROW_READ: u64 = 1_500;

/// Per row written (insert/update/delete), including index maintenance.
pub const ROW_WRITE: u64 = 4_000;

/// Per row examined during a scan that does not match.
pub const ROW_SCAN: u64 = 300;

/// Per row sorted (ORDER BY), charged n·log n over every match. The
/// charge models the simulated server's full sort and is kept that way on
/// purpose, even though the executor sorts only the kept rows under
/// LIMIT: the simulator's prices and the profiler's inputs stay put.
pub const ROW_SORT: u64 = 400;

/// Per lock table operation.
pub const LOCK_OP: u64 = 400;

/// Commit/abort bookkeeping.
pub const TXN_END: u64 = 10_000;

/// Estimated B-tree depth for a table of `n` rows (fanout 64).
pub fn btree_depth(n: usize) -> u64 {
    let mut depth = 1u64;
    let mut cap = 64usize;
    while cap < n.max(1) {
        depth += 1;
        cap = cap.saturating_mul(64);
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btree_depth_grows_logarithmically() {
        assert_eq!(btree_depth(1), 1);
        assert_eq!(btree_depth(64), 1);
        assert_eq!(btree_depth(65), 2);
        assert_eq!(btree_depth(4096), 2);
        assert_eq!(btree_depth(100_000), 3);
    }
}
