//! Virtual CPU cost of VM execution, in the same abstract "instruction"
//! units as `pyx_db::cost`.
//!
//! The paper measures a ~6× overhead for Pyxis-managed execution versus
//! native Java (§7.3) because every heap and stack access goes through the
//! managed representations. We reproduce that ratio structurally: a block
//! instruction costs [`INSTR`] while the reference interpreter charges
//! [`NATIVE_STMT`] per statement (microbenchmark 1 measures the realized
//! ratio).

/// One block instruction (managed stack/heap access + dispatch).
pub const INSTR: u64 = 1800;

/// Recording one sync operation into the outgoing batch.
pub const SYNC: u64 = 400;

/// Terminator processing (incl. the continuation-style block return).
pub const TERM: u64 = 700;

/// Fixed overhead on entering a block (runtime regains control).
pub const BLOCK_ENTRY: u64 = 500;

/// One `sha1` builtin call.
pub const SHA1: u64 = 12_000;

/// Equivalent cost of one *natively interpreted* statement (the baseline
/// for microbenchmark 1).
pub const NATIVE_STMT: u64 = 300;

/// Serialization cost per transferred KB.
pub const PER_KB_SERIALIZE: u64 = 2_000;

/// Serialization CPU for a `bytes`-sized control transfer: charged per
/// started KB, rounding *up* — a 0-byte frame costs nothing, a 1000-byte
/// frame costs exactly one KB unit, 1001 bytes costs two.
pub fn serialize_cost(bytes: u64) -> u64 {
    PER_KB_SERIALIZE * bytes.div_ceil(1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn managed_overhead_is_about_six_x() {
        let ratio = INSTR as f64 / NATIVE_STMT as f64;
        assert!(ratio > 4.0 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    fn serialize_cost_rounds_up_at_exact_kb_boundaries() {
        // No charge for an empty frame; one unit up to exactly 1 KB; a
        // single extra byte starts the next KB.
        assert_eq!(serialize_cost(0), 0);
        assert_eq!(serialize_cost(1), 2_000);
        assert_eq!(serialize_cost(999), 2_000);
        assert_eq!(serialize_cost(1_000), 2_000);
        assert_eq!(serialize_cost(1_001), 4_000);
        assert_eq!(serialize_cost(2_000), 4_000);
        assert_eq!(serialize_cost(2_001), 6_000);
    }
}
