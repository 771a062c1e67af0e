//! Table schemas: column definitions, primary keys, secondary indexes.

use pyx_lang::fnv::fnv1a;
use pyx_lang::Scalar;

/// Column value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColTy {
    Int,
    Double,
    Bool,
    Str,
}

impl ColTy {
    /// Does `v` fit this column (NULL fits everything)?
    pub fn admits(self, v: &Scalar) -> bool {
        matches!(
            (self, v),
            (_, Scalar::Null)
                | (ColTy::Int, Scalar::Int(_))
                | (ColTy::Double, Scalar::Double(_))
                | (ColTy::Double, Scalar::Int(_)) // widening on insert
                | (ColTy::Bool, Scalar::Bool(_))
                | (ColTy::Str, Scalar::Str(_))
        )
    }
}

#[derive(Debug, Clone)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColTy,
}

impl ColumnDef {
    pub fn new(name: &str, ty: ColTy) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty,
        }
    }
}

/// A table definition. `pkey` lists column positions forming the primary
/// key (order matters — prefix range scans use it). `secondary` lists
/// single-column non-unique index definitions. `shard_key` optionally
/// names the column whose value routes each row to one of W engine shards
/// (H-Store style); a table without a shard key is replicated read-only to
/// every shard.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub cols: Vec<ColumnDef>,
    pub pkey: Vec<usize>,
    pub secondary: Vec<usize>,
    pub shard_key: Option<usize>,
}

impl TableDef {
    /// Builder-style constructor; panics on unknown column names (schema
    /// definitions are static program data, so this is a programmer error).
    pub fn new(name: &str, cols: Vec<ColumnDef>, pkey_names: &[&str]) -> Self {
        let pkey = pkey_names
            .iter()
            .map(|n| {
                cols.iter()
                    .position(|c| c.name == *n)
                    .unwrap_or_else(|| panic!("unknown pkey column `{n}` in table `{name}`"))
            })
            .collect();
        TableDef {
            name: name.to_string(),
            cols,
            pkey,
            secondary: Vec::new(),
            shard_key: None,
        }
    }

    /// Add a single-column secondary index.
    pub fn with_index(mut self, col: &str) -> Self {
        let idx = self
            .cols
            .iter()
            .position(|c| c.name == col)
            .unwrap_or_else(|| panic!("unknown index column `{col}` in `{}`", self.name));
        self.secondary.push(idx);
        self
    }

    /// Declare the column whose value partitions this table across engine
    /// shards. A loader routes each row to [`shard_of`]`(value, W)`; a
    /// table without a shard key is replicated to every shard.
    pub fn with_shard_key(mut self, col: &str) -> Self {
        let idx = self
            .cols
            .iter()
            .position(|c| c.name == col)
            .unwrap_or_else(|| panic!("unknown shard-key column `{col}` in `{}`", self.name));
        self.shard_key = Some(idx);
        self
    }

    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    /// Extract the primary key of a full row.
    pub fn key_of(&self, row: &[Scalar]) -> Vec<Scalar> {
        self.pkey.iter().map(|&i| row[i].clone()).collect()
    }

    /// Which of `shards` engine shards owns `row`? `None` when the table
    /// has no shard key (the row is replicated to every shard).
    pub fn shard_of_row(&self, row: &[Scalar], shards: usize) -> Option<usize> {
        self.shard_key.map(|c| shard_of(&row[c], shards))
    }
}

/// The canonical shard-key → shard mapping, shared by loaders, the
/// request router, and cross-shard statement routing: every component that
/// places or finds a row MUST agree on this function. Integer keys (the
/// common case — TPC-C warehouse ids, micro-bench keys) spread by
/// `rem_euclid`; other scalar types hash their canonical bits through
/// FNV-1a so the mapping is total and deterministic across platforms.
///
/// The mapping must be constant on the engine's key-equality classes
/// ([`Scalar::total_cmp`] equality, which deliberately makes `Int(1)`
/// equal `Double(1.0)` — see the index `Key` semantics): an integral
/// in-range `Double` therefore routes exactly like the equal `Int`, or
/// an equality predicate bound to a `Double` parameter would probe a
/// different shard than the one the loader placed the row on.
pub fn shard_of(key: &Scalar, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let n = shards as u64;
    let int_route = |v: i64| v.rem_euclid(shards as i64) as usize;
    let h = match key {
        Scalar::Int(v) => return int_route(*v),
        Scalar::Null => 0u64,
        Scalar::Bool(b) => 1 + *b as u64,
        Scalar::Double(d) => {
            // Integral doubles inside ±2^53 — the domain where i64 ↔ f64
            // conversion is exact and injective, i.e. where mixed
            // Int/Double key equality is actually well defined — route
            // with their Int equal. (Beyond 2^53 the engine's mixed
            // comparison is already lossy, so shard keys there must be
            // used with one consistent scalar type.)
            const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
            if d.trunc() == *d && (-EXACT..=EXACT).contains(d) {
                return int_route(*d as i64);
            }
            fnv1a(&d.to_bits().to_le_bytes())
        }
        Scalar::Str(s) => fnv1a(s.as_bytes()),
    };
    (h % n) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableDef {
        TableDef::new(
            "district",
            vec![
                ColumnDef::new("d_w_id", ColTy::Int),
                ColumnDef::new("d_id", ColTy::Int),
                ColumnDef::new("d_tax", ColTy::Double),
                ColumnDef::new("d_name", ColTy::Str),
            ],
            &["d_w_id", "d_id"],
        )
        .with_index("d_name")
    }

    #[test]
    fn composite_pkey_positions() {
        let t = sample();
        assert_eq!(t.pkey, vec![0, 1]);
        assert_eq!(t.secondary, vec![3]);
    }

    #[test]
    fn key_extraction() {
        let t = sample();
        let row = vec![
            Scalar::Int(1),
            Scalar::Int(7),
            Scalar::Double(0.1),
            Scalar::Str("d7".into()),
        ];
        assert_eq!(t.key_of(&row), vec![Scalar::Int(1), Scalar::Int(7)]);
    }

    #[test]
    fn colty_admits() {
        assert!(ColTy::Int.admits(&Scalar::Int(3)));
        assert!(ColTy::Double.admits(&Scalar::Int(3)));
        assert!(!ColTy::Int.admits(&Scalar::Double(3.0)));
        assert!(ColTy::Str.admits(&Scalar::Null));
    }

    #[test]
    #[should_panic(expected = "unknown pkey column")]
    fn unknown_pkey_panics() {
        TableDef::new("t", vec![ColumnDef::new("a", ColTy::Int)], &["b"]);
    }
}
