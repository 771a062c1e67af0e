//! TPC-C new-order in PyxLang (§7.1).
//!
//! The paper's TPC-C experiments drive the new-order transaction with 20
//! warehouses, 20 clients, and 10% programmed rollbacks. The transaction
//! below follows the TPC-C specification's data accesses: warehouse tax,
//! district tax + order-id allocation (the contended row — we update
//! *before* reading to take the exclusive lock first), customer discount,
//! order/new-order inserts, and per-line item price, stock update, and
//! order-line insert. Rollbacks use the spec's "unused item id" trick: the
//! generator plants an invalid (negative) item id in 10% of orders and the
//! transaction calls `rollback()` when it sees it.

use pyx_db::{ColTy, ColumnDef, Engine, Scalar, TableDef};
use pyx_lang::fnv::{fnv1a, fnv1a_cont, FNV_OFFSET};
use pyx_lang::MethodId;
use pyx_runtime::ArgVal;
use pyx_sim::{TxnRequest, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The new-order transaction.
pub const SRC: &str = r#"
    class NewOrder {
        double run(int wId, int dId, int cId, int[] itemIds, int[] qtys) {
            row[] wr = dbQuery("SELECT w_tax FROM warehouse WHERE w_id = ?", wId);
            double wTax = wr[0].getDouble(0);
            // Take the district X lock first, then read the allocated id.
            dbUpdate("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?", wId, dId);
            row[] dr = dbQuery("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", wId, dId);
            double dTax = dr[0].getDouble(0);
            int oId = dr[0].getInt(1) - 1;
            row[] cr = dbQuery("SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", wId, dId, cId);
            double cDisc = cr[0].getDouble(0);
            dbUpdate("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", wId, dId, oId, cId, itemIds.length);
            dbUpdate("INSERT INTO new_order VALUES (?, ?, ?)", wId, dId, oId);
            double total = 0.0;
            int ol = 0;
            for (int iid : itemIds) {
                if (iid < 0) {
                    // TPC-C programmed rollback: unused item number.
                    rollback();
                    return 0.0 - 1.0;
                }
                row[] ir = dbQuery("SELECT i_price FROM item WHERE i_id = ?", iid);
                double price = ir[0].getDouble(0);
                row[] sr = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", wId, iid);
                int sq = sr[0].getInt(0);
                int qty = qtys[ol];
                int newQ = sq - qty;
                if (newQ < 10) { newQ = newQ + 91; }
                dbUpdate("UPDATE stock SET s_quantity = ? WHERE s_w_id = ? AND s_i_id = ?", newQ, wId, iid);
                double amount = price * toDouble(qty);
                dbUpdate("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)", wId, dId, oId, ol, iid, qty, amount);
                total = total + amount;
                ol = ol + 1;
            }
            total = total * (1.0 + wTax + dTax) * (1.0 - cDisc);
            return total;
        }
    }
"#;

/// New-order with per-line supply warehouses plus a payment transaction —
/// the TPC-C *remote-warehouse* shapes. In `remoteOrder` each order line
/// names its own supply warehouse (`supplyWs[ol]`): stock reads and
/// updates go to that warehouse while district/customer/order rows stay
/// home, so a line with a remote supplier makes the transaction
/// cross-shard. `pay` reads the home warehouse and settles a (possibly
/// remote) customer's balance — the spec's 15%-remote payment, reduced to
/// the columns this schema carries.
pub const REMOTE_SRC: &str = r#"
    class RemoteOrder {
        double remoteOrder(int wId, int dId, int cId, int[] itemIds, int[] supplyWs, int[] qtys) {
            row[] wr = dbQuery("SELECT w_tax FROM warehouse WHERE w_id = ?", wId);
            double wTax = wr[0].getDouble(0);
            dbUpdate("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?", wId, dId);
            row[] dr = dbQuery("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", wId, dId);
            double dTax = dr[0].getDouble(0);
            int oId = dr[0].getInt(1) - 1;
            row[] cr = dbQuery("SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", wId, dId, cId);
            double cDisc = cr[0].getDouble(0);
            dbUpdate("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", wId, dId, oId, cId, itemIds.length);
            dbUpdate("INSERT INTO new_order VALUES (?, ?, ?)", wId, dId, oId);
            double total = 0.0;
            int ol = 0;
            for (int iid : itemIds) {
                if (iid < 0) {
                    rollback();
                    return 0.0 - 1.0;
                }
                int sw = supplyWs[ol];
                row[] ir = dbQuery("SELECT i_price FROM item WHERE i_id = ?", iid);
                double price = ir[0].getDouble(0);
                row[] sr = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", sw, iid);
                int sq = sr[0].getInt(0);
                int qty = qtys[ol];
                int newQ = sq - qty;
                if (newQ < 10) { newQ = newQ + 91; }
                dbUpdate("UPDATE stock SET s_quantity = ? WHERE s_w_id = ? AND s_i_id = ?", newQ, sw, iid);
                double amount = price * toDouble(qty);
                dbUpdate("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)", wId, dId, oId, ol, iid, qty, amount);
                total = total + amount;
                ol = ol + 1;
            }
            total = total * (1.0 + wTax + dTax) * (1.0 - cDisc);
            return total;
        }

        double pay(int wId, int cWId, int cDId, int cId, double amount) {
            row[] wr = dbQuery("SELECT w_tax FROM warehouse WHERE w_id = ?", wId);
            double wTax = wr[0].getDouble(0);
            dbUpdate("UPDATE customer SET c_balance = c_balance + ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", amount, cWId, cDId, cId);
            row[] cr = dbQuery("SELECT c_balance FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", cWId, cDId, cId);
            return cr[0].getDouble(0) + wTax * 0.0;
        }
    }
"#;

/// The program the `dbhost` binary serves: new-order plus a
/// warehouse-to-warehouse stock `transfer`, which is cross-shard when the
/// two warehouses live on different shards. The DB host and the process
/// driving it both compile this text, so their entry-point ids line up
/// and nothing compiled crosses the wire.
pub const HOST_SRC: &str = r#"
    class Host {
        double newOrder(int wId, int dId, int cId, int[] itemIds, int[] qtys) {
            row[] wr = dbQuery("SELECT w_tax FROM warehouse WHERE w_id = ?", wId);
            double wTax = wr[0].getDouble(0);
            dbUpdate("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?", wId, dId);
            row[] dr = dbQuery("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", wId, dId);
            double dTax = dr[0].getDouble(0);
            int oId = dr[0].getInt(1) - 1;
            row[] cr = dbQuery("SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", wId, dId, cId);
            double cDisc = cr[0].getDouble(0);
            dbUpdate("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", wId, dId, oId, cId, itemIds.length);
            dbUpdate("INSERT INTO new_order VALUES (?, ?, ?)", wId, dId, oId);
            double total = 0.0;
            int ol = 0;
            for (int iid : itemIds) {
                if (iid < 0) {
                    rollback();
                    return 0.0 - 1.0;
                }
                row[] ir = dbQuery("SELECT i_price FROM item WHERE i_id = ?", iid);
                double price = ir[0].getDouble(0);
                row[] sr = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", wId, iid);
                int sq = sr[0].getInt(0);
                int qty = qtys[ol];
                int newQ = sq - qty;
                if (newQ < 10) { newQ = newQ + 91; }
                dbUpdate("UPDATE stock SET s_quantity = ? WHERE s_w_id = ? AND s_i_id = ?", newQ, wId, iid);
                double amount = price * toDouble(qty);
                dbUpdate("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)", wId, dId, oId, ol, iid, qty, amount);
                total = total + amount;
                ol = ol + 1;
            }
            total = total * (1.0 + wTax + dTax) * (1.0 - cDisc);
            return total;
        }

        int transfer(int fromW, int toW, int iid, int qty) {
            row[] a = dbQuery("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", fromW, iid);
            int have = a[0].getInt(0);
            if (have < qty) { return 0 - 1; }
            dbUpdate("UPDATE stock SET s_quantity = s_quantity - ? WHERE s_w_id = ? AND s_i_id = ?", qty, fromW, iid);
            dbUpdate("UPDATE stock SET s_quantity = s_quantity + ? WHERE s_w_id = ? AND s_i_id = ?", qty, toW, iid);
            return have - qty;
        }
    }
"#;

/// Scale of the database the `dbhost` binary serves.
pub const HOST_SCALE: TpccScale = TpccScale {
    warehouses: 8,
    districts_per_wh: 3,
    customers_per_district: 10,
    items: 100,
};

/// Scale parameters (scaled down from the paper's 20-warehouse / 23 GB
/// database to laptop size; the access *pattern* is unchanged).
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    pub warehouses: i64,
    pub districts_per_wh: i64,
    pub customers_per_district: i64,
    pub items: i64,
}

impl Default for TpccScale {
    fn default() -> Self {
        TpccScale {
            warehouses: 4,
            districts_per_wh: 10,
            customers_per_district: 30,
            items: 1000,
        }
    }
}

/// Create the TPC-C tables.
pub fn create_schema(db: &mut Engine) {
    db.create_table(
        TableDef::new(
            "warehouse",
            vec![
                ColumnDef::new("w_id", ColTy::Int),
                ColumnDef::new("w_name", ColTy::Str),
                ColumnDef::new("w_tax", ColTy::Double),
            ],
            &["w_id"],
        )
        .with_shard_key("w_id"),
    );
    db.create_table(
        TableDef::new(
            "district",
            vec![
                ColumnDef::new("d_w_id", ColTy::Int),
                ColumnDef::new("d_id", ColTy::Int),
                ColumnDef::new("d_tax", ColTy::Double),
                ColumnDef::new("d_next_o_id", ColTy::Int),
            ],
            &["d_w_id", "d_id"],
        )
        .with_shard_key("d_w_id"),
    );
    db.create_table(
        TableDef::new(
            "customer",
            vec![
                ColumnDef::new("c_w_id", ColTy::Int),
                ColumnDef::new("c_d_id", ColTy::Int),
                ColumnDef::new("c_id", ColTy::Int),
                ColumnDef::new("c_name", ColTy::Str),
                ColumnDef::new("c_discount", ColTy::Double),
                ColumnDef::new("c_balance", ColTy::Double),
            ],
            &["c_w_id", "c_d_id", "c_id"],
        )
        .with_shard_key("c_w_id"),
    );
    db.create_table(TableDef::new(
        "item",
        vec![
            ColumnDef::new("i_id", ColTy::Int),
            ColumnDef::new("i_name", ColTy::Str),
            ColumnDef::new("i_price", ColTy::Double),
        ],
        &["i_id"],
    ));
    db.create_table(
        TableDef::new(
            "stock",
            vec![
                ColumnDef::new("s_w_id", ColTy::Int),
                ColumnDef::new("s_i_id", ColTy::Int),
                ColumnDef::new("s_quantity", ColTy::Int),
            ],
            &["s_w_id", "s_i_id"],
        )
        .with_shard_key("s_w_id"),
    );
    db.create_table(
        TableDef::new(
            "orders",
            vec![
                ColumnDef::new("o_w_id", ColTy::Int),
                ColumnDef::new("o_d_id", ColTy::Int),
                ColumnDef::new("o_id", ColTy::Int),
                ColumnDef::new("o_c_id", ColTy::Int),
                ColumnDef::new("o_ol_cnt", ColTy::Int),
            ],
            &["o_w_id", "o_d_id", "o_id"],
        )
        .with_shard_key("o_w_id"),
    );
    db.create_table(
        TableDef::new(
            "new_order",
            vec![
                ColumnDef::new("no_w_id", ColTy::Int),
                ColumnDef::new("no_d_id", ColTy::Int),
                ColumnDef::new("no_o_id", ColTy::Int),
            ],
            &["no_w_id", "no_d_id", "no_o_id"],
        )
        .with_shard_key("no_w_id"),
    );
    db.create_table(
        TableDef::new(
            "order_line",
            vec![
                ColumnDef::new("ol_w_id", ColTy::Int),
                ColumnDef::new("ol_d_id", ColTy::Int),
                ColumnDef::new("ol_o_id", ColTy::Int),
                ColumnDef::new("ol_number", ColTy::Int),
                ColumnDef::new("ol_i_id", ColTy::Int),
                ColumnDef::new("ol_quantity", ColTy::Int),
                ColumnDef::new("ol_amount", ColTy::Double),
            ],
            &["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"],
        )
        .with_shard_key("ol_w_id"),
    );
}

/// Populate the tables.
pub fn load(db: &mut Engine, scale: TpccScale, seed: u64) {
    for_each_row(scale, seed, |table, row| db.load_row(table, row));
}

/// Populate W engine shards with exactly the row stream [`load`] produces
/// (same seed ⇒ same rows), routed by each table's shard key: warehouse-
/// keyed rows land on `shard_of(w_id, W)`, the `item` table (no shard
/// key) is replicated read-only to every shard. A sharded deployment's
/// merged state is therefore comparable row-for-row with a single
/// engine's.
pub fn load_sharded(engines: &mut [Engine], scale: TpccScale, seed: u64) {
    for_each_row(scale, seed, |table, row| {
        pyx_server::load_row_sharded(engines, table, row)
    });
}

/// `shards` engines with the TPC-C schema, loaded at [`HOST_SCALE`]
/// from `seed` by [`load_sharded`]: the state the `dbhost` binary serves
/// and an in-process oracle of it starts from.
pub fn host_shards(shards: usize, seed: u64) -> Vec<Engine> {
    let mut engines: Vec<Engine> = (0..shards)
        .map(|_| {
            let mut e = Engine::new();
            create_schema(&mut e);
            e
        })
        .collect();
    load_sharded(&mut engines, HOST_SCALE, seed);
    engines
}

/// Canonical state fingerprint: FNV-1a over every engine's sorted table
/// dumps plus its commit-timestamp horizon. Order-independent within a
/// table, order-fixed across engines and tables — two engine sets agree
/// iff their visible state agrees.
pub fn fingerprint(engines: &[Engine]) -> u64 {
    let mut h = FNV_OFFSET;
    for e in engines {
        h = fnv1a_cont(h, &e.current_commit_ts().to_le_bytes());
        for table in e.table_names() {
            let mut rows: Vec<String> = e
                .dump_table(&table)
                .into_iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            h = fnv1a_cont(h, table.as_bytes());
            for r in rows {
                h = fnv1a_cont(h, r.as_bytes());
            }
        }
    }
    // Mix once more so an empty engine set is not the plain offset.
    fnv1a(&h.to_le_bytes())
}

/// The canonical row stream both loaders share: one sink callback per
/// generated row, in a fixed order driven by one seeded RNG.
fn for_each_row(scale: TpccScale, seed: u64, mut sink: impl FnMut(&str, Vec<Scalar>)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for w in 1..=scale.warehouses {
        sink(
            "warehouse",
            vec![
                Scalar::Int(w),
                Scalar::Str(format!("wh{w}").into()),
                Scalar::Double(rng.random_range(0.0..0.2)),
            ],
        );
        for d in 1..=scale.districts_per_wh {
            sink(
                "district",
                vec![
                    Scalar::Int(w),
                    Scalar::Int(d),
                    Scalar::Double(rng.random_range(0.0..0.2)),
                    Scalar::Int(3001),
                ],
            );
            for c in 1..=scale.customers_per_district {
                sink(
                    "customer",
                    vec![
                        Scalar::Int(w),
                        Scalar::Int(d),
                        Scalar::Int(c),
                        Scalar::Str(format!("cust{w}-{d}-{c}").into()),
                        Scalar::Double(rng.random_range(0.0..0.5)),
                        Scalar::Double(-10.0),
                    ],
                );
            }
        }
        for i in 1..=scale.items {
            sink(
                "stock",
                vec![
                    Scalar::Int(w),
                    Scalar::Int(i),
                    Scalar::Int(rng.random_range(10..100)),
                ],
            );
        }
    }
    for i in 1..=scale.items {
        sink(
            "item",
            vec![
                Scalar::Int(i),
                Scalar::Str(format!("item{i}").into()),
                Scalar::Double(rng.random_range(1.0..100.0)),
            ],
        );
    }
}

/// TPC-C NURand non-uniform distribution.
fn nurand(rng: &mut StdRng, a: i64, x: i64, y: i64) -> i64 {
    let c = 7; // constant per spec; any fixed value is conformant
    (((rng.random_range(0..=a) | rng.random_range(x..=y)) + c) % (y - x + 1)) + x
}

/// New-order transaction generator: official key distributions, 5–15
/// order lines, 10% rollbacks (paper §7.1).
pub struct NewOrderGen {
    pub entry: MethodId,
    scale: TpccScale,
    rollback_pct: f64,
    min_lines: usize,
    max_lines: usize,
    rng: StdRng,
}

impl NewOrderGen {
    pub fn new(entry: MethodId, scale: TpccScale, seed: u64) -> Self {
        NewOrderGen {
            entry,
            scale,
            rollback_pct: 0.10,
            min_lines: 5,
            max_lines: 15,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Override the order-line count range (smaller = fewer round trips).
    pub fn with_lines(mut self, min: usize, max: usize) -> Self {
        self.min_lines = min;
        self.max_lines = max;
        self
    }

    pub fn with_rollback_pct(mut self, pct: f64) -> Self {
        self.rollback_pct = pct;
        self
    }
}

impl Workload for NewOrderGen {
    fn next_txn(&mut self, _client: usize) -> TxnRequest {
        let w = self.rng.random_range(1..=self.scale.warehouses);
        let d = self.rng.random_range(1..=self.scale.districts_per_wh);
        let c = nurand(&mut self.rng, 255, 1, self.scale.customers_per_district);
        let n = self.rng.random_range(self.min_lines..=self.max_lines);
        let mut items: Vec<i64> = (0..n)
            .map(|_| nurand(&mut self.rng, 1023, 1, self.scale.items))
            .collect();
        items.sort_unstable();
        items.dedup();
        let qtys: Vec<i64> = items
            .iter()
            .map(|_| self.rng.random_range(1..=10))
            .collect();
        if self.rng.random_bool(self.rollback_pct) {
            let k = items.len() - 1;
            items[k] = -1; // unused item number → programmed rollback
        }
        TxnRequest {
            entry: self.entry,
            args: vec![
                ArgVal::Int(w),
                ArgVal::Int(d),
                ArgVal::Int(c),
                ArgVal::IntArray(items),
                ArgVal::IntArray(qtys),
            ],
            label: "new-order",
            route: Some(w),
        }
    }
}

/// Remote-warehouse mix generator over [`REMOTE_SRC`]: new-orders whose
/// order lines may name a *remote* supply warehouse, interleaved with
/// payments that may settle a *remote* customer. `remote_pct` is the
/// fraction of transactions touching a second warehouse (the spec runs
/// ~10% remote new-order lines and 15% remote payments; sweeping this
/// knob is how the multi-partition benchmarks vary coordination load).
/// Remote transactions carry `route: None` (cross-shard); home-only
/// transactions route to their warehouse as usual.
pub struct RemoteMixGen {
    pub order_entry: MethodId,
    pub pay_entry: MethodId,
    scale: TpccScale,
    remote_pct: f64,
    payment_pct: f64,
    rollback_pct: f64,
    min_lines: usize,
    max_lines: usize,
    rng: StdRng,
}

impl RemoteMixGen {
    pub fn new(order_entry: MethodId, pay_entry: MethodId, scale: TpccScale, seed: u64) -> Self {
        RemoteMixGen {
            order_entry,
            pay_entry,
            scale,
            remote_pct: 0.10,
            payment_pct: 0.30,
            rollback_pct: 0.10,
            min_lines: 5,
            max_lines: 15,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Fraction of transactions that touch a remote warehouse (0.0–1.0).
    pub fn with_remote_pct(mut self, pct: f64) -> Self {
        self.remote_pct = pct;
        self
    }

    pub fn with_lines(mut self, min: usize, max: usize) -> Self {
        self.min_lines = min;
        self.max_lines = max;
        self
    }

    pub fn with_rollback_pct(mut self, pct: f64) -> Self {
        self.rollback_pct = pct;
        self
    }

    /// A warehouse other than `home` (uniform over the rest).
    fn remote_warehouse(&mut self, home: i64) -> i64 {
        let other = self.rng.random_range(1..self.scale.warehouses);
        if other >= home {
            other + 1
        } else {
            other
        }
    }
}

impl Workload for RemoteMixGen {
    fn next_txn(&mut self, _client: usize) -> TxnRequest {
        let w = self.rng.random_range(1..=self.scale.warehouses);
        // Remote shapes need a second warehouse to exist.
        let remote = self.scale.warehouses > 1 && self.rng.random_bool(self.remote_pct);
        if self.rng.random_bool(self.payment_pct) {
            // Payment: home warehouse read + (possibly remote) customer
            // balance settlement.
            let cw = if remote { self.remote_warehouse(w) } else { w };
            let cd = self.rng.random_range(1..=self.scale.districts_per_wh);
            let c = nurand(&mut self.rng, 255, 1, self.scale.customers_per_district);
            let amount = (self.rng.random_range(100..500_000) as f64) / 100.0;
            return TxnRequest {
                entry: self.pay_entry,
                args: vec![
                    ArgVal::Int(w),
                    ArgVal::Int(cw),
                    ArgVal::Int(cd),
                    ArgVal::Int(c),
                    ArgVal::Double(amount),
                ],
                label: if remote { "pay-remote" } else { "pay-home" },
                route: if remote { None } else { Some(w) },
            };
        }
        // New-order with per-line supply warehouses.
        let d = self.rng.random_range(1..=self.scale.districts_per_wh);
        let c = nurand(&mut self.rng, 255, 1, self.scale.customers_per_district);
        let n = self.rng.random_range(self.min_lines..=self.max_lines);
        let mut items: Vec<i64> = (0..n)
            .map(|_| nurand(&mut self.rng, 1023, 1, self.scale.items))
            .collect();
        items.sort_unstable();
        items.dedup();
        let supply: Vec<i64> = if remote {
            // At least the first line ships from a remote warehouse; the
            // rest flip a coin (the spec's per-line x=1-of-100 rule scaled
            // up so a "remote" order reliably crosses shards).
            (0..items.len())
                .map(|i| {
                    if i == 0 || self.rng.random_bool(0.25) {
                        self.remote_warehouse(w)
                    } else {
                        w
                    }
                })
                .collect()
        } else {
            vec![w; items.len()]
        };
        let qtys: Vec<i64> = items
            .iter()
            .map(|_| self.rng.random_range(1..=10))
            .collect();
        if self.rng.random_bool(self.rollback_pct) {
            let k = items.len() - 1;
            items[k] = -1; // unused item number → programmed rollback
        }
        TxnRequest {
            entry: self.order_entry,
            args: vec![
                ArgVal::Int(w),
                ArgVal::Int(d),
                ArgVal::Int(c),
                ArgVal::IntArray(items),
                ArgVal::IntArray(supply),
                ArgVal::IntArray(qtys),
            ],
            label: if remote {
                "new-order-remote"
            } else {
                "new-order-home"
            },
            route: if remote { None } else { Some(w) },
        }
    }
}

/// Fully prepared TPC-C environment: compiled pipeline + loaded engine.
pub fn setup(scale: TpccScale, seed: u64) -> (pyx_core::Pyxis, Engine, MethodId) {
    let pyxis = pyx_core::Pyxis::compile(SRC, pyx_core::PyxisConfig::default())
        .expect("TPC-C source compiles");
    let mut db = Engine::new();
    create_schema(&mut db);
    load(&mut db, scale, seed);
    let entry = pyxis.entry("NewOrder", "run").expect("entry");
    (pyxis, db, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyx_lang::Value;
    use pyx_profile::{Interp, NullTracer};

    #[test]
    fn schema_loads() {
        let mut db = Engine::new();
        create_schema(&mut db);
        load(&mut db, TpccScale::default(), 1);
        assert_eq!(db.table_len("warehouse"), 4);
        assert_eq!(db.table_len("district"), 40);
        assert_eq!(db.table_len("item"), 1000);
        assert_eq!(db.table_len("stock"), 4000);
    }

    #[test]
    fn new_order_runs_in_interpreter() {
        let (pyxis, mut db, entry) = setup(TpccScale::default(), 7);
        let mut it = Interp::new(&pyxis.prog, &mut db, NullTracer);
        let items = it.alloc_array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let qtys = it.alloc_array(vec![Value::Int(1), Value::Int(2), Value::Int(1)]);
        let total = it
            .call_entry(
                entry,
                vec![Value::Int(1), Value::Int(1), Value::Int(5), items, qtys],
            )
            .expect("run")
            .expect("total");
        match total {
            Value::Double(v) => assert!(v > 0.0, "total {v}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(db.table_len("orders"), 1);
        assert_eq!(db.table_len("order_line"), 3);
        // Order id allocated from the district counter.
        let r = db
            .exec_auto(
                "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
                &[Scalar::Int(1), Scalar::Int(1)],
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Scalar::Int(3002));
    }

    #[test]
    fn rollback_leaves_no_trace() {
        let (pyxis, mut db, entry) = setup(TpccScale::default(), 7);
        let mut it = Interp::new(&pyxis.prog, &mut db, NullTracer);
        let items = it.alloc_array(vec![Value::Int(1), Value::Int(-1)]);
        let qtys = it.alloc_array(vec![Value::Int(1), Value::Int(1)]);
        it.call_entry(
            entry,
            vec![Value::Int(1), Value::Int(1), Value::Int(5), items, qtys],
        )
        .expect("run");
        assert!(it.rolled_back);
        assert_eq!(db.table_len("orders"), 0);
        assert_eq!(db.table_len("new_order"), 0);
        let r = db
            .exec_auto(
                "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
                &[Scalar::Int(1), Scalar::Int(1)],
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Scalar::Int(3001), "district counter restored");
    }

    #[test]
    fn generator_produces_valid_requests_and_rollbacks() {
        let (_, _, entry) = setup(TpccScale::default(), 7);
        let mut g = NewOrderGen::new(entry, TpccScale::default(), 42);
        let mut rollbacks = 0;
        for _ in 0..500 {
            let req = g.next_txn(0);
            assert_eq!(req.args.len(), 5);
            if let ArgVal::IntArray(items) = &req.args[3] {
                assert!(!items.is_empty());
                if items.iter().any(|&i| i < 0) {
                    rollbacks += 1;
                }
            } else {
                panic!("expected item array");
            }
        }
        // 10% ± noise.
        assert!((30..=80).contains(&rollbacks), "rollbacks {rollbacks}");
    }

    #[test]
    fn remote_order_and_payment_run_in_interpreter() {
        let pyxis = pyx_core::Pyxis::compile(REMOTE_SRC, pyx_core::PyxisConfig::default())
            .expect("remote TPC-C source compiles");
        let order = pyxis.entry("RemoteOrder", "remoteOrder").expect("order");
        let pay = pyxis.entry("RemoteOrder", "pay").expect("pay");
        let mut db = Engine::new();
        create_schema(&mut db);
        load(&mut db, TpccScale::default(), 7);
        let mut it = Interp::new(&pyxis.prog, &mut db, NullTracer);
        let items = it.alloc_array(vec![Value::Int(1), Value::Int(2)]);
        let supply = it.alloc_array(vec![Value::Int(2), Value::Int(1)]);
        let qtys = it.alloc_array(vec![Value::Int(1), Value::Int(3)]);
        let total = it
            .call_entry(
                order,
                vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(5),
                    items,
                    supply,
                    qtys,
                ],
            )
            .expect("run")
            .expect("total");
        match total {
            Value::Double(v) => assert!(v > 0.0, "total {v}"),
            other => panic!("{other:?}"),
        }
        // Line 0's stock update landed on the *supply* warehouse (2).
        let r = db
            .exec_auto(
                "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?",
                &[Scalar::Int(2), Scalar::Int(1)],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let mut it = Interp::new(&pyxis.prog, &mut db, NullTracer);
        let bal = it
            .call_entry(
                pay,
                vec![
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(1),
                    Value::Int(3),
                    Value::Double(12.5),
                ],
            )
            .expect("pay")
            .expect("balance");
        match bal {
            // Customers load with a -10.0 balance.
            Value::Double(v) => assert!((v - 2.5).abs() < 1e-9, "balance {v}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn remote_mix_generator_emits_cross_shard_fraction() {
        let pyxis = pyx_core::Pyxis::compile(REMOTE_SRC, pyx_core::PyxisConfig::default())
            .expect("remote TPC-C source compiles");
        let order = pyxis.entry("RemoteOrder", "remoteOrder").expect("order");
        let pay = pyxis.entry("RemoteOrder", "pay").expect("pay");
        let mut g = RemoteMixGen::new(order, pay, TpccScale::default(), 3).with_remote_pct(0.15);
        let mut remote = 0usize;
        for i in 0..1000 {
            let req = g.next_txn(i);
            match req.route {
                None => {
                    remote += 1;
                    assert!(req.label.ends_with("-remote"), "{}", req.label);
                }
                Some(w) => {
                    assert!((1..=4).contains(&w));
                    assert!(req.label.ends_with("-home"), "{}", req.label);
                }
            }
            if req.entry == order {
                let (items, supply) = match (&req.args[3], &req.args[4]) {
                    (ArgVal::IntArray(i), ArgVal::IntArray(s)) => (i, s),
                    other => panic!("{other:?}"),
                };
                assert_eq!(items.len(), supply.len(), "one supplier per line");
                let home = match req.args[0] {
                    ArgVal::Int(w) => w,
                    _ => unreachable!(),
                };
                let crosses = supply.iter().any(|&s| s != home);
                assert_eq!(crosses, req.route.is_none(), "route matches suppliers");
            }
        }
        // 15% ± noise.
        assert!((100..=220).contains(&remote), "remote {remote}");
    }

    #[test]
    fn nurand_within_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = nurand(&mut rng, 1023, 1, 1000);
            assert!((1..=1000).contains(&v));
        }
    }
}
