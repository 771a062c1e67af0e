//! Workload abstraction: a source of transactions for the dispatcher.

use pyx_lang::MethodId;
use pyx_runtime::ArgVal;

/// One transaction request: which entry point to invoke with what
/// arguments.
#[derive(Debug, Clone)]
pub struct TxnRequest {
    pub entry: MethodId,
    pub args: Vec<ArgVal>,
    /// Workload-defined label for per-class reporting (e.g. TPC-W
    /// interaction names).
    pub label: &'static str,
    /// Shard routing key, derived by the workload from its arguments
    /// (TPC-C: the home warehouse id; micro: the point-select key).
    /// `Some(k)` promises the transaction touches only rows whose shard
    /// key equals `k`, plus *reads* of replicated tables — a routed
    /// transaction must never write a replicated table, since that would
    /// update only its own shard's copy and silently diverge the
    /// replicas. The sharded server sends it to `shard_of(k, W)`.
    /// `None` means the transaction may span shards (or write a
    /// replicated table, which fans out to every replica): it runs under
    /// two-phase commit on a home shard's thread. Ignored by the
    /// single-engine [`crate::Dispatcher`].
    pub route: Option<i64>,
}

/// A transaction generator. Implementations own their RNG so runs are
/// reproducible from the seed they were built with.
pub trait Workload {
    fn next_txn(&mut self, client: usize) -> TxnRequest;
}

/// A trivial workload replaying one fixed request (tests).
pub struct FixedWorkload {
    pub request: TxnRequest,
}

impl Workload for FixedWorkload {
    fn next_txn(&mut self, _client: usize) -> TxnRequest {
        self.request.clone()
    }
}
