//! Row-granularity lock manager: strict 2PL with wait-die deadlock
//! avoidance.
//!
//! Locks are keyed by `(table, primary key)`. Shared locks are compatible
//! with shared; exclusive conflicts with everything. Upgrades (S → X) are
//! granted when the requester is the sole holder.
//!
//! Since MVCC landed, the lock table only mediates *read-write*
//! transactions (their writes, and their reads, which still take shared
//! locks for strict-2PL serializability). Read-only snapshot transactions
//! resolve row versions in the table layer and never appear here.
//!
//! Deadlock avoidance uses **wait-die**: on conflict, an older requester
//! (smaller [`TxnId`]) waits; a younger one "dies" ([`Acquire::Die`]) and
//! must abort and restart. This guarantees no wait cycles, which matters
//! because the simulator models lock waits as suspended virtual-time
//! sessions — a deadlock would hang the simulated workload exactly like a
//! real one.
//!
//! **Distributed wait-die.** Cross-shard (2PC) transactions get a
//! globally unique age from the sharded server's shared counter and
//! carry it to every shard branch via [`crate::Engine::begin_aged`], so
//! every shard's `(age, id)` order agrees on every pair of distributed
//! transactions. The union of per-shard wait graphs therefore stays
//! acyclic — the globally oldest distributed transaction always
//! progresses — with no cross-shard coordination beyond the age itself.
//!
//! **Prepared (2PC) branches.** A branch that passed
//! [`crate::Engine::prepare_commit`] keeps holding all its locks until
//! the coordinator's commit/abort. That needs no special case here:
//! wait-die only ever kills *requesters*, never holders, and a prepared
//! branch issues no further lock requests.

use crate::fxhash::FxHashMap;
use crate::index::Key;
use crate::txn::TxnId;
use pyx_lang::Scalar;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// Lock granted (or already held).
    Granted,
    /// Conflict; requester is older and may wait for a wake-up.
    Wait,
    /// Conflict; requester is younger and must abort (wait-die victim).
    Die,
}

/// Lock identity: table slot + primary key.
pub type LockKey = (usize, Key);

#[derive(Debug, Default)]
struct Entry {
    holders: Vec<(TxnId, LockMode)>,
    waiters: Vec<TxnId>,
}

/// The lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    entries: FxHashMap<LockKey, Entry>,
    /// Keys each transaction holds (for O(held) release).
    held: FxHashMap<TxnId, Vec<LockKey>>,
    /// Wait-die *age* overrides: a restarted transaction re-begins under
    /// a fresh id but keeps its original age
    /// ([`crate::Engine::begin_aged`]), so it grows older across retries
    /// instead of dying forever — the textbook wait-die no-starvation
    /// rule. Transactions without an entry age as their own id.
    ages: FxHashMap<TxnId, u64>,
    /// Reused probe buffer: re-acquiring a held lock (every retry and
    /// every repeated touch of a hot row) allocates nothing.
    probe: Vec<Scalar>,
}

impl LockTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin `txn`'s wait-die age (a restarted transaction passes the id of
    /// its first incarnation). Must be called before `txn` requests any
    /// lock; the entry is dropped with the transaction's locks.
    pub fn set_age(&mut self, txn: TxnId, age: u64) {
        self.ages.insert(txn, age);
    }

    /// Request `mode` on `(table, key)` for `txn`.
    pub fn acquire(&mut self, txn: TxnId, table: usize, key: &[Scalar], mode: LockMode) -> Acquire {
        // Probe with the reused buffer; an owned key is built only when a
        // brand-new entry must be stored.
        let mut buf = std::mem::take(&mut self.probe);
        buf.clear();
        buf.extend_from_slice(key);
        let lk: LockKey = (table, Key(buf));

        let Some(entry) = self.entries.get_mut(&lk) else {
            // Unlocked key: grant immediately.
            self.entries.insert(
                lk.clone(),
                Entry {
                    holders: vec![(txn, mode)],
                    waiters: Vec::new(),
                },
            );
            self.held.entry(txn).or_default().push(lk);
            self.probe = Vec::new();
            return Acquire::Granted;
        };

        let mut self_idx = None;
        let mut conflicting: Vec<TxnId> = Vec::new();
        for (i, &(h, hmode)) in entry.holders.iter().enumerate() {
            if h == txn {
                self_idx = Some((i, hmode));
            } else if mode == LockMode::Exclusive || hmode == LockMode::Exclusive {
                conflicting.push(h);
            }
        }

        let result = if let Some((i, hmode)) = self_idx {
            // Re-entrant; possibly an upgrade.
            if hmode == LockMode::Exclusive || mode == LockMode::Shared {
                Acquire::Granted
            } else if conflicting.is_empty() {
                entry.holders[i].1 = LockMode::Exclusive;
                Acquire::Granted
            } else {
                // Upgrade blocked by other shared holders.
                Self::wait_or_die(txn, entry, &conflicting, &self.ages)
            }
        } else if conflicting.is_empty() {
            entry.holders.push((txn, mode));
            self.held.entry(txn).or_default().push(lk.clone());
            Acquire::Granted
        } else {
            Self::wait_or_die(txn, entry, &conflicting, &self.ages)
        };
        self.probe = lk.1 .0;
        result
    }

    /// Wait-die: wait only if older than every conflicting holder. Age is
    /// the retained original id for restarted transactions, the own id
    /// otherwise; ties (impossible between distinct logical transactions)
    /// break on the id so the order stays strictly total — the guarantee
    /// wait-die's deadlock freedom rests on.
    fn wait_or_die(
        txn: TxnId,
        entry: &mut Entry,
        conflicting: &[TxnId],
        ages: &FxHashMap<TxnId, u64>,
    ) -> Acquire {
        let age = |t: TxnId| (ages.get(&t).copied().unwrap_or(t.0), t);
        if conflicting.iter().all(|&h| age(txn) < age(h)) {
            if !entry.waiters.contains(&txn) {
                entry.waiters.push(txn);
            }
            Acquire::Wait
        } else {
            Acquire::Die
        }
    }

    /// Release all locks held by `txn` (commit or abort). Returns the
    /// de-duplicated set of transactions that were waiting on any released
    /// key — the caller should let them retry their blocked statement.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut woken = Vec::new();
        self.ages.remove(&txn);
        let keys = self.held.remove(&txn).unwrap_or_default();
        for lk in keys {
            if let Some(entry) = self.entries.get_mut(&lk) {
                entry.holders.retain(|&(h, _)| h != txn);
                entry.waiters.retain(|&w| w != txn);
                for &w in &entry.waiters {
                    if !woken.contains(&w) {
                        woken.push(w);
                    }
                }
                entry.waiters.clear();
                if entry.holders.is_empty() && entry.waiters.is_empty() {
                    self.entries.remove(&lk);
                }
            }
        }
        // A waiter registered on keys this txn didn't hold can't exist:
        // waiters are only registered against conflicting holders.
        woken.retain(|&w| w != txn);
        woken
    }

    /// Number of currently locked keys (diagnostics).
    pub fn locked_keys(&self) -> usize {
        self.entries.len()
    }

    /// Number of locks held by `txn`.
    pub fn held_by(&self, txn: TxnId) -> usize {
        self.held.get(&txn).map(|v| v.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> Vec<Scalar> {
        vec![Scalar::Int(v)]
    }

    #[test]
    fn shared_locks_are_compatible() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Shared),
            Acquire::Granted
        );
        assert_eq!(
            lt.acquire(TxnId(2), 0, &k(1), LockMode::Shared),
            Acquire::Granted
        );
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(2), 0, &k(1), LockMode::Shared);
        // Older txn 1 waits.
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive),
            Acquire::Wait
        );
        // Younger txn 3 dies.
        assert_eq!(
            lt.acquire(TxnId(3), 0, &k(1), LockMode::Exclusive),
            Acquire::Die
        );
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), 0, &k(1), LockMode::Shared);
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Shared),
            Acquire::Granted
        );
        // Sole holder: upgrade succeeds.
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive),
            Acquire::Granted
        );
        // Now exclusive: shared re-entry still fine.
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Shared),
            Acquire::Granted
        );
    }

    #[test]
    fn upgrade_blocked_by_other_readers() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), 0, &k(1), LockMode::Shared);
        lt.acquire(TxnId(2), 0, &k(1), LockMode::Shared);
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive),
            Acquire::Wait
        );
        assert_eq!(
            lt.acquire(TxnId(2), 0, &k(1), LockMode::Exclusive),
            Acquire::Die
        );
    }

    #[test]
    fn release_wakes_waiters() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(2), 0, &k(1), LockMode::Exclusive);
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive),
            Acquire::Wait
        );
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken, vec![TxnId(1)]);
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive),
            Acquire::Granted
        );
    }

    #[test]
    fn different_keys_do_not_conflict() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive);
        assert_eq!(
            lt.acquire(TxnId(2), 0, &k(2), LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(
            lt.acquire(TxnId(2), 1, &k(1), LockMode::Exclusive),
            Acquire::Granted,
            "same key in a different table is a different lock"
        );
    }

    #[test]
    fn release_cleans_up_entries() {
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), 0, &k(1), LockMode::Shared);
        lt.acquire(TxnId(1), 0, &k(2), LockMode::Exclusive);
        assert_eq!(lt.locked_keys(), 2);
        assert_eq!(lt.held_by(TxnId(1)), 2);
        lt.release_all(TxnId(1));
        assert_eq!(lt.locked_keys(), 0);
        assert_eq!(lt.held_by(TxnId(1)), 0);
    }

    #[test]
    fn no_wait_cycles_possible() {
        // Wait-die invariant: a transaction only ever waits for *younger*
        // holders... actually for *itself to be older*: requester waits only
        // if older than all holders, so waits-for edges always point from
        // older to younger — a cycle would need a younger-to-older edge,
        // which dies instead.
        let mut lt = LockTable::new();
        lt.acquire(TxnId(1), 0, &k(1), LockMode::Exclusive);
        lt.acquire(TxnId(2), 0, &k(2), LockMode::Exclusive);
        // 1 → waits on key 2 held by 2? txn 1 older → Wait.
        assert_eq!(
            lt.acquire(TxnId(1), 0, &k(2), LockMode::Exclusive),
            Acquire::Wait
        );
        // 2 → requests key 1 held by 1: younger → Die. No cycle.
        assert_eq!(
            lt.acquire(TxnId(2), 0, &k(1), LockMode::Exclusive),
            Acquire::Die
        );
    }
}
