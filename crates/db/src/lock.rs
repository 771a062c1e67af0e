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
//! must abort and restart. A request compatible with every holder dies
//! too if an older transaction waits on the key, so younger readers that
//! restart at once cannot keep an older one's upgrade waiting for ever.
//! This guarantees no wait cycles, which matters because the simulator
//! models lock waits as suspended virtual-time sessions — a deadlock
//! would hang the simulated workload exactly like a real one. A release
//! empties the key's queue, so its caller retries the woken waiters
//! before it serves a younger request. A waiter that leaves unwoken (an
//! aborted branch whose parked statement was dropped) stays queued until
//! a holder of the key releases, and younger shared requests die there
//! meanwhile.
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
                self_idx = Some(i);
            } else if mode == LockMode::Exclusive || hmode == LockMode::Exclusive {
                conflicting.push(h);
            }
        }

        // Wait-die order, oldest first: a restarted transaction's
        // retained first id, else its own, with ties (impossible between
        // distinct transactions) broken on the id so the order is strictly
        // total, as deadlock freedom needs.
        let age = |t: TxnId| (self.ages.get(&t).copied().unwrap_or(t.0), t);
        let older = |t: TxnId| age(t) < age(txn);
        let result = if !conflicting.is_empty() {
            // A new request or an upgrade that conflicts: wait only if
            // older than every conflicting holder.
            if conflicting.iter().any(|&h| older(h)) {
                Acquire::Die
            } else {
                if !entry.waiters.contains(&txn) {
                    entry.waiters.push(txn);
                }
                Acquire::Wait
            }
        } else if let Some(i) = self_idx {
            // Re-entrant, or an upgrade with no other holder.
            if mode == LockMode::Exclusive {
                entry.holders[i].1 = mode;
            }
            Acquire::Granted
        } else if entry.waiters.iter().any(|&w| older(w)) {
            // Compatible with every holder, but an older transaction
            // waits here.
            Acquire::Die
        } else {
            entry.holders.push((txn, mode));
            self.held.entry(txn).or_default().push(lk.clone());
            Acquire::Granted
        };
        self.probe = lk.1 .0;
        result
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
                for w in entry.waiters.drain(..) {
                    if w != txn && !woken.contains(&w) {
                        woken.push(w);
                    }
                }
                if entry.holders.is_empty() {
                    self.entries.remove(&lk);
                }
            }
        }
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
    fn younger_shared_request_dies_behind_an_older_waiting_upgrade() {
        let mut lt = LockTable::new();
        let (s, x) = (LockMode::Shared, LockMode::Exclusive);
        for (txn, mode, want) in [
            (1, s, Acquire::Granted),
            (2, s, Acquire::Granted),
            (1, x, Acquire::Wait),
            // Compatible with both readers, but younger than the upgrade
            // that sharing the row would keep waiting.
            (3, s, Acquire::Die),
            // A holder's re-entry is not a new request.
            (2, s, Acquire::Granted),
        ] {
            assert_eq!(lt.acquire(TxnId(txn), 0, &k(1), mode), want, "txn {txn}");
        }
        assert_eq!(lt.release_all(TxnId(2)), vec![TxnId(1)]);
        assert_eq!(lt.acquire(TxnId(1), 0, &k(1), x), Acquire::Granted);
    }

    #[test]
    fn older_shared_request_is_granted_past_a_younger_waiter() {
        let mut lt = LockTable::new();
        let (s, x) = (LockMode::Shared, LockMode::Exclusive);
        lt.acquire(TxnId(5), 0, &k(1), s);
        lt.acquire(TxnId(6), 0, &k(1), s);
        assert_eq!(lt.acquire(TxnId(5), 0, &k(1), x), Acquire::Wait);
        // A restart of the oldest transaction: a fresh id, its first age.
        lt.set_age(TxnId(9), 1);
        assert_eq!(lt.acquire(TxnId(9), 0, &k(1), s), Acquire::Granted);
        assert_eq!(lt.held_by(TxnId(9)), 1);
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
