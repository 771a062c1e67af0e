//! Row storage: multi-version slots + primary and secondary indexes.
//!
//! Tables validate types on insert, enforce primary-key uniqueness, and keep
//! secondary indexes in sync. Locking is *not* done here — the engine
//! acquires locks before calling into the table so that a lock conflict can
//! surface before any mutation happens.
//!
//! # Version chains (MVCC)
//!
//! Each row slot carries two things:
//!
//! * `cur` — the *current* image, which the strict-2PL write path mutates
//!   in place (it may be uncommitted while a writer is in flight), and
//! * `hist` — the committed version chain: `(commit_ts, image)` pairs in
//!   ascending timestamp order, where a `None` image is a tombstone
//!   (the row was deleted at that timestamp). The engine appends to the
//!   chain at commit time ([`Table::stamp_version`]); snapshot readers
//!   resolve a row *as of* a timestamp with [`Table::version_at`] and
//!   never look at `cur`.
//!
//! A deleted row's slot (and its primary-index entry) is retained until
//! [`Table::gc_versions`] proves no active snapshot can still observe any
//! of its versions; the same call prunes superseded versions of live rows.
//! Consequently the index access paths can return slots whose current
//! image is gone — current-state readers must skip `get(rid) == None`.
//!
//! Secondary-index invariant: an entry `(value, rid)` exists iff *some
//! retained image* of the slot (current or historical) has `value` in the
//! indexed column. Current-state scans re-check predicates per row, so
//! entries kept alive only by history are filtered naturally; snapshot
//! scans through a secondary index stay complete because a version's
//! entries outlive it.

use crate::index::{MultiIndex, RowId, UniqueIndex};
use crate::schema::TableDef;
use pyx_lang::Scalar;
use std::sync::Arc;

/// One row slot: current image plus committed version chain.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Current image (possibly uncommitted). `None` = deleted in current
    /// state.
    cur: Option<Arc<Vec<Scalar>>>,
    /// Committed versions, ascending `commit_ts`; `None` = tombstone. The
    /// last entry is the latest *committed* image; `cur` may deviate from
    /// it while a writer holds the row's exclusive lock.
    hist: Vec<(u64, Option<Arc<Vec<Scalar>>>)>,
}

impl Slot {
    /// Free for reuse: no current image and no retained history.
    fn vacant(&self) -> bool {
        self.cur.is_none() && self.hist.is_empty()
    }

    /// Does any retained image (current or historical) carry `v` in
    /// column `col`? Governs secondary-index entry retention.
    fn has_value(&self, col: usize, v: &Scalar) -> bool {
        let eq = |img: &Arc<Vec<Scalar>>| img[col].total_cmp(v) == std::cmp::Ordering::Equal;
        self.cur.as_ref().is_some_and(&eq)
            || self
                .hist
                .iter()
                .any(|(_, img)| img.as_ref().is_some_and(&eq))
    }
}

#[derive(Debug, Clone)]
pub struct Table {
    pub def: TableDef,
    /// Rows are reference-counted so `SELECT *` results, undo logs, and
    /// version chains share images (refcount bumps, not copies).
    rows: Vec<Slot>,
    free: Vec<RowId>,
    primary: UniqueIndex,
    secondary: Vec<MultiIndex>,
    live: usize,
}

impl Table {
    pub fn new(def: TableDef) -> Self {
        let secondary = def.secondary.iter().map(|_| MultiIndex::new()).collect();
        Table {
            def,
            rows: Vec::new(),
            free: Vec::new(),
            primary: UniqueIndex::new(),
            secondary,
            live: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Validate a full row against the schema.
    pub fn validate(&self, row: &[Scalar]) -> Result<(), String> {
        if row.len() != self.def.cols.len() {
            return Err(format!(
                "table `{}` expects {} columns, got {}",
                self.def.name,
                self.def.cols.len(),
                row.len()
            ));
        }
        for (v, c) in row.iter().zip(&self.def.cols) {
            if !c.ty.admits(v) {
                return Err(format!(
                    "column `{}` of `{}` cannot hold {v:?}",
                    c.name, self.def.name
                ));
            }
        }
        Ok(())
    }

    /// Insert a validated row. Fails on duplicate primary key.
    pub fn insert(&mut self, row: Vec<Scalar>) -> Result<RowId, String> {
        self.insert_shared(Arc::new(row))
    }

    /// Insert an already-shared row image (undo-log restores reuse the
    /// saved `Arc` without copying the cells).
    pub fn insert_shared(&mut self, row: Arc<Vec<Scalar>>) -> Result<RowId, String> {
        self.validate(&row)?;
        let key = self.def.key_of(&row);
        if let Some(rid) = self.primary.get(&key) {
            // The key's slot is retained for old snapshots: a duplicate if
            // currently live, a resurrection if currently deleted.
            if self.rows[rid.0 as usize].cur.is_some() {
                return Err(format!(
                    "duplicate primary key {key:?} in `{}`",
                    self.def.name
                ));
            }
            for (si, &col) in self.def.secondary.iter().enumerate() {
                self.secondary[si].insert_unique(row[col].clone(), rid);
            }
            self.rows[rid.0 as usize].cur = Some(row);
            self.live += 1;
            return Ok(rid);
        }
        let rid = match self.free.pop() {
            Some(r) => r,
            None => {
                self.rows.push(Slot::default());
                RowId((self.rows.len() - 1) as u32)
            }
        };
        debug_assert!(self.rows[rid.0 as usize].vacant());
        assert!(self.primary.insert(key, rid), "primary entry was absent");
        for (si, &col) in self.def.secondary.iter().enumerate() {
            self.secondary[si].insert_unique(row[col].clone(), rid);
        }
        self.rows[rid.0 as usize].cur = Some(row);
        self.live += 1;
        Ok(rid)
    }

    /// Current image of a live row (`None` for deleted/retained slots).
    pub fn get(&self, rid: RowId) -> Option<&[Scalar]> {
        self.rows
            .get(rid.0 as usize)
            .and_then(|s| s.cur.as_deref())
            .map(|r| r.as_slice())
    }

    /// Shared handle to a live row (refcount bump, no cell copy).
    pub fn get_shared(&self, rid: RowId) -> Option<&Arc<Vec<Scalar>>> {
        self.rows.get(rid.0 as usize).and_then(|s| s.cur.as_ref())
    }

    /// The committed image of a row *as of* snapshot timestamp `ts`:
    /// the newest version stamped at or before `ts`. `None` when the row
    /// was not yet inserted, was deleted, or has no committed version.
    pub fn version_at(&self, rid: RowId, ts: u64) -> Option<&Arc<Vec<Scalar>>> {
        self.rows
            .get(rid.0 as usize)?
            .hist
            .iter()
            .rev()
            .find(|(t, _)| *t <= ts)
            .and_then(|(_, img)| img.as_ref())
    }

    /// Primary key of a retained (currently deleted) slot, recovered from
    /// its newest surviving image — the redo log's delete records carry
    /// the key, and a deleted slot's `cur` is gone. `None` for live or
    /// vacant slots, and when the latest *committed* state is already a
    /// tombstone: re-deleting a resurrected key changes nothing
    /// observable, mirroring the [`Table::stamp_version`] no-op rule.
    pub fn deleted_key(&self, rid: RowId) -> Option<Vec<Scalar>> {
        let slot = self.rows.get(rid.0 as usize)?;
        if slot.cur.is_some() || matches!(slot.hist.last(), Some((_, None))) {
            return None;
        }
        let img = slot.hist.iter().rev().find_map(|(_, img)| img.as_ref())?;
        Some(self.def.key_of(img))
    }

    /// Number of committed versions currently retained for `rid`
    /// (diagnostics and GC tests).
    pub fn version_count(&self, rid: RowId) -> usize {
        self.rows.get(rid.0 as usize).map_or(0, |s| s.hist.len())
    }

    /// Total committed versions retained across all slots (diagnostics:
    /// fully GCed steady state retains exactly one per live row).
    pub fn total_versions(&self) -> usize {
        self.rows.iter().map(|s| s.hist.len()).sum()
    }

    /// Append the current image (or a tombstone, if the row is deleted) to
    /// the committed version chain at commit timestamp `ts`. Returns
    /// `(stamped, prunable)`: whether a version was actually appended,
    /// and whether the slot now carries history a later GC pass can
    /// prune.
    pub fn stamp_version(&mut self, rid: RowId, ts: u64) -> (bool, bool) {
        let slot = &mut self.rows[rid.0 as usize];
        debug_assert!(
            slot.hist.last().is_none_or(|(t, _)| *t <= ts),
            "commit timestamps must be monotone"
        );
        // A deleted row whose latest committed state is already a
        // tombstone (the txn resurrected the key and deleted it again)
        // changed nothing observable: skip the stamp. This also keeps the
        // invariant that every tombstone directly follows the image it
        // deleted, which GC uses to recover the primary key when vacating
        // a fully dead slot.
        if slot.cur.is_none() && matches!(slot.hist.last(), Some((_, None))) {
            return (false, slot.hist.len() > 1);
        }
        slot.hist.push((ts, slot.cur.clone()));
        (true, slot.hist.len() > 1)
    }

    /// Prune versions of `rid` that no snapshot at or after `horizon` can
    /// observe, releasing index entries kept alive only by them; a slot
    /// whose remaining state is a globally visible tombstone is vacated
    /// entirely (primary entry removed, slot freed for reuse).
    ///
    /// Returns `(versions dropped, prunable history remains)`; safe to
    /// call on vacant or since-reused slots (GC queues may be stale).
    pub fn gc_versions(&mut self, rid: RowId, horizon: u64) -> (u64, bool) {
        let idx = rid.0 as usize;
        if idx >= self.rows.len() || self.rows[idx].vacant() {
            return (0, false);
        }
        // Keep the newest version at or before the horizon (the visibility
        // candidate for the oldest active snapshot) and everything newer.
        let Some(cut) = self.rows[idx].hist.iter().rposition(|(t, _)| *t <= horizon) else {
            return (0, self.rows[idx].hist.len() > 1);
        };
        let pruned: Vec<(u64, Option<Arc<Vec<Scalar>>>)> =
            self.rows[idx].hist.drain(..cut).collect();
        let mut dropped = pruned.len() as u64;
        for (_, img) in &pruned {
            if let Some(img) = img {
                for si in 0..self.def.secondary.len() {
                    let col = self.def.secondary[si];
                    if !self.rows[idx].has_value(col, &img[col]) {
                        self.secondary[si].remove(&img[col], rid);
                    }
                }
            }
        }
        let fully_dead = {
            let s = &self.rows[idx];
            s.cur.is_none() && s.hist.len() == 1 && s.hist[0].1.is_none()
        };
        if fully_dead {
            // Recover the key from a pruned image (a tombstone is always
            // preceded by the image it deleted; they prune together).
            if let Some(img) = pruned.iter().rev().find_map(|(_, img)| img.as_ref()) {
                let key = self.def.key_of(img);
                self.primary.remove(&key);
                self.rows[idx].hist.clear();
                self.free.push(rid);
                dropped += 1;
            }
        }
        (dropped, self.rows[idx].hist.len() > 1)
    }

    /// Overwrite non-key columns of a row. Returns the old row image
    /// (shared — the caller's undo log keeps it alive without copying).
    /// Primary-key columns must not change (enforced).
    pub fn update(&mut self, rid: RowId, new_row: Vec<Scalar>) -> Result<Arc<Vec<Scalar>>, String> {
        self.update_shared(rid, Arc::new(new_row))
    }

    /// [`Table::update`] with an already-shared replacement image.
    pub fn update_shared(
        &mut self,
        rid: RowId,
        new_row: Arc<Vec<Scalar>>,
    ) -> Result<Arc<Vec<Scalar>>, String> {
        self.validate(&new_row)?;
        let old = self.rows[rid.0 as usize]
            .cur
            .clone()
            .ok_or_else(|| "update of deleted row".to_string())?;
        if self.def.key_of(&old) != self.def.key_of(&new_row) {
            return Err(format!(
                "primary-key update not supported in `{}`",
                self.def.name
            ));
        }
        self.rows[rid.0 as usize].cur = Some(new_row);
        for si in 0..self.def.secondary.len() {
            let col = self.def.secondary[si];
            let slot = &self.rows[rid.0 as usize];
            let new_v = &slot.cur.as_ref().expect("just set")[col];
            if old[col].total_cmp(new_v) != std::cmp::Ordering::Equal {
                let new_v = new_v.clone();
                self.secondary[si].insert_unique(new_v, rid);
                // The old value's entry stays while any retained version
                // (including history a snapshot may still read) has it.
                if !self.rows[rid.0 as usize].has_value(col, &old[col]) {
                    self.secondary[si].remove(&old[col], rid);
                }
            }
        }
        Ok(old)
    }

    /// Delete a row, returning its contents (for undo logging). The slot
    /// and its index entries are retained while committed versions remain
    /// (snapshots may still read them); a never-committed row vacates
    /// immediately.
    pub fn delete(&mut self, rid: RowId) -> Result<Arc<Vec<Scalar>>, String> {
        let row = self.rows[rid.0 as usize]
            .cur
            .take()
            .ok_or_else(|| "delete of missing row".to_string())?;
        self.live -= 1;
        if self.rows[rid.0 as usize].hist.is_empty() {
            // Uncommitted insert being removed: no snapshot can see it.
            let key = self.def.key_of(&row);
            self.primary.remove(&key);
            for (si, &col) in self.def.secondary.iter().enumerate() {
                self.secondary[si].remove(&row[col], rid);
            }
            self.free.push(rid);
        } else {
            for si in 0..self.def.secondary.len() {
                let col = self.def.secondary[si];
                if !self.rows[rid.0 as usize].has_value(col, &row[col]) {
                    self.secondary[si].remove(&row[col], rid);
                }
            }
        }
        Ok(row)
    }

    // ---- access paths (all return row ids; the engine locks then reads) ----
    //
    // Paths may yield retained (deleted-but-versioned) slots; current-state
    // consumers skip `get(rid) == None`, snapshot consumers resolve
    // through `version_at`.

    /// Point lookup by full primary key.
    pub fn pk_lookup(&self, key: &[Scalar]) -> Option<RowId> {
        self.primary.get(key)
    }

    /// Point lookup through a reusable probe buffer (allocation-free once
    /// warm).
    pub fn pk_lookup_buf(&self, key: &[Scalar], buf: &mut Vec<Scalar>) -> Option<RowId> {
        self.primary.get_with_buf(key, buf)
    }

    /// Streaming range scan on a primary-key prefix (no candidate `Vec`).
    pub fn pk_prefix_iter<'a>(&'a self, prefix: &'a [Scalar]) -> impl Iterator<Item = RowId> + 'a {
        self.primary.prefix_iter(prefix)
    }

    /// Secondary-index equality lookup. `slot` indexes `def.secondary`.
    pub fn index_lookup(&self, slot: usize, key: &Scalar) -> Vec<RowId> {
        self.index_scan(slot, key).to_vec()
    }

    /// Borrowing variant of [`Table::index_lookup`].
    pub fn index_scan(&self, slot: usize, key: &Scalar) -> &[RowId] {
        self.secondary[slot].get(key)
    }

    /// Full scan in primary-key order.
    pub fn full_scan(&self) -> Vec<RowId> {
        self.full_scan_iter().collect()
    }

    /// Streaming full scan in primary-key order (no candidate `Vec`).
    pub fn full_scan_iter(&self) -> impl Iterator<Item = RowId> + '_ {
        self.primary.iter().map(|(_, r)| r)
    }

    /// Which secondary-index slot (if any) covers `col`?
    pub fn secondary_slot(&self, col: usize) -> Option<usize> {
        self.def.secondary.iter().position(|&c| c == col)
    }

    /// Add (and backfill) a single-column secondary index on an existing
    /// table. Returns the new slot; a no-op if `col` is already indexed.
    /// Backfills from every retained image so snapshot scans through the
    /// new index stay complete.
    pub fn add_secondary(&mut self, col: usize) -> usize {
        if let Some(slot) = self.secondary_slot(col) {
            return slot;
        }
        let mut idx = MultiIndex::new();
        for (i, slot) in self.rows.iter().enumerate() {
            let rid = RowId(i as u32);
            if let Some(row) = &slot.cur {
                idx.insert_unique(row[col].clone(), rid);
            }
            for (_, img) in &slot.hist {
                if let Some(img) = img {
                    idx.insert_unique(img[col].clone(), rid);
                }
            }
        }
        self.def.secondary.push(col);
        self.secondary.push(idx);
        self.secondary.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColTy, ColumnDef};

    fn items() -> Table {
        Table::new(
            TableDef::new(
                "item",
                vec![
                    ColumnDef::new("i_id", ColTy::Int),
                    ColumnDef::new("i_name", ColTy::Str),
                    ColumnDef::new("i_price", ColTy::Double),
                ],
                &["i_id"],
            )
            .with_index("i_name"),
        )
    }

    fn row(id: i64, name: &str, price: f64) -> Vec<Scalar> {
        vec![
            Scalar::Int(id),
            Scalar::Str(name.into()),
            Scalar::Double(price),
        ]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = items();
        let r = t.insert(row(1, "widget", 9.99)).unwrap();
        assert_eq!(t.get(r).unwrap()[1], Scalar::Str("widget".into()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_pkey_rejected() {
        let mut t = items();
        t.insert(row(1, "a", 1.0)).unwrap();
        assert!(t.insert(row(1, "b", 2.0)).is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = items();
        let bad = vec![
            Scalar::Str("x".into()),
            Scalar::Str("y".into()),
            Scalar::Int(1),
        ];
        assert!(t.insert(bad).is_err());
    }

    #[test]
    fn update_maintains_secondary_index() {
        let mut t = items();
        let r = t.insert(row(1, "old", 1.0)).unwrap();
        t.update(r, row(1, "new", 2.0)).unwrap();
        assert!(t.index_lookup(0, &Scalar::Str("old".into())).is_empty());
        assert_eq!(t.index_lookup(0, &Scalar::Str("new".into())), vec![r]);
    }

    #[test]
    fn pkey_update_rejected() {
        let mut t = items();
        let r = t.insert(row(1, "a", 1.0)).unwrap();
        assert!(t.update(r, row(2, "a", 1.0)).is_err());
    }

    #[test]
    fn delete_then_reinsert_reuses_slot() {
        let mut t = items();
        let r = t.insert(row(1, "a", 1.0)).unwrap();
        let old = t.delete(r).unwrap();
        assert_eq!(old[0], Scalar::Int(1));
        assert_eq!(t.len(), 0);
        assert!(t.pk_lookup(&[Scalar::Int(1)]).is_none());
        let r2 = t.insert(row(1, "a2", 1.5)).unwrap();
        assert_eq!(r, r2, "freed slot should be reused");
    }

    #[test]
    fn full_scan_in_pk_order() {
        let mut t = items();
        t.insert(row(3, "c", 1.0)).unwrap();
        t.insert(row(1, "a", 1.0)).unwrap();
        t.insert(row(2, "b", 1.0)).unwrap();
        let ids: Vec<i64> = t
            .full_scan()
            .iter()
            .map(|&r| t.get(r).unwrap()[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    // ---- version-chain behaviour ----

    #[test]
    fn version_at_resolves_committed_prefix() {
        let mut t = items();
        let r = t.insert(row(1, "v1", 1.0)).unwrap();
        t.stamp_version(r, 10);
        t.update(r, row(1, "v2", 2.0)).unwrap();
        t.stamp_version(r, 20);
        assert!(t.version_at(r, 9).is_none(), "not yet inserted");
        assert_eq!(t.version_at(r, 10).unwrap()[1], Scalar::Str("v1".into()));
        assert_eq!(t.version_at(r, 19).unwrap()[1], Scalar::Str("v1".into()));
        assert_eq!(t.version_at(r, 20).unwrap()[1], Scalar::Str("v2".into()));
        // Uncommitted current image is never visible to snapshots.
        t.update(r, row(1, "dirty", 3.0)).unwrap();
        assert_eq!(t.version_at(r, 99).unwrap()[1], Scalar::Str("v2".into()));
    }

    #[test]
    fn deleted_row_remains_visible_to_old_snapshots_then_gcs() {
        let mut t = items();
        let r = t.insert(row(1, "a", 1.0)).unwrap();
        t.stamp_version(r, 10);
        t.delete(r).unwrap();
        t.stamp_version(r, 20);
        assert_eq!(t.len(), 0);
        // Retained: still findable by key and visible at ts 10.
        assert_eq!(t.pk_lookup(&[Scalar::Int(1)]), Some(r));
        assert!(t.version_at(r, 10).is_some());
        assert!(t.version_at(r, 20).is_none(), "tombstone");
        // Secondary entry retained for the historical image.
        assert_eq!(t.index_lookup(0, &Scalar::Str("a".into())), vec![r]);
        // Horizon below the tombstone: image survives.
        let (dropped, _) = t.gc_versions(r, 15);
        assert_eq!(dropped, 0);
        // Horizon past the tombstone: slot fully vacates.
        let (dropped, remains) = t.gc_versions(r, 25);
        assert_eq!(dropped, 2, "image + tombstone");
        assert!(!remains);
        assert!(t.pk_lookup(&[Scalar::Int(1)]).is_none());
        assert!(t.index_lookup(0, &Scalar::Str("a".into())).is_empty());
        // The slot is reusable again.
        let r2 = t.insert(row(1, "b", 2.0)).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn gc_prunes_superseded_versions_and_stale_secondary_entries() {
        let mut t = items();
        let r = t.insert(row(1, "a", 1.0)).unwrap();
        t.stamp_version(r, 10);
        t.update(r, row(1, "b", 2.0)).unwrap();
        t.stamp_version(r, 20);
        // Both values indexed while both versions are retained.
        assert_eq!(t.index_lookup(0, &Scalar::Str("a".into())), vec![r]);
        assert_eq!(t.index_lookup(0, &Scalar::Str("b".into())), vec![r]);
        let (dropped, remains) = t.gc_versions(r, 20);
        assert_eq!(dropped, 1);
        assert!(!remains);
        assert!(t.index_lookup(0, &Scalar::Str("a".into())).is_empty());
        assert_eq!(t.index_lookup(0, &Scalar::Str("b".into())), vec![r]);
        assert_eq!(t.version_count(r), 1, "latest committed version retained");
    }

    #[test]
    fn resurrected_key_reuses_retained_slot() {
        let mut t = items();
        let r = t.insert(row(1, "a", 1.0)).unwrap();
        t.stamp_version(r, 10);
        t.delete(r).unwrap();
        t.stamp_version(r, 20);
        // Re-insert of the same key revives the same slot (version chain
        // continues), and the old image is still visible at ts 10.
        let r2 = t.insert(row(1, "c", 3.0)).unwrap();
        assert_eq!(r, r2);
        t.stamp_version(r2, 30);
        assert_eq!(t.version_at(r, 10).unwrap()[1], Scalar::Str("a".into()));
        assert!(t.version_at(r, 20).is_none());
        assert_eq!(t.version_at(r, 30).unwrap()[1], Scalar::Str("c".into()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn add_secondary_backfills_from_history() {
        let mut t = Table::new(TableDef::new(
            "kv",
            vec![
                ColumnDef::new("k", ColTy::Int),
                ColumnDef::new("v", ColTy::Str),
            ],
            &["k"],
        ));
        let r = t
            .insert(vec![Scalar::Int(1), Scalar::Str("old".into())])
            .unwrap();
        t.stamp_version(r, 10);
        t.update(r, vec![Scalar::Int(1), Scalar::Str("new".into())])
            .unwrap();
        t.stamp_version(r, 20);
        let slot = t.add_secondary(1);
        assert_eq!(t.index_lookup(slot, &Scalar::Str("old".into())), vec![r]);
        assert_eq!(t.index_lookup(slot, &Scalar::Str("new".into())), vec![r]);
    }
}
