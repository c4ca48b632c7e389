//! The base station's key tables, each entry with its own cipher schedule.
//!
//! The base station opens every reading twice — the Step-2 envelope under
//! the sender's cluster key and the Step-1 seal under its node key — so it
//! needs a built [`AuthEnc`] for every entry it serves. A cache keyed by
//! base key would have to guess which schedules to keep; a table knows:
//! [`KeyTable`] holds at most one schedule per entry, builds it on the
//! entry's first use and drops it the moment the entry's key changes or
//! the entry leaves. Schedule memory is therefore bounded by the table
//! itself, with no cap and no eviction policy, and no schedule outlives
//! the key it was derived from.

use crate::forward::sealer;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::Key128;

/// `id -> key` with a lazily built schedule per entry.
///
/// Invariant: every entry of `built` was derived from the key `keys`
/// currently holds under the same id.
#[derive(Default)]
pub(crate) struct KeyTable {
    keys: HashMap<u32, Key128>,
    built: HashMap<u32, AuthEnc>,
    /// Schedules built so far (lets tests prove a warm table rebuilds
    /// nothing).
    #[cfg(test)]
    builds: u64,
}

impl KeyTable {
    /// A table over `keys`; no schedule is built yet.
    pub(crate) fn new(keys: HashMap<u32, Key128>) -> Self {
        KeyTable {
            keys,
            ..KeyTable::default()
        }
    }

    /// The key held for `id`.
    pub(crate) fn get(&self, id: u32) -> Option<Key128> {
        self.keys.get(&id).copied()
    }

    /// Sets the key for `id`; a changed key drops the old schedule.
    pub(crate) fn insert(&mut self, id: u32, key: Key128) {
        if self.keys.insert(id, key) != Some(key) {
            self.built.remove(&id);
        }
    }

    /// Removes the entry for `id` together with its schedule.
    pub(crate) fn remove(&mut self, id: u32) -> Option<Key128> {
        self.built.remove(&id);
        self.keys.remove(&id)
    }

    /// Drops the schedule for `id` but keeps its key.
    pub(crate) fn forget_schedule(&mut self, id: u32) {
        self.built.remove(&id);
    }

    /// Replaces every key with `f(key)`, dropping every schedule.
    pub(crate) fn update_all(&mut self, f: impl Fn(&Key128) -> Key128) {
        for key in self.keys.values_mut() {
            *key = f(key);
        }
        self.built.clear();
    }

    /// The schedule for `id`'s current key, built on first use; `None`
    /// if the table holds no entry for `id`.
    pub(crate) fn sealer(&mut self, id: u32) -> Option<&AuthEnc> {
        match self.built.entry(id) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => {
                let key = self.keys.get(&id)?;
                #[cfg(test)]
                {
                    self.builds += 1;
                }
                Some(e.insert(sealer(key)))
            }
        }
    }

    /// Every id held, ascending.
    pub(crate) fn ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.keys.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Every entry, ascending by id.
    pub(crate) fn sorted(&self) -> Vec<(u32, Key128)> {
        let mut entries: Vec<(u32, Key128)> = self.keys.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }
}

#[cfg(test)]
impl KeyTable {
    /// Schedules built since the table was created.
    pub(crate) fn builds(&self) -> u64 {
        self.builds
    }

    /// Schedules currently held.
    pub(crate) fn schedules(&self) -> usize {
        self.built.len()
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether a schedule for `id` is currently held.
    pub(crate) fn has_schedule(&self, id: u32) -> bool {
        self.built.contains_key(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> Key128 {
        Key128::from_bytes([b; 16])
    }

    fn table() -> KeyTable {
        KeyTable::new((1..=3).map(|i| (i, key(i as u8))).collect())
    }

    /// The table's schedule seals exactly like a freshly built one.
    fn seals_like(t: &mut KeyTable, id: u32, k: Key128) -> bool {
        t.sealer(id).unwrap().seal(7, b"x") == sealer(&k).seal(7, b"x")
    }

    #[test]
    fn builds_lazily_once_per_entry() {
        let mut t = table();
        assert_eq!(t.schedules(), 0);
        assert!(seals_like(&mut t, 1, key(1)));
        assert!(seals_like(&mut t, 1, key(1)));
        assert_eq!((t.builds(), t.schedules()), (1, 1));
        assert!(t.sealer(9).is_none());
        assert_eq!(t.schedules(), 1);
    }

    #[test]
    fn changed_key_rebuilds_and_same_key_keeps() {
        let mut t = table();
        t.sealer(1);
        t.insert(1, key(1));
        assert!(t.has_schedule(1));
        t.insert(1, key(0x40));
        assert!(!t.has_schedule(1));
        assert!(seals_like(&mut t, 1, key(0x40)));
        assert_eq!(t.builds(), 2);
    }

    #[test]
    fn removal_and_update_drop_schedules() {
        let mut t = table();
        t.sealer(1);
        t.sealer(2);
        assert_eq!(t.remove(1), Some(key(1)));
        assert!(!t.has_schedule(1) && t.sealer(1).is_none());
        t.forget_schedule(2);
        assert_eq!((t.schedules(), t.get(2)), (0, Some(key(2))));
        t.sealer(3);
        t.update_all(|k| Key128::from_bytes([k.as_bytes()[0] + 1; 16]));
        assert_eq!(t.schedules(), 0);
        assert!(seals_like(&mut t, 3, key(4)));
        assert_eq!(t.ids(), vec![2, 3]);
        assert_eq!(t.sorted(), vec![(2, key(3)), (3, key(4))]);
    }
}
