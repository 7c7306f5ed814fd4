//! The shop's soft classad cache (§3.1) and the parsed-expression cache
//! that keeps `requirements`/`rank` strings from being re-parsed on every
//! bid round.

use std::collections::BTreeMap;
use std::rc::Rc;

use vmplants_classad::{parse_expr, ClassAd, Expr, ParseError};
use vmplants_plant::VmId;
use vmplants_simkit::SimTime;

/// A cached classad with provenance.
#[derive(Clone, Debug)]
pub struct CachedAd {
    /// The classad as last seen.
    pub ad: ClassAd,
    /// Which plant is authoritative for it.
    pub plant: String,
    /// When it was cached (virtual time).
    pub cached_at: SimTime,
}

/// vmid → cached classad. Purely an accelerator: every entry can be
/// rebuilt from the plants, so losing the cache is never fatal.
#[derive(Default)]
pub struct ClassAdCache {
    entries: BTreeMap<VmId, CachedAd>,
    hits: u64,
    misses: u64,
}

impl ClassAdCache {
    /// An empty cache.
    pub fn new() -> ClassAdCache {
        ClassAdCache::default()
    }

    /// Store or refresh an entry.
    pub fn put(&mut self, id: VmId, ad: ClassAd, plant: String, now: SimTime) {
        self.entries.insert(
            id,
            CachedAd {
                ad,
                plant,
                cached_at: now,
            },
        );
    }

    /// Look an entry up, counting hit/miss.
    pub fn get(&mut self, id: &VmId) -> Option<&CachedAd> {
        match self.entries.get(id) {
            Some(e) => {
                self.hits += 1;
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Which plant is authoritative for a VM (no hit/miss accounting).
    pub fn plant_of(&self, id: &VmId) -> Option<&str> {
        self.entries.get(id).map(|e| e.plant.as_str())
    }

    /// Drop one entry.
    pub fn invalidate(&mut self, id: &VmId) -> bool {
        self.entries.remove(id).is_some()
    }

    /// Drop everything (shop restart).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Ids currently cached.
    pub fn ids(&self) -> Vec<VmId> {
        self.entries.keys().cloned().collect()
    }

    /// Iterate cached entries in id order (no hit/miss accounting).
    pub fn iter(&self) -> impl Iterator<Item = (&VmId, &CachedAd)> {
        self.entries.iter()
    }
}

/// Memoized classad expression parser: `requirements`/`rank` strings
/// arrive with every order, but distinct texts are few — parse each one
/// once and hand out shared [`Expr`]s.
/// Parse *failures* are cached too, so a malformed constraint costs one
/// parse, not one per bid round.
#[derive(Default)]
pub struct ExprCache {
    entries: BTreeMap<String, Result<Rc<Expr>, ParseError>>,
    hits: u64,
    misses: u64,
}

impl ExprCache {
    /// An empty cache.
    pub fn new() -> ExprCache {
        ExprCache::default()
    }

    /// Parse `text`, serving repeats from the cache.
    pub fn parse(&mut self, text: &str) -> Result<Rc<Expr>, ParseError> {
        if let Some(cached) = self.entries.get(text) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let parsed = parse_expr(text).map(Rc::new);
        self.entries.insert(text.to_owned(), parsed.clone());
        parsed
    }

    /// Distinct expression texts seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(vmid: &str) -> ClassAd {
        let mut a = ClassAd::new();
        a.set_value("vmid", vmid);
        a
    }

    #[test]
    fn put_get_invalidate() {
        let mut c = ClassAdCache::new();
        let id = VmId("vm-1".into());
        c.put(id.clone(), ad("vm-1"), "node0".into(), SimTime::from_secs(5));
        let hit = c.get(&id).unwrap();
        assert_eq!(hit.plant, "node0");
        assert_eq!(hit.cached_at, SimTime::from_secs(5));
        assert_eq!(c.plant_of(&id), Some("node0"));
        assert!(c.invalidate(&id));
        assert!(!c.invalidate(&id));
        assert!(c.get(&id).is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn put_refreshes_in_place() {
        let mut c = ClassAdCache::new();
        let id = VmId("vm-1".into());
        c.put(id.clone(), ad("vm-1"), "node0".into(), SimTime::ZERO);
        c.put(id.clone(), ad("vm-1"), "node3".into(), SimTime::from_secs(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.plant_of(&id), Some("node3"));
    }

    #[test]
    fn expr_cache_parses_once_per_text() {
        let mut c = ExprCache::new();
        let a = c.parse("freememory >= 256 && alive").unwrap();
        let b = c.parse("freememory >= 256 && alive").unwrap();
        assert!(Rc::ptr_eq(&a, &b), "repeat texts share one parse");
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expr_cache_remembers_failures() {
        let mut c = ExprCache::new();
        assert!(c.parse("&& nope").is_err());
        assert!(c.parse("&& nope").is_err());
        assert_eq!(c.stats(), (1, 1), "second failure is a cache hit");
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = ClassAdCache::new();
        for i in 0..4 {
            c.put(
                VmId(format!("vm-{i}")),
                ad(&format!("vm-{i}")),
                "node0".into(),
                SimTime::ZERO,
            );
        }
        assert_eq!(c.ids().len(), 4);
        c.clear();
        assert!(c.is_empty());
    }
}
