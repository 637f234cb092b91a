//! Small collections shared by every layer of the reproduction.
//!
//! * [`RandomSet`] backs the partial views: they are tiny (5–35 entries),
//!   so a `Vec` with linear scans outperforms hash-based sets while giving
//!   us O(1) uniform random choice — the operation every membership
//!   protocol performs constantly.
//! * [`RecentSet`] is the FIFO-bounded duplicate-suppression set of the
//!   flood broadcast (`GossipState` and the TCP runtime's flood dedup): a
//!   long-running node cannot afford an unbounded seen-set, and FIFO
//!   eviction is correct for gossip because duplicates arrive within a few
//!   network round-trips of the original. Plumtree needs no separate one:
//!   its bounded message cache is its seen-set.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// An order-insensitive set of identifiers with uniform random sampling.
///
/// Duplicates are rejected on insertion. Removal uses `swap_remove`, so
/// iteration order is unspecified — callers must not rely on it, which is
/// exactly the property a *random* partial view wants.
///
/// # Examples
///
/// ```
/// use hyparview_core::collections::RandomSet;
/// use rand::SeedableRng;
///
/// let mut set = RandomSet::new();
/// set.insert(1u32);
/// set.insert(2);
/// assert!(!set.insert(2), "duplicates are rejected");
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let picked = set.choose(&mut rng).copied();
/// assert!(picked == Some(1) || picked == Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RandomSet<I> {
    items: Vec<I>,
}

impl<I: Copy + Eq> RandomSet<I> {
    /// Creates an empty set.
    pub fn new() -> Self {
        RandomSet { items: Vec::new() }
    }

    /// Creates an empty set with capacity for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        RandomSet { items: Vec::with_capacity(capacity) }
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if `item` is present.
    pub fn contains(&self, item: &I) -> bool {
        self.items.contains(item)
    }

    /// Inserts `item`, returning `true` if it was not already present.
    pub fn insert(&mut self, item: I) -> bool {
        if self.contains(&item) {
            false
        } else {
            self.items.push(item);
            true
        }
    }

    /// Removes `item`, returning `true` if it was present.
    pub fn remove(&mut self, item: &I) -> bool {
        if let Some(pos) = self.items.iter().position(|x| x == item) {
            self.items.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes and returns a uniformly random element.
    pub fn remove_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<I> {
        if self.items.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.items.len());
        Some(self.items.swap_remove(idx))
    }

    /// Returns a reference to a uniformly random element.
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&I> {
        self.items.choose(rng)
    }

    /// Returns a uniformly random element different from `excluded`, if any.
    pub fn choose_excluding<R: Rng + ?Sized>(&self, rng: &mut R, excluded: &I) -> Option<I> {
        let candidates: Vec<I> = self.items.iter().filter(|x| *x != excluded).copied().collect();
        candidates.choose(rng).copied()
    }

    /// Returns a uniformly random element for which `keep` holds.
    pub fn choose_where<R, F>(&self, rng: &mut R, keep: F) -> Option<I>
    where
        R: Rng + ?Sized,
        F: Fn(&I) -> bool,
    {
        let candidates: Vec<I> = self.items.iter().filter(|x| keep(x)).copied().collect();
        candidates.choose(rng).copied()
    }

    /// Samples up to `count` distinct elements uniformly at random.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<I> {
        let mut shuffled = self.items.clone();
        shuffled.shuffle(rng);
        shuffled.truncate(count);
        shuffled
    }

    /// Samples up to `count` distinct elements, never returning `excluded`.
    pub fn sample_excluding<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        excluded: &I,
    ) -> Vec<I> {
        let mut candidates: Vec<I> =
            self.items.iter().filter(|x| *x != excluded).copied().collect();
        candidates.shuffle(rng);
        candidates.truncate(count);
        candidates
    }

    /// Iterates over the elements in unspecified order.
    pub fn iter(&self) -> std::slice::Iter<'_, I> {
        self.items.iter()
    }

    /// Returns the elements as a slice (unspecified order).
    pub fn as_slice(&self) -> &[I] {
        &self.items
    }

    /// Copies the elements into a fresh vector.
    pub fn to_vec(&self) -> Vec<I> {
        self.items.clone()
    }

    /// Removes every element for which `keep` returns `false`.
    pub fn retain<F: FnMut(&I) -> bool>(&mut self, keep: F) {
        self.items.retain(keep);
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<I: Copy + Eq> FromIterator<I> for RandomSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut set = RandomSet::new();
        for item in iter {
            set.insert(item);
        }
        set
    }
}

impl<I: Copy + Eq> Extend<I> for RandomSet<I> {
    fn extend<T: IntoIterator<Item = I>>(&mut self, iter: T) {
        for item in iter {
            self.insert(item);
        }
    }
}

impl<'a, I: Copy + Eq> IntoIterator for &'a RandomSet<I> {
    type Item = &'a I;
    type IntoIter = std::slice::Iter<'a, I>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<I: Copy + Eq> IntoIterator for RandomSet<I> {
    type Item = I;
    type IntoIter = std::vec::IntoIter<I>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// A FIFO-bounded set of recently seen identifiers.
///
/// Capacities up to [`RecentSet::UNBOUNDED`] are accepted; storage starts
/// empty and grows on demand, so any capacity — including the effectively
/// unbounded one the simulator uses (its runs are finite and the paper's
/// figures assume perfect duplicate detection) — costs nothing up front.
///
/// # Examples
///
/// ```
/// use hyparview_core::collections::RecentSet;
///
/// let mut seen: RecentSet<u64> = RecentSet::new(2);
/// assert!(seen.insert(1));
/// assert!(!seen.insert(1), "duplicate detected");
/// seen.insert(2);
/// seen.insert(3); // evicts 1
/// assert!(seen.insert(1), "evicted ids are forgotten");
/// ```
#[derive(Debug, Clone)]
pub struct RecentSet<T> {
    set: HashSet<T>,
    order: VecDeque<T>,
    capacity: usize,
}

impl<T: Copy + Eq + Hash> RecentSet<T> {
    /// Capacity value that in practice never evicts.
    pub const UNBOUNDED: usize = usize::MAX;

    /// Creates a set remembering at most `capacity` identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RecentSet { set: HashSet::new(), order: VecDeque::new(), capacity }
    }

    /// Inserts `id`, returning `true` if it was not already present.
    /// Evicts the oldest id when full.
    pub fn insert(&mut self, id: T) -> bool {
        self.insert_evicting(id).0
    }

    /// Inserts `id`, returning whether it was new and the identifier that
    /// was evicted to make room, if any. Callers that key auxiliary storage
    /// by id (e.g. a payload cache) use the evicted id to stay in sync.
    pub fn insert_evicting(&mut self, id: T) -> (bool, Option<T>) {
        if self.set.contains(&id) {
            return (false, None);
        }
        let mut evicted = None;
        if self.order.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.set.remove(&oldest);
                evicted = Some(oldest);
            }
        }
        self.order.push_back(id);
        self.set.insert(id);
        (true, evicted)
    }

    /// Whether `id` is currently remembered.
    pub fn contains(&self, id: &T) -> bool {
        self.set.contains(id)
    }

    /// Number of remembered ids.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Returns `true` when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The maximum number of ids remembered at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forgets every remembered id (capacity is unchanged).
    pub fn clear(&mut self) {
        self.set.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C0)
    }

    #[test]
    fn recent_set_insert_and_contains() {
        let mut s: RecentSet<u32> = RecentSet::new(4);
        assert!(s.insert(1));
        assert!(s.contains(&1));
        assert!(!s.insert(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn recent_set_eviction_is_fifo() {
        let mut s: RecentSet<u32> = RecentSet::new(3);
        for i in 0..3 {
            s.insert(i);
        }
        assert_eq!(s.insert_evicting(3), (true, Some(0)));
        assert!(!s.contains(&0));
        assert!(s.contains(&1));
        assert!(s.contains(&3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn recent_set_duplicate_insert_does_not_evict() {
        let mut s: RecentSet<u32> = RecentSet::new(2);
        s.insert(1);
        s.insert(2);
        assert_eq!(s.insert_evicting(2), (false, None));
        assert!(s.contains(&1), "duplicate must not trigger eviction");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn recent_set_zero_capacity_panics() {
        let _: RecentSet<u32> = RecentSet::new(0);
    }

    #[test]
    fn recent_set_unbounded_capacity_is_cheap() {
        let mut s: RecentSet<u64> = RecentSet::new(RecentSet::<u64>::UNBOUNDED);
        for i in 0..10_000 {
            assert_eq!(s.insert_evicting(i), (true, None));
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.capacity(), RecentSet::<u64>::UNBOUNDED);
    }

    #[test]
    fn recent_set_clear_forgets() {
        let mut s: RecentSet<u32> = RecentSet::new(8);
        s.insert(5);
        s.clear();
        assert!(s.is_empty());
        assert!(s.insert(5));
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut s = RandomSet::new();
        assert!(s.insert(5u32));
        assert!(!s.insert(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_present_and_absent() {
        let mut s: RandomSet<u32> = [1, 2, 3].into_iter().collect();
        assert!(s.remove(&2));
        assert!(!s.remove(&2));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&2));
    }

    #[test]
    fn remove_random_empties_the_set() {
        let mut s: RandomSet<u32> = (0..10).collect();
        let mut r = rng();
        let mut seen = Vec::new();
        while let Some(x) = s.remove_random(&mut r) {
            seen.push(x);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(s.is_empty());
        assert_eq!(s.remove_random(&mut r), None);
    }

    #[test]
    fn choose_excluding_never_returns_excluded() {
        let s: RandomSet<u32> = [1, 2].into_iter().collect();
        let mut r = rng();
        for _ in 0..64 {
            assert_eq!(s.choose_excluding(&mut r, &1), Some(2));
        }
        let lone: RandomSet<u32> = [1].into_iter().collect();
        assert_eq!(lone.choose_excluding(&mut r, &1), None);
    }

    #[test]
    fn choose_where_respects_predicate() {
        let s: RandomSet<u32> = (0..10).collect();
        let mut r = rng();
        for _ in 0..32 {
            let even = s.choose_where(&mut r, |x| x % 2 == 0).unwrap();
            assert_eq!(even % 2, 0);
        }
        assert_eq!(s.choose_where(&mut r, |_| false), None);
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let s: RandomSet<u32> = (0..10).collect();
        let mut r = rng();
        let sample = s.sample(&mut r, 4);
        assert_eq!(sample.len(), 4);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert_eq!(s.sample(&mut r, 100).len(), 10, "sample caps at set size");
    }

    #[test]
    fn sample_excluding_omits_element() {
        let s: RandomSet<u32> = (0..5).collect();
        let mut r = rng();
        for _ in 0..32 {
            let sample = s.sample_excluding(&mut r, 5, &3);
            assert_eq!(sample.len(), 4);
            assert!(!sample.contains(&3));
        }
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let s: RandomSet<u32> = (0..4).collect();
        let mut r = rng();
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*s.choose(&mut r).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts skewed: {counts:?}");
        }
    }

    #[test]
    fn retain_filters() {
        let mut s: RandomSet<u32> = (0..10).collect();
        s.retain(|x| x % 2 == 0);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|x| x % 2 == 0));
    }

    #[test]
    fn extend_and_collect_dedup() {
        let mut s: RandomSet<u32> = [1, 1, 2].into_iter().collect();
        s.extend([2, 3, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn into_iterator_yields_all() {
        let s: RandomSet<u32> = (0..3).collect();
        let mut owned: Vec<u32> = s.clone().into_iter().collect();
        owned.sort_unstable();
        assert_eq!(owned, vec![0, 1, 2]);
        let mut borrowed: Vec<u32> = (&s).into_iter().copied().collect();
        borrowed.sort_unstable();
        assert_eq!(borrowed, vec![0, 1, 2]);
    }
}
