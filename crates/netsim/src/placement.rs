//! The expert-placement data model: which class occupies each of the `sN`
//! expert slots.
//!
//! The three systems under study differ in *where* expert replicas land:
//! SYMI packs each class's replicas contiguously (Algorithm 1), DeepSpeed
//! stripes classes round-robin so replicas sit on distinct ranks, and
//! FlexMoE spreads replicas greedily onto the emptiest ranks. The runtime
//! executes the same placement the cost model prices, so both use this one
//! type; it lives here, below `symi`, which re-exports it.

/// A global expert placement: which class occupies each of the `sN` slots.
///
/// Slots are numbered globally; slot `k` lives on rank `k / slots_per_rank`.
/// SYMI placements are contiguous by construction (Algorithm 1), so each
/// class's host ranks form a contiguous range (§4.2); the DeepSpeed
/// baseline's [`ExpertPlacement::striped`] and FlexMoE's
/// [`ExpertPlacement::greedy_spread`] layouts are the non-contiguous shapes.
///
/// ```
/// use symi_netsim::ExpertPlacement;
///
/// // 2 classes over 2 ranks × 2 slots; class 0 holds 3 replicas.
/// let p = ExpertPlacement::from_counts(&[3, 1], 2);
/// assert_eq!(p.host_ranks(0), vec![0, 1]);
/// assert_eq!(p.host_ranks(1), vec![1]);
/// assert!(p.rank_hosts(0, 0) && !p.rank_hosts(0, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpertPlacement {
    slot_class: Vec<usize>,
    slots_per_rank: usize,
    expert_classes: usize,
}

impl ExpertPlacement {
    /// Builds a placement from replica counts: class `c`'s replicas occupy
    /// consecutive slots (Algorithm 1's final loop).
    pub fn from_counts(counts: &[usize], slots_per_rank: usize) -> Self {
        let mut slot_class = Vec::with_capacity(counts.iter().sum());
        for (class, &c) in counts.iter().enumerate() {
            slot_class.extend(std::iter::repeat_n(class, c));
        }
        Self::tiled(slot_class, slots_per_rank, counts.len())
    }

    /// Uniform static placement (`r = sN/E` replicas each).
    pub fn uniform(expert_classes: usize, ranks: usize, slots_per_rank: usize) -> Self {
        let total = ranks * slots_per_rank;
        assert_eq!(total % expert_classes, 0, "uniform placement must divide");
        Self::from_counts(&vec![total / expert_classes; expert_classes], slots_per_rank)
    }

    /// Static striped placement (DeepSpeed-style): global slot `k` hosts
    /// class `k mod E`, so every replica of a class lands on a distinct
    /// rank (no intra-rank expert data parallelism, §4.1).
    pub fn striped(expert_classes: usize, ranks: usize, slots_per_rank: usize) -> Self {
        let total = ranks * slots_per_rank;
        assert_eq!(total % expert_classes, 0, "uniform replication must divide");
        assert_eq!(
            expert_classes % slots_per_rank,
            0,
            "striping needs E divisible by s so replicas land on distinct ranks"
        );
        Self::tiled(
            (0..total).map(|k| k % expert_classes).collect(),
            slots_per_rank,
            expert_classes,
        )
    }

    /// FlexMoE's greedy spread: replicas of each class (most-replicated
    /// first) go to the currently emptiest ranks, avoiding ranks already
    /// hosting the class.
    pub fn greedy_spread(counts: &[usize], ranks: usize, slots_per_rank: usize) -> Self {
        let e = counts.len();
        let mut free = vec![slots_per_rank; ranks];
        let mut hosts: Vec<Vec<bool>> = vec![vec![false; e]; ranks];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); ranks];
        let mut order: Vec<usize> = (0..e).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(counts[c]));
        for &class in &order {
            for _ in 0..counts[class] {
                let rank = (0..ranks)
                    .filter(|&r| free[r] > 0)
                    .max_by_key(|&r| (free[r], !hosts[r][class], std::cmp::Reverse(r)))
                    .expect("slots available by the sum invariant");
                free[rank] -= 1;
                hosts[rank][class] = true;
                assignment[rank].push(class);
            }
        }
        Self::tiled(assignment.into_iter().flatten().collect(), slots_per_rank, e)
    }

    fn tiled(slot_class: Vec<usize>, slots_per_rank: usize, expert_classes: usize) -> Self {
        assert_eq!(slot_class.len() % slots_per_rank, 0, "slots must tile ranks exactly");
        Self { slot_class, slots_per_rank, expert_classes }
    }

    pub fn total_slots(&self) -> usize {
        self.slot_class.len()
    }

    pub fn ranks(&self) -> usize {
        self.slot_class.len() / self.slots_per_rank
    }

    pub fn slots_per_rank(&self) -> usize {
        self.slots_per_rank
    }

    pub fn expert_classes(&self) -> usize {
        self.expert_classes
    }

    /// Class hosted in global slot `k`.
    pub fn class_of_slot(&self, slot: usize) -> usize {
        self.slot_class[slot]
    }

    /// Rank hosting global slot `k`.
    pub fn rank_of_slot(&self, slot: usize) -> usize {
        slot / self.slots_per_rank
    }

    /// Global slot ids on `rank`.
    pub fn slots_of_rank(&self, rank: usize) -> std::ops::Range<usize> {
        rank * self.slots_per_rank..(rank + 1) * self.slots_per_rank
    }

    /// Classes hosted on `rank` in first-seen order, with their local slot
    /// offsets.
    pub fn classes_on_rank(&self, rank: usize) -> Vec<(usize, Vec<usize>)> {
        let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
        for (local, slot) in self.slots_of_rank(rank).enumerate() {
            let class = self.slot_class[slot];
            match out.iter_mut().find(|(c, _)| *c == class) {
                Some((_, locals)) => locals.push(local),
                None => out.push((class, vec![local])),
            }
        }
        out
    }

    /// Replica count per class.
    pub fn replica_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.expert_classes];
        for &c in &self.slot_class {
            counts[c] += 1;
        }
        counts
    }

    /// Global slot ids hosting `class`.
    pub fn slots_of_class(&self, class: usize) -> Vec<usize> {
        (0..self.total_slots()).filter(|&k| self.slot_class[k] == class).collect()
    }

    /// The distinct ranks hosting `class`, ascending.
    pub fn host_ranks(&self, class: usize) -> Vec<usize> {
        let mut ranks = Vec::new();
        for slot in self.slots_of_class(class) {
            let r = self.rank_of_slot(slot);
            if ranks.last() != Some(&r) {
                ranks.push(r);
            }
        }
        ranks
    }

    /// Every class's `(host rank, local replica count)` pairs, ranks
    /// ascending — [`ExpertPlacement::host_ranks`] with multiplicity, for
    /// all classes in one pass over the slots.
    pub fn hosts_with_counts(&self) -> Vec<Vec<(usize, usize)>> {
        let mut hosts: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.expert_classes];
        for (slot, &class) in self.slot_class.iter().enumerate() {
            let rank = self.rank_of_slot(slot);
            match hosts[class].last_mut() {
                Some((r, n)) if *r == rank => *n += 1,
                _ => hosts[class].push((rank, 1)),
            }
        }
        hosts
    }

    /// Whether `rank` hosts at least one replica of `class`.
    pub fn rank_hosts(&self, rank: usize, class: usize) -> bool {
        self.slots_of_rank(rank).any(|s| self.slot_class[s] == class)
    }

    /// Number of slots whose class assignment differs from `other` — the
    /// volume a *coupled* system would migrate, and zero-extra-cost for
    /// SYMI (§3.3).
    pub fn diff_slots(&self, other: &ExpertPlacement) -> usize {
        assert_eq!(self.total_slots(), other.total_slots(), "placement shape mismatch");
        self.slot_class.iter().zip(&other.slot_class).filter(|(a, b)| a != b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_placement_shape() {
        let p = ExpertPlacement::uniform(4, 4, 2); // 8 slots, r = 2
        assert_eq!(p.replica_counts(), vec![2, 2, 2, 2]);
        assert_eq!(p.class_of_slot(0), 0);
        assert_eq!(p.class_of_slot(7), 3);
        assert_eq!(p.ranks(), 4);
    }

    #[test]
    fn classes_on_rank_groups_local_slots() {
        // counts [3, 1] over 2 ranks × 2 slots: rank0 = [0,0], rank1 = [0,1].
        let p = ExpertPlacement::from_counts(&[3, 1], 2);
        assert_eq!(p.classes_on_rank(0), vec![(0, vec![0, 1])]);
        assert_eq!(p.classes_on_rank(1), vec![(0, vec![0]), (1, vec![1])]);
    }

    #[test]
    fn host_ranks_dedupes() {
        let p = ExpertPlacement::from_counts(&[4, 2, 2], 4); // 8 slots, 2 ranks
        assert_eq!(p.host_ranks(0), vec![0]);
        assert_eq!(p.host_ranks(1), vec![1]);
        assert_eq!(p.host_ranks(2), vec![1]);
    }

    #[test]
    fn diff_counts_changed_slots() {
        let a = ExpertPlacement::from_counts(&[2, 2], 2);
        let b = ExpertPlacement::from_counts(&[3, 1], 2);
        assert_eq!(a.diff_slots(&b), 1);
        assert_eq!(a.diff_slots(&a), 0);
    }

    #[test]
    fn rank_hosts_checks_membership() {
        let p = ExpertPlacement::from_counts(&[2, 2], 2);
        assert!(p.rank_hosts(0, 0));
        assert!(!p.rank_hosts(0, 1));
        assert!(p.rank_hosts(1, 1));
    }

    #[test]
    #[should_panic(expected = "tile ranks exactly")]
    fn uneven_slot_total_rejected() {
        let _ = ExpertPlacement::from_counts(&[2, 1], 2);
    }

    #[test]
    fn contiguous_packing_minimizes_distinct_hosts() {
        // 4 ranks × 2 slots, classes with replicas [4, 2, 1, 1].
        let p = ExpertPlacement::from_counts(&[4, 2, 1, 1], 2);
        assert_eq!(p.ranks(), 4);
        assert_eq!(p.host_ranks(0), vec![0, 1], "4 replicas pack onto 2 ranks");
        assert_eq!(p.host_ranks(1), vec![2]);
        assert_eq!(p.host_ranks(2), vec![3]);
        assert_eq!(p.host_ranks(3), vec![3]);
    }

    #[test]
    fn stripe_spreads_replicas_to_distinct_ranks() {
        // 4 ranks × 2 slots, 4 classes → r = 2, each class on 2 ranks.
        let p = ExpertPlacement::striped(4, 4, 2);
        for class in 0..4 {
            assert_eq!(p.host_ranks(class).len(), 2, "each replica on its own rank");
        }
    }

    #[test]
    fn greedy_spread_avoids_co_locating_a_class() {
        let p = ExpertPlacement::greedy_spread(&[4, 2, 1, 1], 4, 2);
        assert_eq!(p.total_slots(), 8);
        assert_eq!(p.replica_counts(), vec![4, 2, 1, 1]);
        assert_eq!(p.host_ranks(0).len(), 4, "4 replicas of class 0 on 4 distinct ranks");
    }

    #[test]
    fn hosts_with_counts_tracks_multiplicity() {
        let p = ExpertPlacement::from_counts(&[4, 2, 1, 1], 2);
        let hc = p.hosts_with_counts();
        assert_eq!(hc[0], vec![(0, 2), (1, 2)]);
        assert_eq!(hc[3], vec![(3, 1)]);
        let total: usize = hc.iter().flatten().map(|&(_, n)| n).sum();
        assert_eq!(total, 8);
        for (class, hosts) in hc.iter().enumerate() {
            let ranks: Vec<usize> = hosts.iter().map(|&(r, _)| r).collect();
            assert_eq!(ranks, p.host_ranks(class));
        }
    }
}
