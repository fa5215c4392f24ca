//! Randomized property tests for the SYMI core: Algorithm 1's invariants
//! must hold for any popularity vector, and the placement data model must
//! stay self-consistent. Driven by `symi_tensor::rng` with fixed seeds.

use symi::optimizer::get_source;
use symi::{compute_placement, ExpertPlacement};
use symi_tensor::rng::{Rng, StdRng};

fn random_popularity(rng: &mut StdRng, len: usize, max: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..max)).collect()
}

#[test]
fn placement_fills_slots_exactly_with_floor() {
    let mut rng = StdRng::seed_from_u64(301);
    for _ in 0..64 {
        let e = rng.gen_range(1..32usize);
        let slots_mult = rng.gen_range(1..8usize);
        let popularity = random_popularity(&mut rng, e, 100_000);
        let total_slots = e * slots_mult;
        let counts = compute_placement(&popularity, total_slots);
        assert_eq!(counts.len(), e);
        assert_eq!(counts.iter().sum::<usize>(), total_slots);
        assert!(counts.iter().all(|&c| c >= 1));
    }
}

#[test]
fn placement_never_panics_on_adversarial_inputs() {
    // The rebalance phase feeds compute_placement whatever the popularity
    // all-reduce produced — including an all-zero vector at iteration 0 and,
    // under fault injection, stale or extreme counts. The scheduler must
    // keep its invariants (exact fill, ≥1 replica per class) for every
    // input that satisfies its documented preconditions, and never panic.
    let mut rng = StdRng::seed_from_u64(306);
    for case in 0..512 {
        let e = rng.gen_range(1..64usize);
        let total_slots = e + rng.gen_range(0..(e * 7 + 1));
        let popularity: Vec<u64> = (0..e)
            .map(|_| match rng.gen_range(0..4usize) {
                0 => 0,
                1 => rng.gen_range(0..100u64),
                2 => rng.gen_range(0..1_000_000_000u64),
                _ => u64::MAX - rng.gen_range(0..3u64),
            })
            .collect();
        let counts = compute_placement(&popularity, total_slots);
        assert_eq!(counts.len(), e, "case {case}");
        assert_eq!(counts.iter().sum::<usize>(), total_slots, "case {case}");
        assert!(counts.iter().all(|&c| c >= 1), "case {case}");
    }
    // The spec's exact edge cases: no signal at all, and the tightest
    // possible slot budget (total_slots == e forces exactly one each).
    for e in [1usize, 2, 7, 32] {
        let counts = compute_placement(&vec![0u64; e], e);
        assert_eq!(counts, vec![1usize; e], "total_pop == 0 with minimal slots");
        let counts = compute_placement(&vec![u64::MAX; e], e);
        assert_eq!(counts, vec![1usize; e], "saturating demand with minimal slots");
    }
}

#[test]
fn more_popular_classes_never_get_fewer_replicas() {
    let mut rng = StdRng::seed_from_u64(302);
    for _ in 0..64 {
        let e = rng.gen_range(2..16usize);
        let popularity = random_popularity(&mut rng, e, 100_000);
        let counts = compute_placement(&popularity, e * 4);
        for i in 0..e {
            for j in 0..e {
                // Strictly greater popularity must give at least as many
                // replicas (up to the ±1 rounding-correction wiggle).
                if popularity[i] > popularity[j] {
                    assert!(
                        counts[i] + 1 >= counts[j],
                        "pop {} > {} but replicas {} < {} - 1",
                        popularity[i],
                        popularity[j],
                        counts[i],
                        counts[j]
                    );
                }
            }
        }
    }
}

#[test]
fn placement_roundtrips_counts() {
    let mut rng = StdRng::seed_from_u64(303);
    for _ in 0..64 {
        let e = rng.gen_range(2..12usize);
        let s = rng.gen_range(1..5usize);
        let popularity: Vec<u64> = (0..e).map(|_| rng.gen_range(1..10_000u64)).collect();
        // Choose a slot total that tiles ranks exactly.
        let total_slots = (e * 3).div_ceil(s) * s;
        let counts = compute_placement(&popularity, total_slots);
        let placement = ExpertPlacement::from_counts(&counts, s);
        assert_eq!(placement.replica_counts(), counts);
        // Host ranks are contiguous and cover every class.
        for class in 0..e {
            let hosts = placement.host_ranks(class);
            assert!(!hosts.is_empty());
            assert!(hosts.windows(2).all(|w| w[1] == w[0] + 1), "class {class}: {hosts:?}");
            assert!(*hosts.last().unwrap() < placement.ranks());
        }
    }
}

#[test]
fn diff_is_a_metric_like_count() {
    let mut rng = StdRng::seed_from_u64(304);
    for _ in 0..64 {
        let a: Vec<u64> = (0..4).map(|_| rng.gen_range(1..1000u64)).collect();
        let b: Vec<u64> = (0..4).map(|_| rng.gen_range(1..1000u64)).collect();
        let ca = compute_placement(&a, 16);
        let cb = compute_placement(&b, 16);
        let pa = ExpertPlacement::from_counts(&ca, 4);
        let pb = ExpertPlacement::from_counts(&cb, 4);
        assert_eq!(pa.diff_slots(&pa), 0);
        assert_eq!(pa.diff_slots(&pb), pb.diff_slots(&pa));
        assert!(pa.diff_slots(&pb) <= 16);
    }
}

#[test]
fn get_source_always_returns_a_host() {
    let mut rng = StdRng::seed_from_u64(305);
    for _ in 0..128 {
        let n_hosts = rng.gen_range(1..10usize);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n_hosts {
            set.insert(rng.gen_range(0..64usize));
        }
        let hosts: Vec<usize> = set.into_iter().collect();
        let rank = rng.gen_range(0..64usize);
        let src = get_source(&hosts, rank);
        assert!(hosts.contains(&src));
        if hosts.contains(&rank) {
            assert_eq!(src, rank, "local replicas must be preferred");
        }
    }
}
