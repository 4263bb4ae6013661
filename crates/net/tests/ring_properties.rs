//! Property tests for the consistent-hash ring behind [`ShardRouter`]:
//! removing one of N shards remaps only that shard's keys (bounded well
//! below a full reshuffle), re-adding restores the exact prior
//! assignment, and the assignment is a pure function of (seed,
//! virtual_nodes, membership) — independent of insertion order and of
//! which router process computes it.

mod common;

use common::start_router;
use eugene_net::shard::ShardConfig;
use eugene_net::HashRing;
use eugene_serve::RuntimeConfig;
use proptest::prelude::*;
use std::time::Duration;

const KEYS: u64 = 256;

fn assignments(ring: &HashRing, keys: u64) -> Vec<Option<usize>> {
    (0..keys).map(|k| ring.route(k)).collect()
}

fn ring_of(seed: u64, virtual_nodes: usize, shards: usize) -> HashRing {
    let mut ring = HashRing::new(seed, virtual_nodes);
    for shard in 0..shards {
        ring.insert(shard);
    }
    ring
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Removing one shard moves ONLY keys that lived on it, and not many
    /// more than its fair share. With `v` virtual nodes per shard the
    /// expected share is keys/N; we allow a generous constant-factor
    /// slack (hash variance, small keyspace) that still rules out the
    /// keys*(N-1)/N a modulo scheme would remap.
    #[test]
    fn removal_remaps_only_the_victims_fair_share(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=8,
        victim_ix in 0usize..8,
    ) {
        let victim = victim_ix % shards;
        let mut ring = ring_of(seed, virtual_nodes, shards);
        let before = assignments(&ring, KEYS);
        ring.remove(victim);
        let after = assignments(&ring, KEYS);

        let mut moved = 0u64;
        for (b, a) in before.iter().zip(&after) {
            if b == a {
                continue;
            }
            // A key may only change shard if it was on the victim.
            prop_assert_eq!(*b, Some(victim), "a surviving shard's key moved");
            prop_assert!(a.is_some(), "key fell off a non-empty ring");
            moved += 1;
        }
        let fair_share = KEYS.div_ceil(shards as u64);
        let bound = fair_share * 5 / 2 + 8;
        prop_assert!(
            moved <= bound,
            "removal remapped {} keys; fair share {} (bound {})",
            moved, fair_share, bound
        );
    }

    /// Remove + re-insert is a no-op on the assignment: the ring sorts
    /// its points, so membership alone determines routing.
    #[test]
    fn reinsertion_restores_the_exact_prior_assignment(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=8,
        victim_ix in 0usize..8,
    ) {
        let victim = victim_ix % shards;
        let mut ring = ring_of(seed, virtual_nodes, shards);
        let before = assignments(&ring, KEYS);
        ring.remove(victim);
        ring.insert(victim);
        prop_assert_eq!(before, assignments(&ring, KEYS));
    }

    /// Two rings with the same (seed, virtual_nodes, membership) agree on
    /// every key even when the membership was built in reversed order —
    /// i.e. a restarted router reproduces the assignment exactly.
    #[test]
    fn assignment_is_deterministic_and_order_free(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=8,
    ) {
        let forward = ring_of(seed, virtual_nodes, shards);
        let mut reversed = HashRing::new(seed, virtual_nodes);
        for shard in (0..shards).rev() {
            reversed.insert(shard);
        }
        prop_assert_eq!(assignments(&forward, KEYS), assignments(&reversed, KEYS));
    }

    /// Replica placement: the primary is the ring owner, the standby is
    /// a *different* shard, and the whole group is duplicate-free — for
    /// every key, at every replica width the ring can satisfy.
    #[test]
    fn replica_groups_are_distinct_and_led_by_the_owner(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=8,
        replicas in 2usize..=4,
    ) {
        let ring = ring_of(seed, virtual_nodes, shards);
        for key in 0..KEYS {
            let group = ring.route_replicas(key, replicas);
            prop_assert_eq!(group.len(), replicas.min(shards));
            prop_assert_eq!(Some(group[0]), ring.route(key), "primary must be the owner");
            let mut dedup = group.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), group.len(), "replica group has a duplicate");
            prop_assert!(group.len() < 2 || group[0] != group[1], "primary == standby");
        }
    }

    /// Failover lands on the warm standby: removing a key's primary hands
    /// the key to exactly the shard `route_replicas` named second. This
    /// is the property that makes transparent replay correct — the
    /// standby is the new owner, not an arbitrary survivor.
    #[test]
    fn standby_is_the_removal_successor(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=8,
    ) {
        let ring = ring_of(seed, virtual_nodes, shards);
        for key in 0..KEYS {
            let group = ring.route_replicas(key, 2);
            prop_assert_eq!(group.len(), 2.min(shards));
            if group.len() < 2 {
                continue;
            }
            let mut without = ring.clone();
            without.remove(group[0]);
            prop_assert_eq!(
                without.route(key), Some(group[1]),
                "key {}'s failover owner is not its standby", key
            );
        }
    }

    /// Live migration (scale-out) moves only the bounded-remap ranges:
    /// every key either keeps its owner or moves TO the new shard, and
    /// the volume stays near the newcomer's fair share — never a full
    /// reshuffle.
    #[test]
    fn scale_out_moves_only_the_newcomers_ranges(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=7,
    ) {
        let mut ring = ring_of(seed, virtual_nodes, shards);
        let before = assignments(&ring, KEYS);
        let newcomer = shards;
        ring.insert(newcomer);
        let after = assignments(&ring, KEYS);
        let mut moved = 0u64;
        for (b, a) in before.iter().zip(&after) {
            if b == a {
                continue;
            }
            prop_assert_eq!(*a, Some(newcomer), "a migrated key went somewhere else");
            moved += 1;
        }
        let fair_share = KEYS.div_ceil(shards as u64 + 1);
        let bound = fair_share * 5 / 2 + 8;
        prop_assert!(
            moved <= bound,
            "scale-out remapped {} keys; fair share {} (bound {})",
            moved, fair_share, bound
        );
    }

    /// During the double-routing window every migrating key has >= 1
    /// serving owner: the newcomer (the post-cutover ring) names it, and
    /// falling back past the newcomer (the pre-cutover view — what the
    /// router does when the newcomer is not yet dialable) always names a
    /// previous owner that is still alive. Both views resolve, for every
    /// key, mid-migration.
    #[test]
    fn double_routing_window_always_has_an_owner(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=7,
    ) {
        let mut ring = ring_of(seed, virtual_nodes, shards);
        let before = assignments(&ring, KEYS);
        let newcomer = shards;
        ring.insert(newcomer);
        for key in 0..KEYS {
            let group = ring.route_replicas(key, 2);
            prop_assert!(!group.is_empty(), "key {} lost all owners mid-migration", key);
            if group[0] == newcomer {
                // The fallback past the newcomer must be the key's
                // pre-migration owner — the shard still holding its
                // state during the window.
                prop_assert_eq!(
                    Some(group[1]), before[key as usize],
                    "key {}'s fallback is not its previous owner", key
                );
            } else {
                // Non-migrating keys keep their owner through the window.
                prop_assert_eq!(Some(group[0]), before[key as usize]);
            }
        }
    }

    /// Rebalancing (vnode reweighting) only exchanges keys between the
    /// reweighted shards; everyone else's assignment is untouched, and
    /// the weight survives a remove/insert cycle (a revived shard keeps
    /// its rebalanced footprint).
    #[test]
    fn reweighting_is_local_and_persistent(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 3usize..=8,
        step in 8usize..=32,
    ) {
        let mut ring = ring_of(seed, virtual_nodes, shards);
        let before = assignments(&ring, KEYS);
        // Move `step` vnodes from shard 0 (hot) to shard 1 (cold).
        ring.set_vnodes(0, virtual_nodes - step.min(virtual_nodes - 1));
        ring.set_vnodes(1, virtual_nodes + step);
        let after = assignments(&ring, KEYS);
        for (key, (b, a)) in before.iter().zip(&after).enumerate() {
            if b == a {
                continue;
            }
            prop_assert!(
                *b == Some(0) || *a == Some(1),
                "key {} moved {:?} -> {:?} without touching a reweighted shard",
                key, b, a
            );
        }
        let snapshot = assignments(&ring, KEYS);
        ring.remove(0);
        ring.insert(0);
        ring.remove(1);
        ring.insert(1);
        prop_assert_eq!(snapshot, assignments(&ring, KEYS), "weights must persist");
    }

    /// Different seeds genuinely reshuffle (the seed is load-bearing, not
    /// decorative) while each individual seed spreads keys over every
    /// shard.
    #[test]
    fn every_shard_owns_keys(
        seed in 0u64..1_000_000,
        virtual_nodes in 48usize..=128,
        shards in 2usize..=8,
    ) {
        let ring = ring_of(seed, virtual_nodes, shards);
        let mut counts = vec![0u64; shards];
        for a in assignments(&ring, KEYS) {
            counts[a.expect("non-empty ring routes every key")] += 1;
        }
        for (shard, &owned) in counts.iter().enumerate() {
            prop_assert!(owned > 0, "shard {} owns none of {} keys", shard, KEYS);
        }
    }
}

// ---------------------------------------------------------------------
// Restart determinism at the router level: two
// independently-booted routers with the same ShardConfig seed agree on
// the full key→shard map (the property the ring tests prove, observed
// through the public ShardRouter surface).
// ---------------------------------------------------------------------

#[test]
fn routers_agree_across_restart() {
    let config = || ShardConfig {
        seed: 0x5EED,
        virtual_nodes: 64,
        ..ShardConfig::default()
    };
    let runtime = RuntimeConfig {
        num_workers: 1,
        ..RuntimeConfig::default()
    };
    let ramp = vec![0.95f32];
    let first = start_router(3, ramp.clone(), Duration::from_millis(1), runtime, config());
    let map: Vec<Option<usize>> = (0..KEYS).map(|k| first.shard_for_key(k)).collect();
    first.shutdown();
    let second = start_router(3, ramp, Duration::from_millis(1), runtime, config());
    let remap: Vec<Option<usize>> = (0..KEYS).map(|k| second.shard_for_key(k)).collect();
    second.shutdown();
    assert_eq!(
        map, remap,
        "router restart with the same seed must not remap"
    );
}
