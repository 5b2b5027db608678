// The persistent what-if cost cache: unit behavior of the
// (fingerprint, mask) table and its counters, then the cache through
// the Solve() API — a warm second solve answers >= 90% of probes from
// the cache with an identical schedule, a cost-model change (table
// stats attached) invalidates rather than serving stale costs, the
// cache's own byte cap evicts, a solve-level memory budget refuses
// inserts and degrades through the anytime machinery, and concurrent
// solves may share one cache (run under TSan in CI).

#include "cost/cost_cache.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/resource_tracker.h"
#include "common/rng.h"
#include "core/solver.h"
#include "core/validator.h"
#include "cost/table_stats.h"
#include "../test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;

TEST(CostCacheTest, LookupInsertAndCounters) {
  CostCache cache;
  cache.EnsureValid(42);
  double cost = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 2, &cost));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  EXPECT_TRUE(cache.Insert(1, 2, 3.5));
  EXPECT_TRUE(cache.Lookup(1, 2, &cost));
  EXPECT_EQ(cost, 3.5);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.ApproxBytes(), CostCache::kEntryBytes);

  // Same key, same fingerprint+mask pair: no double charge.
  EXPECT_TRUE(cache.Insert(1, 2, 3.5));
  EXPECT_EQ(cache.entries(), 1);

  // Same fingerprint under a different mask is a distinct entry.
  EXPECT_TRUE(cache.Insert(1, 4, 9.0));
  EXPECT_EQ(cache.entries(), 2);
}

TEST(CostCacheTest, EnsureValidClearsOnTokenChangeOnly) {
  CostCache cache;
  EXPECT_TRUE(cache.EnsureValid(7));  // First validation.
  cache.Insert(1, 1, 1.0);
  cache.Insert(2, 2, 2.0);

  EXPECT_FALSE(cache.EnsureValid(7));  // Already valid: keeps entries.
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.invalidations(), 0);

  EXPECT_TRUE(cache.EnsureValid(8));  // Token changed: drop everything.
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.evictions(), 2);  // The dropped entries.
  EXPECT_EQ(cache.validity_token(), 8u);
  double cost = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 1, &cost));
}

TEST(CostCacheTest, OwnByteCapEvictsShards) {
  // Room for four accounted entries; insert far more.
  CostCache cache(4 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  for (uint64_t i = 0; i < 256; ++i) {
    EXPECT_TRUE(cache.Insert(i, i * 31 + 1, static_cast<double>(i)));
  }
  EXPECT_LE(cache.ApproxBytes(), cache.max_bytes());
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_GT(cache.entries(), 0);  // The newest entry always fits.
}

TEST(CostCacheTest, TrackerRefusalSkipsInsertAndTripsLimit) {
  CostCache cache;
  cache.EnsureValid(1);
  ResourceTracker tracker(CostCache::kEntryBytes);  // Budget: one entry.
  EXPECT_TRUE(cache.Insert(1, 1, 1.0, &tracker));
  EXPECT_FALSE(tracker.limit_exceeded());
  EXPECT_FALSE(cache.Insert(2, 2, 2.0, &tracker));  // Over budget.
  EXPECT_TRUE(tracker.limit_exceeded());
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(tracker.current_bytes(MemComponent::kCostCache),
            CostCache::kEntryBytes);
  // Reads keep working after a refusal.
  double cost = 0.0;
  EXPECT_TRUE(cache.Lookup(1, 1, &cost));
  EXPECT_EQ(cost, 1.0);
}

TEST(CostCacheTest, EvictionReleasesTrackerChargeExactlyOnce) {
  // Regression: EvictForSpace used to clear shards without releasing
  // the entries' ResourceTracker reservation, so under cap pressure
  // the mem.cost_cache gauge grew monotonically with churn and
  // eventually tripped a limit that the live entries were nowhere
  // near. The tracker's current bytes must equal the *resident*
  // entries exactly, after any amount of eviction.
  CostCache cache(4 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  // Budget for 16 entries: far above the 4-entry cap, so with correct
  // release accounting the limit can never trip.
  ResourceTracker tracker(16 * CostCache::kEntryBytes);
  for (uint64_t i = 0; i < 512; ++i) {
    EXPECT_TRUE(cache.Insert(i * 2654435761u + 1, i + 1,
                             static_cast<double>(i), &tracker));
    EXPECT_EQ(tracker.current_bytes(MemComponent::kCostCache),
              cache.entries() * CostCache::kEntryBytes);
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_FALSE(tracker.limit_exceeded());
  EXPECT_LE(cache.ApproxBytes(), cache.max_bytes());
}

TEST(CostCacheTest, InvalidationReleasesTrackerCharge) {
  CostCache cache;
  cache.EnsureValid(1);
  ResourceTracker tracker(64 * CostCache::kEntryBytes);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.Insert(i + 1, i + 1, 1.0, &tracker));
  }
  ASSERT_EQ(tracker.current_bytes(MemComponent::kCostCache),
            8 * CostCache::kEntryBytes);
  // A token change drops every entry; the charge must go with them.
  EXPECT_TRUE(cache.EnsureValid(2, &tracker));
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(tracker.current_bytes(MemComponent::kCostCache), 0);
}

TEST(CostCacheTest, EvictionSweepDoesNotStarveShards) {
  // Regression: the eviction sweep used to start at a deterministic
  // shard, so an entry whose shard sat "behind" the usual start could
  // survive unboundedly many eviction episodes while the cache stayed
  // at its cap. The rotating cursor guarantees every shard is reached;
  // a marker entry must not outlive heavy churn.
  CostCache cache(2 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  ASSERT_TRUE(cache.Insert(1, 1, 1.0));
  double cost = 0.0;
  ASSERT_TRUE(cache.Lookup(1, 1, &cost));
  for (uint64_t i = 0; i < 512; ++i) {
    cache.Insert((i + 2) * 2654435761u, i + 2, static_cast<double>(i));
  }
  EXPECT_FALSE(cache.Lookup(1, 1, &cost));
  EXPECT_LE(cache.ApproxBytes(), cache.max_bytes());
}

TEST(CostCacheTest, PublishToMirrorsResidentState) {
  CostCache cache;
  cache.EnsureValid(5);
  cache.Insert(1, 1, 1.0);
  cache.Insert(2, 2, 2.0);
  cache.EnsureValid(6);
  cache.Insert(3, 3, 3.0);
  MetricsRegistry registry;
  cache.PublishTo(&registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.GaugeValue("cost_cache.entries"), 1);
  EXPECT_EQ(snapshot.GaugeValue("cost_cache.bytes"), CostCache::kEntryBytes);
  EXPECT_EQ(snapshot.GaugeValue("cost_cache.invalidations"), 1);
}

// ---------------------------------------------------------------------
// Through the Solve() API.

SolveOptions CachedOptions(CostCache* cache) {
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.k = 2;
  options.num_threads = 1;
  options.cost_cache = cache;
  return options;
}

TEST(CostCacheSolveTest, WarmSecondSolveHitsAtLeastNinetyPercent) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  CostCache cache;
  const SolveOptions options = CachedOptions(&cache);

  const SolveResult cold = Solve(fixture->problem, options).value();
  EXPECT_GT(cold.stats.cost_cache_misses, 0);
  EXPECT_GT(cache.entries(), 0);

  // A *fresh* engine over the same workload: every probe answered
  // without recosting came from the persistent cache.
  auto warm_fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                        /*block_size=*/10);
  const SolveResult warm = Solve(warm_fixture->problem, options).value();
  const int64_t probes =
      warm.stats.cost_cache_hits + warm.stats.cost_cache_misses;
  ASSERT_GT(probes, 0);
  EXPECT_GE(static_cast<double>(warm.stats.cost_cache_hits),
            0.9 * static_cast<double>(probes));
  EXPECT_EQ(cache.invalidations(), 0);

  // Cached costs are bit-identical to computed ones (both sum the
  // per-statement profile in the same order), so the schedule is too.
  EXPECT_EQ(warm.schedule.configs, cold.schedule.configs);
  EXPECT_EQ(warm.schedule.total_cost, cold.schedule.total_cost);
}

TEST(CostCacheSolveTest, CachedSolveMatchesUncachedExactly) {
  auto fixture = MakeRandomProblem(/*seed=*/9, /*num_segments=*/4,
                                   /*block_size=*/10);
  SolveOptions plain = CachedOptions(nullptr);
  const SolveResult uncached = Solve(fixture->problem, plain).value();

  CostCache cache;
  auto cached_fixture = MakeRandomProblem(/*seed=*/9, /*num_segments=*/4,
                                          /*block_size=*/10);
  const SolveResult cached =
      Solve(cached_fixture->problem, CachedOptions(&cache)).value();
  EXPECT_EQ(cached.schedule.configs, uncached.schedule.configs);
  EXPECT_EQ(cached.schedule.total_cost, uncached.schedule.total_cost);
  // Without a cache the stats report zero traffic.
  EXPECT_EQ(uncached.stats.cost_cache_hits, 0);
  EXPECT_EQ(uncached.stats.cost_cache_misses, 0);
}

TEST(CostCacheSolveTest, TableStatsChangeInvalidatesInsteadOfServingStale) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  CostCache cache;
  const SolveOptions options = CachedOptions(&cache);
  const SolveResult cold = Solve(fixture->problem, options).value();
  ASSERT_EQ(cache.invalidations(), 0);

  // Attaching table stats changes CostModel::Fingerprint(), hence the
  // validity token: the next solve must drop the cache and recost
  // every distinct key — never mix costs from two model states.
  Table table(fixture->schema);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({rng.UniformInt(0, 9),
                                rng.UniformInt(0, 99'999), 7,
                                rng.UniformInt(1000, 1999)})
                    .ok());
  }
  const TableStats stats = TableStats::FromTable(table);
  fixture->model->SetTableStats(&stats);

  const SolveResult refreshed = Solve(fixture->problem, options).value();
  EXPECT_EQ(cache.invalidations(), 1);
  // Misses match the cold solve exactly: the same distinct
  // (shape, config) keys were all recosted. (Hits may be non-zero —
  // duplicate shapes inside the solve reuse the fresh entries.)
  EXPECT_EQ(refreshed.stats.cost_cache_misses, cold.stats.cost_cache_misses);

  // Detaching restores the original fingerprint: invalidate again.
  fixture->model->SetTableStats(nullptr);
  const SolveResult detached = Solve(fixture->problem, options).value();
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_GT(detached.stats.cost_cache_misses, 0);
}

TEST(CostCacheSolveTest, CacheByteCapEvictsDuringSolve) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  // Far smaller than the workload's shape x config product.
  CostCache tiny(2 * CostCache::kEntryBytes);
  const SolveResult result =
      Solve(fixture->problem, CachedOptions(&tiny)).value();
  EXPECT_GT(result.stats.cost_cache_evictions, 0);
  EXPECT_LE(tiny.ApproxBytes(), tiny.max_bytes());
  // Eviction never changes answers, only reuse.
  auto plain = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                 /*block_size=*/10);
  const SolveResult reference =
      Solve(plain->problem, CachedOptions(nullptr)).value();
  EXPECT_EQ(result.schedule.configs, reference.schedule.configs);
  EXPECT_EQ(result.schedule.total_cost, reference.schedule.total_cost);
}

TEST(CostCacheSolveTest, SolveMemoryBudgetRefusesInsertsAndDegrades) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  CostCache cache;
  SolveOptions options = CachedOptions(&cache);
  options.memory_limit_bytes = 512;  // Below even this tiny problem.
  const Result<SolveResult> solved = Solve(fixture->problem, options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  // Cache inserts charged to the solve tracker were refused, the limit
  // flag tripped, and the solve degraded through the same anytime
  // machinery as a deadline — still a valid best-effort schedule.
  EXPECT_TRUE(solved->stats.memory_limit_hit);
  EXPECT_TRUE(solved->stats.best_effort);
  EXPECT_TRUE(ValidateSchedule(fixture->problem, solved->schedule, options.k)
                  .ok());
  // The refused inserts bounded the cache's growth under the budget.
  EXPECT_LE(cache.ApproxBytes(), int64_t{512} + CostCache::kEntryBytes);
}

TEST(CostCacheSolveTest, ConcurrentSolvesMayShareOneCache) {
  // Four threads, each with its own engine over the same workload,
  // all funneling through one cache. Under TSan this exercises the
  // sharded Lookup/Insert and EnsureValid against concurrent solves;
  // everywhere it proves sharing cannot change any schedule.
  auto reference_fixture = MakeRandomProblem(/*seed=*/11, /*num_segments=*/4,
                                             /*block_size=*/10);
  const SolveResult reference =
      Solve(reference_fixture->problem, CachedOptions(nullptr)).value();

  CostCache cache;
  constexpr int kThreads = 4;
  std::vector<SolveResult> results(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fixture = MakeRandomProblem(/*seed=*/11, /*num_segments=*/4,
                                       /*block_size=*/10);
      for (int round = 0; round < 2; ++round) {
        const Result<SolveResult> solved =
            Solve(fixture->problem, CachedOptions(&cache));
        if (!solved.ok()) {
          failures.fetch_add(1);
          return;
        }
        results[t] = *solved;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t].schedule.configs, reference.schedule.configs);
    EXPECT_EQ(results[t].schedule.total_cost, reference.schedule.total_cost);
  }
  EXPECT_EQ(cache.invalidations(), 0);  // One shared validity token.
  EXPECT_GT(cache.hits(), 0);
}

}  // namespace
}  // namespace cdpd
