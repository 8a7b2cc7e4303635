// Serving-registry tests (tune/registry.hpp): the one-snapshot hot-swap
// layer must be a transparent wrapper — bit-identical to direct
// CompiledBank serving at every thread count — while adding what a
// bank alone cannot: concurrent multi-bank streams, RCU publishes
// under load, and refits that can fail without taking serving down.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "collbench/dataset.hpp"
#include "simmpi/coll/decision.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/online.hpp"
#include "tune/registry.hpp"
#include "tune/selector.hpp"

namespace mpicp {
namespace {

namespace fi = support::faultinject;

/// Seeded synthetic dataset (same recipe as test_compiled_bank): 3-6
/// algorithms with distinct random cost models over a random grid.
bench::Dataset random_dataset(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  bench::Dataset ds("registry", sim::MpiLib::kOpenMPI,
                    sim::Collective::kBcast, "Hydra");
  const int num_uids = 3 + static_cast<int>(rng.uniform_int(4));
  const std::vector<int> nodes = {2, 4, 8, 16};
  const std::vector<int> ppns = {1, 1 + static_cast<int>(rng.uniform_int(8))};
  const std::vector<std::uint64_t> msizes = {
      std::uint64_t{1} << rng.uniform_int(8),
      std::uint64_t{1} << (8 + rng.uniform_int(8)),
      std::uint64_t{1} << (16 + rng.uniform_int(6))};
  for (int uid = 1; uid <= num_uids; ++uid) {
    const double a = rng.uniform(1.0, 50.0);
    const double b = rng.uniform(0.0, 5.0);
    const double c = rng.uniform(1e-4, 1e-2);
    for (const int n : nodes) {
      for (const int ppn : ppns) {
        for (const std::uint64_t m : msizes) {
          const double p = static_cast<double>(n) * ppn;
          const double t = a * std::log2(p + 1) + b * p +
                           c * static_cast<double>(m) + 1.0;
          for (int rep = 0; rep < 3; ++rep) {
            ds.add({uid, n, ppn, m, rng.lognormal_median(t, 0.08)});
          }
        }
      }
    }
  }
  return ds;
}

std::vector<bench::Instance> random_instances(std::uint64_t seed,
                                              int count) {
  support::Xoshiro256 rng(seed);
  std::vector<bench::Instance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back({1 + static_cast<int>(rng.uniform_int(64)),
                   1 + static_cast<int>(rng.uniform_int(16)),
                   std::uint64_t{1} << rng.uniform_int(22)});
  }
  return out;
}

std::shared_ptr<const tune::CompiledBank> compile_bank(
    const bench::Dataset& ds, const char* learner) {
  tune::Selector selector(tune::SelectorOptions{.learner = learner});
  EXPECT_GT(selector.fit(ds, ds.node_counts()).uids_total(), 0u);
  return std::make_shared<const tune::CompiledBank>(selector.compile());
}

/// Summed over every shard_stats() entry.
tune::BankRegistry::ShardStats total_stats(
    const tune::BankRegistry& registry) {
  tune::BankRegistry::ShardStats t;
  for (const auto& shard : registry.shard_stats()) {
    t.lookups += shard.lookups;
    t.hits += shard.hits;
    t.memo_hits += shard.memo_hits;
    t.memo_misses += shard.memo_misses;
    t.swaps += shard.swaps;
  }
  return t;
}

// ---- bit-identity with direct CompiledBank serving -----------------------

TEST(BankRegistry, SelectionsBitIdenticalToDirectServingAt1And4Threads) {
  const bench::Dataset ds = random_dataset(11);
  const auto bank = compile_bank(ds, "gam");
  const auto instances = random_instances(101, 48);

  tune::BankRegistry registry;
  const tune::BankKey key{ds.machine(), ds.collective()};
  registry.publish(key, bank);

  for (const int threads : {1, 4}) {
    support::ScopedThreads scoped(threads);
    for (const bench::Instance& inst : instances) {
      EXPECT_EQ(registry.select_uid(key, inst), bank->select_uid(inst))
          << "@" << threads << " threads";
    }
    EXPECT_EQ(registry.select_grid(key, instances),
              bank->select_grid(instances))
        << "@" << threads << " threads";
  }
}

TEST(BankRegistry, MixedStreamServeMatchesPerQuerySelection) {
  const bench::Dataset ds_a = random_dataset(13);
  const bench::Dataset ds_b = random_dataset(29);
  const auto bank_a = compile_bank(ds_a, "gam");
  const auto bank_b = compile_bank(ds_b, "knn");
  const tune::BankKey key_a{"Hydra", sim::Collective::kBcast};
  const tune::BankKey key_b{"Jupiter", sim::Collective::kAllreduce};

  tune::BankRegistry registry;
  registry.publish(key_a, bank_a);
  registry.publish(key_b, bank_b);
  EXPECT_EQ(registry.num_banks(), 2u);

  support::Xoshiro256 rng(7);
  std::vector<tune::BankRegistry::Query> stream;
  for (const bench::Instance& inst : random_instances(103, 200)) {
    stream.push_back({rng.uniform_int(2) == 0 ? key_a : key_b, inst});
  }
  std::vector<int> expected;
  expected.reserve(stream.size());
  for (const auto& q : stream) {
    expected.push_back((q.key == key_a ? bank_a : bank_b)->select_uid(q.inst));
  }
  for (const int threads : {1, 4}) {
    support::ScopedThreads scoped(threads);
    EXPECT_EQ(registry.serve(stream), expected) << threads << " threads";
  }
}

// ---- hot swap semantics ---------------------------------------------------

TEST(BankRegistry, PublishReplacesBankAndBumpsVersion) {
  const auto bank1 = compile_bank(random_dataset(17), "gam");
  const auto bank2 = compile_bank(random_dataset(19), "gam");
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};

  tune::BankRegistry registry;
  EXPECT_EQ(registry.lookup(key), nullptr);
  EXPECT_EQ(registry.version(key), 0u);

  const std::uint64_t v1 = registry.publish(key, bank1);
  EXPECT_EQ(registry.lookup(key), bank1);
  EXPECT_EQ(registry.version(key), v1);

  const std::uint64_t v2 = registry.publish(key, bank2);
  EXPECT_GT(v2, v1);
  EXPECT_EQ(registry.lookup(key), bank2);
  EXPECT_EQ(registry.num_banks(), 1u);
}

/// Hot-swap traffic: each key's bank versions (version 0 is live first),
/// the (key, version) publishes spread through the drain, the queries.
struct SwapTraffic {
  std::vector<tune::BankKey> keys;
  std::vector<std::vector<std::shared_ptr<const tune::CompiledBank>>> banks;
  std::vector<std::pair<std::size_t, std::size_t>> publishes;
  std::vector<tune::BankRegistry::Query> stream;
};

/// Four keys whose versions mix GAM, KNN and XGBoost banks, five
/// publishes (key 0 back to its first bank under a fresh version), and a
/// stream that revisits 96 instances so memo hits race the swaps.
SwapTraffic multi_key_traffic() {
  const char* const learners[] = {"gam", "knn", "xgboost"};
  SwapTraffic t{.keys = {{"Hydra", sim::Collective::kAllreduce},
                         {"Hydra", sim::Collective::kBcast},
                         {"Jupiter", sim::Collective::kAllreduce},
                         {"SuperMUC", sim::Collective::kAlltoall}},
                .publishes = {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {0, 0}}};
  for (std::size_t k = 0; k < t.keys.size(); ++k) {
    t.banks.push_back(
        {compile_bank(random_dataset(53 + 2 * k), learners[k % 3]),
         compile_bank(random_dataset(54 + 2 * k), learners[(k + 1) % 3])});
  }
  const auto pool = random_instances(109, 96);
  support::Xoshiro256 rng(4242);
  for (int i = 0; i < 2048; ++i) {
    t.stream.push_back({t.keys[rng.uniform_int(t.keys.size())],
                        pool[rng.uniform_int(pool.size())]});
  }
  return t;
}

TEST(BankRegistry, SwapUnderLoadEveryAnswerIsFromSomePublishedVersion) {
  // One key swapped once mid-drain, then the serving-load shape.
  SwapTraffic single{.keys = {{"Hydra", sim::Collective::kBcast}},
                     .banks = {{compile_bank(random_dataset(23), "gam"),
                                compile_bank(random_dataset(47), "gam")}},
                     .publishes = {{0, 1}}};
  for (const bench::Instance& inst : random_instances(107, 400)) {
    single.stream.push_back({single.keys[0], inst});
  }
  for (const SwapTraffic& t : {single, multi_key_traffic()}) {
    const auto index_of = [&t](const tune::BankKey& key) {
      return static_cast<std::size_t>(
          std::find(t.keys.begin(), t.keys.end(), key) - t.keys.begin());
    };
    tune::BankRegistry registry;
    for (std::size_t k = 0; k < t.keys.size(); ++k) {
      registry.publish(t.keys[k], t.banks[k][0]);
    }
    support::ScopedThreads scoped(4);
    // Chunks of 8 queries: even chunks select one query at a time, odd
    // ones go through serve(). Publishes land on evenly spaced chunks;
    // in-flight selections must finish on whichever snapshot they
    // loaded — never a torn mix.
    constexpr std::size_t kChunk = 8;
    const std::size_t chunks = t.stream.size() / kChunk;
    const std::size_t every = chunks / (t.publishes.size() + 1);
    std::vector<int> picked(t.stream.size(), -1);
    support::parallel_for(chunks, 1, [&](std::size_t c) {
      if (c > 0 && c % every == 0 && c / every <= t.publishes.size()) {
        const auto [k, v] = t.publishes[c / every - 1];
        registry.publish(t.keys[k], t.banks[k][v]);
      }
      const std::span<const tune::BankRegistry::Query> chunk(
          t.stream.data() + c * kChunk, kChunk);
      if (c % 2 == 1) {
        const std::vector<int> served = registry.serve(chunk);
        std::copy(served.begin(), served.end(), picked.begin() + c * kChunk);
      } else {
        for (std::size_t i = 0; i < kChunk; ++i) {
          picked[c * kChunk + i] =
              registry.select_uid(chunk[i].key, chunk[i].inst);
        }
      }
    });
    // Linearizability oracle: each answer is what one of its key's
    // published versions selects.
    for (std::size_t i = 0; i < chunks * kChunk; ++i) {
      std::set<int> allowed;
      for (const auto& bank : t.banks[index_of(t.stream[i].key)]) {
        allowed.insert(bank->select_uid(t.stream[i].inst));
      }
      EXPECT_EQ(allowed.count(picked[i]), 1u)
          << "query " << i << " returned uid " << picked[i]
          << " which no published version selects";
    }

    // After the drain each key serves its last published version, and
    // no memo entry of an earlier version answers for it.
    std::vector<std::size_t> last(t.keys.size(), 0);
    for (const auto& [k, v] : t.publishes) last[k] = v;
    std::vector<int> expected;
    for (std::size_t k = 0; k < t.keys.size(); ++k) {
      EXPECT_EQ(registry.lookup(t.keys[k]), t.banks[k][last[k]]);
    }
    for (const auto& q : t.stream) {
      const std::size_t k = index_of(q.key);
      expected.push_back(t.banks[k][last[k]]->select_uid(q.inst));
    }
    EXPECT_EQ(registry.serve(t.stream), expected);
    EXPECT_EQ(total_stats(registry).swaps,
              t.keys.size() + t.publishes.size());
  }
}

// ---- refit and fault fallback ---------------------------------------------

TEST(BankRegistry, RefitPublishesAndFaultedRefitKeepsLastGoodBank) {
  const bench::Dataset ds = random_dataset(31);
  const tune::BankKey key{ds.machine(), ds.collective()};
  tune::BankRegistry registry;

  const auto outcome1 =
      registry.refit_and_publish(key, ds, ds.node_counts());
  ASSERT_TRUE(outcome1.published) << outcome1.error;
  EXPECT_GT(outcome1.version, 0u);
  const auto good_bank = registry.lookup(key);
  ASSERT_NE(good_bank, nullptr);

  // Injected fit failures deep enough to exhaust the whole per-uid
  // fallback chain (configured -> knn -> median) for every uid: the
  // refit must fail, and the last good bank must keep serving.
  fi::Faults faults;
  for (const int uid : ds.uids()) faults.fit_failures[uid] = 1000;
  {
    fi::ScopedFaults scoped(std::move(faults));
    const auto outcome2 =
        registry.refit_and_publish(key, ds, ds.node_counts());
    EXPECT_FALSE(outcome2.published);
    EXPECT_FALSE(outcome2.error.empty());
    EXPECT_EQ(outcome2.version, outcome1.version);
  }
  EXPECT_EQ(registry.lookup(key), good_bank);
  EXPECT_EQ(registry.version(key), outcome1.version);
  const bench::Instance inst{8, 4, 4096};
  EXPECT_EQ(registry.select_uid(key, inst), good_bank->select_uid(inst));
}

TEST(BankRegistry, OnlineObservationsRefitIntoRegistry) {
  const bench::Dataset ds = random_dataset(37);
  tune::OnlineSelector online(
      {.candidate_uids = ds.uids(), .probes_per_algorithm = 3});
  // Replay the dataset's own measurements as online probes.
  for (const auto& rec : ds.records()) {
    online.record({rec.nodes, rec.ppn, rec.msize}, rec.uid, rec.time_us);
  }
  // A corrupted probe is refused at record(), so it cannot reach the
  // refit's Dataset and make it throw.
  const bench::Record& first = ds.records().front();
  for (const double bad : {std::numeric_limits<double>::infinity(), 2e9}) {
    EXPECT_THROW(online.record({first.nodes, first.ppn, first.msize},
                               first.uid, bad),
                 Error);
  }
  tune::BankRegistry registry;
  const tune::BankKey key{ds.machine(), ds.collective()};
  const bench::Dataset observed = online.observations_dataset(
      "online", sim::MpiLib::kOpenMPI, key.collective, key.machine);
  const auto outcome =
      registry.refit_and_publish(key, observed, observed.node_counts());
  ASSERT_TRUE(outcome.published) << outcome.error;
  const auto bank = registry.lookup(key);
  ASSERT_NE(bank, nullptr);
  for (const bench::Instance& inst : ds.instances()) {
    EXPECT_GT(registry.select_uid(key, inst), 0);
  }
}

// ---- contracts and accounting ---------------------------------------------

TEST(BankRegistry, MissingKeyThrowsAndOrDefaultFallsBack) {
  tune::BankRegistry registry;
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};
  const bench::Instance inst{8, 4, 1024};
  EXPECT_THROW((void)registry.select_uid(key, inst), std::exception);
  // No bank at all: the registry answers what an untuned launch would.
  EXPECT_EQ(registry.select_uid_or_default(key, inst,
                                           sim::MpiLib::kOpenMPI),
            sim::library_default_uid(sim::MpiLib::kOpenMPI,
                                     key.collective,
                                     inst.nodes * inst.ppn, inst.msize));
  EXPECT_THROW(registry.publish(key, nullptr), std::exception);
  EXPECT_THROW(
      registry.publish(key, std::make_shared<const tune::CompiledBank>()),
      std::exception);
}

TEST(BankRegistry, ShardStatsAccountLookupsMemoAndSwaps) {
  const auto bank = compile_bank(random_dataset(41), "gam");
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};
  tune::BankRegistry registry;
  ASSERT_EQ(registry.shard_stats().size(), 1u);  // one snapshot
  registry.publish(key, bank);

  const bench::Instance inst{8, 4, 1024};
  (void)registry.select_uid(key, inst);  // memo miss
  (void)registry.select_uid(key, inst);  // memo hit
  (void)registry.select_uid(key, inst);  // memo hit

  const auto stats = total_stats(registry);
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.memo_hits, 2u);
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.swaps, 1u);

  // A publish moves the version, so the same query misses the memo and
  // recomputes the same answer.
  const int before = registry.select_uid(key, inst);
  registry.publish(key, bank);
  EXPECT_EQ(registry.select_uid(key, inst), before);

  // Concurrent grid selection over repeated instances. Each thread has
  // its own memo, so every worker that meets a key misses on it once:
  // misses may exceed the distinct keys, but every selection is counted
  // exactly once and the picks never change.
  std::vector<bench::Instance> grid = random_instances(31, 12);
  const std::vector<bench::Instance> distinct = grid;
  for (int rep = 0; rep < 3; ++rep) {
    grid.insert(grid.end(), distinct.begin(), distinct.end());
  }
  std::set<std::tuple<std::uint64_t, int, int>> keys;
  for (const bench::Instance& i : distinct) {
    keys.emplace(i.msize, i.nodes, i.ppn);
  }
  registry.publish(key, bank);  // fresh version: no memo entry hits
  const auto t0 = total_stats(registry);
  support::ScopedThreads scoped(4);
  EXPECT_EQ(registry.select_grid(key, grid), bank->select_grid(grid));
  const auto t1 = total_stats(registry);
  EXPECT_EQ((t1.memo_hits - t0.memo_hits) + (t1.memo_misses - t0.memo_misses),
            grid.size());
  EXPECT_GE(t1.memo_misses - t0.memo_misses, keys.size());
}

// ---- the per-thread read path ----------------------------------------------

/// Two banks that disagree on `probe` (found by search).
struct DisagreeingBanks {
  std::shared_ptr<const tune::CompiledBank> a;
  std::shared_ptr<const tune::CompiledBank> b;
  bench::Instance probe;
};

DisagreeingBanks disagreeing_banks() {
  DisagreeingBanks out{compile_bank(random_dataset(53), "gam"),
                       compile_bank(random_dataset(59), "gam"),
                       {}};
  for (const bench::Instance& inst : random_instances(109, 400)) {
    if (out.a->select_uid(inst) != out.b->select_uid(inst)) {
      out.probe = inst;
      return out;
    }
  }
  ADD_FAILURE() << "no instance separates the two banks";
  return out;
}

TEST(BankRegistryReadPath, ServeAccountsEveryQueryOnceAcrossThreadCells) {
  const bench::Dataset ds_a = random_dataset(61);
  const bench::Dataset ds_b = random_dataset(67);
  const auto bank_a = compile_bank(ds_a, "gam");
  const auto bank_b = compile_bank(ds_b, "knn");
  const tune::BankKey key_a{"Hydra", sim::Collective::kBcast};
  const tune::BankKey key_b{"SuperMUC", sim::Collective::kAlltoall};
  tune::BankRegistry registry;
  registry.publish(key_a, bank_a);
  registry.publish(key_b, bank_b);

  // A mixed stream with repeats, so both memo hits and misses occur.
  support::Xoshiro256 rng(71);
  const auto distinct = random_instances(113, 150);
  std::vector<tune::BankRegistry::Query> stream;
  for (int i = 0; i < 2000; ++i) {
    stream.push_back({rng.uniform_int(2) == 0 ? key_a : key_b,
                      distinct[rng.uniform_int(distinct.size())]});
  }
  std::vector<int> expected;
  for (const auto& q : stream) {
    expected.push_back((q.key == key_a ? bank_a : bank_b)->select_uid(q.inst));
  }

  const auto before = total_stats(registry);
  support::ScopedThreads scoped(4);
  EXPECT_EQ(registry.serve(stream), expected);
  const auto after = total_stats(registry);
  const std::uint64_t queries = stream.size();
  EXPECT_EQ(after.lookups - before.lookups, queries);
  EXPECT_EQ(after.hits - before.hits, queries);
  EXPECT_EQ((after.memo_hits - before.memo_hits) +
                (after.memo_misses - before.memo_misses),
            queries);
  EXPECT_GT(after.memo_hits - before.memo_hits, 0u);
  EXPECT_EQ(after.swaps, 2u);
}

TEST(BankRegistryReadPath, PicksStayExactAcrossAWholesaleMemoClear) {
  const auto bank = compile_bank(random_dataset(73), "gam");
  const tune::BankKey key{"Hydra", sim::Collective::kAllreduce};
  tune::BankRegistry registry;
  registry.publish(key, bank);

  // kMemoSlots distinct off-grid instances: more than the memo holds
  // before it clears at 3/4 load, so at least one wholesale clear falls
  // after the first 1000, whatever this thread's memo held before.
  std::vector<bench::Instance> instances;
  instances.reserve(tune::BankRegistry::kMemoSlots);
  for (int nodes = 1; nodes <= 64; ++nodes) {
    for (int ppn = 1; ppn <= 16; ++ppn) {
      for (int shift = 0; shift < 32; ++shift) {
        instances.push_back({nodes, ppn, (std::uint64_t{1} << shift) + 3});
      }
    }
  }
  ASSERT_EQ(instances.size(), tune::BankRegistry::kMemoSlots);
  support::ScopedThreads scoped(1);
  for (const bench::Instance& inst : instances) {
    ASSERT_EQ(registry.select_uid(key, inst), bank->select_uid(inst));
  }
  const auto before = total_stats(registry);
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(registry.select_uid(key, instances[i]),
              bank->select_uid(instances[i]));
  }
  const auto after = total_stats(registry);
  // Cleared, not kept: every repeat recomputes.
  EXPECT_EQ(after.memo_misses - before.memo_misses, 1000u);
  EXPECT_EQ(after.memo_hits, before.memo_hits);
}

TEST(BankRegistryReadPath, RegistryAtARecycledAddressServesItsOwnBank) {
  const DisagreeingBanks banks = disagreeing_banks();
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};
  std::optional<tune::BankRegistry> registry;
  for (int round = 0; round < 200; ++round) {
    // Each round's registry sits at the last one's address (the
    // optional's storage); this thread's snapshot cache, keyed by that
    // address, must not answer from the dead registry.
    registry.emplace();
    const auto& bank = round % 3 == 0 ? banks.a : banks.b;
    registry->publish(key, bank);
    ASSERT_EQ(registry->select_uid(key, banks.probe),
              bank->select_uid(banks.probe))
        << "round " << round;
    registry.reset();
  }
}

TEST(BankRegistryReadPath, PublishIsVisibleToThePublisherAndPoolWorkers) {
  const DisagreeingBanks banks = disagreeing_banks();
  const tune::BankKey key{"Hydra", sim::Collective::kBcast};
  tune::BankRegistry registry;
  registry.publish(key, banks.a);

  support::ScopedThreads scoped(4);
  const std::vector<bench::Instance> grid(256, banks.probe);
  const std::vector<tune::BankRegistry::Query> stream(256,
                                                      {key, banks.probe});
  // Warm every thread's snapshot cache and memo on bank A.
  EXPECT_EQ(registry.serve(stream),
            std::vector<int>(256, banks.a->select_uid(banks.probe)));
  EXPECT_EQ(registry.select_grid(key, grid), banks.a->select_grid(grid));

  registry.publish(key, banks.b);
  const int want = banks.b->select_uid(banks.probe);
  EXPECT_EQ(registry.select_uid(key, banks.probe), want);
  EXPECT_EQ(registry.select_grid(key, grid), std::vector<int>(256, want));
  EXPECT_EQ(registry.serve(stream), std::vector<int>(256, want));
}

// Every key lives in one snapshot, so a publish to key B moves the
// generation every reader of key A checks. A's readers must still get
// A's picks throughout, and A's memo entries must keep hitting: the
// memo is keyed by bank version, not by snapshot generation.
TEST(BankRegistryReadPath, PublishToOneKeyKeepsAnotherKeysPicksAndMemo) {
  const auto bank_a = compile_bank(random_dataset(79), "gam");
  const auto bank_b = compile_bank(random_dataset(83), "knn");
  const tune::BankKey key_a{"Hydra", sim::Collective::kBcast};
  const tune::BankKey key_b{"Jupiter", sim::Collective::kAllreduce};
  tune::BankRegistry registry;
  registry.publish(key_a, bank_a);
  registry.publish(key_b, bank_b);
  const std::uint64_t version_a = registry.version(key_a);

  const auto instances = random_instances(127, 64);
  std::vector<int> want;
  for (const bench::Instance& inst : instances) {
    want.push_back(bank_a->select_uid(inst));
  }

  // Three lanes serve A while one lane republishes B.
  constexpr int kPublishes = 8;
  std::atomic<std::uint64_t> wrong{0};
  {
    support::ScopedThreads scoped(4);
    support::parallel_for(4, 1, [&](std::size_t lane) {
      if (lane == 0) {
        for (int p = 0; p < kPublishes; ++p) registry.publish(key_b, bank_b);
        return;
      }
      for (int round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < instances.size(); ++i) {
          if (registry.select_uid(key_a, instances[i]) != want[i]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(registry.version(key_a), version_a);
  EXPECT_EQ(total_stats(registry).swaps, 2u + kPublishes);

  // On one thread: warm A's memo (two passes, so a wholesale clear left
  // over from earlier selections on this thread cannot fall in the
  // measured pass), republish B, and serve A again: hits only.
  for (int pass = 0; pass < 2; ++pass) {
    for (const bench::Instance& inst : instances) {
      (void)registry.select_uid(key_a, inst);
    }
  }
  const auto before = total_stats(registry);
  for (int p = 0; p < kPublishes; ++p) registry.publish(key_b, bank_b);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(registry.select_uid(key_a, instances[i]), want[i]);
  }
  const auto after = total_stats(registry);
  EXPECT_EQ(after.memo_misses, before.memo_misses);
  EXPECT_EQ(after.memo_hits - before.memo_hits, instances.size());
}

}  // namespace
}  // namespace mpicp
