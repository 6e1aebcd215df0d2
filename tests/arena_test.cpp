// Arena + d-ary indexed heap tests: the allocation discipline under the
// scheduling-as-a-service hot path (core::Scratch).

#include "flb/util/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/util/dary_heap.hpp"

namespace flb {
namespace {

TEST(ArenaTest, AllocReturnsWritableAlignedSpans) {
  Arena a;
  std::span<double> d = a.alloc<double>(100);
  std::span<std::uint32_t> u = a.alloc<std::uint32_t>(37);
  ASSERT_EQ(d.size(), 100u);
  ASSERT_EQ(u.size(), 37u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u.data()) %
                alignof(std::uint32_t),
            0u);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<double>(i);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(d[99], 99.0);
  EXPECT_EQ(u[36], 36u);
}

TEST(ArenaTest, FillOverloadInitializes) {
  Arena a;
  std::span<int> s = a.alloc<int>(64, -7);
  for (int v : s) EXPECT_EQ(v, -7);
}

TEST(ArenaTest, ZeroSizeAllocIsEmpty) {
  Arena a;
  EXPECT_TRUE(a.alloc<double>(0).empty());
}

TEST(ArenaTest, GrowthDoesNotInvalidateEarlierSpans) {
  Arena a(/*initial_bytes=*/4096);
  std::span<std::uint64_t> first = a.alloc<std::uint64_t>(16);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i * 3 + 1;
  // Force several growths.
  for (int round = 0; round < 8; ++round) (void)a.alloc<std::uint64_t>(4096);
  EXPECT_GT(a.blocks(), 1u);
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], i * 3 + 1);
}

TEST(ArenaTest, ResetMakesSameSizedSequenceAllocationStable) {
  Arena a;
  auto run = [&] {
    (void)a.alloc<double>(1000);
    (void)a.alloc<std::uint32_t>(500);
    (void)a.alloc<std::size_t>(2000);
  };
  run();
  const std::size_t blocks_after_warmup = a.blocks();
  const std::size_t reserved = a.bytes_reserved();
  for (int i = 0; i < 10; ++i) {
    a.reset();
    run();
  }
  // Steady state: no new blocks, no new bytes — the zero-allocation claim.
  EXPECT_EQ(a.blocks(), blocks_after_warmup);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(ArenaTest, SmallerRunAfterLargerRunReusesBlocks) {
  Arena a;
  (void)a.alloc<double>(10000);
  const std::size_t blocks = a.blocks();
  a.reset();
  (void)a.alloc<double>(10);
  EXPECT_EQ(a.blocks(), blocks);
}

// --- DaryIndexedHeap -------------------------------------------------------

TEST(DaryHeapTest, PopsInKeyOrder) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 64);
  std::mt19937 rng(7);
  std::vector<int> keys(64);
  for (std::size_t i = 0; i < 64; ++i) {
    keys[i] = static_cast<int>(rng() % 1000);
    h.push(i, keys[i]);
  }
  ASSERT_TRUE(h.validate());
  std::sort(keys.begin(), keys.end());
  for (int expected : keys) {
    EXPECT_EQ(h.top_key(), expected);
    h.pop();
  }
  EXPECT_TRUE(h.empty());
}

TEST(DaryHeapTest, EraseAndUpdateKeepHeapValid) {
  Arena a;
  DaryIndexedHeap<std::pair<double, std::size_t>> h;
  h.bind(a, 128);
  std::mt19937 rng(11);
  for (std::size_t i = 0; i < 128; ++i)
    h.push(i, {static_cast<double>(rng() % 500), i});
  for (std::size_t i = 0; i < 128; i += 3) h.erase(i);
  ASSERT_TRUE(h.validate());
  for (std::size_t i = 1; i < 128; i += 3)
    h.update(i, {static_cast<double>(rng() % 500), i});
  ASSERT_TRUE(h.validate());
  double prev = -1.0;
  while (!h.empty()) {
    EXPECT_GE(h.top_key().first, prev);
    prev = h.top_key().first;
    h.pop();
  }
}

TEST(DaryHeapTest, PushOrUpdateAndContains) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 8);
  h.push_or_update(3, 30);
  EXPECT_TRUE(h.contains(3));
  EXPECT_EQ(h.key_of(3), 30);
  h.push_or_update(3, 5);
  EXPECT_EQ(h.key_of(3), 5);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.contains(4));
}

TEST(DaryHeapTest, RebindDropsContents) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 16);
  for (std::size_t i = 0; i < 16; ++i) h.push(i, static_cast<int>(i));
  a.reset();
  h.bind(a, 16);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(0));
  h.push(0, 42);
  EXPECT_EQ(h.top(), 0u);
}

// --- DaryHeapForest --------------------------------------------------------

TEST(DaryForestTest, ItemsLiveInAtMostOneHeap) {
  Arena a;
  DaryHeapForest<int> f;
  f.reset(a, 32, 4);
  std::mt19937 rng(3);
  for (std::size_t i = 0; i < 32; ++i)
    f.push(i % 4, i, static_cast<int>(rng() % 100));
  ASSERT_TRUE(f.validate());
  // Move a few items between heaps.
  f.move(0, 2, 1);
  f.move(5, 2, 2);
  EXPECT_EQ(f.heap_of(0), 2u);
  EXPECT_EQ(f.heap_of(5), 2u);
  ASSERT_TRUE(f.validate());
  // Per-heap pops come out in key order.
  for (std::size_t h = 0; h < 4; ++h) {
    int prev = -1;
    while (!f.empty(h)) {
      EXPECT_GE(f.top_key(h), prev);
      prev = f.top_key(h);
      f.pop(h);
    }
  }
  EXPECT_FALSE(f.contains(0));
}

TEST(DaryForestTest, ResetKeepsPerHeapPoolsAcrossRuns) {
  Arena a;
  DaryHeapForest<int> f;
  // Warm up with the largest shape.
  f.reset(a, 100, 8);
  for (std::size_t i = 0; i < 100; ++i) f.push(i % 8, i, static_cast<int>(i));
  a.reset();
  // A smaller run after reset must start empty.
  f.reset(a, 50, 4);
  EXPECT_EQ(f.num_heaps(), 4u);
  for (std::size_t h = 0; h < 4; ++h) EXPECT_TRUE(f.empty(h));
  EXPECT_FALSE(f.contains(7));
  for (std::size_t i = 0; i < 50; ++i) f.push(i % 4, i, static_cast<int>(50 - i));
  ASSERT_TRUE(f.validate());
  EXPECT_EQ(f.top_key(0), 2);  // id 48 carries key 2
}

// --- Property tests against a std::set reference model --------------------
//
// Keys are (primary, id) with primaries drawn from a range much smaller
// than the id space, so most comparisons tie on the primary and fall to
// the id, the way the engine's (time, tie, id) keys do.

using TieKey = std::pair<int, std::size_t>;

TieKey tie_key(std::mt19937& rng, std::size_t id) {
  return {static_cast<int>(rng() % 4), id};
}

TEST(DaryHeapProperty, MatchesSetModelUnderRandomOps) {
  constexpr std::size_t kIds = 96;
  Arena a;
  DaryIndexedHeap<TieKey> h;
  h.bind(a, kIds);
  std::set<TieKey> model;
  std::vector<std::optional<TieKey>> key_of(kIds);
  std::mt19937 rng(2024);

  auto random_present = [&] {
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng() % model.size()));
    return it->second;
  };
  for (int step = 0; step < 20000; ++step) {
    const unsigned op = rng() % 100;
    if (op < 40 || model.empty()) {  // push
      const std::size_t id = rng() % kIds;
      if (key_of[id]) continue;
      const TieKey k = tie_key(rng, id);
      h.push(id, k);
      model.insert(k);
      key_of[id] = k;
    } else if (op < 60) {  // erase
      const std::size_t id = random_present();
      h.erase(id);
      model.erase(*key_of[id]);
      key_of[id].reset();
    } else if (op < 80) {  // update, via both entry points
      const std::size_t id = random_present();
      const TieKey k = tie_key(rng, id);
      if (op % 2 == 0) {
        h.update(id, k);
      } else {
        h.push_or_update(id, k);
      }
      model.erase(*key_of[id]);
      model.insert(k);
      key_of[id] = k;
    } else if (op < 99) {  // pop
      const std::size_t id = h.pop();
      ASSERT_EQ(id, model.begin()->second);
      model.erase(model.begin());
      key_of[id].reset();
    } else {  // clear
      h.clear();
      model.clear();
      for (auto& k : key_of) k.reset();
    }
    ASSERT_TRUE(h.validate()) << "step " << step;
    ASSERT_EQ(h.size(), model.size()) << "step " << step;
    if (!model.empty()) {
      ASSERT_EQ(h.top(), model.begin()->second) << "step " << step;
      ASSERT_EQ(h.top_key(), *model.begin()) << "step " << step;
    }
    for (std::size_t id = 0; id < kIds; ++id) {
      ASSERT_EQ(h.contains(id), key_of[id].has_value());
      if (key_of[id]) ASSERT_EQ(h.key_of(id), *key_of[id]);
    }
  }
}

TEST(DaryForestProperty, MatchesSetModelUnderRandomOps) {
  constexpr std::size_t kIds = 120;
  constexpr std::size_t kHeaps = 5;
  Arena a;
  DaryHeapForest<TieKey> f;
  f.reset(a, kIds, kHeaps);
  std::vector<std::set<TieKey>> model(kHeaps);
  std::vector<std::size_t> owner(kIds, DaryHeapForest<TieKey>::npos);
  std::vector<TieKey> key_of(kIds);
  std::mt19937 rng(77);

  auto random_present = [&]() -> std::optional<std::size_t> {
    for (int tries = 0; tries < 4 * static_cast<int>(kIds); ++tries) {
      const std::size_t id = rng() % kIds;
      if (owner[id] != DaryHeapForest<TieKey>::npos) return id;
    }
    return std::nullopt;
  };
  for (int step = 0; step < 20000; ++step) {
    const unsigned op = rng() % 100;
    const std::size_t h = rng() % kHeaps;
    if (op < 35) {  // push
      const std::size_t id = rng() % kIds;
      if (owner[id] != DaryHeapForest<TieKey>::npos) continue;
      const TieKey k = tie_key(rng, id);
      f.push(h, id, k);
      model[h].insert(k);
      owner[id] = h;
      key_of[id] = k;
    } else if (op < 55) {  // erase
      const auto id = random_present();
      if (!id) continue;
      f.erase(*id);
      model[owner[*id]].erase(key_of[*id]);
      owner[*id] = DaryHeapForest<TieKey>::npos;
    } else if (op < 70) {  // update in place
      const auto id = random_present();
      if (!id) continue;
      const TieKey k = tie_key(rng, *id);
      f.update(*id, k);
      model[owner[*id]].erase(key_of[*id]);
      model[owner[*id]].insert(k);
      key_of[*id] = k;
    } else if (op < 82) {  // move to another heap
      const auto id = random_present();
      if (!id) continue;
      const TieKey k = tie_key(rng, *id);
      f.move(*id, h, k);
      model[owner[*id]].erase(key_of[*id]);
      model[h].insert(k);
      owner[*id] = h;
      key_of[*id] = k;
    } else if (op < 99) {  // pop
      if (model[h].empty()) continue;
      const std::size_t id = f.pop(h);
      ASSERT_EQ(id, model[h].begin()->second);
      model[h].erase(model[h].begin());
      owner[id] = DaryHeapForest<TieKey>::npos;
    } else {  // clear: a fresh run over the same arena
      a.reset();
      f.reset(a, kIds, kHeaps);
      for (auto& m : model) m.clear();
      std::fill(owner.begin(), owner.end(), DaryHeapForest<TieKey>::npos);
    }
    ASSERT_TRUE(f.validate()) << "step " << step;
    for (std::size_t q = 0; q < kHeaps; ++q) {
      ASSERT_EQ(f.size(q), model[q].size()) << "step " << step;
      if (!model[q].empty()) {
        ASSERT_EQ(f.top(q), model[q].begin()->second) << "step " << step;
        ASSERT_EQ(f.top_key(q), *model[q].begin()) << "step " << step;
      }
    }
    for (std::size_t id = 0; id < kIds; ++id) {
      ASSERT_EQ(f.contains(id), owner[id] != DaryHeapForest<TieKey>::npos);
      if (f.contains(id)) {
        ASSERT_EQ(f.heap_of(id), owner[id]);
        ASSERT_EQ(f.key_of(id), key_of[id]);
      }
    }
  }
}

TEST(DaryForestProperty, SmallerRunKeepsPoolCapacity) {
  Arena a;
  DaryHeapForest<TieKey> f;
  f.reset(a, 400, 8);
  std::mt19937 rng(5);
  for (std::size_t id = 0; id < 400; ++id) f.push(id % 8, id, tie_key(rng, id));
  std::vector<std::size_t> warmed(8);
  for (std::size_t h = 0; h < 8; ++h) {
    warmed[h] = f.capacity(h);
    EXPECT_GE(warmed[h], 50u);
  }
  a.reset();
  f.reset(a, 40, 4);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_TRUE(f.empty(h));
    EXPECT_EQ(f.capacity(h), warmed[h]);
  }
  for (std::size_t id = 0; id < 40; ++id) f.push(id % 4, id, tie_key(rng, id));
  ASSERT_TRUE(f.validate());
  for (std::size_t h = 0; h < 4; ++h) EXPECT_EQ(f.capacity(h), warmed[h]);
  // The larger shape comes back with the pool it left behind.
  a.reset();
  f.reset(a, 400, 8);
  for (std::size_t h = 0; h < 8; ++h) EXPECT_EQ(f.capacity(h), warmed[h]);
}

}  // namespace
}  // namespace flb
