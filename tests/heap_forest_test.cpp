#include "flb/util/dary_heap.hpp"

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/util/arena.hpp"
#include "flb/util/rng.hpp"

// Behaviour tests for DaryHeapForest, the set of disjoint addressable d-ary
// heaps over one id space that FLB keeps its per-processor lists in.
// DaryIndexedHeap is covered in indexed_heap_test.cpp.

namespace flb {
namespace {

using Forest = DaryHeapForest<std::pair<int, std::size_t>>;

std::pair<int, std::size_t> key(int k, std::size_t id) { return {k, id}; }

TEST(DaryHeapForestTest, StartsEmpty) {
  Arena a;
  Forest f;
  f.reset(a, 10, 3);
  EXPECT_EQ(f.num_items(), 10u);
  EXPECT_EQ(f.num_heaps(), 3u);
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_TRUE(f.empty(h));
    EXPECT_EQ(f.size(h), 0u);
  }
  EXPECT_FALSE(f.contains(0));
  EXPECT_EQ(f.heap_of(5), Forest::npos);
}

TEST(DaryHeapForestTest, PushTracksHeapMembership) {
  Arena a;
  Forest f;
  f.reset(a, 10, 3);
  f.push(1, 4, key(7, 4));
  EXPECT_TRUE(f.contains(4));
  EXPECT_EQ(f.heap_of(4), 1u);
  EXPECT_EQ(f.top(1), 4u);
  EXPECT_EQ(f.key_of(4).first, 7);
  EXPECT_TRUE(f.empty(0));
  EXPECT_TRUE(f.empty(2));
}

TEST(DaryHeapForestTest, IndependentHeapOrdering) {
  Arena a;
  Forest f;
  f.reset(a, 12, 2);
  f.push(0, 0, key(5, 0));
  f.push(0, 1, key(2, 1));
  f.push(1, 2, key(9, 2));
  f.push(1, 3, key(1, 3));
  EXPECT_EQ(f.top(0), 1u);
  EXPECT_EQ(f.top(1), 3u);
  EXPECT_EQ(f.pop(0), 1u);
  EXPECT_EQ(f.top(0), 0u);
  EXPECT_EQ(f.top(1), 3u);  // heap 1 untouched
}

TEST(DaryHeapForestTest, EraseFromMiddle) {
  Arena a;
  Forest f;
  f.reset(a, 10, 1);
  for (std::size_t i = 0; i < 8; ++i)
    f.push(0, i, key(static_cast<int>((i * 5) % 8), i));
  f.erase(3);
  f.erase(6);
  EXPECT_FALSE(f.contains(3));
  EXPECT_EQ(f.size(0), 6u);
  EXPECT_TRUE(f.validate());
  std::vector<int> drained;
  while (!f.empty(0)) {
    drained.push_back(f.top_key(0).first);
    f.pop(0);
  }
  EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end()));
}

TEST(DaryHeapForestTest, UpdateRekeysWithinHeap) {
  Arena a;
  Forest f;
  f.reset(a, 5, 2);
  f.push(0, 0, key(10, 0));
  f.push(0, 1, key(20, 1));
  f.update(1, key(1, 1));
  EXPECT_EQ(f.top(0), 1u);
  EXPECT_EQ(f.heap_of(1), 0u);
  f.update(1, key(99, 1));
  EXPECT_EQ(f.top(0), 0u);
}

TEST(DaryHeapForestTest, MoveBetweenHeaps) {
  Arena a;
  Forest f;
  f.reset(a, 5, 3);
  f.push(0, 2, key(4, 2));
  f.move(2, 2, key(8, 2));
  EXPECT_TRUE(f.empty(0));
  EXPECT_EQ(f.heap_of(2), 2u);
  EXPECT_EQ(f.key_of(2).first, 8);
}

TEST(DaryHeapForestTest, ItemsExposesHeapContents) {
  Arena a;
  Forest f;
  f.reset(a, 6, 2);
  f.push(1, 0, key(3, 0));
  f.push(1, 5, key(1, 5));
  const auto& items = f.items(1);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_TRUE((items[0].id == 0 && items[1].id == 5) ||
              (items[0].id == 5 && items[1].id == 0));
  for (const auto& node : items) EXPECT_EQ(node.key, f.key_of(node.id));
}

TEST(DaryHeapForestTest, ResetRedimensions) {
  Arena a;
  Forest f;
  f.reset(a, 4, 1);
  f.push(0, 1, key(1, 1));
  f.reset(a, 100, 7);
  EXPECT_EQ(f.num_items(), 100u);
  EXPECT_EQ(f.num_heaps(), 7u);
  EXPECT_FALSE(f.contains(1));
  f.push(6, 99, key(5, 99));
  EXPECT_EQ(f.top(6), 99u);
}

// Differential stress test against P independent reference maps.
TEST(DaryHeapForestTest, StressAgainstReference) {
  constexpr std::size_t kIds = 48, kHeaps = 5;
  Arena a;
  Forest f;
  f.reset(a, kIds, kHeaps);
  std::map<std::size_t, std::pair<std::size_t, int>> ref;  // id->(heap,key)
  Rng rng(21);

  for (int step = 0; step < 20000; ++step) {
    std::size_t id = rng.next_below(kIds);
    std::size_t h = rng.next_below(kHeaps);
    double action = rng.next_double();
    if (action < 0.35) {
      int k = static_cast<int>(rng.next_below(1000));
      if (!ref.count(id)) {
        f.push(h, id, key(k, id));
      } else {
        f.move(id, h, key(k, id));
      }
      ref[id] = {h, k};
    } else if (action < 0.5) {
      if (ref.count(id)) {
        int k = static_cast<int>(rng.next_below(1000));
        f.update(id, key(k, id));
        ref[id].second = k;
      }
    } else if (action < 0.65) {
      if (ref.count(id)) {
        f.erase(id);
        ref.erase(id);
      }
    } else if (action < 0.85) {
      // Verify the top of heap h against the reference minimum.
      std::size_t best_id = Forest::npos;
      for (const auto& [rid, hk] : ref) {
        if (hk.first != h) continue;
        if (best_id == Forest::npos ||
            std::pair(hk.second, rid) <
                std::pair(ref[best_id].second, best_id))
          best_id = rid;
      }
      if (best_id == Forest::npos) {
        ASSERT_TRUE(f.empty(h));
      } else {
        ASSERT_EQ(f.top(h), best_id);
      }
    } else {
      ASSERT_EQ(f.contains(id), ref.count(id) > 0);
      if (ref.count(id)) {
        ASSERT_EQ(f.heap_of(id), ref[id].first);
        ASSERT_EQ(f.key_of(id).first, ref[id].second);
      }
    }
    if (step % 2000 == 0) ASSERT_TRUE(f.validate());
  }
  EXPECT_TRUE(f.validate());
}

}  // namespace
}  // namespace flb
