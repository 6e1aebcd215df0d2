#include "flb/util/dary_heap.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/util/arena.hpp"
#include "flb/util/rng.hpp"

// Behaviour tests for DaryIndexedHeap, the addressable d-ary heap every
// scheduler keeps its sorted lists in. DaryHeapForest is covered in
// heap_forest_test.cpp; the arena, node-pool and set-model property tests
// live in arena_test.cpp.

namespace flb {
namespace {

TEST(DaryIndexedHeapTest, StartsEmpty) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.capacity(), 8u);
  EXPECT_FALSE(h.contains(0));
}

TEST(DaryIndexedHeapTest, PushPopSingle) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 4);
  h.push(2, 10);
  EXPECT_FALSE(h.empty());
  EXPECT_TRUE(h.contains(2));
  EXPECT_EQ(h.top(), 2u);
  EXPECT_EQ(h.top_key(), 10);
  EXPECT_EQ(h.pop(), 2u);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(2));
}

TEST(DaryIndexedHeapTest, PopsIdsInKeyOrder) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 10);
  h.push(0, 5);
  h.push(1, 3);
  h.push(2, 8);
  h.push(3, 1);
  h.push(4, 4);
  std::vector<std::size_t> order;
  while (!h.empty()) order.push_back(h.pop());
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 4, 0, 2}));
}

TEST(DaryIndexedHeapTest, KeyOfReturnsStoredKey) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 4);
  h.push(1, 42);
  h.push(3, 7);
  EXPECT_EQ(h.key_of(1), 42);
  EXPECT_EQ(h.key_of(3), 7);
}

TEST(DaryIndexedHeapTest, EraseMiddleKeepsOrder) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 10);
  for (std::size_t i = 0; i < 10; ++i)
    h.push(i, static_cast<int>((i * 7) % 10));
  h.erase(5);  // key 5
  h.erase(0);  // key 0
  EXPECT_EQ(h.size(), 8u);
  std::vector<int> keys;
  while (!h.empty()) keys.push_back(h.key_of(h.top())), h.pop();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 8u);
}

TEST(DaryIndexedHeapTest, UpdateDecreaseKeyMovesToFront) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 5);
  h.push(0, 10);
  h.push(1, 20);
  h.push(2, 30);
  h.update(2, 1);
  EXPECT_EQ(h.top(), 2u);
  EXPECT_EQ(h.key_of(2), 1);
}

TEST(DaryIndexedHeapTest, UpdateIncreaseKeyMovesBack) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 5);
  h.push(0, 10);
  h.push(1, 20);
  h.update(0, 100);
  EXPECT_EQ(h.top(), 1u);
}

TEST(DaryIndexedHeapTest, PushOrUpdateInsertsThenRekeys) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 5);
  h.push_or_update(3, 9);
  EXPECT_TRUE(h.contains(3));
  EXPECT_EQ(h.key_of(3), 9);
  h.push_or_update(3, 2);
  EXPECT_EQ(h.key_of(3), 2);
  EXPECT_EQ(h.size(), 1u);
}

TEST(DaryIndexedHeapTest, ClearRemovesEverything) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 6);
  for (std::size_t i = 0; i < 6; ++i) h.push(i, static_cast<int>(i));
  h.clear();
  EXPECT_TRUE(h.empty());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FALSE(h.contains(i));
  h.push(2, 1);  // reusable after clear
  EXPECT_EQ(h.top(), 2u);
}

TEST(DaryIndexedHeapTest, RebindRedimensions) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 2);
  h.push(0, 1);
  h.bind(a, 100);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.capacity(), 100u);
  EXPECT_FALSE(h.contains(0));
  h.push(99, 5);
  EXPECT_EQ(h.top(), 99u);
}

TEST(DaryIndexedHeapTest, TupleKeysOrderLexicographically) {
  using Key = std::tuple<double, double, unsigned>;
  Arena a;
  DaryIndexedHeap<Key> h;
  h.bind(a, 4);
  h.push(0, {1.0, -5.0, 0});
  h.push(1, {1.0, -9.0, 1});  // same primary, smaller second component
  h.push(2, {0.5, 0.0, 2});
  EXPECT_EQ(h.pop(), 2u);  // smallest primary
  EXPECT_EQ(h.pop(), 1u);  // tie broken by second component
  EXPECT_EQ(h.pop(), 0u);
}

TEST(DaryIndexedHeapTest, ItemsHoldEveryIdWithItsKey) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 6);
  h.push(4, 40);
  h.push(1, 10);
  h.push(5, 50);
  std::map<std::size_t, int> seen;
  for (const auto& node : h.items()) seen[node.id] = node.key;
  EXPECT_EQ(seen, (std::map<std::size_t, int>{{1, 10}, {4, 40}, {5, 50}}));
}

TEST(DaryIndexedHeapTest, ValidateDetectsHealthyHeap) {
  Arena a;
  DaryIndexedHeap<int> h;
  h.bind(a, 32);
  for (std::size_t i = 0; i < 32; ++i)
    h.push(i, static_cast<int>((i * 13) % 32));
  EXPECT_TRUE(h.validate());
}

// Randomized differential test against a std::map reference.
TEST(DaryIndexedHeapTest, StressAgainstReference) {
  constexpr std::size_t kIds = 64;
  Arena a;
  DaryIndexedHeap<std::pair<int, std::size_t>> h;
  h.bind(a, kIds);
  std::map<std::size_t, int> ref;  // id -> key
  Rng rng(7);

  for (int step = 0; step < 20000; ++step) {
    std::size_t id = rng.next_below(kIds);
    double action = rng.next_double();
    if (action < 0.4) {
      int key = static_cast<int>(rng.next_below(1000));
      if (!ref.count(id)) {
        h.push(id, {key, id});
      } else {
        h.update(id, {key, id});
      }
      ref[id] = key;
    } else if (action < 0.6) {
      if (ref.count(id)) {
        h.erase(id);
        ref.erase(id);
      }
    } else if (action < 0.8) {
      if (!ref.empty()) {
        // Reference minimum by (key, id).
        auto best = ref.begin();
        for (auto it = ref.begin(); it != ref.end(); ++it) {
          if (std::pair(it->second, it->first) <
              std::pair(best->second, best->first))
            best = it;
        }
        ASSERT_EQ(h.top(), best->first);
        h.pop();
        ref.erase(best);
      }
    } else {
      ASSERT_EQ(h.size(), ref.size());
      ASSERT_EQ(h.contains(id), ref.count(id) > 0);
      if (ref.count(id)) ASSERT_EQ(h.key_of(id).first, ref[id]);
    }
    if (step % 1000 == 0) ASSERT_TRUE(h.validate());
  }
  EXPECT_TRUE(h.validate());
}

// Sorted drain equals std::sort of the same keys (duplicates included).
TEST(DaryIndexedHeapTest, HeapSortMatchesStdSort) {
  constexpr std::size_t kN = 500;
  Arena a;
  DaryIndexedHeap<std::pair<int, std::size_t>> h;
  h.bind(a, kN);
  Rng rng(11);
  std::vector<int> keys(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<int>(rng.next_below(50));  // many duplicates
    h.push(i, {keys[i], i});
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(h.key_of(h.top()).first, keys[i]);
    h.pop();
  }
}

}  // namespace
}  // namespace flb
