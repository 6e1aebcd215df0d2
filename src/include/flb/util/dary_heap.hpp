#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "flb/util/arena.hpp"
#include "flb/util/error.hpp"

/// \file dary_heap.hpp
/// The library's one addressable priority queue: an indexed d-ary min-heap
/// over dense integer ids, and a forest of such heaps over one shared id
/// space.
///
/// Every "sorted list" in the FLB paper's pseudocode maps onto it: Enqueue /
/// Dequeue / RemoveItem / BalanceList are push / pop / erase / update, each
/// O(log n) in the size of the heap; contains, key_of and top are O(1). The
/// heap tracks each id's position, so an arbitrary item can be removed or
/// re-keyed: the capability std::priority_queue lacks and the reason FLB
/// attains its O(V(log W + log P) + E) bound. FLB's engine and every
/// list-scheduling baseline (MCP, FCP, HLFET, ISH, HEFT, CPOP, DSC, LLB,
/// Sarkar, DUP and the cluster mappers) keep their lists here.
///
/// DaryHeapForest is for lists that partition one id space. FLB's
/// per-processor EP lists and LLB's per-processor ready lists hold each
/// task in at most one processor's heap, so position and owning heap are
/// stored once per id: O(V + P) setup, where P separate heaps would cost
/// O(V * P).
///
///  * **Storage is borrowed, not owned.** bind()/reset() carve the node
///    array and the position index out of a caller-supplied Arena, so
///    re-dimensioning between runs is a bump-pointer rewind instead of
///    `std::vector` reallocations. A one-shot caller keeps a local Arena
///    next to its heaps. The forest's per-heap node arrays are the one
///    exception (their individual sizes are not known up front); they are
///    capacity-retaining vectors owned by the forest, which makes them
///    allocation-free at steady state.
///  * **Keys sit next to their ids.** Each heap slot is a DaryNode
///    `{key, id}`, so a comparison reads the key from the slot it is
///    already looking at instead of chasing `keys[heap[i]]` through a
///    separate id -> key table (a dependent second load per compare). Sifts
///    move a hole rather than swapping, so a displaced node is written once
///    per level and the moving node once at the end. The id -> position
///    index stays: erase() and update() address nodes by id, and
///    key_of(id) reads `heap[pos[id]].key`.
///  * **Arity is 4 by default.** A d-ary layout trades a slightly deeper
///    compare fan-in on sift-down for a tree ~half as tall, which wins on
///    real hardware because sift-up (the push/update direction FLB leans
///    on) touches half the cache lines.
///
/// The keys stay `std::tuple`/`std::pair`. A hand-written struct key with
/// its own `operator<` (and the id folded into the node) measured about 15%
/// slower on the Fig. 2 mix. Each class keeps its own copy of the sifts:
/// hoisting them into shared free templates made GCC 12 emit one
/// out-of-line copy per key type and cost about 11% on the same mix.
///
/// Keys must be totally ordered. Every key in the library ends with the
/// task or processor id as the final tie-break, so every top() is unique
/// and no schedule depends on the arity or the heap's internal layout. The
/// golden-digest tests in tests/platform_test.cpp pin this for FLB and for
/// every baseline.

namespace flb {

/// One heap slot: the key and the id it belongs to, stored together.
template <typename Key>
struct DaryNode {
  Key key;
  std::size_t id;
};

namespace detail {

// True iff no child sorts before its parent. O(n); the validate() hooks.
template <std::size_t Arity, typename Node>
bool dary_ordered(std::span<const Node> heap) {
  for (std::size_t c = 1; c < heap.size(); ++c)
    if (heap[c].key < heap[(c - 1) / Arity].key) return false;
  return true;
}

}  // namespace detail

/// Addressable d-ary min-heap over dense ids in [0, capacity), with all
/// storage borrowed from an Arena at bind() time.
template <typename Key, std::size_t Arity = 4>
class DaryIndexedHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using Node = DaryNode<Key>;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DaryIndexedHeap() = default;

  /// Re-dimension for ids in [0, capacity), borrowing storage from
  /// `arena`. Previous contents are dropped. O(capacity) to clear the
  /// position index; no heap allocation (the arena bump-allocates).
  void bind(Arena& arena, std::size_t capacity) {
    heap_ = arena.alloc<Node>(capacity);
    pos_ = arena.alloc<std::size_t>(capacity, npos);
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return pos_.size(); }

  [[nodiscard]] bool contains(std::size_t id) const {
    return id < pos_.size() && pos_[id] != npos;
  }

  [[nodiscard]] const Key& key_of(std::size_t id) const {
    FLB_ASSERT(contains(id));
    return heap_[pos_[id]].key;
  }

  [[nodiscard]] std::size_t top() const {
    FLB_ASSERT(size_ != 0);
    return heap_[0].id;
  }

  [[nodiscard]] const Key& top_key() const {
    FLB_ASSERT(size_ != 0);
    return heap_[0].key;
  }

  void push(std::size_t id, Key key) {
    FLB_ASSERT(id < pos_.size());
    FLB_ASSERT(pos_[id] == npos);
    sift_up(size_++, Node{std::move(key), id});
  }

  std::size_t pop() {
    std::size_t id = top();
    erase(id);
    return id;
  }

  void erase(std::size_t id) {
    FLB_ASSERT(contains(id));
    const std::size_t hole = pos_[id];
    pos_[id] = npos;
    const std::size_t last = --size_;
    if (hole != last) place(hole, std::move(heap_[last]));
  }

  void update(std::size_t id, Key key) {
    FLB_ASSERT(contains(id));
    place(pos_[id], Node{std::move(key), id});
  }

  void push_or_update(std::size_t id, Key key) {
    if (contains(id)) {
      update(id, std::move(key));
    } else {
      push(id, std::move(key));
    }
  }

  /// Nodes currently in the heap, in internal array order (NOT key-sorted).
  [[nodiscard]] std::span<const Node> items() const {
    return heap_.first(size_);
  }

  /// Remove everything while keeping the binding. O(size).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) pos_[heap_[i].id] = npos;
    size_ = 0;
  }

  /// Validate the heap property and the position index; O(n). Test hook.
  [[nodiscard]] bool validate() const {
    for (std::size_t i = 0; i < size_; ++i)
      if (pos_[heap_[i].id] != i) return false;
    if (!detail::dary_ordered<Arity>(items())) return false;
    std::size_t present = 0;
    for (std::size_t p : pos_)
      if (p != npos) ++present;
    return present == size_;
  }

 private:
  // Settle `node` into the hole at `i`: up if it beats the parent,
  // otherwise down.
  void place(std::size_t i, Node node) {
    if (i > 0 && node.key < heap_[(i - 1) / Arity].key) {
      sift_up(i, std::move(node));
    } else {
      sift_down(i, std::move(node));
    }
  }

  void sift_up(std::size_t i, Node node) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(node.key < heap_[parent].key)) break;
      fill(i, std::move(heap_[parent]));
      i = parent;
    }
    fill(i, std::move(node));
  }

  void sift_down(std::size_t i, Node node) {
    for (;;) {
      const std::size_t first = Arity * i + 1;
      if (first >= size_) break;
      const std::size_t last = first + Arity < size_ ? first + Arity : size_;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap_[c].key < heap_[best].key) best = c;
      if (!(heap_[best].key < node.key)) break;
      fill(i, std::move(heap_[best]));
      i = best;
    }
    fill(i, std::move(node));
  }

  void fill(std::size_t i, Node node) {
    pos_[node.id] = i;
    heap_[i] = std::move(node);
  }

  std::span<Node> heap_;        // arena-backed array of {key, id} nodes
  std::span<std::size_t> pos_;  // id -> position, npos if absent
  std::size_t size_ = 0;
};

/// A family of addressable d-ary min-heaps over one shared id space (each
/// id in at most one heap at a time), with the shared per-id state —
/// position and owning heap — borrowed from an Arena. The per-heap node
/// arrays are owned, capacity-retaining vectors: their individual maxima
/// are workload-dependent, so they warm up over the first runs and then
/// never allocate again.
template <typename Key, std::size_t Arity = 4>
class DaryHeapForest {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using Node = DaryNode<Key>;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DaryHeapForest() = default;

  /// Re-dimension for `num_items` ids across `num_heaps` heaps. Shared
  /// per-id arrays come from `arena`; per-heap arrays are cleared but
  /// keep their capacity (and the pool only grows — a later smaller run
  /// reuses the larger pool).
  void reset(Arena& arena, std::size_t num_items, std::size_t num_heaps) {
    pos_ = arena.alloc<std::size_t>(num_items);
    heap_of_ = arena.alloc<std::size_t>(num_items, npos);
    if (heaps_.size() < num_heaps) heaps_.resize(num_heaps);
    num_heaps_ = num_heaps;
    for (std::size_t h = 0; h < num_heaps_; ++h) heaps_[h].clear();
  }

  [[nodiscard]] std::size_t num_items() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_heaps() const { return num_heaps_; }

  [[nodiscard]] bool empty(std::size_t h) const { return heaps_[h].empty(); }
  [[nodiscard]] std::size_t size(std::size_t h) const {
    return heaps_[h].size();
  }

  /// Retained capacity of heap h's node array (survives reset()).
  [[nodiscard]] std::size_t capacity(std::size_t h) const {
    return heaps_[h].capacity();
  }

  [[nodiscard]] bool contains(std::size_t id) const {
    return id < heap_of_.size() && heap_of_[id] != npos;
  }

  [[nodiscard]] std::size_t heap_of(std::size_t id) const {
    return heap_of_[id];
  }

  [[nodiscard]] const Key& key_of(std::size_t id) const {
    FLB_ASSERT(contains(id));
    return heaps_[heap_of_[id]][pos_[id]].key;
  }

  [[nodiscard]] std::size_t top(std::size_t h) const {
    FLB_ASSERT(!heaps_[h].empty());
    return heaps_[h].front().id;
  }

  [[nodiscard]] const Key& top_key(std::size_t h) const {
    FLB_ASSERT(!heaps_[h].empty());
    return heaps_[h].front().key;
  }

  /// Nodes of heap `h` in internal array order (NOT sorted). Observer hook.
  [[nodiscard]] const std::vector<Node>& items(std::size_t h) const {
    return heaps_[h];
  }

  void push(std::size_t h, std::size_t id, Key key) {
    FLB_ASSERT(h < num_heaps_);
    FLB_ASSERT(id < pos_.size());
    FLB_ASSERT(heap_of_[id] == npos);
    heap_of_[id] = h;
    auto& heap = heaps_[h];
    heap.push_back(Node{std::move(key), id});
    sift_up(heap, heap.size() - 1, std::move(heap.back()));
  }

  std::size_t pop(std::size_t h) {
    std::size_t id = top(h);
    erase(id);
    return id;
  }

  void erase(std::size_t id) {
    FLB_ASSERT(contains(id));
    auto& heap = heaps_[heap_of_[id]];
    const std::size_t hole = pos_[id];
    pos_[id] = npos;
    heap_of_[id] = npos;
    Node moved = std::move(heap.back());
    heap.pop_back();
    if (hole != heap.size()) place(heap, hole, std::move(moved));
  }

  void update(std::size_t id, Key key) {
    FLB_ASSERT(contains(id));
    place(heaps_[heap_of_[id]], pos_[id], Node{std::move(key), id});
  }

  /// Move `id` to heap `h` with a new key (erase + push).
  void move(std::size_t id, std::size_t h, Key key) {
    erase(id);
    push(h, id, std::move(key));
  }

  /// O(total) structural check for tests.
  [[nodiscard]] bool validate() const {
    std::size_t present = 0;
    for (std::size_t h = 0; h < num_heaps_; ++h) {
      const auto& heap = heaps_[h];
      for (std::size_t i = 0; i < heap.size(); ++i) {
        const std::size_t id = heap[i].id;
        if (heap_of_[id] != h || pos_[id] != i) return false;
      }
      if (!detail::dary_ordered<Arity>(std::span<const Node>(heap)))
        return false;
      present += heap.size();
    }
    std::size_t tracked = 0;
    for (std::size_t h : heap_of_)
      if (h != npos) ++tracked;
    return tracked == present;
  }

 private:
  // The same hole-moving sifts as DaryIndexedHeap, over one pool vector.
  void place(std::vector<Node>& heap, std::size_t i, Node node) {
    if (i > 0 && node.key < heap[(i - 1) / Arity].key) {
      sift_up(heap, i, std::move(node));
    } else {
      sift_down(heap, i, std::move(node));
    }
  }

  void sift_up(std::vector<Node>& heap, std::size_t i, Node node) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!(node.key < heap[parent].key)) break;
      fill(heap, i, std::move(heap[parent]));
      i = parent;
    }
    fill(heap, i, std::move(node));
  }

  void sift_down(std::vector<Node>& heap, std::size_t i, Node node) {
    const std::size_t n = heap.size();
    for (;;) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap[c].key < heap[best].key) best = c;
      if (!(heap[best].key < node.key)) break;
      fill(heap, i, std::move(heap[best]));
      i = best;
    }
    fill(heap, i, std::move(node));
  }

  void fill(std::vector<Node>& heap, std::size_t i, Node node) {
    pos_[node.id] = i;
    heap[i] = std::move(node);
  }

  std::vector<std::vector<Node>> heaps_;  // capacity-retaining node pool
  std::size_t num_heaps_ = 0;
  std::span<std::size_t> pos_;      // id -> position in its heap
  std::span<std::size_t> heap_of_;  // id -> heap index, npos if absent
};

}  // namespace flb
