// Ordered store: an HTM-protected B+ tree (the paper reuses DBX's
// HTM-protected B+ tree for its ordered tables; remote access to ordered
// stores goes over SEND/RECV verbs, so this structure has no RDMA-side
// layout obligations).
//
// All shared accesses go through the htm::ReadBytes/WriteBytes dispatch
// helpers: inside a transaction the tree is isolated by the HTM emulator;
// outside (bulk loading) the same code uses strong accesses.
//
// Conflicts are tracked per cache line, so traversals read a node's
// header and keys as one image (one read per line group, never per key)
// and search the stack copy. Updates shift keys in the image and write
// header and keys back in one call, and move each contiguous range of
// values or children with one read and one write. The pool is
// line-aligned, so a node's header and first 7 keys share one line, as
// in DBX's line-aligned nodes.
//
// Inside one HTM region an operation walks from the root at most once
// per leaf: each thread keeps, per tree, a finger on the leaf its last
// descent in the current region reached and that leaf's key range, cut
// from the separators on the way down. Get, Put, Remove, Scan, and an
// Insert into a leaf with room, start at the finger when the key is in
// its range. The finger is safe because every line of the path that
// produced it is in the region's read set (a concurrent change aborts
// the region), the region's own splits all go through Insert, which
// re-aims the finger, and removes never change a leaf's range. A finger
// made by another region (htm::CurrentRegionSerial) or outside any
// region is never read.
//
// Splits follow InnoDB's last-insert heuristic: a node's header records
// where its last key or separator was added, and when a full node's next
// insertion lands right after it, the node splits at the insertion
// point (the right side keeps at least one key) instead of in the
// middle, so append-ordered trees (TPC-C's orders and order lines) fill
// their nodes instead of leaving them half full.
//
// Structural simplifications, both standard for in-memory stores:
//   * deletes remove keys from leaves without rebalancing;
//   * nodes come from a fixed pool whose bump pointer lives in
//     HTM-visible memory, so an aborted insert rolls its allocation back.
#ifndef SRC_STORE_BPLUS_TREE_H_
#define SRC_STORE_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>

namespace drtm {
namespace store {

class BPlusTree {
 public:
  static constexpr int kFanout = 16;
  // Largest value_size the shift and scan buffers hold.
  static constexpr uint32_t kMaxValueSize = 512;

  struct Config {
    uint32_t value_size = 8;  // at most kMaxValueSize
    uint32_t max_nodes = 1 << 16;
  };

  explicit BPlusTree(const Config& config);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  uint32_t value_size() const { return config_.value_size; }

  // Inserts key -> value; false on duplicate or node-pool exhaustion.
  bool Insert(uint64_t key, const void* value);

  // Copies the value for key; false if absent.
  bool Get(uint64_t key, void* value_out);

  // Overwrites the value for key; false if absent.
  bool Put(uint64_t key, const void* value);

  // Removes key from its leaf; false if absent.
  bool Remove(uint64_t key);

  // Visits [lo, hi] in ascending key order; fn returns false to stop.
  // Returns the number of visited entries. Each leaf's in-range values
  // are copied in one read before fn sees them, so fn must not modify
  // this tree. The walk along the leaf chain ends at the leaf whose
  // range holds hi, so it never reads past emptied leaves.
  size_t Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t, const void*)>& fn);

  // Largest key <= bound within [lo, bound]; false if none.
  bool FindFloor(uint64_t lo, uint64_t bound, uint64_t* key_out,
                 void* value_out);

  size_t size();

  // Nodes taken from the pool, leaves and internal nodes together.
  size_t node_count();

 private:
  // last_pos of a node with no recorded insertion.
  static constexpr uint8_t kNoPos = 0xff;

  // A node's header and keys, laid out exactly as the node's first
  // 8 + 8 * kFanout bytes. Key slots at or past num_keys are stale in
  // the image: past the header's line they are never read at all.
  struct NodeKeys {
    uint8_t is_leaf = 0;
    // Where the last key (leaf) or separator (internal node) was added;
    // kNoPos after a split. Drives the split point, never correctness.
    uint8_t last_pos = kNoPos;
    uint16_t num_keys = 0;
    uint32_t next_leaf = 0;  // leaves only; 0 = last leaf
    uint64_t keys[kFanout] = {};
  };

  // The keys a node covers, [first, last], cut from its ancestors'
  // separators.
  struct KeyRange {
    uint64_t first = 0;
    uint64_t last = ~uint64_t{0};
  };

  struct Leaf {
    uint32_t id = 0;  // 0: the tree is empty
    KeyRange range;
    NodeKeys node;
  };

  // Node ids are pool indices + 1; 0 means "none".
  uint8_t* NodeAt(uint32_t id);
  // Bumps the pool's allocator; 0 when the pool is exhausted. The caller
  // writes the new node's header.
  uint32_t AllocateNode();

  // Reads id's header line (header + keys [0, 7)), then keys [7, n) only
  // if n > 7: exactly the lines covering bytes [0, 8 + 8n).
  NodeKeys ReadKeys(uint32_t id);
  // Writes an image's header and live keys, bytes [0, 8 + 8n), in one
  // call. Every access to a node reads the header's line, so rewriting
  // unchanged keys beside it can add write-set lines but no conflicts.
  void WriteImage(uint32_t id, const NodeKeys& node);

  // Payload slot i of node id; slot_bytes is value_size in leaves and 4
  // (a child id) in internal nodes.
  uint8_t* PayloadAt(uint32_t id, int i, size_t slot_bytes);
  uint32_t ChildAt(uint32_t id, int i);
  void SetChildAt(uint32_t id, int i, uint32_t child);
  // Copies leaf values [from, to) to out with one read.
  void ReadValues(uint32_t id, int from, int to, void* out);
  void WriteValueAt(uint32_t id, int i, const void* value);
  // Moves payload slots [from, to) of src to dst's slots [at, ...) with
  // one read and one write. Overlapping moves are safe.
  void MovePayload(uint32_t src, int from, int to, uint32_t dst, int at,
                   size_t slot_bytes);

  // HTM-visible control words live in the 64-byte pool header:
  // {0: root_id, 1: bump, 2: live_count}. Accessed by byte offset with
  // memcpy semantics — no typed pointer into the pool exists anywhere.
  uint64_t ControlLoad(uint64_t which);
  void ControlStore(uint64_t which, uint64_t value);

  // Position of the first key >= key / > key in an image. In an internal
  // node UpperBoundIn is the child to descend into: keys[i] is the
  // smallest key under child[i + 1].
  static int LowerBoundIn(const NodeKeys& node, uint64_t key);
  static int UpperBoundIn(const NodeKeys& node, uint64_t key);
  // Child i's share of an internal node's range.
  static KeyRange ChildRange(const NodeKeys& node, int i, KeyRange range);

  // Descends from the root to the leaf whose range holds key: one image
  // read plus one child read per level.
  Leaf FindLeaf(uint64_t key);
  // The region's finger when key is in its range, else FindLeaf, which
  // then re-aims the finger.
  Leaf DescendToLeaf(uint64_t key);

  // Splits full child (slot idx of parent), updating both images to
  // match memory and filling right's. The split point is where key
  // would go when that follows the child's last insertion, else the
  // middle. Returns the new right sibling's id, or 0 if the pool is
  // exhausted.
  uint32_t SplitChild(uint32_t parent, NodeKeys& parent_keys, int idx,
                      uint32_t child, NodeKeys& child_keys, uint64_t key,
                      NodeKeys& right_keys);

  // Adds key -> value to leaf (image node, which has room); false on a
  // duplicate.
  bool InsertIntoLeaf(uint32_t leaf, NodeKeys& node, uint64_t key,
                      const void* value);

  Config config_;
  size_t node_bytes_;
  std::unique_ptr<uint8_t[]> pool_storage_;
  uint8_t* pool_;  // pool_storage_ rounded up to a line boundary
};

}  // namespace store
}  // namespace drtm

#endif  // SRC_STORE_BPLUS_TREE_H_
