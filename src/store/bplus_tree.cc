#include "src/store/bplus_tree.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/cacheline.h"
#include "src/htm/htm.h"

namespace drtm {
namespace store {

namespace {
constexpr uint64_t kControlRoot = 0;
constexpr uint64_t kControlBump = 1;
constexpr uint64_t kControlLive = 2;
constexpr size_t kControlBytes = kCacheLineSize;

// Node layout: the 8-byte header {is_leaf: u16, num_keys: u16,
// next_leaf: u32}, kFanout u64 keys, then the payload (leaf values or
// kFanout + 1 u32 child ids). Nodes start on a line boundary.
constexpr size_t kKeysOff = 8;  // after the header
// Keys that share the header's line.
constexpr int kHeaderLineKeys =
    static_cast<int>((kCacheLineSize - kKeysOff) / sizeof(uint64_t));
constexpr size_t kPayloadOff =
    kKeysOff + sizeof(uint64_t) * BPlusTree::kFanout;
constexpr size_t kChildBytes = sizeof(uint32_t);

size_t KeyOff(int i) {
  return kKeysOff + sizeof(uint64_t) * static_cast<size_t>(i);
}

// One tree's leaf finger, made by one HTM region on this thread.
struct Finger {
  const BPlusTree* tree = nullptr;
  uint64_t serial = 0;  // htm::CurrentRegionSerial() of its region; 0: none
  uint32_t leaf = 0;
  uint64_t first = 0;  // the leaf's key range [first, last]
  uint64_t last = 0;
};

// A region touches a handful of trees (TPC-C's new-order: four).
constexpr int kFingers = 8;
thread_local Finger t_fingers[kFingers];

// The finger region `serial` holds on tree, or nullptr (always outside a
// region, where serial is 0).
Finger* FingerOf(const BPlusTree* tree, uint64_t serial) {
  if (serial == 0) {
    return nullptr;
  }
  for (Finger& f : t_fingers) {
    if (f.serial == serial && f.tree == tree) {
      return &f;
    }
  }
  return nullptr;
}

void AimFinger(const BPlusTree* tree, uint64_t serial, uint32_t leaf,
               uint64_t first, uint64_t last) {
  if (serial == 0) {
    return;
  }
  Finger* slot = FingerOf(tree, serial);
  if (slot == nullptr) {
    // A slot no finger of this region holds, else the first.
    slot = &t_fingers[0];
    for (Finger& f : t_fingers) {
      if (f.serial != serial) {
        slot = &f;
        break;
      }
    }
  }
  *slot = Finger{tree, serial, leaf, first, last};
}
}  // namespace

BPlusTree::BPlusTree(const Config& config) : config_(config) {
  static_assert(offsetof(NodeKeys, keys) == kKeysOff);
  static_assert(sizeof(NodeKeys) == kPayloadOff);
  if (config.value_size > kMaxValueSize) {
    std::fprintf(stderr, "BPlusTree: value_size %u exceeds %u\n",
                 config.value_size, kMaxValueSize);
    std::abort();
  }
  node_bytes_ = kPayloadOff +
                std::max(kChildBytes * (kFanout + 1),
                         static_cast<size_t>(config.value_size) * kFanout);
  node_bytes_ = (node_bytes_ + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
  // make_unique only guarantees 16-byte alignment: over-allocate and
  // start the pool on the next line boundary.
  pool_storage_ = std::make_unique<uint8_t[]>(
      kControlBytes + node_bytes_ * config.max_nodes + kCacheLineSize - 1);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(pool_storage_.get());
  pool_ = pool_storage_.get() +
          ((kCacheLineSize - raw % kCacheLineSize) % kCacheLineSize);
}

uint64_t BPlusTree::ControlLoad(uint64_t which) {
  uint64_t value;
  htm::ReadBytes(&value, pool_ + which * sizeof(uint64_t),
                 sizeof(value));
  return value;
}

void BPlusTree::ControlStore(uint64_t which, uint64_t value) {
  htm::WriteBytes(pool_ + which * sizeof(uint64_t), &value,
                  sizeof(value));
}

uint8_t* BPlusTree::NodeAt(uint32_t id) {
  if (id == 0 || id > config_.max_nodes) {
    // A torn read inside a doomed transaction produced a bogus node id;
    // abort it instead of dereferencing out of the pool.
    htm::AbortCurrentTransactionOrDie("B+ tree node id out of range");
  }
  return pool_ + kControlBytes +
         node_bytes_ * static_cast<size_t>(id - 1);
}

uint32_t BPlusTree::AllocateNode() {
  const uint64_t bump = ControlLoad(kControlBump);
  if (bump >= config_.max_nodes) {
    return 0;
  }
  ControlStore(kControlBump, bump + 1);
  return static_cast<uint32_t>(bump + 1);
}

BPlusTree::NodeKeys BPlusTree::ReadKeys(uint32_t id) {
  const uint8_t* base = NodeAt(id);
  NodeKeys node;
  htm::ReadBytes(&node, base, kCacheLineSize);
  if (node.num_keys > kFanout) {
    htm::AbortCurrentTransactionOrDie("B+ tree key count out of range");
  }
  if (node.num_keys > kHeaderLineKeys) {
    // Only the live keys: key 15 shares a line with the first values.
    htm::ReadBytes(&node.keys[kHeaderLineKeys], base + kCacheLineSize,
                   KeyOff(node.num_keys) - kCacheLineSize);
  }
  return node;
}

void BPlusTree::WriteImage(uint32_t id, const NodeKeys& node) {
  htm::WriteBytes(NodeAt(id), &node, KeyOff(node.num_keys));
}

uint8_t* BPlusTree::PayloadAt(uint32_t id, int i, size_t slot_bytes) {
  return NodeAt(id) + kPayloadOff + static_cast<size_t>(i) * slot_bytes;
}

uint32_t BPlusTree::ChildAt(uint32_t id, int i) {
  uint32_t child;
  htm::ReadBytes(&child, PayloadAt(id, i, kChildBytes), sizeof(child));
  return child;
}

void BPlusTree::SetChildAt(uint32_t id, int i, uint32_t child) {
  htm::WriteBytes(PayloadAt(id, i, kChildBytes), &child, sizeof(child));
}

void BPlusTree::ReadValues(uint32_t id, int from, int to, void* out) {
  htm::ReadBytes(out, PayloadAt(id, from, config_.value_size),
                 static_cast<size_t>(to - from) * config_.value_size);
}

void BPlusTree::WriteValueAt(uint32_t id, int i, const void* value) {
  htm::WriteBytes(PayloadAt(id, i, config_.value_size), value,
                  config_.value_size);
}

void BPlusTree::MovePayload(uint32_t src, int from, int to, uint32_t dst,
                            int at, size_t slot_bytes) {
  uint8_t buf[kFanout * kMaxValueSize];
  const size_t bytes = static_cast<size_t>(to - from) * slot_bytes;
  htm::ReadBytes(buf, PayloadAt(src, from, slot_bytes), bytes);
  htm::WriteBytes(PayloadAt(dst, at, slot_bytes), buf, bytes);
}

int BPlusTree::LowerBoundIn(const NodeKeys& node, uint64_t key) {
  return static_cast<int>(
      std::lower_bound(node.keys, node.keys + node.num_keys, key) -
      node.keys);
}

int BPlusTree::UpperBoundIn(const NodeKeys& node, uint64_t key) {
  return static_cast<int>(
      std::upper_bound(node.keys, node.keys + node.num_keys, key) -
      node.keys);
}

BPlusTree::KeyRange BPlusTree::ChildRange(const NodeKeys& node, int i,
                                          KeyRange range) {
  if (i > 0) {
    range.first = node.keys[i - 1];
  }
  if (i < node.num_keys) {
    range.last = node.keys[i] - 1;  // keys[i] > every key under child i
  }
  return range;
}

BPlusTree::Leaf BPlusTree::FindLeaf(uint64_t key) {
  Leaf leaf;
  uint32_t id = static_cast<uint32_t>(ControlLoad(kControlRoot));
  for (int depth = 0; id != 0; ++depth) {
    if (depth > 64) {
      htm::AbortCurrentTransactionOrDie("B+ tree descent too deep");
    }
    leaf.node = ReadKeys(id);
    if (leaf.node.is_leaf != 0) {
      leaf.id = id;
      return leaf;
    }
    const int i = UpperBoundIn(leaf.node, key);
    leaf.range = ChildRange(leaf.node, i, leaf.range);
    id = ChildAt(id, i);
  }
  return leaf;
}

BPlusTree::Leaf BPlusTree::DescendToLeaf(uint64_t key) {
  const uint64_t serial = htm::CurrentRegionSerial();
  if (const Finger* f = FingerOf(this, serial);
      f != nullptr && key >= f->first && key <= f->last) {
    Leaf leaf;
    leaf.id = f->leaf;
    leaf.range = KeyRange{f->first, f->last};
    leaf.node = ReadKeys(leaf.id);
    return leaf;
  }
  Leaf leaf = FindLeaf(key);
  if (leaf.id != 0) {
    AimFinger(this, serial, leaf.id, leaf.range.first, leaf.range.last);
  }
  return leaf;
}

bool BPlusTree::InsertIntoLeaf(uint32_t leaf, NodeKeys& node, uint64_t key,
                               const void* value) {
  const int pos = LowerBoundIn(node, key);
  const int n = node.num_keys;
  if (pos < n && node.keys[pos] == key) {
    return false;  // duplicate
  }
  std::copy_backward(node.keys + pos, node.keys + n, node.keys + n + 1);
  node.keys[pos] = key;
  node.num_keys = static_cast<uint16_t>(n + 1);
  node.last_pos = static_cast<uint8_t>(pos);
  WriteImage(leaf, node);
  MovePayload(leaf, pos, n, leaf, pos + 1, config_.value_size);
  WriteValueAt(leaf, pos, value);
  ControlStore(kControlLive, ControlLoad(kControlLive) + 1);
  return true;
}

uint32_t BPlusTree::SplitChild(uint32_t parent, NodeKeys& parent_keys,
                               int idx, uint32_t child, NodeKeys& child_keys,
                               uint64_t key, NodeKeys& right_keys) {
  const uint32_t right = AllocateNode();
  if (right == 0) {
    return 0;
  }
  const int n = child_keys.num_keys;  // == kFanout
  // Where key goes in the child (a leaf's duplicate splits either way).
  const int at = UpperBoundIn(child_keys, key);
  int mid = n / 2;
  if (at == child_keys.last_pos + 1) {
    // An ascending run: split at the insertion point, so the left side
    // ends where key goes, unless the right side would be left without
    // a key.
    mid = std::min(at, child_keys.is_leaf != 0 ? n - 1 : n - 2);
  }
  right_keys = NodeKeys();
  right_keys.is_leaf = child_keys.is_leaf;
  child_keys.last_pos = kNoPos;
  uint64_t promote;
  if (child_keys.is_leaf != 0) {
    // Copy-up: right gets keys[mid..n), promote right's first key.
    std::copy(child_keys.keys + mid, child_keys.keys + n, right_keys.keys);
    right_keys.num_keys = static_cast<uint16_t>(n - mid);
    right_keys.next_leaf = child_keys.next_leaf;
    child_keys.next_leaf = right;
    MovePayload(child, mid, n, right, 0, config_.value_size);
    promote = right_keys.keys[0];
  } else {
    // Push-up: keys[mid] moves to the parent.
    promote = child_keys.keys[mid];
    std::copy(child_keys.keys + mid + 1, child_keys.keys + n,
              right_keys.keys);
    right_keys.num_keys = static_cast<uint16_t>(n - mid - 1);
    MovePayload(child, mid + 1, n + 1, right, 0, kChildBytes);
  }
  WriteImage(right, right_keys);
  child_keys.num_keys = static_cast<uint16_t>(mid);
  WriteImage(child, child_keys);

  // Make room in the parent at idx.
  const int pn = parent_keys.num_keys;
  std::copy_backward(parent_keys.keys + idx, parent_keys.keys + pn,
                     parent_keys.keys + pn + 1);
  parent_keys.keys[idx] = promote;
  parent_keys.num_keys = static_cast<uint16_t>(pn + 1);
  parent_keys.last_pos = static_cast<uint8_t>(idx);
  WriteImage(parent, parent_keys);
  MovePayload(parent, idx + 1, pn + 1, parent, idx + 2, kChildBytes);
  SetChildAt(parent, idx + 1, right);
  return right;
}

bool BPlusTree::Insert(uint64_t key, const void* value) {
  const uint64_t serial = htm::CurrentRegionSerial();
  if (Finger* f = FingerOf(this, serial)) {
    if (key >= f->first && key <= f->last) {
      NodeKeys keys = ReadKeys(f->leaf);
      if (keys.num_keys < kFanout) {
        return InsertIntoLeaf(f->leaf, keys, key, value);
      }
    }
    // The descent may split the finger's leaf and re-aims the finger at
    // the leaf it reaches; dropped first so that no exit leaves it stale.
    f->serial = 0;
  }
  uint32_t node = static_cast<uint32_t>(ControlLoad(kControlRoot));
  if (node == 0) {
    const uint32_t leaf = AllocateNode();
    if (leaf == 0) {
      return false;
    }
    NodeKeys keys;
    keys.is_leaf = 1;
    keys.num_keys = 1;
    keys.last_pos = 0;
    keys.keys[0] = key;
    WriteImage(leaf, keys);
    WriteValueAt(leaf, 0, value);
    ControlStore(kControlRoot, static_cast<uint64_t>(leaf));
    ControlStore(kControlLive, ControlLoad(kControlLive) + 1);
    AimFinger(this, serial, leaf, 0, ~uint64_t{0});
    return true;
  }

  // Top-down preemptive splitting: any full node on the path is split
  // before descending so parents always have room.
  NodeKeys keys = ReadKeys(node);
  NodeKeys right_keys;
  if (keys.num_keys == kFanout) {
    const uint32_t new_root = AllocateNode();
    if (new_root == 0) {
      return false;
    }
    NodeKeys root_keys;
    SetChildAt(new_root, 0, node);
    if (SplitChild(new_root, root_keys, 0, node, keys, key, right_keys) ==
        0) {
      return false;
    }
    ControlStore(kControlRoot, static_cast<uint64_t>(new_root));
    node = new_root;
    keys = root_keys;
  }

  KeyRange range;
  while (keys.is_leaf == 0) {
    int i = UpperBoundIn(keys, key);
    uint32_t child = ChildAt(node, i);
    NodeKeys child_keys = ReadKeys(child);
    if (child_keys.num_keys == kFanout) {
      const uint32_t right =
          SplitChild(node, keys, i, child, child_keys, key, right_keys);
      if (right == 0) {
        return false;
      }
      if (key >= keys.keys[i]) {
        ++i;
        child = right;
        child_keys = right_keys;
      }
    }
    range = ChildRange(keys, i, range);
    node = child;
    keys = child_keys;
  }
  AimFinger(this, serial, node, range.first, range.last);
  return InsertIntoLeaf(node, keys, key, value);
}

bool BPlusTree::Get(uint64_t key, void* value_out) {
  const Leaf leaf = DescendToLeaf(key);
  const int pos = LowerBoundIn(leaf.node, key);
  if (leaf.id == 0 || pos >= leaf.node.num_keys ||
      leaf.node.keys[pos] != key) {
    return false;
  }
  ReadValues(leaf.id, pos, pos + 1, value_out);
  return true;
}

bool BPlusTree::Put(uint64_t key, const void* value) {
  const Leaf leaf = DescendToLeaf(key);
  const int pos = LowerBoundIn(leaf.node, key);
  if (leaf.id == 0 || pos >= leaf.node.num_keys ||
      leaf.node.keys[pos] != key) {
    return false;
  }
  WriteValueAt(leaf.id, pos, value);
  return true;
}

bool BPlusTree::Remove(uint64_t key) {
  Leaf leaf = DescendToLeaf(key);
  NodeKeys& node = leaf.node;
  const int pos = LowerBoundIn(node, key);
  const int n = node.num_keys;
  if (leaf.id == 0 || pos >= n || node.keys[pos] != key) {
    return false;
  }
  std::copy(node.keys + pos + 1, node.keys + n, node.keys + pos);
  node.num_keys = static_cast<uint16_t>(n - 1);
  if (node.last_pos != kNoPos && pos <= node.last_pos) {
    // Keep tracking the last added key; forget it once it is removed.
    node.last_pos = pos < node.last_pos
                        ? static_cast<uint8_t>(node.last_pos - 1)
                        : kNoPos;
  }
  WriteImage(leaf.id, node);
  MovePayload(leaf.id, pos + 1, n, leaf.id, pos, config_.value_size);
  ControlStore(kControlLive, ControlLoad(kControlLive) - 1);
  return true;
}

size_t BPlusTree::Scan(uint64_t lo, uint64_t hi,
                       const std::function<bool(uint64_t, const void*)>& fn) {
  Leaf leaf = DescendToLeaf(lo);
  // The walk ends at the leaf whose range holds hi: the first leaf when
  // its range reaches hi. Otherwise a key past hi usually stops it, and
  // the end leaf is looked up only on reaching an emptied leaf, which
  // holds none.
  uint32_t end = leaf.range.last >= hi ? leaf.id : 0;
  // The first leaf's lower bound, then the largest key read: the end
  // leaf's range starts past it until the walk has read that leaf.
  uint64_t reached = leaf.range.first;
  size_t visited = 0;
  size_t hops = 0;
  uint8_t values[kFanout * kMaxValueSize];
  const size_t value_size = config_.value_size;
  while (leaf.id != 0) {
    if (++hops > config_.max_nodes) {
      htm::AbortCurrentTransactionOrDie("B+ tree leaf chain cycle");
    }
    const NodeKeys& node = leaf.node;
    const int from = LowerBoundIn(node, lo);
    const int to = UpperBoundIn(node, hi);
    ReadValues(leaf.id, from, to, values);
    for (int i = from; i < to; ++i) {
      ++visited;
      const size_t at = static_cast<size_t>(i - from) * value_size;
      if (!fn(node.keys[i], values + at)) {
        return visited;
      }
    }
    if (leaf.id == end || to < node.num_keys || node.next_leaf == 0) {
      return visited;  // hi's leaf, passed hi, or the last leaf
    }
    if (node.num_keys > 0) {
      reached = node.keys[node.num_keys - 1];
    }
    leaf.id = node.next_leaf;
    leaf.node = ReadKeys(leaf.id);
    if (end == 0 && leaf.node.num_keys == 0) {
      const Leaf last = FindLeaf(hi);
      if (last.range.first <= reached) {
        return visited;  // hi's leaf was already read
      }
      end = last.id;
    }
  }
  return visited;
}

bool BPlusTree::FindFloor(uint64_t lo, uint64_t bound, uint64_t* key_out,
                          void* value_out) {
  bool found = false;
  Scan(lo, bound, [&](uint64_t key, const void* value) {
    found = true;
    // drtm-lint: allow(TX01 key_out is a caller-owned out-parameter, not store memory)
    *key_out = key;
    std::memcpy(value_out, value, config_.value_size);
    return true;  // keep going; the last visited is the floor
  });
  return found;
}

size_t BPlusTree::size() {
  return static_cast<size_t>(ControlLoad(kControlLive));
}

size_t BPlusTree::node_count() {
  return static_cast<size_t>(ControlLoad(kControlBump));
}

}  // namespace store
}  // namespace drtm
