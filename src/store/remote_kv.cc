#include "src/store/remote_kv.h"

#include <algorithm>
#include <cstring>

namespace drtm {
namespace store {

namespace {

// How far ahead of the confirmed chain position the walk speculates:
// the deepest predicted run posted as one doorbell. Chains beyond this
// depth fall back to another batch per window. Small, because chain
// hints beyond a few hops are increasingly likely to be stale.
constexpr size_t kSpeculationWindow = 4;

}  // namespace

RemoteKv::RemoteKv(rdma::Fabric* fabric, int target_node,
                   const Geometry& geometry, LocationCache* cache)
    : fabric_(fabric), target_(target_node), geo_(geometry), cache_(cache) {}

// Resumable chain-walk state; ScatterLookup rings the doorbell between
// WalkPostRun and WalkConsumeRun.
struct RemoteKv::Walk {
  uint64_t key = 0;
  bool bypass_cache = false;
  uint64_t bucket_off = 0;
  uint64_t max_hops = 0;
  uint64_t hops = 0;
  bool done = false;
  // The current speculative run.
  uint64_t offsets[kSpeculationWindow];
  Bucket buckets[kSpeculationWindow];
  bool from_remote[kSpeculationWindow] = {};
  size_t run = 0;
  bool in_flight = false;  // the run's READs are posted, not yet consumed
  RemoteEntryRef ref;

  void Finish() { done = true; }
  void FinishFound(const HeaderSlot& slot) {
    ref.found = true;
    ref.entry_off = slot.offset();
    ref.incarnation = slot.lossy_incarnation();
    done = true;
  }
};

bool RemoteKv::WalkServeFromCache(Walk& w) {
  if (w.hops > w.max_hops) {
    w.Finish();  // chain longer than the indirect pool: corruption bound
    return true;
  }
  // Serve the walk from cache-resident buckets one hop at a time first:
  // the warm path must stay one hash probe + one bucket copy per hop,
  // with no speculation bookkeeping. Only a cache miss below is worth a
  // predicted run.
  if (w.bypass_cache || cache_ == nullptr) {
    return false;
  }
  Bucket cached;
  while (w.hops <= w.max_hops && cache_->Lookup(w.bucket_off, &cached)) {
    ++w.hops;
    uint64_t next = kInvalidOffset;
    for (const HeaderSlot& slot : cached.slots) {
      if (slot.type() == SlotType::kEntry && slot.key == w.key) {
        w.FinishFound(slot);
        return true;
      }
      if (slot.type() == SlotType::kHeader) {
        next = slot.offset();
      }
    }
    if (next == kInvalidOffset) {
      w.Finish();  // end of chain, key absent
      return true;
    }
    w.bucket_off = next;
  }
  if (w.hops > w.max_hops) {
    w.Finish();
    return true;
  }
  return false;
}

void RemoteKv::WalkPredictRun(Walk& w) {
  // Predict a run of chain buckets starting at bucket_off from the
  // cache's chain-shape hints. Hints are used even in bypass mode —
  // bypass distrusts cached *content*, not cached shape, and every
  // speculative READ's content is still verified in WalkConsumeRun.
  w.run = 0;
  w.offsets[w.run++] = w.bucket_off;
  if (cache_ != nullptr) {
    uint64_t cur = w.bucket_off;
    uint64_t next = kInvalidOffset;
    while (w.run < kSpeculationWindow && cache_->NextHint(cur, &next) &&
           next != kInvalidOffset) {
      w.offsets[w.run++] = next;
      cur = next;
    }
  }
}

size_t RemoteKv::WalkPostRun(Walk& w, rdma::PhaseScatter& scatter,
                             rdma::WrId wr_id) {
  // Fetch the run: cache-resident buckets are served locally, the rest
  // ride one doorbell batch.
  size_t posted = 0;
  for (size_t i = 0; i < w.run; ++i) {
    w.from_remote[i] = false;
    if (!w.bypass_cache && cache_ != nullptr &&
        cache_->Lookup(w.offsets[i], &w.buckets[i])) {
      continue;
    }
    w.from_remote[i] = true;
    scatter.PostRead(target_, wr_id, w.offsets[i], &w.buckets[i],
                     sizeof(Bucket));
    ++posted;
  }
  return posted;
}

bool RemoteKv::WalkConsumeRun(Walk& w) {
  if (w.ref.fetch_failed) {
    w.Finish();  // target down or op faulted mid-walk
    return true;
  }
  if (cache_ != nullptr) {
    // Install every fetched bucket — including mispredicted ones: the
    // snapshot is genuinely that offset's current content, and
    // installing refreshes its chain hint too.
    for (size_t i = 0; i < w.run; ++i) {
      if (w.from_remote[i]) {
        cache_->Install(w.offsets[i], w.buckets[i]);
      }
    }
  }
  // Walk the fetched run in chain order, verifying the predictions.
  for (size_t i = 0; i < w.run; ++i) {
    if (++w.hops > w.max_hops + 1) {
      w.Finish();
      return true;
    }
    uint64_t next = kInvalidOffset;
    for (const HeaderSlot& slot : w.buckets[i].slots) {
      if (slot.type() == SlotType::kEntry && slot.key == w.key) {
        w.FinishFound(slot);
        return true;
      }
      if (slot.type() == SlotType::kHeader) {
        next = slot.offset();
      }
    }
    if (next == kInvalidOffset) {
      w.Finish();  // end of chain, key absent
      return true;
    }
    if (i + 1 < w.run && w.offsets[i + 1] == next) {
      continue;  // speculation confirmed, consume the next bucket
    }
    // Mispredicted (or the run simply ended): resume the walk at the
    // true next bucket, discarding any remaining speculative fetches.
    w.bucket_off = next;
    return false;
  }
  w.Finish();  // the run was fully consumed without finding a next hop
  return true;
}

void RemoteKv::ScatterLookup(rdma::PhaseScatter& scatter,
                             std::vector<LookupTask>* tasks) {
  const size_t n = tasks->size();
  std::vector<Walk> walks(n);
  for (size_t i = 0; i < n; ++i) {
    Walk& w = walks[i];
    LookupTask& task = (*tasks)[i];
    w.key = task.key;
    w.bypass_cache = task.bypass_cache;
    w.bucket_off = task.client->geo_.MainBucketOffset(task.key);
    // A chain longer than the indirect pool means corruption; bound it.
    w.max_hops = task.client->geo_.indirect_buckets + 1;
  }
  std::vector<rdma::Completion> comps;
  const auto any_open = [&walks] {
    return std::any_of(walks.begin(), walks.end(),
                       [](const Walk& w) { return !w.done; });
  };
  while (any_open()) {
    // Scatter: each unfinished walk serves what it can from its cache,
    // predicts its next run, and posts the run's READs on its host
    // node's queue. Nothing is polled yet.
    bool any_posted = false;
    for (size_t i = 0; i < n; ++i) {
      Walk& w = walks[i];
      if (w.done) {
        continue;
      }
      RemoteKv* kv = (*tasks)[i].client;
      if (kv->WalkServeFromCache(w)) {
        continue;
      }
      kv->WalkPredictRun(w);
      const size_t posted = kv->WalkPostRun(w, scatter, i);
      if (posted == 0) {
        // The whole run turned cache-resident after the cache probe
        // missed (another worker installed it): consume it now, so the
        // walk moves on without a READ.
        kv->WalkConsumeRun(w);
        continue;
      }
      ++w.ref.rdma_doorbells;
      w.ref.rdma_reads += static_cast<int>(posted);
      w.in_flight = true;
      any_posted = true;
    }
    if (!any_posted) {
      continue;  // no READ in flight; open walks advanced from cache
    }
    // Gather: one overlapped doorbell per target; a failed READ fails
    // the walk that posted it.
    comps.clear();
    scatter.Gather(&comps);
    for (const rdma::Completion& comp : comps) {
      if (comp.status != rdma::OpStatus::kOk) {
        walks[comp.wr_id].ref.fetch_failed = true;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (walks[i].in_flight) {
        walks[i].in_flight = false;
        (*tasks)[i].client->WalkConsumeRun(walks[i]);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    (*tasks)[i].result = walks[i].ref;
  }
}

RemoteEntryRef RemoteKv::Lookup(uint64_t key, bool bypass_cache) {
  std::vector<LookupTask> tasks(1);
  tasks[0].client = this;
  tasks[0].key = key;
  tasks[0].bypass_cache = bypass_cache;
  rdma::PhaseScatter scatter(*fabric_);
  ScatterLookup(scatter, &tasks);
  return tasks[0].result;
}

bool RemoteKv::ReadEntry(uint64_t entry_off, RemoteEntrySnapshot* out) {
  out->value.resize(geo_.value_size);
  std::vector<uint8_t> buf(sizeof(EntryHeader) + geo_.value_size);
  if (fabric_->Read(target_, entry_off, buf.data(), buf.size()) !=
      rdma::OpStatus::kOk) {
    return false;
  }
  std::memcpy(&out->header, buf.data(), sizeof(EntryHeader));
  std::memcpy(out->value.data(), buf.data() + sizeof(EntryHeader),
              geo_.value_size);
  return true;
}

bool RemoteKv::ReadValue(uint64_t entry_off, void* out) {
  return fabric_->Read(target_, geo_.ValueOffset(entry_off), out,
                       geo_.value_size) == rdma::OpStatus::kOk;
}

bool RemoteKv::Get(uint64_t key, void* value_out) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool bypass = (attempt == 1);
    const RemoteEntryRef ref = Lookup(key, bypass);
    if (!ref.found) {
      if (!bypass && cache_ != nullptr) {
        // The miss may be a stale cached bucket; retry against the host.
        continue;
      }
      return false;
    }
    RemoteEntrySnapshot snap;
    if (!ReadEntry(ref.entry_off, &snap)) {
      return false;
    }
    // Incarnation checking: the entry must still belong to this key and
    // the slot's lossy incarnation must match the entry's (section 5.3).
    if (snap.header.key == key &&
        (snap.header.incarnation & kLossyMask) == ref.incarnation) {
      std::memcpy(value_out, snap.value.data(), geo_.value_size);
      return true;
    }
    if (cache_ == nullptr || bypass) {
      return false;  // Entry mutated under an uncached reader: true miss.
    }
    cache_->Invalidate(geo_.MainBucketOffset(key));
  }
  return false;
}

}  // namespace store
}  // namespace drtm
