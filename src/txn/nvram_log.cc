#include "src/txn/nvram_log.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <set>

#include "src/chaos/injector.h"
#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"
#include "src/stat/timer.h"

namespace drtm {
namespace txn {

namespace {

struct RecordHeader {
  uint32_t len;  // payload length
  uint8_t type;
  uint8_t pad[3];
  uint64_t txn_id;
};
static_assert(sizeof(RecordHeader) == 16);

// Payload of a kEpoch framing record. Written open when the epoch's
// first record is staged; backpatched (magic flip, counts, checksum)
// by the seal. Recovery trusts an epoch only when the magic says
// sealed *and* the checksum over its data bytes matches — a crash
// between staging and seal leaves the open magic, so the whole tail
// epoch is invisible.
struct EpochInfo {
  uint32_t magic;
  uint32_t record_count;
  uint64_t data_bytes;
  uint64_t checksum;
  uint64_t reserved;
};
static_assert(sizeof(EpochInfo) == 32);

constexpr uint32_t kEpochOpen = 0x45504f50;    // "EPOP"
constexpr uint32_t kEpochSealed = 0x4550534c;  // "EPSL"
constexpr size_t kHeaderBytes = sizeof(RecordHeader);
constexpr size_t kEpochHeaderBytes = sizeof(RecordHeader) + sizeof(EpochInfo);
// Flush-device window, mirroring the RDMA send queue's depth:
// at most this many sealed epochs may be in flight before a submit
// blocks on the oldest completion.
constexpr size_t kMaxInflightFlushes = 4;

uint64_t Align8(uint64_t len) { return (len + 7) & ~uint64_t{7}; }

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

struct LogMetricIds {
  uint32_t appends = 0;
  uint32_t bytes = 0;
  uint32_t full = 0;
  uint32_t append_ns = 0;
  uint32_t epoch_sealed = 0;
  uint32_t epoch_flushed = 0;
  uint32_t epoch_records = 0;
  uint32_t epoch_bytes = 0;
  uint32_t epoch_reclaimed = 0;
  uint32_t ack_ns = 0;
};

const LogMetricIds& LogIds() {
  static const LogMetricIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    LogMetricIds l;
    l.appends = reg.CounterId("log.append.ops");
    l.bytes = reg.CounterId("log.append.bytes");
    l.full = reg.CounterId("log.segment_full");
    l.append_ns = reg.TimerId("phase.log_append_ns");
    l.epoch_sealed = reg.CounterId("log.epoch.sealed");
    l.epoch_flushed = reg.CounterId("log.epoch.flushed");
    l.epoch_records = reg.CounterId("log.epoch.records");
    l.epoch_bytes = reg.CounterId("log.epoch.bytes");
    l.epoch_reclaimed = reg.CounterId("log.epoch.reclaimed_bytes");
    l.ack_ns = reg.TimerId("txn.durability.ack_ns");
    return l;
  }();
  return ids;
}

}  // namespace

NvramLog::NvramLog(rdma::NodeMemory* memory, int workers, size_t segment_bytes,
                   const LogEpochConfig& epoch)
    : memory_(memory), segment_bytes_(segment_bytes), epoch_cfg_(epoch) {
  assert(segment_bytes_ >= 2 * kEpochHeaderBytes);
  segments_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    SegmentRef ref;
    ref.ctrl_off = memory_->Allocate(64, 64);
    ref.base_off = memory_->Allocate(segment_bytes, 64);
    segments_.push_back(ref);
    flush_.push_back(std::make_unique<FlushState>());
    // No epoch is open at boot.
    htm::StrongStore(Ctrl(ref, kEpochStartSlot), kNoEpoch);
  }
}

uint64_t* NvramLog::Ctrl(const SegmentRef& seg, size_t slot) const {
  return static_cast<uint64_t*>(memory_->At(seg.ctrl_off + slot * 8));
}

uint8_t* NvramLog::SegAt(const SegmentRef& seg, uint64_t lsn) const {
  return static_cast<uint8_t*>(
      memory_->At(seg.base_off + lsn % segment_bytes_));
}

AppendStatus NvramLog::TryAppend(int worker, LogType type, uint64_t txn_id,
                                 const void* payload, size_t len) {
  // If the enclosing (emulated) HTM region aborts out of Append via
  // longjmp the destructor is skipped and the sample is simply dropped,
  // which is the intended behaviour for an undone append.
  stat::ScopedTimer phase(LogIds().append_ns);
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  const bool in_htm = htm::HtmThread::Current() != nullptr;
  if (!in_htm) {
    Poll(worker);
    MaybeSealOnThreshold(worker);
  }
  const uint64_t need = kHeaderBytes + Align8(len);
  bool reclaimed = false;
  while (true) {
    const uint64_t head = htm::Load(Ctrl(seg, kHeadSlot));
    const uint64_t epoch_start = htm::Load(Ctrl(seg, kEpochStartSlot));
    // The truncation base only moves under this worker's own
    // ReclaimSpace (outside HTM), so it cannot change underneath us and
    // needs no HTM subscription.
    const uint64_t truncate = htm::StrongLoad(Ctrl(seg, kTruncateSlot));

    const bool open_epoch = (epoch_start == kNoEpoch);
    uint64_t pad_bytes = 0;
    uint64_t record_lsn = head;
    uint64_t total = need;
    const uint64_t phys_left = segment_bytes_ - head % segment_bytes_;
    if (open_epoch) {
      // A new epoch (header + first record) must be physically
      // contiguous; pad the ring tail if it cannot fit. An *exact* fit
      // pads too: it would leave the open epoch ending on the ring
      // boundary, and the next record would continue it at physical
      // offset 0 — breaking the contiguity the seal/replay checksums
      // (which read data_bytes linearly from data_start) rely on.
      if (phys_left <= kEpochHeaderBytes + need) {
        pad_bytes = phys_left;
      }
      record_lsn = head + pad_bytes + kEpochHeaderBytes;
      total = pad_bytes + kEpochHeaderBytes + need;
    } else if (phys_left <= need) {
      // The record would reach or cross the ring boundary mid-epoch.
      // Epochs are contiguous — and may never end *on* the boundary
      // while open (see above) — so the open one must seal first.
      // Impossible inside an HTM region (the seal takes the flush
      // mutex); the caller aborts and the retry path seals/reclaims
      // outside.
      if (in_htm) {
        stat::Registry::Global().Add(LogIds().full);
        return AppendStatus::kFull;
      }
      SealAndSubmit(worker);
      continue;
    }
    if (head + total - truncate > segment_bytes_) {
      if (!in_htm && !reclaimed) {
        reclaimed = true;
        if (ReclaimSpace(worker)) {
          continue;
        }
      }
      stat::Registry::Global().Add(LogIds().full);
      return AppendStatus::kFull;
    }

    // Stage every byte before publishing anything: inside HTM the
    // region's rollback makes the append all-or-nothing; outside, the
    // chaos check below models the power cut and nothing staged is
    // visible until the head moves.
    if (pad_bytes >= kHeaderBytes) {
      RecordHeader pad{};
      pad.len = static_cast<uint32_t>(pad_bytes - kHeaderBytes);
      pad.type = static_cast<uint8_t>(LogType::kPad);
      htm::WriteBytes(SegAt(seg, head), &pad, sizeof(pad));
    }
    uint64_t epoch_id = 0;
    if (open_epoch) {
      epoch_id = htm::Load(Ctrl(seg, kEpochSeqSlot));
      RecordHeader eh{};
      eh.len = sizeof(EpochInfo);
      eh.type = static_cast<uint8_t>(LogType::kEpoch);
      eh.txn_id = epoch_id;
      EpochInfo info{};
      info.magic = kEpochOpen;
      htm::WriteBytes(SegAt(seg, head + pad_bytes), &eh, sizeof(eh));
      htm::WriteBytes(SegAt(seg, head + pad_bytes + kHeaderBytes), &info,
                      sizeof(info));
    }
    RecordHeader header{};
    header.len = static_cast<uint32_t>(len);
    header.type = static_cast<uint8_t>(type);
    header.txn_id = txn_id;
    uint8_t* dst = SegAt(seg, record_lsn);
    htm::WriteBytes(dst, &header, sizeof(header));
    if (len > 0) {
      htm::WriteBytes(dst + sizeof(header), payload, len);
    }
    // Chaos crash point between the staged bytes and the publish: a
    // power cut here leaves a torn record below the head counter —
    // which must be invisible to replay (the head is the commit point
    // of an append). kAbandon simulates exactly that: bytes written,
    // head untouched, caller told the append failed.
    static const uint32_t kAppendPoint =
        chaos::Injector::Global().Point("log.append");
    const chaos::Decision fault =
        chaos::Check(kAppendPoint, memory_->node_id());
    if (fault.kind == chaos::Decision::Kind::kAbandon ||
        fault.kind == chaos::Decision::Kind::kFailOp) {
      // kFaulted, not kFull: the injected fault models the op failing,
      // so callers must not respond with a reclaim-and-retry.
      return AppendStatus::kFaulted;
    }
    if (fault.kind == chaos::Decision::Kind::kDelayNs) {
      SpinFor(fault.arg);
    }
    htm::Store(Ctrl(seg, kHeadSlot), head + total);
    if (open_epoch) {
      htm::Store(Ctrl(seg, kEpochStartSlot), head + pad_bytes);
      htm::Store(Ctrl(seg, kEpochRecordsSlot), uint64_t{1});
      htm::Store(Ctrl(seg, kEpochSeqSlot), epoch_id + 1);
    } else {
      htm::Store(Ctrl(seg, kEpochRecordsSlot),
                 htm::Load(Ctrl(seg, kEpochRecordsSlot)) + 1);
    }
    stat::Registry& reg = stat::Registry::Global();
    reg.Add(LogIds().appends);
    reg.Add(LogIds().bytes, need);
    if (!in_htm) {
      if (open_epoch) {
        flush_[static_cast<size_t>(worker)]->epoch_open_ns = MonotonicNanos();
      }
      if (!epoch_cfg_.group_commit) {
        // Synchronous baseline: every record is its own sealed epoch
        // (the degenerate 1-record epoch) and is submitted immediately.
        SealAndSubmit(worker);
      } else {
        MaybeSealOnThreshold(worker);
      }
    }
    return AppendStatus::kOk;
  }
}

void NvramLog::MaybeSealOnThreshold(int worker) {
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  const uint64_t epoch_start = htm::StrongLoad(Ctrl(seg, kEpochStartSlot));
  if (epoch_start == kNoEpoch) {
    return;
  }
  const uint64_t head = htm::StrongLoad(Ctrl(seg, kHeadSlot));
  const uint64_t data_bytes = head - (epoch_start + kEpochHeaderBytes);
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  if (data_bytes >= epoch_cfg_.epoch_bytes) {
    SealAndSubmit(worker);
    return;
  }
  if (epoch_cfg_.epoch_us > 0) {
    // The epoch may have been opened inside an HTM region (where host
    // state is off limits); stamp it at first outside-HTM sighting.
    if (state.epoch_open_ns == 0) {
      state.epoch_open_ns = MonotonicNanos();
    } else if (MonotonicNanos() - state.epoch_open_ns >
               epoch_cfg_.epoch_us * 1000) {
      SealAndSubmit(worker);
    }
  }
}

uint64_t NvramLog::SealAndSubmit(int worker) {
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  const uint64_t epoch_start = htm::StrongLoad(Ctrl(seg, kEpochStartSlot));
  if (epoch_start == kNoEpoch) {
    return htm::StrongLoad(Ctrl(seg, kSealedSlot));
  }
  const uint64_t head = htm::StrongLoad(Ctrl(seg, kHeadSlot));
  // Chaos: the seal itself is the epoch boundary. A kCrashPoint here is
  // the crash-between-records-and-seal window — the node dies with the
  // tail epoch open, and recovery must treat it as invisible.
  static const uint32_t kSealPoint =
      chaos::Injector::Global().Point("log.epoch.seal");
  const chaos::Decision seal_fault =
      chaos::Check(kSealPoint, memory_->node_id());
  if (seal_fault.kind == chaos::Decision::Kind::kAbandon ||
      seal_fault.kind == chaos::Decision::Kind::kFailOp) {
    return htm::StrongLoad(Ctrl(seg, kSealedSlot));
  }
  if (seal_fault.kind == chaos::Decision::Kind::kDelayNs) {
    SpinFor(seal_fault.arg);
  }
  const uint64_t records = htm::StrongLoad(Ctrl(seg, kEpochRecordsSlot));
  const uint64_t data_start = epoch_start + kEpochHeaderBytes;
  const uint64_t data_bytes = head - data_start;
  std::lock_guard<std::mutex> lock(state.mu);
  EpochInfo info{};
  info.magic = kEpochSealed;
  info.record_count = static_cast<uint32_t>(records);
  info.data_bytes = data_bytes;
  // The epoch is physically contiguous and only this worker writes its
  // segment, so the checksum can read the raw bytes.
  info.checksum = Fnv1a(SegAt(seg, data_start), data_bytes);
  htm::StrongWrite(SegAt(seg, epoch_start) + kHeaderBytes, &info,
                   sizeof(info));
  // Publishing the sealed frontier is the epoch's commit point: a crash
  // before this store leaves the open magic in place and the epoch
  // invisible.
  htm::StrongStore(Ctrl(seg, kSealedSlot), head);
  htm::StrongStore(Ctrl(seg, kEpochStartSlot), kNoEpoch);
  htm::StrongStore(Ctrl(seg, kEpochRecordsSlot), uint64_t{0});
  state.epoch_open_ns = 0;
  stat::Registry& reg = stat::Registry::Global();
  reg.Add(LogIds().epoch_sealed);
  reg.Add(LogIds().epoch_records, records);
  reg.Add(LogIds().epoch_bytes, data_bytes);
  SubmitFlush(worker, head, head - epoch_start);
  PollLocked(worker, state);
  return head;
}

void NvramLog::SubmitFlush(int worker, uint64_t end_lsn, size_t bytes) {
  // Called with state.mu held. The submission is the doorbell of the
  // durability pipeline: one modeled flush per sealed epoch, executed
  // by a serial per-worker device.
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  static const uint32_t kFlushPoint =
      chaos::Injector::Global().Point("log.epoch.flush");
  const chaos::Decision fault =
      chaos::Check(kFlushPoint, memory_->node_id());
  if (fault.kind == chaos::Decision::Kind::kAbandon ||
      fault.kind == chaos::Decision::Kind::kFailOp) {
    // Lost doorbell. Durability stalls but nothing breaks: end LSNs are
    // cumulative, so the next submission flushes this epoch too.
    return;
  }
  if (state.inflight.size() >= kMaxInflightFlushes) {
    // Window full: block on the oldest in-flight flush, like a full
    // RDMA send queue waits out its pending batch.
    const uint64_t ready = state.inflight.front().ready_ns;
    const uint64_t now = MonotonicNanos();
    if (ready > now) {
      SpinFor(ready - now);
    }
    PollLocked(worker, state);
  }
  uint64_t cost = epoch_cfg_.latency.FlushNs(bytes);
  if (fault.kind == chaos::Decision::Kind::kDelayNs) {
    cost += fault.arg;
  }
  const uint64_t start = std::max(MonotonicNanos(), state.device_free_ns);
  state.device_free_ns = start + cost;
  state.inflight.push_back(Flush{end_lsn, start + cost});
}

void NvramLog::PollLocked(int worker, FlushState& state) {
  (void)worker;
  const uint64_t now = MonotonicNanos();
  while (!state.inflight.empty() && state.inflight.front().ready_ns <= now) {
    const Flush done = state.inflight.front();
    state.inflight.pop_front();
    if (done.end_lsn >
        state.durable_lsn.load(std::memory_order_relaxed)) {
      state.durable_lsn.store(done.end_lsn, std::memory_order_release);
    }
    stat::Registry::Global().Add(LogIds().epoch_flushed);
    // Acks are registered in LSN order (one owner thread), so the
    // durable prefix sits at the front.
    while (!state.acks.empty() && state.acks.front().lsn <= done.end_lsn) {
      const PendingAck ack = state.acks.front();
      state.acks.pop_front();
      stat::Registry::Global().Record(
          LogIds().ack_ns,
          done.ready_ns > ack.commit_ns ? done.ready_ns - ack.commit_ns : 0);
    }
  }
}

void NvramLog::Poll(int worker) {
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(state.mu);
  PollLocked(worker, state);
}

void NvramLog::DrainFlushes(int worker) {
  // Seal whatever is open, then wait out the device up to the sealed
  // frontier. WaitFlushed re-submits if a chaos-dropped doorbell (or a
  // chaos-skipped seal) left the frontier short, so this converges to
  // durable == head as long as the injector eventually lets one through.
  WaitFlushed(worker, SealAndSubmit(worker));
}

void NvramLog::Externalize(int worker) {
  SealAndSubmit(worker);
}

uint64_t NvramLog::NoteCommit(int worker, uint64_t txn_id) {
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  const uint64_t lsn = htm::StrongLoad(Ctrl(seg, kHeadSlot));
  const uint64_t commit_ns = MonotonicNanos();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    PollLocked(worker, state);
    if (state.durable_lsn.load(std::memory_order_relaxed) >= lsn) {
      stat::Registry::Global().Record(LogIds().ack_ns, 0);
      return lsn;
    }
    state.acks.push_back(PendingAck{txn_id, lsn, commit_ns});
  }
  if (!epoch_cfg_.group_commit) {
    // Synchronous durability: commit is acknowledged only at flush, and
    // the flush is waited out right here on the commit path.
    SealAndSubmit(worker);
    WaitFlushed(worker, lsn);
  } else {
    MaybeSealOnThreshold(worker);
  }
  return lsn;
}

void NvramLog::WaitDurable(int worker, uint64_t txn_id) {
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    PollLocked(worker, state);
    bool found = false;
    for (const PendingAck& ack : state.acks) {
      if (ack.txn_id == txn_id) {
        lsn = ack.lsn;
        found = true;
        break;
      }
    }
    if (!found) {
      return;  // never registered, or its epoch already flushed
    }
  }
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  if (htm::StrongLoad(Ctrl(seg, kSealedSlot)) < lsn) {
    SealAndSubmit(worker);
  }
  WaitFlushed(worker, lsn);
}

void NvramLog::WaitFlushed(int worker, uint64_t lsn) {
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  while (true) {
    uint64_t spin_until = 0;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      PollLocked(worker, state);
      if (state.durable_lsn.load(std::memory_order_relaxed) >= lsn) {
        return;
      }
      for (const Flush& f : state.inflight) {
        if (f.end_lsn >= lsn) {
          spin_until = f.ready_ns;
          break;
        }
      }
      if (spin_until == 0) {
        // No in-flight flush covers lsn (a chaos-dropped doorbell, or
        // the epoch is still open): submit whatever is sealed but
        // unflushed, then re-check.
        const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
        const uint64_t sealed = htm::StrongLoad(Ctrl(seg, kSealedSlot));
        if (sealed >= lsn) {
          SubmitFlush(worker, sealed, kEpochHeaderBytes);
          continue;
        }
      }
    }
    if (spin_until == 0) {
      // Sealed frontier below lsn: the owner must seal first. This only
      // happens on WaitDurable misuse; seal and retry.
      SealAndSubmit(worker);
      continue;
    }
    const uint64_t now = MonotonicNanos();
    if (spin_until > now) {
      SpinFor(spin_until - now);
    }
  }
}

uint64_t NvramLog::DurableUpTo(int worker) const {
  return flush_[static_cast<size_t>(worker)]->durable_lsn.load(
      std::memory_order_acquire);
}

void NvramLog::ForEach(
    const std::function<void(int worker, const LogRecord&)>& fn) const {
  // Chaos crash point per replayed record: a recovery scan interrupted
  // here models the recovering machine itself dying mid-replay. Replay
  // must be idempotent, so a later full scan finishes the job (asserted
  // by tests/recovery_fault_test.cc).
  static const uint32_t kReplayPoint =
      chaos::Injector::Global().Point("log.replay");
  for (size_t w = 0; w < segments_.size(); ++w) {
    const SegmentRef& seg = segments_[w];
    FlushState& state = *flush_[w];
    // Serialize against seal backpatches and truncation; record bytes
    // themselves are stable below the sealed frontier.
    std::lock_guard<std::mutex> lock(state.mu);
    uint64_t pos = htm::StrongLoad(Ctrl(seg, kTruncateSlot));
    const uint64_t sealed = htm::StrongLoad(Ctrl(seg, kSealedSlot));
    while (pos < sealed) {
      const uint64_t phys_left = segment_bytes_ - pos % segment_bytes_;
      if (phys_left < kHeaderBytes) {
        pos += phys_left;  // implicit ring-tail skip (gap < header)
        continue;
      }
      RecordHeader header;
      htm::StrongRead(&header, SegAt(seg, pos), sizeof(header));
      if (header.type == static_cast<uint8_t>(LogType::kPad)) {
        pos += kHeaderBytes + Align8(header.len);
        continue;
      }
      if (header.type != static_cast<uint8_t>(LogType::kEpoch)) {
        break;  // corrupt framing: stop at the torn tail
      }
      EpochInfo info;
      htm::StrongRead(&info, SegAt(seg, pos) + kHeaderBytes, sizeof(info));
      const uint64_t data_start = pos + kEpochHeaderBytes;
      if (info.magic != kEpochSealed ||
          data_start + info.data_bytes > sealed ||
          Fnv1a(SegAt(seg, data_start), info.data_bytes) != info.checksum) {
        break;  // unsealed or torn epoch: invisible, scan ends here
      }
      uint64_t dpos = data_start;
      const uint64_t dend = data_start + info.data_bytes;
      while (dpos + kHeaderBytes <= dend) {
        const chaos::Decision fault =
            chaos::Check(kReplayPoint, memory_->node_id());
        if (fault.kind == chaos::Decision::Kind::kAbandon ||
            fault.kind == chaos::Decision::Kind::kFailOp) {
          return;
        }
        RecordHeader rec;
        htm::StrongRead(&rec, SegAt(seg, dpos), sizeof(rec));
        LogRecord record;
        record.type = static_cast<LogType>(rec.type);
        record.txn_id = rec.txn_id;
        record.payload.resize(rec.len);
        if (rec.len > 0) {
          htm::StrongRead(record.payload.data(),
                          SegAt(seg, dpos) + kHeaderBytes, rec.len);
        }
        fn(static_cast<int>(w), record);
        dpos += kHeaderBytes + Align8(rec.len);
      }
      pos = dend;
    }
  }
}

size_t NvramLog::UsedBytes(int worker) const {
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  return htm::StrongLoad(Ctrl(seg, kHeadSlot)) -
         htm::StrongLoad(Ctrl(seg, kTruncateSlot));
}

bool NvramLog::ReclaimSpace(int worker) {
  const SegmentRef& seg = segments_[static_cast<size_t>(worker)];
  FlushState& state = *flush_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(state.mu);
  PollLocked(worker, state);
  const uint64_t sealed = htm::StrongLoad(Ctrl(seg, kSealedSlot));
  const uint64_t durable = state.durable_lsn.load(std::memory_order_relaxed);
  // Truncation is keyed off the durability frontier: a record may only
  // be dropped once the flush covering it — and the kComplete that
  // obsoletes it — has completed.
  const uint64_t limit = std::min(sealed, durable);
  const uint64_t base = htm::StrongLoad(Ctrl(seg, kTruncateSlot));
  if (base >= limit) {
    return false;
  }

  // Pass 1: which transactions in [base, limit) are finished? kComplete
  // closes any id: a plain transaction, or a chopped chain given up
  // before its end; a {total, total} kChopInfo closes a finished chain.
  std::set<uint64_t> done;
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> chains;  // id -> max,total
  auto walk = [&](uint64_t from,
                  const std::function<bool(uint64_t epoch_end,
                                           uint64_t records_start)>& on_epoch) {
    uint64_t pos = from;
    while (pos < limit) {
      const uint64_t phys_left = segment_bytes_ - pos % segment_bytes_;
      if (phys_left < kHeaderBytes) {
        pos += phys_left;
        continue;
      }
      RecordHeader header;
      std::memcpy(&header, SegAt(seg, pos), sizeof(header));
      if (header.type == static_cast<uint8_t>(LogType::kPad)) {
        pos += kHeaderBytes + Align8(header.len);
        continue;
      }
      if (header.type != static_cast<uint8_t>(LogType::kEpoch)) {
        break;
      }
      EpochInfo info;
      std::memcpy(&info, SegAt(seg, pos) + kHeaderBytes, sizeof(info));
      const uint64_t dend = pos + kEpochHeaderBytes + info.data_bytes;
      if (info.magic != kEpochSealed || dend > limit) {
        break;
      }
      if (!on_epoch(dend, pos + kEpochHeaderBytes)) {
        break;
      }
      pos = dend;
    }
    return pos;
  };
  auto each_record = [&](uint64_t from, uint64_t to,
                         const std::function<void(const RecordHeader&)>& fn) {
    uint64_t dpos = from;
    while (dpos + kHeaderBytes <= to) {
      RecordHeader rec;
      std::memcpy(&rec, SegAt(seg, dpos), sizeof(rec));
      fn(rec);
      dpos += kHeaderBytes + Align8(rec.len);
    }
  };
  walk(base, [&](uint64_t dend, uint64_t dstart) {
    uint64_t dpos = dstart;
    while (dpos + kHeaderBytes <= dend) {
      RecordHeader rec;
      std::memcpy(&rec, SegAt(seg, dpos), sizeof(rec));
      if (rec.type == static_cast<uint8_t>(LogType::kComplete)) {
        done.insert(rec.txn_id);
      } else if (rec.type == static_cast<uint8_t>(LogType::kChopInfo) &&
                 rec.len >= 2 * sizeof(uint32_t)) {
        uint32_t piece = 0;
        uint32_t total = 0;
        std::memcpy(&piece, SegAt(seg, dpos) + kHeaderBytes, sizeof(piece));
        std::memcpy(&total, SegAt(seg, dpos) + kHeaderBytes + sizeof(piece),
                    sizeof(total));
        auto& entry = chains[rec.txn_id];
        entry.first = std::max(entry.first, piece);
        entry.second = total;
      }
      dpos += kHeaderBytes + Align8(rec.len);
    }
    return true;
  });
  for (const auto& [id, mt] : chains) {
    if (mt.second != 0 && mt.first >= mt.second) {
      done.insert(id);
    }
  }

  // Pass 2: drop the longest leading run of epochs whose every
  // obligation-carrying record belongs to a finished transaction.
  uint64_t new_base = walk(base, [&](uint64_t dend, uint64_t dstart) {
    bool reclaimable = true;
    each_record(dstart, dend, [&](const RecordHeader& rec) {
      switch (static_cast<LogType>(rec.type)) {
        case LogType::kLockAhead:
        case LogType::kWriteAhead:
        case LogType::kChopInfo:
          if (done.find(rec.txn_id) == done.end()) {
            reclaimable = false;
          }
          break;
        default:
          break;  // kComplete / framing never block reclamation
      }
    });
    return reclaimable;
  });
  if (new_base <= base) {
    return false;
  }
  htm::StrongStore(Ctrl(seg, kTruncateSlot), new_base);
  stat::Registry::Global().Add(LogIds().epoch_reclaimed, new_base - base);
  return true;
}

std::vector<uint8_t> NvramLog::EncodeLocks(const std::vector<LogLock>& locks) {
  std::vector<uint8_t> out(locks.size() * sizeof(LogLock));
  std::memcpy(out.data(), locks.data(), out.size());
  return out;
}

std::vector<LogLock> NvramLog::DecodeLocks(
    const std::vector<uint8_t>& payload) {
  std::vector<LogLock> locks(payload.size() / sizeof(LogLock));
  std::memcpy(locks.data(), payload.data(), locks.size() * sizeof(LogLock));
  return locks;
}

void NvramLog::EncodeUpdate(std::vector<uint8_t>* out, const LogUpdate& update,
                            const void* value) {
  const size_t base = out->size();
  out->resize(base + sizeof(LogUpdate) + update.value_len);
  std::memcpy(out->data() + base, &update, sizeof(LogUpdate));
  std::memcpy(out->data() + base + sizeof(LogUpdate), value,
              update.value_len);
}

void NvramLog::DecodeUpdates(
    const std::vector<uint8_t>& payload,
    const std::function<void(const LogUpdate&, const uint8_t* value)>& fn) {
  size_t pos = 0;
  while (pos + sizeof(LogUpdate) <= payload.size()) {
    LogUpdate update;
    std::memcpy(&update, payload.data() + pos, sizeof(LogUpdate));
    const uint8_t* value = payload.data() + pos + sizeof(LogUpdate);
    fn(update, value);
    pos += sizeof(LogUpdate) + update.value_len;
  }
}

}  // namespace txn
}  // namespace drtm
