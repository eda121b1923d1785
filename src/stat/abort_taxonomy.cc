#include "src/stat/abort_taxonomy.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace drtm {
namespace stat {

AbortCause ClassifyRtmStatus(unsigned status) {
  if (status & kRtmCapacityBit) {
    return AbortCause::kCapacity;
  }
  if (status & kRtmExplicitBit) {
    return AbortCause::kExplicit;
  }
  if (status & kRtmConflictBit) {
    return AbortCause::kConflict;
  }
  if (status & kRtmRetryBit) {
    return AbortCause::kRetry;
  }
  return AbortCause::kUnknown;
}

const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kConflict:
      return "conflict";
    case AbortCause::kCapacity:
      return "capacity";
    case AbortCause::kExplicit:
      return "explicit";
    case AbortCause::kRetry:
      return "retry";
    case AbortCause::kUnknown:
    case AbortCause::kCauseCount:
      break;
  }
  return "unknown";
}

const char* AbortCauseCounterName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kConflict:
      return "htm.abort.conflict";
    case AbortCause::kCapacity:
      return "htm.abort.capacity";
    case AbortCause::kExplicit:
      return "htm.abort.explicit";
    case AbortCause::kRetry:
      return "htm.abort.retry";
    case AbortCause::kUnknown:
    case AbortCause::kCauseCount:
      break;
  }
  return "htm.abort.unknown";
}

void RecordHtmOutcome(unsigned status, Registry* registry) {
  if (status == ~0u) {  // htm::kCommitted
    static thread_local struct {
      Registry* reg = nullptr;
      uint32_t id = 0;
    } commit_cache;
    if (commit_cache.reg != registry) {
      commit_cache.reg = registry;
      commit_cache.id = registry->CounterId("htm.commit");
    }
    registry->Add(commit_cache.id);
    return;
  }
  const AbortCause cause = ClassifyRtmStatus(status);
  // Per-registry id cache; the global registry is the overwhelmingly
  // common case, so cache its ids and fall back to lookups otherwise.
  // XABORT code ids resolve on a code's first abort on this thread
  // (kNoId until then), so only codes that fire are registered and the
  // hot path never takes the registry mutex.
  constexpr uint32_t kNoId = ~0u;
  static thread_local struct {
    Registry* reg = nullptr;
    uint32_t total = 0;
    uint32_t per_cause[kAbortCauseCount] = {};
    uint32_t per_code[256] = {};
  } cache;
  if (cache.reg != registry) {
    cache.reg = registry;
    cache.total = registry->CounterId("htm.abort.total");
    for (size_t i = 0; i < kAbortCauseCount; ++i) {
      cache.per_cause[i] = registry->CounterId(
          AbortCauseCounterName(static_cast<AbortCause>(i)));
    }
    std::fill(std::begin(cache.per_code), std::end(cache.per_code), kNoId);
  }
  registry->Add(cache.total);
  registry->Add(cache.per_cause[static_cast<size_t>(cause)]);
  if (cause == AbortCause::kExplicit) {
    const unsigned code = RtmUserCode(status);
    if (cache.per_code[code] == kNoId) {
      char name[48];
      std::snprintf(name, sizeof(name), "htm.abort.explicit.code%u", code);
      cache.per_code[code] = registry->CounterId(name);
    }
    registry->Add(cache.per_code[code]);
  }
}

}  // namespace stat
}  // namespace drtm
