#include "src/rdma/messaging.h"

#include <chrono>

namespace drtm {
namespace rdma {

void MessageQueue::Push(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_one();
}

bool MessageQueue::TryPop(Message* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) {
    return false;
  }
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool MessageQueue::PopWait(Message* out, uint64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                    [&] { return !queue_.empty() || shutdown_; })) {
    return false;
  }
  if (queue_.empty()) {
    return false;
  }
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void MessageQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

bool MessageQueue::IsShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void MessageQueue::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  queue_.clear();
}

}  // namespace rdma
}  // namespace drtm
