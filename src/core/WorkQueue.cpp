//===- core/WorkQueue.cpp -------------------------------------------------===//

#include "core/WorkQueue.h"

#include "obs/Counters.h"

using namespace fsmc;

void WorkQueue::setObserver(obs::WorkerCounters *C) {
  std::lock_guard<std::mutex> Lock(M);
  Ctr = C;
  publishDepth();
}

void WorkQueue::publishDepth() {
  Depth.store(Q.size(), std::memory_order_relaxed);
  if (Ctr)
    Ctr->setGauge(obs::Gauge::WorkQueueDepth, Q.size());
}

void WorkQueue::pushAll(std::vector<CheckpointUnit> Items) {
  if (Items.empty())
    return;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Stopped)
      return;
    for (CheckpointUnit &I : Items)
      Q.push_back(std::move(I));
    publishDepth();
  }
  CV.notify_all();
}

std::optional<CheckpointUnit> WorkQueue::tryPop() {
  std::lock_guard<std::mutex> Lock(M);
  if (Stopped || Q.empty())
    return std::nullopt;
  CheckpointUnit I = std::move(Q.front());
  Q.pop_front();
  publishDepth();
  return I;
}

std::optional<CheckpointUnit>
WorkQueue::popWait(std::chrono::microseconds Timeout) {
  std::unique_lock<std::mutex> Lock(M);
  if (Q.empty() && !Stopped)
    CV.wait_for(Lock, Timeout);
  if (Stopped || Q.empty())
    return std::nullopt;
  CheckpointUnit I = std::move(Q.front());
  Q.pop_front();
  publishDepth();
  return I;
}

void WorkQueue::notifyAll() { CV.notify_all(); }

void WorkQueue::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopped = true;
    Q.clear();
    publishDepth();
  }
  CV.notify_all();
}
