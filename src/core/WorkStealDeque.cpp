//===- core/WorkStealDeque.cpp --------------------------------------------===//

#include "core/WorkStealDeque.h"

using namespace fsmc;

void WorkStealDeque::pushBottom(CheckpointUnit &&Item) {
  std::lock_guard<std::mutex> Lock(M);
  Q.push_back(std::move(Item));
  Sz.store(Q.size(), std::memory_order_relaxed);
}

std::optional<CheckpointUnit> WorkStealDeque::popBottom() {
  std::lock_guard<std::mutex> Lock(M);
  if (Q.empty())
    return std::nullopt;
  CheckpointUnit I = std::move(Q.back());
  Q.pop_back();
  Sz.store(Q.size(), std::memory_order_relaxed);
  return I;
}

void WorkStealDeque::publishTop(std::vector<CheckpointUnit> &&Items) {
  if (Items.empty())
    return;
  std::lock_guard<std::mutex> Lock(M);
  // Insert in reverse so Items.front() lands topmost (shallowest first).
  for (auto It = Items.rbegin(); It != Items.rend(); ++It)
    Q.push_front(std::move(*It));
  Sz.store(Q.size(), std::memory_order_relaxed);
}

size_t WorkStealDeque::stealTop(std::vector<CheckpointUnit> &Out) {
  std::lock_guard<std::mutex> Lock(M);
  if (Q.empty())
    return 0;
  size_t Take = (Q.size() + 1) / 2;
  for (size_t I = 0; I < Take; ++I) {
    Out.push_back(std::move(Q.front()));
    Q.pop_front();
  }
  Sz.store(Q.size(), std::memory_order_relaxed);
  return Take;
}

size_t WorkStealDeque::drainAll(std::vector<CheckpointUnit> &Out) {
  std::lock_guard<std::mutex> Lock(M);
  size_t N = Q.size();
  for (CheckpointUnit &I : Q)
    Out.push_back(std::move(I));
  Q.clear();
  Sz.store(0, std::memory_order_relaxed);
  return N;
}
