//===- fsmc_bench/Layers.h - Seeded per-layer microbenches -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Costs of single layers under an execution, timed from outside through
/// their public classes: the fiber switch, the stack pool, the fair
/// scheduler's decision and update, the dependence oracle, coverage
/// lookups, the race detector, schedule encoding, the steal deque and the
/// fleet's wire framing. Inputs come from the run's seed; each bench runs
/// a fixed amount of work in 20 batches and reports the median batch.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_BENCH_LAYERS_H
#define FSMC_BENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fsmc {
namespace ledger {

/// Runs every layer microbench. \returns (metric name, nanoseconds per
/// operation) pairs, names as in BENCHMARK.json.
std::vector<std::pair<std::string, double>> runLayerMicros(uint64_t Seed);

} // namespace ledger
} // namespace fsmc

#endif // FSMC_BENCH_LAYERS_H
