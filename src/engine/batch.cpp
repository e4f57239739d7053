#include "engine/batch.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "core/select.h"
#include "engine/registry.h"

namespace vdist::engine {

BatchRunner::BatchRunner(BatchOptions options) : options_(std::move(options)) {
  threads_ = options_.num_threads;
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

std::uint64_t BatchRunner::derive_seed(std::uint64_t base_seed,
                                       std::size_t index,
                                       std::uint64_t request_seed) {
  // SplitMix64 finalizer over the combined word: cheap, well mixed, and a
  // pure function of (base, index, seed) — scheduling cannot influence it.
  std::uint64_t z = base_seed ^ (static_cast<std::uint64_t>(index) *
                                 0x9e3779b97f4a7c15ULL) ^
                    request_seed;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<SolveResult> BatchRunner::run(
    const std::vector<SolveRequest>& requests) const {
  std::vector<SolveResult> results(requests.size());
  if (requests.empty()) return results;

  const SolverRegistry& registry = SolverRegistry::global();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::mutex callback_mutex;

  auto worker = [&]() {
    // One reusable buffer pack per worker: every request this thread
    // executes solves on the same workspace instead of allocating fresh
    // per-solve vectors (a request carrying its own workspace keeps it).
    core::SolveWorkspace workspace;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) return;
      SolveRequest req = requests[i];
      // Only `seed` is decorrelated; `workload_seed` passes through so
      // paired cells replay identical generated workloads (solver.h).
      req.seed = derive_seed(options_.base_seed, i, requests[i].seed);
      if (req.workspace == nullptr) req.workspace = &workspace;
      try {
        results[i] = registry.solve(req);
      } catch (const std::exception& e) {
        // Only caller misuse (null instance) reaches here; keep the batch
        // alive and report it like any other per-request failure.
        results[i].algorithm = req.algorithm;
        results[i].tag = req.tag;
        results[i].error = e.what();
      }
      const std::size_t done =
          completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (options_.on_result) {
        const std::lock_guard<std::mutex> lock(callback_mutex);
        options_.on_result(results[i], done, requests.size());
      }
    }
  };

  const unsigned spawn =
      static_cast<unsigned>(std::min<std::size_t>(threads_, requests.size()));
  if (spawn <= 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(spawn);
  for (unsigned t = 0; t < spawn; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<SolveResult> solve_batch(const std::vector<SolveRequest>& requests,
                                     BatchOptions options) {
  return BatchRunner(std::move(options)).run(requests);
}

}  // namespace vdist::engine
