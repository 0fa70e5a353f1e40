#pragma once
// Single-model serving shape shared by the service tests: one EvaluatorPool
// lane named "net" and one workload routed to it. Callers register the lane
// (or take SyncLane's) and fill in the workload's engine and self-play
// templates.

#include <memory>

#include "eval/gpu_model.hpp"
#include "serve/match_service.hpp"

namespace apm::testutil {

// `slots` concurrent games of `game` on the pool lane "net".
inline ServiceWorkload one_lane_workload(const Game& game, int slots) {
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "net";
  w.slots = slots;
  return w;
}

// `workers` service threads with the aggregate controller off, so the lane
// keeps the threshold its ModelSpec pinned.
inline ServiceConfig pinned_service(int workers) {
  ServiceConfig sc;
  sc.workers = workers;
  sc.aggregate.enabled = false;
  return sc;
}

// A synchronous evaluator served as the uncached threshold-1 lane "net":
// every request dispatches the moment it arrives, on one of `streams`
// evaluation threads.
struct SyncLane {
  SyncLane(Evaluator& eval, int streams) : backend(eval) {
    ModelSpec spec;
    spec.name = "net";
    spec.backend = &backend;
    spec.batch_threshold = 1;
    spec.num_streams = streams;
    spec.cache = false;
    pool.add_model(spec);
  }

  CpuBackend backend;
  EvaluatorPool pool;
};

}  // namespace apm::testutil
