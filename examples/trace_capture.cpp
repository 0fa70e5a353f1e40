// Trace capture demo: runs a K=4 mixed-model service wave with the obs
// tracing plane enabled and writes a Chrome trace-event JSON file that
// loads directly in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// The capture shows the full request lifecycle across every layer:
//   serve  — per-move "move" spans on the svc.worker tracks, "retune"
//            instants from the aggregate controller (threshold decisions)
//   mcts   — "engine.search" spans nested inside each move,
//            "advance_root" spans (one workload runs them on a background
//            compactor thread), "tt_graft" instants
//   eval   — "batch_form" spans (slot-reservation → dispatch; width = the
//            formation wait Algorithm 4 trades against), "backend_eval"
//            spans on the lane stream threads, "cache_hit"/"coalesced"
//            instants, a "cache_clear" instant at the end
//
// Usage: trace_capture [out.json] [games_per_workload] [playouts]
//
// Exit is nonzero unless the wave completes AND the capture contains the
// span/instant families from every layer — the CI smoke contract.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "serve/match_service.hpp"

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "trace.json";
  const int games = argc > 2 ? std::atoi(argv[2]) : 2;
  const int playouts = argc > 3 ? std::atoi(argv[3]) : 32;

  // Arm the recorder BEFORE building the service so lane stream threads
  // and service workers name their trace tracks at startup.
  apm::obs::set_trace_capacity(std::size_t{1} << 16);
  apm::obs::set_tracing(true);
  apm::obs::set_thread_name("main");

  const apm::Gomoku gomoku(5, 4);
  const apm::Connect4 connect4;

  apm::PolicyValueNet net_g(apm::NetConfig::tiny(5), 101);
  apm::NetConfig c4_cfg = apm::NetConfig::tiny(6);
  c4_cfg.width = 7;
  c4_cfg.action_override = apm::Connect4::kCols;
  apm::PolicyValueNet net_c(c4_cfg, 102);

  // Accelerator-timing model as in model_zoo_serve: a per-batch fixed cost
  // gives the aggregate controller something to amortize, so its retune
  // instants actually appear on the timeline.
  apm::GpuTimingModel timing;
  timing.kernel_launch_us = 40.0;
  timing.compute_base_us = 200.0;
  timing.compute_per_sample_us = 10.0;
  apm::NetEvaluator eval_g(net_g), eval_c(net_c);
  apm::SimGpuBackend backend_g(eval_g, timing);
  apm::SimGpuBackend backend_c(eval_c, timing);

  apm::EvaluatorPool pool;
  const auto add = [&pool](const char* name, apm::InferenceBackend& backend) {
    // Lane-shared TT: both of the lane's games graft from one table, and
    // the tt_graft / tt_pending instants carry the lane name.
    apm::TtConfig tt;
    tt.enabled = true;
    return pool.add_model({.name = name,
                           .backend = &backend,
                           .batch_threshold = 1,  // mis-tuned: retunes fire
                           .stale_flush_us = 1000.0,
                           .cache_cfg = {.capacity = 1 << 13, .shards = 4,
                                         .ways = 4},
                           .tt = tt});
  };
  add("net-gomoku", backend_g);
  add("net-connect4", backend_c);

  apm::ServiceConfig sc;
  sc.workers = 2;
  sc.aggregate.retune_every_moves = 4;

  const auto workload = [&](const apm::Game& g, const char* model,
                            bool background_compaction) {
    apm::ServiceWorkload w;
    w.proto = std::shared_ptr<const apm::Game>(g.clone());
    w.model = model;
    w.slots = 2;  // K = 4 total across the two workloads
    w.engine.mcts.num_playouts = playouts;
    w.engine.mcts.root_noise = true;
    w.engine.scheme = apm::Scheme::kSerial;
    w.engine.adapt = false;
    // Slots graft from their lane's shared table (tt_graft instants are
    // tagged with the lane name).
    w.engine.background_compaction = background_compaction;
    return w;
  };

  apm::MatchService service(
      sc, pool,
      {workload(gomoku, "net-gomoku", /*background_compaction=*/true),
       workload(connect4, "net-connect4", /*background_compaction=*/false)});
  for (int w = 0; w < service.workload_count(); ++w) {
    service.enqueue_workload(w, games);
  }
  std::printf("capturing a K=4 wave (%d games/workload, %d playouts)...\n",
              games, playouts);
  service.start();
  service.drain();
  const apm::ServiceStats stats = service.stats();
  service.publish_metrics();
  service.stop();
  // Demonstrate the invalidation marker on the timeline.
  service.invalidate_model(-1);

  // Writers are quiescent (drained + stopped): the snapshot is exact.
  apm::obs::set_tracing(false);
  const apm::obs::TraceSnapshot snap = apm::obs::snapshot_trace();
  if (!apm::obs::write_chrome_trace_file(out_path, snap)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }

  std::map<std::string, std::size_t> by_name;
  for (const apm::obs::ThreadTrace& tt : snap.threads) {
    for (const apm::obs::TraceEvent& ev : tt.events) ++by_name[ev.name];
  }
  std::printf("\n%llu events on %zu threads (%llu dropped) -> %s\n",
              static_cast<unsigned long long>(snap.total_events),
              snap.threads.size(),
              static_cast<unsigned long long>(snap.total_dropped), out_path);
  for (const auto& [name, count] : by_name) {
    std::printf("  %-14s %zu\n", name.c_str(), count);
  }
  std::printf("\nservice: %d games, %d moves, move p50 %.2f ms / p99 %.2f "
              "ms, request p50 %.0f us / p99 %.0f us\n",
              stats.games_completed, stats.moves, stats.move_latency_p50_ms,
              stats.move_latency_p99_ms, stats.request_latency_p50_us,
              stats.request_latency_p99_us);
  std::printf("\nmetrics registry:\n%s",
              apm::obs::MetricsRegistry::global().render_text().c_str());

  // Smoke contract: wave completed and every layer is on the timeline.
  const char* required[] = {"move",         "engine.search", "advance_root",
                            "batch_form",   "backend_eval",  "retune",
                            "cache_clear"};
  bool ok = stats.games_completed == 2 * games;
  for (const char* name : required) {
    if (by_name.find(name) == by_name.end()) {
      std::fprintf(stderr, "missing event family: %s\n", name);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
