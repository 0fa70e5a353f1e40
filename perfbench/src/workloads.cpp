#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "games/othello.hpp"
#include "nn/quantize.hpp"
#include "serve/match_service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "timed_backend.hpp"

namespace perfbench {

namespace {

using apm::obs::HistogramSnapshot;

// Seed of the fixed reference wave whose digest is recorded with the
// benchmark (reference_digests.json).
constexpr std::uint64_t kReferenceSeed = 20230101;
// Reference games stop at this many moves: enough to exercise every layer
// of the wave, short enough to add little to a run.
constexpr int kReferenceMoves = 6;
// Set-up is repeated at least kMinSetupReps times and until
// kMinSetupSeconds have been spent on it (at most kMaxSetupReps times), so
// that sub-millisecond set-ups still report a steady median.
constexpr int kMinSetupReps = 9;
constexpr double kMinSetupSeconds = 0.25;
constexpr int kMaxSetupReps = 200;
// Self-play windows are cut into slices of this length (a traced run
// alternates traced and untraced slices); the pending-game supply is
// topped up at the poll period.
constexpr double kSliceSeconds = 1.0;
constexpr std::chrono::milliseconds kPollPeriod{2};
// Lane-shared transposition tables (selfplay-net, selfplay-tree).
constexpr std::size_t kTtCapacity = 1 << 15;
// analyze-gpu: the paper's per-move budget (§5.1), searches excluded from
// timing while the adaptive controller leaves its seed configuration, and
// the least sample count for which the p95 has ten samples beyond it.
constexpr int kAnalyzePlayouts = 1600;
constexpr int kAnalyzeWarmup = 4;
constexpr int kMinSearches = 200;
// Chrome-trace export cap (every span still counts toward self time).
constexpr std::size_t kMaxExportedSpans = 200000;

// Every input a run uses derives from its workload seed.
struct Seeds {
  std::uint64_t net;       // net init (or synthetic-evaluator salt)
  std::uint64_t selfplay;  // self-play sampling
  std::uint64_t engine;    // engine search (root noise, tie-breaks)
  std::uint64_t suite;     // analysis position suite

  explicit Seeds(std::uint64_t seed) {
    std::uint64_t s = seed;
    net = apm::splitmix64(s);
    selfplay = apm::splitmix64(s);
    engine = apm::splitmix64(s);
    suite = apm::splitmix64(s);
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Host-wide CPU time from /proc/stat (USER_HZ ticks): the steal share over
// the measured phase tells runs on a contended virtual machine apart.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string steal_note(const CpuTicks& start) {
  const CpuTicks end = cpu_ticks();
  const double total = end.total - start.total;
  char line[96];
  std::snprintf(line, sizeof line,
                "host steal share during the measured phase %.4f",
                total > 0.0 ? (end.steal - start.steal) / total : 0.0);
  return line;
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Per-move engine telemetry folded over the measured phase.

struct MoveLedger {
  int moves = 0;
  double move_s = 0.0, select_s = 0.0, expand_s = 0.0, backup_s = 0.0,
         eval_s = 0.0;
  double eval_requests = 0.0, tt_grafts = 0.0, playouts = 0.0,
         reused_visits = 0.0;
  double threshold_sum = 0.0;
  int threshold_changes = 0;
  int last_threshold = -1;
  int switches = 0;
  std::array<int, 3> schemes{};  // serial, shared-tree, local-tree
  std::vector<double> pred_over_meas;
  std::vector<double> search_ms;  // engine-reported move wall time

  void add(const apm::EngineMoveStats& m) {
    const apm::SearchMetrics& x = m.metrics;
    ++moves;
    move_s += x.move_seconds;
    select_s += x.select_seconds;
    expand_s += x.expand_seconds;
    backup_s += x.backup_seconds;
    eval_s += x.eval_seconds;
    eval_requests += static_cast<double>(x.eval_requests);
    tt_grafts += static_cast<double>(x.tt_grafts);
    playouts += x.playouts;
    reused_visits += static_cast<double>(x.reused_visits);
    threshold_sum += m.batch_threshold;
    if (last_threshold >= 0 && m.batch_threshold != last_threshold) {
      ++threshold_changes;
    }
    last_threshold = m.batch_threshold;
    switches += m.switched ? 1 : 0;
    if (m.scheme == apm::Scheme::kSerial) ++schemes[0];
    if (m.scheme == apm::Scheme::kSharedTree) ++schemes[1];
    if (m.scheme == apm::Scheme::kLocalTree) ++schemes[2];
    const double measured_us = x.amortized_iteration_us();
    if (m.current_predicted_us > 0.0 && measured_us > 0.0) {
      pred_over_meas.push_back(m.current_predicted_us / measured_us);
    }
    search_ms.push_back(x.move_seconds * 1e3);
  }
};

// One lane's activity over the measured phase.
struct LaneView {
  std::string name;
  BackendTotals backend;
  apm::BatchQueueStats batch;
  HistogramSnapshot wait;
  HistogramSnapshot request;
  apm::TtStatsSnapshot tt;  // zeros when the lane has no TT
};

// Start-of-phase baseline of one lane, so warm-up traffic is excluded.
struct LaneBaseline {
  BackendTotals backend;
  apm::BatchQueueStats batch;
  HistogramSnapshot wait;
  HistogramSnapshot request;
};

LaneBaseline lane_baseline(apm::EvaluatorPool& pool, int id,
                           const TimedBackend& timed) {
  const apm::AsyncBatchEvaluator& q = pool.queue(id);
  return {timed.totals(), q.stats(), q.batch_wait_histogram(),
          q.request_histogram()};
}

LaneView lane_view(apm::EvaluatorPool& pool, int id, const TimedBackend& timed,
                   const LaneBaseline& base) {
  const apm::AsyncBatchEvaluator& q = pool.queue(id);
  LaneView v;
  v.name = pool.name(id);
  const BackendTotals now = timed.totals();
  v.backend = {now.calls - base.backend.calls,
               now.positions - base.backend.positions,
               now.busy_ns - base.backend.busy_ns};
  v.batch = apm::stats_delta(q.stats(), base.batch);
  v.wait = q.batch_wait_histogram().delta(base.wait);
  v.request = q.request_histogram().delta(base.request);
  if (const apm::TranspositionTable* tt = pool.transposition(id)) {
    v.tt = tt->stats();
  }
  return v;
}

// What a traced run measured about tracing itself.
struct TraceView {
  const char* root = "";  // "wave" or "search"
  std::vector<Span> spans;
  double traced_units = 0.0, traced_s = 0.0;
  double untraced_units = 0.0, untraced_s = 0.0;
};

// Program-side views the per-layer ledger is computed from.
struct LayerInputs {
  double wall_s = 0.0;
  std::vector<LaneView> lanes;
  MoveLedger moves;
  double program_move_p50_ms = 0.0;
  double program_move_p95_ms = 0.0;
  int retunes = 0;
  double threshold_mean = 0.0;
  TraceView trace;
};

std::vector<Metric> per_layer_metrics(const LayerInputs& in,
                                      std::vector<std::string>& notes) {
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  // backend
  BackendTotals all;
  std::vector<double> lane_us;
  HistogramSnapshot wait, request;
  double fill_weighted = 0.0, batches = 0.0, stale = 0.0, attempts = 0.0,
         hits = 0.0, coalesced = 0.0;
  double tt_probes = 0.0, tt_hits = 0.0, tt_entries = 0.0, tt_capacity = 0.0,
         tt_replacements = 0.0;
  for (const LaneView& lane : in.lanes) {
    all.calls += lane.backend.calls;
    all.positions += lane.backend.positions;
    all.busy_ns += lane.backend.busy_ns;
    lane_us.push_back(lane.backend.us_per_pos());
    wait.merge(lane.wait);
    request.merge(lane.request);
    for (std::size_t s = 1; s < lane.batch.fill_histogram.size(); ++s) {
      fill_weighted += static_cast<double>(s * lane.batch.fill_histogram[s]);
      batches += static_cast<double>(lane.batch.fill_histogram[s]);
    }
    stale += static_cast<double>(lane.batch.stale_flushes);
    hits += static_cast<double>(lane.batch.cache_hits);
    coalesced += static_cast<double>(lane.batch.coalesced);
    attempts += static_cast<double>(lane.batch.submitted +
                                    lane.batch.cache_hits +
                                    lane.batch.coalesced);
    tt_probes += static_cast<double>(lane.tt.probes);
    tt_hits += static_cast<double>(lane.tt.hits);
    tt_entries += static_cast<double>(lane.tt.entries);
    tt_capacity += static_cast<double>(lane.tt.capacity);
    tt_replacements += static_cast<double>(lane.tt.replacements);
    using ull = unsigned long long;
    char line[320];
    std::snprintf(
        line, sizeof line,
        "lane %-8s backend calls=%llu positions=%llu us_per_pos=%.3f "
        "busy_frac=%.4f | queue fill=%.3f stale=%zu cache_hits=%zu "
        "coalesced=%zu | tt entries=%zu/%zu hits=%llu",
        lane.name.c_str(), static_cast<ull>(lane.backend.calls),
        static_cast<ull>(lane.backend.positions), lane.backend.us_per_pos(),
        ratio(static_cast<double>(lane.backend.busy_ns) / 1e9, in.wall_s),
        lane.batch.mean_batch, lane.batch.stale_flushes,
        lane.batch.cache_hits, lane.batch.coalesced, lane.tt.entries,
        lane.tt.capacity, static_cast<ull>(lane.tt.hits));
    notes.emplace_back(line);
  }
  add("backend.us_per_pos", all.us_per_pos(), "us");
  add("backend.busy_frac",
      ratio(static_cast<double>(all.busy_ns) / 1e9,
            in.wall_s * static_cast<double>(in.lanes.size())),
      "frac");
  add("backend.calls", static_cast<double>(all.calls), "count");
  add("backend.positions", static_cast<double>(all.positions), "count");
  add("backend.lane_cost_ratio",
      lane_us.size() > 1 ? ratio(lane_us[1], lane_us[0]) : 1.0, "x");

  // eval
  add("eval.fill_mean", ratio(fill_weighted, batches), "pos/batch");
  add("eval.stale_share", ratio(stale, batches), "frac");
  add("eval.batch_wait_p50_us", wait.quantile(0.50) / 1e3, "us");
  add("eval.batch_wait_p95_us", wait.quantile(0.95) / 1e3, "us");
  add("eval.request_p50_us", request.quantile(0.50) / 1e3, "us");
  add("eval.request_p95_us", request.quantile(0.95) / 1e3, "us");
  add("eval.cache_hit_rate", ratio(hits, attempts), "frac");
  add("eval.coalesced_rate", ratio(coalesced, attempts), "frac");

  // serve
  add("serve.move_p50_ms", in.program_move_p50_ms, "ms");
  add("serve.move_p95_ms", in.program_move_p95_ms, "ms");
  add("serve.retunes", in.retunes, "count");
  add("serve.threshold_mean", in.threshold_mean, "pos");

  // mcts
  const MoveLedger& ml = in.moves;
  add("mcts.select_frac", ratio(ml.select_s, ml.move_s), "frac");
  add("mcts.expand_frac", ratio(ml.expand_s, ml.move_s), "frac");
  add("mcts.backup_frac", ratio(ml.backup_s, ml.move_s), "frac");
  add("mcts.eval_frac", ratio(ml.eval_s, ml.move_s), "frac");
  add("mcts.tt_graft_rate",
      ratio(ml.tt_grafts, ml.tt_grafts + ml.eval_requests), "frac");
  add("mcts.tt_hit_rate", ratio(tt_hits, tt_probes), "frac");
  add("mcts.tt_occupancy", ratio(tt_entries, tt_capacity), "frac");
  add("mcts.tt_replacements", tt_replacements, "count");
  add("mcts.reused_visit_share",
      ratio(ml.reused_visits, ml.reused_visits + ml.playouts), "frac");

  // trace
  const TraceView& tv = in.trace;
  double root_total = 0.0, root_self = 0.0;
  for (const LayerTime& lt : layer_times(tv.spans)) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "span %-8s count=%zu total_s=%.6f self_s=%.6f",
                  lt.name.c_str(), lt.count,
                  static_cast<double>(lt.total_ns) / 1e9,
                  static_cast<double>(lt.self_ns) / 1e9);
    notes.emplace_back(line);
    if (lt.name == tv.root) {
      root_total = static_cast<double>(lt.total_ns);
      root_self = static_cast<double>(lt.self_ns);
    }
  }
  add("mcts.search_self_frac", ratio(root_self, root_total), "frac");

  // perfmodel
  add("perfmodel.switches", ml.switches, "count");
  add("perfmodel.scheme_share.serial", ratio(ml.schemes[0], ml.moves),
      "frac");
  add("perfmodel.scheme_share.shared_tree", ratio(ml.schemes[1], ml.moves),
      "frac");
  add("perfmodel.scheme_share.local_tree", ratio(ml.schemes[2], ml.moves),
      "frac");
  add("perfmodel.batch_mean", ratio(ml.threshold_sum, ml.moves), "pos");
  add("perfmodel.pred_over_meas_p50", median(ml.pred_over_meas), "x");

  const double traced_rate = ratio(tv.traced_units, tv.traced_s);
  const double untraced_rate = ratio(tv.untraced_units, tv.untraced_s);
  add("trace.traced_moves_per_s", traced_rate, "1/s");
  add("trace.untraced_moves_per_s", untraced_rate, "1/s");
  add("trace.overhead_frac",
      untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0, "frac");
  add("trace.spans", static_cast<double>(tv.spans.size()), "count");
  return m;
}

void write_trace(const Options& opt, const TraceView& tv,
                 std::vector<std::string>& notes) {
  if (opt.out_dir.empty()) return;
  const std::string path = opt.out_dir + "/" + opt.workload + "-s" +
                           std::to_string(opt.seed) + ".trace.json";
  if (write_chrome_trace(path, tv.spans, kMaxExportedSpans)) {
    notes.push_back("trace written to " + path);
  } else {
    notes.push_back("trace could not be written to " + path);
  }
}

std::vector<Metric> end_to_end_metrics(double units, double wall_s,
                                       double move_p50_ms, double move_p95_ms,
                                       const std::vector<double>& setup_s) {
  return {{"moves_per_s", ratio(units, wall_s), "1/s"},
          {"move_p50_ms", move_p50_ms, "ms"},
          {"move_p95_ms", move_p95_ms, "ms"},
          {"setup_s", median(setup_s), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

// Builds a rig repeatedly (see kMinSetupSeconds), timing each build into
// `setup_s`; the previous rig is destroyed, untimed, before the next build,
// and the last one is returned for the measured phase.
template <class Build>
auto repeated_setup(std::vector<double>& setup_s, const Build& build) {
  decltype(build()) rig;
  double spent = 0.0;
  for (int r = 0; r < kMaxSetupReps; ++r) {
    if (r >= kMinSetupReps && spent >= kMinSetupSeconds) break;
    rig.reset();
    const std::uint64_t start = now_ns();
    rig = build();
    setup_s.push_back(seconds_between(start, now_ns()));
    spent += setup_s.back();
  }
  return rig;
}

void note_setup(const std::vector<double>& setup_s,
                std::vector<std::string>& notes) {
  char line[160];
  std::snprintf(line, sizeof line,
                "setup_s median=%.6f spread=%.4f over %zu set-ups",
                median(setup_s), quartile_spread(setup_s), setup_s.size());
  notes.emplace_back(line);
}

// ---------------------------------------------------------------------------
// Self-play waves.

enum class GameKind { kGomoku9, kGomoku15, kOthello6, kConnect4 };
enum class LaneKind { kNetFp32, kNetInt8, kSimGpu, kSyntheticCpu };

std::shared_ptr<const apm::Game> make_game(GameKind kind) {
  switch (kind) {
    case GameKind::kGomoku9:
      return std::make_shared<apm::Gomoku>(9, 5);
    case GameKind::kGomoku15:
      return std::make_shared<apm::Gomoku>(15, 5);
    case GameKind::kOthello6:
      return std::make_shared<apm::Othello>(6);
    case GameKind::kConnect4:
      return std::make_shared<apm::Connect4>();
  }
  throw std::logic_error("unknown game kind");
}

struct LaneSpec {
  const char* name;
  LaneKind kind;
  GameKind game;
  int games;  // concurrent games (service slots) on this lane
  bool tt;    // lane-shared transposition table
};

struct WaveSpec {
  const char* name;
  std::vector<LaneSpec> lanes;
  int playouts;
  int workers;  // service worker threads (one stream thread per lane)
  // true: the reference digest is a contract (synthetic evaluators);
  // false: a kernel or precision change may legitimately alter it.
  bool digest_is_contract;
  // Measured rounds per run, each on a fresh rig (see run_waves).
  int rounds;
  // false: every move searches the full playout budget on top of the
  // reused subtree, so a move's work does not depend on the seed.
  bool credit_reuse;
};

const WaveSpec& wave_spec(const std::string& name) {
  static const std::vector<WaveSpec> specs = {
      {.name = "selfplay-net",
       .lanes = {{"fp32", LaneKind::kNetFp32, GameKind::kGomoku9, 4, true},
                 {"int8", LaneKind::kNetInt8, GameKind::kGomoku9, 4, true}},
       .playouts = 64,
       .workers = 2,
       .digest_is_contract = false,
       .rounds = 1,
       .credit_reuse = false},
      {.name = "selfplay-gpu",
       .lanes = {{"gpu", LaneKind::kSimGpu, GameKind::kGomoku15, 8, false}},
       .playouts = 128,
       .workers = 3,
       .digest_is_contract = true,
       .rounds = 4,
       .credit_reuse = false},
      {.name = "selfplay-tree",
       .lanes = {{"othello", LaneKind::kSyntheticCpu, GameKind::kOthello6, 4,
                  true},
                 {"connect4", LaneKind::kSyntheticCpu, GameKind::kConnect4, 4,
                  true}},
       .playouts = 256,
       .workers = 2,
       .digest_is_contract = true,
       .rounds = 1,
       .credit_reuse = true},
  };
  for (const WaveSpec& s : specs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

struct WaveLane {
  std::shared_ptr<const apm::Game> game;
  std::unique_ptr<apm::Evaluator> eval;
  std::unique_ptr<apm::InferenceBackend> device;
  std::unique_ptr<TimedBackend> timed;
};

// Everything one wave workload serves with. Members are destroyed in
// reverse order: the service before the pool, the pool before the
// backends it points at, the evaluators before the nets.
struct WaveRig {
  std::unique_ptr<apm::PolicyValueNet> net;
  std::unique_ptr<apm::QuantizedPolicyValueNet> qnet;
  std::vector<WaveLane> lanes;
  apm::EvaluatorPool pool;
  std::unique_ptr<apm::MatchService> service;
  int slots = 0;
};

std::unique_ptr<WaveRig> build_wave_rig(const WaveSpec& spec,
                                        const Seeds& seeds,
                                        SpanRecorder& spans, int max_moves) {
  auto rig = std::make_unique<WaveRig>();
  std::vector<apm::ServiceWorkload> workloads;
  for (std::size_t i = 0; i < spec.lanes.size(); ++i) {
    const LaneSpec& ls = spec.lanes[i];
    WaveLane lane;
    lane.game = make_game(ls.game);
    const apm::Game& g = *lane.game;
    const std::uint64_t salt = seeds.net + i;
    switch (ls.kind) {
      case LaneKind::kNetFp32:
      case LaneKind::kNetInt8:
        if (!rig->net) {
          apm::NetConfig cfg;  // the paper's trunk widths (32/64/128)
          cfg.in_channels = g.encode_channels();
          cfg.height = g.height();
          cfg.width = g.width();
          rig->net = std::make_unique<apm::PolicyValueNet>(cfg, seeds.net);
        }
        if (ls.kind == LaneKind::kNetInt8) {
          if (!rig->qnet) {
            rig->qnet =
                std::make_unique<apm::QuantizedPolicyValueNet>(*rig->net);
          }
          lane.eval = std::make_unique<apm::NetEvaluator>(*rig->qnet);
        } else {
          lane.eval = std::make_unique<apm::NetEvaluator>(*rig->net);
        }
        lane.device = std::make_unique<apm::CpuBackend>(*lane.eval);
        break;
      case LaneKind::kSimGpu:
        lane.eval = std::make_unique<apm::SyntheticEvaluator>(
            g.action_count(), g.encode_size(), 0.0, salt);
        lane.device = std::make_unique<apm::SimGpuBackend>(
            *lane.eval, apm::GpuTimingModel{}, /*emulate_wall_time=*/true);
        break;
      case LaneKind::kSyntheticCpu:
        lane.eval = std::make_unique<apm::SyntheticEvaluator>(
            g.action_count(), g.encode_size(), 0.0, salt);
        lane.device = std::make_unique<apm::CpuBackend>(*lane.eval);
        break;
    }
    lane.timed = std::make_unique<TimedBackend>(*lane.device,
                                                static_cast<int>(i), spans);

    apm::ModelSpec model;
    model.name = ls.name;
    model.backend = lane.timed.get();
    model.precision = ls.kind == LaneKind::kNetInt8 ? apm::Precision::kInt8
                                                    : apm::Precision::kFp32;
    if (ls.tt) {
      model.tt.enabled = true;
      model.tt.capacity = kTtCapacity;
    }
    rig->pool.add_model(model);

    apm::ServiceWorkload w;
    w.proto = lane.game;
    w.model = ls.name;
    w.slots = ls.games;
    w.engine.mcts.num_playouts = spec.playouts;
    w.engine.mcts.root_noise = true;
    w.engine.mcts.seed = seeds.engine + 7919 * i;
    w.engine.scheme = apm::Scheme::kSerial;
    w.engine.adapt = false;
    w.engine.count_reused_visits = spec.credit_reuse;
    w.self_play.seed = seeds.selfplay + 104729 * i;
    w.self_play.max_moves = max_moves;
    workloads.push_back(std::move(w));
    rig->slots += ls.games;
    rig->lanes.push_back(std::move(lane));
  }
  apm::ServiceConfig sc;
  sc.workers = spec.workers;
  rig->service =
      std::make_unique<apm::MatchService>(sc, rig->pool, std::move(workloads));
  rig->service->start();
  return rig;
}

// Checks every game record and counts it into `out`; returns the failures.
int check_records(const WaveRig& rig,
                  const std::vector<apm::GameRecord>& records, int max_moves,
                  Outcome& out) {
  int failed = 0;
  for (const apm::GameRecord& rec : records) {
    ++out.attempted;
    const auto lane = static_cast<std::size_t>(rec.workload);
    const std::string why =
        check_game(*rig.lanes.at(lane).game, rec, max_moves);
    if (!why.empty()) {
      ++failed;
      out.notes.push_back("game " + rec.model + "#" +
                          std::to_string(rec.game_id) + ": " + why);
    }
  }
  out.failed += failed;
  return failed;
}

// What one measured round of a self-play workload produced.
struct Round {
  std::int64_t moves = 0;
  double wall_s = 0.0;
  HistogramSnapshot move_ns;  // service per-move latency over the window
  int retunes = 0;
  double threshold_sum = 0.0;
  int threshold_samples = 0;
  std::vector<LaneView> lanes;  // measured-window activity per lane
  std::uint64_t first_games = 0;  // digest of the initial supply's games
  int games = 0;
};

// One measured round on `rig`: a closed loop of `slots` clients, each
// playing game after game, so the window sees the loop's steady state, not
// the tail of a barrier. The service seats a new game only when a seated
// game ends (a worker re-takes a ready game first), so `workers` games are
// in play at a time, whatever the slot count. The supply keeps each
// workload's share of them fixed: a workload whose games in play plus
// pending fall below its share gets a new game at the next poll. A standing
// supply would instead be seated in workload order and let one lane's
// games crowd out the other's. A lone workload keeps one game pending, so
// it never waits for a poll. The window is cut into slices, each one
// `wave` span; a traced run traces every other slice (`slice` counts
// across rounds).
Round run_round(WaveRig& rig, const WaveSpec& spec, double seconds,
                bool trace, int& slice, SpanRecorder& spans, Outcome& out,
                LayerInputs& layer) {
  apm::MatchService& service = *rig.service;
  const auto timed = [&rig](int id) -> const TimedBackend& {
    return *rig.lanes[static_cast<std::size_t>(id)].timed;
  };
  std::vector<LaneBaseline> base;
  for (int id = 0; id < rig.pool.model_count(); ++id) {
    base.push_back(lane_baseline(rig.pool, id, timed(id)));
  }
  std::vector<int> share;
  for (const LaneSpec& ls : spec.lanes) {
    const int in_play = spec.workers * ls.games / rig.slots;
    share.push_back(std::max(1, in_play) + (spec.lanes.size() == 1 ? 1 : 0));
  }
  const auto top_up = [&service, &share] {
    const apm::ServiceStats now = service.stats();
    for (const apm::WorkloadStats& w : now.workloads) {
      const int have = w.games_active + w.games_pending;
      const int want = share[static_cast<std::size_t>(w.workload)];
      if (have < want) service.enqueue_workload(w.workload, want - have);
    }
    return now;
  };
  // Finished games are checked and folded in once per slice, then
  // dropped, so their samples do not pile up in the peak RSS. Per-game
  // digests of the first games are folded in (workload, id) order at the
  // end: which slice a game finishes in varies from run to run.
  Round round;
  std::map<std::pair<int, int>, std::uint64_t> first_games;
  const auto collect = [&] {
    const std::vector<apm::GameRecord> records = service.take_completed();
    check_records(rig, records, 0, out);
    for (const apm::GameRecord& rec : records) {
      ++round.games;
      for (const apm::EngineMoveStats& m : rec.stats.per_move) {
        layer.moves.add(m);
      }
      // The initial supply (game ids below the workload's share) is
      // played whole in every round, however long the window.
      if (rec.game_id < share.at(static_cast<std::size_t>(rec.workload))) {
        Digest d;
        d.add_game(rec);
        first_games[{rec.workload, rec.game_id}] = d.value();
      }
    }
  };

  const std::uint64_t window_start = now_ns();
  apm::ServiceStats ss = top_up();
  std::uint64_t slice_start = window_start;
  for (;; ++slice) {
    const bool traced = trace && slice % 2 == 1;
    const std::uint64_t id = spans.next_id();
    spans.set_current_parent(id);
    spans.set_active(traced);
    const std::uint64_t slice_end =
        slice_start + static_cast<std::uint64_t>(kSliceSeconds * 1e9);
    do {
      std::this_thread::sleep_for(kPollPeriod);
      ss = top_up();
    } while (now_ns() < slice_end);
    const std::uint64_t end = now_ns();
    spans.record(
        {.name = "wave", .start_ns = slice_start, .end_ns = end, .id = id});
    spans.set_active(false);
    spans.set_current_parent(0);
    // Every committed move records one move-latency sample.
    const auto committed = static_cast<std::int64_t>(ss.move_latency_ns.count);
    (traced ? layer.trace.traced_units : layer.trace.untraced_units) +=
        static_cast<double>(committed - round.moves);
    (traced ? layer.trace.traced_s : layer.trace.untraced_s) +=
        seconds_between(slice_start, end);
    round.moves = committed;
    slice_start = end;
    for (int lane = 0; lane < rig.pool.model_count(); ++lane) {
      round.threshold_sum += rig.pool.queue(lane).batch_threshold();
      ++round.threshold_samples;
    }
    collect();
    const bool done = seconds_between(window_start, end) >= seconds;
    if (done && (!trace || slice >= 1)) {
      ++slice;
      break;
    }
  }
  round.wall_s = seconds_between(window_start, slice_start);
  round.move_ns = ss.move_latency_ns;
  round.retunes = ss.threshold_retunes;
  for (int id = 0; id < rig.pool.model_count(); ++id) {
    round.lanes.push_back(lane_view(rig.pool, id, timed(id),
                                    base[static_cast<std::size_t>(id)]));
  }

  // The games still seated when the window closes finish untimed, so that
  // every game the loop started is checked whole.
  service.drain();
  collect();
  Digest digest;
  for (const auto& [key, value] : first_games) digest.add(value);
  round.first_games = digest.value();
  return round;
}

void merge_lane(LaneView& into, const LaneView& v) {
  into.backend.calls += v.backend.calls;
  into.backend.positions += v.backend.positions;
  into.backend.busy_ns += v.backend.busy_ns;
  apm::BatchQueueStats& b = into.batch;
  b.submitted += v.batch.submitted;
  b.batches += v.batch.batches;
  b.stale_flushes += v.batch.stale_flushes;
  b.cache_hits += v.batch.cache_hits;
  b.coalesced += v.batch.coalesced;
  b.fill_histogram.resize(
      std::max(b.fill_histogram.size(), v.batch.fill_histogram.size()));
  for (std::size_t i = 0; i < v.batch.fill_histogram.size(); ++i) {
    b.fill_histogram[i] += v.batch.fill_histogram[i];
  }
  b.mean_batch = ratio(static_cast<double>(b.submitted),
                       static_cast<double>(b.batches));
  into.wait.merge(v.wait);
  into.request.merge(v.request);
  into.tt.probes += v.tt.probes;
  into.tt.hits += v.tt.hits;
  into.tt.replacements += v.tt.replacements;
  into.tt.entries += v.tt.entries;
  into.tt.capacity += v.tt.capacity;
}

Outcome run_waves(const WaveSpec& spec, const Options& opt) {
  Outcome out;
  const Seeds seeds(opt.seed);
  SpanRecorder spans;
  const auto build = [&] { return build_wave_rig(spec, seeds, spans, 0); };

  // Set-up: nets (and the int8 snapshot), lanes with their caches and
  // transposition tables, the service and its threads — repeated, with
  // the last rig kept for the first measured round.
  std::vector<double> setup_s;
  std::unique_ptr<WaveRig> rig = repeated_setup(setup_s, build);

  // The window is split over `rounds` fresh rigs with the same seeds, so a
  // run averages several controller trajectories and each round replays
  // the same first games: their digests must agree.
  const CpuTicks ticks = cpu_ticks();
  LayerInputs layer;
  layer.trace.root = "wave";
  std::vector<Round> rounds;
  int slice = 0;
  for (int r = 0; r < spec.rounds; ++r) {
    if (r > 0) rig = build();
    rounds.push_back(run_round(*rig, spec, opt.seconds / spec.rounds,
                               opt.trace, slice, spans, out, layer));
    rig.reset();
  }
  out.notes.push_back(steal_note(ticks));

  std::int64_t moves = 0;
  double wall_s = 0.0;
  HistogramSnapshot move_ns;
  int games = 0;
  double threshold_sum = 0.0;
  int threshold_samples = 0;
  for (const Round& round : rounds) {
    moves += round.moves;
    wall_s += round.wall_s;
    move_ns.merge(round.move_ns);
    games += round.games;
    layer.retunes += round.retunes;
    threshold_sum += round.threshold_sum;
    threshold_samples += round.threshold_samples;
    for (std::size_t i = 0; i < round.lanes.size(); ++i) {
      if (i == layer.lanes.size()) {
        layer.lanes.push_back(round.lanes[i]);
      } else {
        merge_lane(layer.lanes[i], round.lanes[i]);
      }
    }
    if (round.first_games != rounds.front().first_games) {
      ++out.failed;
      out.notes.push_back(
          "first-games digest differs between rounds of one run");
    }
  }
  layer.threshold_mean = ratio(threshold_sum, threshold_samples);
  char line[160];
  std::snprintf(line, sizeof line,
                "first-games digest %016llx (seed %llu, %d games over %d "
                "rounds)",
                static_cast<unsigned long long>(rounds.front().first_games),
                static_cast<unsigned long long>(opt.seed), games,
                spec.rounds);
  out.notes.emplace_back(line);
  const double move_p50_ms = move_ns.quantile(0.50) / 1e6;
  const double move_p95_ms = move_ns.quantile(0.95) / 1e6;
  if (opt.trace) {
    layer.wall_s = wall_s;
    layer.program_move_p50_ms = move_p50_ms;
    layer.program_move_p95_ms = move_p95_ms;
    layer.trace.spans = spans.collect();
  }

  // Reference wave: fixed seed, short games, digest against the one
  // recorded with the benchmark.
  {
    std::unique_ptr<WaveRig> ref =
        build_wave_rig(spec, Seeds(kReferenceSeed), spans, kReferenceMoves);
    ref->service->enqueue(ref->slots);
    ref->service->drain();
    const std::vector<apm::GameRecord> records = ref->service->take_completed();
    const int failed = check_records(*ref, records, kReferenceMoves, out);
    const int missing = ref->slots - static_cast<int>(records.size());
    if (missing > 0) {
      out.notes.push_back("reference wave lost " + std::to_string(missing) +
                          " games");
      out.attempted += missing;
      out.failed += missing;
    }
    Digest digest;
    for (const apm::GameRecord& rec : records) digest.add_game(rec);
    std::string verdict = "matches the reference";
    if (opt.reference_digest.empty()) {
      verdict = "no reference recorded";
    } else if (digest.hex() != opt.reference_digest) {
      if (spec.digest_is_contract) {
        verdict = "MISMATCH against reference " + opt.reference_digest;
        // The games that passed their own checks fail here.
        out.failed += static_cast<int>(records.size()) - failed;
      } else {
        verdict = "arithmetic changed: reference was " + opt.reference_digest;
      }
    }
    out.notes.push_back("reference digest " + digest.hex() + ": " + verdict);
  }

  if (opt.trace) {
    out.metrics = per_layer_metrics(layer, out.notes);
    write_trace(opt, layer.trace, out.notes);
  } else {
    out.metrics = end_to_end_metrics(static_cast<double>(moves), wall_s,
                                     move_p50_ms, move_p95_ms, setup_s);
    note_setup(setup_s, out.notes);
  }
  return out;
}

// ---------------------------------------------------------------------------
// analyze-gpu: one adaptive engine searching a seeded position suite.

struct AnalyzeRig {
  std::shared_ptr<const apm::Game> game;
  std::unique_ptr<apm::SyntheticEvaluator> eval;
  std::unique_ptr<apm::SimGpuBackend> device;
  std::unique_ptr<TimedBackend> timed;
  apm::EvaluatorPool pool;
  std::unique_ptr<apm::SearchEngine> engine;
};

std::unique_ptr<AnalyzeRig> build_analyze_rig(const Seeds& seeds,
                                              SpanRecorder& spans) {
  auto rig = std::make_unique<AnalyzeRig>();
  rig->game = make_game(GameKind::kGomoku15);
  rig->eval = std::make_unique<apm::SyntheticEvaluator>(
      rig->game->action_count(), rig->game->encode_size(), 0.0, seeds.net);
  rig->device = std::make_unique<apm::SimGpuBackend>(
      *rig->eval, apm::GpuTimingModel{}, /*emulate_wall_time=*/true);
  rig->timed = std::make_unique<TimedBackend>(*rig->device, 0, spans);
  apm::ModelSpec model;
  model.name = "gpu";
  model.backend = rig->timed.get();
  model.batch_threshold = 1;
  model.cache = false;  // each position is searched from an empty tree
  rig->pool.add_model(model);

  // Threads: the lane's one stream thread plus at most nproc − 1 search
  // threads.
  const int nproc =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  apm::EngineConfig ec;
  ec.mcts.num_playouts = kAnalyzePlayouts;
  ec.mcts.seed = seeds.engine;
  ec.adapt = true;
  ec.adaptive.gpu = true;
  ec.adaptive.worker_candidates.clear();
  for (int w = 1; w < nproc; ++w) ec.adaptive.worker_candidates.push_back(w);
  ec.hw.cpu_threads = nproc;
  rig->engine = std::make_unique<apm::SearchEngine>(
      ec, apm::SearchResources{.batch = &rig->pool.queue(0)});
  return rig;
}

// Position `index` of the suite: a random legal opening of 2–20 plies
// that has not ended the game.
std::unique_ptr<apm::Game> suite_position(const apm::Game& proto,
                                          std::uint64_t suite_seed,
                                          int index) {
  std::uint64_t s = suite_seed + static_cast<std::uint64_t>(index);
  apm::Rng rng(apm::splitmix64(s));
  std::vector<int> actions;
  for (;;) {
    std::unique_ptr<apm::Game> env = proto.clone();
    const int plies = 2 + static_cast<int>(rng.below(19));
    for (int p = 0; p < plies && !env->is_terminal(); ++p) {
      env->legal_actions(actions);
      env->apply(actions[rng.below(actions.size())]);
    }
    if (!env->is_terminal()) return env;
  }
}

Outcome run_analyze(const Options& opt) {
  Outcome out;
  const Seeds seeds(opt.seed);
  SpanRecorder spans;

  std::vector<double> setup_s;
  std::unique_ptr<AnalyzeRig> rig =
      repeated_setup(setup_s, [&] { return build_analyze_rig(seeds, spans); });
  apm::SearchEngine& engine = *rig->engine;

  int index = 0;
  const auto analyze = [&](bool traced) {
    const std::unique_ptr<apm::Game> env =
        suite_position(*rig->game, seeds.suite, index++);
    spans.set_active(traced);
    const std::uint64_t reset_start = now_ns();
    engine.reset_game();
    const std::uint64_t search_start = now_ns();
    spans.record({.name = "reset",
                  .start_ns = reset_start,
                  .end_ns = search_start,
                  .id = spans.next_id()});
    const std::uint64_t id = spans.next_id();
    spans.set_current_parent(id);
    const apm::SearchResult r = engine.search(*env);
    const std::uint64_t end = now_ns();
    spans.record(
        {.name = "search", .start_ns = search_start, .end_ns = end, .id = id});
    spans.set_current_parent(0);
    spans.set_active(false);
    ++out.attempted;
    const std::string why = check_search(*env, r, kAnalyzePlayouts);
    if (!why.empty()) {
      ++out.failed;
      out.notes.push_back("position " + std::to_string(index - 1) + ": " + why);
    }
    return std::pair{seconds_between(reset_start, end),
                     seconds_between(search_start, end)};
  };

  for (int i = 0; i < kAnalyzeWarmup; ++i) analyze(false);
  const std::size_t log_begin = engine.move_log().size();
  const LaneBaseline base = lane_baseline(rig->pool, 0, *rig->timed);

  const CpuTicks ticks = cpu_ticks();
  LayerInputs layer;
  layer.trace.root = "search";
  std::vector<double> search_ms;
  double wall_s = 0.0;
  for (int n = 0; wall_s < opt.seconds || n < kMinSearches; ++n) {
    const bool traced = opt.trace && n % 2 == 1;
    const auto [loop_s, search_s] = analyze(traced);
    wall_s += loop_s;
    search_ms.push_back(search_s * 1e3);
    (traced ? layer.trace.traced_units : layer.trace.untraced_units) += 1;
    (traced ? layer.trace.traced_s : layer.trace.untraced_s) += loop_s;
  }
  out.notes.push_back(steal_note(ticks));
  const auto& log = engine.move_log();
  for (std::size_t i = log_begin; i < log.size(); ++i) layer.moves.add(log[i]);
  char line[160];
  std::snprintf(line, sizeof line,
                "final configuration %s x%d, B=%d after %d searches",
                apm::to_string(engine.scheme()).c_str(), engine.workers(),
                engine.batch_threshold(), out.attempted);
  out.notes.emplace_back(line);

  if (opt.trace) {
    layer.wall_s = wall_s;
    layer.lanes.push_back(lane_view(rig->pool, 0, *rig->timed, base));
    layer.program_move_p50_ms = percentile(layer.moves.search_ms, 0.50);
    layer.program_move_p95_ms = percentile(layer.moves.search_ms, 0.95);
    layer.retunes = layer.moves.threshold_changes;
    layer.threshold_mean = ratio(layer.moves.threshold_sum, layer.moves.moves);
    layer.trace.spans = spans.collect();
    out.metrics = per_layer_metrics(layer, out.notes);
    write_trace(opt, layer.trace, out.notes);
  } else {
    out.metrics = end_to_end_metrics(
        static_cast<double>(search_ms.size()), wall_s,
        percentile(search_ms, 0.50), percentile(search_ms, 0.95), setup_s);
    note_setup(setup_s, out.notes);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "selfplay-net", "selfplay-gpu", "selfplay-tree", "analyze-gpu"};
  return names;
}

Outcome run_workload(const Options& opt) {
  if (opt.workload == "analyze-gpu") return run_analyze(opt);
  return run_waves(wave_spec(opt.workload), opt);
}

}  // namespace perfbench
