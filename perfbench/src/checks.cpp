#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

namespace perfbench {

namespace {

constexpr double kSumTolerance = 1e-4;

// Σ of `pi` over legal actions, or a reason it is malformed.
std::string check_policy(const apm::Game& env, const std::vector<float>& pi,
                         const char* what) {
  if (static_cast<int>(pi.size()) != env.action_count()) {
    return std::string(what) + ": wrong action count";
  }
  std::vector<char> legal(pi.size(), 0);
  std::vector<int> actions;
  env.legal_actions(actions);
  for (int a : actions) legal[static_cast<std::size_t>(a)] = 1;
  double sum = 0.0;
  for (std::size_t a = 0; a < pi.size(); ++a) {
    if (!std::isfinite(pi[a]) || pi[a] < 0.0f) {
      return std::string(what) + ": non-finite or negative entry";
    }
    if (!legal[a] && pi[a] != 0.0f) {
      return std::string(what) + ": mass on an illegal action";
    }
    sum += pi[a];
  }
  if (std::fabs(sum - 1.0) > kSumTolerance) {
    return std::string(what) + ": does not sum to 1 over legal actions";
  }
  return {};
}

// The action marked on a state's last-move plane (plane 2), or -1.
int marked_action(const apm::Game& g, const std::vector<float>& state) {
  const std::size_t plane = static_cast<std::size_t>(g.height()) * g.width();
  int cell = -1;
  for (std::size_t i = 0; i < plane; ++i) {
    if (state[2 * plane + i] != 0.0f) {
      if (cell >= 0) return -1;
      cell = static_cast<int>(i);
    }
  }
  if (cell < 0) return -1;
  // Column games (Connect4) act on a column, board games on a cell.
  return g.action_count() == static_cast<int>(plane) ? cell : cell % g.width();
}

}  // namespace

std::string check_game(const apm::Game& proto, const apm::GameRecord& rec,
                       int max_moves) {
  if (!rec.completed) return "game did not complete";
  const auto& samples = rec.samples;
  const int moves = rec.stats.moves;
  if (moves <= 0 || static_cast<int>(samples.size()) != moves) {
    return "sample count differs from move count";
  }
  const int winner = rec.stats.winner;
  if (winner < -1 || winner > 1) return "winner out of range";
  std::unique_ptr<apm::Game> env = proto.clone();
  std::vector<float> planes(env->encode_size());
  for (int i = 0; i < moves; ++i) {
    const apm::TrainSample& s = samples[static_cast<std::size_t>(i)];
    if (env->is_terminal()) return "game continued past a terminal position";
    env->encode(planes.data());
    if (s.state != planes) {
      return "sample state differs from the replayed position";
    }
    std::string why = check_policy(*env, s.pi, "policy target");
    if (!why.empty()) return why;
    const float want_z =
        winner == 0 ? 0.0f : (env->current_player() == winner ? 1.0f : -1.0f);
    if (s.z != want_z) return "z is not the result from the mover's side";
    if (i + 1 < moves) {
      const auto next = static_cast<std::size_t>(i) + 1;
      const int action = marked_action(*env, samples[next].state);
      if (action < 0 || !env->is_legal(action)) {
        return "played move is not legal";
      }
      env->apply(action);
      continue;
    }
    // Final move: some legal action must produce the recorded ending.
    const bool truncated = max_moves > 0 && moves == max_moves;
    std::vector<int> actions;
    env->legal_actions(actions);
    bool reachable = false;
    for (int a : actions) {
      std::unique_ptr<apm::Game> next = env->clone();
      next->apply(a);
      if ((next->is_terminal() && next->winner() == winner) ||
          (truncated && !next->is_terminal() && winner == 0)) {
        reachable = true;
        break;
      }
    }
    if (!reachable) {
      return "recorded result is not reachable from the final position";
    }
  }
  return {};
}

std::string check_search(const apm::Game& env, const apm::SearchResult& r,
                         int budget) {
  if (r.best_action < 0 || r.best_action >= env.action_count() ||
      !env.is_legal(r.best_action)) {
    return "best action is not legal";
  }
  std::string why = check_policy(env, r.action_prior, "root prior");
  if (!why.empty()) return why;
  if (!std::isfinite(r.root_value) || std::fabs(r.root_value) > 1.0f) {
    return "root value is not finite in [-1, 1]";
  }
  if (r.metrics.playouts != budget) return "playouts differ from the budget";
  return {};
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(static_cast<std::uint64_t>(bits));
}

void Digest::add_game(const apm::GameRecord& rec) {
  add(static_cast<std::uint64_t>(rec.workload));
  add(static_cast<std::uint64_t>(rec.game_id));
  add(static_cast<std::uint64_t>(rec.stats.winner + 1));
  add(static_cast<std::uint64_t>(rec.stats.moves));
  for (const apm::TrainSample& s : rec.samples) {
    for (float p : s.pi) add(p);
    add(s.z);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
