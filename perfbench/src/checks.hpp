#pragma once
// Output checks. Each returns an empty string when the output is correct
// and a one-line reason otherwise.

#include <cstdint>
#include <string>

#include "games/game.hpp"
#include "mcts/config.hpp"
#include "serve/match_service.hpp"

namespace perfbench {

// Replays a self-play record against the game's rules: the game
// completed; one sample per move; every sample's state is the replayed
// position; policy targets are finite, zero on illegal actions and sum to
// 1 over the legal ones; each played move (read from the next sample's
// last-move plane) is legal; the final move can reach the recorded result;
// z is the result from the mover's side. `max_moves` > 0 accepts games
// truncated at that length with a drawn result.
std::string check_game(const apm::Game& proto, const apm::GameRecord& rec,
                       int max_moves);

// Checks one analysis search from `env`: legal best action, prior summing
// to 1 over legal actions, finite root value in [−1, 1], and exactly
// `budget` playouts.
std::string check_search(const apm::Game& env, const apm::SearchResult& r,
                         int budget);

// FNV-1a over the fields that fix a self-play game: game id, winner,
// moves, and every policy target and z (as bit patterns).
class Digest {
 public:
  void add(std::uint64_t v);
  void add(float v);
  void add_game(const apm::GameRecord& rec);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
