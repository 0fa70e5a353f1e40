// Zobrist / eval_key consistency tests (ISSUE 7): the incremental hash
// each game maintains through apply() must equal a from-scratch recompute
// off the board at every step of a random playout, move-order transposed
// sequences must converge to one hash (the property the transposition
// table keys on), eval_key() must be hash() extended with exactly the
// last-move mix, and the hash memo the search writes into arena nodes must
// survive advance_root() compaction and still match the live game's key.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "games/othello.hpp"
#include "games/zobrist.hpp"
#include "mcts/engine.hpp"
#include "mcts/transposition.hpp"
#include "support/rng.hpp"

namespace apm {
namespace {

// From-scratch recompute straight off the visible board: base key, one
// cell key per stone, side key iff −1 is to move. Any drift between this
// and the incrementally maintained hash (captures, double-toggles on
// Othello passes, ...) shows up immediately.
template <typename G>
std::uint64_t recompute_hash(const G& g, const ZobristTable& z) {
  std::uint64_t h = z.base_key();
  const int rows = g.height();
  const int cols = g.width();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = g.cell(r, c);
      if (v == 0) continue;
      h ^= z.key(r * cols + c, v == 1 ? 0 : 1);
    }
  }
  if (g.current_player() == -1) h ^= z.side_key();
  return h;
}

// Random playout checking at every position: incremental == recompute,
// replay-from-scratch == incremental (for hash and eval_key), and clone()
// preserves both.
template <typename G>
void check_random_playout(G game, const G& fresh, const ZobristTable& z,
                          std::uint64_t seed, int max_moves) {
  Rng rng(seed);
  std::vector<int> legal;
  std::vector<int> played;
  for (int m = 0; m < max_moves && !game.is_terminal(); ++m) {
    ASSERT_EQ(game.hash(), recompute_hash(game, z)) << "move " << m;
    EXPECT_NE(game.hash(), 0u);  // never collides with the "no key" sentinel

    std::unique_ptr<Game> copy = game.clone();
    EXPECT_EQ(copy->hash(), game.hash());
    EXPECT_EQ(copy->eval_key(), game.eval_key());

    G replay = fresh;
    for (int a : played) replay.apply(a);
    EXPECT_EQ(replay.hash(), game.hash()) << "move " << m;
    EXPECT_EQ(replay.eval_key(), game.eval_key()) << "move " << m;

    game.legal_actions(legal);
    ASSERT_FALSE(legal.empty());
    const int action = legal[rng() % legal.size()];
    played.push_back(action);
    game.apply(action);
  }
  ASSERT_EQ(game.hash(), recompute_hash(game, z));
}

TEST(Zobrist, GomokuIncrementalMatchesRecompute) {
  const Gomoku fresh(7, 5);
  const ZobristTable z(7 * 7);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_random_playout(fresh, fresh, z, seed, 49);
  }
}

TEST(Zobrist, Connect4IncrementalMatchesRecompute) {
  const Connect4 fresh;
  const ZobristTable z(Connect4::kRows * Connect4::kCols);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_random_playout(fresh, fresh, z, seed, 42);
  }
}

TEST(Zobrist, OthelloIncrementalMatchesRecompute) {
  // Flips and auto-passes make Othello the strongest incremental-update
  // test: every capture toggles two keys, every pass double-toggles side.
  const Othello fresh(6);
  const ZobristTable z(6 * 6, Othello::kZobristSeed);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_random_playout(fresh, fresh, z, seed, 64);
  }
}

TEST(Zobrist, GomokuTranspositionsShareHashAndEvalKey) {
  // Two interleavings of the same stone sets — X{0,2}, O{8,12} — ending
  // with the same final move, so both the position hash and the last-move
  // mixed eval key must collide.
  Gomoku a(5, 4);
  a.apply(0);
  a.apply(8);
  a.apply(2);
  a.apply(12);

  Gomoku b(5, 4);
  b.apply(2);
  b.apply(8);
  b.apply(0);
  b.apply(12);

  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.eval_key(), b.eval_key());

  // A different final move keeps the position hash shared but splits the
  // eval key (encode()'s last-move plane differs).
  Gomoku c(5, 4);
  c.apply(0);
  c.apply(12);
  c.apply(2);
  c.apply(8);
  EXPECT_EQ(a.hash(), c.hash());
  EXPECT_NE(a.eval_key(), c.eval_key());
}

TEST(Zobrist, Connect4TranspositionsShareEvalKey) {
  // Drop orders 0,1,2,3 and 2,1,0,3 give X bottom stones in columns 0/2,
  // O in columns 1/3 — one position, same last drop.
  Connect4 a;
  a.apply(0);
  a.apply(1);
  a.apply(2);
  a.apply(3);

  Connect4 b;
  b.apply(2);
  b.apply(1);
  b.apply(0);
  b.apply(3);

  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.eval_key(), b.eval_key());
}

TEST(Zobrist, EvalKeyIsHashMixedWithLastMove) {
  Gomoku g(5, 4);
  EXPECT_EQ(g.eval_key(), g.hash());  // no last move yet
  g.apply(7);
  EXPECT_EQ(g.eval_key(), Game::mix_last_move(g.hash(), 7));
  EXPECT_NE(g.eval_key(), g.hash());

  Connect4 c;
  c.apply(3);
  c.apply(3);
  // Second stone in column 3 sits at row 1 → cell 1·7+3.
  EXPECT_EQ(c.eval_key(), Game::mix_last_move(c.hash(), 1 * Connect4::kCols + 3));
}

// The memo the drivers write into arena nodes (Node::hash, set by
// note_eval at expansion) must match the live game's eval_key at that
// node — and keep matching after advance_root() copies the subtree into
// the back arena.
TEST(Zobrist, NodeHashMemoSurvivesAdvanceRoot) {
  Gomoku env(5, 4);
  SyntheticEvaluator eval(env.action_count(), env.encode_size());

  EngineConfig ec;
  ec.mcts.num_playouts = 300;
  ec.mcts.seed = 3;
  ec.scheme = Scheme::kSerial;
  ec.adapt = false;
  TtConfig tc;
  tc.max_edges = 30;
  TranspositionTable tt(tc);
  SearchEngine engine(ec, {.evaluator = &eval, .tt = &tt});

  for (int move = 0; move < 3 && !env.is_terminal(); ++move) {
    const SearchResult r = engine.search(env);
    EXPECT_EQ(engine.tree().node(engine.tree().root()).hash, env.eval_key())
        << "move " << move;
    engine.advance(r.best_action);
    env.apply(r.best_action);
    engine.wait_compaction();
    // The reused root was copied across arenas; its memo must still match
    // the position the engine now believes it is at.
    const Node& root = engine.tree().node(engine.tree().root());
    if (root.num_edges > 0) {
      EXPECT_EQ(root.hash, env.eval_key()) << "after advance " << move;
    }
  }
}

}  // namespace
}  // namespace apm
