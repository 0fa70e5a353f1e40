// Unit tests of the benchmark's own arithmetic: order statistics and span
// self time. Exit code 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(std::uint64_t id, std::uint64_t parent,
                     std::uint64_t start, std::uint64_t end,
                     const char* name = "s") {
  return {.name = name,
          .start_ns = start,
          .end_ns = end,
          .id = id,
          .parent = parent};
}

void test_median_and_percentile() {
  using perfbench::median;
  using perfbench::percentile;
  CHECK(median({}) == 0.0);
  CHECK(median({7.0}) == 7.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  // Inclusive linear interpolation: rank q·(n−1).
  const std::vector<double> v = {10, 20, 30, 40, 50};
  CHECK(percentile(v, 0.0) == 10.0);
  CHECK(percentile(v, 1.0) == 50.0);
  CHECK(near(percentile(v, 0.95), 48.0));
  CHECK(near(percentile(v, 0.10), 14.0));
  CHECK(percentile({5.0, 5.0, 5.0}, 0.95) == 5.0);
}

void test_quartiles_match_python() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const perfbench::Quartiles q = perfbench::quartiles(ten);
  CHECK(near(q.q1, 2.75));
  CHECK(near(q.q2, 5.5));
  CHECK(near(q.q3, 8.25));
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const perfbench::Quartiles q5 = perfbench::quartiles({16, 1, 8, 2, 4});
  CHECK(near(q5.q1, 1.5));
  CHECK(near(q5.q2, 4.0));
  CHECK(near(q5.q3, 12.0));
  // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
  const perfbench::Quartiles q2 = perfbench::quartiles({3, 1});
  CHECK(near(q2.q1, 0.5));
  CHECK(near(q2.q3, 3.5));
  CHECK(near(perfbench::quartile_spread(ten), (8.25 - 2.75) / 5.5));
  CHECK(perfbench::quartile_spread({0.0, 0.0, 0.0}) == 0.0);
}

void test_self_time_disjoint_and_overlapping_children() {
  using perfbench::self_time_ns;
  const perfbench::Span parent = span(1, 0, 100, 200);
  // Self time of `parent` with two children [a0, a1) and [b0, b1).
  const auto with_two = [&parent](std::uint64_t a0, std::uint64_t a1,
                                   std::uint64_t b0, std::uint64_t b1) {
    return self_time_ns(parent, {span(2, 1, a0, a1), span(3, 1, b0, b1)});
  };
  CHECK(self_time_ns(parent, {}) == 100);
  // Disjoint children: 10 + 20 covered.
  CHECK(with_two(110, 120, 150, 170) == 70);
  // Overlapping children from two threads: union [110, 160) = 50.
  CHECK(with_two(110, 140, 130, 160) == 50);
  // One child contains another: union is the outer one.
  CHECK(with_two(120, 180, 130, 140) == 40);
  // Children extending past the parent count only inside it.
  CHECK(with_two(50, 120, 190, 260) == 70);
  // Full cover leaves no self time.
  CHECK(self_time_ns(parent, {span(2, 1, 0, 300)}) == 0);
  // Touching intervals merge without double counting.
  CHECK(with_two(100, 150, 150, 200) == 0);
}

void test_layer_times_nested() {
  // search [0,100) > backend [10,40) > inner [15,25); backend [30,60)
  // overlapping the first; a reset with no children.
  const std::vector<perfbench::Span> spans = {
      span(1, 0, 0, 100, "search"),  span(2, 1, 10, 40, "backend"),
      span(3, 2, 15, 25, "inner"),   span(4, 1, 30, 60, "backend"),
      span(5, 0, 100, 105, "reset"),
  };
  double search_self = -1, backend_total = -1, backend_self = -1;
  double inner_self = -1, reset_self = -1;
  for (const perfbench::LayerTime& lt : perfbench::layer_times(spans)) {
    if (lt.name == "search") search_self = static_cast<double>(lt.self_ns);
    if (lt.name == "backend") {
      backend_total = static_cast<double>(lt.total_ns);
      backend_self = static_cast<double>(lt.self_ns);
      CHECK(lt.count == 2);
    }
    if (lt.name == "inner") inner_self = static_cast<double>(lt.self_ns);
    if (lt.name == "reset") reset_self = static_cast<double>(lt.self_ns);
  }
  CHECK(search_self == 50);    // 100 − |[10,60)|
  CHECK(backend_total == 60);  // 30 + 30
  CHECK(backend_self == 50);   // (30 − 10) + 30
  CHECK(inner_self == 10);
  CHECK(reset_self == 5);
}

void test_recorder_threads() {
  perfbench::SpanRecorder rec;
  rec.record(span(rec.next_id(), 0, 1, 2));  // inactive: dropped
  CHECK(rec.collect().empty());
  rec.set_active(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 1000; ++i) {
        const std::uint64_t s = static_cast<std::uint64_t>(t * 10000 + i);
        rec.record(span(rec.next_id(), 0, s, s + 1));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::vector<perfbench::Span> all = rec.collect();
  CHECK(all.size() == 3000);
  bool ordered = true;
  for (std::size_t i = 1; i < all.size(); ++i) {
    ordered = ordered && all[i - 1].start_ns <= all[i].start_ns;
  }
  CHECK(ordered);
  CHECK(all.front().tid != all.back().tid);
}

}  // namespace

int main() {
  test_median_and_percentile();
  test_quartiles_match_python();
  test_self_time_disjoint_and_overlapping_children();
  test_layer_times_nested();
  test_recorder_threads();
  if (g_failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
