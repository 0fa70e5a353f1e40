#pragma once
// Benchmark-owned InferenceBackend decorator: times every compute_batch
// call on the lane's stream thread, counts calls and positions, and — when
// the run is traced — records a `backend` span carrying the lane and the
// batch size, parented to the wave or search in progress.

#include <atomic>
#include <cstdint>

#include "eval/gpu_model.hpp"
#include "spans.hpp"

namespace perfbench {

struct BackendTotals {
  std::uint64_t calls = 0;
  std::uint64_t positions = 0;
  std::uint64_t busy_ns = 0;

  double us_per_pos() const {
    return positions > 0 ? static_cast<double>(busy_ns) / 1e3 /
                               static_cast<double>(positions)
                         : 0.0;
  }
};

class TimedBackend final : public apm::InferenceBackend {
 public:
  TimedBackend(apm::InferenceBackend& inner, int lane, SpanRecorder& spans)
      : inner_(inner), lane_(lane), spans_(spans) {}

  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  double model_batch_us(int n) const override {
    return inner_.model_batch_us(n);
  }

  double compute_batch(const float* inputs, int n,
                       apm::EvalOutput* outs) override {
    const std::uint64_t start = now_ns();
    const double modelled = inner_.compute_batch(inputs, n, outs);
    const std::uint64_t end = now_ns();
    calls_.fetch_add(1, std::memory_order_relaxed);
    positions_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
    busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
    if (spans_.active()) {
      spans_.record({.name = "backend",
                     .start_ns = start,
                     .end_ns = end,
                     .id = spans_.next_id(),
                     .parent = spans_.current_parent(),
                     .lane = lane_,
                     .n = n});
    }
    return modelled;
  }

  BackendTotals totals() const {
    return {calls_.load(std::memory_order_relaxed),
            positions_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed)};
  }

 private:
  apm::InferenceBackend& inner_;
  const int lane_;
  SpanRecorder& spans_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> positions_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace perfbench
