#pragma once
// The benchmark's own span recorder: spans are kept in memory (one buffer
// per recording thread) and written out once, at the end of a traced run,
// as Chrome-trace JSON. Self time per layer is derived from the recorded
// parent links.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady clock).
std::uint64_t now_ns();

struct Span {
  const char* name = "";  // static label: "wave", "search", "reset", "backend"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      // unique, > 0
  std::uint64_t parent = 0;  // 0 = no known parent
  std::uint32_t tid = 0;     // dense recorder-assigned thread number
  std::int32_t lane = -1;    // evaluator lane (backend spans)
  std::int32_t n = 0;        // positions in the batch (backend spans)
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Recording is off until switched on; record() is a no-op while off.
  void set_active(bool on) { active_.store(on, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_acquire); }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // The span that work started on other threads belongs to (the wave or
  // search in progress); 0 when none.
  void set_current_parent(std::uint64_t id) {
    parent_.store(id, std::memory_order_release);
  }
  std::uint64_t current_parent() const {
    return parent_.load(std::memory_order_acquire);
  }

  // Appends to the calling thread's buffer (tid is filled in here).
  void record(Span span);

  // Copy of every recorded span, ordered by start time.
  std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
    std::uint32_t tid = 0;
  };
  Buffer& local_buffer();

  const std::uint64_t serial_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> parent_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Duration of `parent` not covered by any of `children`. Children may
// overlap each other (spans from concurrent threads) and may extend past
// the parent's interval; only the covered part inside it counts.
std::uint64_t self_time_ns(const Span& parent,
                           const std::vector<Span>& children);

// Total and self time of every span with a given name, self time being its
// duration minus the union of its direct children's intervals.
struct LayerTime {
  std::string name;
  std::size_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
std::vector<LayerTime> layer_times(const std::vector<Span>& spans);

// Writes `spans` (at most `max_events`, in start order) as a Chrome-trace
// JSON document. Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::size_t max_events);

}  // namespace perfbench
