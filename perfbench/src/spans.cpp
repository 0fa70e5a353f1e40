#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_recorder_serial{1};

// The calling thread's buffer in the recorder it last recorded into.
struct TlsBuffer {
  std::uint64_t owner = 0;
  void* buffer = nullptr;
};
thread_local TlsBuffer tls_buffer;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::SpanRecorder()
    : serial_(g_recorder_serial.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::Buffer& SpanRecorder::local_buffer() {
  if (tls_buffer.owner != serial_) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    tls_buffer = {serial_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(tls_buffer.buffer);
}

void SpanRecorder::record(Span span) {
  if (!active()) return;
  Buffer& buf = local_buffer();
  span.tid = buf.tid;
  std::lock_guard lock(buf.mu);
  buf.spans.push_back(span);
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> out;
  {
    std::lock_guard lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard buf_lock(buf->mu);
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

std::uint64_t self_time_ns(const Span& parent,
                           const std::vector<Span>& children) {
  if (parent.end_ns <= parent.start_ns) return 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  cover.reserve(children.size());
  for (const Span& c : children) {
    const std::uint64_t lo = std::max(c.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  std::uint64_t covered = 0;
  std::uint64_t run_lo = 0;
  std::uint64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : cover) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (parent.end_ns - parent.start_ns) - covered;
}

std::vector<LayerTime> layer_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::map<std::string, LayerTime> by_name;
  for (const Span& s : spans) {
    LayerTime& lt = by_name[s.name];
    lt.name = s.name;
    ++lt.count;
    lt.total_ns += s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    const auto it = children.find(s.id);
    lt.self_ns += self_time_ns(s, it != children.end() ? it->second : kNone);
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) out.push_back(std::move(lt));
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(spans.size(), max_events);
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%zu,"
                  "\"exported\":%zu},\"traceEvents\":[\n",
               spans.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"lane\":%d,\"n\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.lane, s.n);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
