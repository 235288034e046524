// Structured tracing for the rebuild pipeline.
//
// A Tracer collects nestable spans — named intervals with ids, parent ids,
// steady-clock timestamps and key/value annotations — from many threads at
// once. Each thread writes completed spans into its own buffer (registered
// with the tracer on first use), so emission never contends across threads;
// only export walks every buffer. Spans are exported in Chrome's Trace Event
// Format ("X" complete events), so a rebuild trace opens directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Spans are RAII: Tracer::span() returns a Span that records its duration
// when it ends (explicitly or at destruction). A default-constructed Span is
// inert, which is how call sites stay branch-free when no tracer is attached
// (see maybe_span). Parent links are explicit span ids, not thread state, so
// a span begun on a service thread can parent compile-job spans running on
// pool workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "obs/stopwatch.hpp"

namespace comt::obs {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One completed span, as stored in a thread buffer and exported.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  std::string category;  ///< pipeline phase ("resolve", "compile", "blob-push", …)
  double start_us = 0;   ///< steady-clock microseconds since the tracer's epoch
  double dur_us = 0;
  std::uint32_t tid = 0;  ///< tracer-local thread index (stable per thread)
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer;

/// RAII handle for an open span. Move-only; ends on destruction. A
/// default-constructed Span is inert: every operation is a no-op and id() is
/// kNoSpan, so instrumented code need not branch on "is tracing enabled".
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  bool active() const { return tracer_ != nullptr; }
  SpanId id() const { return record_.id; }

  void annotate(std::string_view key, std::string_view value);
  void annotate(std::string_view key, std::uint64_t value);

  /// Records the span into its thread's buffer. Idempotent; called by the
  /// destructor. End a span on whichever thread finishes the work — the
  /// record lands in that thread's buffer.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, SpanRecord record)
      : tracer_(tracer), record_(std::move(record)) {}

  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

/// Thread-safe span collector with per-thread buffers.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span. The returned Span must end (go out of scope) before the
  /// tracer is destroyed.
  Span span(std::string_view name, SpanId parent = kNoSpan,
            std::string_view category = "");

  /// All completed spans, sorted by (start time, id). Concurrent emitters may
  /// add more spans after the snapshot returns.
  std::vector<SpanRecord> snapshot() const;

  std::size_t span_count() const;

  /// The trace as a Chrome Trace Event Format document:
  /// {"traceEvents": [{"name", "cat", "ph":"X", "ts", "dur", "pid", "tid",
  /// "args": {"id", "parent", …annotations}}, …], "displayTimeUnit": "ms"}.
  /// Deterministic given the spans (sorted, insertion-ordered objects).
  json::Value trace_events() const;

  /// trace_events() serialized compactly — write this to a .json file and
  /// open it in chrome://tracing / Perfetto.
  std::string chrome_trace_json() const;

 private:
  friend class Span;
  struct ThreadBuffer {
    std::mutex mutex;
    std::uint32_t tid = 0;
    std::vector<SpanRecord> records;
  };

  ThreadBuffer& local_buffer();
  void record(SpanRecord record);
  double now_us() const { return epoch_.elapsed_us(); }

  const std::uint64_t tracer_id_;  ///< process-unique, never reused
  Stopwatch epoch_;
  std::atomic<SpanId> next_span_{1};
  std::atomic<std::uint32_t> next_tid_{1};
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Opens a span on a possibly-absent tracer: nullptr yields an inert Span.
/// The standard idiom at instrumentation sites.
inline Span maybe_span(Tracer* tracer, std::string_view name, SpanId parent = kNoSpan,
                       std::string_view category = "") {
  return tracer == nullptr ? Span() : tracer->span(name, parent, category);
}

}  // namespace comt::obs
