#include "obs/trace.hpp"

#include <algorithm>
#include <unordered_map>

namespace comt::obs {
namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::annotate(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  record_.args.emplace_back(std::string(key), std::string(value));
}

void Span::annotate(std::string_view key, std::uint64_t value) {
  annotate(key, std::to_string(value));
}

void Span::end() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  record_.dur_us = tracer->now_us() - record_.start_us;
  tracer->record(std::move(record_));
}

Tracer::Tracer() : tracer_id_(next_tracer_id()) {}

Span Tracer::span(std::string_view name, SpanId parent, std::string_view category) {
  SpanRecord record;
  record.id = next_span_.fetch_add(1, std::memory_order_relaxed);
  record.parent = parent;
  record.name = std::string(name);
  record.category = std::string(category);
  record.start_us = now_us();
  return Span(this, std::move(record));
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Tracer ids are process-unique and never reused, so a stale entry left by
  // a destroyed tracer can never be looked up again — the map only grows by
  // one entry per (thread, tracer) pair.
  thread_local std::unordered_map<std::uint64_t, ThreadBuffer*> buffers_by_tracer;
  auto it = buffers_by_tracer.find(tracer_id_);
  if (it != buffers_by_tracer.end()) return *it->second;

  auto owned = std::make_unique<ThreadBuffer>();
  owned->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  ThreadBuffer* buffer = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers_.push_back(std::move(owned));
  }
  buffers_by_tracer.emplace(tracer_id_, buffer);
  return *buffer;
}

void Tracer::record(SpanRecord record) {
  ThreadBuffer& buffer = local_buffer();
  record.tid = buffer.tid;
  // The buffer's mutex is only ever contended by export; emission from the
  // owning thread is an uncontended lock around one push_back.
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.records.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> lock(buffer->mutex);
      out.insert(out.end(), buffer->records.begin(), buffer->records.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.id < b.id;
  });
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t count = 0;
  std::lock_guard<std::mutex> registry_lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    count += buffer->records.size();
  }
  return count;
}

json::Value Tracer::trace_events() const {
  json::Array events;
  for (const SpanRecord& span : snapshot()) {
    json::Object event;
    event.emplace_back("name", json::Value(span.name));
    event.emplace_back("cat",
                       json::Value(span.category.empty() ? "default" : span.category));
    event.emplace_back("ph", json::Value("X"));
    event.emplace_back("ts", json::Value(span.start_us));
    event.emplace_back("dur", json::Value(span.dur_us));
    event.emplace_back("pid", json::Value(1));
    event.emplace_back("tid", json::Value(static_cast<std::int64_t>(span.tid)));
    json::Object args;
    args.emplace_back("id", json::Value(std::to_string(span.id)));
    args.emplace_back("parent", json::Value(std::to_string(span.parent)));
    for (const auto& [key, value] : span.args) {
      args.emplace_back(key, json::Value(value));
    }
    event.emplace_back("args", json::Value(std::move(args)));
    events.push_back(json::Value(std::move(event)));
  }
  json::Object document;
  document.emplace_back("traceEvents", json::Value(std::move(events)));
  document.emplace_back("displayTimeUnit", json::Value("ms"));
  return json::Value(std::move(document));
}

std::string Tracer::chrome_trace_json() const { return json::serialize(trace_events()); }

}  // namespace comt::obs
