#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace comt::obs {
namespace {

std::size_t phase_rank(std::string_view phase) {
  for (std::size_t i = 0; i < std::size(kPipelinePhases); ++i) {
    if (kPipelinePhases[i] == phase) return i;
  }
  return std::size(kPipelinePhases);
}

}  // namespace

json::Value ProfileReport::to_json() const {
  json::Array phase_array;
  for (const PhaseTime& phase : phases) {
    json::Object entry;
    entry.emplace_back("phase", json::Value(phase.phase));
    entry.emplace_back("total_ms", json::Value(phase.total_ms));
    entry.emplace_back("spans", json::Value(static_cast<std::uint64_t>(phase.spans)));
    phase_array.push_back(json::Value(std::move(entry)));
  }
  json::Object document;
  document.emplace_back("root", json::Value(root));
  document.emplace_back("total_ms", json::Value(total_ms));
  document.emplace_back("phases", json::Value(std::move(phase_array)));
  return json::Value(std::move(document));
}

std::string ProfileReport::to_string() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-14s %10.3f ms\n",
                root.empty() ? "(trace)" : root.c_str(), total_ms);
  out += line;
  for (const PhaseTime& phase : phases) {
    std::snprintf(line, sizeof(line), "  %-12s %10.3f ms  %6zu span%s\n",
                  phase.phase.c_str(), phase.total_ms, phase.spans,
                  phase.spans == 1 ? "" : "s");
    out += line;
  }
  return out;
}

ProfileReport profile_phases(const Tracer& tracer, SpanId root) {
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ProfileReport report;

  // Restrict to the root's descendants when a root is given. Parent links
  // form a forest, so one upward walk per span (with memoization via the
  // accepted set) decides membership.
  std::unordered_set<SpanId> included;
  if (root != kNoSpan) {
    std::unordered_map<SpanId, SpanId> parent_of;
    parent_of.reserve(spans.size());
    for (const SpanRecord& span : spans) parent_of.emplace(span.id, span.parent);
    included.insert(root);
    for (const SpanRecord& span : spans) {
      std::vector<SpanId> chain;
      SpanId cursor = span.id;
      bool under_root = false;
      while (cursor != kNoSpan) {
        if (included.count(cursor) != 0) {
          under_root = true;
          break;
        }
        chain.push_back(cursor);
        auto up = parent_of.find(cursor);
        cursor = up == parent_of.end() ? kNoSpan : up->second;
      }
      if (under_root) included.insert(chain.begin(), chain.end());
    }
  }

  std::map<std::string, PhaseTime> by_phase;
  for (const SpanRecord& span : spans) {
    if (root != kNoSpan) {
      if (span.id == root) {
        report.root = span.name;
        report.total_ms = span.dur_us / 1000.0;
        continue;  // the root's own category would double-count its children
      }
      if (included.count(span.id) == 0) continue;
    }
    const std::string phase = span.category.empty() ? "default" : span.category;
    PhaseTime& entry = by_phase[phase];
    entry.phase = phase;
    entry.total_ms += span.dur_us / 1000.0;
    ++entry.spans;
  }
  if (root == kNoSpan && !spans.empty()) {
    double begin = spans.front().start_us;
    double end = begin;
    for (const SpanRecord& span : spans) {
      end = std::max(end, span.start_us + span.dur_us);
    }
    report.total_ms = (end - begin) / 1000.0;
  }

  for (auto& [phase, entry] : by_phase) report.phases.push_back(std::move(entry));
  std::stable_sort(report.phases.begin(), report.phases.end(),
                   [](const PhaseTime& a, const PhaseTime& b) {
                     const std::size_t ra = phase_rank(a.phase);
                     const std::size_t rb = phase_rank(b.phase);
                     if (ra != rb) return ra < rb;
                     return a.phase < b.phase;
                   });
  return report;
}

}  // namespace comt::obs
