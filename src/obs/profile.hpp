// Profile reports: a rebuild's spans folded into per-phase time breakdowns.
//
// The rebuild pipeline tags every span with a phase category (resolve →
// compile → link → layer-commit → blob-push); profile_phases() sums span
// durations per category under one root span, which is exactly the "where
// did this rebuild spend its time" question an operator asks before anything
// else. The known pipeline phases are reported first, in pipeline order, then
// any other categories alphabetically.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "obs/trace.hpp"

namespace comt::obs {

/// Pipeline phases in execution order. Categories outside this list still
/// aggregate; they sort after these.
inline constexpr std::string_view kPipelinePhases[] = {
    "resolve", "compile", "link", "layer-commit", "blob-push"};

struct PhaseTime {
  std::string phase;    ///< span category
  double total_ms = 0;  ///< summed span durations in this phase
  std::size_t spans = 0;
};

struct ProfileReport {
  std::string root;     ///< root span name ("" when no root was found)
  double total_ms = 0;  ///< root span duration (0 without a root)
  std::vector<PhaseTime> phases;

  /// {"root", "total_ms", "phases": [{"phase", "total_ms", "spans"}, …]}.
  json::Value to_json() const;
  /// Aligned human-readable table, one line per phase.
  std::string to_string() const;
};

/// Aggregates the tracer's spans by category. With `root != kNoSpan` only the
/// root span's descendants (by parent links) are counted and total_ms is the
/// root's duration; with kNoSpan every span counts and total_ms spans the
/// whole trace. The root span's own category is excluded from the phase sums
/// (it would double-count all of its children). Reads a snapshot() of the
/// whole trace, so a caller profiles once, after the work it traced.
ProfileReport profile_phases(const Tracer& tracer, SpanId root = kNoSpan);

}  // namespace comt::obs
