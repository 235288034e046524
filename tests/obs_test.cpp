// The observability subsystem: metrics registry accuracy (histogram buckets
// and percentile interpolation), concurrent counter/gauge/span emission
// (exercised under -DCOMT_SANITIZE=thread in CI), Chrome trace export
// round-tripping through src/json, per-phase profile aggregation, and the
// end-to-end guarantee a traced rebuild emits one span per compile job
// nested under the rebuild root span.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

namespace comt {
namespace {

// ---- Stopwatch ----------------------------------------------------------------

TEST(ObsStopwatchTest, ElapsedGrowsAndRestartResets) {
  obs::Stopwatch clock;
  const double first = clock.elapsed_us();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(clock.elapsed_us(), first);
  clock.restart();
  EXPECT_GE(clock.elapsed_ms(), 0.0);
}

// ---- Metrics ------------------------------------------------------------------

TEST(ObsMetricsTest, CounterAndGaugeBasics) {
  obs::Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  obs::Gauge gauge;
  gauge.set(2.5);
  gauge.add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
}

TEST(ObsMetricsTest, HistogramBucketsAreUpperBoundInclusive) {
  obs::Histogram histogram({10.0, 20.0, 40.0});
  histogram.observe(5.0);    // bucket 0 (<= 10)
  histogram.observe(10.0);   // bucket 0 (bound is inclusive)
  histogram.observe(15.0);   // bucket 1
  histogram.observe(100.0);  // overflow
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 130.0);
  EXPECT_EQ(histogram.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 0, 1}));
  EXPECT_EQ(histogram.bounds(), (std::vector<double>{10.0, 20.0, 40.0}));
}

TEST(ObsMetricsTest, PercentileInterpolatesInsideBuckets) {
  // Ten equal-width buckets, one observation per millisecond 1..1000: the
  // interpolated percentiles are exact.
  std::vector<double> bounds;
  for (double bound = 100.0; bound <= 1000.0; bound += 100.0) bounds.push_back(bound);
  obs::Histogram histogram(bounds);
  EXPECT_DOUBLE_EQ(histogram.percentile(50), 0.0);  // empty
  for (int value = 1; value <= 1000; ++value) histogram.observe(value);
  EXPECT_DOUBLE_EQ(histogram.percentile(50), 500.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(95), 950.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(99), 990.0);
  // The overflow bucket clamps to the last bound.
  obs::Histogram clamped({10.0});
  clamped.observe(5000.0);
  EXPECT_DOUBLE_EQ(clamped.percentile(99), 10.0);
}

TEST(ObsMetricsTest, DefaultLatencyBucketsAreAscending) {
  const std::vector<double> bounds = obs::default_latency_buckets_ms();
  ASSERT_GT(bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.01);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
}

TEST(ObsMetricsTest, RegistryCreatesOnFirstUseWithStableReferences) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("never.created"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("never.created.gauge"), 0.0);

  obs::Counter& counter = registry.counter("rebuild.cache.hits");
  counter.add(3);
  EXPECT_EQ(&registry.counter("rebuild.cache.hits"), &counter);
  EXPECT_EQ(registry.counter_value("rebuild.cache.hits"), 3u);
  registry.gauge("service.queue_ms").set(1.5);
  registry.histogram("sched.pool.queue_wait_ms").observe(0.2);

  json::Value snapshot = registry.to_json();
  const json::Value* counters = snapshot.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_int("rebuild.cache.hits"), 3);
  const json::Value* histograms = snapshot.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* queue_wait = histograms->find("sched.pool.queue_wait_ms");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->get_int("count"), 1);
  // The snapshot itself is valid JSON.
  auto reparsed = json::parse(json::serialize(snapshot));
  ASSERT_TRUE(reparsed.ok());
}

TEST(ObsMetricsTest, ConcurrentUpdatesNeverLoseIncrements) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.ops");
  obs::Gauge& gauge = registry.gauge("test.level");
  obs::Histogram& histogram = registry.histogram("test.latency_ms", {1.0, 2.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        gauge.add(1.0);
        histogram.observe(static_cast<double>(i % 5));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---- Tracing ------------------------------------------------------------------

TEST(ObsTraceTest, SpansRecordHierarchyAndAnnotations) {
  obs::Tracer tracer;
  obs::Span root = tracer.span("rebuild", obs::kNoSpan, "rebuild");
  ASSERT_TRUE(root.active());
  ASSERT_NE(root.id(), obs::kNoSpan);
  obs::Span child = tracer.span("job:alpha", root.id(), "compile");
  child.annotate("object", "main.o");
  child.annotate("inputs", std::uint64_t{3});
  child.end();
  child.end();  // idempotent
  root.end();

  std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "rebuild");  // sorted by start time
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(spans[1].name, "job:alpha");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);  // parent covers the child
  ASSERT_EQ(spans[1].args.size(), 2u);
  EXPECT_EQ(spans[1].args[0].first, "object");
  EXPECT_EQ(spans[1].args[0].second, "main.o");
  EXPECT_EQ(spans[1].args[1].second, "3");
}

TEST(ObsTraceTest, InertSpansAreNoOps) {
  obs::Span inert;
  EXPECT_FALSE(inert.active());
  EXPECT_EQ(inert.id(), obs::kNoSpan);
  inert.annotate("ignored", "value");
  inert.end();  // must not crash
  obs::Span from_null = obs::maybe_span(nullptr, "anything");
  EXPECT_FALSE(from_null.active());
}

TEST(ObsTraceTest, MovedFromSpanDoesNotDoubleRecord) {
  obs::Tracer tracer;
  {
    obs::Span a = tracer.span("moved");
    obs::Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): moved-from is inert
    EXPECT_TRUE(b.active());
  }  // both destruct; only one record lands
  EXPECT_EQ(tracer.span_count(), 1u);
}

TEST(ObsTraceTest, ConcurrentEmissionKeepsEverySpanWithUniqueIds) {
  obs::Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Span span = tracer.span("worker:" + std::to_string(t));
        span.annotate("i", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(tracer.span_count(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<obs::SpanId> ids;
  for (const obs::SpanRecord& span : tracer.snapshot()) ids.insert(span.id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(ObsTraceTest, ChromeTraceJsonRoundTripsThroughParser) {
  obs::Tracer tracer;
  {
    obs::Span root = tracer.span("rebuild", obs::kNoSpan, "rebuild");
    obs::Span job = tracer.span("job:alpha", root.id(), "compile");
    job.annotate("object", "main.o");
  }
  const std::string exported = tracer.chrome_trace_json();
  auto parsed = json::parse(exported);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  // Serialization is deterministic: parse -> serialize reproduces the
  // exported document byte for byte (the golden round-trip).
  EXPECT_EQ(json::serialize(parsed.value()), exported);

  EXPECT_EQ(parsed.value().get_string("displayTimeUnit"), "ms");
  const json::Value* events = parsed.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  const json::Value& root_event = events->as_array()[0];
  EXPECT_EQ(root_event.get_string("name"), "rebuild");
  EXPECT_EQ(root_event.get_string("cat"), "rebuild");
  EXPECT_EQ(root_event.get_string("ph"), "X");
  EXPECT_EQ(root_event.get_int("pid"), 1);
  const json::Value& job_event = events->as_array()[1];
  const json::Value* args = job_event.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->get_string("parent"), root_event.find("args")->get_string("id"));
  EXPECT_EQ(args->get_string("object"), "main.o");
  // Durations are microseconds; the root covers the nested job.
  EXPECT_GE(root_event.find("dur")->as_number(), job_event.find("dur")->as_number());
}

// ---- Profile ------------------------------------------------------------------

TEST(ObsProfileTest, PhasesAggregateOnlyUnderTheRoot) {
  obs::Tracer tracer;
  obs::SpanId root_id = obs::kNoSpan;
  {
    obs::Span root = tracer.span("rebuild", obs::kNoSpan, "rebuild");
    root_id = root.id();
    { obs::Span span = tracer.span("resolve", root_id, "resolve"); }
    obs::Span pass = tracer.span("pass:p0", root_id, "sched");
    { obs::Span span = tracer.span("job:a", pass.id(), "compile"); }
    { obs::Span span = tracer.span("job:b", pass.id(), "compile"); }
    { obs::Span span = tracer.span("job:link", pass.id(), "link"); }
    pass.end();
    { obs::Span span = tracer.span("layer-commit", root_id, "layer-commit"); }
  }
  // A sibling outside the root must not pollute the report.
  { obs::Span span = tracer.span("unrelated", obs::kNoSpan, "compile"); }

  obs::ProfileReport report = obs::profile_phases(tracer, root_id);
  EXPECT_EQ(report.root, "rebuild");
  EXPECT_GE(report.total_ms, 0.0);
  auto spans_in = [&report](const std::string& phase) -> std::size_t {
    for (const obs::PhaseTime& entry : report.phases) {
      if (entry.phase == phase) return entry.spans;
    }
    return 0;
  };
  EXPECT_EQ(spans_in("resolve"), 1u);
  EXPECT_EQ(spans_in("compile"), 2u);  // "unrelated" is outside the root
  EXPECT_EQ(spans_in("link"), 1u);
  EXPECT_EQ(spans_in("layer-commit"), 1u);
  EXPECT_EQ(spans_in("sched"), 1u);
  // Known pipeline phases come first, in pipeline order.
  ASSERT_GE(report.phases.size(), 4u);
  EXPECT_EQ(report.phases[0].phase, "resolve");
  EXPECT_EQ(report.phases[1].phase, "compile");
  EXPECT_EQ(report.phases[2].phase, "link");
  EXPECT_EQ(report.phases[3].phase, "layer-commit");

  // Without a root every span counts, including the unrelated one.
  obs::ProfileReport all = obs::profile_phases(tracer);
  auto all_compile = [&all]() -> std::size_t {
    for (const obs::PhaseTime& entry : all.phases) {
      if (entry.phase == "compile") return entry.spans;
    }
    return 0;
  }();
  EXPECT_EQ(all_compile, 3u);

  // The report serializes and prints.
  auto reparsed = json::parse(json::serialize(report.to_json()));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_NE(report.to_string().find("compile"), std::string::npos);
}

// One small rebuild-shaped tree: direct children of the root, one of them
// ended on another thread. Returns the root's id; the root has ended.
obs::SpanId emit_rebuild_tree(obs::Tracer& tracer) {
  obs::Span root = tracer.span("rebuild", obs::kNoSpan, "rebuild");
  const obs::SpanId root_id = root.id();
  { obs::Span span = tracer.span("resolve", root_id, "resolve"); }
  std::thread worker([&tracer, root_id] {
    obs::Span span = tracer.span("job:a", root_id, "compile");
  });
  worker.join();
  { obs::Span span = tracer.span("job:link", root_id, "link"); }
  { obs::Span span = tracer.span("layer-commit", root_id, "layer-commit"); }
  return root_id;
}

TEST(ObsProfileTest, EarlierSpansOnOtherThreadsDoNotChangeTheProfile) {
  obs::Tracer quiet;
  const obs::ProfileReport alone =
      obs::profile_phases(quiet, emit_rebuild_tree(quiet));

  // 10 000 unrelated spans in the root's own phase names, on two other
  // threads, all ended before the root starts.
  obs::Tracer busy;
  std::vector<std::thread> emitters;
  for (int t = 0; t < 2; ++t) {
    emitters.emplace_back([&busy] {
      for (int i = 0; i < 5000; ++i) {
        obs::Span span = busy.span("earlier", obs::kNoSpan, i % 2 == 0 ? "compile" : "link");
      }
    });
  }
  for (std::thread& emitter : emitters) emitter.join();
  const obs::SpanId root_id = emit_rebuild_tree(busy);
  const obs::ProfileReport crowded = obs::profile_phases(busy, root_id);

  EXPECT_EQ(crowded.root, alone.root);
  ASSERT_EQ(crowded.phases.size(), alone.phases.size());
  for (std::size_t i = 0; i < alone.phases.size(); ++i) {
    EXPECT_EQ(crowded.phases[i].phase, alone.phases[i].phase);
    EXPECT_EQ(crowded.phases[i].spans, alone.phases[i].spans);
  }
  // Durations are this tree's own, read off the full trace.
  std::map<std::string, double> expected_ms;
  double root_ms = 0;
  for (const obs::SpanRecord& span : busy.snapshot()) {
    if (span.id == root_id) root_ms = span.dur_us / 1000.0;
    if (span.parent == root_id) expected_ms[span.category] += span.dur_us / 1000.0;
  }
  EXPECT_DOUBLE_EQ(crowded.total_ms, root_ms);
  ASSERT_EQ(crowded.phases.size(), expected_ms.size());
  for (const obs::PhaseTime& phase : crowded.phases) {
    EXPECT_DOUBLE_EQ(phase.total_ms, expected_ms[phase.phase]) << phase.phase;
  }
}

// ---- End-to-end: a traced rebuild -------------------------------------------

oci::Layout build_extended_world(const sysmodel::SystemProfile& system) {
  oci::Layout layout;
  EXPECT_TRUE(workloads::install_user_images(layout, system.arch).ok());
  EXPECT_TRUE(workloads::install_system_images(layout, system).ok());
  const workloads::AppSpec* app = workloads::find_app("comd");
  EXPECT_NE(app, nullptr);
  auto file = dockerfile::parse(workloads::dockerfile_text(*app, system.arch, true));
  EXPECT_TRUE(file.ok());
  buildexec::ImageBuilder builder(layout);
  builder.set_apt_source(&workloads::ubuntu_repo(system.arch));
  buildexec::BuildRecord record;
  EXPECT_TRUE(builder
                  .build(file.value(), workloads::build_context(*app), "comd.dist", "",
                         &record)
                  .ok());
  auto stage = layout.find_image("comd.dist.stage0");
  EXPECT_TRUE(stage.ok());
  auto build_rootfs = layout.flatten(stage.value());
  EXPECT_TRUE(build_rootfs.ok());
  EXPECT_TRUE(core::comtainer_build(layout, "comd.dist", workloads::base_tag(system.arch),
                                    record, build_rootfs.value())
                  .ok());
  return layout;
}

TEST(ObsRebuildTest, TracedRebuildEmitsOneSpanPerCompileJob) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  oci::Layout layout = build_extended_world(system);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  core::RebuildOptions options;
  options.system = &system;
  options.system_repo = &workloads::system_repo(system);
  options.sysenv_tag = workloads::sysenv_tag(system);
  options.threads = 2;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto report = core::comtainer_rebuild(layout, "comd.dist+coM", options);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  ASSERT_GT(report.value().jobs, 0u);
  ASSERT_NE(report.value().root_span, obs::kNoSpan);

  // Exactly one job span per scheduled compile job, every one reachable from
  // the rebuild root via parent links.
  std::vector<obs::SpanRecord> spans = tracer.snapshot();
  std::map<obs::SpanId, obs::SpanId> parent_of;
  std::size_t job_spans = 0;
  std::size_t rebuild_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    parent_of[span.id] = span.parent;
    if (span.name.rfind("job:", 0) == 0) ++job_spans;
    if (span.name == "rebuild") ++rebuild_spans;
  }
  EXPECT_EQ(job_spans, report.value().jobs);
  EXPECT_EQ(rebuild_spans, 1u);
  for (const obs::SpanRecord& span : spans) {
    obs::SpanId cursor = span.id;
    std::size_t hops = 0;
    while (cursor != report.value().root_span && cursor != obs::kNoSpan &&
           hops++ < spans.size()) {
      cursor = parent_of.count(cursor) != 0 ? parent_of[cursor] : obs::kNoSpan;
    }
    EXPECT_EQ(cursor, report.value().root_span) << "span " << span.name
                                                << " is not under the rebuild root";
  }

  // The per-phase profile covers the whole pipeline.
  const obs::ProfileReport profile = obs::profile_phases(tracer, report.value().root_span);
  EXPECT_EQ(profile.root, "rebuild");
  std::size_t compile_and_link = 0;
  for (const obs::PhaseTime& phase : profile.phases) {
    if (phase.phase == "compile" || phase.phase == "link") compile_and_link += phase.spans;
  }
  EXPECT_EQ(compile_and_link, report.value().jobs);

  // Metrics landed in the caller's registry: scheduler job accounting matches
  // the report, and the pool observed queue waits for the submitted tasks.
  EXPECT_EQ(metrics.counter_value("sched.jobs.executed"), report.value().jobs);
  EXPECT_EQ(metrics.counter_value("rebuild.cache.misses"), report.value().cache_misses);
  EXPECT_GT(metrics.histogram("sched.pool.queue_wait_ms").count(), 0u);

  // And the export is a valid Chrome trace document.
  auto parsed = json::parse(tracer.chrome_trace_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().find("traceEvents")->as_array().size(), spans.size());
}

}  // namespace
}  // namespace comt
