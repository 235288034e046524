// The parallel rebuild engine: thread pool, DAG scheduler,
// content-addressed compile cache, and the end-to-end guarantees the
// backend builds on them — bit-identical parallel rebuilds and full cache
// hits on unchanged inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/cache.hpp"
#include "obs/metrics.hpp"
#include "sched/compile_cache.hpp"
#include "sched/dag.hpp"
#include "sched/thread_pool.hpp"
#include "store/store.hpp"
#include "support/sha256.hpp"
#include "sysmodel/sysmodel.hpp"
#include "workloads/harness.hpp"

namespace comt {
namespace {

// ---- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  sched::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(ThreadPoolTest, WorkersShareOneQueueAndRunEachTaskOnce) {
  // Two workers share one queue: every task runs exactly once.
  sched::ThreadPool pool(2);
  std::mutex mutex;
  std::set<int> seen;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&mutex, &seen, i] {
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(i);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(seen.size(), 64u);
}

TEST(ThreadPoolTest, ShutdownUnderPendingWorkDoesNotHang) {
  sched::ThreadPool pool(1);
  std::mutex gate;
  gate.lock();  // the first task blocks until the main thread opens the gate
  pool.submit([&gate] {
    gate.lock();
    gate.unlock();
  });
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  gate.unlock();
  pool.shutdown();  // queued-but-unstarted work is discarded; must not hang
  EXPECT_LE(ran.load(), 50);
  // Submission after shutdown is a no-op.
  pool.submit([&ran] { ran.fetch_add(100); });
  pool.wait_idle();
  EXPECT_LE(ran.load(), 50);
}

// ---- DagScheduler -------------------------------------------------------------

TEST(DagTest, CycleIsAnErrorNotADeadlock) {
  sched::DagScheduler dag;
  ASSERT_TRUE(dag.add_job("a", {"c"}, [] { return Status::success(); }).ok());
  ASSERT_TRUE(dag.add_job("b", {"a"}, [] { return Status::success(); }).ok());
  ASSERT_TRUE(dag.add_job("c", {"b"}, [] { return Status::success(); }).ok());

  auto sequential = dag.run(nullptr);
  ASSERT_FALSE(sequential.ok());
  EXPECT_NE(sequential.error().message.find("cycle"), std::string::npos);

  sched::ThreadPool pool(2);
  auto pooled = dag.run(&pool);
  ASSERT_FALSE(pooled.ok());
  EXPECT_NE(pooled.error().message.find("cycle"), std::string::npos);
}

TEST(DagTest, UnknownDependencyIsAnError) {
  sched::DagScheduler dag;
  ASSERT_TRUE(dag.add_job("a", {"ghost"}, [] { return Status::success(); }).ok());
  auto report = dag.run(nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, Errc::not_found);
  EXPECT_NE(report.error().message.find("ghost"), std::string::npos);
}

TEST(DagTest, DuplicateJobIdRejected) {
  sched::DagScheduler dag;
  ASSERT_TRUE(dag.add_job("a", {}, [] { return Status::success(); }).ok());
  Status duplicate = dag.add_job("a", {}, [] { return Status::success(); });
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code, Errc::already_exists);
}

TEST(DagTest, FailureSkipsDependentsButIndependentJobsRun) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    sched::DagScheduler dag;
    std::atomic<bool> c_ran{false};
    ASSERT_TRUE(dag.add_job("a", {}, [] {
                     return Status(make_error(Errc::failed, "boom"));
                   }).ok());
    ASSERT_TRUE(dag.add_job("b", {"a"}, [] { return Status::success(); }).ok());
    ASSERT_TRUE(dag.add_job("c", {}, [&c_ran] {
                     c_ran.store(true);
                     return Status::success();
                   }).ok());
    ASSERT_TRUE(dag.add_job("d", {"b"}, [] { return Status::success(); }).ok());

    std::unique_ptr<sched::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<sched::ThreadPool>(threads);
    auto report = dag.run(pool.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(c_ran.load());
    EXPECT_EQ(report.value().executed, 2u);  // a (failed) and c
    EXPECT_EQ(report.value().failed, 1u);
    EXPECT_EQ(report.value().skipped, 2u);  // b, and d transitively
    EXPECT_TRUE(report.value().jobs[1].skipped);
    EXPECT_TRUE(report.value().jobs[3].skipped);
    // first_error surfaces the root cause, not the skip notice.
    Status first = report.value().first_error();
    ASSERT_FALSE(first.ok());
    EXPECT_NE(first.error().message.find("boom"), std::string::npos);
  }
}

TEST(DagTest, ResultsReportedInSubmissionOrder) {
  sched::DagScheduler dag;
  std::vector<std::string> ids;
  for (int i = 9; i >= 0; --i) {
    std::string id = "job" + std::to_string(i);
    std::vector<std::string> deps;
    if (i < 9) deps.push_back("job" + std::to_string(i + 1));  // forward ref ok
    ASSERT_TRUE(dag.add_job(id, deps, [] { return Status::success(); }).ok());
    ids.push_back(id);
  }
  sched::ThreadPool pool(4);
  auto report = dag.run(&pool);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().jobs.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(report.value().jobs[i].id, ids[i]);
    EXPECT_TRUE(report.value().jobs[i].status.ok());
  }
}

TEST(DagTest, DependenciesCompleteBeforeDependents) {
  // A fan-out/fan-in diamond lattice, executed on 4 threads; every job
  // records its global completion sequence and each edge must be ordered.
  sched::DagScheduler dag;
  std::mutex mutex;
  std::map<std::string, int> finish_order;
  int counter = 0;
  auto body = [&](const std::string& id) {
    return [&mutex, &finish_order, &counter, id]() -> Status {
      std::lock_guard<std::mutex> lock(mutex);
      finish_order[id] = counter++;
      return Status::success();
    };
  };
  std::vector<std::pair<std::string, std::string>> edges;
  ASSERT_TRUE(dag.add_job("root", {}, body("root")).ok());
  for (int layer = 0; layer < 3; ++layer) {
    for (int i = 0; i < 8; ++i) {
      std::string id = "n" + std::to_string(layer) + "_" + std::to_string(i);
      std::string dep =
          layer == 0 ? "root" : "n" + std::to_string(layer - 1) + "_" + std::to_string(i);
      ASSERT_TRUE(dag.add_job(id, {dep}, body(id)).ok());
      edges.emplace_back(dep, id);
    }
  }
  std::vector<std::string> last_layer;
  for (int i = 0; i < 8; ++i) last_layer.push_back("n2_" + std::to_string(i));
  ASSERT_TRUE(dag.add_job("sink", last_layer, body("sink")).ok());
  for (const std::string& dep : last_layer) edges.emplace_back(dep, "sink");

  sched::ThreadPool pool(4);
  auto report = dag.run(&pool);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().executed, dag.job_count());
  EXPECT_EQ(report.value().failed, 0u);
  for (const auto& [from, to] : edges) {
    EXPECT_LT(finish_order[from], finish_order[to]) << from << " -> " << to;
  }
}

TEST(DagTest, InlineAndPooledRunsReportTheSameWaves) {
  // Submission order is deliberately not topological. Waves: {a, b, c},
  // {d, e}, {g, f}, {h}; b fails, so e and g are skipped, and every wave
  // still has a body to run.
  struct Spec {
    const char* id;
    std::vector<std::string> deps;
    std::size_t wave;
  };
  const std::vector<Spec> specs = {
      {"h", {"f"}, 3},       // 0
      {"a", {}, 0},          // 1
      {"b", {}, 0},          // 2
      {"g", {"e"}, 2},       // 3
      {"c", {}, 0},          // 4
      {"d", {"a"}, 1},       // 5
      {"e", {"b"}, 1},       // 6
      {"f", {"c", "d"}, 2},  // 7
  };
  const std::vector<std::size_t> inline_order = {1, 2, 4, 5, 7, 0};
  const std::vector<std::vector<std::size_t>> want_begin = {{1, 2, 4}, {5}, {7}, {0}};
  const std::vector<std::vector<std::size_t>> want_commit = {{1, 4}, {5}, {7}, {0}};

  struct Outcome {
    bool ok;
    bool skipped;
  };
  std::vector<Outcome> reference;
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    for (bool with_hooks : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (with_hooks ? " with hooks" : " without hooks"));
      sched::DagScheduler dag;
      std::mutex mutex;
      std::vector<std::size_t> ran;  // body start order, guarded by mutex
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool fails = std::string(specs[i].id) == "b";
        ASSERT_TRUE(dag.add_job(specs[i].id, specs[i].deps, [&mutex, &ran, i, fails] {
                         {
                           std::lock_guard<std::mutex> lock(mutex);
                           ran.push_back(i);
                         }
                         return fails ? Status(make_error(Errc::failed, "boom"))
                                      : Status::success();
                       }).ok());
      }

      const std::thread::id caller = std::this_thread::get_id();
      std::vector<std::vector<std::size_t>> began;
      std::vector<std::vector<std::size_t>> committed;
      sched::EpochHooks hooks;
      hooks.begin = [&](std::size_t epoch, const std::vector<std::size_t>& jobs) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(epoch, began.size());
        began.push_back(jobs);
      };
      hooks.commit = [&](std::size_t epoch,
                         const std::vector<std::size_t>& succeeded) -> Status {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(epoch, committed.size());
        committed.push_back(succeeded);
        return Status::success();
      };

      obs::MetricsRegistry metrics;
      sched::ObsOptions obs_options;
      obs_options.metrics = &metrics;
      std::unique_ptr<sched::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<sched::ThreadPool>(threads);
      auto report = dag.run(pool.get(), obs_options, with_hooks ? &hooks : nullptr);
      ASSERT_TRUE(report.ok()) << report.error().to_string();

      EXPECT_EQ(report.value().executed, 6u);
      EXPECT_EQ(report.value().failed, 1u);
      EXPECT_EQ(report.value().skipped, 2u);
      EXPECT_EQ(report.value().epochs, want_begin.size());
      EXPECT_EQ(metrics.counter_value("sched.epochs"), want_begin.size());
      EXPECT_EQ(metrics.histogram("sched.epoch_jobs").count(), want_begin.size());

      std::vector<Outcome> outcomes;
      for (const sched::JobOutcome& job : report.value().jobs) {
        outcomes.push_back({job.status.ok(), job.skipped});
      }
      if (reference.empty()) {
        reference = outcomes;
      } else {
        ASSERT_EQ(outcomes.size(), reference.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          EXPECT_EQ(outcomes[i].ok, reference[i].ok) << specs[i].id;
          EXPECT_EQ(outcomes[i].skipped, reference[i].skipped) << specs[i].id;
        }
      }
      EXPECT_TRUE(report.value().jobs[6].skipped);  // e, behind the failed b
      EXPECT_TRUE(report.value().jobs[3].skipped);  // g, transitively

      if (threads == 0) {
        EXPECT_EQ(ran, inline_order);  // wave by wave, submission order within
      } else {
        ASSERT_EQ(ran.size(), inline_order.size());
        for (std::size_t i = 1; i < ran.size(); ++i) {
          EXPECT_LE(specs[ran[i - 1]].wave, specs[ran[i]].wave) << "wave barrier crossed";
        }
      }
      if (with_hooks) {
        EXPECT_EQ(began, want_begin);
        EXPECT_EQ(committed, want_commit);
      } else {
        EXPECT_TRUE(began.empty());
        EXPECT_TRUE(committed.empty());
      }
    }
  }
}

// ---- CompileCache -------------------------------------------------------------

TEST(CompileCacheTest, KeyDigestSeparatesFields) {
  sched::CacheKey a{"gcc12", "amd64", "/src", {"cc", "-c", "m.c"}};
  sched::CacheKey same = a;
  EXPECT_EQ(a.digest(), same.digest());
  sched::CacheKey other_arch = a;
  other_arch.target_arch = "arm64";
  EXPECT_NE(a.digest(), other_arch.digest());
  sched::CacheKey other_argv = a;
  other_argv.argv = {"cc", "-c", "-O2", "m.c"};
  EXPECT_NE(a.digest(), other_argv.digest());
  // Field boundaries are length-prefixed: shifting bytes between adjacent
  // fields must change the digest.
  sched::CacheKey shifted{"gcc12a", "md64", "/src", {"cc", "-c", "m.c"}};
  EXPECT_NE(a.digest(), shifted.digest());
}

TEST(CompileCacheTest, HitMissAndStoreAccounting) {
  sched::CompileCache cache;
  std::map<std::string, std::string> files = {{"/src/m.c", "int main(){}"}};
  auto digest_of = [&files](const std::string& path) -> std::string {
    auto found = files.find(path);
    return found == files.end() ? std::string() : Sha256::hex_digest(found->second);
  };

  sched::CacheKey key{"gcc12", "amd64", "/src", {"cc", "-c", "m.c", "-o", "m.o"}};
  const std::string digest = key.digest();

  EXPECT_EQ(cache.lookup(digest, digest_of), nullptr);  // cold: miss
  sched::CacheEntry entry;
  entry.input_digests["/src/m.c"] = Sha256::hex_digest(files["/src/m.c"]);
  entry.outputs.push_back({"/src/m.o", "OBJ", 0644});
  cache.store(digest, std::move(entry));
  EXPECT_EQ(cache.size(), 1u);

  auto hit = cache.lookup(digest, digest_of);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->outputs.size(), 1u);
  EXPECT_EQ(hit->outputs[0].content, "OBJ");

  // ccache direct mode: same key, changed input content -> miss.
  files["/src/m.c"] = "int main(){ return 1; }";
  EXPECT_EQ(cache.lookup(digest, digest_of), nullptr);
  // Missing input entirely -> miss too.
  files.erase("/src/m.c");
  EXPECT_EQ(cache.lookup(digest, digest_of), nullptr);

  sched::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(CompileCacheTest, MetricsCountHitsMissesAndInserts) {
  sched::CompileCache cache;
  obs::MetricsRegistry metrics;
  cache.set_metrics(&metrics);
  auto digest_of = [](const std::string&) { return std::string("d"); };

  EXPECT_EQ(cache.lookup("k", digest_of), nullptr);
  sched::CacheEntry entry;
  entry.outputs.push_back({"/o", "OBJ", 0644});
  cache.store("k", std::move(entry));
  EXPECT_NE(cache.lookup("k", digest_of), nullptr);

  EXPECT_EQ(metrics.counter_value("compile_cache.hits"), 1u);
  EXPECT_EQ(metrics.counter_value("compile_cache.misses"), 1u);
  EXPECT_EQ(metrics.counter_value("compile_cache.inserts"), 1u);
}

TEST(CompileCacheTest, AttachedCacheWarmStartsFromTheBackingStore) {
  auto backing = std::make_shared<store::MemStore>();
  sched::CacheEntry original;
  original.input_digests["/src/m.c"] = Sha256::hex_digest("int main(){}");
  original.outputs.push_back({"/src/m.o", "OBJ-bytes", 0644});
  original.outputs.push_back({"/src/app", "EXE-bytes", 0755});
  {
    sched::CompileCache cache;
    cache.attach(backing);
    cache.store("key1", original);
  }  // the cache object dies, like the process would

  sched::CompileCache warm;
  obs::MetricsRegistry metrics;
  warm.set_metrics(&metrics);
  EXPECT_EQ(warm.attach(backing), 1u);
  EXPECT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm.stats().hydrated, 1u);
  EXPECT_EQ(metrics.counter_value("compile_cache.hydrated"), 1u);

  auto digest_of = [](const std::string&) {
    return Sha256::hex_digest("int main(){}");
  };
  auto hit = warm.lookup("key1", digest_of);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->input_digests, original.input_digests);
  ASSERT_EQ(hit->outputs.size(), 2u);
  EXPECT_EQ(hit->outputs[0].content, "OBJ-bytes");
  EXPECT_EQ(hit->outputs[1].path, "/src/app");
  EXPECT_EQ(hit->outputs[1].mode, 0755u);
}

TEST(CompileCacheTest, StaleLocalEntryFallsBackToTheBackingStore) {
  // Two replicas share one backing store. B adopts A's v1 entry; after a
  // source change A stores v2, and B's stale local v1 must not hide it.
  auto backing = std::make_shared<store::MemStore>();
  sched::CompileCache a;
  sched::CompileCache b;
  a.attach(backing);
  b.attach(backing);

  std::string source = "int v = 1;";
  auto digest_of = [&source](const std::string&) { return Sha256::hex_digest(source); };
  auto entry_for = [](const std::string& text, const std::string& object) {
    sched::CacheEntry entry;
    entry.input_digests["/src/m.c"] = Sha256::hex_digest(text);
    entry.outputs.push_back({"/src/m.o", object, 0644});
    return entry;
  };

  a.store("key", entry_for(source, "OBJ-v1"));
  auto first = b.lookup("key", digest_of);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->outputs[0].content, "OBJ-v1");

  source = "int v = 2;";
  a.store("key", entry_for(source, "OBJ-v2"));
  auto second = b.lookup("key", digest_of);
  ASSERT_NE(second, nullptr) << "stale local entry hid the backing store's match";
  EXPECT_EQ(second->outputs[0].content, "OBJ-v2");
  EXPECT_EQ(b.stats().hits, 2u);
  EXPECT_EQ(b.stats().remote_hits, 2u);
  EXPECT_EQ(b.stats().misses, 0u);

  // v2 was adopted: the next lookup hits locally, without the backing.
  ASSERT_TRUE(backing->erase(std::string(sched::kCacheKeyPrefix) + "key").ok());
  auto third = b.lookup("key", digest_of);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->outputs[0].content, "OBJ-v2");
  EXPECT_EQ(b.stats().remote_hits, 2u);

  // Stale locally and absent from the backing: a plain miss.
  source = "int v = 3;";
  EXPECT_EQ(b.lookup("key", digest_of), nullptr);
  EXPECT_EQ(b.stats().misses, 1u);
}

TEST(CompileCacheTest, CorruptPersistedEntryDegradesToMissNeverAWrongHit) {
  auto backing = std::make_shared<store::MemStore>();
  {
    sched::CompileCache cache;
    cache.attach(backing);
    sched::CacheEntry entry;
    entry.outputs.push_back({"/src/m.o", "the right bytes", 0644});
    cache.store("key1", std::move(entry));
  }
  // Flip one bit in the persisted value — a wrong hit would replay wrong
  // outputs into an image, silently.
  const std::string persisted_key = std::string(sched::kCacheKeyPrefix) + "key1";
  std::string raw = backing->get(persisted_key).value();
  raw[raw.size() / 2] ^= 0x04;
  ASSERT_TRUE(backing->put(persisted_key, raw).ok());

  sched::CompileCache warm;
  EXPECT_EQ(warm.attach(backing), 0u);
  EXPECT_EQ(warm.size(), 0u);
  EXPECT_EQ(warm.stats().hydrated, 0u);
  EXPECT_EQ(warm.stats().corrupt_dropped, 1u);
  auto digest_of = [](const std::string&) { return std::string("d"); };
  EXPECT_EQ(warm.lookup("key1", digest_of), nullptr);  // a miss, not a hit
  // The damaged entry was erased from the backing, so the next attach is
  // clean instead of re-tripping.
  EXPECT_FALSE(backing->contains(persisted_key));
}

// ---- end-to-end: parallel rebuild ---------------------------------------------

// Builds the comd application through the hijacking builder and extends it,
// returning the layout with "comd.dist+coM" installed.
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

core::RebuildOptions rebuild_options(const sysmodel::SystemProfile& system) {
  core::RebuildOptions options;
  options.system = &system;
  options.system_repo = &workloads::system_repo(system);
  options.sysenv_tag = workloads::sysenv_tag(system);
  return options;
}

TEST(ParallelRebuildTest, ParallelImageIsBitIdenticalToSequential) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  oci::Layout layout = build_extended_world(system);

  core::RebuildOptions sequential = rebuild_options(system);
  sequential.threads = 1;
  auto first = core::comtainer_rebuild(layout, "comd.dist+coM", sequential);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_GT(first.value().jobs, 0u);
  ASSERT_GT(first.value().nodes_executed, 0u);

  // Every concurrent width takes the epoch-snapshot path; all of them must
  // reproduce the sequential image bit for bit: equal manifest digests mean
  // equal config, layers, everything.
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    core::RebuildOptions parallel = rebuild_options(system);
    parallel.threads = threads;
    auto second = core::comtainer_rebuild(layout, "comd.dist+coM", parallel);
    ASSERT_TRUE(second.ok()) << "threads=" << threads << ": "
                             << second.error().to_string();
    EXPECT_EQ(first.value().jobs, second.value().jobs) << "threads=" << threads;
    EXPECT_EQ(first.value().image.manifest_digest.value,
              second.value().image.manifest_digest.value)
        << "threads=" << threads;
    EXPECT_EQ(first.value().files_rebuilt, second.value().files_rebuilt)
        << "threads=" << threads;
  }
}

TEST(ParallelRebuildTest, SecondRebuildIsAllCacheHits) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  oci::Layout layout = build_extended_world(system);

  sched::CompileCache cache;
  core::RebuildOptions options = rebuild_options(system);
  options.threads = 2;
  options.compile_cache = &cache;

  auto first = core::comtainer_rebuild(layout, "comd.dist+coM", options);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().cache_hits, 0u);
  EXPECT_GT(first.value().cache_misses, 0u);
  EXPECT_EQ(cache.stats().stores, first.value().cache_misses);

  // Nothing changed: the second rebuild replays every job from the cache and
  // still produces the identical image.
  auto second = core::comtainer_rebuild(layout, "comd.dist+coM", options);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().cache_misses, 0u);
  EXPECT_EQ(second.value().cache_hits, second.value().jobs);
  EXPECT_EQ(second.value().cache_hits, first.value().cache_misses);
  EXPECT_EQ(first.value().image.manifest_digest.value,
            second.value().image.manifest_digest.value);
}

TEST(ParallelRedirectTest, ThreadedRedirectMatchesSequential) {
  const sysmodel::SystemProfile& system = sysmodel::SystemProfile::x86_cluster();
  oci::Layout layout = build_extended_world(system);
  auto rebuilt = core::comtainer_rebuild(layout, "comd.dist+coM", rebuild_options(system));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().to_string();

  core::RedirectOptions redirect;
  redirect.system = &system;
  redirect.system_repo = &workloads::system_repo(system);
  redirect.rebase_tag = workloads::rebase_tag(system);
  redirect.threads = 1;
  auto sequential = core::comtainer_redirect(layout, "comd.dist+coMre", redirect);
  ASSERT_TRUE(sequential.ok()) << sequential.error().to_string();

  redirect.threads = 4;
  auto parallel = core::comtainer_redirect(layout, "comd.dist+coMre", redirect);
  ASSERT_TRUE(parallel.ok()) << parallel.error().to_string();

  EXPECT_EQ(sequential.value().image.manifest_digest.value,
            parallel.value().image.manifest_digest.value);
  EXPECT_EQ(sequential.value().files_from_rebuild, parallel.value().files_from_rebuild);
}

}  // namespace
}  // namespace comt
