// Concurrency stress tests for the scheduler hot path. These are the tests
// the TSAN stage of scripts/check.sh leans on: compile-cache hits racing
// inserts, a pool flooded from inside and from outside at once, and the
// epoch/wave protocol's barrier discipline. Each test is deterministic
// in its assertions (exactly-once execution, exact counts) while leaving the
// interleavings to the scheduler, which is what gives the sanitizer
// something to chew on.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/compile_cache.hpp"
#include "sched/dag.hpp"
#include "sched/thread_pool.hpp"

namespace comt {
namespace {

// ---- CompileCache: hits racing inserts ----------------------------------------

TEST(SchedStressTest, CacheHitsStayCorrectUnderConcurrentInsert) {
  constexpr int kSeeded = 16;
  constexpr int kReaders = 4;
  constexpr int kIterations = 400;

  sched::CompileCache cache;
  for (int i = 0; i < kSeeded; ++i) {
    sched::CacheEntry entry;
    entry.input_digests["/in/" + std::to_string(i)] = "digest-" + std::to_string(i);
    entry.outputs.push_back({"/out/" + std::to_string(i), "content-" + std::to_string(i),
                             0644});
    cache.store("key-" + std::to_string(i), std::move(entry));
  }
  auto digest_of = [](const std::string& path) -> std::string {
    // "/in/N" always digests to "digest-N": every seeded manifest verifies.
    return "digest-" + path.substr(4);
  };

  std::atomic<bool> writing{true};
  std::thread writer([&] {
    // Replace seeded entries with identical content and add fresh ones —
    // every store races the readers' lookups.
    for (int round = 0; round < 200; ++round) {
      const int i = round % kSeeded;
      sched::CacheEntry entry;
      entry.input_digests["/in/" + std::to_string(i)] = "digest-" + std::to_string(i);
      entry.outputs.push_back(
          {"/out/" + std::to_string(i), "content-" + std::to_string(i), 0644});
      cache.store("key-" + std::to_string(i), std::move(entry));
      sched::CacheEntry fresh;
      fresh.input_digests["/in/" + std::to_string(kSeeded + round)] =
          "digest-" + std::to_string(kSeeded + round);
      cache.store("fresh-" + std::to_string(round), std::move(fresh));
    }
    writing.store(false);
  });

  std::vector<std::thread> readers;
  std::atomic<int> wrong{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < kIterations; ++iter) {
        const int i = iter % kSeeded;
        auto hit = cache.lookup("key-" + std::to_string(i), digest_of);
        // Old or new entry, it must be present and byte-identical.
        if (hit == nullptr || hit->outputs.size() != 1 ||
            hit->outputs[0].content != "content-" + std::to_string(i)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();

  EXPECT_EQ(wrong.load(), 0);
  const sched::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kReaders * kIterations));
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, static_cast<std::uint64_t>(kSeeded + 2 * 200));
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kSeeded + 200));
}

// ---- ThreadPool: a flood submitted from inside the pool -----------------------

TEST(SchedStressTest, FloodedWorkerIsDrainedBySiblings) {
  constexpr int kFlood = 256;
  obs::MetricsRegistry metrics;
  sched::ThreadPool pool(4);
  pool.set_metrics(&metrics, "stress.pool");

  // One task fans out the whole load from inside the pool while the other
  // three workers drain the shared queue behind it.
  std::atomic<int> count{0};
  pool.submit([&pool, &count] {
    for (int i = 0; i < kFlood; ++i) {
      pool.submit([&count] {
        count.fetch_add(1);
        std::this_thread::yield();
      });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), kFlood);
  EXPECT_EQ(pool.executed(), static_cast<std::uint64_t>(kFlood + 1));
  EXPECT_EQ(metrics.counter_value("stress.pool.tasks"),
            static_cast<std::uint64_t>(kFlood + 1));
}

// ---- ThreadPool: outside submitters racing inside fan-out ---------------------

TEST(SchedStressTest, SubmitStormNeverLosesATask) {
  // Two submitter threads flood the pool while tasks submit children from
  // inside it. Every submitted task must run exactly once.
  constexpr int kPerSubmitter = 400;
  sched::ThreadPool pool(4);
  std::atomic<int> count{0};

  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&pool, &count] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        // Half the load fans out from inside the pool, so workers enqueue
        // while the outside submitters do.
        if (i % 2 == 0) {
          pool.submit([&pool, &count] {
            count.fetch_add(1);
            pool.submit([&count] { count.fetch_add(1); });
          });
        } else {
          pool.submit([&count] {
            count.fetch_add(1);
            std::this_thread::yield();
          });
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  pool.wait_idle();
  // 2 submitters x 400 tasks, plus one spawned child per even task (200 each).
  EXPECT_EQ(count.load(), 2 * kPerSubmitter + kPerSubmitter);
  EXPECT_EQ(pool.executed(), static_cast<std::uint64_t>(3 * kPerSubmitter));
}

// ---- DagScheduler: epoch/wave protocol ----------------------------------------

TEST(SchedStressTest, EpochModeRunsWavesWithBarrierDiscipline) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    sched::DagScheduler dag;
    std::atomic<int> a_done{0};
    std::atomic<int> b_done{0};
    std::atomic<bool> deps_seen_by_c{false};
    ASSERT_TRUE(dag.add_job("a", {}, [&] {
                     a_done.store(1);
                     return Status::success();
                   }).ok());
    ASSERT_TRUE(dag.add_job("b", {}, [&] {
                     b_done.store(1);
                     return Status::success();
                   }).ok());
    ASSERT_TRUE(dag.add_job("c", {"a", "b"}, [&] {
                     deps_seen_by_c.store(a_done.load() == 1 && b_done.load() == 1);
                     return Status::success();
                   }).ok());
    ASSERT_TRUE(dag.add_job("d", {"c"}, [] { return Status::success(); }).ok());
    ASSERT_TRUE(dag.add_job("e", {"c"}, [] { return Status::success(); }).ok());

    // begin/commit run on this thread, between waves: plain vectors are fine.
    std::vector<std::vector<std::size_t>> began;
    std::vector<std::vector<std::size_t>> committed;
    sched::EpochHooks hooks;
    hooks.begin = [&](std::size_t epoch, const std::vector<std::size_t>& jobs) {
      EXPECT_EQ(epoch, began.size());
      began.push_back(jobs);
    };
    hooks.commit = [&](std::size_t epoch,
                       const std::vector<std::size_t>& succeeded) -> Status {
      EXPECT_EQ(epoch, committed.size());
      committed.push_back(succeeded);
      return Status::success();
    };

    std::unique_ptr<sched::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<sched::ThreadPool>(threads);
    auto report = dag.run(pool.get(), {}, &hooks);
    ASSERT_TRUE(report.ok()) << report.error().to_string();

    EXPECT_TRUE(deps_seen_by_c.load());
    EXPECT_EQ(report.value().epochs, 3u);
    EXPECT_EQ(report.value().executed, 5u);
    EXPECT_EQ(report.value().failed, 0u);
    ASSERT_EQ(began.size(), 3u);
    EXPECT_EQ(began[0], (std::vector<std::size_t>{0, 1}));  // a, b
    EXPECT_EQ(began[1], (std::vector<std::size_t>{2}));     // c
    EXPECT_EQ(began[2], (std::vector<std::size_t>{3, 4}));  // d, e
    EXPECT_EQ(committed, began);  // everything succeeded
  }
}

TEST(SchedStressTest, EpochCommitFailureFailsTheWaveAndSkipsDependents) {
  sched::DagScheduler dag;
  std::atomic<bool> b_ran{false};
  std::atomic<bool> c_ran{false};
  ASSERT_TRUE(dag.add_job("a", {}, [] { return Status::success(); }).ok());
  ASSERT_TRUE(dag.add_job("b", {"a"}, [&] {
                   b_ran.store(true);
                   return Status::success();
                 }).ok());
  // Independent of the failing wave: must still run (make -k).
  ASSERT_TRUE(dag.add_job("c", {}, [&] {
                   c_ran.store(true);
                   return Status::success();
                 }).ok());

  sched::EpochHooks hooks;
  hooks.commit = [](std::size_t epoch, const std::vector<std::size_t>&) -> Status {
    if (epoch == 0) {
      return make_error(Errc::failed, "commit refused");
    }
    return Status::success();
  };

  sched::ThreadPool pool(2);
  auto report = dag.run(&pool, {}, &hooks);
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  // Wave 0 (a, c) committed with an error: both bodies ran but count as
  // failed, and a's dependent b is skipped without running.
  EXPECT_TRUE(c_ran.load());
  EXPECT_FALSE(b_ran.load());
  EXPECT_EQ(report.value().executed, 2u);
  EXPECT_EQ(report.value().failed, 2u);
  EXPECT_EQ(report.value().skipped, 1u);
  EXPECT_FALSE(report.value().jobs[0].status.ok());
  EXPECT_TRUE(report.value().jobs[1].skipped);
  Status first = report.value().first_error();
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.error().message.find("commit refused"), std::string::npos);
}

TEST(SchedStressTest, EpochModeUnderRepeatedConcurrentRuns) {
  // A wider randomized-shape hammer for TSAN: layered DAGs dispatched through
  // a shared pool, all counters checked exactly.
  sched::ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    sched::DagScheduler dag;
    const int width = 4 + round % 3;
    const int depth = 3;
    std::atomic<int> bodies{0};
    for (int level = 0; level < depth; ++level) {
      for (int lane = 0; lane < width; ++lane) {
        std::vector<std::string> deps;
        if (level > 0) {
          deps.push_back(std::to_string(level - 1) + ":" + std::to_string(lane));
          deps.push_back(std::to_string(level - 1) + ":" +
                         std::to_string((lane + 1) % width));
        }
        ASSERT_TRUE(dag.add_job(std::to_string(level) + ":" + std::to_string(lane),
                                std::move(deps),
                                [&bodies] {
                                  bodies.fetch_add(1);
                                  return Status::success();
                                })
                        .ok());
      }
    }
    sched::EpochHooks hooks;  // empty hooks still select wave mode
    auto report = dag.run(&pool, {}, &hooks);
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_EQ(bodies.load(), width * depth);
    EXPECT_EQ(report.value().executed, static_cast<std::size_t>(width * depth));
    EXPECT_EQ(report.value().epochs, static_cast<std::size_t>(depth));
  }
}

}  // namespace
}  // namespace comt
