#include "sched/thread_pool.hpp"

#include <string>

namespace comt::sched {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::set_metrics(obs::MetricsRegistry* metrics, std::string_view prefix) {
  if (metrics == nullptr) {
    queue_wait_ms_.store(nullptr, std::memory_order_release);
    task_counter_.store(nullptr, std::memory_order_release);
    park_counter_.store(nullptr, std::memory_order_release);
    return;
  }
  // Release-publish so a worker's acquire load sees fully constructed
  // instruments; the registry keeps them alive for its own lifetime.
  queue_wait_ms_.store(&metrics->histogram(std::string(prefix) + ".queue_wait_ms"),
                       std::memory_order_release);
  task_counter_.store(&metrics->counter(std::string(prefix) + ".tasks"),
                      std::memory_order_release);
  park_counter_.store(&metrics->counter(std::string(prefix) + ".parks"),
                      std::memory_order_release);
}

std::function<void()> ThreadPool::instrument(std::function<void()> task) {
  obs::Histogram* wait = queue_wait_ms_.load(std::memory_order_acquire);
  obs::Counter* tasks = task_counter_.load(std::memory_order_acquire);
  if (wait == nullptr || tasks == nullptr) return task;
  return [wait, tasks, queued = obs::Stopwatch(), task = std::move(task)] {
    wait->observe(queued.elapsed_ms());
    tasks->add();
    task();
  };
}

void ThreadPool::submit(std::function<void()> task) {
  task = instrument(std::move(task));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.push_back(std::move(task));
    ++outstanding_;
  }
  wake_.notify_one();
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  for (auto& task : tasks) task = instrument(std::move(task));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    for (auto& task : tasks) queue_.push_back(std::move(task));
    outstanding_ += tasks.size();
  }
  wake_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (queue_.empty()) {
      if (obs::Counter* parks = park_counter_.load(std::memory_order_acquire)) {
        parks->add();
      }
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release the task's captures before counting it done
    lock.lock();
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (--outstanding_ == 0) idle_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return outstanding_ == 0; });
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Discard unstarted work so wait_idle() callers blocked on it are
  // released — shutdown under pending work never hangs. The discarded tasks
  // are destroyed outside the lock.
  std::deque<std::function<void()>> discarded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    discarded.swap(queue_);
    outstanding_ -= discarded.size();
  }
  idle_.notify_all();
}

}  // namespace comt::sched
