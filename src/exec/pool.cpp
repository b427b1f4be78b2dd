#include "exec/pool.h"

#include <pthread.h>

#include <chrono>
#include <cstdlib>
#include <new>

#include "obs/trace.h"

namespace ddos::exec {

namespace {

// Set for the whole duration a thread spends inside a region body, on the
// caller as well as on workers: nested parallel constructs check it and
// degrade to inline execution.
thread_local bool t_inside_region = false;

unsigned resolve_threads(unsigned threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned env_default_threads() {
  if (const char* env = std::getenv("DDOSREPRO_THREADS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return resolve_threads(0);
}

}  // namespace

WorkerPool::WorkerPool(unsigned threads) : threads_(resolve_threads(threads)) {
  cells_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    cells_.push_back(std::make_unique<StatsCell>());
  }
}

WorkerPool::~WorkerPool() { stop_workers(); }

unsigned WorkerPool::thread_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return threads_;
}

void WorkerPool::set_thread_count(unsigned threads) {
  stop_workers();
  const std::lock_guard<std::mutex> lock(mu_);
  threads_ = resolve_threads(threads);
  while (cells_.size() < threads_) {
    cells_.push_back(std::make_unique<StatsCell>());
  }
}

bool WorkerPool::inside_region() { return t_inside_region; }

std::uint64_t WorkerPool::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WorkerPool::start_workers_locked() {
  // Spans opened by worker shards sit below the run-level and stage-level
  // spans of the calling thread; pinning the depth floor keeps them out of
  // the run report's depth<=1 stage table while Chrome traces still show
  // one lane per worker.
  while (workers_.size() + 1 < threads_) {
    const unsigned participant = static_cast<unsigned>(workers_.size()) + 1;
    workers_.emplace_back([this, participant] {
      obs::set_thread_span_depth(2);
      worker_main(participant);
    });
  }
}

void WorkerPool::stop_workers() {
  std::vector<std::thread> joinable;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty()) return;
    stop_ = true;
    work_cv_.notify_all();
    joinable.swap(workers_);
  }
  for (auto& w : joinable) w.join();
  const std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
}

void WorkerPool::worker_main(unsigned participant) {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || job_generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = job_generation_;
    const std::function<void(unsigned)>* job = job_;
    const std::uint64_t publish_ns = job_publish_ns_;
    lock.unlock();

    cells_[participant]->queue_wait_ns.fetch_add(
        now_ns() - publish_ns, std::memory_order_relaxed);
    t_inside_region = true;
    (*job)(participant);
    t_inside_region = false;

    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::run_on_all(const std::function<void(unsigned)>& fn) {
  unsigned participants = 1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    participants = threads_;
    if (participants > 1) {
      start_workers_locked();
      job_ = &fn;
      ++job_generation_;
      job_publish_ns_ = now_ns();
      active_workers_ = static_cast<unsigned>(workers_.size());
      work_cv_.notify_all();
    }
  }

  t_inside_region = true;
  fn(0);
  t_inside_region = false;

  if (participants > 1) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    job_ = nullptr;
  }
}

std::vector<WorkerStats> WorkerPool::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<WorkerStats> out;
  out.reserve(threads_);
  for (unsigned i = 0; i < threads_ && i < cells_.size(); ++i) {
    WorkerStats s;
    s.tasks = cells_[i]->tasks.load(std::memory_order_relaxed);
    s.busy_ns = cells_[i]->busy_ns.load(std::memory_order_relaxed);
    s.queue_wait_ns =
        cells_[i]->queue_wait_ns.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

std::uint64_t WorkerPool::progress() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->tasks.load(std::memory_order_relaxed);
  }
  return total;
}

void WorkerPool::record_shards(unsigned participant, std::uint64_t shards,
                               std::uint64_t busy_ns) {
  if (participant >= cells_.size() || shards == 0) return;
  cells_[participant]->tasks.fetch_add(shards, std::memory_order_relaxed);
  cells_[participant]->busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
}

void WorkerPool::before_fork() { mu_.lock(); }

void WorkerPool::after_fork_in_parent() { mu_.unlock(); }

void WorkerPool::after_fork_in_child() {
  // Only the forking thread lives on in the child, so the worker handles
  // name threads that do not exist here: a join would wait forever, and
  // destroying a joinable std::thread terminates. They are kept unjoined
  // where nothing destroys them (reachable, so no leak is reported), and
  // the condition variables the parent's workers were parked in start
  // over; the next region starts the child's own workers.
  static auto* const orphans = new std::vector<std::thread>();
  for (std::thread& worker : workers_) orphans->push_back(std::move(worker));
  workers_.clear();
  job_ = nullptr;
  active_workers_ = 0;
  stop_ = false;
  new (&work_cv_) std::condition_variable();
  new (&done_cv_) std::condition_variable();
  mu_.unlock();  // locked by before_fork on this thread
}

WorkerPool& global_pool() {
  static WorkerPool pool(env_default_threads());
  static const bool fork_handlers = [] {
    ::pthread_atfork([] { global_pool().before_fork(); },
                     [] { global_pool().after_fork_in_parent(); },
                     [] { global_pool().after_fork_in_child(); });
    return true;
  }();
  (void)fork_handlers;
  return pool;
}

void set_global_threads(unsigned threads) {
  global_pool().set_thread_count(threads);
}

}  // namespace ddos::exec
