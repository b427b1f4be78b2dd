// WorkerPool — the thread substrate of the deterministic parallel
// execution engine. Workers are started lazily on the first parallel
// region that wants more than one thread, so a `--threads 1` run (and
// every unit test that never goes parallel) spawns no threads at all.
//
// The pool runs one *region* at a time: run_on_all publishes a job, wakes
// the workers, participates from the calling thread (participant 0), and
// returns once every participant has finished. Scheduling is dynamic —
// participants race to claim shards — but the shard *structure* and the
// reduction order are fixed by the parallel layer (see parallel.h), which
// is what keeps results bit-identical for any thread count.
//
// Per-participant execution accounting (shards run, busy time, publish-to-
// first-claim queue wait) accumulates across regions and is exported as
// the `exec.*` metrics when an observer is installed.
//
// The global pool survives fork(): a child has only the forking thread,
// so its copy of the pool drops the parent's worker handles and starts
// its own workers on its first region.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ddos::exec {

/// Cumulative per-participant accounting (participant 0 is the caller).
struct WorkerStats {
  std::uint64_t tasks = 0;          // shards executed
  std::uint64_t busy_ns = 0;        // wall time inside shard bodies
  std::uint64_t queue_wait_ns = 0;  // job publish -> worker wake latency
};

class WorkerPool {
 public:
  /// `threads` is the total participant count including the calling
  /// thread; 0 selects std::thread::hardware_concurrency().
  explicit WorkerPool(unsigned threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned thread_count() const;

  /// Joins any running workers and retargets the pool; the new complement
  /// starts lazily on the next region. Not callable from inside a region.
  void set_thread_count(unsigned threads);

  /// True while the calling thread is executing a region (worker or
  /// caller). The parallel layer uses this to run nested regions inline
  /// instead of deadlocking on the busy pool.
  static bool inside_region();

  /// Run fn(participant) on the calling thread (participant 0) and on
  /// thread_count()-1 workers concurrently; returns when all participants
  /// have returned. fn must be safe to call concurrently and must not
  /// throw (the parallel layer converts shard exceptions beforehand).
  /// Regions are serialised: one run_on_all at a time per pool.
  void run_on_all(const std::function<void(unsigned)>& fn);

  /// Snapshot of cumulative per-participant stats.
  std::vector<WorkerStats> stats() const;

  /// Total shards executed across all participants — a monotonic count the
  /// stall watchdog can poll to see whether the pool is still moving.
  std::uint64_t progress() const;

  /// Called by the parallel layer after a participant drains its shards.
  void record_shards(unsigned participant, std::uint64_t shards,
                     std::uint64_t busy_ns);

 private:
  friend WorkerPool& global_pool();  // installs the fork handlers below

  // pthread_atfork handlers: the forking thread holds mu_ across fork(),
  // so the child's copy of the pool state is consistent.
  void before_fork();
  void after_fork_in_parent();
  void after_fork_in_child();

  void worker_main(unsigned participant);
  void start_workers_locked();
  void stop_workers();
  static std::uint64_t now_ns();

  struct StatsCell {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> queue_wait_ns{0};
  };

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  unsigned threads_;
  std::vector<std::thread> workers_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t job_generation_ = 0;
  std::uint64_t job_publish_ns_ = 0;
  unsigned active_workers_ = 0;
  bool stop_ = false;
  std::vector<std::unique_ptr<StatsCell>> cells_;
};

/// The process-wide pool every pipeline stage shares. Constructed on first
/// use with the DDOSREPRO_THREADS environment override when set, otherwise
/// hardware_concurrency; usable in a forked child.
WorkerPool& global_pool();

/// Retarget the global pool (the CLI's --threads). 0 = hardware.
void set_global_threads(unsigned threads);

}  // namespace ddos::exec
