#ifndef MAXSON_EXEC_THREAD_POOL_H_
#define MAXSON_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"

namespace maxson::exec {

/// Shared worker pool behind the engine's morsel-parallel scans, the
/// row-chunk-parallel operators, and the midnight cacher — the in-process
/// analogue of the paper's SparkSQL executors (one file = one split = one
/// morsel = one unit of parallelism by default).
///
/// The pool models a *parallelism degree* of `num_threads`: it owns
/// `num_threads - 1` OS threads and every blocking helper (TaskGroup::Wait,
/// ParallelFor) runs tasks on the calling thread as well, so the caller is
/// never idle and a degree of 1 owns no threads at all — execution is then
/// plain inline sequential code, byte-for-byte the pre-pool behaviour.
///
/// Workers are started lazily on the first submitted task; constructing a
/// pool (e.g. inside every QueryEngine) costs nothing until a parallel
/// operator actually runs. All members are thread-safe.
class ThreadPool {
 public:
  /// `num_threads` = 0 picks the hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism degree (callers + owned workers); always >= 1.
  size_t num_threads() const { return num_threads_; }

  /// Enqueues `task` for a worker thread, starting the workers on first
  /// use. With a degree of 1 there are no workers: the task runs inline.
  void Submit(std::function<void()> task);

  /// Lifetime count of tasks handed to Submit. Observability only — the
  /// count depends on the parallelism degree (TaskGroup::Wait steals work
  /// before it is submitted), so it is exported as a gauge, never folded
  /// into the deterministic counter totals.
  uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }

 private:
  void EnsureStarted() MAXSON_REQUIRES(mutex_);
  void WorkerLoop() MAXSON_EXCLUDES(mutex_);

  const size_t num_threads_;
  std::atomic<uint64_t> tasks_submitted_{0};
  Mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ MAXSON_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_ MAXSON_GUARDED_BY(mutex_);
  bool started_ MAXSON_GUARDED_BY(mutex_) = false;
  bool shutdown_ MAXSON_GUARDED_BY(mutex_) = false;
};

/// A batch of Status-returning tasks fanned out on a ThreadPool and joined
/// with Wait(). Wait() drains unstarted tasks on the calling thread, so a
/// group always makes progress even when every pool worker is busy with
/// other groups (queries and the midnight cycle share one pool).
///
/// Error contract: Wait() runs every spawned task (a failure does not
/// cancel its siblings — their side effects land in task-private buffers
/// the caller then discards) and returns the first non-OK status in spawn
/// order, making the returned status independent of scheduling.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  /// Backstop join for early-exit paths. A destructor cannot propagate the
  /// group status; callers that care must call Wait() themselves first.
  ~TaskGroup() { (void)Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<Status()> fn);

  /// Blocks until every spawned task has finished, helping to run them.
  /// Idempotent; returns the first failure in spawn order.
  Status Wait();

 private:
  struct State {
    Mutex mutex;
    std::condition_variable cv;
    /// Indexes into tasks not yet started.
    std::deque<size_t> pending MAXSON_GUARDED_BY(mutex);
    std::vector<std::function<Status()>> tasks MAXSON_GUARDED_BY(mutex);
    std::vector<Status> statuses MAXSON_GUARDED_BY(mutex);
    size_t done MAXSON_GUARDED_BY(mutex) = 0;

    /// Runs one pending task if any; returns false when none were pending.
    bool RunOne() MAXSON_EXCLUDES(mutex);
  };

  ThreadPool* pool_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Runs `fn(i)` for every i in [0, n) across the pool, the calling thread
/// included. Iterations must be independent; each should write to its own
/// output slot so that merging in index order is deterministic. Returns the
/// first non-OK status in index order. A null pool runs inline.
Status ParallelFor(ThreadPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn);

/// Fixed-size chunk decomposition of [0, n): chunk boundaries depend only
/// on `n` and `chunk_rows` — never on the pool's thread count — so
/// chunk-merged results (including floating-point accumulation order) are
/// byte-identical at every parallelism degree.
struct ChunkRange {
  size_t begin;
  size_t end;
};
std::vector<ChunkRange> MakeChunks(size_t n, size_t chunk_rows);

}  // namespace maxson::exec

#endif  // MAXSON_EXEC_THREAD_POOL_H_
