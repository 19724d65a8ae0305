#include "exec/async_lane.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "fault/fault_model.hpp"

namespace geo::exec {

namespace {
// True on the lane's own thread, so nested submits run inline instead of
// deadlocking on the single worker.
thread_local const AsyncLane* t_current_lane = nullptr;

// Runs `fn`, capturing an exception instead of letting it escape.
std::exception_ptr run_captured(const std::function<void()>& fn) {
  try {
    fn();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void settle(std::promise<void>& done, std::exception_ptr error) {
  if (error)
    done.set_exception(std::move(error));
  else
    done.set_value();
}
}  // namespace

struct AsyncLane::Impl {
  struct Task {
    std::function<void()> work;
    std::promise<void> done;
    fault::FaultModel* fault_model;  // submitter's effective model
  };

  mutable std::mutex mu;
  std::condition_variable cv;
  std::deque<Task> queue;
  std::size_t in_flight = 0;  // queued + currently executing
  bool stopping = false;
  std::thread worker;
  const AsyncLane* owner = nullptr;

  void run() {
    t_current_lane = owner;
    std::unique_lock lock(mu);
    while (true) {
      cv.wait(lock, [&] { return stopping || !queue.empty(); });
      if (queue.empty()) {
        if (stopping) return;  // drained
        continue;
      }
      Task task = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      std::exception_ptr error;
      {
        // Inherit the submitter's fault scope for the task's duration, the
        // same way ThreadPool workers do for parallel_for iterations.
        fault::ScopedFaultOverride scope(task.fault_model);
        error = run_captured(task.work);
      }
      lock.lock();
      --in_flight;
      // The future becomes ready only after pending() stops counting the
      // task, so a caller that waited on it sees an exact count.
      settle(task.done, std::move(error));
    }
  }
};

AsyncLane::AsyncLane() : impl_(new Impl) {
  impl_->owner = this;
  impl_->worker = std::thread([impl = impl_] { impl->run(); });
}

AsyncLane::~AsyncLane() {
  {
    std::lock_guard lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->worker.join();
  delete impl_;
}

std::future<void> AsyncLane::submit(std::function<void()> fn) {
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  if (t_current_lane == this) {
    // Nested submit from a lane task: run inline (the single worker is us).
    settle(done, run_captured(fn));
    return fut;
  }
  {
    std::lock_guard lock(impl_->mu);
    impl_->queue.push_back({std::move(fn), std::move(done), fault::active()});
    ++impl_->in_flight;
  }
  impl_->cv.notify_one();
  return fut;
}

std::size_t AsyncLane::pending() const {
  std::lock_guard lock(impl_->mu);
  return impl_->in_flight;
}

AsyncLane& AsyncLane::io() {
  static AsyncLane* lane = new AsyncLane();  // lives for the process
  return *lane;
}

}  // namespace geo::exec
