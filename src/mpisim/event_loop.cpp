#include "mpisim/event_loop.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "mpisim/fiber.h"
#include "util/error.h"

namespace pioblast::mpisim {

/// Host threads for EventLoop::offload: one per hardware thread, draining
/// one FIFO of tasks. The only place in the runtime where more than one
/// thread runs; the closures it runs make no mpisim calls.
class OffloadPool {
 public:
  OffloadPool() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    try {
      for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this] { work(); });
    } catch (...) {
      stop_and_join();
      throw;
    }
  }

  ~OffloadPool() { stop_and_join(); }

  OffloadPool(const OffloadPool&) = delete;
  OffloadPool& operator=(const OffloadPool&) = delete;

  /// Queues `fn`; the future becomes ready (holding any exception `fn`
  /// threw) once it has run.
  std::future<void> submit(std::function<void()> fn) {
    std::packaged_task<void()> task(std::move(fn));
    std::future<void> done = task.get_future();
    {
      std::lock_guard lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return done;
  }

 private:
  void work() {
    for (;;) {
      std::packaged_task<void()> task;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, nothing left to run
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  void stop_and_join() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

EventLoop::EventLoop(int nranks, Options opts, StuckHandler on_stuck)
    : nranks_(nranks), opts_(opts), on_stuck_(std::move(on_stuck)) {
  PIOBLAST_CHECK(nranks >= 1);
  // Every rank starts runnable at its kBegin point, so decision #0 sees
  // the whole world.
  states_.assign(static_cast<std::size_t>(nranks_), State::kRunnable);
  ops_.resize(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    ops_[static_cast<std::size_t>(r)] =
        YieldPoint{r, YieldPoint::Kind::kBegin, -1, 0, nullptr};
    ready_.push_back(r);
  }
  if (opts_.delegate != nullptr) opts_.delegate->start(nranks_);
}

EventLoop::~EventLoop() {
  // Drain and join the pool before the fiber stacks go: if run() left
  // early, a queued closure may still point into a parked rank's frame.
  pool_.reset();
}

void EventLoop::run(const std::function<void(int)>& body) {
  PIOBLAST_CHECK_MSG(Fiber::current() == nullptr,
                     "EventLoop::run from inside a fiber");
  fibers_.clear();
  fibers_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    fibers_.push_back(
        std::make_unique<Fiber>(kFiberStackBytes, [&body, r] { body(r); }));
  }
  const bool checked = opts_.delegate != nullptr;
  while (done_ < nranks_) {
    int next = checked ? choose_checked() : pop_ready();
    if (next == -1 && !in_flight_.empty()) {
      // Nothing else can run: resume the oldest offload's rank once its
      // closure is done — submission order, whatever order they finish.
      const InFlight oldest = in_flight_.front();
      in_flight_.pop_front();
      oldest.done->wait();
      next = oldest.rank;
    }
    if (next == -1) {
      handle_stuck();
      continue;
    }
    resume_rank(next);
  }
  fibers_.clear();
}

int EventLoop::pop_ready() {
  while (!ready_.empty()) {
    const int r = ready_.front();
    ready_.pop_front();
    if (states_[static_cast<std::size_t>(r)] == State::kRunnable) return r;
  }
  return -1;
}

int EventLoop::choose_checked() {
  std::vector<int> enabled;
  for (int r = 0; r < nranks_; ++r)
    if (states_[static_cast<std::size_t>(r)] == State::kRunnable)
      enabled.push_back(r);
  if (enabled.empty()) return -1;
  int chosen = enabled[0];
  if (enabled.size() >= 2) {
    std::vector<YieldPoint> ops;
    ops.reserve(enabled.size());
    for (const int r : enabled) ops.push_back(ops_[static_cast<std::size_t>(r)]);
    const int want = opts_.delegate->choose(enabled, ops);
    if (std::find(enabled.begin(), enabled.end(), want) != enabled.end())
      chosen = want;
  }
  return chosen;
}

void EventLoop::resume_rank(int rank) {
  auto& fiber = fibers_[static_cast<std::size_t>(rank)];
  states_[static_cast<std::size_t>(rank)] = State::kRunning;
  // Thread-locals do not follow fibers: the race-detection context of
  // whichever rank ran last is still installed and must be replaced
  // before this rank touches instrumented state.
  set_thread_check_context(opts_.race, rank);
  fiber->resume();
  clear_thread_check_context();
  if (fiber->finished()) {
    states_[static_cast<std::size_t>(rank)] = State::kDone;
    ++done_;
  }
  // Otherwise yield()/block()/offload() already set the state before
  // suspending.
}

void EventLoop::handle_stuck() {
  PIOBLAST_CHECK_MSG(!stuck_fired_,
                     "mpisim: event loop still has blocked ranks after the "
                     "stuck handler poisoned every mailbox");
  stuck_fired_ = true;
  std::string report =
      "mpisim: scheduler stuck — no runnable rank; blocked:";
  for (int r = 0; r < nranks_; ++r) {
    if (states_[static_cast<std::size_t>(r)] != State::kBlocked) continue;
    const YieldPoint& op = ops_[static_cast<std::size_t>(r)];
    report += " rank " + std::to_string(r) + " at " + to_string(op.kind);
    if (op.kind == YieldPoint::Kind::kRecv) {
      report += "(src=" + std::to_string(op.peer) +
                ", tag=" + std::to_string(op.tag) + ")";
    }
    report += ";";
  }
  if (opts_.delegate != nullptr) opts_.delegate->stuck();
  // The handler poisons mailboxes, which calls back into wake() and
  // refills the ready set; the run loop then resumes the poisoned ranks
  // so they unwind.
  on_stuck_(report);
}

void EventLoop::yield(const YieldPoint& op) {
  const int rank = op.rank;
  ops_[static_cast<std::size_t>(rank)] = op;
  if (opts_.delegate == nullptr) return;  // run-to-block: no switch
  states_[static_cast<std::size_t>(rank)] = State::kRunnable;
  fibers_[static_cast<std::size_t>(rank)]->suspend();
}

void EventLoop::block(int rank) {
  // The rank stayed running from its failed match-check to here, so no
  // wake can have been missed: anything that could unblock it either
  // already sits in the mailbox (the caller's loop re-checks) or will be
  // pushed by a later-resumed rank, whose push calls wake().
  states_[static_cast<std::size_t>(rank)] = State::kBlocked;
  fibers_[static_cast<std::size_t>(rank)]->suspend();
}

void EventLoop::wake(int rank) {
  if (rank < 0 || rank >= nranks_) return;  // mailbox not bound to a rank
  if (states_[static_cast<std::size_t>(rank)] != State::kBlocked) return;
  states_[static_cast<std::size_t>(rank)] = State::kRunnable;
  if (opts_.delegate == nullptr) ready_.push_back(rank);
  // Never preempts: the waking rank (or the stuck handler) keeps running;
  // the loop picks the woken rank at a later decision point.
}

void EventLoop::offload(int rank, const std::function<void()>& fn) {
  if (opts_.delegate != nullptr) {
    fn();
    return;
  }
  if (!pool_) pool_ = std::make_unique<OffloadPool>();
  // `fn` and `done` live in this frame, which stays intact while the
  // fiber is parked; the loop resumes the rank only after `done` is ready.
  std::future<void> done = pool_->submit([&fn] { fn(); });
  in_flight_.push_back({rank, &done});
  states_[static_cast<std::size_t>(rank)] = State::kOffloaded;
  fibers_[static_cast<std::size_t>(rank)]->suspend();
  done.get();  // rethrows the closure's exception in the rank
}

}  // namespace pioblast::mpisim
