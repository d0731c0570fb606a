// Readiness event loop: the scheduling heart of the network plane. One
// thread at a time runs it — the current leader, which owns every
// registered fd, the timers and the posted tasks while it leads. NetServer
// (net/server.h) passes the loop between the threads of a leader/followers
// pool: a leader calls RunOnce() until it admits a statement, then promotes
// an idle follower and runs the statement itself. Leadership passes under
// the pool's mutex, so each leader sees everything its predecessor did.
// Other threads talk to the loop only through RunInLoop(), which enqueues a
// task and wakes the leader via a self-pipe.
//
// Backend: epoll on Linux, poll(2) elsewhere — both level-triggered behind
// the same Register/SetInterest interface, so server.cc is backend-blind,
// and readiness a leader did not dispatch is reported again to the next.
// Timers are a min-heap consulted for the wait timeout; callbacks run on the
// leader between readiness batches.
#ifndef TEMPSPEC_NET_EVENT_LOOP_H_
#define TEMPSPEC_NET_EVENT_LOOP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "util/result.h"

namespace tempspec {

/// \brief Readiness bits delivered to fd callbacks (a callback may receive
/// several OR-ed together).
enum : uint32_t {
  kEventReadable = 1u << 0,
  kEventWritable = 1u << 1,
  /// Error or hangup: the fd should be torn down. Delivered even when not
  /// requested, like EPOLLERR/EPOLLHUP.
  kEventError = 1u << 2,
};

class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Creates the backend (epoll instance / poll tables) and the
  /// wakeup pipe. Must be called before RunOnce().
  Status Init();

  /// \brief Registers `fd` with an interest mask (kEventReadable |
  /// kEventWritable). The callback runs on the current leader. Leader only
  /// (call before any thread runs the loop, or from a task/callback).
  Status Register(int fd, uint32_t interest, FdCallback callback);

  /// \brief Changes the interest mask of a registered fd. Leader only.
  Status SetInterest(int fd, uint32_t interest);

  /// \brief Removes `fd` from the loop (does not close it). Safe to call
  /// from inside the fd's own callback. Leader only.
  void Deregister(int fd);

  /// \brief Enqueues a task for the current leader and wakes it.
  /// Thread-safe; the only cross-thread entry point. Tasks enqueued by the
  /// leader itself still defer to the next pass (no reentrancy surprises).
  void RunInLoop(Task task);

  /// \brief Schedules `callback` to run on the leader after `delay`.
  /// Returns a timer id for CancelTimer. Leader only.
  uint64_t AddTimer(std::chrono::milliseconds delay, Task callback);

  /// \brief Cancels a pending timer (no-op when already fired). Leader
  /// only.
  void CancelTimer(uint64_t id);

  /// \brief One pass on the calling thread, which leads for its duration:
  /// waits up to `max_wait_ms` (less when a timer is due) for readiness,
  /// dispatches it, then runs due timers and posted tasks. At most one
  /// thread may be inside RunOnce() at a time.
  void RunOnce(int max_wait_ms);

 private:
  struct Timer {
    std::chrono::steady_clock::time_point when;
    uint64_t id;
    bool operator>(const Timer& other) const {
      return when > other.when || (when == other.when && id > other.id);
    }
  };

  void Wake();
  void DrainWakePipe();
  void RunPendingTasks();
  void RunDueTimers();
  /// \brief Milliseconds until the next timer fires, clamped to [0, cap].
  int WaitTimeoutMs(int cap) const;
  Status BackendAdd(int fd, uint32_t interest);
  Status BackendModify(int fd, uint32_t interest);
  void BackendRemove(int fd);
  /// \brief One backend wait + dispatch pass.
  void PollOnce(int timeout_ms);

  OwnedFd backend_fd_;  // epoll instance (unused by the poll backend)
  OwnedFd wake_read_;
  OwnedFd wake_write_;
  std::unordered_map<int, FdCallback> callbacks_;
  std::unordered_map<int, uint32_t> interests_;  // poll backend rebuilds from this

  std::mutex tasks_mu_;
  std::vector<Task> tasks_;  // guarded by tasks_mu_

  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::unordered_map<uint64_t, Task> timer_callbacks_;
  uint64_t next_timer_id_ = 1;
};

}  // namespace tempspec

#endif  // TEMPSPEC_NET_EVENT_LOOP_H_
