#include "net/event_loop.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#if defined(__linux__)
#define TEMPSPEC_NET_EPOLL 1
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

namespace tempspec {

namespace {

#ifdef TEMPSPEC_NET_EPOLL
uint32_t ToEpoll(uint32_t interest) {
  uint32_t events = 0;
  if (interest & kEventReadable) events |= EPOLLIN;
  if (interest & kEventWritable) events |= EPOLLOUT;
  return events;
}

uint32_t FromEpoll(uint32_t events) {
  uint32_t out = 0;
  if (events & (EPOLLIN | EPOLLPRI)) out |= kEventReadable;
  if (events & EPOLLOUT) out |= kEventWritable;
  if (events & (EPOLLERR | EPOLLHUP)) out |= kEventError;
  return out;
}
#else
short ToPoll(uint32_t interest) {
  short events = 0;
  if (interest & kEventReadable) events |= POLLIN;
  if (interest & kEventWritable) events |= POLLOUT;
  return events;
}

uint32_t FromPoll(short revents) {
  uint32_t out = 0;
  if (revents & (POLLIN | POLLPRI)) out |= kEventReadable;
  if (revents & POLLOUT) out |= kEventWritable;
  if (revents & (POLLERR | POLLHUP | POLLNVAL)) out |= kEventError;
  return out;
}
#endif

}  // namespace

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() = default;

Status EventLoop::Init() {
#ifdef TEMPSPEC_NET_EPOLL
  backend_fd_.Reset(::epoll_create1(0));
  if (!backend_fd_.valid()) {
    return Status::IOError("epoll_create1(): ", std::strerror(errno));
  }
#endif
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError("pipe(): ", std::strerror(errno));
  }
  wake_read_.Reset(pipe_fds[0]);
  wake_write_.Reset(pipe_fds[1]);
  TS_RETURN_NOT_OK(SetNonBlocking(wake_read_.get()));
  TS_RETURN_NOT_OK(SetNonBlocking(wake_write_.get()));
  return Register(wake_read_.get(), kEventReadable,
                  [this](uint32_t) { DrainWakePipe(); });
}

Status EventLoop::Register(int fd, uint32_t interest, FdCallback callback) {
  TS_RETURN_NOT_OK(BackendAdd(fd, interest));
  callbacks_[fd] = std::move(callback);
  interests_[fd] = interest;
  return Status::OK();
}

Status EventLoop::SetInterest(int fd, uint32_t interest) {
  auto it = interests_.find(fd);
  if (it == interests_.end()) {
    return Status::NotFound("fd ", fd, " is not registered");
  }
  if (it->second == interest) return Status::OK();
  TS_RETURN_NOT_OK(BackendModify(fd, interest));
  it->second = interest;
  return Status::OK();
}

void EventLoop::Deregister(int fd) {
  if (interests_.erase(fd) == 0) return;
  callbacks_.erase(fd);
  BackendRemove(fd);
}

void EventLoop::RunInLoop(Task task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  Wake();
}

uint64_t EventLoop::AddTimer(std::chrono::milliseconds delay, Task callback) {
  const uint64_t id = next_timer_id_++;
  timers_.push(Timer{std::chrono::steady_clock::now() + delay, id});
  timer_callbacks_[id] = std::move(callback);
  return id;
}

void EventLoop::CancelTimer(uint64_t id) { timer_callbacks_.erase(id); }

void EventLoop::RunOnce(int max_wait_ms) {
  PollOnce(WaitTimeoutMs(max_wait_ms));
  RunDueTimers();
  RunPendingTasks();
}

void EventLoop::Wake() {
  char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

void EventLoop::DrainWakePipe() {
  char buf[256];
  while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::RunPendingTasks() {
  std::vector<Task> batch;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    batch.swap(tasks_);
  }
  for (Task& task : batch) task();
}

void EventLoop::RunDueTimers() {
  const auto now = std::chrono::steady_clock::now();
  while (!timers_.empty() && timers_.top().when <= now) {
    const uint64_t id = timers_.top().id;
    timers_.pop();
    auto it = timer_callbacks_.find(id);
    if (it == timer_callbacks_.end()) continue;  // cancelled
    Task callback = std::move(it->second);
    timer_callbacks_.erase(it);
    callback();
  }
}

int EventLoop::WaitTimeoutMs(int cap) const {
  if (timers_.empty()) return cap;
  const auto now = std::chrono::steady_clock::now();
  const auto next = timers_.top().when;
  if (next <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
          .count() +
      1;
  return static_cast<int>(std::min<long long>(ms, cap));
}

#ifdef TEMPSPEC_NET_EPOLL

Status EventLoop::BackendAdd(int fd, uint32_t interest) {
  epoll_event ev{};
  ev.events = ToEpoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(backend_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(ADD): ", std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::BackendModify(int fd, uint32_t interest) {
  epoll_event ev{};
  ev.events = ToEpoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(backend_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(MOD): ", std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::BackendRemove(int fd) {
  ::epoll_ctl(backend_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::PollOnce(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(backend_fd_.get(), events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    // The callback for an earlier event in this batch may have deregistered
    // this fd; the map lookup is the guard. Invoke a copy: the callback may
    // deregister its own fd, and erasing the map entry mid-call would
    // destroy the executing closure (and the connection it keeps alive).
    auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;
    const uint32_t ready = FromEpoll(events[i].events);
    if (ready != 0) {
      FdCallback callback = it->second;
      callback(ready);
    }
  }
}

#else  // poll(2) backend

Status EventLoop::BackendAdd(int, uint32_t) { return Status::OK(); }
Status EventLoop::BackendModify(int, uint32_t) { return Status::OK(); }
void EventLoop::BackendRemove(int) {}

void EventLoop::PollOnce(int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(interests_.size());
  for (const auto& [fd, interest] : interests_) {
    pfds.push_back(pollfd{fd, ToPoll(interest), 0});
  }
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n <= 0) return;
  for (const pollfd& pfd : pfds) {
    if (pfd.revents == 0) continue;
    // Copy before invoking: the callback may deregister its own fd (see the
    // epoll backend).
    auto it = callbacks_.find(pfd.fd);
    if (it == callbacks_.end()) continue;
    const uint32_t ready = FromPoll(pfd.revents);
    if (ready != 0) {
      FdCallback callback = it->second;
      callback(ready);
    }
  }
}

#endif  // TEMPSPEC_NET_EPOLL

}  // namespace tempspec
