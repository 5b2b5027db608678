#include "server/listener.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace cdpd {

#if defined(_WIN32)

Status Listener::Start(const ListenOptions&) {
  return Status::Internal("advisor serving requires POSIX sockets");
}
void Listener::RequestStop() {}

#else

namespace {

/// Pending-connection queue length of the listening socket.
constexpr int kListenBacklog = 64;

}  // namespace

Status Listener::Start(const ListenOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host '" + options.host +
                                   "' as an IPv4 address");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind to " + options.host + ":" +
                            std::to_string(options.port) + " failed: " +
                            error);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen failed: " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::AcceptLoop() {
  for (;;) {
    ReapFinished();
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0 || stopping_.load(std::memory_order_acquire)) break;
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // A transient failure must not permanently kill the listener
      // while the process lives on: aborted handshakes just retry,
      // and descriptor exhaustion (often caused elsewhere in the
      // process) is waited out.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // The listener was closed by RequestStop, or broke; either way
      // the accept loop is done.
      break;
    }
    const int one = 1;
    // Both protocols exchange small frames per round trip — Nagle
    // only adds latency here.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(fd);
    Connection* raw = conn.get();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    open_fds_.push_back(fd);
    connections_.push_back(std::move(conn));
    // Spawned under conn_mu_: the handler's completion store can only
    // happen after its own final conn_mu_ section, i.e. after this
    // assignment — so a reaper never joins a half-assigned thread.
    raw->thread = std::thread([this, raw] { Serve(raw); });
  }
}

void Listener::Serve(Connection* conn) {
  handler_(conn->fd);
  // Drop the fd from the shutdown set *before* closing it: once closed
  // the number can be recycled by any other part of the process, and a
  // concurrent RequestStop() iterating open_fds_ must never shut down
  // a stranger's descriptor.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    std::erase(open_fds_, conn->fd);
  }
  ::close(conn->fd);
  // Last act: publish completion so the accept loop can reap this
  // thread. Nothing may touch `this` or `conn` past this store.
  conn->done.store(true, std::memory_order_release);
}

void Listener::RequestStop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    // shutdown() wakes a blocked accept(); close() releases the port.
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (const int fd : open_fds_) {
    // Unblock reads so every connection thread can wind down; the
    // threads close their own fds.
    ::shutdown(fd, SHUT_RDWR);
  }
}

#endif  // _WIN32

void Listener::ReapFinished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (size_t i = 0; i < connections_.size();) {
      if (connections_[i]->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(connections_[i]));
        connections_.erase(connections_.begin() +
                           static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  // `done` is the handler's last act, so these joins return promptly.
  for (std::unique_ptr<Connection>& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Listener::Wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is gone, so connections_ can only shrink now;
  // drain it in batches until every handler has exited.
  for (;;) {
    std::vector<std::unique_ptr<Connection>> batch;
    {
      std::lock_guard<std::mutex> conn_lock(conn_mu_);
      batch.swap(connections_);
    }
    if (batch.empty()) break;
    for (std::unique_ptr<Connection>& conn : batch) {
      if (conn->thread.joinable()) conn->thread.join();
    }
  }
}

}  // namespace cdpd
