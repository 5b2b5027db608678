#ifndef CDPD_SERVER_LISTENER_H_
#define CDPD_SERVER_LISTENER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"

namespace cdpd {

/// Where a Listener binds.
struct ListenOptions {
  /// Loopback by default: the advisor's protocols are unauthenticated,
  /// so a listener should not bind a routable interface unless the
  /// deployment supplies its own perimeter.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port().
  int port = 0;
};

/// The advisor's one TCP transport: a listening socket whose accept
/// thread serves each connection on its own thread through a protocol
/// handler. AdvisorServer (frame protocol) and HttpEndpoint
/// (observability plane) each own one and keep only their handler.
///
/// The handler owns the conversation on the connected fd; the listener
/// closes the fd once the handler returns. Finished connection threads
/// are joined by the accept loop before each accept, so a long-lived
/// listener holds one thread per open connection, not one mapped
/// stack per past connection.
///
/// Lifecycle: Start() binds and spawns the accept thread.
/// RequestStop() closes the listening socket and shuts down every open
/// connection, which unblocks handlers parked in a read; it never
/// joins, so a handler or a signal watcher may call it. Wait() joins
/// the accept thread and every connection thread. Shutdown() is both,
/// is idempotent, and runs on destruction.
class Listener {
 public:
  /// Serves one connection. The fd stays owned by the listener.
  using Handler = std::function<void(int fd)>;

  explicit Listener(Handler handler) : handler_(std::move(handler)) {}
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener() { Shutdown(); }

  /// Binds, listens, and spawns the accept thread. InvalidArgument
  /// when the host is not an IPv4 address; Internal on socket errors
  /// (port in use, no permission).
  Status Start(const ListenOptions& options);

  /// The bound port (the ephemeral port when options.port was 0); 0
  /// before Start().
  int port() const { return port_; }

  /// Stops accepting and unblocks every open connection, without
  /// joining anything.
  void RequestStop();

  /// Blocks until the accept thread and every connection thread have
  /// exited — that is, until some thread has called RequestStop() (or
  /// the listening socket broke) and every handler has returned.
  void Wait();

  void Shutdown() {
    RequestStop();
    Wait();
  }

  /// Connections still tracked: serving, or finished and awaiting the
  /// accept loop's next reap.
  size_t tracked_connections() {
    std::lock_guard<std::mutex> lock(conn_mu_);
    return connections_.size();
  }

 private:
  /// One accepted connection: its socket, the thread serving it, and a
  /// completion flag the accept loop polls so finished threads are
  /// joined during operation.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    int fd;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void AcceptLoop();
  /// Runs the handler, closes the fd, then publishes `done`.
  void Serve(Connection* conn);
  /// Joins and frees every connection whose handler has finished.
  /// Called by the accept loop before each accept.
  void ReapFinished();

  const Handler handler_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// The fds RequestStop() may shut down: every accepted fd, until its
  /// connection thread is about to close it.
  std::vector<int> open_fds_;
  std::thread accept_thread_;
  /// Serializes Wait() calls (the main thread and a destructor may
  /// both join).
  std::mutex join_mu_;
};

}  // namespace cdpd

#endif  // CDPD_SERVER_LISTENER_H_
