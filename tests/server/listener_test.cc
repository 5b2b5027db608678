// Listener: the one TCP transport under AdvisorServer and HttpEndpoint,
// driven directly over loopback with small echo and blocking handlers.
// Covers reaping during operation, stopping from inside a handler,
// prompt shutdown past a silent client, and Start()'s error paths.

#include "server/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "server/frame.h"

namespace cdpd {
namespace {

/// A connected loopback client socket, or -1.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Echoes bytes back until the peer closes.
void Echo(int fd) {
  char buf[256];
  for (;;) {
    const Result<size_t> n = ReadSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) return;
    if (!WriteExact(fd, buf, *n).ok()) return;
  }
}

/// Polls `ready` every millisecond for up to five seconds.
template <typename Predicate>
bool EventuallyTrue(Predicate ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ListenerTest, FinishedConnectionsAreReapedWhileRunning) {
  Listener listener(Echo);
  ASSERT_TRUE(listener.Start(ListenOptions{}).ok());
  size_t max_tracked = 0;
  for (int i = 0; i < 200; ++i) {
    const int fd = Connect(listener.port());
    ASSERT_GE(fd, 0);
    char byte = 'x';
    ASSERT_TRUE(WriteExact(fd, &byte, 1).ok());
    ASSERT_TRUE(ReadExact(fd, &byte, 1).ok());
    ::shutdown(fd, SHUT_WR);
    // EOF from the server side: the handler returned and the listener
    // closed the connection.
    bool clean_eof = false;
    EXPECT_FALSE(ReadExact(fd, &byte, 1, &clean_eof).ok());
    EXPECT_TRUE(clean_eof);
    ::close(fd);
    max_tracked = std::max(max_tracked, listener.tracked_connections());
  }
  // The accept loop joins finished handlers before each accept, so
  // only the latest connection or two are still tracked — never one
  // per past connection.
  EXPECT_LE(max_tracked, 8u);
  listener.Shutdown();
  EXPECT_EQ(listener.tracked_connections(), 0u);
}

TEST(ListenerTest, RequestStopFromAHandlerReturnsAndWaitJoinsEveryThread) {
  Listener* self = nullptr;
  std::atomic<bool> stop_returned{false};
  Listener listener([&](int fd) {
    char byte = 0;
    // Idle connections park here until RequestStop() unblocks them.
    if (!ReadExact(fd, &byte, 1).ok()) return;
    self->RequestStop();
    stop_returned.store(true);
  });
  self = &listener;
  ASSERT_TRUE(listener.Start(ListenOptions{}).ok());

  const int idle_a = Connect(listener.port());
  const int idle_b = Connect(listener.port());
  ASSERT_GE(idle_a, 0);
  ASSERT_GE(idle_b, 0);
  ASSERT_TRUE(
      EventuallyTrue([&] { return listener.tracked_connections() == 2; }));
  const int stopper = Connect(listener.port());
  ASSERT_GE(stopper, 0);
  const char stop = 's';
  ASSERT_TRUE(WriteExact(stopper, &stop, 1).ok());

  listener.Wait();
  EXPECT_TRUE(stop_returned.load());
  EXPECT_EQ(listener.tracked_connections(), 0u);
  // The idle clients were shut down, not left hanging.
  char byte = 0;
  bool clean_eof = false;
  EXPECT_FALSE(ReadExact(idle_a, &byte, 1, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  for (const int fd : {idle_a, idle_b, stopper}) ::close(fd);
}

TEST(ListenerTest, ShutdownIsPromptWhileASilentClientHoldsAConnection) {
  std::atomic<bool> reading{false};
  Listener listener([&](int fd) {
    reading.store(true);
    char byte = 0;
    (void)ReadExact(fd, &byte, 1);  // The client never sends a byte.
  });
  ASSERT_TRUE(listener.Start(ListenOptions{}).ok());
  const int silent = Connect(listener.port());
  ASSERT_GE(silent, 0);
  ASSERT_TRUE(EventuallyTrue([&] { return reading.load(); }));

  std::future<void> shutdown =
      std::async(std::launch::async, [&] { listener.Shutdown(); });
  const bool prompt = shutdown.wait_for(std::chrono::seconds(5)) ==
                      std::future_status::ready;
  // Closing the client lets a listener that failed to unblock the
  // handler's read finish anyway, so a failure cannot hang the suite.
  ::close(silent);
  shutdown.get();
  EXPECT_TRUE(prompt);
  EXPECT_EQ(listener.tracked_connections(), 0u);
}

TEST(ListenerTest, StartRejectsAnUnparsableHost) {
  Listener listener(Echo);
  ListenOptions options;
  options.host = "not-an-address";
  const Status status = listener.Start(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(listener.port(), 0);
}

TEST(ListenerTest, StartOnAPortAnotherListenerHoldsIsInternal) {
  Listener holder(Echo);
  ASSERT_TRUE(holder.Start(ListenOptions{}).ok());
  Listener second(Echo);
  ListenOptions options;
  options.port = holder.port();
  const Status status = second.Start(options);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();

  // The failed bind left the holder serving.
  const int fd = Connect(holder.port());
  ASSERT_GE(fd, 0);
  char byte = 'x';
  ASSERT_TRUE(WriteExact(fd, &byte, 1).ok());
  EXPECT_TRUE(ReadExact(fd, &byte, 1).ok());
  ::close(fd);
}

TEST(ListenerTest, ShutdownIsIdempotent) {
  Listener never_started(Echo);
  never_started.Shutdown();
  never_started.Shutdown();

  Listener listener(Echo);
  ASSERT_TRUE(listener.Start(ListenOptions{}).ok());
  const int fd = Connect(listener.port());
  ASSERT_GE(fd, 0);
  listener.Shutdown();
  listener.Shutdown();  // Second call is a no-op.
  listener.Wait();
  EXPECT_EQ(listener.tracked_connections(), 0u);
  ::close(fd);
}

}  // namespace
}  // namespace cdpd
