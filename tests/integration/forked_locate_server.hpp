#pragma once

// Test fixture: an `agentlocd`-shaped server (a LocateService with 8
// partitions over a unix socket) in a forked child process, so client and
// directory sit on two sides of a real kernel boundary. Skips cleanly where
// the sandbox forbids sockets.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"

namespace agentloc::net::testing {

class ForkedLocateServer : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SocketTransport::sockets_available()) {
      GTEST_SKIP() << "sandbox cannot create sockets";
    }
    path_ = "/tmp/agentloc-proc-" + std::to_string(::getpid()) + ".sock";
    address_.kind = SocketAddress::Kind::kUnix;
    address_.path = path_;

    child_ = ::fork();
    ASSERT_GE(child_, 0) << "fork failed";
    if (child_ == 0) {
      // Server process: serve until killed. _exit (not exit) everywhere so
      // gtest machinery inherited from the parent never runs twice.
      SocketTransport transport;
      std::string error;
      if (!transport.listen(address_, &error)) _exit(1);
      LocateService service(transport, /*partitions=*/8);
      for (;;) transport.poll_once(200);
    }
  }

  void TearDown() override {
    if (child_ > 0) {
      ::kill(child_, SIGKILL);
      int status = 0;
      ::waitpid(child_, &status, 0);
    }
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  /// Connect with retries: the child may not have bound the socket yet.
  bool connect_client(LocateClient& client, std::string* error) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (client.connect(address_, error)) return true;
      ::usleep(20 * 1000);
    }
    return false;
  }

  std::string path_;
  SocketAddress address_;
  pid_t child_ = -1;
};

}  // namespace agentloc::net::testing
