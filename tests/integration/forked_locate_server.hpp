#pragma once

// Test fixture: `agentlocd`'s serving stack (a LocateServer with 8
// partitions over a unix socket) in a forked child process, so client and
// directory sit on two sides of a real kernel boundary. SetUp starts one
// worker; `start_server` restarts it with more. Skips cleanly where the
// sandbox forbids sockets.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "net/locate_server.hpp"
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
    start_server(1);
  }

  void TearDown() override { stop_server(); }

  /// Fork a fresh `workers`-worker server on the fixture's address, after
  /// stopping the one running.
  void start_server(std::size_t workers) {
    stop_server();
    child_ = ::fork();
    ASSERT_GE(child_, 0) << "fork failed";
    if (child_ == 0) {
      // Server process: the workers serve on their own threads until the
      // process is killed. _exit (not exit) everywhere so gtest machinery
      // inherited from the parent never runs twice.
      LocateServer::Config config;
      config.workers = workers;
      config.partitions = 8;
      LocateServer server(config);
      std::string error;
      if (!server.start(address_, &error)) _exit(1);
      for (;;) ::pause();
    }
  }

  void stop_server() {
    if (child_ > 0) {
      ::kill(child_, SIGKILL);
      int status = 0;
      ::waitpid(child_, &status, 0);
      child_ = -1;
    }
    if (!path_.empty()) {
      ::unlink(path_.c_str());
      ::unlink((path_ + ".w1").c_str());
    }
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
