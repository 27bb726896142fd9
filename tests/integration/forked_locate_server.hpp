#pragma once

// Test fixture: `agentlocd`'s serving stack (a LocateServer with 8
// partitions over a unix socket) in a forked child process, so client and
// directory sit on two sides of a real kernel boundary. SetUp starts one
// worker; `start_server` restarts it with more. Skips cleanly where the
// sandbox forbids sockets. The child stops cleanly on SIGTERM and must exit
// 0, so a ThreadSanitizer report in it (which sets its exit status) fails
// the test.

#include <gtest/gtest.h>

#include <pthread.h>
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
    // The child inherits SIGTERM blocked, before any of its threads start,
    // so the signal only ever reaches its sigwait.
    sigset_t term;
    sigemptyset(&term);
    sigaddset(&term, SIGTERM);
    sigset_t previous;
    ::pthread_sigmask(SIG_BLOCK, &term, &previous);
    child_ = ::fork();
    if (child_ == 0) {
      // Server process: the workers serve on their own threads until
      // SIGTERM, then join. _exit (not exit) everywhere so gtest machinery
      // inherited from the parent never runs twice; ThreadSanitizer
      // intercepts _exit and turns a reported race into the exit status.
      LocateServer::Config config;
      config.workers = workers;
      config.partitions = 8;
      LocateServer server(config);
      std::string error;
      if (!server.start(address_, &error)) _exit(1);
      int signal = 0;
      while (::sigwait(&term, &signal) != 0) {
      }
      server.stop();
      _exit(0);
    }
    ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    ASSERT_GE(child_, 0) << "fork failed";
  }

  /// SIGTERM the child and require a clean exit within 10 s.
  void stop_server() {
    if (child_ > 0) {
      ::kill(child_, SIGTERM);
      int status = 0;
      pid_t done = 0;
      for (int waited_ms = 0; done == 0 && waited_ms < 10000;
           waited_ms += 10) {
        done = ::waitpid(child_, &status, WNOHANG);
        if (done == 0) ::usleep(10 * 1000);
      }
      if (done == 0) {
        ::kill(child_, SIGKILL);
        ::waitpid(child_, &status, 0);
        ADD_FAILURE() << "server child still running 10 s after SIGTERM";
      } else {
        EXPECT_EQ(done, child_) << "waitpid failed";
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "server child did not exit cleanly (wait status " << status
            << ")";
      }
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
