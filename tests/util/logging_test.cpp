#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace agentloc::util {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::instance().set_level(LogLevel::kTrace);
    Logger::instance().set_sink(
        [this](LogLevel level, std::string_view text) {
          lines_.emplace_back(level, std::string(text));
        });
  }

  void TearDown() override {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kWarn);
  }

  std::vector<std::pair<LogLevel, std::string>> lines_;
};

TEST_F(LoggingTest, EmitsFormattedLine) {
  AGENTLOC_LOG(kInfo, "hagent") << "split " << 42;
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0].first, LogLevel::kInfo);
  EXPECT_NE(lines_[0].second.find("INFO hagent: split 42"),
            std::string::npos);
}

TEST_F(LoggingTest, LevelThresholdSuppresses) {
  Logger::instance().set_level(LogLevel::kError);
  AGENTLOC_LOG(kWarn, "x") << "hidden";
  AGENTLOC_LOG(kError, "x") << "visible";
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].second.find("visible"), std::string::npos);
}

TEST_F(LoggingTest, LevelNames) {
  EXPECT_EQ(to_string(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(to_string(LogLevel::kInfo), "INFO");
  EXPECT_EQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_EQ(to_string(LogLevel::kError), "ERROR");
}

TEST_F(LoggingTest, EnabledReflectsThreshold) {
  Logger::instance().set_level(LogLevel::kInfo);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kDebug));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
}

}  // namespace
}  // namespace agentloc::util
