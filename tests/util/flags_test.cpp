#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace agentloc::util {
namespace {

TEST(Flags, EqualsSyntax) {
  Flags flags({"--agents=100", "--rate=2.5", "--verbose=true"});
  EXPECT_EQ(flags.get_int("agents", 0), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Flags, SpaceSyntax) {
  Flags flags({"--agents", "42", "--name", "exp1"});
  EXPECT_EQ(flags.get_int("agents", 0), 42);
  EXPECT_EQ(flags.get_string("name", ""), "exp1");
}

TEST(Flags, BareBooleanFlag) {
  Flags flags({"--fast", "--slow", "--x=1"});
  EXPECT_TRUE(flags.get_bool("fast", false));
  EXPECT_TRUE(flags.get_bool("slow", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  Flags flags({});
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_EQ(flags.get_string("missing", "d"), "d");
  EXPECT_FALSE(flags.get_bool("missing", false));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, PositionalArguments) {
  Flags flags({"first", "--k=v", "second"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "first");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(Flags, IntList) {
  Flags flags({"--sweep=100,200,300"});
  const auto list = flags.get_int_list("sweep", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 100);
  EXPECT_EQ(list[2], 300);
  const auto fallback = flags.get_int_list("other", {1, 2});
  EXPECT_EQ(fallback.size(), 2u);
}

TEST(Flags, BoolSpellings) {
  Flags flags({"--a=yes", "--b=off", "--c=1", "--d=false"});
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
  Flags bad({"--e=maybe"});
  EXPECT_THROW(bad.get_bool("e", false), std::invalid_argument);
}

/// The message of the `std::invalid_argument` that `read` throws, or "".
template <typename Read>
std::string flag_error(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Flags, TrailingGarbageIsAnErrorNamingTheFlag) {
  Flags flags({"--n=8x", "--rate=2.5s", "--list=1,2x", "--word=abc",
               "--empty="});
  EXPECT_EQ(flag_error([&] { flags.get_int("n", 0); }),
            "--n: expected an integer, got '8x'");
  EXPECT_EQ(flag_error([&] { flags.get_double("rate", 0); }),
            "--rate: expected a number, got '2.5s'");
  EXPECT_NE(flag_error([&] { flags.get_int_list("list", {}); }).find("--list"),
            std::string::npos);
  EXPECT_EQ(flag_error([&] { flags.get_int("word", 0); }),
            "--word: expected an integer, got 'abc'");
  EXPECT_EQ(flag_error([&] { flags.get_int("empty", 0); }),
            "--empty: expected an integer, got ''");
  EXPECT_NE(flag_error([&] { Flags({"--b=maybe"}).get_bool("b", false); })
                .find("--b"),
            std::string::npos);
}

TEST(Flags, BareFlagIsTrueOnlyToGetBool) {
  // A bare flag has no value: a boolean reads it as true, and any other
  // getter refuses it naming the flag, so `--json-out` with its path
  // forgotten cannot become a file named "true".
  Flags flags({"--json-out", "--fast", "--n"});
  EXPECT_TRUE(flags.get_bool("fast", false));
  EXPECT_TRUE(flags.has("json-out"));
  EXPECT_EQ(flag_error([&] { flags.get_string("json-out", "out.json"); }),
            "--json-out: expects a value");
  EXPECT_EQ(flag_error([&] { flags.get_int("n", 0); }), "--n: expects a value");
  EXPECT_EQ(flag_error([&] { flags.get_int_in("n", 1, 1); }),
            "--n: expects a value");
  EXPECT_EQ(flag_error([&] { flags.get_double("n", 0); }),
            "--n: expects a value");
  EXPECT_EQ(flag_error([&] { flags.get_int_list("n", {}); }),
            "--n: expects a value");
  EXPECT_EQ(flag_error([&] { flags.get_double_list("n", {}); }),
            "--n: expects a value");
  EXPECT_EQ(flag_error([&] { flags.get_string_list("json-out", {}); }),
            "--json-out: expects a value");
  EXPECT_NO_THROW(flags.fail_on_unknown());
}

TEST(Flags, DoubleListRefusesPartialNumbers) {
  Flags flags({"--skew=0,0.5,0.95", "--bad=0.5x"});
  EXPECT_EQ(flags.get_double_list("skew", {}),
            (std::vector<double>{0.0, 0.5, 0.95}));
  EXPECT_EQ(flags.get_double_list("other", {1.5}), std::vector<double>{1.5});
  EXPECT_EQ(flag_error([&] { flags.get_double_list("bad", {}); }),
            "--bad: expected a comma-separated list of numbers, got '0.5x'");
}

TEST(Flags, StringListSplitsOnCommas) {
  Flags flags({"--schemes=hash,home", "--gaps=,hash,,"});
  EXPECT_EQ(flags.get_string_list("schemes", {}),
            (std::vector<std::string>{"hash", "home"}));
  EXPECT_EQ(flags.get_string_list("gaps", {}),
            std::vector<std::string>{"hash"});
  EXPECT_EQ(flags.get_string_list("other", {"centralized"}),
            std::vector<std::string>{"centralized"});
}

TEST(Flags, IntInRefusesValuesOutsideItsRange) {
  Flags flags({"--zero=0", "--neg=-1", "--big=9", "--ok=4"});
  EXPECT_EQ(flag_error([&] { flags.get_int_in("zero", 1, 1); }),
            "--zero: expected an integer >= 1, got '0'");
  EXPECT_EQ(flag_error([&] { flags.get_int_in("neg", 1, 1, 8); }),
            "--neg: expected an integer in [1, 8], got '-1'");
  EXPECT_EQ(flag_error([&] { flags.get_int_in("big", 1, 1, 8); }),
            "--big: expected an integer in [1, 8], got '9'");
  EXPECT_EQ(flags.get_int_in("ok", 1, 1, 8), 4);
  EXPECT_EQ(flags.get_int_in("absent", 3, 1, 8), 3);
}

TEST(Flags, FailOnUnknown) {
  Flags flags({"--known=1", "--mystery=2"});
  flags.get_int("known", 0);
  EXPECT_THROW(flags.fail_on_unknown(), std::invalid_argument);
  flags.declare("mystery");
  EXPECT_NO_THROW(flags.fail_on_unknown());
}

TEST(Flags, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--x=5"};
  Flags flags(2, argv);
  EXPECT_EQ(flags.get_int("x", 0), 5);
  EXPECT_TRUE(flags.positional().empty());
}

}  // namespace
}  // namespace agentloc::util
