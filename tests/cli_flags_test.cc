// Tests for the centralized CLI flag handling (src/util/cli_flags.h):
// every ddr-trace subcommand runs its argument vector through
// CheckKnownFlags, so the property under test is that typo'd flags fail
// loudly while known flags (both "--flag v" and "--flag=v" forms) and
// positionals pass through unchanged.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/cli_flags.h"

namespace ddr {
namespace {

constexpr CliFlag kFlags[] = {{"--io", true},
                              {"--cache-mb", true},
                              {"--verbose", false}};

// argv helper: keeps the strings alive and hands out char* const*.
class Argv {
 public:
  explicit Argv(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {
    for (std::string& token : tokens_) {
      pointers_.push_back(token.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char* const* argv() const { return pointers_.data(); }

 private:
  std::vector<std::string> tokens_;
  std::vector<char*> pointers_;
};

TEST(CliFlagsTest, KnownFlagsInBothFormsPass) {
  Argv args({"ddr-trace", "verify", "file.ddrt", "--io", "mmap",
             "--cache-mb=64", "--verbose"});
  EXPECT_TRUE(CheckKnownFlags(args.argc(), args.argv(), 2, kFlags).ok());
}

TEST(CliFlagsTest, UnknownFlagFailsNamingTheOffender) {
  Argv args({"ddr-trace", "replay", "file.ddrt", "--cach-mb", "64"});
  const Status status = CheckKnownFlags(args.argc(), args.argv(), 2, kFlags);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--cach-mb"), std::string::npos)
      << status.message();

  // The "=" form of an unknown flag fails too.
  Argv inline_form({"ddr-trace", "replay", "file.ddrt", "--cach-mb=64"});
  EXPECT_FALSE(
      CheckKnownFlags(inline_form.argc(), inline_form.argv(), 2, kFlags).ok());
}

TEST(CliFlagsTest, ValueFlagConsumesItsSpacedValue) {
  // "mmap" after "--io" is the flag's value, not an unknown token.
  Argv args({"ddr-trace", "verify", "file.ddrt", "--io", "mmap"});
  EXPECT_TRUE(CheckKnownFlags(args.argc(), args.argv(), 2, kFlags).ok());
}

TEST(CliFlagsTest, ValueFlagMissingItsValueFails) {
  // A trailing value flag would otherwise validate but have its value
  // lookup return nullptr — the user who meant "--io mmap" silently runs
  // on the default backend.
  Argv trailing({"ddr-trace", "verify", "file.ddrt", "--io"});
  const Status status =
      CheckKnownFlags(trailing.argc(), trailing.argv(), 2, kFlags);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("missing its value"), std::string::npos)
      << status.message();

  // A flag-shaped "value" is a missing value too, not a consumable token:
  // otherwise "--cache-mb --verbose" validates with two interpretations of
  // "--verbose" (consumed value here, live flag in HasCliFlag).
  Argv flagish(
      {"ddr-trace", "verify", "file.ddrt", "--cache-mb", "--verbose"});
  EXPECT_FALSE(CheckKnownFlags(flagish.argc(), flagish.argv(), 2, kFlags).ok());
}

TEST(CliFlagsTest, BoolFlagRejectsInlineValue) {
  // "--verbose=false" must not quietly mean "--verbose": HasCliFlag matches
  // the prefix, which would ENABLE the flag the user tried to disable.
  Argv args({"ddr-trace", "record", "sum", "out.ddrt", "--verbose=false"});
  const Status status = CheckKnownFlags(args.argc(), args.argv(), 2, kFlags);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("does not take a value"), std::string::npos)
      << status.message();
}

TEST(CliFlagsTest, PositionalsSkipFlagsAndTheirValues) {
  Argv args({"ddr-trace", "corpus", "merge", "out.ddrc", "in1.ddrc", "--io",
             "mmap", "in2.ddrc", "--cache-mb=8", "in3.ddrc", "--verbose"});
  const std::vector<std::string> positionals =
      PositionalArgs(args.argc(), args.argv(), 4, kFlags);
  EXPECT_EQ(positionals,
            (std::vector<std::string>{"in1.ddrc", "in2.ddrc", "in3.ddrc"}));
}

TEST(CliFlagsTest, FlagValueLookupHandlesBothForms) {
  Argv args({"ddr-trace", "verify", "file.ddrt", "--io", "pread",
             "--cache-mb=16"});
  EXPECT_STREQ(CliFlagValue(args.argc(), args.argv(), 2, "--io"), "pread");
  EXPECT_STREQ(CliFlagValue(args.argc(), args.argv(), 2, "--cache-mb"), "16");
  EXPECT_EQ(CliFlagValue(args.argc(), args.argv(), 2, "--absent"), nullptr);
  EXPECT_TRUE(HasCliFlag(args.argc(), args.argv(), 2, "--io"));
  EXPECT_FALSE(HasCliFlag(args.argc(), args.argv(), 2, "--absent"));
}

TEST(CliFlagsTest, ParseCliUint64RejectsJunkAndWraps) {
  ASSERT_TRUE(ParseCliUint64("0").ok());
  EXPECT_EQ(*ParseCliUint64("0"), 0u);
  EXPECT_EQ(*ParseCliUint64("18446744073709551615"), ~uint64_t{0});

  // strtoull would quietly wrap "-1" to 2^64-1 and skip leading spaces;
  // a CLI count must reject all of these.
  for (const char* junk : {"", "-1", "+2", " 3", "4x", "x4", "1e3",
                           "18446744073709551616"}) {
    EXPECT_FALSE(ParseCliUint64(junk).ok()) << "'" << junk << "'";
  }
  EXPECT_FALSE(ParseCliUint64(nullptr).ok());
}

}  // namespace
}  // namespace ddr
