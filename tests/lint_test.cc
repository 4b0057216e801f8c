// Tests for ddr-lint (src/analysis/source_lint.h): every rule, the
// allowlist, the suppression grammar, and the CLI's exit-code contract.
//
// Fixtures are in-memory strings passed to LintSource with a claimed
// display path — that is what decides rule scoping, so the same snippet
// can be tested inside and outside src/trace/. The fixtures live inside
// raw string literals, which the linter blanks before matching — so
// ddr-lint over tests/ stays clean even though this file is full of
// banned tokens.

#include "src/analysis/source_lint.h"

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"

namespace ddr {
namespace {

std::vector<std::string> Rules(const std::vector<LintIssue>& issues) {
  std::vector<std::string> rules;
  for (const LintIssue& issue : issues) {
    rules.push_back(issue.rule);
  }
  return rules;
}

TEST(LintSource, CleanSourceHasNoIssues) {
  const char* src = R"cc(
    #include <chrono>
    int Add(int a, int b) {
      auto t0 = std::chrono::steady_clock::now();
      (void)t0;
      return a + b;
    }
  )cc";
  EXPECT_TRUE(LintSource("src/core/clean.cc", src).empty());
}

TEST(LintSource, FlagsEachNondeterminismToken) {
  struct Case {
    const char* snippet;
    const char* token;
  };
  const Case cases[] = {
      {"long F() { return time(nullptr); }", "time("},
      {"int F() { return rand(); }", "rand("},
      {"void F() { srand(42); }", "srand("},
      {"#include <random>\nstd::random_device dev;", "random_device"},
      {"auto t = std::chrono::system_clock::now();", "system_clock"},
      {"void F(timeval* tv) { gettimeofday(tv, nullptr); }", "gettimeofday("},
      {"int F() { return getpid(); }", "getpid("},
  };
  for (const Case& c : cases) {
    const std::vector<LintIssue> issues =
        LintSource("src/core/bad.cc", c.snippet);
    ASSERT_EQ(issues.size(), 1u) << c.snippet;
    EXPECT_EQ(issues[0].rule, "ddr-nondeterminism") << c.snippet;
    EXPECT_NE(issues[0].message.find(c.token), std::string::npos) << c.snippet;
  }
}

TEST(LintSource, ReportsFileAndLine) {
  const char* src = "int a;\nint b;\nlong F() { return time(nullptr); }\n";
  const std::vector<LintIssue> issues = LintSource("src/x/y.cc", src);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].file, "src/x/y.cc");
  EXPECT_EQ(issues[0].line, 3);
  EXPECT_EQ(FormatLintIssue(issues[0]).rfind("src/x/y.cc:3: "
                                             "[ddr-nondeterminism]", 0),
            0u);
}

TEST(LintSource, MemberCallsAreNotTheRawFunction) {
  // A method named like a banned function is someone's API, not libc's.
  const char* src = R"cc(
    void F(Timer& t, Timer* p) {
      t.time(1);
      p->time(2);
      p->rand();
    }
  )cc";
  EXPECT_TRUE(LintSource("src/core/member.cc", src).empty());
  // ...but qualified calls to the real thing still match.
  const std::vector<LintIssue> real =
      LintSource("src/core/real.cc", "auto t = std::time(nullptr);");
  ASSERT_EQ(real.size(), 1u);
  EXPECT_EQ(real[0].rule, "ddr-nondeterminism");
}

TEST(LintSource, TokensInsideLiteralsAndCommentsDoNotMatch) {
  const char* src = R"cc(
    // rand() and time() are banned; this comment is not a violation.
    /* neither is std::random_device here */
    const char* kMsg = "call time(nullptr) for the wall clock";
    const char* kRaw = R"(system_clock inside a raw string)";
    char c = 't';
  )cc";
  EXPECT_TRUE(LintSource("src/core/strings.cc", src).empty());
}

TEST(LintSource, AllowlistExemptsNondeterminism) {
  const char* src = "auto t = std::chrono::system_clock::now();";
  LintOptions options;
  options.allow = {"wallclock_probe"};
  EXPECT_EQ(LintSource("src/bench/wallclock_probe.cc", src, options).size(),
            0u);
  // Same snippet, path off the allowlist: flagged.
  EXPECT_EQ(LintSource("src/bench/other.cc", src, options).size(), 1u);
}

TEST(LintSource, UnorderedRangeForFlaggedOnlyInTrace) {
  const char* src = R"cc(
    #include <unordered_map>
    struct Index {
      std::unordered_map<int, long> chunks_;
      long Sum() const {
        long total = 0;
        for (const auto& kv : chunks_) {
          total += kv.second;
        }
        return total;
      }
    };
  )cc";
  const std::vector<LintIssue> in_trace =
      LintSource("src/trace/index.cc", src);
  ASSERT_EQ(in_trace.size(), 1u);
  EXPECT_EQ(in_trace[0].rule, "ddr-unordered-iteration");
  EXPECT_EQ(in_trace[0].line, 7);
  // The same code outside encode/index-writing directories is fine.
  EXPECT_TRUE(LintSource("src/core/index.cc", src).empty());
}

TEST(LintSource, UnorderedKeyedLookupIsFine) {
  const char* src = R"cc(
    #include <unordered_map>
    std::unordered_map<int, int> cache_;
    bool Has(int k) { return cache_.find(k) != cache_.end(); }
    void Drop(int k) { cache_.erase(k); }
  )cc";
  EXPECT_TRUE(LintSource("src/trace/lookup.cc", src).empty());
}

TEST(LintSource, UnorderedExplicitIteratorWalkFlagged) {
  const char* src = R"cc(
    #include <unordered_set>
    std::unordered_set<int> seen_;
    int First() { return *seen_.begin(); }
  )cc";
  const std::vector<LintIssue> issues =
      LintSource("src/trace/walk.cc", src);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "ddr-unordered-iteration");
}

TEST(LintSource, OrderedContainerIterationIsFine) {
  const char* src = R"cc(
    #include <map>
    std::map<int, int> index_;
    long Sum() {
      long t = 0;
      for (const auto& kv : index_) t += kv.second;
      return t;
    }
  )cc";
  EXPECT_TRUE(LintSource("src/trace/ordered.cc", src).empty());
}

TEST(LintSource, RawIoWithoutConsultFlagged) {
  const char* src = R"cc(
    #include <unistd.h>
    int Sync(int fd) { return ::fsync(fd); }
  )cc";
  const std::vector<LintIssue> issues = LintSource("src/trace/io.cc", src);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "ddr-raw-io");
  // tests/ and tools/ do scratch I/O freely; the rule is src/-only.
  EXPECT_TRUE(LintSource("tests/io_test.cc", src).empty());
}

TEST(LintSource, RawIoNearFaultConsultAccepted) {
  const char* src = R"cc(
    Status Sync(int fd) {
      RETURN_IF_ERROR(FaultPoint("x.sync"));
      int rc = ::fsync(fd);
      return rc == 0 ? OkStatus() : UnavailableError("fsync");
    }
  )cc";
  EXPECT_TRUE(LintSource("src/trace/io.cc", src).empty());
}

TEST(LintSource, RawIoConsultTooFarAwayStillFlagged) {
  std::string src = "void Consult() { (void)FaultsArmed(); }\n";
  for (int i = 0; i < 30; ++i) {
    src += "// filler\n";
  }
  src += "int Sync(int fd) { return ::fsync(fd); }\n";
  const std::vector<LintIssue> issues =
      LintSource("src/trace/far.cc", src);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "ddr-raw-io");
}

TEST(LintSource, StreamMemberWriteIsNotRawIo) {
  const char* src = R"cc(
    #include <fstream>
    void Dump(std::ofstream& out, const char* buf, long n) {
      out.write(buf, n);
    }
  )cc";
  EXPECT_TRUE(LintSource("src/trace/stream.cc", src).empty());
}

TEST(LintSource, JustifiedSuppressionSilencesTheFinding) {
  const char* same_line =
      "long F() { return time(nullptr); }  "
      "// NOLINT(ddr-nondeterminism): test fixture needs the wall clock\n";
  EXPECT_TRUE(LintSource("src/core/s.cc", same_line).empty());

  const char* next_line =
      "// NOLINTNEXTLINE(ddr-nondeterminism): fixture wall clock\n"
      "long F() { return time(nullptr); }\n";
  EXPECT_TRUE(LintSource("src/core/s.cc", next_line).empty());
}

TEST(LintSource, SuppressionOfTheWrongRuleDoesNotSilence) {
  const char* src =
      "long F() { return time(nullptr); }  "
      "// NOLINT(ddr-raw-io): wrong rule named\n";
  const std::vector<LintIssue> issues = LintSource("src/core/w.cc", src);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "ddr-nondeterminism");
}

TEST(LintSource, UnjustifiedSuppressionIsItsOwnViolation) {
  const char* src =
      "long F() { return time(nullptr); }  // NOLINT(ddr-nondeterminism)\n";
  const std::vector<LintIssue> issues = LintSource("src/core/u.cc", src);
  const std::vector<std::string> rules = Rules(issues);
  // The bare NOLINT both fails to suppress and is flagged itself.
  EXPECT_EQ(rules, (std::vector<std::string>{"ddr-nondeterminism",
                                             "ddr-suppression"}));
}

TEST(LintSource, ForeignNolintsAreIgnored) {
  // clang-tidy style suppressions without a ddr- rule are not ours.
  const char* src =
      "int F(int x) { return x; }  // NOLINT(readability-identifier)\n"
      "int G(int x) { return x; }  // NOLINT: implicit by design\n";
  EXPECT_TRUE(LintSource("src/core/f.cc", src).empty());
}

TEST(LintSource, RawSyncFlaggedOutsideUtil) {
  const char* src = R"cc(
    #include <mutex>
    #include <thread>
    std::mutex g_mu;
    std::thread g_worker;
  )cc";
  const std::vector<LintIssue> issues = LintSource("src/core/sync.cc", src);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].rule, "ddr-raw-sync");
  EXPECT_NE(issues[0].message.find("std::mutex"), std::string::npos);
  EXPECT_EQ(issues[1].rule, "ddr-raw-sync");
  EXPECT_NE(issues[1].message.find("std::thread"), std::string::npos);
}

TEST(LintSource, RawSyncExemptsWrapperAndSchedulerFloors) {
  const char* src = "std::mutex g_mu;\nstd::thread g_t;\n";
  // The wrappers themselves and the cooperative scheduler beneath them
  // must use the real primitives.
  EXPECT_TRUE(LintSource("src/util/thread_annotations.h", src).empty());
  EXPECT_TRUE(LintSource("src/analysis/sched/sched.cc", src).empty());
  // tests/ and tools/ are out of scope entirely.
  EXPECT_TRUE(LintSource("tests/some_test.cc", src).empty());
  // Any other src/ directory is in scope.
  EXPECT_EQ(LintSource("src/server/s.cc", src).size(), 2u);
}

TEST(LintSource, RawSyncCondVarAnyIsOneFindingNotTwo) {
  // std::condition_variable must not also fire inside the _any spelling.
  const std::vector<LintIssue> any_form = LintSource(
      "src/core/cv.cc", "std::condition_variable_any cv_;\n");
  ASSERT_EQ(any_form.size(), 1u);
  EXPECT_NE(any_form[0].message.find("condition_variable_any"),
            std::string::npos);
  const std::vector<LintIssue> plain = LintSource(
      "src/core/cv.cc", "std::condition_variable cv_;\n");
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].message.find("condition_variable_any"),
            std::string::npos);
}

TEST(LintSource, RawSyncWrappersAndJustifiedSuppressionPass) {
  // The sanctioned spellings produce nothing...
  const char* good = R"cc(
    #include "src/util/thread_annotations.h"
    ddr::Mutex mu_;
    ddr::CondVar cv_;
    ddr::OsThread worker_;
  )cc";
  EXPECT_TRUE(LintSource("src/core/good.cc", good).empty());
  // ...and a justified NOLINT silences a deliberate raw use.
  const char* suppressed =
      "std::mutex g_mu;  "
      "// NOLINT(ddr-raw-sync): pre-main init, wrappers not constructed\n";
  EXPECT_TRUE(LintSource("src/core/sup.cc", suppressed).empty());
}

TEST(LintSource, RawContextFlaggedEverywhere) {
  const char* src = R"cc(
    #include <ucontext.h>
    ucontext_t a, b;
    void Go() {
      getcontext(&a);
      makecontext(&a, nullptr, 0);
      ::swapcontext(&b, &a);
      setcontext(&b);
    }
  )cc";
  const std::vector<LintIssue> issues = LintSource("src/core/ctx.cc", src);
  ASSERT_EQ(issues.size(), 5u);
  for (const LintIssue& issue : issues) {
    EXPECT_EQ(issue.rule, "ddr-raw-context");
  }
  EXPECT_NE(issues[0].message.find("ucontext.h"), std::string::npos);
  EXPECT_NE(issues[3].message.find("swapcontext("), std::string::npos);
  // No file is exempt, not even the fiber implementation.
  EXPECT_EQ(LintSource("src/sim/fiber.cc", src).size(), 5u);
  // Unlike ddr-raw-sync, tests/ and tools/ are in scope too.
  EXPECT_EQ(LintSource("tests/sim_test.cc", src).size(), 5u);
  EXPECT_EQ(LintSource("src/sim/environment.cc", src).size(), 5u);
  // Member calls of the same name are not the libc primitives.
  EXPECT_TRUE(
      LintSource("src/core/m.cc", "void F(T& t) { t.setcontext(1); }\n")
          .empty());
}

// ---------------------------------------------------------------------------
// JSON output: FormatLintIssuesJson must round-trip through an actual
// JSON parser (a minimal one lives below), not just look JSON-shaped.
// ---------------------------------------------------------------------------

// Minimal recursive-descent JSON reader covering the subset the report
// uses: objects, arrays, strings with escapes, and integers.
class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : text_(text) {}

  bool ParseObjectKeys(std::vector<std::string>* keys) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      keys->push_back(key);
      SkipWs();
      if (!Consume(':')) return false;
      if (!SkipValue()) return false;
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      return Consume('}');
    }
  }

  bool SkipValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      std::vector<std::string> keys;
      MiniJson sub(text_.substr(pos_));
      if (!sub.ParseObjectKeys(&keys)) return false;
      pos_ += sub.pos_;
      return true;
    }
    if (c == '[') {
      ++pos_;
      SkipWs();
      if (Consume(']')) return true;
      for (;;) {
        if (!SkipValue()) return false;
        SkipWs();
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      std::string s;
      return ParseString(&s);
    }
    // Number / true / false / null: chew the token.
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'u': pos_ += 4; out->push_back('?'); break;
          default: return false;
        }
        continue;
      }
      out->push_back(c);
    }
    return false;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(LintJson, EmptyReportParses) {
  const std::string json = FormatLintIssuesJson({});
  MiniJson parser(json);
  std::vector<std::string> keys;
  ASSERT_TRUE(parser.ParseObjectKeys(&keys));
  EXPECT_TRUE(parser.AtEnd());
  EXPECT_EQ(keys, (std::vector<std::string>{"count", "issues"}));
}

TEST(LintJson, RealFindingsRoundTrip) {
  // Messages contain quotes-in-quotes hazards: apostrophes, the banned
  // token with its '(' — and we add a file path with a backslash and a
  // quote to force escaping through JsonEscape.
  std::vector<LintIssue> issues =
      LintSource("src/core/j.cc", "long F() { return time(nullptr); }\n"
                                  "std::mutex g_mu;\n");
  ASSERT_EQ(issues.size(), 2u);
  issues.push_back(LintIssue{"src\\odd\"name.cc", 7, "ddr-raw-sync",
                             "message with \"quotes\"\nand a newline"});
  const std::string json = FormatLintIssuesJson(issues);
  MiniJson parser(json);
  std::vector<std::string> keys;
  ASSERT_TRUE(parser.ParseObjectKeys(&keys)) << json;
  EXPECT_TRUE(parser.AtEnd()) << json;
  // The escaped path/message survive verbatim in the encoded text.
  EXPECT_NE(json.find("src\\\\odd\\\"name.cc"), std::string::npos);
  EXPECT_NE(json.find("\\nand a newline"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LintTree + the CLI contract.
// ---------------------------------------------------------------------------

class LintTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("lint_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "src" / "trace");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void WriteFile(const std::string& rel, const std::string& contents) {
    std::ofstream out(root_ / rel, std::ios::binary);
    out << contents;
  }

  std::filesystem::path root_;
};

TEST_F(LintTreeTest, WalksTreeAndReportsInSortedFileOrder) {
  WriteFile("src/trace/zz.cc", "long F() { return time(nullptr); }\n");
  WriteFile("src/trace/aa.cc", "int G() { return rand(); }\n");
  WriteFile("src/trace/skip.txt", "time( rand( -- not a source file\n");
  const Result<std::vector<LintIssue>> issues =
      LintTree({(root_ / "src").generic_string()});
  ASSERT_TRUE(issues.ok()) << issues.status();
  ASSERT_EQ(issues->size(), 2u);
  EXPECT_NE((*issues)[0].file.find("aa.cc"), std::string::npos);
  EXPECT_NE((*issues)[1].file.find("zz.cc"), std::string::npos);
}

TEST_F(LintTreeTest, MissingRootIsAnError) {
  const Result<std::vector<LintIssue>> issues =
      LintTree({(root_ / "no-such-dir").generic_string()});
  ASSERT_FALSE(issues.ok());
  EXPECT_EQ(issues.status().code(), StatusCode::kNotFound);
}

// The CLI's exit-code contract: 0 clean, 1 violations. Runs the real
// binary, which ctest launches from the build directory; skipped when
// the tools were not built (e.g. a tests-only configuration).
TEST_F(LintTreeTest, CliExitCodes) {
  if (!std::filesystem::exists("ddr-lint")) {
    GTEST_SKIP() << "ddr-lint binary not built in this configuration";
  }
  WriteFile("src/trace/clean.cc", "int Add(int a, int b) { return a + b; }\n");
  const std::string dir = (root_ / "src").generic_string();
  int rc = std::system(("./ddr-lint " + dir + " > /dev/null 2>&1").c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 0);

  WriteFile("src/trace/dirty.cc", "long F() { return time(nullptr); }\n");
  rc = std::system(("./ddr-lint " + dir + " > /dev/null 2>&1").c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 1);

  // --format=json keeps the same exit-code contract.
  rc = std::system(
      ("./ddr-lint --format=json " + dir + " > /dev/null 2>&1").c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 1);
}

}  // namespace
}  // namespace ddr
