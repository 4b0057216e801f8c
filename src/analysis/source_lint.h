// ddr-lint: repo-aware static checks for the determinism invariants the
// compiler cannot see.
//
// The toolkit's whole value proposition is bit-identical replay, which a
// single stray wall-clock read or hash-order-dependent loop quietly
// destroys. These rules encode the project's invariants as source checks:
//
//   ddr-nondeterminism       banned nondeterminism sources (rand(, time(,
//                            std::random_device, system_clock, ...)
//                            anywhere outside the allowlist.
//   ddr-unordered-iteration  iteration over a std::unordered_map/set in
//                            encode/index-writing code (src/trace/):
//                            hash-order iteration makes the on-disk bytes
//                            depend on pointer values and libstdc++
//                            versions.
//   ddr-raw-io               a raw ::write(/pwrite(/fsync(/fdatasync(/
//                            rename( in src/ with no fault-injection
//                            consult (FaultPoint & friends) in the
//                            preceding window — durability I/O that
//                            bypasses the crash-enumeration harness.
//   ddr-raw-sync             raw std::mutex / std::shared_mutex /
//                            std::condition_variable[_any] / std::thread
//                            in src/ outside src/util/ (and outside the
//                            scheduler itself, src/analysis/sched/):
//                            synchronization the schedule explorer and
//                            the thread-safety analysis cannot see. Use
//                            the wrappers (ddr::Mutex, ddr::CondVar,
//                            ddr::OsThread) from
//                            src/util/thread_annotations.h.
//   ddr-raw-context          getcontext( / makecontext( / swapcontext( /
//                            setcontext( or <ucontext.h> anywhere: a
//                            context switch that bypasses ddr::Fiber
//                            skips the sanitizer fiber hooks.
//   ddr-suppression          a ddr NOLINT marker with no justification
//                            text after it. Suppressions are allowed,
//                            silent ones are not. This rule cannot
//                            itself be suppressed.
//
// Matching is token-based on comment- and literal-stripped source (string
// and char literals are blanked before any rule runs, so a rule name or a
// banned token inside a string — e.g. this linter's own tables, or a test
// fixture — never matches). A finding on line N is suppressed by
// `// NOLINT(ddr-<rule>): <why>` on line N or `// NOLINTNEXTLINE(...)`
// on line N-1.

#ifndef SRC_ANALYSIS_SOURCE_LINT_H_
#define SRC_ANALYSIS_SOURCE_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace ddr {

struct LintIssue {
  std::string file;  // display path as given by the caller
  int line = 0;      // 1-based
  std::string rule;  // "ddr-nondeterminism", ...
  std::string message;
};

// "file:line: [rule] message" — the one format everything prints.
std::string FormatLintIssue(const LintIssue& issue);

// The whole report as one JSON object:
//   {"count":N,"issues":[{"file":...,"line":N,"rule":...,"message":...}]}
// (trailing newline included). Machine-readable twin of the text report
// for `ddr-lint --format=json` and the CI artifact.
std::string FormatLintIssuesJson(const std::vector<LintIssue>& issues);

struct LintOptions {
  // Path substrings exempt from ddr-nondeterminism (e.g. a benchmark
  // directory that genuinely wants wall-clock time). The fault-injection
  // wrapper itself (src/util/fault_injection) is always exempt from
  // ddr-raw-io; that is built in, not configurable.
  std::vector<std::string> allow;
};

// Lints one file's contents. `display_path` decides rule scoping (the
// unordered-iteration rule fires only under src/trace/, the raw-I/O rule
// only under src/) and is echoed into LintIssue::file — so in-memory test
// fixtures choose their scope by the path they claim. Issues are in line
// order.
std::vector<LintIssue> LintSource(std::string_view display_path,
                                  std::string_view contents,
                                  const LintOptions& options = {});

// Walks each root (file or directory, recursively), lints every
// *.cc/*.h/*.cpp/*.hpp in sorted path order, and concatenates the
// issues. Fails only on environmental errors (missing root, unreadable
// file) — lint findings are data, not errors.
Result<std::vector<LintIssue>> LintTree(const std::vector<std::string>& roots,
                                        const LintOptions& options = {});

}  // namespace ddr

#endif  // SRC_ANALYSIS_SOURCE_LINT_H_
