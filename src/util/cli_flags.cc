#include "src/util/cli_flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace ddr {

namespace {

// Flag-token classification shared by the scanner entry points. A token
// matches a flag either exactly or as "name=..." (the inline-value form).
enum class TokenKind {
  kNotAFlag,            // does not begin with "--"
  kBoolFlag,            // known presence-only flag
  kValueInline,         // known value flag in "--flag=value" form
  kValueSpaced,         // known value flag; the next token is its value
  kBoolFlagWithValue,   // presence-only flag given "=value" — an error
  kUnknownFlag,         // begins with "--" but matches nothing in the table
};

TokenKind Classify(const char* token, std::span<const CliFlag> known) {
  if (std::strncmp(token, "--", 2) != 0) {
    return TokenKind::kNotAFlag;
  }
  for (const CliFlag& flag : known) {
    const size_t flag_len = std::strlen(flag.name);
    if (std::strcmp(token, flag.name) == 0) {
      return flag.takes_value ? TokenKind::kValueSpaced : TokenKind::kBoolFlag;
    }
    if (std::strncmp(token, flag.name, flag_len) == 0 &&
        token[flag_len] == '=') {
      // "--verbose=false" on a presence-only flag must not quietly mean
      // "--verbose" — HasCliFlag would match the prefix and ENABLE it,
      // inverting the user's expressed intent.
      return flag.takes_value ? TokenKind::kValueInline
                              : TokenKind::kBoolFlagWithValue;
    }
  }
  return TokenKind::kUnknownFlag;
}

// A spaced value must exist and must not itself look like a flag:
// otherwise "--report --threads 8" validates with "--threads" consumed
// as --report's value while CliFlagValue independently re-matches it as
// a flag — one token with two interpretations, and a stray file named
// "./--threads" on disk.
bool ValidSpacedValue(int argc, char* const* argv, int i) {
  return i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
}

}  // namespace

Status CheckKnownFlags(int argc, char* const* argv, int start,
                       std::span<const CliFlag> known) {
  for (int i = start; i < argc; ++i) {
    switch (Classify(argv[i], known)) {
      case TokenKind::kNotAFlag:
      case TokenKind::kBoolFlag:
      case TokenKind::kValueInline:
        break;
      case TokenKind::kValueSpaced:
        if (!ValidSpacedValue(argc, argv, i)) {
          return InvalidArgumentError(std::string("flag '") + argv[i] +
                                      "' is missing its value");
        }
        ++i;  // the flag's value
        break;
      case TokenKind::kBoolFlagWithValue:
        return InvalidArgumentError(std::string("flag '") + argv[i] +
                                    "' does not take a value");
      case TokenKind::kUnknownFlag:
        return InvalidArgumentError(std::string("unknown flag '") + argv[i] +
                                    "'");
    }
  }
  return OkStatus();
}

std::vector<std::string> PositionalArgs(int argc, char* const* argv, int start,
                                        std::span<const CliFlag> known) {
  std::vector<std::string> positionals;
  for (int i = start; i < argc; ++i) {
    switch (Classify(argv[i], known)) {
      case TokenKind::kNotAFlag:
        positionals.emplace_back(argv[i]);
        break;
      case TokenKind::kValueSpaced:
        if (ValidSpacedValue(argc, argv, i)) {
          ++i;
        }
        break;
      case TokenKind::kBoolFlag:
      case TokenKind::kValueInline:
      case TokenKind::kBoolFlagWithValue:  // CheckKnownFlags rejected these
      case TokenKind::kUnknownFlag:
        break;
    }
  }
  return positionals;
}

const char* CliFlagValue(int argc, char* const* argv, int start,
                         const char* flag) {
  const size_t flag_len = std::strlen(flag);
  for (int i = start; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      return argv[i] + flag_len + 1;
    }
  }
  return nullptr;
}

bool HasCliFlag(int argc, char* const* argv, int start, const char* flag) {
  const size_t flag_len = std::strlen(flag);
  for (int i = start; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 ||
        (std::strncmp(argv[i], flag, flag_len) == 0 &&
         argv[i][flag_len] == '=')) {
      return true;
    }
  }
  return false;
}

Result<uint64_t> ParseCliUint64(const char* text) {
  if (text == nullptr || *text == '\0') {
    return InvalidArgumentError("empty numeric value");
  }
  // strtoull itself skips whitespace and accepts a sign ("-1" wraps to
  // 2^64-1); a CLI count must be plain digits.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return InvalidArgumentError(std::string("invalid numeric value '") + text +
                                "'");
  }
  char* end = nullptr;
  errno = 0;
  const uint64_t value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError(std::string("invalid numeric value '") + text +
                                "'");
  }
  return value;
}

}  // namespace ddr
