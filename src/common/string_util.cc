#include "srs/common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace srs {

std::vector<std::string_view> SplitTokens(std::string_view s,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start < s.size()) {
    size_t end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool ParseIntFlag(const char* flag, const char* value, long long min_value,
                  long long max_value, long long* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    return false;
  }
  const char* end = value + std::strlen(value);
  long long parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", flag, value);
    return false;
  }
  if (parsed < min_value || parsed > max_value) {
    std::fprintf(stderr, "%s: %lld out of range [%lld, %lld]\n", flag,
                 parsed, min_value, max_value);
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseIntFlag(const char* flag, const char* value, long long min_value,
                  long long max_value, int* out) {
  long long wide = 0;
  if (!ParseIntFlag(flag, value, min_value, max_value, &wide)) return false;
  *out = static_cast<int>(wide);
  return true;
}

bool ParseDoubleFlag(const char* flag, const char* value, double* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    return false;
  }
  const char* end = value + std::strlen(value);
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag, value);
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace srs
