#pragma once

/// \file string_util.h
/// \brief Small string helpers shared by IO, the command-line tools and
/// the bench harnesses.

#include <string>
#include <string_view>
#include <vector>

namespace srs {

/// Splits `s` on any of the characters in `delims`, skipping empty pieces.
std::vector<std::string_view> SplitTokens(std::string_view s,
                                          std::string_view delims = " \t");

/// Removes leading/trailing whitespace.
std::string_view Trim(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; returns false on malformed input or
/// overflow.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Strict parsing of command-line flag values: `value` (null when the
/// flag was last on the line) must be a whole decimal integer in
/// [min_value, max_value]. Otherwise prints a message naming `flag` and
/// the offending text to stderr and returns false — so nothing atoi would
/// silently fold to 0 (trailing garbage, an empty value, overflow) gets
/// through.
bool ParseIntFlag(const char* flag, const char* value, long long min_value,
                  long long max_value, long long* out);
bool ParseIntFlag(const char* flag, const char* value, long long min_value,
                  long long max_value, int* out);

/// As ParseIntFlag, for a whole floating-point number.
bool ParseDoubleFlag(const char* flag, const char* value, double* out);

}  // namespace srs
