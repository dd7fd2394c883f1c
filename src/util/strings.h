// Small string utilities (split/join/trim/parse/format).
//
// gcc 12's libstdc++ does not ship std::format, so StrFormat wraps snprintf.

#ifndef PROCMINE_UTIL_STRINGS_H_
#define PROCMINE_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace procmine {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits `text` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses a base-10 signed 64-bit integer; the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view text);

/// Parses a floating point number; the whole string must be consumed.
Result<double> ParseDouble(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends `text` to `out` with JSON string escaping (quotes, backslash,
/// control characters); the surrounding quotes are the caller's.
void AppendJsonEscaped(std::string* out, std::string_view text);

/// Appends `text` to `out` as a quoted JSON string.
void AppendJsonQuoted(std::string* out, std::string_view text);

}  // namespace procmine

#endif  // PROCMINE_UTIL_STRINGS_H_
