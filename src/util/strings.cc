#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace procmine {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) parts.emplace_back(text.substr(start, i - start));
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  // std::from_chars is the allocation-free fast path; the strtoll dialect it
  // replaces also accepted leading whitespace and an explicit '+', so those
  // are handled here to keep the accepted language unchanged.
  size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  size_t digits = i;
  if (digits < text.size() && text[digits] == '+') ++digits;
  const char* first = text.data() + digits;
  const char* last = text.data() + text.size();
  // from_chars itself handles '-'; after an explicit '+' only digits may
  // follow ("+-5" must stay malformed, as strtoll treated it).
  if (digits > i && (first == last || *first == '-')) {
    return Status::InvalidArgument("malformed integer: '" + std::string(text) +
                                   "'");
  }
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: '" + std::string(text) +
                              "'");
  }
  if (ec != std::errc() || ptr != last) {
    return Status::InvalidArgument("malformed integer: '" + std::string(text) +
                                   "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty float literal");
  std::string buf(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("float out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("malformed float: '" + buf + "'");
  }
  return value;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat("\\u%04x", static_cast<unsigned>(c) & 0xff));
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendJsonQuoted(std::string* out, std::string_view text) {
  out->push_back('"');
  AppendJsonEscaped(out, text);
  out->push_back('"');
}

}  // namespace procmine
