#include "src/common/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace pcor {
namespace strings {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string HumanDuration(double seconds) {
  if (seconds < 0) {
    // Built with insert() rather than `"-" + ...` — the rvalue operator+
    // trips a GCC 12 -Wrestrict false positive under -O3 -Werror.
    std::string out = HumanDuration(-seconds);
    out.insert(out.begin(), '-');
    return out;
  }
  if (seconds < 1.0) return Format("%.0fms", seconds * 1000.0);
  if (seconds < 60.0) return Format("%.1fs", seconds);
  if (seconds < 3600.0) {
    int m = static_cast<int>(seconds / 60.0);
    return Format("%dm %04.1fs", m, seconds - 60.0 * m);
  }
  int h = static_cast<int>(seconds / 3600.0);
  double rem = seconds - 3600.0 * h;
  return Format("%dh %dm", h, static_cast<int>(rem / 60.0));
}

size_t ParseSizeOr(std::string_view s, size_t fallback) {
  if (s.empty()) return fallback;
  char* end = nullptr;
  std::string tmp(s);
  unsigned long long v = std::strtoull(tmp.c_str(), &end, 10);
  if (end == tmp.c_str() || *end != '\0') return fallback;
  return static_cast<size_t>(v);
}

double ParseDoubleOr(std::string_view s, double fallback) {
  if (s.empty()) return fallback;
  char* end = nullptr;
  std::string tmp(s);
  double v = std::strtod(tmp.c_str(), &end);
  if (end == tmp.c_str() || *end != '\0') return fallback;
  return v;
}

size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v ? ParseSizeOr(v, fallback) : fallback;
}

double EnvDoubleOr(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? ParseDoubleOr(v, fallback) : fallback;
}

}  // namespace strings
}  // namespace pcor
