#pragma once

#include <string>
#include <string_view>

namespace pcor {
namespace strings {

/// \brief printf-style formatting into std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Renders seconds as "1.5s", "2m 03s", or "450ms" as appropriate.
std::string HumanDuration(double seconds);

/// \brief Parses a non-negative integer; returns fallback on failure.
size_t ParseSizeOr(std::string_view s, size_t fallback);

/// \brief Parses a double; returns fallback on failure.
double ParseDoubleOr(std::string_view s, double fallback);

/// \brief Reads an environment variable as size_t/double, with fallback.
size_t EnvSizeOr(const char* name, size_t fallback);
double EnvDoubleOr(const char* name, double fallback);

}  // namespace strings
}  // namespace pcor
