#ifndef TABULAR_EXEC_FLAGS_H_
#define TABULAR_EXEC_FLAGS_H_

// Strict parsing of numeric settings: `TABULAR_THREADS` and the tools'
// flags and environment variables. A value that does not parse exactly must
// fail loudly: it must never become 0 (for a limit or budget, 0 means "off")
// or a prefix of itself ("12x" as 12).

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace tabular::exec {

/// A non-negative decimal integer: digits only, no sign, no blanks.
inline bool ParseLimit(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

/// A finite decimal number, optionally signed or fractional; no blanks.
inline bool ParseNumber(const char* s, double* out) {
  if (s == nullptr ||
      !((*s >= '0' && *s <= '9') || *s == '-' || *s == '+' || *s == '.')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace tabular::exec

#endif  // TABULAR_EXEC_FLAGS_H_
