/**
 * @file
 * Strict numeric parsing for command-line flags and job-file values.
 */
#ifndef GB_UTIL_PARSE_H
#define GB_UTIL_PARSE_H

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "util/common.h"

namespace gb {

/**
 * Parse all of `text` as a base-10 unsigned integer in [min, max].
 * A sign, leading or trailing garbage, overflow and out-of-range
 * values throw InputError naming `what` (e.g. "--threads").
 */
inline unsigned
parseUnsigned(std::string_view what, std::string_view text,
              unsigned min = 0,
              unsigned max = std::numeric_limits<unsigned>::max())
{
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    requireInput(ec == std::errc() && ptr == text.data() + text.size(),
                 std::string(what) + " expects a non-negative number, "
                     "got '" + std::string(text) + "'");
    requireInput(value >= min && value <= max,
                 std::string(what) + " out of range: " +
                     std::string(text) + " (expected " +
                     std::to_string(min) + ".." + std::to_string(max) +
                     ")");
    return value;
}

/**
 * Parse all of `text` as a decimal number of seconds in [0, max].
 * A sign, leading or trailing garbage, nan/inf and out-of-range values
 * throw InputError naming `what` (e.g. "--wait-timeout").
 */
inline double
parseSeconds(std::string_view what, std::string_view text, unsigned max)
{
    double value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    requireInput(ec == std::errc() && ptr == end && text.front() != '-' &&
                     std::isfinite(value),
                 std::string(what) + " expects a non-negative number "
                     "of seconds, got '" + std::string(text) + "'");
    requireInput(value <= max, std::string(what) + " out of range: " +
                                   std::string(text) + " (expected 0.." +
                                   std::to_string(max) + ")");
    return value;
}

} // namespace gb

#endif // GB_UTIL_PARSE_H
