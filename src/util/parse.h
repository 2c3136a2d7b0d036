/**
 * @file
 * Strict numeric parsing for command-line flags and job-file values.
 */
#ifndef GB_UTIL_PARSE_H
#define GB_UTIL_PARSE_H

#include <charconv>
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

} // namespace gb

#endif // GB_UTIL_PARSE_H
