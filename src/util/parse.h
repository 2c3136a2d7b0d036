/**
 * @file
 * Strict parsing of command-line and job-file values (numbers,
 * durations, HOST:PORT) and the unknown-name messages the parsers
 * share.
 */
#ifndef GB_UTIL_PARSE_H
#define GB_UTIL_PARSE_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

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
 * Longest deadline `client --wait-timeout` or a WAIT request may ask
 * for (one day); omit the timeout to wait with no deadline.
 */
inline constexpr unsigned kMaxWaitSeconds = 86400;

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

/** A split "HOST:PORT". */
struct HostPort
{
    std::string host;
    u16 port = 0;
};

/** Split "HOST:PORT"; throws InputError on a malformed spec. */
inline HostPort
parseHostPort(const std::string& spec)
{
    const size_t colon = spec.rfind(':');
    requireInput(colon != std::string::npos && colon > 0 &&
                     colon + 1 < spec.size(),
                 "expected HOST:PORT, got '" + spec + "'");
    HostPort out;
    out.host = spec.substr(0, colon);
    out.port = static_cast<u16>(
        parseUnsigned("port", spec.substr(colon + 1), 0, 65535));
    return out;
}

/**
 * The entry of `known` nearest to `name` when at most 2 edits away
 * (the first of equally near ones), else an empty view: the
 * did-you-mean suggestion for a mistyped flag or kernel name.
 */
inline std::string_view
nearestName(std::string_view name, const std::vector<std::string>& known)
{
    std::string_view best;
    size_t best_dist = 3; // suggest only near misses
    std::vector<size_t> prev, curr;
    for (const std::string& entry : known) {
        // Levenshtein distance between name and entry, row by row.
        prev.resize(entry.size() + 1);
        curr.resize(entry.size() + 1);
        for (size_t j = 0; j <= entry.size(); ++j) prev[j] = j;
        for (size_t i = 1; i <= name.size(); ++i) {
            curr[0] = i;
            for (size_t j = 1; j <= entry.size(); ++j) {
                curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1,
                                    prev[j - 1] + (name[i - 1] !=
                                                   entry[j - 1])});
            }
            std::swap(prev, curr);
        }
        if (prev[entry.size()] < best_dist) {
            best_dist = prev[entry.size()];
            best = entry;
        }
    }
    return best;
}

/**
 * Throws InputError "<what>: <name>", with the nearest entry of
 * `known` as a did-you-mean, unless `name` is in `known`: the one
 * kernel-name check of the CLI, the bench binaries and serve, e.g.
 * "unknown kernel: fmii (did you mean fmi?)".
 */
inline void
requireKnownName(std::string_view what, std::string_view name,
                 const std::vector<std::string>& known)
{
    if (std::find(known.begin(), known.end(), name) != known.end()) {
        return;
    }
    std::string message = std::string(what) + ": " + std::string(name);
    const std::string_view best = nearestName(name, known);
    if (!best.empty()) {
        message += " (did you mean " + std::string(best) + "?)";
    }
    throw InputError(message);
}

/**
 * "unknown option: --thread=8 (did you mean --threads?)": the error
 * message for `arg`, suggesting the flag in `known` (names without
 * "=value") nearest to `arg`'s name.
 */
inline std::string
unknownOption(std::string_view arg, const std::vector<std::string>& known)
{
    const std::string_view best =
        nearestName(arg.substr(0, arg.find('=')), known);
    std::string message = "unknown option: " + std::string(arg);
    if (!best.empty()) {
        message += " (did you mean " + std::string(best) + "?)";
    }
    return message;
}

} // namespace gb

#endif // GB_UTIL_PARSE_H
