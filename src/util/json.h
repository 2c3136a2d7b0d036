/**
 * @file
 * JSON string escaping shared by the metrics sink and the trace
 * exporter. Header-only: gb_trace is the bottom module and links
 * nothing, so the one definition cannot live in a compiled library.
 */
#ifndef GB_UTIL_JSON_H
#define GB_UTIL_JSON_H

#include <cstdio>
#include <string>
#include <string_view>

namespace gb {

/**
 * Escape `text` for embedding in a JSON string literal (no quotes):
 * quotes, backslashes and control characters; UTF-8 passes through.
 */
inline std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace gb

#endif // GB_UTIL_JSON_H
