#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <iostream>

namespace gb {

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

Table&
Table::newRow()
{
    rows_.emplace_back();
    return *this;
}

Table&
Table::cellF(double value, int precision)
{
    rows_.back().push_back(formatF(value, precision));
    return *this;
}

void
Table::print(std::ostream& os) const
{
    std::vector<size_t> widths;
    auto grow = [&](const std::vector<std::string>& row) {
        if (row.size() > widths.size()) widths.resize(row.size(), 0);
        for (size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    };
    grow(header_);
    for (const auto& row : rows_) grow(row);

    size_t total = widths.empty() ? 0 : 3 * (widths.size() - 1);
    for (size_t w : widths) total += w;

    auto rule = [&] { os << std::string(total, '-') << '\n'; };
    auto emit = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < widths.size(); ++c) {
            const std::string& cell = c < row.size() ? row[c] : "";
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << cell;
            if (c + 1 < widths.size()) os << " | ";
        }
        os << '\n';
    };

    os << "== " << title_ << " ==\n";
    rule();
    if (!header_.empty()) {
        emit(header_);
        rule();
    }
    for (const auto& row : rows_) emit(row);
    rule();
}

std::string
Table::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

std::string
formatF(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
formatCount(unsigned long long value)
{
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    int run = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (run && run % 3 == 0) out.push_back(',');
        out.push_back(*it);
        ++run;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

} // namespace gb
