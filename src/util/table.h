/**
 * @file
 * ASCII table formatting for benchmark output.
 *
 * Every bench binary prints its results as a table whose rows mirror the
 * corresponding table/figure in the paper, so results can be compared
 * side by side.
 */
#ifndef GB_UTIL_TABLE_H
#define GB_UTIL_TABLE_H

#include <iosfwd>
#include <sstream>
#include <string>
#include <vector>

namespace gb {

/** Column-aligned ASCII table builder. */
class Table
{
  public:
    /** @param title Caption printed above the table. */
    explicit Table(std::string title) : title_(std::move(title)) {}

    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Begin a new row built cell-by-cell with cell(). */
    Table& newRow();

    /** Append one cell to the row opened by newRow(). */
    template <typename T>
    Table&
    cell(const T& value)
    {
        std::ostringstream os;
        os << value;
        rows_.back().push_back(os.str());
        return *this;
    }

    /** Append a floating-point cell with fixed precision. */
    Table& cellF(double value, int precision = 2);

    /** Render the table to a stream. */
    void print(std::ostream& os) const;

    /** Render the table to a string. */
    std::string str() const;

    /** Caption passed at construction. */
    const std::string& title() const { return title_; }

    /** Header row (empty until setHeader()). */
    const std::vector<std::string>& header() const { return header_; }

    /** All appended rows, as formatted cells. */
    const std::vector<std::vector<std::string>>& rows() const
    {
        return rows_;
    }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format `value` with fixed `precision` decimals. */
std::string formatF(double value, int precision = 2);

/** Format a large count with thousands separators (e.g. 1,234,567). */
std::string formatCount(unsigned long long value);

} // namespace gb

#endif // GB_UTIL_TABLE_H
