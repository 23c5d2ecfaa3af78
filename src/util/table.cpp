#include "util/table.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iomanip>

namespace maps {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(header_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_rule = [&]() {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            os << '+' << std::string(widths[c] + 2, '-');
        }
        os << "+\n";
    };
    auto print_cells = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            os << "| " << cell
               << std::string(widths[c] - cell.size() + 1, ' ');
        }
        os << "|\n";
    };

    print_rule();
    print_cells(header_);
    print_rule();
    for (const auto &row : rows_)
        print_cells(row);
    print_rule();
}

std::string
TextTable::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TextTable::fmt(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
TextTable::fmtSize(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ull << 30) && bytes % (1ull << 30) == 0) {
        std::snprintf(buf, sizeof(buf), "%lluGB",
                      static_cast<unsigned long long>(bytes >> 30));
    } else if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0) {
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(bytes >> 20));
    } else if (bytes >= (1ull << 10) && bytes % (1ull << 10) == 0) {
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(bytes >> 10));
    } else {
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << escape(cells[i]);
    }
    os_ << '\n';
}

std::string
CsvWriter::escape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"')
            out += "\"\"";
        else
            out += ch;
    }
    out += '"';
    return out;
}

} // namespace maps
