/**
 * @file
 * Aligned plain-text table and CSV emitters used by the figure benches so
 * every experiment prints paper-style rows.
 */
#ifndef MAPS_UTIL_TABLE_HPP
#define MAPS_UTIL_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace maps {

/**
 * Column-aligned text table. Collect rows of strings, then print; numeric
 * formatting is the caller's job (use TextTable::fmt helpers).
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

    /** Format a double with the given precision. */
    static std::string fmt(double v, int precision = 3);

    /** Format an integer with thousands grouping disabled (plain). */
    static std::string fmt(std::uint64_t v);

    /** Format a byte size as e.g. "64KB", "2MB". */
    static std::string fmtSize(std::uint64_t bytes);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Minimal CSV writer (quotes cells containing separators). */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream &os) : os_(os) {}

    void writeRow(const std::vector<std::string> &cells);

  private:
    std::ostream &os_;

    static std::string escape(const std::string &cell);
};

} // namespace maps

#endif // MAPS_UTIL_TABLE_HPP
