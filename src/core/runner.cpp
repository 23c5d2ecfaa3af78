#include "core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#ifdef _WIN32
#include <io.h>
#define MAPS_ISATTY(fd) _isatty(fd)
#else
#include <signal.h>
#include <unistd.h>
#define MAPS_ISATTY(fd) isatty(fd)
#endif

#include "check/check.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace maps::runner {

// ---------------------------------------------------------------------------
// Options.
// ---------------------------------------------------------------------------

const char *
formatName(OutputFormat f)
{
    switch (f) {
      case OutputFormat::Table:
        return "table";
      case OutputFormat::Jsonl:
        return "json";
      case OutputFormat::Csv:
        return "csv";
    }
    return "?";
}

namespace {

bool
parsePositiveDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    if (!std::isfinite(v) || v <= 0.0)
        return false;
    out = v;
    return true;
}

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

} // namespace

std::string
Options::tryParse(const std::vector<std::string> &args, Options &out,
                  std::vector<std::string> *positionals)
{
    // Strict-parser contract: every option may be given at most once.
    // Last-wins would silently ignore half of "--jobs=2 --jobs=4"; that
    // is almost always a script bug, so repeats are hard errors. The
    // three sweep-size spellings share one slot.
    std::vector<std::string> seen;
    for (const auto &arg : args) {
        std::string key;
        if (arg == "--quick" || arg == "--full" ||
            arg.rfind("--scale=", 0) == 0) {
            key = "--scale/--quick/--full";
        } else if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            key = eq == std::string::npos ? arg : arg.substr(0, eq);
        }
        if (!key.empty()) {
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                return "duplicate option " + arg + " (" + key +
                       " was already given; each option may appear at "
                       "most once)";
            seen.push_back(key);
        }
        const auto value_of = [&arg](std::size_t prefix_len) {
            return arg.substr(prefix_len);
        };
        if (arg == "--help" || arg == "-h") {
            return "help";
        } else if (arg == "--quick") {
            out.scale = 0.25;
        } else if (arg == "--full") {
            out.scale = 4.0;
        } else if (arg.rfind("--scale=", 0) == 0) {
            if (!parsePositiveDouble(value_of(8), out.scale))
                return "invalid --scale value '" + value_of(8) +
                       "' (need a finite number > 0)";
        } else if (arg.rfind("--seed=", 0) == 0) {
            if (!parseUint(value_of(7), out.seed))
                return "invalid --seed value '" + value_of(7) + "'";
        } else if (arg.rfind("--jobs=", 0) == 0) {
            std::uint64_t jobs = 0;
            if (!parseUint(value_of(7), jobs) || jobs == 0 ||
                jobs > 4096)
                return "invalid --jobs value '" + value_of(7) +
                       "' (need an integer in [1, 4096])";
            out.jobs = static_cast<unsigned>(jobs);
        } else if (arg.rfind("--format=", 0) == 0) {
            const auto fmt = value_of(9);
            if (fmt == "table")
                out.format = OutputFormat::Table;
            else if (fmt == "json" || fmt == "jsonl")
                out.format = OutputFormat::Jsonl;
            else if (fmt == "csv")
                out.format = OutputFormat::Csv;
            else
                return "invalid --format value '" + fmt +
                       "' (table, json, or csv)";
        } else if (arg.rfind("--out=", 0) == 0) {
            out.outPath = value_of(6);
            if (out.outPath.empty())
                return "--out needs a file path";
        } else if (arg == "--no-progress") {
            out.progress = false;
        } else if (arg == "--check") {
            out.check = true;
        } else if (arg.rfind("--cell-timeout=", 0) == 0) {
            if (!parsePositiveDouble(value_of(15), out.cellTimeoutSec))
                return "invalid --cell-timeout value '" + value_of(15) +
                       "' (need seconds > 0)";
        } else if (arg.rfind("--resume=", 0) == 0) {
            out.resumeDir = value_of(9);
            if (out.resumeDir.empty())
                return "--resume needs a directory path";
        } else if (arg.rfind("--metrics=", 0) == 0) {
            const auto level = value_of(10);
            if (level == "off")
                out.metrics = MetricsLevel::Off;
            else if (level == "summary")
                out.metrics = MetricsLevel::Summary;
            else if (level == "full")
                out.metrics = MetricsLevel::Full;
            else
                return "invalid --metrics value '" + level +
                       "' (off, summary, or full)";
        } else if (arg.rfind("--trace-events=", 0) == 0) {
            out.traceEventsPath = value_of(15);
            if (out.traceEventsPath.empty())
                return "--trace-events needs a file path";
        } else if (arg.rfind("--trace-sample=", 0) == 0) {
            if (!parseUint(value_of(15), out.traceSample) ||
                out.traceSample == 0)
                return "invalid --trace-sample value '" + value_of(15) +
                       "' (need an integer >= 1)";
        } else if (arg.rfind("--trace-cell=", 0) == 0) {
            out.traceCell = value_of(13);
            if (out.traceCell.empty())
                return "--trace-cell needs a cell id";
        } else if (arg.rfind("--sample=", 0) == 0) {
            const auto err = sampling::SampleSpec::parse(value_of(9),
                                                         out.sample);
            if (!err.empty())
                return "invalid --sample value '" + value_of(9) + "' (" +
                       err + ")";
        } else if (arg.rfind("--estimator=", 0) == 0) {
            if (!estimator::parseMode(value_of(12), out.estimator))
                return "invalid --estimator value '" + value_of(12) +
                       "' (sim, analytic, or auto)";
        } else if (arg == "--list-cells") {
            out.listCells = true;
        } else if (arg.rfind("--only-cells=", 0) == 0) {
            const auto list = value_of(13);
            out.onlyCells.clear();
            std::size_t start = 0;
            while (start <= list.size()) {
                const auto comma = list.find(',', start);
                const auto end =
                    comma == std::string::npos ? list.size() : comma;
                if (end == start)
                    return "invalid --only-cells value '" + list +
                           "' (empty cell id)";
                out.onlyCells.push_back(list.substr(start, end - start));
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
            if (out.onlyCells.empty())
                return "--only-cells needs at least one cell id";
        } else if (arg.rfind("--", 0) == 0) {
            return "unknown option: " + arg;
        } else if (positionals) {
            positionals->push_back(arg);
        } else {
            return "unexpected argument: " + arg;
        }
    }
    if (out.sample.enabled && !out.traceEventsPath.empty())
        return "--sample cannot be combined with --trace-events (a "
               "sampled run splices disjoint stream positions, so the "
               "timeline would be misleading)";
    if (out.estimator != estimator::Mode::Sim && out.sample.enabled)
        return "--estimator=" +
               std::string(estimator::modeName(out.estimator)) +
               " cannot be combined with --sample (an analytic cell "
               "has no counter stream to sample; pick one estimation "
               "mechanism)";
    if (out.estimator != estimator::Mode::Sim &&
        !out.traceEventsPath.empty())
        return "--estimator=" +
               std::string(estimator::modeName(out.estimator)) +
               " cannot be combined with --trace-events (an analytic "
               "cell has no request timeline to trace)";
    return "";
}

void
Options::usage(std::ostream &os, const std::string &argv0)
{
    os << "usage: " << argv0 << " [options]\n"
       << "  --quick | --full | --scale=X  sweep size (X > 0; quick=0.25,"
          " full=4)\n"
       << "  --seed=N                      base RNG seed (default 1)\n"
       << "  --jobs=N                      worker threads (default: all"
          " cores)\n"
       << "  --format=table|json|csv       result format (default table)\n"
       << "  --out=FILE                    write results to FILE (default"
          " stdout)\n"
       << "  --no-progress                 suppress stderr progress/ETA\n"
       << "  --check                       run maps::check differential"
          " verification (exit 1 on divergence)\n"
       << "  --cell-timeout=SECS           cancel cells cooperatively"
          " after SECS seconds\n"
       << "  --resume=DIR                  checkpoint finished cells in"
          " DIR; restart skips them\n"
       << "  --metrics=off|summary|full    append maps::metrics registry"
          " rows per cell (default off)\n"
       << "  --trace-events=FILE           write a sampled chrome://tracing"
          " JSON for one cell\n"
       << "  --trace-sample=N              trace every N-th measured"
          " request (default 4096)\n"
       << "  --trace-cell=ID               cell that claims --trace-events"
          " (default: first to start)\n"
       << "  --list-cells                  print the cell grid (phase, id,"
          " cached|pending) instead of running; when every cell is"
          " cached, also render the result into --out\n"
       << "  --only-cells=ID[,ID...]       run only the named cells;"
          " others load from --resume or are skipped\n"
       << "  --sample=off|auto|k=N         representative-interval"
          " sampling with error-bounded estimates (default off)\n"
       << "  --estimator=sim|analytic|auto cell evaluation tier: exact"
          " simulation, analytic reuse-distance estimation with"
          " disclosed tolerances, or analytic interiors with simulated"
          " corners (default sim)\n"
       << "  --help                        this message\n"
       << "Each option may be given at most once; repeats are errors.\n";
}

Options
Options::parse(int argc, char **argv,
               std::vector<std::string> *positionals)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    Options opts;
    const auto err = tryParse(args, opts, positionals);
    if (err == "help") {
        usage(std::cout, argv[0]);
        std::exit(0);
    }
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
        usage(std::cerr, argv[0]);
        std::exit(2);
    }
    return opts;
}

std::uint64_t
Options::refs(std::uint64_t base) const
{
    const auto scaled =
        static_cast<std::uint64_t>(static_cast<double>(base) * scale);
    return scaled < 10'000 ? 10'000 : scaled;
}

unsigned
Options::effectiveJobs() const
{
    if (jobs)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::uint64_t
deriveCellSeed(std::uint64_t base, std::string_view cell_id)
{
    // FNV-1a over the id, folded into the base, splitmix64-finalized.
    std::uint64_t h = base ^ 0xCBF29CE484222325ull;
    for (const char c : cell_id) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    h += 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

const char *
metricsLevelName(MetricsLevel level)
{
    switch (level) {
      case MetricsLevel::Off:
        return "off";
      case MetricsLevel::Summary:
        return "summary";
      case MetricsLevel::Full:
        return "full";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Value / Row / CellOutput.
// ---------------------------------------------------------------------------

Value
Value::num(double v, int precision)
{
    Value out;
    out.kind_ = Kind::Real;
    out.real_ = v;
    out.precision_ = precision;
    return out;
}

Value
Value::integer(std::uint64_t v)
{
    Value out;
    out.kind_ = Kind::Int;
    out.int_ = v;
    return out;
}

Value
Value::size(std::uint64_t bytes)
{
    return Value(TextTable::fmtSize(bytes));
}

std::string
Value::text() const
{
    switch (kind_) {
      case Kind::Text:
        return text_;
      case Kind::Real:
        return TextTable::fmt(real_, precision_);
      case Kind::Int:
        return TextTable::fmt(int_);
    }
    return "";
}

std::string
Value::json() const
{
    switch (kind_) {
      case Kind::Real: {
        // Render the display value so every sink reports one number;
        // non-finite doubles have no JSON literal, so quote them.
        if (!std::isfinite(real_))
            return "\"" + TextTable::fmt(real_, precision_) + "\"";
        return TextTable::fmt(real_, precision_);
      }
      case Kind::Int:
        return TextTable::fmt(int_);
      case Kind::Text:
        break;
    }
    std::string out = "\"";
    for (const char ch : text_) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
    return out;
}

double
Value::asDouble() const
{
    switch (kind_) {
      case Kind::Real:
        return real_;
      case Kind::Int:
        return static_cast<double>(int_);
      case Kind::Text:
        break;
    }
    return 0.0;
}

Row &
Row::add(std::string key, Value v)
{
    cols.emplace_back(std::move(key), std::move(v));
    return *this;
}

Row &
Row::add(std::string key, const std::string &text)
{
    return add(std::move(key), Value(text));
}

Row &
Row::add(std::string key, const char *text)
{
    return add(std::move(key), Value(text));
}

Row &
Row::add(std::string key, double v, int precision)
{
    return add(std::move(key), Value::num(v, precision));
}

Row &
Row::add(std::string key, std::uint64_t v)
{
    return add(std::move(key), Value::integer(v));
}

const Value *
Row::find(std::string_view key) const
{
    for (const auto &[k, v] : cols)
        if (k == key)
            return &v;
    return nullptr;
}

double
Row::num(std::string_view key) const
{
    const auto *v = find(key);
    return v ? v->asDouble() : 0.0;
}

CellOutput &
CellOutput::add(std::string section, Row row)
{
    rows.push_back({std::move(section), std::move(row)});
    return *this;
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

void
ResultSink::begin(const ExperimentMeta &, const Options &)
{
}

void
ResultSink::note(const std::string &)
{
}

void
ResultSink::end()
{
}

void
TableSink::begin(const ExperimentMeta &meta, const Options &opts)
{
    const std::string rule(70, '=');
    os_ << rule << '\n'
        << "MAPS reproduction | " << meta.title << '\n'
        << "paper reference   | " << meta.paperRef << '\n';
    char scale[64];
    std::snprintf(scale, sizeof(scale), "%.2f", opts.scale);
    // No --jobs echo here: results are independent of the job count and
    // the table must be byte-identical for every value of it.
    os_ << "scale             | " << scale
        << "x (use --quick / --full / --scale=X)\n"
        << rule << "\n\n";
}

void
TableSink::row(const SectionRow &r)
{
    if (sections_.empty() || sections_.back().first != r.section) {
        // Append to an earlier table if the section re-appears, so
        // drivers may emit related sections in any grouping.
        auto it = std::find_if(
            sections_.begin(), sections_.end(),
            [&](const auto &s) { return s.first == r.section; });
        if (it != sections_.end()) {
            it->second.push_back(r.row);
            return;
        }
        sections_.push_back({r.section, {}});
    }
    sections_.back().second.push_back(r.row);
}

void
TableSink::note(const std::string &text)
{
    notes_.push_back(text);
}

void
TableSink::end()
{
    bool first = true;
    for (const auto &[section, rows] : sections_) {
        if (rows.empty())
            continue;
        if (!first)
            os_ << '\n';
        first = false;
        if (!section.empty())
            os_ << section << '\n';
        std::vector<std::string> header;
        for (const auto &[key, value] : rows.front().cols)
            header.push_back(key);
        TextTable table(header);
        for (const auto &row : rows) {
            std::vector<std::string> cells;
            for (const auto &key : header) {
                const auto *v = row.find(key);
                cells.push_back(v ? v->text() : "");
            }
            table.addRow(std::move(cells));
        }
        table.print(os_);
    }
    for (const auto &text : notes_)
        os_ << '\n' << text << '\n';
    os_.flush();
}

void
JsonlSink::begin(const ExperimentMeta &meta, const Options &)
{
    experiment_ = meta.name;
}

void
JsonlSink::row(const SectionRow &r)
{
    os_ << "{\"experiment\":" << Value(experiment_).json()
        << ",\"section\":" << Value(r.section).json();
    for (const auto &[key, value] : r.row.cols)
        os_ << ',' << Value(key).json() << ':' << value.json();
    os_ << "}\n";
    os_.flush();
}

void
CsvSink::begin(const ExperimentMeta &meta, const Options &)
{
    experiment_ = meta.name;
}

void
CsvSink::row(const SectionRow &r)
{
    for (const auto &[key, value] : r.row.cols) {
        if (std::find(columns_.begin(), columns_.end(), key) ==
            columns_.end())
            columns_.push_back(key);
    }
    rows_.push_back(r);
}

void
CsvSink::end()
{
    CsvWriter writer(os_);
    std::vector<std::string> header{"experiment", "section"};
    header.insert(header.end(), columns_.begin(), columns_.end());
    writer.writeRow(header);
    for (const auto &r : rows_) {
        std::vector<std::string> cells{experiment_, r.section};
        for (const auto &key : columns_) {
            const auto *v = r.row.find(key);
            cells.push_back(v ? v->text() : "");
        }
        writer.writeRow(cells);
    }
    os_.flush();
}

namespace {

/** Sink wrapper owning the output file stream. */
class FileSink : public ResultSink
{
  public:
    FileSink(std::unique_ptr<std::ofstream> os,
             std::unique_ptr<ResultSink> inner)
        : os_(std::move(os)), inner_(std::move(inner))
    {
    }

    void begin(const ExperimentMeta &meta, const Options &opts) override
    {
        inner_->begin(meta, opts);
    }
    void row(const SectionRow &r) override { inner_->row(r); }
    void note(const std::string &text) override { inner_->note(text); }
    void end() override { inner_->end(); }

  private:
    std::unique_ptr<std::ofstream> os_;
    std::unique_ptr<ResultSink> inner_;
};

std::unique_ptr<ResultSink>
makeSinkFor(const Options &opts, std::ostream &os)
{
    switch (opts.format) {
      case OutputFormat::Table:
        return std::make_unique<TableSink>(os);
      case OutputFormat::Jsonl:
        return std::make_unique<JsonlSink>(os);
      case OutputFormat::Csv:
        return std::make_unique<CsvSink>(os);
    }
    return std::make_unique<TableSink>(os);
}

} // namespace

std::unique_ptr<ResultSink>
makeSink(const Options &opts)
{
    if (opts.outPath.empty())
        return makeSinkFor(opts, std::cout);
    auto file = std::make_unique<std::ofstream>(opts.outPath);
    fatalIf(!*file, "cannot open --out file '" + opts.outPath + "'");
    auto &os = *file;
    return std::make_unique<FileSink>(std::move(file),
                                      makeSinkFor(opts, os));
}

// ---------------------------------------------------------------------------
// Checkpoint serialization (--resume).
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/**
 * Length-prefixed strings ("<len>:<bytes>") sidestep escaping entirely,
 * so the round trip is exact for any cell id / section / text content.
 */
void
putString(std::ostream &os, const std::string &s)
{
    os << s.size() << ':' << s;
}

/** Strict cursor over a checkpoint file's contents. */
class Cursor
{
  public:
    explicit Cursor(const std::string &text) : text_(text) {}

    bool literal(const char *lit)
    {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool uint(std::uint64_t &out)
    {
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            return false;
        out = 0;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            out = out * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
            ++pos_;
        }
        return true;
    }

    bool hexU64(std::uint64_t &out)
    {
        if (pos_ >= text_.size() || !std::isxdigit(
                static_cast<unsigned char>(text_[pos_])))
            return false;
        out = 0;
        unsigned digits = 0;
        while (pos_ < text_.size() &&
               std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
            const char c = text_[pos_];
            const std::uint64_t nibble =
                c <= '9' ? static_cast<std::uint64_t>(c - '0')
                         : static_cast<std::uint64_t>(
                               (c | 0x20) - 'a' + 10);
            out = (out << 4) | nibble;
            ++pos_;
            if (++digits > 16)
                return false;
        }
        return true;
    }

    bool string(std::string &out)
    {
        std::uint64_t len = 0;
        if (!uint(len) || !literal(":"))
            return false;
        if (pos_ + len > text_.size())
            return false;
        out = text_.substr(pos_, len);
        pos_ += len;
        return true;
    }

    bool done() const { return pos_ == text_.size(); }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
serializeCellOutput(const CellOutput &out)
{
    std::ostringstream os;
    os << "maps-cell-v1 " << out.rows.size() << '\n';
    for (const auto &sr : out.rows) {
        os << "row " << sr.row.cols.size() << ' ';
        putString(os, sr.section);
        os << '\n';
        for (const auto &[key, value] : sr.row.cols) {
            switch (value.kind()) {
              case Value::Kind::Text:
                os << "t ";
                putString(os, key);
                os << ' ';
                putString(os, value.rawText());
                break;
              case Value::Kind::Real:
                // Bit pattern, not decimal: the restored double must be
                // the exact value so re-rendered output is byte-equal.
                os << "r ";
                putString(os, key);
                {
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), " %016" PRIx64 " %d",
                                  std::bit_cast<std::uint64_t>(
                                      value.rawReal()),
                                  value.precision());
                    os << buf;
                }
                break;
              case Value::Kind::Int:
                os << "i ";
                putString(os, key);
                os << ' ' << value.rawInt();
                break;
            }
            os << '\n';
        }
    }
    os << "done\n";
    return os.str();
}

bool
parseCellOutput(const std::string &text, CellOutput &out)
{
    Cursor cur(text);
    std::uint64_t rows = 0;
    if (!cur.literal("maps-cell-v1 ") || !cur.uint(rows) ||
        !cur.literal("\n"))
        return false;
    CellOutput parsed;
    for (std::uint64_t r = 0; r < rows; ++r) {
        std::uint64_t cols = 0;
        std::string section;
        if (!cur.literal("row ") || !cur.uint(cols) ||
            !cur.literal(" ") || !cur.string(section) ||
            !cur.literal("\n"))
            return false;
        Row row;
        for (std::uint64_t c = 0; c < cols; ++c) {
            std::string key;
            if (cur.literal("t ")) {
                std::string value;
                if (!cur.string(key) || !cur.literal(" ") ||
                    !cur.string(value) || !cur.literal("\n"))
                    return false;
                row.add(std::move(key), Value(std::move(value)));
            } else if (cur.literal("r ")) {
                std::uint64_t bits = 0;
                std::uint64_t precision = 0;
                if (!cur.string(key) || !cur.literal(" ") ||
                    !cur.hexU64(bits) || !cur.literal(" ") ||
                    !cur.uint(precision) || !cur.literal("\n") ||
                    precision > 32)
                    return false;
                row.add(std::move(key),
                        Value::num(std::bit_cast<double>(bits),
                                   static_cast<int>(precision)));
            } else if (cur.literal("i ")) {
                std::uint64_t value = 0;
                if (!cur.string(key) || !cur.literal(" ") ||
                    !cur.uint(value) || !cur.literal("\n"))
                    return false;
                row.add(std::move(key), Value::integer(value));
            } else {
                return false;
            }
        }
        parsed.add(std::move(section), std::move(row));
    }
    if (!cur.literal("done\n") || !cur.done())
        return false;
    out = std::move(parsed);
    return true;
}

std::string
checkpointFileName(const std::string &phase, const Cell &cell,
                   double scale)
{
    // The hash keys everything the result depends on (phase, id, the
    // derived seed, the sweep scale) so a checkpoint from a different
    // configuration can never be mistaken for this cell's.
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto fold = [&h](const void *data, std::size_t n) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= bytes[i];
            h *= 0x100000001B3ull;
        }
    };
    fold(phase.data(), phase.size());
    fold("\0", 1);
    fold(cell.id.data(), cell.id.size());
    fold("\0", 1);
    fold(&cell.seed, sizeof(cell.seed));
    const std::uint64_t scale_bits = std::bit_cast<std::uint64_t>(scale);
    fold(&scale_bits, sizeof(scale_bits));

    std::string stem;
    for (const char c : cell.id) {
        const bool keep = std::isalnum(static_cast<unsigned char>(c)) ||
                          c == '.' || c == '_' || c == '-';
        stem += keep ? c : '_';
        if (stem.size() >= 40)
            break;
    }
    if (stem.empty())
        stem = "cell";
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%016" PRIx64 ".cell",
                  h);
    return stem + suffix;
}

} // namespace detail

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

namespace {

/**
 * Per-worker state that a running cell reaches through tlsSlot.
 *
 * Cooperative cancellation: the watchdog stamps cancelStamp with the
 * slot's current cell serial; heartbeat() only honors a stamp matching
 * the cell it is called from, so a cell finishing at the same moment
 * can never cancel its successor.
 *
 * Trace claim: claimTraceEvents() matches the slot's current cell
 * against the runner's options and takes the runner's one grant.
 */
struct WorkerSlot
{
    std::atomic<std::uint64_t> stamp{0}; ///< 0 = idle, else cell index+1
    std::atomic<std::int64_t> startedAtMs{0};
    std::atomic<std::uint64_t> cancelStamp{0};
    const Options *opts = nullptr;
    /** The runner's grant flag, shared by every slot of one run(). */
    std::atomic<bool> *traceClaimed = nullptr;
    /** The cell this worker is executing; written by its own thread. */
    const Cell *cell = nullptr;
};

thread_local WorkerSlot *tlsSlot = nullptr;
thread_local std::uint64_t tlsStamp = 0;

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
heartbeat()
{
    WorkerSlot *slot = tlsSlot;
    if (!slot)
        return;
    if (slot->cancelStamp.load(std::memory_order_relaxed) != tlsStamp)
        return;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "cell exceeded --cell-timeout=%gs and was cancelled",
                  slot->opts->cellTimeoutSec);
    throw CellTimedOut(buf);
}

std::optional<TraceClaim>
claimTraceEvents()
{
    const WorkerSlot *slot = tlsSlot;
    if (!slot)
        return std::nullopt;
    const Options &opts = *slot->opts;
    const std::string &cell = slot->cell->id;
    if (opts.traceEventsPath.empty() ||
        (!opts.traceCell.empty() && cell != opts.traceCell) ||
        slot->traceClaimed->exchange(true))
        return std::nullopt;
    return TraceClaim{opts.traceEventsPath, opts.traceSample, cell};
}

// ---------------------------------------------------------------------------
// Graceful SIGINT/SIGTERM.
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_interrupt{0};
std::atomic<bool> g_handlersInstalled{false};

void
onGracefulSignal(int signo)
{
    // Async-signal-safe: one relaxed store. Workers poll the flag
    // before claiming their next cell; SA_RESETHAND below restores the
    // default disposition so a second signal terminates immediately.
    g_interrupt.store(signo, std::memory_order_relaxed);
}

} // namespace

void
installSignalHandlers()
{
#ifndef _WIN32
    if (g_handlersInstalled.exchange(true))
        return;
    struct sigaction sa = {};
    sa.sa_handler = &onGracefulSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
#endif
}

int
interruptSignal()
{
    return g_interrupt.load(std::memory_order_relaxed);
}

void
requestInterrupt(int signo)
{
    g_interrupt.store(signo, std::memory_order_relaxed);
}

namespace {

/**
 * stderr progress/ETA reporter. All completions funnel through one
 * mutex, which also serializes the stderr writes.
 */
class Progress
{
  public:
    Progress(std::string phase, std::size_t total, bool enabled)
        : phase_(std::move(phase)), total_(total),
          enabled_(enabled && total > 0),
          tty_(MAPS_ISATTY(2 /* stderr */) != 0),
          start_(std::chrono::steady_clock::now())
    {
    }

    void completed(const std::string &cell_id)
    {
        if (!enabled_)
            return;
        const std::lock_guard<std::mutex> lock(mu_);
        ++done_;
        // Non-tty consumers (CI logs) get at most ~10 lines per phase.
        if (!tty_ && done_ != total_ &&
            done_ % std::max<std::size_t>(1, total_ / 10) != 0)
            return;
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const double eta =
            elapsed / static_cast<double>(done_) *
            static_cast<double>(total_ - done_);
        std::fprintf(stderr, "%s[%s] %zu/%zu cells, %.1fs elapsed, "
                             "eta %.1fs (%s)%s",
                     tty_ ? "\r\033[K" : "", phase_.c_str(), done_,
                     total_, elapsed, eta, cell_id.c_str(),
                     tty_ ? "" : "\n");
        if (tty_ && done_ == total_)
            std::fprintf(stderr, "\n");
        std::fflush(stderr);
    }

  private:
    std::string phase_;
    std::size_t total_;
    bool enabled_;
    bool tty_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mu_;
    std::size_t done_ = 0;
};

} // namespace

std::vector<CellOutput>
ExperimentRunner::run(const std::vector<Cell> &cells,
                      const std::string &phase)
{
    std::vector<Cell> work(cells);
    for (auto &cell : work) {
        if (!cell.seed)
            cell.seed = deriveCellSeed(opts_.seed, cell.id);
        panicIf(!cell.work, "cell '" + cell.id + "' has no work function");
    }

    const std::string phase_name = phase.empty() ? "run" : phase;
    std::vector<CellOutput> out(work.size());

    // --resume: load checkpoints written by a previous (possibly killed)
    // run of the same configuration; loaded cells are never re-run.
    std::vector<char> loaded(work.size(), 0);
    std::filesystem::path ckdir;
    const bool checkpointing = !opts_.resumeDir.empty();
    if (checkpointing) {
        ckdir = opts_.resumeDir;
        std::error_code ec;
        std::filesystem::create_directories(ckdir, ec);
        fatalIf(static_cast<bool>(ec), "cannot create --resume directory '" +
                                           opts_.resumeDir + "': " +
                                           ec.message());
        // Claim the directory before publishing into it (skipped in the
        // read-only --list-cells mode). Lock errors are fatal: silently
        // interleaving two runs would corrupt neither file (publishes
        // are atomic) but makes the resulting mix impossible to reason
        // about.
        if (!opts_.listCells && !resumeLock_.held()) {
            const auto err = resumeLock_.acquire(opts_.resumeDir);
            fatalIf(!err.empty(), err);
        }
        // Checkpoints encode only rows, not how they were produced, so
        // the directory carries a manifest of the run flags that change
        // cell *semantics* (today: --sample and --estimator). Runs with
        // different estimation mechanisms pointed at the same directory
        // must never silently mix their estimated and exact outputs.
        {
            const auto manifest = ckdir / "resume.manifest";
            const std::string want =
                std::string("maps-resume-v1\nsample=") +
                opts_.sample.str() + "\nestimator=" +
                estimator::modeName(opts_.estimator) + "\n";
            std::ifstream in(manifest, std::ios::binary);
            if (in) {
                std::ostringstream text;
                text << in.rdbuf();
                fatalIf(text.str() != want,
                        "--resume directory '" + opts_.resumeDir +
                            "' was recorded under different run flags "
                            "(its resume.manifest does not match this "
                            "run's sample=" + opts_.sample.str() +
                            " estimator=" +
                            estimator::modeName(opts_.estimator) +
                            "); estimated and exact checkpoints cannot "
                            "mix — use a fresh --resume directory");
            } else if (!opts_.listCells) {
                const auto tmp = manifest.string() + ".tmp";
                std::ofstream os(tmp,
                                 std::ios::binary | std::ios::trunc);
                os << want;
                os.flush();
                std::error_code mec;
                if (os) {
                    os.close();
                    std::filesystem::rename(tmp, manifest, mec);
                }
                if (mec)
                    std::filesystem::remove(tmp, mec);
            }
        }
        for (std::size_t i = 0; i < work.size(); ++i) {
            const auto path = ckdir / detail::checkpointFileName(
                                          phase_name, work[i], opts_.scale);
            std::ifstream in(path, std::ios::binary);
            if (!in)
                continue;
            std::ostringstream text;
            text << in.rdbuf();
            // A malformed checkpoint (e.g. torn by a crash before the
            // atomic rename existed) is simply re-run.
            if (detail::parseCellOutput(text.str(), out[i])) {
                loaded[i] = 1;
                ++resumedCells_;
            }
        }
    }

    // --list-cells: report the grid instead of running it. A phase with
    // unresolved (pending) cells cannot let the driver continue — later
    // phases may consume this phase's outputs — so the process stops
    // here; the service re-lists after executing the pending cells.
    if (opts_.listCells) {
        bool complete = true;
        for (std::size_t i = 0; i < work.size(); ++i) {
            std::printf("cell\t%s\t%s\t%s\n", phase_name.c_str(),
                        work[i].id.c_str(),
                        loaded[i] ? "cached" : "pending");
            complete = complete && loaded[i];
        }
        if (!complete) {
            std::printf("list-end incomplete\n");
            std::fflush(stdout);
            std::exit(0);
        }
        std::fflush(stdout);
        return out;
    }

    // --only-cells: unselected cells keep their checkpoint-loaded
    // output (dependent phases need it) or stay empty.
    std::vector<char> selected(work.size(), 1);
    if (!opts_.onlyCells.empty()) {
        for (std::size_t i = 0; i < work.size(); ++i) {
            const bool want =
                std::find(opts_.onlyCells.begin(), opts_.onlyCells.end(),
                          work[i].id) != opts_.onlyCells.end();
            selected[i] = want ? 1 : 0;
            if (want &&
                std::find(matchedOnlyCells_.begin(),
                          matchedOnlyCells_.end(),
                          work[i].id) == matchedOnlyCells_.end())
                matchedOnlyCells_.push_back(work[i].id);
            if (!want && !loaded[i])
                ++shardSkipped_;
        }
    }

    std::size_t pending = 0;
    for (std::size_t i = 0; i < work.size(); ++i)
        pending += (!loaded[i] && selected[i]) ? 1 : 0;
    Progress progress(phase_name, pending, opts_.progress);

    const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        opts_.effectiveJobs(), std::max<std::size_t>(pending, 1)));

    std::atomic<std::size_t> next{0};
    std::mutex fail_mu;
    std::vector<CellFailure> failures;

    // The trace grant persists across this runner's run() calls.
    std::atomic<bool> trace_claimed{traceClaimed_};
    std::vector<std::unique_ptr<WorkerSlot>> slots;
    for (unsigned t = 0; t < jobs; ++t) {
        slots.push_back(std::make_unique<WorkerSlot>());
        slots.back()->opts = &opts_;
        slots.back()->traceClaimed = &trace_claimed;
    }

    std::vector<char> visited(work.size(), 0);

    const auto worker = [&](WorkerSlot *slot) {
        tlsSlot = slot;
        for (;;) {
            // A graceful-stop request (SIGINT/SIGTERM) lets the cell in
            // flight finish and checkpoint; unclaimed cells stay behind
            // for --resume.
            if (interruptSignal())
                break;
            const std::size_t i = next.fetch_add(1);
            if (i >= work.size())
                break;
            visited[i] = 1;
            if (loaded[i] || !selected[i])
                continue;
            tlsStamp = static_cast<std::uint64_t>(i) + 1;
            slot->cell = &work[i];
            slot->startedAtMs.store(nowMs(), std::memory_order_relaxed);
            slot->stamp.store(tlsStamp, std::memory_order_release);
            bool ok = true;
            std::string error;
            try {
                out[i] = work[i].work(work[i]);
            } catch (const std::exception &e) {
                ok = false;
                error = e.what();
            } catch (...) {
                ok = false;
                error = "unknown exception";
            }
            slot->stamp.store(0, std::memory_order_release);
            if (!ok) {
                out[i] = CellOutput{};
                const std::lock_guard<std::mutex> lock(fail_mu);
                failures.push_back({i, phase_name, work[i].id,
                                    work[i].seed, error});
            } else if (checkpointing) {
                const auto path =
                    ckdir / detail::checkpointFileName(phase_name, work[i],
                                                       opts_.scale);
                // Atomic publish: a kill can leave a stale .tmp around
                // but never a torn checkpoint under the final name.
                const auto tmp = path.string() + ".tmp";
                std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
                os << detail::serializeCellOutput(out[i]);
                os.flush();
                if (os) {
                    os.close();
                    std::error_code ec;
                    std::filesystem::rename(tmp, path, ec);
                    if (ec)
                        std::filesystem::remove(tmp, ec);
                } else {
                    std::error_code ec;
                    std::filesystem::remove(tmp, ec);
                }
            }
            progress.completed(work[i].id);
        }
        tlsSlot = nullptr;
    };

    // Cooperative watchdog: flags a slot whose current cell has been
    // running past --cell-timeout; the cell observes the flag at its
    // next runner::heartbeat() call and unwinds as a recorded failure.
    // It scans every 25 ms but wakes at once when the phase ends, so
    // joining it never delays run()'s return.
    std::mutex watchdog_mu;
    std::condition_variable watchdog_cv;
    bool stop_watchdog = false;
    std::thread watchdog;
    if (opts_.cellTimeoutSec > 0.0) {
        const auto timeout_ms =
            static_cast<std::int64_t>(opts_.cellTimeoutSec * 1000.0);
        watchdog = std::thread([&, timeout_ms] {
            std::unique_lock<std::mutex> lock(watchdog_mu);
            while (!watchdog_cv.wait_for(lock,
                                         std::chrono::milliseconds(25),
                                         [&] { return stop_watchdog; })) {
                const std::int64_t now = nowMs();
                for (const auto &slot : slots) {
                    const std::uint64_t stamp =
                        slot->stamp.load(std::memory_order_acquire);
                    if (!stamp)
                        continue;
                    const std::int64_t started =
                        slot->startedAtMs.load(std::memory_order_relaxed);
                    if (now - started > timeout_ms)
                        slot->cancelStamp.store(
                            stamp, std::memory_order_relaxed);
                }
            }
        });
    }

    if (jobs <= 1) {
        worker(slots[0].get());
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            threads.emplace_back(worker, slots[t].get());
        for (auto &t : threads)
            t.join();
    }
    if (watchdog.joinable()) {
        {
            const std::lock_guard<std::mutex> lock(watchdog_mu);
            stop_watchdog = true;
        }
        watchdog_cv.notify_one();
        watchdog.join();
    }
    traceClaimed_ = trace_claimed.load();

    // Deterministic failure order regardless of which worker hit what.
    std::sort(failures.begin(), failures.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.index < b.index;
              });
    failures_.insert(failures_.end(), failures.begin(), failures.end());

    if (interruptSignal()) {
        for (std::size_t i = 0; i < work.size(); ++i)
            if (!visited[i] && !loaded[i] && selected[i])
                ++interruptedCells_;
    }
    return out;
}

std::vector<std::string>
ExperimentRunner::unmatchedOnlyCells() const
{
    std::vector<std::string> unmatched;
    for (const auto &id : opts_.onlyCells)
        if (std::find(matchedOnlyCells_.begin(), matchedOnlyCells_.end(),
                      id) == matchedOnlyCells_.end())
            unmatched.push_back(id);
    return unmatched;
}

// ---------------------------------------------------------------------------
// Experiment harness.
// ---------------------------------------------------------------------------

namespace {

/** Swallows everything; --list-cells owns stdout for the cell lines. */
class NullSink : public ResultSink
{
  public:
    void row(const SectionRow &) override {}
};

/** --list-cells renders only into an --out file: stdout carries the
 *  cell lines. */
std::unique_ptr<ResultSink>
makeExperimentSink(const Options &opts)
{
    if (opts.listCells && opts.outPath.empty())
        return std::make_unique<NullSink>();
    return makeSink(opts);
}

} // namespace

Experiment::Experiment(ExperimentMeta meta, const Options &opts)
    : meta_(std::move(meta)), runner_(opts),
      sink_(makeExperimentSink(opts))
{
    installSignalHandlers();
    if (opts.check) {
        // Record mode: divergences are tallied and summarized by
        // finish() instead of aborting the run at the first one.
        check::setEnabled(true);
        check::setFailureMode(check::FailureMode::Record);
        check::resetStats();
    }
    sink_->begin(meta_, opts);
}

std::vector<CellOutput>
Experiment::run(const std::vector<Cell> &cells, const std::string &phase)
{
    auto out = runner_.run(cells, phase.empty() ? meta_.name : phase);
    // A phase that came back with holes must not let the driver
    // continue: later phases may consume these outputs cell-by-cell,
    // and a missing one is undefined to dereference. Holes appear on a
    // graceful interrupt (unclaimed cells) and in --only-cells shards
    // (unselected cells with no checkpoint, or failed siblings).
    // Finished cells are already checkpointed, so stopping here loses
    // nothing; finish() reports what happened and picks the exit code.
    const bool interrupted =
        interruptSignal() != 0 && runner_.interruptedCells() > 0;
    const bool shardHoles =
        !runner_.options().onlyCells.empty() &&
        (runner_.shardSkippedCells() > 0 || !runner_.failures().empty());
    if (interrupted || shardHoles)
        std::exit(finish());
    return out;
}

std::vector<CellOutput>
Experiment::runAndEmit(const std::vector<Cell> &cells,
                       const std::string &phase)
{
    auto outputs = run(cells, phase);
    for (const auto &output : outputs)
        emit(output);
    return outputs;
}

void
Experiment::emit(const SectionRow &r)
{
    sink_->row(r);
}

void
Experiment::emit(std::string section, Row row)
{
    emit(SectionRow{std::move(section), std::move(row)});
}

void
Experiment::emit(const CellOutput &out)
{
    for (const auto &r : out.rows)
        emit(r);
}

void
Experiment::note(const std::string &text)
{
    sink_->note(text);
}

int
Experiment::finish()
{
    const bool checking = runner_.options().check;
    const auto &failed = runner_.failures();
    const int interrupt = interruptSignal();
    if (!finished_) {
        if (interrupt) {
            Row row;
            row.add("signal", static_cast<std::uint64_t>(interrupt));
            row.add("cells not run", runner_.interruptedCells());
            row.add("resume",
                    runner_.options().resumeDir.empty()
                        ? "no --resume dir; completed work was lost"
                        : "re-run with the same --resume dir to "
                          "continue");
            emit("interrupted", std::move(row));
        }
        if (checking) {
            Row row;
            row.add("checks", check::checkCount());
            row.add("divergences", check::failureCount());
            // Only fault campaigns declare expected domains; the column
            // stays absent (and goldens unchanged) everywhere else.
            if (check::expectedCount() != 0)
                row.add("expected divergences", check::expectedCount());
            row.add("verdict",
                    check::failureCount() == 0 ? "ok" : "DIVERGED");
            emit("maps::check", std::move(row));
            for (const auto &failure : check::failures()) {
                note("maps::check divergence [" + failure.domain + "] " +
                     failure.message);
            }
        }
        for (const auto &f : failed) {
            Row row;
            row.add("cell", f.id);
            row.add("phase", f.phase);
            row.add("seed", f.seed);
            row.add("error", f.error);
            emit("failed cells", std::move(row));
        }
        sink_->end();
        finished_ = true;
        // --list-cells got here only if every phase resolved from
        // checkpoints: the grid is complete and any --out file is
        // rendered. A listing never simulates, so it has no trace
        // claim to miss. Otherwise no claim means no trace file; a
        // shard (--only-cells) stays quiet, since the named cell may
        // run in another shard, and the exit code is unchanged.
        const Options &opts = runner_.options();
        if (opts.listCells) {
            std::printf("list-end complete\n");
            std::fflush(stdout);
        } else if (!opts.traceEventsPath.empty() && opts.onlyCells.empty() &&
                   !runner_.traceClaimed())
            warn("--trace-events=" + opts.traceEventsPath +
                 " was not written: no simulation ran in " +
                 (opts.traceCell.empty()
                      ? std::string("any cell (no --trace-cell filter)")
                      : "a cell matching --trace-cell=" + opts.traceCell));
    }
    int code = 0;
    if (checking && check::failureCount() != 0)
        code = 1;
    if (!failed.empty())
        code = 1;
    const auto unmatched = runner_.unmatchedOnlyCells();
    if (!unmatched.empty()) {
        std::string ids;
        for (const auto &id : unmatched)
            ids += (ids.empty() ? "" : ", ") + id;
        warn("--only-cells named unknown cells: " + ids);
        code = 4;
    }
    if (interrupt)
        code = 128 + interrupt;
    return code;
}

} // namespace maps::runner
