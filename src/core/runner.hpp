/**
 * @file
 * maps::runner — the shared experiment harness behind every figure /
 * table / ablation driver.
 *
 * An experiment is a named grid of *cells*: independent units of
 * simulation work (typically one `benchmark x SimConfig` point, or a
 * small dependent cluster such as an on/off pair) that each produce
 * rows of derived metrics. ExperimentRunner executes cells on a
 * std::thread pool (`--jobs=N`, default hardware_concurrency) and
 * returns outputs indexed by cell, so results — and therefore the
 * emitted tables — are identical whatever the execution order or job
 * count. A ResultSink renders the rows as an aligned text table
 * (`--format=table`, the default), JSON lines (`--format=json`) or CSV
 * (`--format=csv`), to stdout or `--out=FILE`.
 *
 * Thread-safety contract for cell work functions: a cell must only
 * touch state it owns. Every simulation object in MAPS (SecureMemorySim
 * and everything beneath it, analyzers, Rng) is self-contained with no
 * mutable globals, so constructing them inside the work function is
 * sufficient. Randomness is seeded per cell: each SimConfig carries its
 * own seed and each generator owns its Rng, and `Cell::seed` provides a
 * deterministic per-cell auxiliary seed derived from `--seed` and the
 * cell id — never share an Rng across cells.
 */
#ifndef MAPS_CORE_RUNNER_HPP
#define MAPS_CORE_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dirlock.hpp"
#include "core/estimator_types.hpp"
#include "sampling/sampling.hpp"

namespace maps::runner {

// ---------------------------------------------------------------------------
// Options: the common bench command line.
// ---------------------------------------------------------------------------

enum class OutputFormat : std::uint8_t { Table, Jsonl, Csv };

const char *formatName(OutputFormat f);

/**
 * How much of the maps::metrics registry the benches append to their
 * result stream (schema metrics::kSchemaVersion):
 *   Off      nothing beyond the figure's own rows (the default)
 *   Summary  the derived metrics (MPKI, ED², energy, ...) per cell
 *   Full     Summary plus every raw counter (warmup/measure/total
 *            windows) and histogram
 */
enum class MetricsLevel : std::uint8_t { Off, Summary, Full };

const char *metricsLevelName(MetricsLevel level);

/**
 * Options shared by every experiment driver.
 *
 *   --quick | --full | --scale=X   sweep size (X > 0)
 *   --seed=N                       base RNG seed
 *   --jobs=N                       worker threads (default: all cores)
 *   --format=table|json|csv        result rendering
 *   --out=FILE                     write results to FILE (default stdout)
 *   --no-progress                  suppress the stderr progress reporter
 *   --check                        run the maps::check differential
 *                                  verification layer and report
 *   --cell-timeout=SECS            cancel cells cooperatively after SECS
 *   --resume=DIR                   checkpoint finished cells in DIR and
 *                                  skip them on restart
 *   --metrics=off|summary|full     append maps::metrics registry rows to
 *                                  the result stream
 *   --trace-events=FILE            emit a sampled chrome://tracing JSON
 *                                  for one cell of the run
 *   --trace-sample=N               trace every N-th measured request
 *                                  (default 4096)
 *   --trace-cell=ID                which cell claims the trace (default:
 *                                  first to start)
 *   --list-cells                   print the cell grid instead of
 *                                  running it; a grid complete from
 *                                  --resume also renders into --out
 *                                  (service list-or-assemble mode)
 *   --only-cells=ID[,ID...]        run only the named cells; others are
 *                                  loaded from --resume checkpoints or
 *                                  skipped (service sharding mode)
 *   --estimator=sim|analytic|auto  cell evaluation tier
 *                                  (docs/ESTIMATOR.md)
 *   --help                         usage
 *
 * Unknown flags, malformed values, non-positive scales, and *repeated*
 * flags (e.g. "--jobs=2 --jobs=4") are errors: every option may be
 * given at most once, and the mutually-exclusive sweep-size spellings
 * (--quick / --full / --scale) count as one option.
 */
struct Options
{
    double scale = 1.0;
    std::uint64_t seed = 1;
    /** Worker threads; 0 means hardware_concurrency. */
    unsigned jobs = 0;
    OutputFormat format = OutputFormat::Table;
    /** Result destination; empty means stdout. */
    std::string outPath;
    bool progress = true;
    /**
     * Enable maps::check (runtime invariants + shadow models) in Record
     * mode for the whole run; divergences are summarized by
     * Experiment::finish(), which then returns exit code 1.
     */
    bool check = false;
    /**
     * Cooperative per-cell watchdog: a cell running longer than this
     * many seconds is cancelled at its next runner::heartbeat() call
     * and recorded as a failed cell. 0 disables the watchdog.
     */
    double cellTimeoutSec = 0.0;
    /**
     * Checkpoint directory: every completed cell's output is persisted
     * here (atomic write) and a restarted run with the same options
     * skips the cells whose checkpoints parse, making a killed sweep
     * resumable with byte-identical final output. Empty disables.
     */
    std::string resumeDir;
    /**
     * Registry emission level; Summary/Full make every cell append
     * "maps::metrics ..." sections to its output (see
     * bench/common.hpp addMetricsRows).
     */
    MetricsLevel metrics = MetricsLevel::Off;
    /**
     * When non-empty, exactly one cell of the run claims the trace and
     * writes a sampled chrome://tracing event file here (schema
     * metrics::kTraceSchemaVersion). Which cell: --trace-cell when
     * given, otherwise the first cell that starts a simulation. A full
     * run that grants no claim warns on stderr from finish().
     */
    std::string traceEventsPath;
    /** Trace every N-th measured request (>= 1). */
    std::uint64_t traceSample = 4096;
    /** Cell id that claims --trace-events; empty = first come. */
    std::string traceCell;
    /**
     * List-or-assemble mode for the experiment service (mapsd): instead
     * of running, each run() call prints one machine-readable line per
     * cell ("cell <TAB> phase <TAB> id <TAB> cached|pending"). A phase
     * whose cells are all cached (loadable --resume checkpoints)
     * returns the loaded outputs so the driver can construct dependent
     * phases; otherwise the process prints "list-end incomplete" and
     * exits 0 immediately without computing a cell — later phases are
     * discovered by re-listing once the pending cells have been
     * executed and checkpointed. When every phase resolved, the run
     * has assembled its result: with --out it is rendered into that
     * file through the normal sink (byte-identical to a plain --resume
     * run's output; without --out it is discarded, since stdout holds
     * the cell lines), and finish() prints "list-end complete". An
     * incomplete listing may leave the --out file truncated.
     */
    bool listCells = false;
    /**
     * Cell-sharding mode for the experiment service: run only the
     * cells named here. Unselected cells are loaded from --resume
     * checkpoints when available and otherwise skipped with empty
     * output (drivers whose later phases consume earlier outputs need
     * those phases checkpointed — mapsd schedules phases in order).
     * Empty means run everything.
     */
    std::vector<std::string> onlyCells;
    /**
     * Representative-interval sampling (docs/SAMPLING.md):
     * "--sample=off" (the default, full simulation), "--sample=auto"
     * (elbow-rule cluster count) or "--sample=k=N"; optional
     * ",interval=REFS" / ",warmup=REFS" tuning suffixes. Sampled runs
     * estimate every reported counter from cluster representatives and
     * append "maps::metrics sampling" sections with explicit error
     * bounds. Incompatible with --trace-events (a sampled timeline
     * would splice unrelated stream positions) and with --resume
     * directories recorded under a different sampling spec.
     */
    sampling::SampleSpec sample;
    /**
     * Cell evaluation tier (docs/ESTIMATOR.md): "sim" (the default,
     * exact simulation — byte-identical output), "analytic"
     * (reuse-distance estimation with disclosed per-metric tolerances)
     * or "auto" (analytic for sweep interiors, sim for corners).
     * Incompatible with --sample and --trace-events: an estimated cell
     * has neither a sampled counter stream nor a request timeline.
     * Recorded in resume.manifest — a --resume directory written under
     * a different estimator cannot be continued (estimates and exact
     * counts must never mix in one output).
     */
    maps::estimator::Mode estimator = maps::estimator::Mode::Sim;

    /**
     * Strict parse. On --help prints usage and exits 0; on any error
     * prints the error plus usage and exits 2. When @p positionals is
     * non-null, non-flag arguments are collected there instead of being
     * rejected (for examples that take positional operands).
     */
    static Options parse(int argc, char **argv,
                         std::vector<std::string> *positionals = nullptr);

    /**
     * Non-exiting parse over pre-split arguments (argv[0] excluded).
     * Returns an empty string on success, the error message otherwise.
     * `--help` is reported as the error "help".
     */
    static std::string tryParse(const std::vector<std::string> &args,
                                Options &out,
                                std::vector<std::string> *positionals
                                = nullptr);

    static void usage(std::ostream &os, const std::string &argv0);

    /** Scale a base reference count, with the historical 10k floor. */
    std::uint64_t refs(std::uint64_t base) const;

    /** Resolved worker count (>= 1). */
    unsigned effectiveJobs() const;
};

/**
 * Deterministic auxiliary seed for one cell: a hash of the base seed
 * and the cell id, independent of execution order and job count.
 */
std::uint64_t deriveCellSeed(std::uint64_t base, std::string_view cell_id);

/**
 * Thrown out of runner::heartbeat() when the running cell exceeded
 * --cell-timeout; the runner records it like any other cell failure.
 */
class CellTimedOut : public std::runtime_error
{
  public:
    explicit CellTimedOut(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Cooperative cancellation point for cell work functions. Long-running
 * simulation loops call this periodically (SecureMemorySim does, every
 * few ten-thousand references); when the cell's --cell-timeout expired,
 * it throws CellTimedOut. A no-op outside runner workers and when no
 * timeout is configured.
 */
void heartbeat();

/**
 * Install graceful SIGINT/SIGTERM handling for batch runs: the first
 * signal requests an orderly stop (workers finish and checkpoint the
 * cells they are running, pending cells are left for --resume, and
 * Experiment::finish() prints the interruption plus the failed-cells
 * report and returns 128+signo); a second signal kills the process with
 * the default disposition. Installed by the Experiment constructor;
 * idempotent.
 */
void installSignalHandlers();

/** Signal number of a pending graceful-stop request, 0 if none. */
int interruptSignal();

/** Set/clear the graceful-stop request (signal-handler and test hook). */
void requestInterrupt(int signo);

/** A granted --trace-events claim: where and how to write the trace. */
struct TraceClaim
{
    std::string path;
    std::uint64_t sampleEvery = 4096;
    /** Id of the claiming cell (recorded in the trace metadata). */
    std::string cell;
};

/**
 * Try to claim the --trace-events output of the ExperimentRunner whose
 * worker is calling. Each runner grants at most one claim: to the cell
 * whose id matches --trace-cell, or — without a filter — to the first
 * caller. Returns nullopt when tracing is off, filtered to another
 * cell, already claimed, or when called outside a runner worker.
 * SecureMemorySim::run() calls this automatically.
 */
std::optional<TraceClaim> claimTraceEvents();

// ---------------------------------------------------------------------------
// Values, rows, cells.
// ---------------------------------------------------------------------------

/**
 * One metric value. Numeric values remember their display precision so
 * the table, JSON and CSV sinks all render the same number.
 */
class Value
{
  public:
    Value() = default;
    Value(std::string text) : kind_(Kind::Text), text_(std::move(text)) {}
    Value(const char *text) : kind_(Kind::Text), text_(text) {}

    static Value num(double v, int precision = 3);
    static Value integer(std::uint64_t v);
    /** Byte size rendered as "64KB" / "2MB" (text in every format). */
    static Value size(std::uint64_t bytes);

    /** Table / CSV cell content. */
    std::string text() const;
    /** JSON literal (bare number or quoted string). */
    std::string json() const;

    bool isNumeric() const { return kind_ != Kind::Text; }
    /** Raw numeric value (0 for text). */
    double asDouble() const;

    /// @name Exact-representation access (checkpoint serialization)
    /// @{
    enum class Kind : std::uint8_t { Text, Real, Int };
    Kind kind() const { return kind_; }
    const std::string &rawText() const { return text_; }
    double rawReal() const { return real_; }
    std::uint64_t rawInt() const { return int_; }
    int precision() const { return precision_; }
    /// @}

  private:
    Kind kind_ = Kind::Text;
    std::string text_;
    double real_ = 0.0;
    std::uint64_t int_ = 0;
    int precision_ = 3;
};

/** An ordered set of (column, value) pairs; one line of a result table. */
struct Row
{
    std::vector<std::pair<std::string, Value>> cols;

    Row &add(std::string key, Value v);
    Row &add(std::string key, const std::string &text);
    Row &add(std::string key, const char *text);
    Row &add(std::string key, double v, int precision);
    Row &add(std::string key, std::uint64_t v);

    /** nullptr if the column is absent. */
    const Value *find(std::string_view key) const;
    /** Numeric value of a column; 0 if absent. */
    double num(std::string_view key) const;
};

/**
 * A row tagged with the heading of the table it belongs to ("" for the
 * experiment's single/main table). The table sink starts a new table
 * whenever the section changes (first-seen order); JSON/CSV emit the
 * section as a field.
 */
struct SectionRow
{
    std::string section;
    Row row;
};

/** Everything one cell produces. */
struct CellOutput
{
    std::vector<SectionRow> rows;

    CellOutput &add(std::string section, Row row);
    CellOutput &add(Row row) { return add("", std::move(row)); }
};

/** One schedulable unit of experiment work. */
struct Cell
{
    /** Unique id within the experiment, e.g. "canneal/64KB". */
    std::string id;
    /**
     * Deterministic per-cell seed; filled by the runner from
     * deriveCellSeed(opts.seed, id) when left 0.
     */
    std::uint64_t seed = 0;
    /** Runs on a worker thread; must only touch cell-local state. */
    std::function<CellOutput(const Cell &)> work;
};

/**
 * One isolated cell failure. The runner records the failure, leaves the
 * cell's output empty, and keeps running the remaining cells; the
 * harness reports every failure and turns them into a non-zero exit.
 */
struct CellFailure
{
    /** Index of the failed cell within its run() call. */
    std::size_t index = 0;
    std::string phase;
    std::string id;
    std::uint64_t seed = 0;
    std::string error;
};

/** Identity of an experiment, shown in banners and records. */
struct ExperimentMeta
{
    /** Machine name, e.g. "fig6_eviction_policies". */
    std::string name;
    std::string title;
    std::string paperRef;
};

// ---------------------------------------------------------------------------
// Result sinks.
// ---------------------------------------------------------------------------

/** Receives experiment rows and renders them somewhere. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void begin(const ExperimentMeta &meta, const Options &opts);
    virtual void row(const SectionRow &r) = 0;
    /** Free-form postscript; only the table sink renders it. */
    virtual void note(const std::string &text);
    virtual void end();
};

/** Aligned text tables with the classic bench banner and notes. */
class TableSink : public ResultSink
{
  public:
    explicit TableSink(std::ostream &os) : os_(os) {}

    void begin(const ExperimentMeta &meta, const Options &opts) override;
    void row(const SectionRow &r) override;
    void note(const std::string &text) override;
    void end() override;

  private:
    std::ostream &os_;
    std::vector<std::pair<std::string, std::vector<Row>>> sections_;
    std::vector<std::string> notes_;
};

/** One flat JSON object per row: experiment/section plus the columns. */
class JsonlSink : public ResultSink
{
  public:
    explicit JsonlSink(std::ostream &os) : os_(os) {}

    void begin(const ExperimentMeta &meta, const Options &opts) override;
    void row(const SectionRow &r) override;

  private:
    std::ostream &os_;
    std::string experiment_;
};

/**
 * CSV with one header: experiment,section,<union of columns in
 * first-seen order>; cells a row lacks are left empty.
 */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::ostream &os) : os_(os) {}

    void begin(const ExperimentMeta &meta, const Options &opts) override;
    void row(const SectionRow &r) override;
    void end() override;

  private:
    std::ostream &os_;
    std::string experiment_;
    std::vector<std::string> columns_;
    std::vector<SectionRow> rows_;
};

/** Build the sink selected by --format / --out (fatal on open failure). */
std::unique_ptr<ResultSink> makeSink(const Options &opts);

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

/**
 * Executes cells on a pool of opts.effectiveJobs() threads. Outputs are
 * indexed like the input cells, so downstream consumers see the same
 * results in the same order regardless of parallelism; a progress/ETA
 * line is maintained on stderr while cells complete.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(Options opts) : opts_(std::move(opts)) {}

    /**
     * Run the cells. A throwing cell does not abort the grid: its
     * failure is recorded (see failures()) and its output stays empty
     * while every other cell still runs to completion.
     */
    std::vector<CellOutput> run(const std::vector<Cell> &cells,
                                const std::string &phase = "");

    const Options &options() const { return opts_; }

    /** Failures recorded across every run() call, in cell order. */
    const std::vector<CellFailure> &failures() const { return failures_; }

    /** Cells skipped because a --resume checkpoint was loaded. */
    std::uint64_t resumedCells() const { return resumedCells_; }

    /** Cells skipped because --only-cells deselected them. */
    std::uint64_t shardSkippedCells() const { return shardSkipped_; }

    /** Cells left unexecuted by a graceful SIGINT/SIGTERM stop. */
    std::uint64_t interruptedCells() const { return interruptedCells_; }

    /** --only-cells ids that never matched any cell of any run(). */
    std::vector<std::string> unmatchedOnlyCells() const;

    /** Whether a cell of any run() was granted the --trace-events claim. */
    bool traceClaimed() const { return traceClaimed_; }

  private:
    Options opts_;
    std::vector<CellFailure> failures_;
    bool traceClaimed_ = false;
    std::uint64_t resumedCells_ = 0;
    std::uint64_t shardSkipped_ = 0;
    std::uint64_t interruptedCells_ = 0;
    std::vector<std::string> matchedOnlyCells_;
    /**
     * Held for the runner's lifetime when --resume is active: two
     * runners (or a runner plus mapsd) pointed at the same checkpoint
     * directory fail fast instead of interleaving atomic publishes.
     */
    DirLock resumeLock_;
};

/// @name Checkpoint internals (exposed for tests)
/// @{
namespace detail {
/** Exact, self-contained serialization of one cell's output. */
std::string serializeCellOutput(const CellOutput &out);
/** Strict inverse of serializeCellOutput; false on any mismatch. */
bool parseCellOutput(const std::string &text, CellOutput &out);
/** Checkpoint file name for a cell (phase + id + seed + scale keyed). */
std::string checkpointFileName(const std::string &phase, const Cell &cell,
                               double scale);
} // namespace detail
/// @}

/**
 * The per-driver harness: banner + runner + sink. Typical driver:
 *
 *   auto opts = Options::parse(argc, argv);
 *   Experiment exp({"fig4_bimodal", "Figure 4: ...", "Figure 4 (§IV-D)"},
 *                  opts);
 *   exp.runAndEmit(cells);
 *   exp.note("expected shape (paper): ...");
 *   return exp.finish();
 */
class Experiment
{
  public:
    Experiment(ExperimentMeta meta, const Options &opts);

    ExperimentRunner &runner() { return runner_; }
    const Options &options() const { return runner_.options(); }

    /** Run cells without emitting (intermediate phase). */
    std::vector<CellOutput> run(const std::vector<Cell> &cells,
                                const std::string &phase = "");
    /** Run cells and stream every row to the sink in cell order. */
    std::vector<CellOutput> runAndEmit(const std::vector<Cell> &cells,
                                       const std::string &phase = "");

    void emit(const SectionRow &r);
    void emit(std::string section, Row row);
    void emit(Row row) { emit("", std::move(row)); }
    void emit(const CellOutput &out);

    void note(const std::string &text);

    /**
     * Flush the sink (appending the maps::check summary when --check is
     * active); returns the process exit code: 0; 1 when --check
     * recorded divergences or cells failed; 4 when --only-cells named
     * unknown cells; 128+signo after a graceful SIGINT/SIGTERM stop.
     * In --list-cells mode the result renders only into --out, and
     * "list-end complete" follows on stdout.
     */
    int finish();

  private:
    ExperimentMeta meta_;
    ExperimentRunner runner_;
    std::unique_ptr<ResultSink> sink_;
    bool finished_ = false;
};

} // namespace maps::runner

#endif // MAPS_CORE_RUNNER_HPP
