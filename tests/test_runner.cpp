/**
 * @file
 * Tests for maps::runner — option parsing, deterministic parallel
 * execution, and result-sink round-tripping.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/dirlock.hpp"
#include "core/runner.hpp"
#include "core/simulator.hpp"

namespace maps {
namespace {

using runner::Cell;
using runner::CellOutput;
using runner::CsvSink;
using runner::ExperimentMeta;
using runner::ExperimentRunner;
using runner::JsonlSink;
using runner::Options;
using runner::OutputFormat;
using runner::Row;
using runner::SectionRow;
using runner::TableSink;
using runner::Value;

// ---------------------------------------------------------------------------
// Options parsing.
// ---------------------------------------------------------------------------

TEST(RunnerOptions, Defaults)
{
    Options opts;
    EXPECT_EQ(Options::tryParse({}, opts), "");
    EXPECT_DOUBLE_EQ(opts.scale, 1.0);
    EXPECT_EQ(opts.seed, 1u);
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_GE(opts.effectiveJobs(), 1u);
    EXPECT_EQ(opts.format, OutputFormat::Table);
    EXPECT_TRUE(opts.outPath.empty());
}

TEST(RunnerOptions, ParsesEveryFlag)
{
    Options opts;
    EXPECT_EQ(Options::tryParse({"--scale=2.5", "--seed=42", "--jobs=3",
                                 "--format=csv", "--out=/tmp/x.csv",
                                 "--no-progress"},
                                opts),
              "");
    EXPECT_DOUBLE_EQ(opts.scale, 2.5);
    EXPECT_EQ(opts.seed, 42u);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.effectiveJobs(), 3u);
    EXPECT_EQ(opts.format, OutputFormat::Csv);
    EXPECT_EQ(opts.outPath, "/tmp/x.csv");
    EXPECT_FALSE(opts.progress);

    EXPECT_EQ(Options::tryParse({"--quick"}, opts), "");
    EXPECT_DOUBLE_EQ(opts.scale, 0.25);
    EXPECT_EQ(Options::tryParse({"--full"}, opts), "");
    EXPECT_DOUBLE_EQ(opts.scale, 4.0);
    EXPECT_EQ(Options::tryParse({"--format=json"}, opts), "");
    EXPECT_EQ(opts.format, OutputFormat::Jsonl);

    EXPECT_EQ(Options::tryParse({"--cell-timeout=2.5", "--resume=/tmp/ck"},
                                opts),
              "");
    EXPECT_DOUBLE_EQ(opts.cellTimeoutSec, 2.5);
    EXPECT_EQ(opts.resumeDir, "/tmp/ck");
}

TEST(RunnerOptions, RejectsUnknownFlags)
{
    Options opts;
    EXPECT_NE(Options::tryParse({"--bogus"}, opts), "");
    EXPECT_NE(Options::tryParse({"-q"}, opts), "");
    // Positional operands are errors unless the driver opts in.
    EXPECT_NE(Options::tryParse({"canneal"}, opts), "");
    std::vector<std::string> positionals;
    EXPECT_EQ(Options::tryParse({"canneal", "64"}, opts, &positionals),
              "");
    EXPECT_EQ(positionals, (std::vector<std::string>{"canneal", "64"}));
}

TEST(RunnerOptions, RejectsBadValues)
{
    Options opts;
    EXPECT_NE(Options::tryParse({"--scale=abc"}, opts), "");
    EXPECT_NE(Options::tryParse({"--scale=-1"}, opts), "");
    EXPECT_NE(Options::tryParse({"--scale=0"}, opts), "");
    EXPECT_NE(Options::tryParse({"--scale="}, opts), "");
    EXPECT_NE(Options::tryParse({"--scale=1x"}, opts), "");
    EXPECT_NE(Options::tryParse({"--seed=ten"}, opts), "");
    EXPECT_NE(Options::tryParse({"--jobs=0"}, opts), "");
    EXPECT_NE(Options::tryParse({"--jobs=many"}, opts), "");
    EXPECT_NE(Options::tryParse({"--format=xml"}, opts), "");
    EXPECT_NE(Options::tryParse({"--cell-timeout=0"}, opts), "");
    EXPECT_NE(Options::tryParse({"--cell-timeout=abc"}, opts), "");
    EXPECT_NE(Options::tryParse({"--resume="}, opts), "");
    EXPECT_EQ(Options::tryParse({"--help"}, opts), "help");
}

TEST(RunnerOptions, RejectsRepeatedFlags)
{
    // Conflicting repeats were previously last-wins, which let a typo'd
    // command line (or a service composing flags) silently run the
    // wrong sweep; now every repeat is a hard usage error.
    Options opts;
    EXPECT_NE(Options::tryParse({"--jobs=2", "--jobs=4"}, opts), "");
    EXPECT_NE(Options::tryParse({"--seed=1", "--seed=1"}, opts), "")
        << "even an identical repeat is an error";
    EXPECT_NE(Options::tryParse({"--no-progress", "--no-progress"},
                                opts),
              "");
    EXPECT_NE(Options::tryParse({"--out=a", "--out=b"}, opts), "");
    EXPECT_NE(Options::tryParse({"--resume=a", "--resume=b"}, opts), "");
    // The sweep-size spellings are one option with three names.
    EXPECT_NE(Options::tryParse({"--quick", "--quick"}, opts), "");
    EXPECT_NE(Options::tryParse({"--quick", "--full"}, opts), "");
    EXPECT_NE(Options::tryParse({"--scale=2", "--quick"}, opts), "");
    EXPECT_NE(Options::tryParse({"--full", "--scale=0.5"}, opts), "");
    // Distinct options still combine freely.
    EXPECT_EQ(Options::tryParse({"--quick", "--seed=2", "--jobs=2"},
                                opts),
              "");
}

TEST(RunnerOptions, ParsesServiceShardingFlags)
{
    Options opts;
    EXPECT_EQ(Options::tryParse({"--list-cells"}, opts), "");
    EXPECT_TRUE(opts.listCells);

    Options shard;
    EXPECT_EQ(Options::tryParse({"--only-cells=a,b/64KB"}, shard), "");
    EXPECT_EQ(shard.onlyCells,
              (std::vector<std::string>{"a", "b/64KB"}));
    EXPECT_NE(Options::tryParse({"--only-cells="}, shard), "");
    EXPECT_NE(Options::tryParse({"--only-cells=a,,b"}, shard), "")
        << "empty cell id inside the list";
    EXPECT_NE(Options::tryParse({"--only-cells=a,"}, shard), "");
    EXPECT_NE(Options::tryParse({"--only-cells=a", "--only-cells=b"},
                                shard),
              "");
    EXPECT_NE(Options::tryParse({"--list-cells", "--list-cells"}, shard),
              "");
}

TEST(RunnerOptions, HelpListsEveryAcceptedFlag)
{
    // The spellings in --help's option column, each cut after its '='.
    std::ostringstream help;
    Options::usage(help, "driver");
    std::set<std::string> listed;
    std::istringstream lines(help.str());
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("  -", 0) != 0)
            continue;
        std::string column = line.substr(2, 30);
        column.erase(column.find_last_not_of(' ') + 1);
        for (std::size_t start = 0; start != std::string::npos;) {
            const auto bar = column.find(" | ", start);
            std::string spelling = column.substr(start, bar - start);
            if (const auto eq = spelling.find('='); eq != std::string::npos)
                spelling.resize(eq + 1);
            listed.insert(spelling);
            start = bar == std::string::npos ? bar : bar + 3;
        }
    }

    const std::set<std::string> accepted = {
        "--quick",          "--full",         "--scale=",
        "--seed=",          "--jobs=",        "--format=",
        "--out=",           "--no-progress",  "--check",
        "--cell-timeout=",  "--resume=",      "--metrics=",
        "--trace-events=",  "--trace-sample=", "--trace-cell=",
        "--list-cells",     "--only-cells=",  "--sample=",
        "--estimator=",     "--help",         "-h"};
    EXPECT_EQ(listed, accepted);
    for (const auto &spelling : listed) {
        Options opts;
        const auto err = Options::tryParse({spelling}, opts);
        EXPECT_EQ(err.rfind("unknown option", 0), std::string::npos)
            << spelling;
        EXPECT_EQ(err.rfind("unexpected argument", 0), std::string::npos)
            << spelling;
    }
    Options opts;
    EXPECT_EQ(Options::tryParse({"--bogus"}, opts), "unknown option: --bogus");
}

TEST(RunnerOptions, ScaledRefsKeepFloor)
{
    Options opts;
    opts.scale = 0.25;
    EXPECT_EQ(opts.refs(800'000), 200'000u);
    EXPECT_EQ(opts.refs(8'000), 10'000u) << "10k floor";
}

TEST(Runner, DeriveCellSeedIsStableAndDistinct)
{
    const auto a = runner::deriveCellSeed(1, "canneal/64KB");
    EXPECT_EQ(a, runner::deriveCellSeed(1, "canneal/64KB"));
    EXPECT_NE(a, runner::deriveCellSeed(1, "canneal/128KB"));
    EXPECT_NE(a, runner::deriveCellSeed(2, "canneal/64KB"));
    EXPECT_NE(a, 0u);
}

// ---------------------------------------------------------------------------
// Parallel == serial.
// ---------------------------------------------------------------------------

std::vector<Cell>
simCells()
{
    std::vector<Cell> cells;
    for (const std::string bench :
         {"libquantum", "canneal", "fft", "mcf"}) {
        cells.push_back({bench, 0, [bench](const Cell &cell) {
            SimConfig cfg;
            cfg.benchmark = bench;
            cfg.warmupRefs = 10'000;
            cfg.measureRefs = 60'000;
            cfg.seed = cell.seed;
            cfg.secure.layout.protectedBytes = 256_MiB;
            cfg.useDram = false;
            const auto rep = runBenchmark(cfg);
            Row row;
            row.add("benchmark", bench)
                .add("cycles", rep.cycles)
                .add("md MPKI", rep.metadataMpki, 6)
                .add("ed2", rep.ed2, 9);
            return CellOutput{}.add(std::move(row));
        }});
    }
    return cells;
}

std::vector<CellOutput>
runWithJobs(unsigned jobs)
{
    Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    return ExperimentRunner(opts).run(simCells());
}

TEST(Runner, ParallelSweepMatchesSerial)
{
    const auto serial = runWithJobs(1);
    const auto parallel = runWithJobs(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].rows.size(), parallel[i].rows.size());
        const auto &s = serial[i].rows.front().row;
        const auto &p = parallel[i].rows.front().row;
        ASSERT_EQ(s.cols.size(), p.cols.size());
        for (std::size_t c = 0; c < s.cols.size(); ++c) {
            EXPECT_EQ(s.cols[c].first, p.cols[c].first);
            EXPECT_EQ(s.cols[c].second.text(), p.cols[c].second.text())
                << "cell " << i << " column " << s.cols[c].first;
        }
    }
}

TEST(Runner, FillsPerCellSeedsDeterministically)
{
    std::vector<std::uint64_t> seen;
    std::vector<Cell> cells;
    for (const std::string id : {"a", "b"}) {
        cells.push_back({id, 0, [&seen](const Cell &cell) {
            seen.push_back(cell.seed); // jobs=1: runs on this thread
            return CellOutput{};
        }});
    }
    Options opts;
    opts.jobs = 1;
    opts.seed = 7;
    opts.progress = false;
    ExperimentRunner(opts).run(cells);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], runner::deriveCellSeed(7, "a"));
    EXPECT_EQ(seen[1], runner::deriveCellSeed(7, "b"));
    EXPECT_NE(seen[0], seen[1]);
}

// ---------------------------------------------------------------------------
// Failure isolation, watchdog, resume.
// ---------------------------------------------------------------------------

TEST(Runner, IsolatesWorkerFailures)
{
    // One poisoned cell in a grid of eight: the other seven must still
    // produce their rows, the failure is recorded with the cell's id
    // and seed, and nothing throws out of run().
    std::vector<Cell> cells;
    for (int i = 0; i < 8; ++i) {
        const std::string id = "cell" + std::to_string(i);
        if (i == 3) {
            cells.push_back({id, 0, [](const Cell &) -> CellOutput {
                throw std::runtime_error("poisoned");
            }});
        } else {
            cells.push_back({id, 0, [id](const Cell &) {
                return CellOutput{}.add(Row{}.add("id", id));
            }});
        }
    }
    Options opts;
    opts.jobs = 4;
    opts.progress = false;
    ExperimentRunner r(opts);
    const auto out = r.run(cells, "grid");

    ASSERT_EQ(out.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        if (i == 3) {
            EXPECT_TRUE(out[i].rows.empty());
        } else {
            ASSERT_EQ(out[i].rows.size(), 1u);
            EXPECT_EQ(out[i].rows[0].row.find("id")->text(),
                      "cell" + std::to_string(i));
        }
    }
    ASSERT_EQ(r.failures().size(), 1u);
    EXPECT_EQ(r.failures()[0].id, "cell3");
    EXPECT_EQ(r.failures()[0].index, 3u);
    EXPECT_EQ(r.failures()[0].phase, "grid");
    EXPECT_EQ(r.failures()[0].error, "poisoned");
    EXPECT_EQ(r.failures()[0].seed,
              runner::deriveCellSeed(opts.seed, "cell3"));
}

TEST(Runner, RecordsNonStdExceptionsToo)
{
    std::vector<Cell> cells;
    cells.push_back({"weird", 0, [](const Cell &) -> CellOutput {
        throw 42; // not derived from std::exception
    }});
    Options opts;
    opts.jobs = 1;
    opts.progress = false;
    ExperimentRunner r(opts);
    r.run(cells);
    ASSERT_EQ(r.failures().size(), 1u);
    EXPECT_EQ(r.failures()[0].error, "unknown exception");
}

TEST(Runner, HeartbeatIsNoOpOutsideWorkers)
{
    EXPECT_NO_THROW(runner::heartbeat());
}

TEST(Runner, CellTimeoutCancelsCooperatively)
{
    std::vector<Cell> cells;
    cells.push_back({"slow", 0, [](const Cell &) -> CellOutput {
        const auto start = std::chrono::steady_clock::now();
        for (;;) {
            runner::heartbeat();
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (std::chrono::steady_clock::now() - start >
                std::chrono::seconds(30)) {
                return CellOutput{}; // watchdog failed: finish anyway
            }
        }
    }});
    cells.push_back({"fast", 0, [](const Cell &) {
        return CellOutput{}.add(Row{}.add("ok", "yes"));
    }});
    Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.cellTimeoutSec = 0.1;
    ExperimentRunner r(opts);
    const auto out = r.run(cells);
    ASSERT_EQ(r.failures().size(), 1u);
    EXPECT_EQ(r.failures()[0].id, "slow");
    EXPECT_NE(r.failures()[0].error.find("--cell-timeout"),
              std::string::npos);
    ASSERT_EQ(out[1].rows.size(), 1u) << "fast cell unaffected";
}

CellOutput
sampleOutput()
{
    CellOutput out;
    out.add("sec one", Row{}
                           .add("name", "weird \"chars\"\n\t:,{}")
                           .add("pi", 3.14159265358979, 7)
                           .add("count", std::uint64_t{0xFFFFFFFFFFFFFFFFull}));
    out.add(Row{}.add("empty", "").add("neg", -0.0, 3));
    return out;
}

TEST(RunnerCheckpoint, SerializationRoundTripsExactly)
{
    const auto original = sampleOutput();
    const auto text = runner::detail::serializeCellOutput(original);
    CellOutput parsed;
    ASSERT_TRUE(runner::detail::parseCellOutput(text, parsed));
    ASSERT_EQ(parsed.rows.size(), original.rows.size());
    for (std::size_t r = 0; r < original.rows.size(); ++r) {
        EXPECT_EQ(parsed.rows[r].section, original.rows[r].section);
        const auto &a = original.rows[r].row.cols;
        const auto &b = parsed.rows[r].row.cols;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t c = 0; c < a.size(); ++c) {
            EXPECT_EQ(a[c].first, b[c].first);
            EXPECT_EQ(a[c].second.kind(), b[c].second.kind());
            // Byte-exact rendering in every sink format.
            EXPECT_EQ(a[c].second.text(), b[c].second.text());
            EXPECT_EQ(a[c].second.json(), b[c].second.json());
        }
    }
    // Re-serializing the parse is the identity.
    EXPECT_EQ(runner::detail::serializeCellOutput(parsed), text);
}

TEST(RunnerCheckpoint, ParserRejectsCorruptInput)
{
    const auto text = runner::detail::serializeCellOutput(sampleOutput());
    CellOutput out;
    EXPECT_FALSE(runner::detail::parseCellOutput("", out));
    EXPECT_FALSE(runner::detail::parseCellOutput("garbage", out));
    // Truncation at every prefix length must be rejected, never crash.
    for (std::size_t n = 0; n < text.size(); n += 7)
        EXPECT_FALSE(runner::detail::parseCellOutput(
            text.substr(0, n), out))
            << "accepted a " << n << "-byte truncation";
    std::string flipped = text;
    flipped[flipped.size() / 2] ^= 0x20;
    CellOutput dummy;
    // A flipped byte either fails parse or changes content; it must
    // never be silently accepted as the original.
    if (runner::detail::parseCellOutput(flipped, dummy)) {
        EXPECT_NE(runner::detail::serializeCellOutput(dummy), text);
    }
}

TEST(RunnerCheckpoint, FileNameKeyedOnConfiguration)
{
    Cell cell{"canneal/64KB", 7, nullptr};
    const auto base = runner::detail::checkpointFileName("p", cell, 1.0);
    EXPECT_EQ(base, runner::detail::checkpointFileName("p", cell, 1.0));
    EXPECT_NE(base, runner::detail::checkpointFileName("q", cell, 1.0));
    EXPECT_NE(base, runner::detail::checkpointFileName("p", cell, 2.0));
    Cell other = cell;
    other.seed = 8;
    EXPECT_NE(base, runner::detail::checkpointFileName("p", other, 1.0));
    // The id is sanitized into a portable file name.
    EXPECT_EQ(base.find('/'), std::string::npos);
}

/** Run one trivial cell against opts.resumeDir; returns cells resumed. */
std::size_t
runOneCell(const Options &opts)
{
    ExperimentRunner runner(opts);
    std::vector<Cell> cells;
    cells.push_back({"c0", 0, [](const Cell &) {
                         return CellOutput{}.add(Row{}.add("id", "c0"));
                     }});
    runner.run(cells, "phase");
    return runner.resumedCells();
}

TEST(ResumeManifestDeathTest, EveryRowChangingFlagIsPartOfTheIdentity)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() /
                     ("maps_manifest_test_" + std::to_string(::getpid()));
    Options base;
    base.jobs = 1;
    base.progress = false;
    base.resumeDir = dir.string();

    struct Case
    {
        const char *flag;
        void (*change)(Options &);
    };
    const Case cases[] = {
        {"--scale", [](Options &o) { o.scale = 0.5; }},
        {"--seed", [](Options &o) { o.seed = 2; }},
        {"--check", [](Options &o) { o.check = true; }},
        {"--metrics",
         [](Options &o) { o.metrics = runner::MetricsLevel::Summary; }},
        {"--sample",
         [](Options &o) {
             ASSERT_EQ(sampling::SampleSpec::parse("auto", o.sample), "");
         }},
        {"--estimator",
         [](Options &o) { o.estimator = estimator::Mode::Analytic; }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.flag);
        fs::remove_all(dir);
        EXPECT_EQ(runOneCell(base), 0u);
        EXPECT_EQ(runOneCell(base), 1u) << "identical flags resume";

        Options changed = base;
        c.change(changed);
        EXPECT_EXIT(runOneCell(changed), ::testing::ExitedWithCode(1),
                    "resume\\.manifest");

        // A mapsd cell child compares every key except --metrics: mapsd
        // downgrades cells to summary on purpose and discloses it.
        Options child = changed;
        child.onlyCells = {"c0"};
        if (std::string(c.flag) == "--metrics") {
            EXPECT_EQ(runOneCell(child), 1u);
        } else {
            EXPECT_EXIT(runOneCell(child), ::testing::ExitedWithCode(1),
                        "resume\\.manifest");
        }
    }

    // A directory recorded in the old two-key format cannot resume.
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(dir / "resume.manifest")
        << "maps-resume-v1\nsample=off\nestimator=sim\n";
    EXPECT_EXIT(runOneCell(base), ::testing::ExitedWithCode(1),
                "resume\\.manifest");
    fs::remove_all(dir);
}

TEST(RunnerResume, SkipsCheckpointedCellsAndMatchesUninterrupted)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() /
                     ("maps_resume_test_" +
                      std::to_string(::getpid()));
    fs::remove_all(dir);

    std::atomic<int> executions{0};
    const auto make_cells = [&executions] {
        std::vector<Cell> cells;
        for (int i = 0; i < 6; ++i) {
            const std::string id = "cell" + std::to_string(i);
            cells.push_back({id, 0, [id, &executions](const Cell &cell) {
                ++executions;
                return CellOutput{}.add(
                    Row{}.add("id", id).add("seed", cell.seed).add(
                        "x", 0.1 * static_cast<double>(cell.seed % 97),
                        6));
            }});
        }
        return cells;
    };

    Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.resumeDir = dir.string();

    // First (uninterrupted) run writes one checkpoint per cell.
    ExperimentRunner first(opts);
    const auto baseline = first.run(make_cells(), "phase");
    EXPECT_EQ(executions.load(), 6);
    EXPECT_EQ(first.resumedCells(), 0u);

    // Simulate a crash that lost some checkpoints: delete two files
    // (the dir also holds the runner's .maps-lock and the flag-guard
    // resume.manifest, which are not checkpoints).
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.front() != '.' && name != "resume.manifest")
            files.push_back(e.path());
    }
    ASSERT_EQ(files.size(), 6u);
    std::sort(files.begin(), files.end());
    fs::remove(files[1]);
    fs::remove(files[4]);

    executions = 0;
    ExperimentRunner second(opts);
    const auto resumed = second.run(make_cells(), "phase");
    EXPECT_EQ(executions.load(), 2) << "only the lost cells re-ran";
    EXPECT_EQ(second.resumedCells(), 4u);

    // The resumed outputs must be byte-identical to the uninterrupted
    // run in every rendered format.
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(runner::detail::serializeCellOutput(resumed[i]),
                  runner::detail::serializeCellOutput(baseline[i]));
    }

    // A torn checkpoint (partial write) is re-run, not trusted.
    {
        std::ifstream in(files[0], std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        const auto full = ss.str();
        std::ofstream torn(files[0],
                           std::ios::binary | std::ios::trunc);
        torn << full.substr(0, full.size() / 2);
    }
    executions = 0;
    ExperimentRunner third(opts);
    third.run(make_cells(), "phase");
    EXPECT_EQ(executions.load(), 1) << "torn checkpoint re-executed";

    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// --list-cells: one run lists an incomplete grid or assembles the result.
// ---------------------------------------------------------------------------

namespace list_test {

namespace fs = std::filesystem;

/**
 * A two-phase experiment whose phase "b" consumes phase "a"'s outputs.
 * Every work function that executes leaves a marker file in @p ranDir.
 */
int
runTwoPhase(const Options &opts, const fs::path &ranDir)
{
    runner::Experiment exp({"two_phase", "two-phase probe", "probe"},
                           opts);
    const auto cell = [&ranDir](const std::string &id, std::uint64_t in) {
        return Cell{id, 0, [id, in, ranDir](const Cell &c) {
                        std::ofstream(ranDir / id) << "ran\n";
                        return CellOutput{}.add(
                            Row{}.add("id", id).add("seed", c.seed).add(
                                "input", in));
                    }};
    };
    std::vector<Cell> first;
    for (int i = 0; i < 3; ++i)
        first.push_back(cell("a" + std::to_string(i), 0));
    const auto a = exp.runAndEmit(first, "a");
    std::vector<Cell> second;
    for (std::size_t i = 0; i < a.size(); ++i)
        second.push_back(cell("b" + std::to_string(i),
                              runner::detail::serializeCellOutput(a[i])
                                  .size()));
    exp.runAndEmit(second, "b");
    exp.note("two dependent phases");
    return exp.finish();
}

/** Run runTwoPhase in a child process with stdout in @p stdoutPath;
 *  returns its exit code. */
int
runForked(const Options &opts, const fs::path &ranDir,
          const fs::path &stdoutPath)
{
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int fd = ::open(stdoutPath.c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC, 0644);
        if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0)
            ::_exit(120);
        ::close(fd);
        std::exit(runTwoPhase(opts, ranDir));
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace list_test

TEST(RunnerListCells, ListsPendingPhaseOrAssemblesResult)
{
    using namespace list_test;
    const auto dir = fs::temp_directory_path() /
                     ("maps_list_test_" + std::to_string(::getpid()));
    const auto ran = dir / "ran";
    struct Variant
    {
        runner::MetricsLevel metrics;
        bool check;
    };
    for (const Variant v : {Variant{runner::MetricsLevel::Full, false},
                            Variant{runner::MetricsLevel::Off, true}}) {
        SCOPED_TRACE(v.check ? "--check" : "--metrics=full");
        fs::remove_all(dir);
        fs::create_directories(ran);
        Options opts;
        opts.jobs = 1;
        opts.progress = false;
        opts.resumeDir = (dir / "ck").string();
        opts.metrics = v.metrics;
        opts.check = v.check;

        // Checkpoint phase a only: the shard stops at phase b's holes.
        Options shard = opts;
        shard.onlyCells = {"a0", "a1", "a2"};
        ASSERT_EQ(runForked(shard, ran, dir / "shard.txt"), 0);
        fs::remove_all(ran);
        fs::create_directories(ran);

        Options list = opts;
        list.listCells = true;
        list.outPath = (dir / "listed.txt").string();
        ASSERT_EQ(runForked(list, ran, dir / "list1.txt"), 0);
        EXPECT_EQ(slurp(dir / "list1.txt"),
                  "cell\ta\ta0\tcached\ncell\ta\ta1\tcached\n"
                  "cell\ta\ta2\tcached\ncell\tb\tb0\tpending\n"
                  "cell\tb\tb1\tpending\ncell\tb\tb2\tpending\n"
                  "list-end incomplete\n");
        EXPECT_TRUE(fs::is_empty(ran)) << "a listing computed a cell";

        // A plain run fills phase b; a second one is all cached and is
        // the reference for the assembled result.
        ASSERT_EQ(runForked(opts, ran, dir / "fill.txt"), 0);
        ASSERT_EQ(runForked(opts, ran, dir / "plain.txt"), 0);
        fs::remove_all(ran);
        fs::create_directories(ran);

        ASSERT_EQ(runForked(list, ran, dir / "list2.txt"), 0);
        EXPECT_EQ(slurp(dir / "list2.txt"),
                  "cell\ta\ta0\tcached\ncell\ta\ta1\tcached\n"
                  "cell\ta\ta2\tcached\ncell\tb\tb0\tcached\n"
                  "cell\tb\tb1\tcached\ncell\tb\tb2\tcached\n"
                  "list-end complete\n");
        EXPECT_TRUE(fs::is_empty(ran)) << "a listing computed a cell";
        const std::string plain = slurp(dir / "plain.txt");
        EXPECT_NE(plain.find("b2"), std::string::npos) << plain;
        EXPECT_EQ(slurp(dir / "listed.txt"), plain);
        EXPECT_EQ(plain, slurp(dir / "fill.txt"));
    }
    fs::remove_all(dir);
}

TEST(RunnerResume, RefusedResumeLeavesOutFileIntact)
{
    using namespace list_test;
    const auto dir = fs::temp_directory_path() /
                     ("maps_out_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const auto ran = dir / "ran";
    fs::create_directories(ran);
    Options opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.resumeDir = (dir / "ck").string();
    opts.format = runner::OutputFormat::Jsonl;
    opts.outPath = (dir / "out.jsonl").string();
    ASSERT_EQ(runForked(opts, ran, dir / "stdout1.txt"), 0);
    const std::string before = slurp(dir / "out.jsonl");
    ASSERT_NE(before.find("b2"), std::string::npos) << before;

    // A different --seed is refused on the manifest (exit 1) before the
    // sink opens: the previous --out file keeps every byte.
    Options reseeded = opts;
    reseeded.seed = 2;
    EXPECT_EQ(runForked(reseeded, ran, dir / "stdout2.txt"), 1);
    EXPECT_EQ(slurp(dir / "out.jsonl"), before);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checkpoint-directory locking.
// ---------------------------------------------------------------------------

namespace fs_lock_test {

std::filesystem::path
lockTestDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("maps_dirlock_test_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A pid that is guaranteed dead: fork a child and reap it. */
pid_t
deadPid()
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return pid;
}

} // namespace fs_lock_test

TEST(RunnerDirLock, AcquireWriteReleaseCycle)
{
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("cycle");
    runner::DirLock lock;
    EXPECT_EQ(lock.acquire(dir.string()), "");
    EXPECT_TRUE(lock.held());
    EXPECT_FALSE(lock.adopted());
    const auto path = fs::path(lock.path());
    ASSERT_TRUE(fs::exists(path));
    {
        std::ifstream in(path);
        std::string line;
        std::getline(in, line);
        EXPECT_EQ(line, "maps-lock-v1 pid " +
                            std::to_string(::getpid()));
    }
    lock.release();
    EXPECT_FALSE(lock.held());
    EXPECT_FALSE(fs::exists(path)) << "release removes the lock file";
    fs::remove_all(dir);
}

TEST(RunnerDirLock, SelfOwnedLockIsAdoptedNotReleased)
{
    // A second runner in the same process (e.g. phase two of a driver)
    // must coexist with the first, and its release must not steal the
    // owner's lock file.
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("adopt");
    runner::DirLock owner;
    ASSERT_EQ(owner.acquire(dir.string()), "");
    runner::DirLock again;
    EXPECT_EQ(again.acquire(dir.string()), "");
    EXPECT_TRUE(again.held());
    EXPECT_TRUE(again.adopted());
    again.release();
    EXPECT_TRUE(fs::exists(owner.path()))
        << "adopter's release left the owner's file alone";
    owner.release();
    fs::remove_all(dir);
}

TEST(RunnerDirLock, ParentOwnedLockIsAdoptedByChild)
{
    // mapsd holds the job lock while its fork/exec'ed cell children
    // acquire the same checkpoint dir: they must adopt, not fail.
    const auto dir = fs_lock_test::lockTestDir("parent");
    runner::DirLock owner;
    ASSERT_EQ(owner.acquire(dir.string()), "");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        runner::DirLock child;
        const auto err = child.acquire(dir.string());
        const bool ok = err.empty() && child.held() && child.adopted();
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    owner.release();
    std::filesystem::remove_all(dir);
}

TEST(RunnerDirLock, StaleLockFromDeadOwnerIsTakenOver)
{
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("stale");
    {
        std::ofstream out(dir / ".maps-lock");
        out << "maps-lock-v1 pid " << fs_lock_test::deadPid() << "\n";
    }
    runner::DirLock lock;
    EXPECT_EQ(lock.acquire(dir.string()), "")
        << "dead owner's lock must be taken over, not respected";
    EXPECT_TRUE(lock.held());
    EXPECT_FALSE(lock.adopted());
    lock.release();

    // A torn/garbage lock file is equally stale.
    {
        std::ofstream out(dir / ".maps-lock");
        out << "not a lock file";
    }
    EXPECT_EQ(lock.acquire(dir.string()), "");
    lock.release();
    fs::remove_all(dir);
}

TEST(RunnerDirLock, ConcurrentStaleTakeoverAdmitsExactlyOneOwner)
{
    // Regression for the dead-pid-reuse race: contenders that all read
    // the same dead owner used to unlink-and-recreate independently,
    // so a slow contender could unlink the *fresh* lock a fast one had
    // just written and both would believe they held the directory.
    // Exclusion rests on flock(), which only one contender can win.
    // Each winning child enters a critical section marked by an O_EXCL
    // "cs" file; if mutual exclusion is ever violated, that create
    // fails with EEXIST and the child exits with a distinct code.
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("race");
    const auto csPath = (dir / "cs").string();
    constexpr int kRounds = 20;
    constexpr int kContenders = 4;

    for (int round = 0; round < kRounds; ++round) {
        {
            std::ofstream out(dir / ".maps-lock");
            out << "maps-lock-v1 pid " << fs_lock_test::deadPid()
                << "\n";
        }
        fs::remove(csPath);
        int gate[2];
        ASSERT_EQ(::pipe(gate), 0);
        std::vector<pid_t> kids;
        for (int c = 0; c < kContenders; ++c) {
            const pid_t pid = ::fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                // Block until the parent opens the gate so all
                // contenders hit the stale lock together.
                ::close(gate[1]);
                char b;
                (void)!::read(gate[0], &b, 1);
                ::close(gate[0]);
                runner::DirLock lock;
                const auto err = lock.acquire(dir.string());
                if (!err.empty()) {
                    // Losing is fine, but only to a *live* owner.
                    ::_exit(err.find("locked by running process") !=
                                    std::string::npos
                                ? 1
                                : 3);
                }
                const int cs = ::open(csPath.c_str(),
                                      O_CREAT | O_EXCL | O_WRONLY, 0644);
                if (cs < 0)
                    ::_exit(2); // Two owners at once: the bug.
                ::usleep(20000);
                ::close(cs);
                ::unlink(csPath.c_str());
                lock.release();
                ::_exit(0);
            }
            kids.push_back(pid);
        }
        ::close(gate[0]);
        ::close(gate[1]); // Open the gate: EOF releases every child.
        int winners = 0;
        for (const pid_t pid : kids) {
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFEXITED(status));
            const int code = WEXITSTATUS(status);
            EXPECT_NE(code, 2) << "round " << round
                               << ": two contenders held the lock "
                                  "concurrently";
            EXPECT_NE(code, 3) << "round " << round
                               << ": contender failed for an "
                                  "unexpected reason";
            if (code == 0)
                ++winners;
        }
        EXPECT_GE(winners, 1)
            << "round " << round << ": nobody took over the stale lock";
    }
    fs::remove_all(dir);
}

TEST(RunnerDirLock, StaleTakeoverGuardFromDeadOwnerIsCleared)
{
    // A contender that dies mid-takeover leaves the guard file behind;
    // the next acquirer must clear it instead of spinning forever.
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("guardstale");
    {
        std::ofstream out(dir / ".maps-lock");
        out << "maps-lock-v1 pid " << fs_lock_test::deadPid() << "\n";
    }
    {
        std::ofstream out(dir / ".maps-lock.takeover");
        out << "maps-lock-v1 pid " << fs_lock_test::deadPid() << "\n";
    }
    runner::DirLock lock;
    EXPECT_EQ(lock.acquire(dir.string()), "");
    EXPECT_TRUE(lock.held());
    EXPECT_FALSE(fs::exists(dir / ".maps-lock.takeover"))
        << "stale takeover guard must be cleaned up";
    lock.release();
    fs::remove_all(dir);
}

TEST(RunnerDirLock, LiveHolderBlocksUntilItDies)
{
    // A forked child takes the lock and holds it. This process (only
    // a child may adopt its parent's lock, not the reverse) must be
    // refused while the holder lives, and must get the lock once the
    // holder is SIGKILLed without releasing — the kernel drops its
    // flock.
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("holder");
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(ready[0]);
        runner::DirLock lock;
        const char ok = lock.acquire(dir.string()).empty() ? 1 : 0;
        (void)!::write(ready[1], &ok, 1);
        for (;;)
            ::pause();
    }
    ::close(ready[1]);
    char ok = 0;
    ASSERT_EQ(::read(ready[0], &ok, 1), 1);
    ::close(ready[0]);
    ASSERT_EQ(ok, 1) << "child could not take the free lock";

    runner::DirLock lock;
    const auto err = lock.acquire(dir.string());
    EXPECT_NE(err.find("locked by running process " +
                       std::to_string(pid)),
              std::string::npos)
        << err;
    EXPECT_FALSE(lock.held());

    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_EQ(lock.acquire(dir.string()), "")
        << "a killed holder's lock must be taken over";
    EXPECT_TRUE(lock.held());
    EXPECT_FALSE(lock.adopted());
    lock.release();
    fs::remove_all(dir);
}

TEST(RunnerDirLock, LiveForeignOwnerFailsFast)
{
    // pid 1 is alive and is neither us nor our parent; the probe's
    // EPERM (signalling another user's process) must count as alive.
    namespace fs = std::filesystem;
    const auto dir = fs_lock_test::lockTestDir("live");
    {
        std::ofstream out(dir / ".maps-lock");
        out << "maps-lock-v1 pid 1\n";
    }
    runner::DirLock lock;
    const auto err = lock.acquire(dir.string());
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("locked by running process 1"),
              std::string::npos)
        << err;
    EXPECT_FALSE(lock.held());
    EXPECT_TRUE(fs::exists(dir / ".maps-lock"))
        << "the live owner's lock file must survive";
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Graceful interruption: kill a real run and inspect what it left.
// ---------------------------------------------------------------------------

TEST(RunnerInterrupt, SigintCheckpointsAndReportsHonestly)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() /
                     ("maps_sigint_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto ckDir = dir / "ck";
    const auto outFile = dir / "out.txt";

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: a slow 10-cell sweep with checkpoints, writing its
        // report to a file. The Experiment constructor installs the
        // graceful SIGINT handler.
        Options opts;
        opts.jobs = 1;
        opts.progress = false;
        opts.resumeDir = ckDir.string();
        opts.outPath = outFile.string();
        runner::Experiment exp({"sigint_probe", "probe", "probe"},
                               opts);
        std::vector<Cell> cells;
        for (int i = 0; i < 10; ++i) {
            const std::string id = "cell" + std::to_string(i);
            cells.push_back({id, 0, [id](const Cell &) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(300));
                return CellOutput{}.add(Row{}.add("id", id));
            }});
        }
        exp.runAndEmit(cells);
        std::exit(exp.finish());
    }

    // Parent: wait until at least one checkpoint proves the sweep is
    // underway, then request a graceful stop.
    bool started = false;
    for (int waited = 0; waited < 20000; waited += 50) {
        std::error_code ec;
        if (fs::exists(ckDir, ec) &&
            !fs::is_empty(ckDir, ec)) {
            started = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(started) << "child never checkpointed a cell";
    ASSERT_EQ(::kill(pid, SIGINT), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "graceful stop must exit, not die of the signal";
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);

    // The work done so far is checkpointed (resumable), the rest is
    // not: strictly between zero and all cells.
    std::size_t checkpoints = 0;
    for (const auto &e : fs::directory_iterator(ckDir)) {
        if (e.path().filename().string().front() != '.')
            ++checkpoints;
    }
    EXPECT_GE(checkpoints, 1u);
    EXPECT_LT(checkpoints, 10u)
        << "SIGINT landed too late to observe an interruption";

    // The report must say so out loud.
    std::ifstream in(outFile);
    std::stringstream ss;
    ss << in.rdbuf();
    const auto report = ss.str();
    EXPECT_NE(report.find("interrupted"), std::string::npos) << report;
    EXPECT_NE(report.find("re-run with the same --resume dir"),
              std::string::npos)
        << report;
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Sinks render the same values in every format.
// ---------------------------------------------------------------------------

std::vector<SectionRow>
sampleRows()
{
    std::vector<SectionRow> rows;
    rows.push_back({"", Row{}
                            .add("benchmark", "canneal")
                            .add("md MPKI", 239.151234, 1)
                            .add("cycles", std::uint64_t{14593642})
                            .add("size", Value::size(64 * 1024))});
    rows.push_back({"", Row{}
                            .add("benchmark", "fft")
                            .add("md MPKI", 6.04, 1)
                            .add("cycles", std::uint64_t{1694951})
                            .add("size", Value::size(2 * 1024 * 1024))});
    return rows;
}

template <typename Sink>
std::string
render(const std::vector<SectionRow> &rows)
{
    std::ostringstream os;
    Options opts;
    Sink sink(os);
    sink.begin({"exp", "title", "ref"}, opts);
    for (const auto &r : rows)
        sink.row(r);
    sink.end();
    return os.str();
}

TEST(Sinks, JsonAndCsvRoundTripTableValues)
{
    const auto rows = sampleRows();
    const auto table = render<TableSink>(rows);
    const auto jsonl = render<JsonlSink>(rows);
    const auto csv = render<CsvSink>(rows);

    // Every value the table prints appears verbatim in JSON and CSV:
    // numbers keep their display precision across formats.
    for (const auto &[section, row] : rows) {
        for (const auto &[key, value] : row.cols) {
            const auto text = value.text();
            EXPECT_NE(table.find(text), std::string::npos)
                << key << "=" << text << " missing from table";
            const auto json_frag = value.isNumeric()
                                       ? "\"" + key + "\":" + text
                                       : "\"" + key + "\":\"" + text +
                                             "\"";
            EXPECT_NE(jsonl.find(json_frag), std::string::npos)
                << json_frag << " missing from jsonl:\n"
                << jsonl;
            EXPECT_NE(csv.find(text), std::string::npos)
                << key << "=" << text << " missing from csv";
        }
    }

    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "experiment,section,benchmark,md MPKI,cycles,size");
    // Two rows per format (+ the CSV header line).
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Sinks, TableGroupsRowsBySection)
{
    std::vector<SectionRow> rows;
    rows.push_back({"benchmark: a", Row{}.add("x", "1")});
    rows.push_back({"benchmark: b", Row{}.add("x", "2")});
    rows.push_back({"benchmark: a", Row{}.add("x", "3")});
    const auto table = render<TableSink>(rows);

    const auto a = table.find("benchmark: a");
    const auto b = table.find("benchmark: b");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    EXPECT_LT(a, b) << "sections appear in first-seen order";
    EXPECT_EQ(table.find("benchmark: a", a + 1), std::string::npos)
        << "reappearing section is appended, not duplicated";
}

TEST(Sinks, ValueFormatting)
{
    EXPECT_EQ(Value::num(3.14159, 2).text(), "3.14");
    EXPECT_EQ(Value::num(3.14159, 2).json(), "3.14");
    EXPECT_EQ(Value::integer(12345).text(), "12345");
    EXPECT_EQ(Value::integer(12345).json(), "12345");
    EXPECT_EQ(Value::size(64 * 1024).text(), "64KB");
    EXPECT_EQ(Value("a \"quoted\" name").json(),
              "\"a \\\"quoted\\\" name\"");
    EXPECT_TRUE(Value::num(1.0, 3).isNumeric());
    EXPECT_FALSE(Value("text").isNumeric());
    EXPECT_DOUBLE_EQ(Value::num(2.5, 3).asDouble(), 2.5);
}

} // namespace
} // namespace maps
