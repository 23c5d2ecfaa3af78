/**
 * @file
 * Unit tests for the maps::service layer: the JSON codec and wire
 * framing on the protocol boundary, the failure-classification and
 * retry-policy tables that define mapsd's robustness contract, chaos
 * spec parsing, request canonicalization (job identity), and the
 * crash-safe job journal.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/child.hpp"
#include "service/ckcache.hpp"
#include "service/client.hpp"
#include "service/coordinator.hpp"
#include "service/journal.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "service/tcp.hpp"
#include "service/tenants.hpp"
#include "service/wire.hpp"

namespace fs = std::filesystem;
using namespace maps::service;

namespace {

fs::path
tempDir(const std::string &tag)
{
    const auto dir = fs::temp_directory_path() /
                     ("maps_service_test_" + tag + "_" +
                      std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

Json
parseOk(const std::string &text)
{
    std::string err;
    auto doc = Json::parse(text, err);
    EXPECT_TRUE(doc.has_value()) << text << ": " << err;
    return doc ? *doc : Json();
}

} // namespace

// ---------------------------------------------------------------------------
// JSON codec.
// ---------------------------------------------------------------------------

TEST(ServiceJson, RoundTripsDocuments)
{
    const char *docs[] = {
        "null",
        "true",
        "false",
        "0",
        "-17",
        "123456789",
        "\"hello\"",
        "[]",
        "{}",
        "[1,2,[3,{\"k\":\"v\"}],null]",
        "{\"a\":1,\"b\":\"two\",\"c\":[true,false],\"d\":{\"e\":null}}",
    };
    for (const char *text : docs)
        EXPECT_EQ(parseOk(text).dump(), text) << text;
}

TEST(ServiceJson, PreservesObjectInsertionOrder)
{
    // Deterministic serialization is what makes responses diff-able and
    // the journal stable across rewrites.
    Json doc = Json::object();
    doc.set("zebra", 1).set("alpha", 2).set("middle", 3);
    EXPECT_EQ(doc.dump(), "{\"zebra\":1,\"alpha\":2,\"middle\":3}");
    doc.set("zebra", 9); // Replacement keeps the original slot.
    EXPECT_EQ(doc.dump(), "{\"zebra\":9,\"alpha\":2,\"middle\":3}");
}

TEST(ServiceJson, EscapesAndUnescapesStrings)
{
    Json s(std::string("line\nquote\"tab\tback\\slash"));
    const std::string dumped = s.dump();
    EXPECT_EQ(parseOk(dumped).asString(), s.asString());
    EXPECT_EQ(parseOk("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

TEST(ServiceJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",
        "{",
        "}",
        "[1,",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1} trailing",
        "\"unterminated",
        "\"bad \\x escape\"",
        "\"trunc \\u00\"",
        "nul",
        "01a",
        "1e999", // Non-finite after strtod.
        "{'single':1}",
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(Json::parse(text, err).has_value())
            << "accepted: " << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(ServiceJson, RejectsAbsurdNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    std::string err;
    EXPECT_FALSE(Json::parse(deep, err).has_value());
}

TEST(ServiceJson, FormatsIntegersWithoutExponent)
{
    // Pids, counters and byte counts must survive a round trip through
    // jq without turning into 1.2e+06.
    EXPECT_EQ(Json(static_cast<std::uint64_t>(1200000)).dump(),
              "1200000");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(parseOk(Json(0.1).dump()).asNumber(), 0.1);
}

TEST(ServiceJson, TypedAccessorsFallBack)
{
    const Json doc =
        parseOk("{\"s\":\"x\",\"n\":7,\"b\":true,\"a\":[1]}");
    EXPECT_EQ(doc.str("s"), "x");
    EXPECT_EQ(doc.str("missing", "fb"), "fb");
    EXPECT_EQ(doc.num("n"), 7.0);
    EXPECT_EQ(doc.num("s", -1.0), -1.0) << "wrong type falls back";
    EXPECT_TRUE(doc.boolean("b"));
    EXPECT_EQ(doc.get("a")->size(), 1u);
    EXPECT_EQ(doc.get("nope"), nullptr);
}

// ---------------------------------------------------------------------------
// Wire framing.
// ---------------------------------------------------------------------------

class ServiceWire : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    }
    void TearDown() override
    {
        ::close(fds_[0]);
        ::close(fds_[1]);
    }
    int fds_[2] = {-1, -1};
};

TEST_F(ServiceWire, RoundTripsFrames)
{
    std::string err, got;
    ASSERT_TRUE(writeFrame(fds_[0], "{\"op\":\"ping\"}", err)) << err;
    ASSERT_TRUE(writeFrame(fds_[0], "", err)) << "empty frame is legal";
    ASSERT_TRUE(readFrame(fds_[1], got, err, 1000)) << err;
    EXPECT_EQ(got, "{\"op\":\"ping\"}");
    ASSERT_TRUE(readFrame(fds_[1], got, err, 1000)) << err;
    EXPECT_EQ(got, "");
}

TEST_F(ServiceWire, RoundTripsLargePayloads)
{
    // Bigger than the reader's internal chunk, with binary-ish content.
    std::string big(300000, 'x');
    for (std::size_t i = 0; i < big.size(); i += 7)
        big[i] = static_cast<char>('A' + i % 26);
    std::string err, got;
    std::thread writer(
        [&] { ASSERT_TRUE(writeFrame(fds_[0], big, err)) << err; });
    std::string rerr;
    ASSERT_TRUE(readFrame(fds_[1], got, rerr, 5000)) << rerr;
    writer.join();
    EXPECT_EQ(got, big);
}

TEST_F(ServiceWire, RejectsMalformedLengthPrefix)
{
    const char *frames[] = {"\n", "12a\n3", "999999999999\nx", "-3\nxyz"};
    for (const char *frame : frames) {
        int pair[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
        ASSERT_GT(::send(pair[0], frame, std::strlen(frame), 0), 0);
        std::string got, err;
        EXPECT_FALSE(readFrame(pair[1], got, err, 500))
            << "accepted: " << frame;
        ::close(pair[0]);
        ::close(pair[1]);
    }
}

TEST_F(ServiceWire, ReportsEofAndTimeoutDistinctly)
{
    std::string got, err;
    ::close(fds_[0]);
    EXPECT_FALSE(readFrame(fds_[1], got, err, 500));
    EXPECT_NE(err.find("closed"), std::string::npos) << err;
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    EXPECT_FALSE(readFrame(pair[1], got, err, 50));
    EXPECT_NE(err.find("timed out"), std::string::npos) << err;
    ::close(pair[0]);
    ::close(pair[1]);
}

TEST_F(ServiceWire, RejectsOversizedWrites)
{
    std::string err;
    std::string huge;
    huge.resize(kMaxFrameBytes + 1);
    EXPECT_FALSE(writeFrame(fds_[0], huge, err));
    EXPECT_NE(err.find("too large"), std::string::npos);
}

TEST_F(ServiceWire, ReassemblesByteAtATimeDelivery)
{
    // TCP makes no delivery-size promises: a congested link can hand
    // the reader any frame one byte at a time, with the length prefix,
    // the newline and the payload all split across reads.
    const std::string payload = "{\"op\":\"run_cells\",\"cell\":\"x\"}";
    const std::string frame =
        std::to_string(payload.size()) + "\n" + payload;
    std::thread writer([&] {
        for (const char c : frame) {
            ASSERT_EQ(::send(fds_[0], &c, 1, 0), 1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    std::string got, err;
    EXPECT_TRUE(readFrame(fds_[1], got, err, 10000)) << err;
    EXPECT_EQ(got, payload);
    writer.join();
}

TEST_F(ServiceWire, SurvivesShortWritesThroughTinySendBuffer)
{
    // Shrink the send buffer far below the payload so writeFrame's
    // write() calls are forced into many partial completions while the
    // reader drains concurrently.
    const int tiny = 1; // The kernel clamps to its minimum (~4 KiB).
    ASSERT_EQ(::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &tiny,
                           sizeof(tiny)),
              0);
    std::string big(500000, 'p');
    for (std::size_t i = 0; i < big.size(); i += 11)
        big[i] = static_cast<char>('0' + i % 10);
    std::thread writer([&] {
        std::string werr;
        ASSERT_TRUE(writeFrame(fds_[0], big, werr)) << werr;
    });
    std::string got, err;
    EXPECT_TRUE(readFrame(fds_[1], got, err, 10000)) << err;
    writer.join();
    EXPECT_EQ(got, big);
}

TEST_F(ServiceWire, ReportsMidFrameEof)
{
    // The prefix promises 100 bytes but the peer dies after three: the
    // reader must report a dead connection, never hand back a
    // truncated payload as if it were complete.
    std::string got, err;
    ASSERT_EQ(::send(fds_[0], "100\nabc", 7, 0), 7);
    ::close(fds_[0]);
    fds_[0] = -1;
    EXPECT_FALSE(readFrame(fds_[1], got, err, 1000));
    EXPECT_NE(err.find("closed mid-frame"), std::string::npos) << err;
}

TEST_F(ServiceWire, ReportsEofInsideLengthPrefix)
{
    // EOF after a partial length prefix is equally a dead peer.
    std::string got, err;
    ASSERT_EQ(::send(fds_[0], "12", 2, 0), 2);
    ::close(fds_[0]);
    fds_[0] = -1;
    EXPECT_FALSE(readFrame(fds_[1], got, err, 1000));
    EXPECT_NE(err.find("closed"), std::string::npos) << err;
}

TEST_F(ServiceWire, ReassemblesSplitLengthPrefix)
{
    // The length digits themselves may straddle packet boundaries.
    const std::string payload(27, 'z');
    std::thread writer([&] {
        ASSERT_EQ(::send(fds_[0], "2", 1, 0), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_EQ(::send(fds_[0], "7\n", 2, 0), 2);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_EQ(::send(fds_[0], payload.data(), 13, 0), 13);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_EQ(::send(fds_[0], payload.data() + 13, 14, 0), 14);
    });
    std::string got, err;
    EXPECT_TRUE(readFrame(fds_[1], got, err, 10000)) << err;
    writer.join();
    EXPECT_EQ(got, payload);
}

// ---------------------------------------------------------------------------
// TCP transport: the multi-node seam under the same framing.
// ---------------------------------------------------------------------------

TEST(ServiceTcp, ParseHostPortTable)
{
    struct Case
    {
        const char *in;
        bool ok;
        const char *host;
        int port;
    };
    const Case cases[] = {
        {"127.0.0.1:8080", true, "127.0.0.1", 8080},
        {"localhost:0", true, "localhost", 0},
        {"worker-3.cluster.local:65535", true,
         "worker-3.cluster.local", 65535},
        {"noport", false, "", 0},
        {":123", false, "", 0},
        {"host:", false, "", 0},
        {"host:abc", false, "", 0},
        {"host:12x", false, "", 0},
        {"host:65536", false, "", 0},
        {"host:123456", false, "", 0},
    };
    for (const auto &c : cases) {
        std::string host, err;
        std::uint16_t port = 0;
        EXPECT_EQ(parseHostPort(c.in, host, port, err), c.ok) << c.in;
        if (c.ok) {
            EXPECT_EQ(host, c.host) << c.in;
            EXPECT_EQ(port, c.port) << c.in;
        } else {
            EXPECT_FALSE(err.empty()) << c.in;
        }
    }
}

TEST(ServiceTcp, LoopbackFramesRoundTripThroughPortZero)
{
    // Port 0 + boundAddr is how every multi-daemon harness avoids port
    // races; the frames themselves must be transport-agnostic.
    std::string err, bound;
    const int lfd = listenTcp("127.0.0.1:0", err, &bound);
    ASSERT_GE(lfd, 0) << err;
    ASSERT_NE(bound.find("127.0.0.1:"), std::string::npos) << bound;
    ASSERT_NE(bound, "127.0.0.1:0") << "bound port must be concrete";

    std::thread server([&] {
        const int conn = ::accept(lfd, nullptr, nullptr);
        ASSERT_GE(conn, 0);
        std::string req, serr;
        ASSERT_TRUE(readFrame(conn, req, serr, 5000)) << serr;
        ASSERT_TRUE(writeFrame(conn, "echo:" + req, serr)) << serr;
        ::close(conn);
    });
    const int cfd = connectTcp(bound, err, 5000);
    ASSERT_GE(cfd, 0) << err;
    std::string got;
    ASSERT_TRUE(writeFrame(cfd, "over-tcp", err)) << err;
    ASSERT_TRUE(readFrame(cfd, got, err, 5000)) << err;
    EXPECT_EQ(got, "echo:over-tcp");
    ::close(cfd);
    server.join();
    ::close(lfd);
}

TEST(ServiceTcp, ConnectEndpointDispatchesBySchemeAndFailsFast)
{
    // A dead TCP worker must fail within the deadline with a useful
    // error, and the "tcp:" prefix must be what selects the transport.
    std::string err, bound;
    const int lfd = listenTcp("127.0.0.1:0", err, &bound);
    ASSERT_GE(lfd, 0) << err;
    ::close(lfd); // Port is now free: connection refused.
    EXPECT_LT(connectTcp(bound, err, 2000), 0);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_LT(connectEndpoint("tcp:" + bound, err, 2000), 0);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_LT(connectEndpoint("/nonexistent/unix.sock", err), 0)
        << "no tcp: prefix means a UNIX path";
    EXPECT_FALSE(err.empty());
}

TEST(ServiceTcp, HexRoundTripsAndRejectsTornEncodings)
{
    std::string raw;
    for (int i = 0; i < 256; ++i)
        raw.push_back(static_cast<char>(i));
    const std::string hex = hexEncode(raw);
    EXPECT_EQ(hex.size(), raw.size() * 2);
    std::string back, err;
    ASSERT_TRUE(hexDecode(hex, back, err)) << err;
    EXPECT_EQ(back, raw);
    EXPECT_EQ(hexEncode(""), "");
    ASSERT_TRUE(hexDecode("", back, err));
    EXPECT_EQ(back, "");
    // A half-shipped checkpoint must never decode.
    EXPECT_FALSE(hexDecode("abc", back, err)) << "odd length";
    EXPECT_FALSE(hexDecode("zz", back, err)) << "non-hex digits";
    EXPECT_FALSE(hexDecode("0G", back, err)) << "non-hex digits";
}

// ---------------------------------------------------------------------------
// Failure classification: the table mapsd's honesty rests on.
// ---------------------------------------------------------------------------

TEST(ServiceClassify, TableDriven)
{
    using Kind = ChildOutcome::Kind;
    struct Case
    {
        Kind kind;
        int exitCode;
        int signal;
        const char *stderrText;
        FailureClass want;
        const char *why;
    };
    const Case cases[] = {
        {Kind::Exited, 0, 0, "", FailureClass::None, "clean exit"},
        {Kind::Exited, 1, 0, "cell exceeded --cell-timeout=2s",
         FailureClass::Transient, "cooperative timeout is transient"},
        {Kind::Exited, 1, 0, "assertion failed: tree depth",
         FailureClass::Deterministic,
         "a failing simulation replays identically"},
        {Kind::Exited, 2, 0, "unknown option: --frobnicate",
         FailureClass::Deterministic, "usage errors never heal"},
        {Kind::Exited, 4, 0, "--only-cells named unknown cells",
         FailureClass::Deterministic, "bad cell ids never heal"},
        {Kind::Signaled, -1, SIGKILL, "", FailureClass::Transient,
         "an external kill (OOM, chaos) deserves a retry"},
        {Kind::Signaled, -1, SIGSEGV, "", FailureClass::Transient,
         "crash of one attempt; checkpoints make retry cheap"},
        {Kind::Signaled, -1, SIGABRT, "", FailureClass::Deterministic,
         "assert() in the driver replays identically"},
        {Kind::TimedOut, -1, 0, "", FailureClass::Transient,
         "hard-deadline kill (hung or stopped cell)"},
        {Kind::SpawnFailed, -1, 0, "", FailureClass::Deterministic,
         "missing binary cannot appear by retrying"},
    };
    for (const auto &c : cases) {
        ChildOutcome outcome;
        outcome.kind = c.kind;
        outcome.exitCode = c.exitCode;
        outcome.termSignal = c.signal;
        EXPECT_EQ(classifyOutcome(outcome, c.stderrText), c.want)
            << c.why;
    }
}

// ---------------------------------------------------------------------------
// Retry policy: transient-only, exponential, budgeted.
// ---------------------------------------------------------------------------

TEST(ServiceRetry, TableDriven)
{
    RetryPolicy policy;
    policy.budget = 3;
    policy.baseMs = 100;
    policy.capMs = 350;
    struct Case
    {
        FailureClass cls;
        int attempt;
        double want; // Negative: no retry allowed.
        const char *why;
    };
    const Case cases[] = {
        {FailureClass::Transient, 0, 100, "first retry at base"},
        {FailureClass::Transient, 1, 200, "doubles"},
        {FailureClass::Transient, 2, 350, "clamped at the cap"},
        {FailureClass::Transient, 3, -1, "budget of 3 exhausted"},
        {FailureClass::Transient, 99, -1, "way past budget"},
        {FailureClass::Shed, 0, 100, "shed admissions back off too"},
        {FailureClass::Shed, 2, 350, "shed shares the schedule"},
        {FailureClass::Deterministic, 0, -1,
         "deterministic failures are never retried"},
        {FailureClass::Deterministic, 1, -1, "not even later"},
        {FailureClass::None, 0, -1, "success is not retried"},
    };
    for (const auto &c : cases) {
        const double got = policy.nextDelayMs(c.cls, c.attempt);
        if (c.want < 0)
            EXPECT_LT(got, 0.0) << c.why;
        else
            EXPECT_DOUBLE_EQ(got, c.want) << c.why;
    }
}

TEST(ServiceRetry, ZeroBudgetNeverRetries)
{
    RetryPolicy policy;
    policy.budget = 0;
    EXPECT_LT(policy.nextDelayMs(FailureClass::Transient, 0), 0.0);
    EXPECT_LT(policy.nextDelayMs(FailureClass::Shed, 0), 0.0);
}

TEST(ServiceRetry, JitteredScheduleTableDriven)
{
    // backoffDelayMs is the one schedule shared by the client's retry
    // loop and the coordinator's cell-requeue loop, so this table is
    // the contract for both. unitRandom places the delay inside the
    // symmetric jitter window: nominal * (1 - j/2 + j*u).
    struct Case
    {
        double baseMs, capMs;
        int attempt;
        double jitter, unit;
        double want;
        const char *why;
    };
    const Case cases[] = {
        {100, 5000, 0, 0.0, 0.5, 100, "no jitter: base"},
        {100, 5000, 3, 0.0, 0.0, 800, "no jitter: 2^3, unit ignored"},
        {100, 5000, 9, 0.0, 0.5, 5000, "no jitter: capped"},
        {100, 5000, 0, 0.25, 0.5, 100, "mid-window draw is nominal"},
        {100, 5000, 0, 0.25, 0.0, 87.5, "low edge: nominal*(1-j/2)"},
        {100, 5000, 0, 0.25, 1.0, 112.5, "high edge: nominal*(1+j/2)"},
        {100, 5000, 2, 0.25, 0.0, 350, "jitter scales the doubled value"},
        {100, 5000, 2, 0.25, 1.0, 450, "…symmetrically"},
        {100, 5000, 9, 0.25, 1.0, 5625, "jitter applies after the cap"},
        {100, 5000, 0, 1.0, 0.0, 50, "full jitter: half the nominal"},
        {100, 5000, 0, 1.0, 1.0, 150, "full jitter: 1.5x the nominal"},
        {100, 5000, 0, 2.0, 1.0, 150, "jitter fraction clamps to 1"},
        {100, 5000, 0, 0.25, 7.0, 112.5, "unit draw clamps to 1"},
        {100, 5000, -3, 0.25, 0.5, 100, "negative attempt acts like 0"},
        {100, 5000, 500, 0.0, 0.5, 5000,
         "huge attempt counts cannot overflow past the cap"},
        {200, 200, 4, 0.0, 0.5, 200, "cap equal to base pins everything"},
    };
    for (const auto &c : cases) {
        EXPECT_DOUBLE_EQ(backoffDelayMs(c.baseMs, c.capMs, c.attempt,
                                        c.jitter, c.unit),
                         c.want)
            << c.why;
    }
}

TEST(ServiceRetry, PolicyJitterRidesTheSharedSchedule)
{
    // RetryPolicy::nextDelayMs must delegate to the same math: class
    // and budget gates first, then the jitter window.
    RetryPolicy policy;
    policy.budget = 3;
    policy.baseMs = 100;
    policy.capMs = 350;
    policy.jitterFrac = 0.5;
    EXPECT_DOUBLE_EQ(policy.nextDelayMs(FailureClass::Transient, 1, 0.0),
                     150.0);
    EXPECT_DOUBLE_EQ(policy.nextDelayMs(FailureClass::Transient, 1, 0.5),
                     200.0);
    EXPECT_DOUBLE_EQ(policy.nextDelayMs(FailureClass::Transient, 1, 1.0),
                     250.0);
    EXPECT_DOUBLE_EQ(policy.nextDelayMs(FailureClass::Shed, 2, 1.0),
                     437.5)
        << "cap then jitter, for sheds too";
    // The gates still dominate: no jitter draw resurrects a forbidden
    // retry.
    EXPECT_LT(policy.nextDelayMs(FailureClass::Transient, 3, 0.0), 0.0);
    EXPECT_LT(policy.nextDelayMs(FailureClass::Deterministic, 0, 1.0),
              0.0);
}

// ---------------------------------------------------------------------------
// Chaos spec parsing (mirrors the maps::fault grammar).
// ---------------------------------------------------------------------------

TEST(ServiceChaos, ParsesWellFormedSpecs)
{
    std::vector<ChaosEvent> events;
    EXPECT_EQ(parseChaosSpec("", events), "");
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(parseChaosSpec(
                  "kill:worker@n=3,hang:worker@n=5,kill:worker@n=7",
                  events),
              "");
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, ChaosEvent::Kind::KillWorker);
    EXPECT_EQ(events[0].nth, 3u);
    EXPECT_EQ(events[1].kind, ChaosEvent::Kind::HangWorker);
    EXPECT_EQ(events[1].nth, 5u);
    EXPECT_FALSE(events[2].fired);
    EXPECT_EQ(parseChaosSpec("drop:conn@n=2,kill:coordinator@n=1", events),
              "");
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, ChaosEvent::Kind::DropConn);
    EXPECT_EQ(events[1].kind, ChaosEvent::Kind::KillCoordinator);
    EXPECT_EQ(events[1].nth, 1u);
}

TEST(ServiceChaos, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "explode:worker@n=1", "kill:worker@when=later", "kill:worker@n=",
        "kill:worker@n=x",    "kill:worker@n=0",        "kill:worker",
        "kill:coordinator@n=0", "kill:coordinator@steal=1",
    };
    std::vector<ChaosEvent> events;
    for (const char *spec : bad)
        EXPECT_FALSE(parseChaosSpec(spec, events).empty())
            << "accepted: " << spec;
}

// ---------------------------------------------------------------------------
// Request canonicalization: job identity is what makes retries safe.
// ---------------------------------------------------------------------------

TEST(ServiceRequest, JobIdIgnoresFlagOrderOnly)
{
    RequestSpec a;
    a.driver = "fig3_reuse_cdf";
    a.args = {"--quick", "--seed=7"};
    RequestSpec b = a;
    b.args = {"--seed=7", "--quick"};
    EXPECT_EQ(a.jobId(), b.jobId()) << "flag order is irrelevant";
    EXPECT_EQ(a.jobId().size(), 16u);

    RequestSpec c = a;
    c.args = {"--quick", "--seed=8"};
    EXPECT_NE(a.jobId(), c.jobId()) << "different seed, different job";
    RequestSpec d = a;
    d.metrics = "full";
    EXPECT_NE(a.jobId(), d.jobId()) << "metrics level changes the job";
    RequestSpec e = a;
    e.cellTimeoutSec = 2.5;
    EXPECT_NE(a.jobId(), e.jobId()) << "deadline changes the job";
}

TEST(ServiceRequest, ValidateRejectsDaemonOwnedFlags)
{
    RequestSpec spec;
    spec.driver = "fig3_reuse_cdf";
    EXPECT_EQ(spec.validate(), "");
    const char *owned[] = {
        "--resume=/tmp/x",   "--only-cells=a", "--list-cells",
        "--jobs=8",          "--metrics=full", "--cell-timeout=3",
        "--out=/tmp/x",
    };
    for (const char *flag : owned) {
        RequestSpec bad = spec;
        bad.args = {flag};
        EXPECT_FALSE(bad.validate().empty()) << "accepted: " << flag;
    }
    RequestSpec traversal = spec;
    traversal.driver = "../evil";
    EXPECT_FALSE(traversal.validate().empty());
    RequestSpec metrics = spec;
    metrics.metrics = "verbose";
    EXPECT_FALSE(metrics.validate().empty());
    RequestSpec positional = spec;
    positional.args = {"quick"};
    EXPECT_FALSE(positional.validate().empty());
}

TEST(ServiceRequest, SamplePassesThroughAndChangesTheJob)
{
    // --sample is a driver flag, not daemon-owned: mapsd must pass it
    // through, and a sampled job can never share checkpoints (or a job
    // id) with the exact run of the same driver.
    RequestSpec full;
    full.driver = "fig3_reuse_cdf";
    full.args = {"--quick"};
    ASSERT_EQ(full.validate(), "");

    RequestSpec sampled = full;
    sampled.args = {"--quick", "--sample=auto"};
    EXPECT_EQ(sampled.validate(), "");
    EXPECT_NE(sampled.jobId(), full.jobId());
    EXPECT_NE(sampled.canonical(), full.canonical());

    RequestSpec back;
    ASSERT_EQ(RequestSpec::fromJson(sampled.toJson(), back), "");
    EXPECT_EQ(back.jobId(), sampled.jobId());
}

TEST(ServiceRequest, EstimatorPassesThroughAndChangesTheJob)
{
    // --estimator is a driver flag, not daemon-owned: mapsd passes it
    // through to the cell children, and an analytic job must never
    // share a job id (and with it checkpoints, which the driver's
    // resume.manifest would reject anyway) with the exact run.
    RequestSpec exact;
    exact.driver = "fig3_reuse_cdf";
    exact.args = {"--quick"};
    ASSERT_EQ(exact.validate(), "");

    RequestSpec analytic = exact;
    analytic.args = {"--quick", "--estimator=analytic"};
    EXPECT_EQ(analytic.validate(), "");
    EXPECT_NE(analytic.jobId(), exact.jobId());
    EXPECT_NE(analytic.canonical(), exact.canonical());

    RequestSpec automatic = exact;
    automatic.args = {"--quick", "--estimator=auto"};
    EXPECT_EQ(automatic.validate(), "");
    EXPECT_NE(automatic.jobId(), analytic.jobId())
        << "auto and analytic are different estimation mechanisms";

    RequestSpec back;
    ASSERT_EQ(RequestSpec::fromJson(analytic.toJson(), back), "");
    EXPECT_EQ(back.jobId(), analytic.jobId());
    EXPECT_EQ(back.args, analytic.args);
}

TEST(ServiceRequest, SurvivesJsonRoundTrip)
{
    RequestSpec spec;
    spec.driver = "fig7_partitioning";
    spec.args = {"--quick", "--seed=9"};
    spec.metrics = "summary";
    spec.cellTimeoutSec = 1.5;
    RequestSpec back;
    ASSERT_EQ(RequestSpec::fromJson(spec.toJson(), back), "");
    EXPECT_EQ(back.jobId(), spec.jobId());
    EXPECT_EQ(back.args, spec.args);
    EXPECT_EQ(back.metrics, "summary");
}

// ---------------------------------------------------------------------------
// Journal: atomic publish, recovery scan, torn-file tolerance.
// ---------------------------------------------------------------------------

TEST(ServiceJournal, SavesLoadsAndRemoves)
{
    const auto dir = tempDir("journal");
    Journal journal;
    ASSERT_EQ(journal.open(dir.string()), "");

    Json state = Json::object();
    state.set("state", "queued");
    state.set("n", 7);
    std::string err;
    ASSERT_TRUE(journal.save("job-b", state, err)) << err;
    state.set("state", "running");
    ASSERT_TRUE(journal.save("job-b", state, err)) << "rewrite: " << err;
    ASSERT_TRUE(journal.save("job-a", state, err)) << err;

    std::vector<std::string> skipped;
    auto jobs = journal.loadAll(skipped);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_TRUE(skipped.empty());
    EXPECT_EQ(jobs[0].first, "job-a") << "deterministic recovery order";
    EXPECT_EQ(jobs[1].first, "job-b");
    EXPECT_EQ(jobs[1].second.str("state"), "running")
        << "rewrite replaced the document";

    journal.remove("job-a");
    jobs = journal.loadAll(skipped);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].first, "job-b");
    fs::remove_all(dir);
}

TEST(ServiceJournal, SkipsTornAndForeignFiles)
{
    const auto dir = tempDir("journal_torn");
    Journal journal;
    ASSERT_EQ(journal.open(dir.string()), "");
    std::string err;
    ASSERT_TRUE(journal.save("good", parseOk("{\"state\":\"done\"}"),
                             err));
    // A crash mid-publish leaves a .tmp; a torn rename target would be
    // unparsable. Neither may break recovery of the good entry.
    std::ofstream(dir / "jobs" / "torn.json") << "{\"state\":";
    std::ofstream(dir / "jobs" / "leftover.json.tmp.123") << "x";
    std::vector<std::string> skipped;
    const auto jobs = journal.loadAll(skipped);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].first, "good");
    EXPECT_EQ(skipped.size(), 2u);
    fs::remove_all(dir);
}

TEST(ServiceJournal, AtomicWritePublishesAllOrNothing)
{
    const auto dir = tempDir("atomic");
    const auto path = (dir / "doc.json").string();
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "first", err)) << err;
    ASSERT_TRUE(atomicWriteFile(path, "second", err)) << err;
    std::string got;
    ASSERT_TRUE(readWholeFile(path, got, err));
    EXPECT_EQ(got, "second");
    // No tmp droppings under the final name's directory.
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    fs::remove_all(dir);
}

TEST(ServiceJournal, CountersRoundTrip)
{
    JobCounters counters;
    counters.cellsRun = 11;
    counters.workersKilled = 5;
    counters.hungCells = 2;
    counters.requeuedCells = 7;
    counters.downgradedCells = 3;
    counters.daemonRestarts = 1;
    counters.rounds = 4;
    counters.cellWallMs = 12345;
    JobCounters back;
    back.fromJson(counters.toJson());
    EXPECT_EQ(back.cellsRun, 11u);
    EXPECT_EQ(back.workersKilled, 5u);
    EXPECT_EQ(back.hungCells, 2u);
    EXPECT_EQ(back.requeuedCells, 7u);
    EXPECT_EQ(back.downgradedCells, 3u);
    EXPECT_EQ(back.daemonRestarts, 1u);
    EXPECT_EQ(back.rounds, 4u);
    EXPECT_EQ(back.cellWallMs, 12345u);
}

// ---------------------------------------------------------------------------
// Out-of-process execution: outcomes and the hard deadline.
// ---------------------------------------------------------------------------

TEST(ServiceChild, ReportsExitCodesAndSignals)
{
    const auto dir = tempDir("child");
    ChildSpec spec;
    spec.exe = "/bin/sh";
    spec.argv = {"-c", "exit 3"};
    spec.stdoutPath = (dir / "out").string();
    spec.stderrPath = (dir / "err").string();
    auto outcome = runChild(spec);
    EXPECT_EQ(outcome.kind, ChildOutcome::Kind::Exited);
    EXPECT_EQ(outcome.exitCode, 3);

    spec.argv = {"-c", "kill -KILL $$"};
    outcome = runChild(spec);
    EXPECT_EQ(outcome.kind, ChildOutcome::Kind::Signaled);
    EXPECT_EQ(outcome.termSignal, SIGKILL);

    spec.exe = (dir / "definitely-not-here").string();
    spec.argv = {};
    outcome = runChild(spec);
    EXPECT_EQ(outcome.kind, ChildOutcome::Kind::SpawnFailed);
    EXPECT_NE(outcome.error.find("exec"), std::string::npos);
    fs::remove_all(dir);
}

TEST(ServiceChild, HardDeadlineReapsHungChildren)
{
    const auto dir = tempDir("child_deadline");
    ChildSpec spec;
    spec.exe = "/bin/sh";
    spec.argv = {"-c", "sleep 30"};
    spec.stdoutPath = (dir / "out").string();
    spec.stderrPath = (dir / "err").string();
    spec.deadlineMs = 300;
    const auto outcome = runChild(spec);
    EXPECT_EQ(outcome.kind, ChildOutcome::Kind::TimedOut);
    EXPECT_LT(outcome.elapsedMs, 10000.0) << "did not wait for sleep 30";
    fs::remove_all(dir);
}

TEST(ServiceChild, HardDeadlineReapsStoppedChildren)
{
    // The chaos harness SIGSTOPs children immediately after fork — the
    // deadline must still reap them (a stopped child never execs, never
    // writes the exec pipe, and never exits on its own).
    const auto dir = tempDir("child_stopped");
    ChildSpec spec;
    spec.exe = "/bin/sh";
    spec.argv = {"-c", "sleep 30"};
    spec.stdoutPath = (dir / "out").string();
    spec.stderrPath = (dir / "err").string();
    spec.deadlineMs = 300;
    const auto stopIt = [](pid_t pid, void *) { ::kill(pid, SIGSTOP); };
    const auto outcome = runChild(spec, +stopIt, nullptr);
    EXPECT_EQ(outcome.kind, ChildOutcome::Kind::TimedOut);
    EXPECT_LT(outcome.elapsedMs, 10000.0);
    fs::remove_all(dir);
}

TEST(ServiceChild, ReapsWithoutPollingQuantum)
{
    // The monitor wakes when the child exits, not on a polling tick: ten
    // sequential short-lived children would cost at least 200 ms if
    // each waited out one 20 ms poll interval.
    ChildSpec spec;
    spec.exe = "/bin/true";
    double totalMs = 0.0;
    for (int i = 0; i < 10; ++i) {
        const auto outcome = runChild(spec);
        ASSERT_EQ(outcome.kind, ChildOutcome::Kind::Exited);
        EXPECT_EQ(outcome.exitCode, 0);
        totalMs += outcome.elapsedMs;
    }
    EXPECT_LT(totalMs, 200.0);

    // A child killed before it reaches exec is reaped as soon as it
    // dies, with no deadline to wait out.
    spec.deadlineMs = 60000;
    const auto killIt = [](pid_t pid, void *) { ::kill(pid, SIGKILL); };
    const auto outcome = runChild(spec, +killIt, nullptr);
    EXPECT_EQ(outcome.kind, ChildOutcome::Kind::Signaled);
    EXPECT_EQ(outcome.termSignal, SIGKILL);
    EXPECT_LT(outcome.elapsedMs, 1000.0);
}

// ---------------------------------------------------------------------------
// Name tables stay in sync with the enums.
// ---------------------------------------------------------------------------

TEST(ServiceNames, ClassAndStateNames)
{
    EXPECT_STREQ(failureClassName(FailureClass::None), "none");
    EXPECT_STREQ(failureClassName(FailureClass::Transient), "transient");
    EXPECT_STREQ(failureClassName(FailureClass::Deterministic),
                 "deterministic");
    EXPECT_STREQ(failureClassName(FailureClass::Shed), "shed");
    EXPECT_STREQ(jobStateName(JobState::Queued), "queued");
    EXPECT_STREQ(jobStateName(JobState::Running), "running");
    EXPECT_STREQ(jobStateName(JobState::Done), "done");
    EXPECT_STREQ(jobStateName(JobState::Failed), "failed");
}

// ---------------------------------------------------------------------------
// Multi-tenant scheduling: config grammar, priorities, shed hints.
// ---------------------------------------------------------------------------

TEST(ServiceTenants, ConfigParseTable)
{
    struct Case
    {
        const char *text;
        bool ok;
        const char *errPart; ///< Substring of the error when !ok.
    };
    const Case cases[] = {
        {"", true, ""},
        {"# just a comment\n\n", true, ""},
        {"tenant a weight=4 priority=high max_queued=8 max_cells=2\n"
         "default weight=2 priority=low\n",
         true, ""},
        {"tenant a weight=4\ntenant a weight=2\n", false, "duplicate"},
        {"tenant a weight=0\n", false, "weight"},
        {"tenant a weight=65\n", false, "weight"},
        {"tenant a priority=urgent\n", false, "priority"},
        {"tenant bad/name weight=1\n", false, "name"},
        {"widget a weight=1\n", false, "widget"},
        {"tenant a wheight=1\n", false, "wheight"},
        {"tenant a max_queued=abc\n", false, "max_queued"},
    };
    for (const Case &c : cases) {
        TenantConfig cfg;
        const std::string err = parseTenantConfig(c.text, cfg);
        if (c.ok) {
            EXPECT_EQ(err, "") << c.text;
        } else {
            EXPECT_NE(err.find(c.errPart), std::string::npos)
                << c.text << " -> " << err;
        }
    }

    TenantConfig cfg;
    ASSERT_EQ(parseTenantConfig(
                  "tenant alice weight=4 priority=high max_queued=8 "
                  "max_cells=2\n"
                  "default weight=2 priority=low max_queued=3\n",
                  cfg),
              "");
    EXPECT_EQ(cfg.classFor("alice").weight, 4u);
    EXPECT_EQ(cfg.classFor("alice").priority, TenantPriority::High);
    EXPECT_EQ(cfg.classFor("alice").maxQueuedJobs, 8u);
    EXPECT_EQ(cfg.classFor("alice").maxConcurrentCells, 2u);
    // Unknown tenants ride the default class — never rejected.
    EXPECT_EQ(cfg.classFor("stranger").weight, 2u);
    EXPECT_EQ(cfg.classFor("stranger").priority, TenantPriority::Low);
    EXPECT_EQ(cfg.classFor("stranger").maxQueuedJobs, 3u);
}

TEST(ServiceTenants, EffectiveTenantAndPriority)
{
    EXPECT_EQ(effectiveTenant(""), "default");
    EXPECT_EQ(effectiveTenant("alice"), "alice");

    // A request may only lower its priority below its class tier.
    EXPECT_EQ(effectivePriority(TenantPriority::Normal, ""),
              TenantPriority::Normal);
    EXPECT_EQ(effectivePriority(TenantPriority::Normal, "low"),
              TenantPriority::Low);
    EXPECT_EQ(effectivePriority(TenantPriority::Normal, "high"),
              TenantPriority::Normal)
        << "a request must never raise itself above its class";
    EXPECT_EQ(effectivePriority(TenantPriority::High, "high"),
              TenantPriority::High);
    EXPECT_EQ(effectivePriority(TenantPriority::Low, "normal"),
              TenantPriority::Low);
}

TEST(ServiceTenants, DegradeThresholdOrdersTenants)
{
    // Low degrades at a quarter depth, high only at 4x: for any base,
    // low threshold <= normal <= high, so a low tenant always degrades
    // first under shared congestion.
    for (const std::size_t base : {1u, 4u, 32u, 100u}) {
        const std::size_t lo = degradeThreshold(base, TenantPriority::Low);
        const std::size_t no =
            degradeThreshold(base, TenantPriority::Normal);
        const std::size_t hi =
            degradeThreshold(base, TenantPriority::High);
        EXPECT_LE(lo, no) << "base=" << base;
        EXPECT_LE(no, hi) << "base=" << base;
        EXPECT_GE(lo, 1u) << "threshold 0 would degrade everything";
    }
    EXPECT_EQ(degradeThreshold(32, TenantPriority::Low), 8u);
    EXPECT_EQ(degradeThreshold(32, TenantPriority::Normal), 32u);
    EXPECT_EQ(degradeThreshold(32, TenantPriority::High), 128u);
}

TEST(ServiceTenants, ShedRetryHintRidesTheClientBackoffCurve)
{
    // The hint is the jitter-free client backoff for attempt =
    // bit-width(depth): honest, monotone in queue depth, capped.
    const struct
    {
        std::size_t depth;
        std::uint64_t hint;
    } table[] = {
        {0, 200},  {1, 400},  {2, 800},   {3, 800},   {4, 1600},
        {7, 1600}, {8, 3200}, {15, 3200}, {16, 5000}, {1000, 5000},
    };
    for (const auto &row : table)
        EXPECT_EQ(shedRetryHintMs(row.depth), row.hint)
            << "depth=" << row.depth;
    std::uint64_t prev = 0;
    for (std::size_t depth = 0; depth < 64; ++depth) {
        const std::uint64_t h = shedRetryHintMs(depth);
        EXPECT_GE(h, prev) << "hint must be monotone in depth";
        prev = h;
    }
}

// ---------------------------------------------------------------------------
// Deficit-weighted round robin: weights, tiers, quota gating.
// ---------------------------------------------------------------------------

namespace {

/** Drain @p n pops and count items per tenant. */
std::map<std::string, int>
drain(DrrScheduler<int> &sched, std::size_t n,
      const DrrScheduler<int>::Eligible &eligible = nullptr)
{
    std::map<std::string, int> counts;
    for (std::size_t i = 0; i < n; ++i) {
        int item = 0;
        std::string tenant;
        if (!sched.pop(item, &tenant, eligible))
            break;
        ++counts[tenant];
    }
    return counts;
}

} // namespace

TEST(ServiceDrr, WeightsGovernTheDrainMix)
{
    TenantConfig cfg;
    ASSERT_EQ(parseTenantConfig("tenant a weight=3\ntenant b weight=1\n",
                                cfg),
              "");
    DrrScheduler<int> sched(&cfg);
    for (int i = 0; i < 40; ++i) {
        sched.push("a", TenantPriority::Normal, i);
        sched.push("b", TenantPriority::Normal, 100 + i);
    }
    // While both lanes stay backlogged, any window drains 3:1 (±1 per
    // the one-quantum credit bank).
    const auto counts = drain(sched, 16);
    EXPECT_EQ(counts.at("a") + counts.at("b"), 16);
    EXPECT_NEAR(counts.at("a"), 12, 1);
    EXPECT_NEAR(counts.at("b"), 4, 1);
}

TEST(ServiceDrr, EqualWeightsAlternate)
{
    DrrScheduler<int> sched; // No config: every tenant weighs 1.
    for (int i = 0; i < 6; ++i) {
        sched.push("x", TenantPriority::Normal, i);
        sched.push("y", TenantPriority::Normal, 100 + i);
    }
    std::vector<std::string> order;
    int item = 0;
    std::string tenant;
    while (sched.pop(item, &tenant))
        order.push_back(tenant);
    ASSERT_EQ(order.size(), 12u);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1])
            << "equal weights must alternate at " << i;
}

TEST(ServiceDrr, HighTierAlwaysBeatsLower)
{
    DrrScheduler<int> sched;
    sched.push("low", TenantPriority::Low, 1);
    sched.push("normal", TenantPriority::Normal, 2);
    sched.push("high", TenantPriority::High, 3);
    sched.push("high", TenantPriority::High, 4);
    std::vector<std::string> order;
    int item = 0;
    std::string tenant;
    while (sched.pop(item, &tenant))
        order.push_back(tenant);
    const std::vector<std::string> want{"high", "high", "normal", "low"};
    EXPECT_EQ(order, want);
}

TEST(ServiceDrr, LateArrivalIsServedAtFairShare)
{
    TenantConfig cfg;
    ASSERT_EQ(parseTenantConfig("tenant a weight=1\ntenant b weight=1\n",
                                cfg),
              "");
    DrrScheduler<int> sched(&cfg);
    for (int i = 0; i < 20; ++i)
        sched.push("a", TenantPriority::Normal, i);
    // a drains alone for a while...
    int item = 0;
    std::string tenant;
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(sched.pop(item, &tenant));
    // ...then b arrives and must immediately get every other slot, not
    // wait for a's backlog (idle lanes banked no credit).
    for (int i = 0; i < 6; ++i)
        sched.push("b", TenantPriority::Normal, 100 + i);
    const auto counts = drain(sched, 8);
    EXPECT_EQ(counts.at("b"), 4) << "late arrival gets fair share now";
    EXPECT_EQ(counts.at("a"), 4);
}

TEST(ServiceDrr, QuotaBlockedLaneCannotBurstPastItsWeight)
{
    TenantConfig cfg;
    ASSERT_EQ(parseTenantConfig("tenant a weight=2\ntenant b weight=2\n",
                                cfg),
              "");
    DrrScheduler<int> sched(&cfg);
    for (int i = 0; i < 20; ++i) {
        sched.push("a", TenantPriority::Normal, i);
        sched.push("b", TenantPriority::Normal, 100 + i);
    }
    // b is quota-blocked: a drains alone through many replenishes.
    const auto blockB = [](const std::string &t) { return t != "b"; };
    auto counts = drain(sched, 10, blockB);
    EXPECT_EQ(counts.at("a"), 10);
    EXPECT_EQ(counts.count("b"), 0u);
    // When b unblocks it resumes at fair share: banked credit is capped
    // at one quantum, so the first window is ~2:2, not a 10-item burst.
    counts = drain(sched, 8);
    EXPECT_NEAR(counts.at("b"), 4, 1)
        << "b must not burst past its weight after unblocking";
}

TEST(ServiceDrr, BookkeepingTracksQueues)
{
    DrrScheduler<int> sched;
    EXPECT_TRUE(sched.empty());
    sched.push("a", TenantPriority::Normal, 1);
    sched.push("a", TenantPriority::Low, 2);
    sched.push("b", TenantPriority::Normal, 3);
    EXPECT_EQ(sched.size(), 3u);
    EXPECT_EQ(sched.queuedFor("a"), 2u) << "tiers merged per tenant";
    EXPECT_EQ(sched.queuedFor("b"), 1u);
    EXPECT_EQ(sched.queuedFor("nobody"), 0u);
    std::map<std::string, std::size_t> seen;
    sched.forEachTenant([&seen](const std::string &t, std::size_t n) {
        seen[t] = n;
    });
    EXPECT_EQ(seen.at("a"), 2u);
    EXPECT_EQ(seen.at("b"), 1u);
    int item = 0;
    while (sched.pop(item))
        ;
    EXPECT_TRUE(sched.empty());
    EXPECT_EQ(sched.queuedFor("a"), 0u);
}

TEST(ServiceDrr, ReloadedWeightsApplyToTheNextDecision)
{
    // The scheduler reads weights through the config pointer, so a
    // SIGHUP reload (in-place assignment under the service lock)
    // changes the drain mix without touching queued work.
    TenantConfig cfg;
    ASSERT_EQ(parseTenantConfig("tenant a weight=1\ntenant b weight=1\n",
                                cfg),
              "");
    DrrScheduler<int> sched(&cfg);
    for (int i = 0; i < 40; ++i) {
        sched.push("a", TenantPriority::Normal, i);
        sched.push("b", TenantPriority::Normal, 100 + i);
    }
    auto counts = drain(sched, 8);
    EXPECT_NEAR(counts.at("a"), 4, 1);
    TenantConfig fresh;
    ASSERT_EQ(parseTenantConfig("tenant a weight=3\ntenant b weight=1\n",
                                fresh),
              "");
    cfg = std::move(fresh); // What reloadTenants() does under mu_.
    counts = drain(sched, 16);
    EXPECT_NEAR(counts.at("a"), 12, 1) << "new weights took effect";
}

// ---------------------------------------------------------------------------
// Tenant identity: spec fields, job ids, journal-recovery fairness.
// ---------------------------------------------------------------------------

TEST(ServiceTenants, SpecFieldsRoundTripAndSplitJobs)
{
    RequestSpec spec;
    spec.driver = "fig3_reuse_cdf";
    spec.args = {"--quick"};
    spec.tenant = "alice";
    spec.priority = "low";
    ASSERT_EQ(spec.validate(), "");

    RequestSpec back;
    ASSERT_EQ(RequestSpec::fromJson(spec.toJson(), back), "");
    EXPECT_EQ(back.tenant, "alice");
    EXPECT_EQ(back.priority, "low");
    EXPECT_EQ(back.jobId(), spec.jobId());

    // The tenant is part of job identity: otherwise tenant B could
    // attach to (and wait on) tenant A's job and dodge its own quotas.
    RequestSpec other = spec;
    other.tenant = "bob";
    EXPECT_NE(other.jobId(), spec.jobId());
    RequestSpec lowered = spec;
    lowered.priority = "";
    EXPECT_NE(lowered.jobId(), spec.jobId());

    RequestSpec badTenant = spec;
    badTenant.tenant = "no spaces allowed";
    EXPECT_FALSE(badTenant.validate().empty());
    badTenant.tenant = std::string(65, 'x');
    EXPECT_FALSE(badTenant.validate().empty());
    RequestSpec badPrio = spec;
    badPrio.priority = "urgent";
    EXPECT_FALSE(badPrio.validate().empty());
}

TEST(ServiceTenants, SighupLatchSetsOnceAndClears)
{
    installSighupHandler();
    EXPECT_FALSE(takeSighup()) << "no signal yet";
    ASSERT_EQ(::raise(SIGHUP), 0);
    EXPECT_TRUE(takeSighup()) << "latched";
    EXPECT_FALSE(takeSighup()) << "take clears the latch";
}

TEST(ServiceTenants, JournalRecoveryRestoresFairShareQueues)
{
    // Crash recovery: journaled jobs carry their tenant, and re-pushing
    // them through the DRR restores the pre-crash fair-share mix — the
    // greedy tenant does not win the restart.
    const auto dir = tempDir("tenant_recovery");
    Journal journal;
    ASSERT_EQ(journal.open(dir.string()), "");
    std::string err;
    for (int i = 0; i < 6; ++i) {
        RequestSpec spec;
        spec.driver = "fig3_reuse_cdf";
        spec.args = {"--quick", "--seed=" + std::to_string(i)};
        spec.tenant = i == 0 ? "good" : "greedy";
        Json state = Json::object();
        state.set("state", "queued");
        state.set("tenant", effectiveTenant(spec.tenant));
        state.set("spec", spec.toJson());
        ASSERT_TRUE(journal.save(spec.jobId(), state, err)) << err;
    }

    TenantConfig cfg;
    ASSERT_EQ(parseTenantConfig(
                  "tenant good weight=3 priority=normal\n"
                  "tenant greedy weight=1 priority=low\n",
                  cfg),
              "");
    DrrScheduler<std::string> sched(&cfg);
    std::vector<std::string> skipped;
    for (const auto &[id, doc] : journal.loadAll(skipped)) {
        RequestSpec spec;
        ASSERT_EQ(RequestSpec::fromJson(*doc.get("spec"), spec), "");
        const std::string tenant = effectiveTenant(spec.tenant);
        EXPECT_EQ(doc.str("tenant"), tenant)
            << "journal records the tenant label";
        sched.push(tenant,
                   effectivePriority(cfg.classFor(tenant).priority,
                                     spec.priority),
                   id);
    }
    EXPECT_TRUE(skipped.empty());
    EXPECT_EQ(sched.queuedFor("good"), 1u);
    EXPECT_EQ(sched.queuedFor("greedy"), 5u);
    // good is normal tier, greedy low: the recovered good job schedules
    // before any of the recovered greedy backlog.
    std::string id, tenant;
    ASSERT_TRUE(sched.pop(id, &tenant));
    EXPECT_EQ(tenant, "good");
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Auth preamble: TCP listener gate.
// ---------------------------------------------------------------------------

TEST(ServiceAuth, PreambleRoundTripsOverSocketpair)
{
    int sv[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string err;
    ASSERT_TRUE(sendAuthPreamble(sv[0], "sekrit", err)) << err;
    EXPECT_TRUE(expectAuthPreamble(sv[1], "sekrit", err, 2000)) << err;
    // The preamble consumes exactly one line: a frame behind it parses.
    ASSERT_TRUE(writeFrame(sv[0], "{\"op\":\"ping\"}", err)) << err;
    std::string payload;
    ASSERT_TRUE(readFrame(sv[1], payload, err, 2000)) << err;
    EXPECT_EQ(payload, "{\"op\":\"ping\"}");
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServiceAuth, RejectsWrongMissingAndOversizedTokens)
{
    const auto tryAuth = [](const std::string &clientLine,
                            const std::string &serverToken) {
        int sv[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        ::send(sv[0], clientLine.data(), clientLine.size(), 0);
        std::string err;
        const bool ok = expectAuthPreamble(sv[1], serverToken, err, 500);
        ::close(sv[0]);
        ::close(sv[1]);
        return ok;
    };
    EXPECT_TRUE(tryAuth("maps-auth-v1 tok\n", "tok"));
    EXPECT_FALSE(tryAuth("maps-auth-v1 wrong\n", "tok"));
    EXPECT_FALSE(tryAuth("maps-auth-v1 tokk\n", "tok"))
        << "prefix match is not a match";
    EXPECT_FALSE(tryAuth("maps-auth-v1 to\n", "tok"));
    EXPECT_FALSE(tryAuth("14\n{\"op\":\"ping\"}", "tok"))
        << "a bare frame (no preamble) must be rejected before parse";
    EXPECT_FALSE(tryAuth(std::string(2048, 'x'), "tok"))
        << "oversized preamble line";
}

// ---------------------------------------------------------------------------
// Checkpoint content-hash cache: memoization and persistence.
// ---------------------------------------------------------------------------

TEST(ServiceCkCache, HashesMemoizesAndInvalidates)
{
    EXPECT_EQ(CheckpointCache::hashBytes("").size(), 16u);
    EXPECT_EQ(CheckpointCache::hashBytes("abc"),
              CheckpointCache::hashBytes("abc"));
    EXPECT_NE(CheckpointCache::hashBytes("abc"),
              CheckpointCache::hashBytes("abd"));

    const auto dir = tempDir("ckcache");
    const auto file = (dir / "cell.ck").string();
    std::string err;
    ASSERT_TRUE(atomicWriteFile(file, "payload-1", err)) << err;

    CheckpointCache cache(""); // Memory-only.
    const std::string h1 = cache.hashFor(file);
    EXPECT_EQ(h1, CheckpointCache::hashBytes("payload-1"));
    EXPECT_EQ(cache.hashFor(file), h1) << "memoized";
    EXPECT_EQ(cache.hashFor((dir / "missing").string()), "")
        << "unreadable file hashes to empty";

    // noteWritten seeds the memo without a re-read; a genuine rewrite
    // (new mtime/size) invalidates it.
    cache.noteWritten(file, "payload-two");
    EXPECT_EQ(cache.hashFor(file),
              CheckpointCache::hashBytes("payload-two"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(atomicWriteFile(file, "payload-three!", err)) << err;
    EXPECT_EQ(cache.hashFor(file),
              CheckpointCache::hashBytes("payload-three!"))
        << "stale memo entries are refreshed from disk";
    fs::remove_all(dir);
}

TEST(ServiceCkCache, IndexPersistsAcrossInstances)
{
    const auto dir = tempDir("ckcache_persist");
    const auto file = (dir / "cell.ck").string();
    const auto index = (dir / "index.tsv").string();
    std::string err;
    ASSERT_TRUE(atomicWriteFile(file, "bytes", err)) << err;
    {
        CheckpointCache cache(index);
        EXPECT_EQ(cache.hashFor(file),
                  CheckpointCache::hashBytes("bytes"));
        ASSERT_TRUE(cache.persist(err)) << err;
    }
    {
        CheckpointCache cache(index);
        EXPECT_EQ(cache.size(), 1u) << "index reloaded";
        EXPECT_EQ(cache.hashFor(file),
                  CheckpointCache::hashBytes("bytes"));
    }
    // A corrupt index is rebuilt, not fatal.
    ASSERT_TRUE(atomicWriteFile(index, "not\ta\tvalid\nindex", err));
    CheckpointCache rebuilt(index);
    EXPECT_EQ(rebuilt.hashFor(file), CheckpointCache::hashBytes("bytes"));
    fs::remove_all(dir);
}
