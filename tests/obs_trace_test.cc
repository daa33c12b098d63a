/**
 * @file
 * Tests of CARBONX_SCOPE and its trace sink: disabled-by-default no-op
 * behaviour, nesting, the Chrome trace_event JSON export, and which
 * sinks a scope reports to as each is switched on or off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace carbonx::obs
{
namespace
{

/** One parsed "X" event from the Chrome trace JSON. */
struct ParsedEvent
{
    std::string name;
    uint64_t ts = 0;
    uint64_t dur = 0;
    uint64_t tid = 0;
    uint64_t end() const { return ts + dur; }
};

uint64_t
numberAfter(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = line.find(needle);
    EXPECT_NE(pos, std::string::npos) << "missing " << key << " in "
                                      << line;
    if (pos == std::string::npos)
        return 0;
    return std::stoull(line.substr(pos + needle.size()));
}

/** Parse the one-event-per-line JSON our writer emits. */
std::vector<ParsedEvent>
parseTrace(const std::string &json)
{
    std::vector<ParsedEvent> events;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        const size_t name_pos = line.find("{\"name\": \"");
        if (name_pos == std::string::npos)
            continue;
        ParsedEvent e;
        const size_t name_start = name_pos + 10;
        e.name = line.substr(name_start,
                             line.find('"', name_start) - name_start);
        e.ts = numberAfter(line, "ts");
        e.dur = numberAfter(line, "dur");
        e.tid = numberAfter(line, "tid");
        events.push_back(std::move(e));
    }
    return events;
}

std::string
chromeTrace()
{
    std::ostringstream os;
    SpanTracer::instance().writeChromeTrace(os);
    return os.str();
}

/** Times @p name entered the merged profile (0 when absent). */
uint64_t
profiledCount(const std::string &name)
{
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *node = root.find(name);
    return node == nullptr ? 0 : node->count;
}

/**
 * Both sinks off and empty for every test; the sinks are
 * process-wide.
 */
class Trace : public ::testing::Test
{
  protected:
    void SetUp() override { resetSinks(); }
    void TearDown() override { resetSinks(); }

    static void resetSinks()
    {
        SpanTracer::instance().setEnabled(false);
        SpanTracer::instance().clear();
        PhaseProfiler::instance().setEnabled(false);
        PhaseProfiler::instance().reset();
    }
};

TEST_F(Trace, DisabledTracerRecordsNothing)
{
    auto &tracer = SpanTracer::instance();
    ASSERT_FALSE(tracer.enabled());
    {
        CARBONX_SCOPE("test/disabled_outer");
        CARBONX_SCOPE("test/disabled_inner");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_TRUE(parseTrace(chromeTrace()).empty());
}

TEST_F(Trace, NestedSpansAreContainedInTheirParent)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_SCOPE("test/outer");
        {
            CARBONX_SCOPE("test/middle");
            {
                CARBONX_SCOPE("test/inner");
                // A scope reports only when it closes.
                EXPECT_EQ(tracer.eventCount(), 0u);
            }
            EXPECT_EQ(tracer.eventCount(), 1u);
        }
    }
    ASSERT_EQ(tracer.eventCount(), 3u);

    auto events = parseTrace(chromeTrace());
    ASSERT_EQ(events.size(), 3u);

    const auto byName = [&](const std::string &name) {
        const auto it =
            std::find_if(events.begin(), events.end(),
                         [&](const ParsedEvent &e) {
                             return e.name == name;
                         });
        EXPECT_NE(it, events.end()) << "missing span " << name;
        return *it;
    };
    const ParsedEvent outer = byName("test/outer");
    const ParsedEvent middle = byName("test/middle");
    const ParsedEvent inner = byName("test/inner");

    // Chrome infers hierarchy from containment: each child interval
    // must lie within its parent's [ts, ts + dur].
    EXPECT_LE(outer.ts, middle.ts);
    EXPECT_LE(middle.end(), outer.end());
    EXPECT_LE(middle.ts, inner.ts);
    EXPECT_LE(inner.end(), middle.end());
}

TEST_F(Trace, ChromeTraceJsonIsWellFormed)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_SCOPE("test/json \"quoted\"");
    }
    {
        CARBONX_SCOPE("test/json_second");
    }

    const std::string json = chromeTrace();

    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"carbonx\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
    // Quotes in span names must be escaped.
    EXPECT_NE(json.find("test/json \\\"quoted\\\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    // Exactly two events -> exactly one separating comma between them.
    EXPECT_EQ(parseTrace(json).size(), 2u);
}

TEST_F(Trace, DisablingMidSpanStillClosesIt)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_SCOPE("test/toggled");
        tracer.setEnabled(false);
    }
    // The scope captured "enabled" at construction, so it must close
    // cleanly and still record its event.
    ASSERT_EQ(tracer.eventCount(), 1u);
    EXPECT_EQ(parseTrace(chromeTrace())[0].name, "test/toggled");
}

TEST_F(Trace, ThreadsGetDistinctSpanStacks)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            CARBONX_SCOPE("test/thread_outer");
            CARBONX_SCOPE("test/thread_inner");
        });
    }
    for (auto &thread : threads)
        thread.join();

    ASSERT_EQ(tracer.eventCount(), 2u * kThreads);
    // Each thread closed exactly one outer and one inner scope, on
    // its own track, with the inner contained in the outer.
    const auto events = parseTrace(chromeTrace());
    std::vector<uint64_t> tids;
    for (const ParsedEvent &outer : events) {
        if (outer.name != "test/thread_outer")
            continue;
        tids.push_back(outer.tid);
        const auto inner = std::find_if(
            events.begin(), events.end(), [&](const ParsedEvent &e) {
                return e.name == "test/thread_inner" && e.tid == outer.tid;
            });
        ASSERT_NE(inner, events.end());
        EXPECT_LE(outer.ts, inner->ts);
        EXPECT_LE(inner->end(), outer.end());
    }
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(std::unique(tids.begin(), tids.end()) - tids.begin(),
              kThreads);
}

TEST_F(Trace, HostileSpanAndCounterNamesStayValidJson)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    // Every class of character the JSON escaper must handle: quotes,
    // backslashes, control characters, and a DEL-adjacent byte.
    const std::string hostile =
        "test/\"quote\\back\\\\slash\nnewline\ttab\x01" "ctl";
    {
        const Scope scope(hostile.c_str());
    }
    tracer.addCounterTrack(hostile + "/counter", {1.0, 2.0, 3.0});

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();

    // No raw control characters may survive into the output.
    for (const char c : json)
        EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 ||
                    c == '\n')
            << "raw control byte 0x" << std::hex
            << static_cast<int>(static_cast<unsigned char>(c));
    // The escaper's canonical forms are all present.
    EXPECT_NE(json.find("\\\"quote"), std::string::npos);
    EXPECT_NE(json.find("\\\\back"), std::string::npos);
    EXPECT_NE(json.find("\\nnewline"), std::string::npos);
    EXPECT_NE(json.find("\\ttab"), std::string::npos);
    EXPECT_NE(json.find("\\u0001ctl"), std::string::npos);
    // Structure survives: balanced braces/brackets, both events
    // parseable, counter samples intact.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST_F(Trace, ClearDropsRecordedEvents)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_SCOPE("test/cleared");
    }
    ASSERT_EQ(tracer.eventCount(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST_F(Trace, ScopeReachesOnlyTheSinksOnAtOpen)
{
    struct Case
    {
        bool trace;
        bool profile;
    };
    for (const Case c : {Case{false, false}, Case{true, false},
                         Case{false, true}, Case{true, true}}) {
        SCOPED_TRACE(::testing::Message() << "trace=" << c.trace
                                          << " profile=" << c.profile);
        resetSinks();
        SpanTracer::instance().setEnabled(c.trace);
        PhaseProfiler::instance().setEnabled(c.profile);
        {
            CARBONX_SCOPE("sinks/case");
        }
        EXPECT_EQ(SpanTracer::instance().eventCount(), c.trace ? 1u : 0u);
        EXPECT_EQ(profiledCount("sinks/case"), c.profile ? 1u : 0u);
    }
}

TEST_F(Trace, BothSinksShareOneClockPair)
{
    SpanTracer::instance().setEnabled(true);
    PhaseProfiler::instance().setEnabled(true);
    {
        CARBONX_SCOPE("sinks/both");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto events = parseTrace(chromeTrace());
    ASSERT_EQ(events.size(), 1u);
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *node = root.find("sinks/both");
    ASSERT_NE(node, nullptr);
    // One clock pair feeds both sinks: the event's whole-microsecond
    // endpoints bracket the profiler's exact nanoseconds to within one
    // microsecond.
    const auto dur_ns = static_cast<int64_t>(events[0].dur * 1000);
    const auto total_ns = static_cast<int64_t>(node->total_ns);
    EXPECT_GE(total_ns, 2'000'000);
    EXPECT_LT(std::abs(dur_ns - total_ns), 1000);
}

TEST_F(Trace, SinkToggledMidScopeKeepsTheSinksOnAtOpen)
{
    SpanTracer::instance().setEnabled(true);
    {
        CARBONX_SCOPE("sinks/toggled");
        // Swap which sink is on: the open scope still reports to the
        // tracer only, and neither sink is left unbalanced.
        SpanTracer::instance().setEnabled(false);
        PhaseProfiler::instance().setEnabled(true);
    }
    EXPECT_EQ(SpanTracer::instance().eventCount(), 1u);
    EXPECT_EQ(profiledCount("sinks/toggled"), 0u);

    // A scope opened after the swap goes to the profiler only, at the
    // top of the tree: the toggled scope left no cursor behind.
    {
        CARBONX_SCOPE("sinks/after_toggle");
    }
    EXPECT_EQ(SpanTracer::instance().eventCount(), 1u);
    const ProfileNode root = PhaseProfiler::instance().merged();
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "sinks/after_toggle");
    EXPECT_EQ(root.children[0].count, 1u);
}

} // namespace
} // namespace carbonx::obs
