/**
 * @file
 * Unit tests for the hierarchical phase profiler fed by CARBONX_SCOPE:
 * nesting, counts, cross-thread merge, enable/disable, reset, and
 * JSON output.
 */

#include "obs/profiler.h"
#include "obs/scope.h"

#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace carbonx::obs
{
namespace
{

/** Enables the profiler for one test, restoring the old state after. */
class ProfilerScope
{
  public:
    ProfilerScope()
    {
        PhaseProfiler::instance().reset();
        PhaseProfiler::instance().setEnabled(true);
    }

    ~ProfilerScope()
    {
        PhaseProfiler::instance().setEnabled(false);
        PhaseProfiler::instance().reset();
    }
};

TEST(PhaseProfiler, DisabledByDefaultRecordsNothing)
{
    PhaseProfiler::instance().reset();
    ASSERT_FALSE(PhaseProfiler::instance().enabled());
    {
        CARBONX_SCOPE("off/phase");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    EXPECT_TRUE(root.children.empty());
}

TEST(PhaseProfiler, RecordsCountAndNesting)
{
    ProfilerScope scope;
    for (int i = 0; i < 3; ++i) {
        CARBONX_SCOPE("outer");
        {
            CARBONX_SCOPE("inner");
        }
        {
            CARBONX_SCOPE("inner2");
        }
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *outer = root.find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 3u);
    ASSERT_EQ(outer->children.size(), 2u);
    const ProfileNode *inner = outer->find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 3u);
    const ProfileNode *inner2 = outer->find("inner2");
    ASSERT_NE(inner2, nullptr);
    EXPECT_EQ(inner2->count, 3u);
    // Nothing at top level but "outer" (find() is a deep search, so
    // check the direct children explicitly).
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "outer");
}

TEST(PhaseProfiler, SelfTimeNeverExceedsTotal)
{
    ProfilerScope scope;
    {
        CARBONX_SCOPE("parent");
        CARBONX_SCOPE("child");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *parent = root.find("parent");
    ASSERT_NE(parent, nullptr);
    EXPECT_LE(parent->self_ns, parent->total_ns);
    const ProfileNode *child = parent->find("child");
    ASSERT_NE(child, nullptr);
    EXPECT_LE(child->total_ns, parent->total_ns);
    // A leaf's self time is its total.
    EXPECT_EQ(child->self_ns, child->total_ns);
    // The merged root aggregates its top-level children.
    EXPECT_EQ(root.total_ns, parent->total_ns);
    EXPECT_EQ(root.self_ns, 0u);
}

TEST(PhaseProfiler, MinMaxBracketEachOccurrence)
{
    ProfilerScope scope;
    for (int i = 0; i < 5; ++i) {
        CARBONX_SCOPE("bracketed");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *node = root.find("bracketed");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->count, 5u);
    EXPECT_LE(node->min_ns, node->max_ns);
    EXPECT_LE(node->max_ns, node->total_ns);
    EXPECT_GE(node->total_ns, 5 * node->min_ns);
}

TEST(PhaseProfiler, MergesAcrossThreads)
{
    ProfilerScope scope;
    {
        CARBONX_SCOPE("main/phase");
    }
    std::thread worker([] {
        for (int i = 0; i < 2; ++i) {
            CARBONX_SCOPE("worker/phase");
        }
    });
    worker.join();
    EXPECT_GE(PhaseProfiler::instance().threadCount(), 2u);
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *main_phase = root.find("main/phase");
    ASSERT_NE(main_phase, nullptr);
    EXPECT_EQ(main_phase->count, 1u);
    // The worker's tree survives thread exit and merges as its own
    // top-level path.
    const ProfileNode *worker_phase = root.find("worker/phase");
    ASSERT_NE(worker_phase, nullptr);
    EXPECT_EQ(worker_phase->count, 2u);
}

TEST(PhaseProfiler, MergesIdenticalPhasesFromParallelWorkers)
{
    ProfilerScope scope;
    setThreadCount(4);
    parallelFor(0, 64, 1, [](size_t, size_t) {
        CARBONX_SCOPE("pool/phase");
    });
    setThreadCount(1);
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *phase = root.find("pool/phase");
    ASSERT_NE(phase, nullptr);
    // Same literal from every worker folds into one node.
    EXPECT_EQ(phase->count, 64u);
}

TEST(PhaseProfiler, ResetClearsAllTrees)
{
    ProfilerScope scope;
    {
        CARBONX_SCOPE("to/be/cleared");
    }
    PhaseProfiler::instance().reset();
    const ProfileNode root = PhaseProfiler::instance().merged();
    EXPECT_TRUE(root.children.empty());
    EXPECT_EQ(root.total_ns, 0u);
}

TEST(PhaseProfiler, WriteTextListsPhases)
{
    ProfilerScope scope;
    {
        CARBONX_SCOPE("text/outer");
        CARBONX_SCOPE("text/inner");
    }
    std::ostringstream os;
    PhaseProfiler::instance().writeText(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("text/outer"), std::string::npos);
    EXPECT_NE(out.find("text/inner"), std::string::npos);
}

TEST(PhaseProfiler, WriteJsonIsWellFormed)
{
    ProfilerScope scope;
    {
        CARBONX_SCOPE("json/outer");
        CARBONX_SCOPE("json/inner");
    }
    std::ostringstream os;
    PhaseProfiler::instance().writeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"json/outer\""), std::string::npos);
    EXPECT_NE(out.find("\"json/inner\""), std::string::npos);
    EXPECT_NE(out.find("\"total_ns\""), std::string::npos);
    EXPECT_NE(out.find("\"self_ns\""), std::string::npos);
    // Balanced braces/brackets is a cheap well-formedness check; the
    // bench comparator tests parse profiler JSON for real.
    long depth = 0;
    for (const char c : out) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(PhaseProfiler, ScopeCapturesEnabledAtConstruction)
{
    PhaseProfiler::instance().reset();
    PhaseProfiler::instance().setEnabled(false);
    {
        CARBONX_SCOPE("toggled/phase");
        // Enabling mid-scope must not make the destructor record a
        // phase it never opened.
        PhaseProfiler::instance().setEnabled(true);
    }
    PhaseProfiler::instance().setEnabled(false);
    const ProfileNode root = PhaseProfiler::instance().merged();
    EXPECT_EQ(root.find("toggled/phase"), nullptr);
    PhaseProfiler::instance().reset();
}

} // namespace
} // namespace carbonx::obs
