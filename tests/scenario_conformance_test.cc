/**
 * @file
 * Data-driven conformance suite over the committed scenario corpus.
 *
 * One parameterized test is registered per scenario file found under
 * CARBONX_SCENARIO_DIR at discovery time (testing::RegisterTest), so
 * `ctest -N` enumerates every committed study by id and adding a
 * scenario JSON adds a test with zero C++ changes. Each runnable
 * scenario is executed in its declared sweep mode and held to the
 * framework invariants:
 *
 *  - coverage of every evaluation lies in [0, 100];
 *  - the reported best is minimal over the evaluated set;
 *  - the Pareto front is monotone (embodied up => operational down);
 *  - the decision journal reconciles row-for-row with the sweep's
 *    own statistics (single-pass scenarios);
 *  - the scenario's declared golden expectations hold.
 *
 * Abstract ablation bases get a validation-only test: they must load
 * and validate but refuse to run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/journal.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "support/temp_dir.h"

namespace carbonx::scenario
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testsupport::uniqueTestDir() + name;
}

uint64_t
pointIdOf(const Evaluation &e)
{
    return obs::decisionPointId({e.point.solar_mw.value(),
                                 e.point.wind_mw.value(),
                                 e.point.battery_mwh.value(),
                                 e.point.extra_capacity.value()});
}

size_t
countVerdict(const std::vector<obs::DecisionRow> &rows,
             obs::DecisionVerdict verdict)
{
    size_t n = 0;
    for (const auto &row : rows)
        if (row.verdict == verdict)
            ++n;
    return n;
}

/** The invariants every evaluated set must satisfy. */
void
checkEvaluationInvariants(const Scenario &s,
                          const OptimizationResult &result)
{
    ASSERT_FALSE(result.evaluated.empty())
        << s.id << ": sweep produced no evaluations";

    double min_total = result.evaluated.front().totalKg().value();
    for (const Evaluation &e : result.evaluated) {
        EXPECT_GE(e.coverage_pct, 0.0) << s.id;
        EXPECT_LE(e.coverage_pct, 100.0) << s.id;
        EXPECT_TRUE(std::isfinite(e.totalKg().value())) << s.id;
        EXPECT_GE(e.operational_kg.value(), 0.0) << s.id;
        EXPECT_GE(e.embodiedKg().value(), 0.0) << s.id;
        min_total = std::min(min_total, e.totalKg().value());
    }

    // The reported best is exactly the minimum over the evaluated
    // set — not merely close to it.
    EXPECT_EQ(result.best.totalKg().value(), min_total) << s.id;

    // Pareto front: sorted by embodied ascending, operational must be
    // non-increasing, or some member is dominated.
    std::vector<Evaluation> front = result.paretoSet();
    ASSERT_FALSE(front.empty()) << s.id;
    std::sort(front.begin(), front.end(),
              [](const Evaluation &a, const Evaluation &b) {
                  return a.embodiedKg().value() < b.embodiedKg().value();
              });
    for (size_t i = 1; i < front.size(); ++i)
        EXPECT_LE(front[i].operational_kg.value(),
                  front[i - 1].operational_kg.value())
            << s.id << ": Pareto front not monotone at index " << i;

    // The best total must itself sit on the front. (Matched by total
    // rather than point id: a zoom-refined sweep can re-evaluate the
    // same nominal design at last-ulp-different lattice coordinates,
    // and the frontier keeps whichever copy sorted first.)
    double front_min = front.front().totalKg().value();
    for (const Evaluation &e : front)
        front_min = std::min(front_min, e.totalKg().value());
    EXPECT_EQ(front_min, result.best.totalKg().value())
        << s.id << ": best total missing from its own Pareto front";
}

/** Journal rows must reconcile exactly with the sweep statistics. */
void
checkJournalReconciliation(const Scenario &s, SweepMode mode,
                           const ScenarioRunResult &run,
                           const std::string &journal_path)
{
    obs::JournalData data = obs::readJournal(journal_path);
    EXPECT_TRUE(data.truncation_reason.empty()) << s.id;
    EXPECT_EQ(data.config_digest, run.config_digest) << s.id;

    const size_t evaluated =
        countVerdict(data.rows, obs::DecisionVerdict::Evaluated);
    const size_t interpolated =
        countVerdict(data.rows, obs::DecisionVerdict::Interpolated);
    const size_t skipped =
        countVerdict(data.rows, obs::DecisionVerdict::Skipped);
    const size_t re_armed =
        countVerdict(data.rows, obs::DecisionVerdict::ReArmed);
    const size_t cache_hits =
        countVerdict(data.rows, obs::DecisionVerdict::CacheHit);

    // One reconciliation for both modes: every evaluated point was
    // either simulated or replayed; every simulated point is journaled
    // exactly once as Evaluated, Interpolated, or ReArmed; the skip
    // ledger and cache counters match the driver's own statistics.
    EXPECT_EQ(run.stats.simulated_points + run.stats.cache_hits,
              run.result.evaluated.size())
        << s.id;
    EXPECT_EQ(evaluated + interpolated + re_armed,
              run.stats.simulated_points)
        << s.id;
    EXPECT_EQ(skipped - re_armed, run.stats.points_skipped) << s.id;
    EXPECT_EQ(cache_hits, run.stats.cache_hits) << s.id;
    if (mode == SweepMode::Exhaustive) {
        // Exhaustive mode (stride 1) triages nothing.
        EXPECT_EQ(skipped, 0u) << s.id;
        EXPECT_EQ(interpolated, 0u) << s.id;
    }

    // Journaled totals must match the evaluations bit-for-bit, and
    // every journaled decision must concern a real lattice point.
    std::map<uint64_t, double> totals;
    for (const Evaluation &e : run.result.evaluated)
        totals[pointIdOf(e)] = e.totalKg().value();
    for (const auto &row : data.rows) {
        if (row.verdict == obs::DecisionVerdict::Skipped) {
            EXPECT_TRUE(std::isnan(row.actual_kg)) << s.id;
            continue;
        }
        const auto it = totals.find(row.point_id);
        ASSERT_NE(it, totals.end())
            << s.id << ": journal row for unknown point "
            << row.point_id;
        EXPECT_EQ(row.actual_kg, it->second) << s.id;
    }
}

/** The per-scenario conformance test body. */
class ScenarioConformanceTest : public testing::Test
{
  public:
    explicit ScenarioConformanceTest(const Scenario *s) : scenario_(s)
    {
    }

    void TestBody() override
    {
        const Scenario &s = *scenario_;

        // Re-validate: registry load already did, but the test must
        // hold even if the registry grows a lax path later.
        ASSERT_NO_THROW(validateScenario(s)) << s.source_path;

        if (s.abstract_base) {
            // Abstract bases are templates: they must refuse to run.
            EXPECT_THROW(runScenario(s), UserError) << s.id;
            return;
        }

        const std::string journal_path =
            tempPath("conformance_" + s.id + ".cxj");
        std::remove(journal_path.c_str());

        ScenarioRunOptions opts;
        opts.journal_path = journal_path;
        ScenarioRunResult run;
        ASSERT_NO_THROW(run = runScenario(s, opts)) << s.id;

        EXPECT_EQ(run.scenario_id, s.id);
        EXPECT_EQ(run.scenario_digest, s.digest());
        EXPECT_EQ(run.mode, s.mode);
        EXPECT_GT(run.lattice_points, 0u) << s.id;

        checkEvaluationInvariants(s, run.result);

        // Reconciliation laws are per-pass; zoom refinement runs
        // several passes into one journal, so only single-pass
        // scenarios are held to the exact counting laws.
        if (s.refine_rounds == 0)
            checkJournalReconciliation(s, s.mode, run, journal_path);

        // Declared golden expectations must hold.
        const std::vector<std::string> violations =
            checkExpectations(s, run.result.best);
        EXPECT_TRUE(violations.empty())
            << s.id << ": " << (violations.empty() ? std::string()
                                                   : violations.front());

        std::remove(journal_path.c_str());
    }

  private:
    const Scenario *scenario_;
};

/** Corpus-level checks that are not per-scenario. */
void
checkCorpus(const ScenarioRegistry &registry)
{
    // The committed corpus must stay big enough to cover the paper's
    // headline configurations (strategy sweep, multi-site, ablations,
    // adaptive, external traces).
    EXPECT_GE(registry.all().size(), 15u)
        << "committed scenario corpus shrank below the paper floor";

    std::set<std::string> ids;
    std::set<std::string> bas;
    size_t adaptive = 0;
    size_t with_expectations = 0;
    for (const Scenario &s : registry.all()) {
        EXPECT_TRUE(ids.insert(s.id).second)
            << "duplicate id " << s.id;
        if (s.traces_csv.empty())
            bas.insert(s.ba_code);
        if (s.mode == SweepMode::Adaptive)
            ++adaptive;
        if (s.expect.has_best_total_kg ||
            s.expect.min_coverage_pct > 0.0 ||
            s.expect.max_coverage_pct < 100.0)
            ++with_expectations;
    }
    EXPECT_GE(bas.size(), 4u) << "corpus must span several geographies";
    EXPECT_GE(adaptive, 1u) << "corpus must exercise the adaptive path";
    EXPECT_GE(with_expectations, 1u)
        << "corpus must carry at least one golden expectation";
}

class CorpusTest : public testing::Test
{
  public:
    explicit CorpusTest(const ScenarioRegistry *registry)
        : registry_(registry)
    {
    }

    void TestBody() override { checkCorpus(*registry_); }

  private:
    const ScenarioRegistry *registry_;
};

} // namespace
} // namespace carbonx::scenario

int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);

    using carbonx::scenario::Scenario;
    using carbonx::scenario::ScenarioRegistry;

    static ScenarioRegistry registry =
        ScenarioRegistry::loadDirectory(CARBONX_SCENARIO_DIR);

    for (const Scenario &s : registry.all()) {
        // ctest-friendly name: dots in ids would split the test name.
        std::string name = s.id;
        for (char &c : name)
            if (c == '.' || c == '-')
                c = '_';
        testing::RegisterTest(
            "ScenarioConformance", name.c_str(), nullptr,
            s.id.c_str(), __FILE__, __LINE__, [&s]() -> testing::Test * {
                return new carbonx::scenario::ScenarioConformanceTest(
                    &s);
            });
    }

    testing::RegisterTest(
        "ScenarioConformance", "CorpusCoverage", nullptr, nullptr,
        __FILE__, __LINE__, []() -> testing::Test * {
            return new carbonx::scenario::CorpusTest(&registry);
        });

    return RUN_ALL_TESTS();
}
