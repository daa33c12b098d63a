/**
 * @file
 * Differential tests of the two sweep modes through the scenario
 * runner: for every committed scenario — and for a set of randomized
 * programmatic variants — adaptive mode must agree with exhaustive
 * mode on the best design bit-for-bit, and on the Pareto front as a
 * set. This is the property that makes `carbonx run --refine` safe:
 * the mode override can never change the answer. A warm exhaustive
 * run must also report its work honestly: all cache hits, nothing
 * simulated.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "support/temp_dir.h"

namespace carbonx::scenario
{
namespace
{

/** Bitwise-comparable key of one evaluation. */
using EvalKey = std::tuple<double, double, double, double, // point
                           double, double>; // embodied, operational

EvalKey
keyOf(const Evaluation &e)
{
    return {e.point.solar_mw.value(), e.point.wind_mw.value(),
            e.point.battery_mwh.value(), e.point.extra_capacity.value(),
            e.embodiedKg().value(), e.operational_kg.value()};
}

/** Pareto front as an order-independent, bitwise-comparable set. */
std::vector<EvalKey>
frontOf(const OptimizationResult &result)
{
    std::vector<EvalKey> keys;
    for (const Evaluation &e : result.paretoSet())
        keys.push_back(keyOf(e));
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
expectDriversAgree(const Scenario &s)
{
    ScenarioRunOptions exhaustive;
    exhaustive.mode_override = SweepMode::Exhaustive;
    ScenarioRunOptions adaptive;
    adaptive.mode_override = SweepMode::Adaptive;

    const ScenarioRunResult a = runScenario(s, exhaustive);
    const ScenarioRunResult b = runScenario(s, adaptive);

    // The best design: identical coordinates and identical carbon,
    // bit for bit — not approximately.
    EXPECT_EQ(keyOf(a.result.best), keyOf(b.result.best)) << s.id;
    EXPECT_EQ(a.result.best.totalKg().value(),
              b.result.best.totalKg().value())
        << s.id;
    EXPECT_EQ(a.result.best.coverage_pct, b.result.best.coverage_pct)
        << s.id;

    // The Pareto front: identical as a set (adaptive mode evaluates
    // only a subset of the lattice).
    EXPECT_EQ(frontOf(a.result), frontOf(b.result)) << s.id;

    // Both modes saw the same lattice.
    EXPECT_EQ(a.lattice_points, b.lattice_points) << s.id;

    // And the adaptive run must actually have skipped work on any
    // non-trivial lattice, or it is not earning its complexity.
    if (b.lattice_points > 200 && s.refine_rounds == 0) {
        EXPECT_GT(b.stats.points_skipped, 0u) << s.id;
    }
}

TEST(ScenarioDifferential, DriversAgreeOnEveryCommittedScenario)
{
    const ScenarioRegistry registry =
        ScenarioRegistry::loadDirectory(CARBONX_SCENARIO_DIR);
    ASSERT_FALSE(registry.empty());

    size_t checked = 0;
    for (const Scenario *s : registry.runnable()) {
        SCOPED_TRACE(s->id);
        expectDriversAgree(*s);
        ++checked;
    }
    EXPECT_GE(checked, 15u);
}

/** Randomized property: agreement is not a fixture accident. */
TEST(ScenarioDifferential, DriversAgreeOnRandomizedScenarios)
{
    const std::array<const char *, 4> bas = {"PACE", "ERCO", "BPAT",
                                             "DUK"};
    const std::array<Strategy, 3> strategies = {
        Strategy::RenewablesOnly, Strategy::RenewableBattery,
        Strategy::RenewableBatteryCas};
    const std::array<double, 3> flex = {0.0, 0.4, 0.8};

    SplitMix64 rng(0xC0FFEE5EEDull);
    for (int variant = 0; variant < 5; ++variant) {
        Scenario s;
        s.id = "prop-" + std::to_string(variant);
        s.source_path = "<generated>";
        s.ba_code = bas[rng.next() % bas.size()];
        s.dc_avg_mw = MegaWatts(10.0 + double(rng.next() % 30));
        s.seed = rng.next();
        s.flexible_ratio = Fraction(flex[rng.next() % flex.size()]);
        s.strategy = strategies[rng.next() % strategies.size()];
        // Small lattice keeps five double-runs cheap.
        s.solar.steps = 5;
        s.wind.steps = 5;
        s.battery.steps = 4;
        s.extra.steps = 2;
        SCOPED_TRACE(s.id + " ba=" + s.ba_code);
        ASSERT_NO_THROW(validateScenario(s));
        expectDriversAgree(s);
    }
}

TEST(ScenarioDifferential, WarmExhaustiveRunReportsCacheHitsNotSimulations)
{
    Scenario s;
    s.id = "warm-exhaustive";
    s.source_path = "<generated>";
    s.strategy = Strategy::RenewableBattery;
    s.mode = SweepMode::Exhaustive;
    s.solar.steps = 5;
    s.wind.steps = 5;
    s.battery.steps = 4;
    ASSERT_NO_THROW(validateScenario(s));

    ScenarioRunOptions opts;
    opts.cache_dir = testsupport::uniqueTestDir() + "cache";
    const ScenarioRunResult cold = runScenario(s, opts);
    EXPECT_EQ(cold.stats.simulated_points, cold.lattice_points);
    EXPECT_EQ(cold.stats.cache_hits, 0u);

    const ScenarioRunResult warm = runScenario(s, opts);
    EXPECT_EQ(warm.stats.simulated_points, 0u);
    EXPECT_EQ(warm.stats.cache_hits, warm.lattice_points);
    EXPECT_EQ(warm.stats.points_skipped, 0u);
    EXPECT_EQ(keyOf(warm.result.best), keyOf(cold.result.best));
    EXPECT_EQ(warm.result.evaluated.size(), cold.result.evaluated.size());
}

} // namespace
} // namespace carbonx::scenario
