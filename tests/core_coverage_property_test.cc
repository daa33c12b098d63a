/**
 * @file
 * Property tests of the coverage metric on randomized shapes:
 * monotonicity, bounds, and consistency with the simulation engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/coverage.h"
#include "support/simulation_engine.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

TimeSeries
randomShape(Rng &rng, bool diurnal)
{
    TimeSeries ts(kYear);
    double level = rng.uniform(0.2, 0.8);
    for (size_t h = 0; h < ts.size(); ++h) {
        level = std::clamp(level + rng.normal(0.0, 0.05), 0.0, 1.0);
        double v = level;
        if (diurnal) {
            const size_t hour = h % 24;
            v = (hour >= 7 && hour < 19) ? level : 0.0;
        }
        ts[h] = v;
    }
    // Normalize to a per-unit shape.
    return ts.max() > 0.0 ? ts.scaledToMax(1.0) : ts;
}

TimeSeries
randomLoad(Rng &rng)
{
    TimeSeries ts(kYear);
    const double base = rng.uniform(5.0, 50.0);
    for (size_t h = 0; h < ts.size(); ++h)
        ts[h] = base * rng.uniform(0.9, 1.1);
    return ts;
}

class CoverageProperty : public testing::TestWithParam<uint64_t>
{
};

TEST_P(CoverageProperty, BoundsAndMonotonicity)
{
    Rng rng(GetParam());
    const TimeSeries load = randomLoad(rng);
    const CoverageAnalyzer cov(load, randomShape(rng, true),
                               randomShape(rng, false));

    double prev = -1.0;
    for (double mw : {0.0, 10.0, 50.0, 200.0, 1000.0, 10000.0}) {
        const double c = cov.coverage(MegaWatts(mw), MegaWatts(mw));
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 100.0);
        EXPECT_GE(c, prev - 1e-9) << "at " << mw << " MW";
        prev = c;
    }
}

TEST_P(CoverageProperty, AgreesWithSimulationEngine)
{
    // The closed-form coverage and the engine's renewables-only run
    // must agree exactly for any shapes.
    Rng rng(GetParam() + 1000);
    const TimeSeries load = randomLoad(rng);
    const TimeSeries solar = randomShape(rng, true);
    const TimeSeries wind = randomShape(rng, false);
    const CoverageAnalyzer cov(load, solar, wind);

    const double solar_mw = rng.uniform(0.0, 300.0);
    const double wind_mw = rng.uniform(0.0, 300.0);
    const TimeSeries supply = cov.supplyFor(MegaWatts(solar_mw), MegaWatts(wind_mw));
    const SimulationEngine engine(load, supply);
    EXPECT_NEAR(cov.coverage(MegaWatts(solar_mw), MegaWatts(wind_mw)),
                engine.renewableOnlyCoverage(), 1e-9);
}

TEST_P(CoverageProperty, SupplySuperposition)
{
    // supplyFor is linear: f(a+b) == f(a) + f(b), elementwise.
    Rng rng(GetParam() + 2000);
    const TimeSeries load = randomLoad(rng);
    const CoverageAnalyzer cov(load, randomShape(rng, true),
                               randomShape(rng, false));
    const double s1 = rng.uniform(0.0, 100.0);
    const double w1 = rng.uniform(0.0, 100.0);
    const double s2 = rng.uniform(0.0, 100.0);
    const double w2 = rng.uniform(0.0, 100.0);
    const TimeSeries sum =
        cov.supplyFor(MegaWatts(s1), MegaWatts(w1)) + cov.supplyFor(MegaWatts(s2), MegaWatts(w2));
    const TimeSeries combined = cov.supplyFor(MegaWatts(s1 + s2), MegaWatts(w1 + w2));
    for (size_t h = 0; h < sum.size(); h += 307)
        EXPECT_NEAR(sum[h], combined[h], 1e-9);
}

TEST_P(CoverageProperty, CoverageIsSuperadditiveInMixing)
{
    // Complementary sources: covering with a mix is at least as good
    // as the coverage-weighted intuition suggests — concretely,
    // coverage(MegaWatts(s), MegaWatts(w)) >= max(coverage(MegaWatts(s), MegaWatts(0)), coverage(MegaWatts(0), MegaWatts(w))) when the
    // capacities are additive on top of each other.
    Rng rng(GetParam() + 3000);
    const TimeSeries load = randomLoad(rng);
    const CoverageAnalyzer cov(load, randomShape(rng, true),
                               randomShape(rng, false));
    const double s = rng.uniform(10.0, 200.0);
    const double w = rng.uniform(10.0, 200.0);
    const double mixed = cov.coverage(MegaWatts(s), MegaWatts(w));
    EXPECT_GE(mixed, cov.coverage(MegaWatts(s), MegaWatts(0.0)) - 1e-9);
    EXPECT_GE(mixed, cov.coverage(MegaWatts(0.0), MegaWatts(w)) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperty,
                         testing::Values(3u, 7u, 21u, 99u, 500u));

} // namespace
} // namespace carbonx
