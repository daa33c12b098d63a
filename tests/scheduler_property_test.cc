/**
 * @file
 * Property-based tests of the co-simulation: invariants that must
 * hold for every region, strategy knob, and random load/supply
 * combination. Every run goes through the kernel (a 1-lane batch) and
 * the scalar oracle, which must agree bit for bit; the assertions
 * check the kernel's result.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "battery/chemistry.h"
#include "common/rng.h"
#include "support/differential.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

/** Random but physical load series: positive, bounded, diurnal-ish. */
TimeSeries
randomLoad(Rng &rng)
{
    TimeSeries ts(kYear);
    const double base = rng.uniform(5.0, 40.0);
    const double swing = rng.uniform(0.0, 0.15);
    for (size_t h = 0; h < ts.size(); ++h) {
        const double diurnal =
            1.0 + swing * std::sin(2.0 * std::numbers::pi *
                                   static_cast<double>(h % 24) / 24.0);
        ts[h] = base * diurnal * rng.uniform(0.95, 1.05);
    }
    return ts;
}

/**
 * Random renewable supply: bursty, sometimes zero. A per-unit shape
 * (the level) times a peak nameplate, which is how lanes take supply.
 */
struct RandomSupply
{
    TimeSeries shape{kYear};
    TimeSeries none{kYear};
    double peak = 0.0;

    explicit RandomSupply(Rng &rng) : peak(rng.uniform(0.0, 120.0))
    {
        double level = 0.5;
        for (size_t h = 0; h < shape.size(); ++h) {
            level = std::clamp(level + rng.normal(0.0, 0.08), 0.0, 1.0);
            shape[h] = level;
        }
    }

    /** The supply series a lane of laneFor() sees. */
    TimeSeries series(const TimeSeries &load) const
    {
        return testsupport::laneSupply({load, shape, none},
                                       laneFor(load.max()));
    }

    /** A lane drawing this supply under a cap of @p cap_mw. */
    BatchLaneConfig laneFor(double cap_mw) const
    {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(peak);
        lane.capacity_cap_mw = MegaWatts(cap_mw);
        return lane;
    }

    SimulationResult run(const TimeSeries &load,
                         const BatchLaneConfig &lane) const
    {
        return testsupport::runBoth({load, shape, none}, lane);
    }
};

const BatteryChemistry &
lfp()
{
    static const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    return chem;
}

class EngineProperty
    : public testing::TestWithParam<std::tuple<uint64_t, double, double>>
{
};

TEST_P(EngineProperty, InvariantsHold)
{
    const auto [seed, fwr, battery_hours] = GetParam();
    Rng rng(seed);
    const TimeSeries load = randomLoad(rng);
    const RandomSupply random_supply(rng);
    const TimeSeries supply = random_supply.series(load);

    BatchLaneConfig cfg = random_supply.laneFor(load.max() * 1.4);
    cfg.flexible_ratio = Fraction(fwr);
    if (battery_hours > 0.0) {
        cfg.chemistry = &lfp();
        cfg.battery_capacity_mwh =
            MegaWattHours(battery_hours * load.mean());
    }
    const SimulationResult r = random_supply.run(load, cfg);

    // 1. Capacity cap respected everywhere.
    EXPECT_LE(r.peak_power_mw.value(),
              cfg.capacity_cap_mw.value() + 1e-9);

    // 2. Work conservation: served + residual backlog = demand.
    EXPECT_NEAR(r.served_energy_mwh.value() + r.residual_backlog_mwh.value(),
                r.load_energy_mwh.value(), 1e-6 * r.load_energy_mwh.value() + 1e-6);

    // 3. No SLO violations at generous caps.
    EXPECT_DOUBLE_EQ(r.slo_violation_mwh.value(), 0.0);

    // 4. Hourly power balance: grid >= served - supply - discharge,
    //    and never negative.
    EXPECT_GE(r.grid_power.min(), -1e-12);
    for (size_t h = 0; h < load.size(); h += 97) {
        const double discharge =
            std::max(-r.battery_flow[h], 0.0);
        EXPECT_GE(r.grid_power[h] + 1e-6,
                  r.served_power[h] - supply[h] - discharge);
    }

    // 5. Energy conservation overall: renewables used + grid + battery
    //    net discharge covers everything served.
    EXPECT_LE(r.renewable_used_mwh.value(),
              supply.total() + 1e-6);
    EXPECT_GE(r.grid_energy_mwh.value(), -1e-9);

    // 6. Coverage consistent with energies.
    EXPECT_NEAR(r.coverage_pct,
                (1.0 - r.grid_energy_mwh.value() / r.load_energy_mwh.value()) * 100.0,
                1e-9);

    // 7. SoC bounded.
    EXPECT_GE(r.battery_soc.min(), -1e-9);
    EXPECT_LE(r.battery_soc.max(), 1.0 + 1e-9);
}

TEST_P(EngineProperty, BatteryNeverHurtsCoverage)
{
    const auto [seed, fwr, battery_hours] = GetParam();
    Rng rng(seed + 99);
    const TimeSeries load = randomLoad(rng);
    const RandomSupply random_supply(rng);

    BatchLaneConfig cfg = random_supply.laneFor(load.max() * 1.4);
    cfg.flexible_ratio = Fraction(fwr);
    const double cov_plain = random_supply.run(load, cfg).coverage_pct;

    cfg.chemistry = &lfp();
    cfg.battery_capacity_mwh =
        MegaWattHours(std::max(battery_hours, 1.0) * load.mean());
    const double cov_batt = random_supply.run(load, cfg).coverage_pct;
    EXPECT_GE(cov_batt, cov_plain - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, EngineProperty,
    testing::Combine(testing::Values(11u, 42u, 1234u),
                     testing::Values(0.0, 0.4, 1.0),
                     testing::Values(0.0, 4.0, 16.0)));

TEST(EngineDeterminism, SameInputsSameOutputs)
{
    Rng rng(7);
    const TimeSeries load = randomLoad(rng);
    const RandomSupply random_supply(rng);
    BatchLaneConfig cfg = random_supply.laneFor(load.max() * 1.5);
    cfg.flexible_ratio = Fraction(0.4);
    cfg.chemistry = &lfp();
    cfg.battery_capacity_mwh = MegaWattHours(100.0);
    const SimulationResult a = random_supply.run(load, cfg);
    const SimulationResult b = random_supply.run(load, cfg);
    EXPECT_DOUBLE_EQ(a.grid_energy_mwh.value(), b.grid_energy_mwh.value());
    EXPECT_DOUBLE_EQ(a.coverage_pct, b.coverage_pct);
    for (size_t h = 0; h < load.size(); h += 301)
        EXPECT_DOUBLE_EQ(a.served_power[h], b.served_power[h]);
}

} // namespace
} // namespace carbonx
