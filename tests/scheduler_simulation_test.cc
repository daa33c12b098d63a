/**
 * @file
 * Tests of the hour-by-hour co-simulation: the four strategies of
 * section 5.2 and their interactions. Every case runs on the kernel
 * (a 1-lane batch) and on the scalar oracle, which must agree bit for
 * bit; the assertions check the kernel's result.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "battery/chemistry.h"
#include "common/error.h"
#include "support/differential.h"
#include "support/simulation_engine.h"

namespace carbonx
{
namespace
{

using testsupport::idealChemistry;
using testsupport::LaneTraces;
using testsupport::runBoth;
using testsupport::runKernel;
using testsupport::runOracle;

constexpr int kYear = 2021;

/** Flat 10 MW demand. */
TimeSeries
flatLoad(double mw = 10.0)
{
    return TimeSeries(kYear, mw);
}

/** Solar-like supply: @p mw from hours 8-17, zero otherwise. */
TimeSeries
daySupply(double mw = 30.0)
{
    TimeSeries ts(kYear);
    for (size_t h = 0; h < ts.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            ts[h] = mw;
    }
    return ts;
}

/** Per-unit day shape; lanes scale it by their solar nameplate. */
const TimeSeries &
dayShape()
{
    static const TimeSeries shape = daySupply(1.0);
    return shape;
}

const TimeSeries &
noWind()
{
    static const TimeSeries none(kYear);
    return none;
}

const TimeSeries &
load10()
{
    static const TimeSeries load = flatLoad();
    return load;
}

const BatteryChemistry &
lfp()
{
    static const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    return chem;
}

const BatteryChemistry &
ideal()
{
    static const BatteryChemistry chem = idealChemistry();
    return chem;
}

/** @p solar_mw of day-shaped solar under a 40 MW cap. */
BatchLaneConfig
baseLane(double solar_mw = 30.0)
{
    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(solar_mw);
    lane.capacity_cap_mw = MegaWatts(40.0);
    return lane;
}

BatchLaneConfig
withBattery(BatchLaneConfig lane, const BatteryChemistry &chem,
            double mwh)
{
    lane.chemistry = &chem;
    lane.battery_capacity_mwh = MegaWattHours(mwh);
    return lane;
}

/** Flat 10 MW load, day-shaped solar, both engines. */
SimulationResult
simulate(const BatchLaneConfig &lane)
{
    return runBoth(LaneTraces{load10(), dayShape(), noWind()}, lane);
}

TEST(SimulationEngine, RenewableOnlyCoverageMatchesClosedForm)
{
    const SimulationEngine engine(flatLoad(), daySupply());
    // 10 of 24 hours fully covered: coverage = 10/24.
    EXPECT_NEAR(engine.renewableOnlyCoverage(), 100.0 * 10.0 / 24.0,
                1e-6);
    // The simulation with no battery and no CAS agrees.
    const SimulationResult r = simulate(baseLane());
    EXPECT_NEAR(r.coverage_pct, engine.renewableOnlyCoverage(), 1e-6);
}

TEST(SimulationEngine, ZeroSupplyMeansZeroCoverage)
{
    const SimulationEngine engine(flatLoad(), TimeSeries(kYear));
    EXPECT_NEAR(engine.renewableOnlyCoverage(), 0.0, 1e-9);
    const SimulationResult r = simulate(baseLane(0.0));
    EXPECT_NEAR(r.coverage_pct, 0.0, 1e-9);
    EXPECT_NEAR(r.grid_energy_mwh.value(), r.load_energy_mwh.value(), 1e-6);
}

TEST(SimulationEngine, AbundantSupplyMeansFullCoverage)
{
    const TimeSeries always(kYear, 1.0);
    const SimulationResult r =
        runBoth(LaneTraces{load10(), always, noWind()}, baseLane(100.0));
    EXPECT_NEAR(r.coverage_pct, 100.0, 1e-9);
    EXPECT_NEAR(r.grid_energy_mwh.value(), 0.0, 1e-9);
    EXPECT_GT(r.renewable_excess_mwh.value(), 0.0);
}

TEST(SimulationEngine, BatteryBridgesNights)
{
    // Day supply delivers 300 MWh over 10 hours against 240 MWh of
    // daily demand; a large ideal battery shifts the 60 MWh surplus
    // into the 14 night hours (140 MWh needed) -> partial bridging.
    const SimulationResult with_batt =
        simulate(withBattery(baseLane(), ideal(), 500.0));
    const double base_cov =
        SimulationEngine(flatLoad(), daySupply()).renewableOnlyCoverage();
    EXPECT_GT(with_batt.coverage_pct, base_cov + 5.0);
    EXPECT_GT(with_batt.battery_cycles, 10.0);
}

TEST(SimulationEngine, BigEnoughSupplyAndBatteryReach100)
{
    // 60 MW for 10 daytime hours = 600 MWh/day vs 240 MWh demand;
    // battery holds a full night comfortably.
    const SimulationResult r =
        simulate(withBattery(baseLane(60.0), ideal(), 200.0));
    EXPECT_NEAR(r.coverage_pct, 100.0, 0.1);
}

TEST(SimulationEngine, ClcLossesReduceCoverageVsIdeal)
{
    const double cov_clc =
        simulate(withBattery(baseLane(35.0), lfp(), 200.0)).coverage_pct;
    const double cov_ideal =
        simulate(withBattery(baseLane(35.0), ideal(), 200.0))
            .coverage_pct;
    EXPECT_GE(cov_ideal, cov_clc);
}

TEST(SimulationEngine, CasShiftsFlexibleLoadIntoTheDay)
{
    BatchLaneConfig lane = baseLane();
    lane.flexible_ratio = Fraction(0.4);
    const SimulationResult r = simulate(lane);
    const double base_cov =
        SimulationEngine(flatLoad(), daySupply()).renewableOnlyCoverage();
    EXPECT_GT(r.coverage_pct, base_cov + 5.0);
    EXPECT_GT(r.deferred_mwh.value(), 0.0);
    // Total work conserved up to the residual backlog at year end.
    EXPECT_NEAR(r.served_energy_mwh.value() + r.residual_backlog_mwh.value(),
                r.load_energy_mwh.value(), 1.0);
}

TEST(SimulationEngine, DeferredWorkMeetsItsDeadline)
{
    BatchLaneConfig lane = baseLane();
    lane.flexible_ratio = Fraction(0.4);
    lane.slo_window_hours = Hours(24.0);
    const SimulationResult r = simulate(lane);
    EXPECT_DOUBLE_EQ(r.slo_violation_mwh.value(), 0.0);
    // Backlog never exceeds one day of deferrable work.
    EXPECT_LE(r.max_backlog_mwh.value(), 0.4 * 10.0 * 24.0 + 1e-6);
}

TEST(SimulationEngine, ServedPowerRespectsCapacityCap)
{
    BatchLaneConfig lane = baseLane();
    lane.capacity_cap_mw = MegaWatts(12.0);
    lane.flexible_ratio = Fraction(1.0);
    const SimulationResult r = simulate(lane);
    EXPECT_LE(r.peak_power_mw.value(), 12.0 + 1e-9);
}

TEST(SimulationEngine, CombinedBeatsEitherAlone)
{
    BatchLaneConfig cas_only = baseLane(25.0);
    cas_only.flexible_ratio = Fraction(0.4);
    const double cov_cas = simulate(cas_only).coverage_pct;

    const double cov_batt =
        simulate(withBattery(baseLane(25.0), lfp(), 80.0)).coverage_pct;

    const double cov_both =
        simulate(withBattery(cas_only, lfp(), 80.0)).coverage_pct;

    EXPECT_GE(cov_both, cov_cas - 1e-6);
    EXPECT_GE(cov_both, cov_batt - 1e-6);
    EXPECT_GT(cov_both, SimulationEngine(flatLoad(), daySupply(25.0))
                            .renewableOnlyCoverage());
}

TEST(SimulationEngine, BatteryDischargesBeforeDeferral)
{
    // Section 5.2 priority: with a large battery, flexible work rides
    // through deficits on stored energy instead of being deferred.
    // Pre-charge by an initial abundant day is not possible through
    // the public API, so use a supply with a huge first week: a
    // 100 MW plant at 0.3 per unit by day, full output in week one.
    TimeSeries shape = daySupply(0.3);
    for (size_t h = 0; h < 7 * 24; ++h)
        shape[h] = 1.0;
    const LaneTraces traces{load10(), shape, noWind()};
    BatchLaneConfig cfg = baseLane(100.0);
    cfg.flexible_ratio = Fraction(0.4);
    const SimulationResult r =
        runBoth(traces, withBattery(cfg, ideal(), 10000.0));
    const SimulationResult r2 = runBoth(traces, cfg);
    EXPECT_LT(r.deferred_mwh.value(), r2.deferred_mwh.value());
}

TEST(SimulationEngine, GridPowerIsTheResidual)
{
    const BatchLaneConfig lane = baseLane();
    const SimulationResult r = simulate(lane);
    const TimeSeries supply =
        testsupport::laneSupply({load10(), dayShape(), noWind()}, lane);
    for (size_t h = 0; h < r.grid_power.size(); h += 97) {
        const double expected =
            std::max(r.served_power[h] - supply[h], 0.0);
        EXPECT_NEAR(r.grid_power[h], expected, 1e-9);
    }
}

TEST(SimulationEngine, SocSeriesStaysInRange)
{
    const SimulationResult r =
        simulate(withBattery(baseLane(), lfp(), 100.0));
    EXPECT_GE(r.battery_soc.min(), -1e-9);
    EXPECT_LE(r.battery_soc.max(), 1.0 + 1e-9);
}

TEST(SimulationEngine, RejectsInvalidConfigs)
{
    const LaneTraces traces{load10(), dayShape(), noWind()};
    BatchLaneConfig lane = baseLane();
    lane.capacity_cap_mw = MegaWatts(5.0); // Below the 10 MW load peak.
    EXPECT_THROW(runOracle(traces, lane), UserError);
    EXPECT_THROW(runKernel(traces, lane), UserError);
    lane = baseLane();
    lane.flexible_ratio = Fraction(-0.1);
    EXPECT_THROW(runOracle(traces, lane), UserError);
    EXPECT_THROW(runKernel(traces, lane), UserError);
    lane = baseLane();
    lane.slo_window_hours = Hours(0.0);
    EXPECT_THROW(runOracle(traces, lane), UserError);
    EXPECT_THROW(runKernel(traces, lane), UserError);
}

TEST(SimulationEngine, RejectsMismatchedSeries)
{
    EXPECT_THROW(SimulationEngine(flatLoad(), TimeSeries(2020, 1.0)),
                 UserError);
    EXPECT_THROW(BatchedSimulationEngine(flatLoad(), TimeSeries(2020, 1.0),
                                         TimeSeries(2020)),
                 UserError);
    TimeSeries negative(kYear, -1.0);
    EXPECT_THROW(SimulationEngine(negative, daySupply()), UserError);
    EXPECT_THROW(BatchedSimulationEngine(negative, dayShape(), noWind()),
                 UserError);
}

class SloWindowSweep : public testing::TestWithParam<double>
{
};

TEST_P(SloWindowSweep, NoSloViolationsAtAnyWindow)
{
    BatchLaneConfig lane = baseLane();
    lane.flexible_ratio = Fraction(0.4);
    lane.slo_window_hours = Hours(GetParam());
    const SimulationResult r = simulate(lane);
    EXPECT_DOUBLE_EQ(r.slo_violation_mwh.value(), 0.0);
    EXPECT_LE(r.peak_power_mw.value(),
              lane.capacity_cap_mw.value() + 1e-9);
    EXPECT_NEAR(r.served_energy_mwh.value() + r.residual_backlog_mwh.value(),
                r.load_energy_mwh.value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, SloWindowSweep,
                         testing::Values(4.0, 8.0, 12.0, 24.0, 48.0));

} // namespace
} // namespace carbonx
