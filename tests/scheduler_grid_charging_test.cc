/**
 * @file
 * Tests of the grid-charging (carbon arbitrage) extension of the
 * co-simulation. Every case runs on the kernel (a 1-lane batch) and on
 * the scalar oracle, which must agree bit for bit; the assertions
 * check the kernel's result.
 */

#include <gtest/gtest.h>

#include "battery/chemistry.h"
#include "carbon/operational.h"
#include "common/error.h"
#include "support/differential.h"

namespace carbonx
{
namespace
{

using testsupport::LaneTraces;
using testsupport::runBoth;
using testsupport::runKernel;
using testsupport::runOracle;

constexpr int kYear = 2021;

TimeSeries
flatLoad(double mw = 10.0)
{
    return TimeSeries(kYear, mw);
}

/** Intensity: clean (100) during the day, dirty (700) at night. */
TimeSeries
dayNightIntensity()
{
    TimeSeries ts(kYear, 700.0);
    for (size_t h = 0; h < ts.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            ts[h] = 100.0;
    }
    return ts;
}

const BatteryChemistry &
ideal()
{
    static const BatteryChemistry chem = testsupport::idealChemistry();
    return chem;
}

/** No renewables at all, a 20 MW cap and a battery of @p mwh. */
BatchLaneConfig
batteryLane(const BatteryChemistry &chem, double mwh)
{
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(20.0);
    lane.chemistry = &chem;
    lane.battery_capacity_mwh = MegaWattHours(mwh);
    return lane;
}

BatchLaneConfig
arbitrage(BatchLaneConfig lane, double threshold)
{
    lane.grid_charge_policy = GridChargePolicy::BelowIntensityThreshold;
    lane.grid_charge_threshold_gkwh = GramsPerKwh(threshold);
    return lane;
}

/** Both engines on a flat 10 MW load with zero renewable supply. */
struct NoRenewables
{
    TimeSeries load = flatLoad();
    TimeSeries zero{kYear};
    TimeSeries intensity = dayNightIntensity();

    SimulationResult run(const BatchLaneConfig &lane) const
    {
        return runBoth(LaneTraces{load, zero, zero, &intensity}, lane);
    }
};

TEST(GridCharging, NeverPolicyDrawsNoChargeEnergy)
{
    const NoRenewables world;
    const SimulationResult r = world.run(batteryLane(ideal(), 100.0));
    EXPECT_DOUBLE_EQ(r.grid_charge_mwh.value(), 0.0);
}

TEST(GridCharging, ThresholdPolicyChargesOnCleanHours)
{
    // No renewables at all: only grid-charging can move energy.
    const NoRenewables world;
    const SimulationResult r =
        world.run(arbitrage(batteryLane(ideal(), 50.0), 200.0));
    EXPECT_GT(r.grid_charge_mwh.value(), 0.0);
    EXPECT_GT(r.battery_cycles, 100.0); // Cycles most days.
}

TEST(GridCharging, ArbitrageReducesOperationalCarbon)
{
    // Even with zero renewables, storing clean daytime grid energy
    // and discharging it at night must cut total emissions despite
    // round-trip losses.
    const NoRenewables world;
    BatchLaneConfig plain;
    plain.capacity_cap_mw = MegaWatts(20.0);
    const SimulationResult base = world.run(plain);

    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const SimulationResult with_arb =
        world.run(arbitrage(batteryLane(lfp, 120.0), 200.0));

    const double base_kg =
        OperationalCarbonModel::gridEmissions(base.grid_power,
                                              world.intensity)
            .value();
    const double arb_kg =
        OperationalCarbonModel::gridEmissions(with_arb.grid_power,
                                              world.intensity)
            .value();
    EXPECT_LT(arb_kg, base_kg);

    // But total grid energy goes up (losses + stored energy).
    EXPECT_GT(with_arb.grid_energy_mwh.value(), base.grid_energy_mwh.value());
}

TEST(GridCharging, ChargeEnergyCountsAsGridDraw)
{
    const NoRenewables world;
    const SimulationResult r =
        world.run(arbitrage(batteryLane(ideal(), 50.0), 200.0));
    // The charge energy is drawn from the grid, and with a lossless
    // battery every stored MWh later displaces a grid MWh, so the
    // total grid energy equals the load exactly — but the draw has
    // moved into the clean hours.
    EXPECT_GT(r.grid_charge_mwh.value(), 0.0);
    EXPECT_NEAR(r.grid_energy_mwh.value(), r.load_energy_mwh.value(), 1e-6);
    // At least the charged energy was billed during clean hours.
    double clean_grid_mwh = 0.0;
    for (size_t h = 0; h < r.grid_power.size(); ++h) {
        if (world.intensity[h] <= 200.0)
            clean_grid_mwh += r.grid_power[h];
    }
    EXPECT_GE(clean_grid_mwh + 1e-6, r.grid_charge_mwh.value());
}

TEST(GridCharging, HighThresholdChargesMoreThanLowThreshold)
{
    const NoRenewables world;
    auto chargeAt = [&](double threshold) {
        return world.run(arbitrage(batteryLane(ideal(), 50.0), threshold))
            .grid_charge_mwh.value();
    };
    EXPECT_DOUBLE_EQ(chargeAt(50.0), 0.0);   // Nothing qualifies.
    EXPECT_GT(chargeAt(800.0), chargeAt(200.0) - 1e-9);
    EXPECT_GT(chargeAt(200.0), 0.0);
}

TEST(GridCharging, RequiresIntensitySeries)
{
    const TimeSeries load = flatLoad();
    const TimeSeries zero(kYear);
    const BatchLaneConfig lane = arbitrage(batteryLane(ideal(), 50.0), 0.0);
    const LaneTraces no_intensity{load, zero, zero};
    EXPECT_THROW(runOracle(no_intensity, lane), UserError);
    EXPECT_THROW(runKernel(no_intensity, lane), UserError);

    const TimeSeries wrong_year(2020, 100.0);
    const LaneTraces mismatched{load, zero, zero, &wrong_year};
    EXPECT_THROW(runOracle(mismatched, lane), UserError);
    EXPECT_THROW(runKernel(mismatched, lane), UserError);
}

} // namespace
} // namespace carbonx
