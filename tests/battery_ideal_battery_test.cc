/**
 * @file
 * Tests of the ideal (lossless) battery baseline.
 */

#include <gtest/gtest.h>

#include "support/ideal_battery.h"
#include "common/error.h"

namespace carbonx
{
namespace
{

using namespace literals;

TEST(IdealBattery, PerfectRoundTrip)
{
    IdealBattery b(100.0_MWh);
    const MegaWatts in = b.charge(40.0_MW, 1.0_h);
    const MegaWatts out = b.discharge(100.0_MW, 1.0_h);
    EXPECT_DOUBLE_EQ(in.value(), 40.0);
    EXPECT_DOUBLE_EQ(out.value(), 40.0);
    EXPECT_DOUBLE_EQ(b.energyContentMwh().value(), 0.0);
}

TEST(IdealBattery, NoPowerLimit)
{
    IdealBattery b(100.0_MWh);
    // An ideal battery fills in a single minute if offered the power.
    EXPECT_DOUBLE_EQ(b.charge(6000.0_MW, Hours(1.0 / 60.0)).value(),
                     6000.0);
    EXPECT_DOUBLE_EQ(b.energyContentMwh().value(), 100.0);
}

TEST(IdealBattery, CapacityStillBinds)
{
    IdealBattery b(50.0_MWh);
    EXPECT_DOUBLE_EQ(b.charge(80.0_MW, 1.0_h).value(), 50.0);
    EXPECT_DOUBLE_EQ(b.discharge(80.0_MW, 1.0_h).value(), 50.0);
}

TEST(IdealBattery, StateOfChargeAndCycles)
{
    IdealBattery b(10.0_MWh);
    b.charge(5.0_MW, 1.0_h);
    EXPECT_DOUBLE_EQ(b.stateOfCharge().value(), 0.5);
    b.discharge(5.0_MW, 1.0_h);
    b.charge(10.0_MW, 1.0_h);
    b.discharge(10.0_MW, 1.0_h);
    EXPECT_DOUBLE_EQ(b.fullEquivalentCycles(), 1.5);
}

TEST(IdealBattery, ResetClearsEverything)
{
    IdealBattery b(10.0_MWh);
    b.charge(10.0_MW, 1.0_h);
    b.reset();
    EXPECT_DOUBLE_EQ(b.energyContentMwh().value(), 0.0);
    EXPECT_DOUBLE_EQ(b.totalChargedMwh().value(), 0.0);
    EXPECT_DOUBLE_EQ(b.totalDischargedMwh().value(), 0.0);
}

TEST(IdealBattery, RejectsInvalidArguments)
{
    EXPECT_THROW(IdealBattery(MegaWattHours(-1.0)), UserError);
    IdealBattery b(10.0_MWh);
    EXPECT_THROW(b.charge(MegaWatts(-1.0), 1.0_h), UserError);
    EXPECT_THROW(b.discharge(1.0_MW, 0.0_h), UserError);
}

TEST(IdealBattery, OutperformsClcEverywhere)
{
    // Sanity of the baseline role: the ideal battery delivers at
    // least as much as any physical model for the same actions.
    IdealBattery ideal(100.0_MWh);
    // (Deliberately minimal: more thorough comparisons live in the
    // battery property test.)
    const MegaWatts accepted = ideal.charge(100.0_MW, 1.0_h);
    const MegaWatts delivered = ideal.discharge(100.0_MW, 1.0_h);
    EXPECT_DOUBLE_EQ(accepted.value(), delivered.value());
}

} // namespace
} // namespace carbonx
