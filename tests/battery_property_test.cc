/**
 * @file
 * Property-based tests of the battery models: under arbitrary random
 * action sequences, physical invariants must hold for every model and
 * chemistry.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "battery/clc_battery.h"
#include "support/ideal_battery.h"
#include "common/rng.h"

namespace carbonx
{
namespace
{

/** Factory spec for a parameterized battery under test. */
struct BatteryCase
{
    std::string name;
    double capacity_mwh;
    std::function<std::unique_ptr<BatteryModel>(double)> make;
};

BatteryCase
clcCase(const std::string &name, BatteryChemistry chem, double cap)
{
    return BatteryCase{
        name, cap,
        [chem](double c) {
            return std::make_unique<ClcBattery>(MegaWattHours(c), chem);
        }};
}

std::vector<BatteryCase>
allCases()
{
    std::vector<BatteryCase> cases;
    cases.push_back(clcCase(
        "LFP", BatteryChemistry::lithiumIronPhosphate(), 120.0));
    cases.push_back(clcCase(
        "NMC", BatteryChemistry::nickelManganeseCobalt(), 80.0));
    cases.push_back(clcCase("NaIon", BatteryChemistry::sodiumIon(),
                            40.0));
    BatteryChemistry dod80 = BatteryChemistry::lithiumIronPhosphate();
    dod80.depth_of_discharge = 0.8;
    cases.push_back(clcCase("LFPDoD80", dod80, 120.0));
    cases.push_back(BatteryCase{
        "Ideal", 60.0,
        [](double c) {
            return std::make_unique<IdealBattery>(MegaWattHours(c));
        }});
    return cases;
}

class BatteryPropertyTest
    : public testing::TestWithParam<std::tuple<size_t, uint64_t>>
{
  protected:
    const BatteryCase &batteryCase() const
    {
        static const std::vector<BatteryCase> cases = allCases();
        return cases[std::get<0>(GetParam())];
    }

    uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(BatteryPropertyTest, InvariantsUnderRandomActions)
{
    const BatteryCase &bc = batteryCase();
    auto battery = bc.make(bc.capacity_mwh);
    Rng rng(seed(), bc.name);

    double accepted_total = 0.0;
    double delivered_total = 0.0;
    const double initial_content = battery->energyContentMwh().value();

    for (int step = 0; step < 2000; ++step) {
        const double dt = rng.uniform(0.1, 2.0);
        const double power = rng.uniform(0.0, 3.0 * bc.capacity_mwh);
        double moved = 0.0;
        if (rng.bernoulli(0.5)) {
            moved = battery->charge(MegaWatts(power), Hours(dt)).value();
            EXPECT_LE(moved, power + 1e-9);
            accepted_total += moved * dt;
        } else {
            moved = battery->discharge(MegaWatts(power), Hours(dt)).value();
            EXPECT_LE(moved, power + 1e-9);
            delivered_total += moved * dt;
        }
        EXPECT_GE(moved, 0.0);

        // Content stays inside [0, capacity] at all times.
        const double content = battery->energyContentMwh().value();
        EXPECT_GE(content, -1e-9);
        EXPECT_LE(content, bc.capacity_mwh + 1e-9);

        // SoC is consistent with content.
        EXPECT_NEAR(battery->stateOfCharge().value(),
                    content / bc.capacity_mwh, 1e-9);
    }

    // Throughput counters match what the loop observed.
    EXPECT_NEAR(battery->totalChargedMwh().value(), accepted_total,
                1e-6);
    EXPECT_NEAR(battery->totalDischargedMwh().value(),
                delivered_total, 1e-6);

    // Energy conservation: you can never extract more than you put in
    // plus what was initially stored (efficiency only loses energy).
    EXPECT_LE(delivered_total,
              accepted_total + initial_content + 1e-6);

    // Reset restores the initial state exactly.
    battery->reset();
    EXPECT_NEAR(battery->energyContentMwh().value(), initial_content,
                1e-12);
    EXPECT_DOUBLE_EQ(battery->totalChargedMwh().value(), 0.0);
}

TEST_P(BatteryPropertyTest, IdenticalSequencesAreDeterministic)
{
    const BatteryCase &bc = batteryCase();
    auto a = bc.make(bc.capacity_mwh);
    auto b = bc.make(bc.capacity_mwh);
    Rng rng_a(seed());
    Rng rng_b(seed());
    for (int step = 0; step < 300; ++step) {
        const double p_a = rng_a.uniform(0.0, bc.capacity_mwh);
        const double p_b = rng_b.uniform(0.0, bc.capacity_mwh);
        ASSERT_DOUBLE_EQ(p_a, p_b);
        if (step % 2 == 0)
            EXPECT_DOUBLE_EQ(
                a->charge(MegaWatts(p_a), Hours(1.0)).value(),
                b->charge(MegaWatts(p_b), Hours(1.0)).value());
        else
            EXPECT_DOUBLE_EQ(
                a->discharge(MegaWatts(p_a), Hours(1.0)).value(),
                b->discharge(MegaWatts(p_b), Hours(1.0)).value());
    }
    EXPECT_DOUBLE_EQ(a->energyContentMwh().value(),
                     b->energyContentMwh().value());
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, BatteryPropertyTest,
    testing::Combine(testing::Range<size_t>(0, 5),
                     testing::Values(1u, 17u, 4242u)),
    [](const testing::TestParamInfo<std::tuple<size_t, uint64_t>> &info) {
        static const std::vector<BatteryCase> cases = allCases();
        return cases[std::get<0>(info.param)].name + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

TEST(BatteryComparison, IdealDominatesClcOnTheSameSchedule)
{
    // For the same offered/requested schedule, the lossless unbounded
    // model always moves at least as much energy as the C/L/C model.
    ClcBattery clc(MegaWattHours(50.0),
                   BatteryChemistry::lithiumIronPhosphate());
    IdealBattery ideal(MegaWattHours(50.0));
    Rng rng(77);
    double clc_out = 0.0;
    double ideal_out = 0.0;
    for (int step = 0; step < 1000; ++step) {
        const double p = rng.uniform(0.0, 120.0);
        if (rng.bernoulli(0.5)) {
            clc.charge(MegaWatts(p), Hours(1.0));
            ideal.charge(MegaWatts(p), Hours(1.0));
        } else {
            clc_out += clc.discharge(MegaWatts(p), Hours(1.0)).value();
            ideal_out +=
                ideal.discharge(MegaWatts(p), Hours(1.0)).value();
        }
    }
    EXPECT_GE(ideal_out, clc_out);
}

} // namespace
} // namespace carbonx
