#include "differential.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "battery/clc_battery.h"
#include "carbon/operational.h"
#include "support/simulation_engine.h"

namespace carbonx::testsupport
{

BatteryChemistry
idealChemistry()
{
    BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    chem.name = "ideal";
    chem.charge_efficiency = 1.0;
    chem.discharge_efficiency = 1.0;
    chem.max_charge_c_rate = std::numeric_limits<double>::infinity();
    chem.max_discharge_c_rate = std::numeric_limits<double>::infinity();
    chem.depth_of_discharge = 1.0;
    return chem;
}

TimeSeries
laneSupply(const LaneTraces &t, const BatchLaneConfig &lane)
{
    TimeSeries supply(t.load.year());
    for (size_t h = 0; h < supply.size(); ++h) {
        supply[h] = t.solar_shape[h] * lane.solar_mw.value() +
                    t.wind_shape[h] * lane.wind_mw.value();
    }
    return supply;
}

SimulationResult
runOracle(const LaneTraces &t, const BatchLaneConfig &lane,
          obs::FlightRecorder *recorder)
{
    const SimulationEngine engine(t.load, laneSupply(t, lane));
    SimulationConfig cfg;
    cfg.capacity_cap_mw = lane.capacity_cap_mw;
    cfg.flexible_ratio = lane.flexible_ratio;
    cfg.slo_window_hours = lane.slo_window_hours;
    std::optional<ClcBattery> battery;
    if (lane.chemistry != nullptr) {
        battery.emplace(lane.battery_capacity_mwh, *lane.chemistry,
                        lane.initial_soc);
        cfg.battery = &*battery;
    }
    cfg.grid_charge_policy = lane.grid_charge_policy;
    cfg.grid_charge_threshold_gkwh = lane.grid_charge_threshold_gkwh;
    cfg.grid_intensity = t.intensity;
    cfg.recorder = recorder;
    return engine.run(cfg);
}

SimulationResult
runKernel(const LaneTraces &t, const BatchLaneConfig &lane,
          obs::FlightRecorder *recorder, BatchLaneResult *lane_result)
{
    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, t.intensity);
    SimulationBatch batch(1);
    batch.addLane(lane);
    SimulationResult result(t.load.year());
    RecordingObserver observer(result, recorder);
    engine.run(batch, observer);
    if (lane_result != nullptr)
        *lane_result = batch.result(0);
    return result;
}

namespace
{

void
expectSameSeries(const TimeSeries &a, const TimeSeries &b,
                 const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    size_t mismatches = 0;
    for (size_t h = 0; h < a.size(); ++h) {
        if (a[h] != b[h] && ++mismatches <= 3)
            ADD_FAILURE() << what << "[" << h << "]: " << a[h]
                          << " != " << b[h];
    }
    EXPECT_EQ(mismatches, 0u) << what;
}

} // namespace

void
expectSameResult(const SimulationResult &a, const SimulationResult &b)
{
    EXPECT_EQ(a.load_energy_mwh.value(), b.load_energy_mwh.value());
    EXPECT_EQ(a.served_energy_mwh.value(), b.served_energy_mwh.value());
    EXPECT_EQ(a.grid_energy_mwh.value(), b.grid_energy_mwh.value());
    EXPECT_EQ(a.renewable_used_mwh.value(), b.renewable_used_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(),
              b.renewable_excess_mwh.value());
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.max_backlog_mwh.value(), b.max_backlog_mwh.value());
    EXPECT_EQ(a.residual_backlog_mwh.value(),
              b.residual_backlog_mwh.value());
    EXPECT_EQ(a.slo_violation_mwh.value(), b.slo_violation_mwh.value());
    EXPECT_EQ(a.peak_power_mw.value(), b.peak_power_mw.value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.grid_charge_mwh.value(), b.grid_charge_mwh.value());
    EXPECT_EQ(a.coverage_pct, b.coverage_pct);
    expectSameSeries(a.served_power, b.served_power, "served_power");
    expectSameSeries(a.grid_power, b.grid_power, "grid_power");
    expectSameSeries(a.battery_soc, b.battery_soc, "battery_soc");
    expectSameSeries(a.battery_flow, b.battery_flow, "battery_flow");
}

SimulationResult
runBoth(const LaneTraces &t, const BatchLaneConfig &lane)
{
    obs::FlightRecorder oracle_rec;
    obs::FlightRecorder kernel_rec;
    const SimulationResult oracle = runOracle(t, lane, &oracle_rec);
    BatchLaneResult aggregates;
    SimulationResult kernel = runKernel(t, lane, &kernel_rec, &aggregates);
    expectSameResult(kernel, oracle);
    EXPECT_TRUE(obs::bitIdentical(kernel_rec, oracle_rec))
        << "kernel recording differs from the oracle's";
    if (t.intensity != nullptr) {
        EXPECT_EQ(aggregates.operational_kg.value(),
                  OperationalCarbonModel::gridEmissions(oracle.grid_power,
                                                        *t.intensity)
                      .value());
    }
    return kernel;
}

} // namespace carbonx::testsupport
