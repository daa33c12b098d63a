/**
 * @file
 * Differential harness: one design-point lane simulated by both the
 * scalar oracle (simulation_engine.h) and the production kernel (a
 * 1-lane batch under the recording observer), so behavioural tests
 * check the code that ships and its agreement with the oracle in the
 * same run.
 */

#ifndef CARBONX_TESTS_SUPPORT_DIFFERENTIAL_H
#define CARBONX_TESTS_SUPPORT_DIFFERENTIAL_H

#include "battery/chemistry.h"
#include "obs/recorder.h"
#include "scheduler/batched_engine.h"
#include "scheduler/simulation_batch.h"
#include "scheduler/simulation_result.h"
#include "timeseries/timeseries.h"

namespace carbonx::testsupport
{

/**
 * Lossless, full-DoD chemistry with no C-rate limit: an ideal battery
 * a BatchLaneConfig can express.
 */
BatteryChemistry idealChemistry();

/** The per-unit traces a lane's supply is built from. */
struct LaneTraces
{
    const TimeSeries &load;
    const TimeSeries &solar_shape;
    const TimeSeries &wind_shape;
    /** Grid intensity; optional unless the lane charges from the grid. */
    const TimeSeries *intensity = nullptr;
};

/** Hourly supply of @p lane, with the kernel's expression. */
TimeSeries laneSupply(const LaneTraces &t, const BatchLaneConfig &lane);

/**
 * @p lane on the scalar oracle: supply expanded by laneSupply(), a
 * ClcBattery when the lane has a chemistry, the intensity series
 * attached when given. Records into @p recorder when set.
 */
SimulationResult runOracle(const LaneTraces &t, const BatchLaneConfig &lane,
                           obs::FlightRecorder *recorder = nullptr);

/**
 * @p lane on the kernel, alone in a 1-lane batch under the recording
 * observer. Stores the lane's aggregates into @p lane_result when set.
 */
SimulationResult runKernel(const LaneTraces &t, const BatchLaneConfig &lane,
                           obs::FlightRecorder *recorder = nullptr,
                           BatchLaneResult *lane_result = nullptr);

/** Expect @p a and @p b bit-identical: aggregates and hourly series. */
void expectSameResult(const SimulationResult &a, const SimulationResult &b);

/**
 * Simulate @p lane on both engines, expect their results, recordings
 * and operational carbon bit-identical, and return the kernel's
 * result for the caller's own assertions.
 */
SimulationResult runBoth(const LaneTraces &t, const BatchLaneConfig &lane);

} // namespace carbonx::testsupport

#endif // CARBONX_TESTS_SUPPORT_DIFFERENTIAL_H
