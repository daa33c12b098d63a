/**
 * @file
 * The scalar reference engine: the test oracle of the batched
 * simulation kernel (scheduler/batched_engine.h).
 *
 * SimulationEngine is a plain, one-design-point-at-a-time transcript
 * of the paper's combined heuristic (section 5.2):
 *
 *   "Whenever there is lack of renewable supply, the energy stored in
 *    the battery is used first and workload shifting happens only if
 *    the energy stored in the batteries are not sufficient. Whenever
 *    there is extra renewable supply, all available workloads are
 *    executed to use the available power first and batteries are
 *    charged with the remaining supply."
 *
 * It drives any BatteryModel through the virtual interface and reads
 * the supply from an expanded series, with no batching, no
 * pre-derived battery parameters and no observer machinery, which is
 * what makes it a useful independent check: the differential tests
 * require the kernel to reproduce it bit for bit. It is test-support
 * code only; every production caller runs the kernel.
 */

#ifndef CARBONX_TESTS_SUPPORT_SIMULATION_ENGINE_H
#define CARBONX_TESTS_SUPPORT_SIMULATION_ENGINE_H

#include "battery/battery_model.h"
#include "common/units.h"
#include "scheduler/simulation_result.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

namespace obs
{
class FlightRecorder;
} // namespace obs

/** Knobs of one co-simulation run. */
struct SimulationConfig
{
    /**
     * Datacenter power capacity P_DC_MAX, including any extra
     * servers provisioned for demand response. Must be at least the
     * load series peak.
     */
    MegaWatts capacity_cap_mw{0.0};

    /** Flexible workload ratio; 0 disables carbon-aware deferral. */
    Fraction flexible_ratio{0.0};

    /** Deferred work must complete within this window. */
    Hours slo_window_hours{24.0};

    /**
     * Battery attached to the datacenter; may be null for the
     * renewables-only and CAS-only strategies. Non-owning — caller
     * keeps it alive; the engine resets it at the start of a run.
     */
    BatteryModel *battery = nullptr;

    /** Grid-charging policy; Never reproduces the paper. */
    GridChargePolicy grid_charge_policy = GridChargePolicy::Never;

    /** Intensity threshold for BelowIntensityThreshold. */
    GramsPerKwh grid_charge_threshold_gkwh{0.0};

    /**
     * Hourly grid carbon intensity (g/kWh); required when the
     * grid-charging policy is not Never. Non-owning.
     */
    const TimeSeries *grid_intensity = nullptr;

    /**
     * Optional flight recorder the engine streams the full hourly
     * state into (see obs/recorder.h). Null disables recording at the
     * cost of one pointer check per hour — the engine's arithmetic
     * and outputs are bit-identical either way. Non-owning; the
     * engine begin()s it, so a recorder may be reused across runs.
     * When set alongside a grid_intensity series the carbon column is
     * filled with the per-hour grid emissions.
     */
    obs::FlightRecorder *recorder = nullptr;
};

/**
 * The co-simulation engine. Construct once per (load, supply) pair
 * and run many configurations against it.
 */
class SimulationEngine
{
  public:
    /**
     * @param dc_power Hourly datacenter demand (MW).
     * @param renewable Hourly renewable supply (MW).
     */
    SimulationEngine(const TimeSeries &dc_power,
                     const TimeSeries &renewable);

    /** Simulate one year under @p config. */
    SimulationResult run(const SimulationConfig &config) const;

    /**
     * Allocation-free variant for hot sweep loops: writes into a
     * caller-owned @p result (reset internally) and reuses @p scratch
     * for the deferral queue. Produces bit-identical numbers to the
     * allocating overload.
     */
    void run(const SimulationConfig &config, SimulationResult &result,
             SimulationScratch &scratch) const;

    /**
     * Renewable coverage with no battery and no scheduling — the
     * closed-form metric of section 4.1.
     */
    double renewableOnlyCoverage() const;

    const TimeSeries &dcPower() const { return dc_power_; }
    const TimeSeries &renewable() const { return renewable_; }

  private:
    /** Shared body; expects @p result and @p scratch already reset. */
    void runImpl(const SimulationConfig &config,
                 SimulationResult &result,
                 SimulationScratch &scratch) const;

    TimeSeries dc_power_;
    TimeSeries renewable_;
};

} // namespace carbonx

#endif // CARBONX_TESTS_SUPPORT_SIMULATION_ENGINE_H
