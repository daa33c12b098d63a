/**
 * @file
 * The simulation kernel: one pass over the hourly trace advances
 * every lane of a SimulationBatch together. It is the only
 * implementation of the paper's combined heuristic (section 5.2):
 *
 *   "Whenever there is lack of renewable supply, the energy stored in
 *    the battery is used first and workload shifting happens only if
 *    the energy stored in the batteries are not sufficient. Whenever
 *    there is extra renewable supply, all available workloads are
 *    executed to use the available power first and batteries are
 *    charged with the remaining supply."
 *
 * The same kernel covers all four strategies of the evaluation:
 * renewables only (no battery, FWR = 0), renewables + battery,
 * renewables + CAS, and renewables + battery + CAS. Sweeps run it on
 * 64-lane waves; single design points (CarbonExplorer::evaluate,
 * simulate, explain and the sizing bisections) run it on 1-lane
 * batches. Its hourly loop is two stages:
 *
 *  1. A branch-free lane loop computing per-lane renewable supply and
 *     the fixed/flexible load split into contiguous staging arrays —
 *     the auto-vectorizable part (each lane is independent, so SIMD
 *     lanes never mix operands across design points).
 *  2. A per-lane scheduling/battery step: the heuristic itself, with
 *     the C/L/C battery stepped by battery/clc_step.h on the batch's
 *     SoA state.
 *
 * Observers: run() takes a compile-time per-hour observer. The plain
 * run(batch) uses NoObserver, whose empty hooks compile away, so the
 * sweep pays nothing for the hook. RecordingObserver fills a
 * SimulationResult's hourly series and, optionally, an
 * obs::FlightRecorder with one row per hour of a 1-lane batch — the
 * detail `carbonx explain` and the invariant auditor read.
 *
 * Reference: tests/support/simulation_engine.h keeps a plain scalar
 * transcript of the heuristic as a test oracle; the differential
 * tests in tests/scheduler_batched_engine_test.cc require the kernel
 * (aggregates, operational carbon, hourly series and recordings) to
 * reproduce it bit for bit. DESIGN.md explains why the layout
 * preserves that exactly.
 */

#ifndef CARBONX_SCHEDULER_BATCHED_ENGINE_H
#define CARBONX_SCHEDULER_BATCHED_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "scheduler/simulation_batch.h"
#include "scheduler/simulation_result.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

namespace obs
{
class FlightRecorder;
} // namespace obs

/**
 * End-of-hour state of one lane, as the kernel hands it to its
 * observer. Powers are MW over the one-hour step, energies MWh.
 */
struct LaneHour
{
    double load = 0.0;           ///< Original demand.
    double renewable = 0.0;      ///< Lane renewable supply.
    double served = 0.0;         ///< Power actually consumed.
    double renewable_used = 0.0; ///< Renewable supply consumed.
    double grid = 0.0;           ///< Grid draw, grid charging included.
    double battery_in = 0.0;     ///< AC charge, grid charging included.
    double battery_out = 0.0;    ///< AC discharge.
    double grid_charge = 0.0;    ///< AC charge drawn from the grid.
    double intensity = 0.0;      ///< Grid intensity (0 without series).
    double battery_content = 0.0;  ///< Stored energy at hour end.
    double battery_capacity = 0.0; ///< Nameplate (0 without battery).
    double backlog = 0.0;          ///< Deferred-work backlog.
    double deferred_total = 0.0;   ///< Energy deferred so far this run.
    double violation_total = 0.0;  ///< SLO overflow so far this run.
};

/** The observer of sweeps: every hook is empty and compiles away. */
struct NoObserver
{
    void begin(const SimulationBatch &, int, size_t, bool) {}
    void hour(size_t, size_t, const LaneHour &) {}
    void end(const SimulationBatch &) {}
};

/**
 * Records a 1-lane batch: fills @p result (hourly series and
 * aggregates) and, when @p recorder is set, one obs::HourlyRecord per
 * hour — the carbon column only when the engine has an intensity
 * series. Both are reset at the start of every run, so an observer
 * may be reused across runs.
 */
class RecordingObserver
{
  public:
    explicit RecordingObserver(SimulationResult &result,
                               obs::FlightRecorder *recorder = nullptr)
        : result_(result), recorder_(recorder)
    {
    }

    void begin(const SimulationBatch &batch, int year, size_t hours,
               bool with_carbon);
    void hour(size_t lane, size_t h, const LaneHour &x);
    void end(const SimulationBatch &batch);

  private:
    SimulationResult &result_;
    obs::FlightRecorder *recorder_;
    bool with_carbon_ = false;
    // Previous-hour totals, turned into per-hour recorded deltas.
    double prev_deferred_ = 0.0;
    double prev_violation_ = 0.0;
};

/**
 * Construct once per (load, shapes, intensity) trace set and run many
 * batches against it. All series are borrowed and must outlive the
 * engine. Thread-safe: run() only mutates the batch it is handed, so
 * parallel sweep workers share one engine with per-worker batches.
 */
class BatchedSimulationEngine
{
  public:
    /**
     * @param dc_power Hourly datacenter demand (MW).
     * @param solar_shape Per-unit solar shape (lane supply is
     *        shape * nameplate, evaluated inline per hour).
     * @param wind_shape Per-unit wind shape.
     * @param grid_intensity Optional hourly grid intensity (g/kWh);
     *        enables the per-lane operational-carbon accumulator and
     *        grid-charging policies.
     */
    BatchedSimulationEngine(const TimeSeries &dc_power,
                            const TimeSeries &solar_shape,
                            const TimeSeries &wind_shape,
                            const TimeSeries *grid_intensity = nullptr);

    /**
     * Simulate one year for every lane of @p batch, filling each
     * lane's BatchLaneResult. Resets all lane run state first, so a
     * batch may be re-run or refilled (clear + addLane) freely; after
     * the first run of a given working set, run() performs no heap
     * allocation.
     */
    void run(SimulationBatch &batch) const;

    /**
     * run() with @p observer called at every lane-hour. Instantiated
     * for NoObserver and RecordingObserver only.
     */
    template <class Observer>
    void run(SimulationBatch &batch, Observer &observer) const;

    /**
     * The result of a fixed one-week canary lane built in code, which
     * exercises the battery, carbon-aware deferral, SLO overflow and
     * grid charging. Runs the kernel without touching the metrics.
     */
    static BatchLaneResult canaryResult();

    /**
     * FNV-1a hash of canaryResult()'s bits, computed once per
     * process. Any change to the kernel's arithmetic changes it, so
     * the persistent result cache stores it and rebuilds when it
     * differs.
     */
    static uint64_t kernelFingerprint();

  private:
    BatchedSimulationEngine(int year, std::span<const double> dc_power,
                            std::span<const double> solar_shape,
                            std::span<const double> wind_shape,
                            const double *grid_intensity);

    /** Battery step calls of one run, for the metrics. */
    struct StepCalls
    {
        uint64_t charge = 0;
        uint64_t discharge = 0;
    };

    /** The kernel proper: run() minus spans and metrics. */
    template <class Observer>
    StepCalls simulate(SimulationBatch &batch, Observer &observer) const;

    int year_;
    std::span<const double> dc_power_;
    std::span<const double> solar_shape_;
    std::span<const double> wind_shape_;
    const double *grid_intensity_;
    double peak_mw_;
};

} // namespace carbonx

#endif // CARBONX_SCHEDULER_BATCHED_ENGINE_H
