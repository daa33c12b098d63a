/**
 * @file
 * Types shared by the simulation kernel and its callers: the
 * grid-charging policy knob, the full hour-by-hour outcome of one
 * simulated year, and the reusable deferred-work queue.
 */

#ifndef CARBONX_SCHEDULER_SIMULATION_RESULT_H
#define CARBONX_SCHEDULER_SIMULATION_RESULT_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/units.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

/**
 * When the battery may charge from the grid rather than only from
 * surplus renewables (an extension beyond the paper's renewable-only
 * charging): Never reproduces the paper; BelowIntensityThreshold
 * charges from the grid whenever its carbon intensity is at or below
 * a threshold, enabling carbon arbitrage (store clean-ish grid energy,
 * displace dirty hours).
 */
enum class GridChargePolicy
{
    Never,
    BelowIntensityThreshold,
};

/** Aggregated outcome of a simulated year, with its hourly series. */
struct SimulationResult
{
    TimeSeries served_power;   ///< Power actually consumed per hour (MW).
    TimeSeries grid_power;     ///< Carbon-intensive grid draw (MW).
    TimeSeries battery_soc;    ///< State of charge at hour end.
    TimeSeries battery_flow;   ///< +MW charging, -MW discharging.

    MegaWattHours load_energy_mwh;      ///< Original demand energy.
    MegaWattHours served_energy_mwh;    ///< Energy actually served.
    MegaWattHours grid_energy_mwh;      ///< Energy drawn from the grid.
    MegaWattHours renewable_used_mwh;   ///< Renewable energy consumed.
    MegaWattHours renewable_excess_mwh; ///< Renewable supply left unused.
    MegaWattHours deferred_mwh;         ///< Total energy ever deferred.
    MegaWattHours max_backlog_mwh;      ///< Peak deferred-work backlog.
    MegaWattHours residual_backlog_mwh; ///< Backlog left at year end.
    MegaWattHours slo_violation_mwh;    ///< Deadline work beyond the cap.
    MegaWatts peak_power_mw;            ///< Max served power.
    double battery_cycles = 0.0;        ///< Full-equivalent cycles used.
    /** Grid energy used to charge the battery (arbitrage extension). */
    MegaWattHours grid_charge_mwh;

    /**
     * Renewable coverage percentage (section 4.1): share of demand
     * energy not supplied by the carbon-intensive grid.
     */
    double coverage_pct = 0.0;

    explicit SimulationResult(int year)
        : served_power(year), grid_power(year), battery_soc(year),
          battery_flow(year)
    {
    }

    /**
     * Return the result to its freshly constructed state for @p year,
     * reusing the series storage when the year matches, so one result
     * object can be recycled across many runs.
     */
    void resetFor(int year);
};

/**
 * Reusable deferred-work queue of one simulated lane. A plain vector
 * with a head index stands in for std::deque: popFront is an index
 * bump, pushFront reuses the popped prefix (growing a fresh gap in
 * one amortized-O(1) move when none is left), and clear() keeps the
 * capacity, so a lane that owns one scratch does no queue allocation
 * after its first simulated year.
 */
struct SimulationScratch
{
    /** One chunk of deferred work with its completion deadline. */
    struct Entry
    {
        size_t deadline_hour;
        MegaWattHours mwh;
    };

    std::vector<Entry> entries;
    size_t head = 0;

    void clear()
    {
        entries.clear();
        head = 0;
    }
    bool empty() const { return head == entries.size(); }
    Entry &front() { return entries[head]; }
    const Entry &front() const { return entries[head]; }
    void popFront()
    {
        if (++head == entries.size())
            clear();
    }
    void pushBack(const Entry &e) { entries.push_back(e); }
    void pushFront(const Entry &e)
    {
        if (head == 0) {
            // Out of front headroom: open a gap proportional to the
            // queue length in one move, so a worst-case sequence of
            // front pushes stays amortized O(1) instead of shifting
            // the whole queue on every push.
            const size_t grow = std::max<size_t>(entries.size(), 4);
            entries.insert(entries.begin(), grow, Entry{});
            head = grow;
        }
        entries[--head] = e;
    }
};

} // namespace carbonx

#endif // CARBONX_SCHEDULER_SIMULATION_RESULT_H
