#include "simulation_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/tolerances.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace carbonx
{

SimulationEngine::SimulationEngine(const TimeSeries &dc_power,
                                   const TimeSeries &renewable)
    : dc_power_(dc_power), renewable_(renewable)
{
    require(dc_power.year() == renewable.year(),
            "load and supply series must cover the same year");
    require(dc_power.min() >= 0.0, "datacenter power must be >= 0");
    require(renewable.min() >= 0.0, "renewable supply must be >= 0");
}

double
SimulationEngine::renewableOnlyCoverage() const
{
    double unmet = 0.0;
    double total = 0.0;
    for (size_t h = 0; h < dc_power_.size(); ++h) {
        unmet += std::max(dc_power_[h] - renewable_[h], 0.0);
        total += dc_power_[h];
    }
    return total > 0.0 ? (1.0 - unmet / total) * 100.0 : 100.0;
}

SimulationResult
SimulationEngine::run(const SimulationConfig &config) const
{
    // Freshly constructed result/scratch are already zeroed; skip the
    // resetFor() pass the reusing overload needs.
    SimulationResult result(dc_power_.year());
    SimulationScratch scratch;
    runImpl(config, result, scratch);
    return result;
}

void
SimulationEngine::run(const SimulationConfig &config,
                      SimulationResult &result,
                      SimulationScratch &scratch) const
{
    result.resetFor(dc_power_.year());
    runImpl(config, result, scratch);
}

void
SimulationEngine::runImpl(const SimulationConfig &config,
                          SimulationResult &result,
                          SimulationScratch &scratch) const
{
    CARBONX_SPAN("sim/run");
    CARBONX_PROFILE("sim/run");
    static auto &c_runs = obs::counter("sim.runs");
    static auto &c_hours = obs::counter("sim.hours_simulated");
    static auto &h_run = obs::latency("sim.run_us");
    const obs::LatencyTimer run_timer(h_run);

    require(config.capacity_cap_mw.value() >=
                dc_power_.max() - kCapacityCapSlackMw,
            "capacity cap below the load peak");
    require(config.flexible_ratio.value() >= 0.0 &&
                config.flexible_ratio.value() <= 1.0,
            "flexible ratio must be in [0, 1]");
    require(config.slo_window_hours.value() >= 1.0,
            "SLO window must be at least one hour");

    // The hourly loop below runs on raw doubles unwrapped once here:
    // the unit types are a single double, so this is free, and the
    // arithmetic stays bit-identical to the pre-units engine.
    const size_t n = dc_power_.size();
    const double cap = config.capacity_cap_mw.value();
    const double fwr = config.flexible_ratio.value();
    const auto window =
        static_cast<size_t>(config.slo_window_hours.value());
    const double dt = 1.0; // Hourly steps.
    const Hours dt_h(dt);

    const bool grid_charging =
        config.grid_charge_policy ==
        GridChargePolicy::BelowIntensityThreshold;
    if (grid_charging) {
        require(config.grid_intensity != nullptr,
                "grid-charging policy requires an intensity series");
        require(config.grid_intensity->year() == dc_power_.year(),
                "intensity series must cover the simulated year");
        require(config.grid_charge_threshold_gkwh.value() >= 0.0,
                "grid-charge threshold must be >= 0");
    }

    BatteryModel *battery = config.battery;
    if (battery != nullptr)
        battery->reset();

    // Flight recording is strictly opt-in: with rec == nullptr the
    // hourly loop pays one pointer check and nothing else, keeping
    // the sweep's numbers and throughput untouched.
    obs::FlightRecorder *const rec = config.recorder;
    const bool record_carbon = config.grid_intensity != nullptr;
    if (rec != nullptr) {
        if (record_carbon)
            require(config.grid_intensity->year() == dc_power_.year(),
                    "intensity series must cover the simulated year");
        rec->begin(dc_power_.year(), n, record_carbon);
    }
    // Previous-hour snapshots of the two monotone accumulators, used
    // to derive per-hour deltas for the recording; untouched (two
    // dead stack doubles) when recording is off.
    double prev_deferred = 0.0;
    double prev_violation = 0.0;

    SimulationScratch &backlog = scratch;
    backlog.clear();
    // carbonx-lint: allow(raw-unit-double) hot-loop accumulator
    double backlog_mwh = 0.0;

    // The battery-stepping portion of the hourly loop gets its own
    // nested span so traces attribute storage cost separately.
    CARBONX_SPAN("sim/hourly_loop");
    CARBONX_SPAN("battery/clc_step_loop", battery != nullptr);

    for (size_t h = 0; h < n; ++h) {
        const double load = dc_power_[h];
        const double ren = renewable_[h];
        const double fixed = load * (1.0 - fwr);
        const double flex = load * fwr;

        // Deadline-forced backlog must run now.
        double forced = 0.0;
        while (!backlog.empty() && backlog.front().deadline_hour <= h) {
            forced += backlog.front().mwh.value();
            backlog_mwh -= backlog.front().mwh.value();
            backlog.popFront();
        }

        // Mandatory work: inflexible load plus deadline-forced
        // backlog, truncated at the physical capacity cap. Truncated
        // deadline work is an SLO violation; it still runs, one cap-
        // sized slice per hour, until drained.
        double mandatory = fixed + forced;
        if (mandatory > cap) {
            const double overflow = mandatory - cap;
            result.slo_violation_mwh += MegaWattHours(overflow * dt);
            backlog.pushFront({h + 1, MegaWattHours(overflow)});
            backlog_mwh += overflow;
            mandatory = cap;
        }

        double served = mandatory;
        double battery_out = 0.0;
        double battery_in = 0.0;

        if (ren >= served) {
            // Surplus relative to mandatory work. Run everything
            // available — current flexible work first, then backlog —
            // on renewable power within the capacity cap, and charge
            // the battery with what remains (section 5.2).
            double surplus = ren - served;

            const double flex_green =
                std::min({flex, surplus, cap - served});
            served += flex_green;
            surplus -= flex_green;

            // Flexible work that surplus could not cover competes for
            // the battery like any other deficit (below). Compute the
            // still-unserved flexible remainder first.
            double flex_rest = flex - flex_green;

            // Drain backlog, oldest first, on leftover surplus.
            while (surplus > 1e-12 && served < cap && !backlog.empty()) {
                auto &entry = backlog.front();
                const double run = std::min(
                    {entry.mwh.value() / dt, surplus, cap - served});
                if (run <= 1e-12)
                    break;
                entry.mwh -= MegaWattHours(run * dt);
                backlog_mwh -= run * dt;
                served += run;
                surplus -= run;
                if (entry.mwh.value() <= 1e-12)
                    backlog.popFront();
            }

            if (flex_rest > 0.0) {
                // No surplus left for this flexible remainder: battery
                // first, defer only what storage cannot cover. Work
                // that does not fit under the capacity cap must defer
                // regardless.
                const double fits = std::min(flex_rest, cap - served);
                double deficit = fits;
                if (battery != nullptr && deficit > 0.0) {
                    battery_out =
                        battery->discharge(MegaWatts(deficit), dt_h)
                            .value();
                    deficit -= battery_out;
                }
                const double defer = (flex_rest - fits) + deficit;
                if (defer > 0.0) {
                    backlog.pushBack(
                        {h + window, MegaWattHours(defer * dt)});
                    backlog_mwh += defer * dt;
                    result.deferred_mwh += MegaWattHours(defer * dt);
                }
                served += flex_rest - defer;
            }

            if (battery != nullptr && surplus > 1e-12)
                battery_in =
                    battery->charge(MegaWatts(surplus), dt_h).value();
        } else {
            // Deficit: renewables cannot even cover mandatory work.
            // Battery first, then defer flexible work, then the grid.
            // Flexible work beyond the capacity cap must defer.
            const double flex_fits = std::min(flex, cap - served);
            double deficit = served + flex_fits - ren;
            if (battery != nullptr) {
                battery_out =
                    battery->discharge(MegaWatts(deficit), dt_h).value();
                deficit -= battery_out;
            }
            const double defer = (flex - flex_fits) +
                (fwr > 0.0 ? std::min(flex_fits, deficit) : 0.0);
            if (defer > 0.0) {
                backlog.pushBack({h + window, MegaWattHours(defer * dt)});
                backlog_mwh += defer * dt;
                result.deferred_mwh += MegaWattHours(defer * dt);
            }
            served += flex - defer;
        }

        // Carbon-arbitrage extension: top the battery up from the
        // grid whenever the grid is clean enough. This energy counts
        // as grid draw (it is not carbon-free), so it trades coverage
        // for lower operational carbon.
        double grid_charge = 0.0;
        if (grid_charging && battery != nullptr &&
            (*config.grid_intensity)[h] <=
                config.grid_charge_threshold_gkwh.value()) {
            grid_charge =
                battery
                    ->charge(
                        MegaWatts(std::numeric_limits<double>::max()),
                        dt_h)
                    .value();
            battery_in += grid_charge;
            result.grid_charge_mwh += MegaWattHours(grid_charge * dt);
        }

        const double green_used =
            std::min(ren, served + (battery_in - grid_charge));
        const double grid =
            std::max(served - ren - battery_out, 0.0) + grid_charge;

        result.served_power[h] = served;
        result.grid_power[h] = grid;
        result.battery_flow[h] = battery_in - battery_out;
        result.battery_soc[h] =
            battery != nullptr ? battery->stateOfCharge().value() : 0.0;

        result.load_energy_mwh += MegaWattHours(load * dt);
        result.served_energy_mwh += MegaWattHours(served * dt);
        result.grid_energy_mwh += MegaWattHours(grid * dt);
        result.renewable_used_mwh += MegaWattHours(green_used * dt);
        result.renewable_excess_mwh +=
            MegaWattHours(std::max(ren - green_used, 0.0) * dt);
        result.max_backlog_mwh =
            max(result.max_backlog_mwh, MegaWattHours(backlog_mwh));

        if (rec != nullptr) {
            obs::HourlyRecord row;
            row.load_mw = load;
            row.served_mw = served;
            row.renewable_mw = ren;
            row.renewable_used_mw = green_used;
            row.grid_mw = grid;
            row.battery_charge_mw = battery_in;
            row.battery_discharge_mw = battery_out;
            row.battery_energy_mwh = battery != nullptr
                ? battery->energyContentMwh().value()
                : 0.0;
            row.curtailed_mw = std::max(ren - green_used, 0.0);
            row.shifted_mwh =
                result.deferred_mwh.value() - prev_deferred;
            row.backlog_mwh = backlog_mwh;
            row.slo_violation_mwh =
                result.slo_violation_mwh.value() - prev_violation;
            row.grid_charge_mwh = grid_charge * dt;
            // Same expression, same order as gridEmissions() sums it,
            // so the recorded column reconciles exactly with the
            // reported operational total.
            row.carbon_kg =
                record_carbon ? grid * (*config.grid_intensity)[h]
                              : 0.0;
            rec->record(h, row);
            prev_deferred = result.deferred_mwh.value();
            prev_violation = result.slo_violation_mwh.value();
        }
    }

    c_runs.increment();
    c_hours.increment(n);

    result.residual_backlog_mwh = MegaWattHours(backlog_mwh);
    result.peak_power_mw = MegaWatts(result.served_power.max());
    result.battery_cycles =
        battery != nullptr ? battery->fullEquivalentCycles() : 0.0;
    // Clamped at zero: with grid charging enabled, battery round-trip
    // losses can push total grid draw past total demand, and a
    // negative "renewable coverage" is meaningless. Without grid
    // charging grid draw never exceeds load and the clamp is inert.
    result.coverage_pct = result.load_energy_mwh.value() > 0.0
        ? std::max(0.0,
                   (1.0 - result.grid_energy_mwh /
                              result.load_energy_mwh) *
                       100.0)
        : 100.0;
}

} // namespace carbonx
