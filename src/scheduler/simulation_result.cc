#include "simulation_result.h"

namespace carbonx
{

void
SimulationResult::resetFor(int year)
{
    if (served_power.year() != year) {
        served_power = TimeSeries(year);
        grid_power = TimeSeries(year);
        battery_soc = TimeSeries(year);
        battery_flow = TimeSeries(year);
    } else {
        for (size_t h = 0; h < served_power.size(); ++h) {
            served_power[h] = 0.0;
            grid_power[h] = 0.0;
            battery_soc[h] = 0.0;
            battery_flow[h] = 0.0;
        }
    }
    load_energy_mwh = MegaWattHours(0.0);
    served_energy_mwh = MegaWattHours(0.0);
    grid_energy_mwh = MegaWattHours(0.0);
    renewable_used_mwh = MegaWattHours(0.0);
    renewable_excess_mwh = MegaWattHours(0.0);
    deferred_mwh = MegaWattHours(0.0);
    max_backlog_mwh = MegaWattHours(0.0);
    residual_backlog_mwh = MegaWattHours(0.0);
    slo_violation_mwh = MegaWattHours(0.0);
    peak_power_mw = MegaWatts(0.0);
    battery_cycles = 0.0;
    grid_charge_mwh = MegaWattHours(0.0);
    coverage_pct = 0.0;
}

} // namespace carbonx
