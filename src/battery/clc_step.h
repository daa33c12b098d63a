/**
 * @file
 * The C/L/C charge and discharge step (see clc_battery.h) on raw
 * doubles: the one implementation of the model's per-timestep
 * arithmetic. ClcBattery calls it with its unwrapped members; the
 * batched simulation kernel calls it on its structure-of-arrays lane
 * state. Both therefore produce the same bits by construction.
 *
 * The C-rate power cap (rate * nameplate) and the DoD floor
 * (nameplate * (1 - DoD)) are passed in pre-derived, so callers that
 * keep them per lane pay no per-step multiply for them.
 */

#ifndef CARBONX_BATTERY_CLC_STEP_H
#define CARBONX_BATTERY_CLC_STEP_H

#include <algorithm>

namespace carbonx
{

/**
 * Offer @p offered AC power for @p dt hours to a battery holding
 * @p content of @p capacity (MWh). Advances @p content and the
 * throughput accumulator @p charged; returns the AC power accepted.
 *
 * @param rate_cap Charging C-rate power cap (MW).
 * @param efficiency One-way charge efficiency.
 */
inline double
clcChargeStep(double offered, double dt, double capacity, double rate_cap,
              double efficiency, double &content, double &charged)
{
    if (capacity <= 0.0 || offered <= 0.0)
        return 0.0;
    // Headroom cap: cannot exceed nameplate content after losses.
    const double headroom = std::max(capacity - content, 0.0);
    const double headroom_cap = headroom / (efficiency * dt);
    const double accepted =
        std::min(std::min(offered, rate_cap), headroom_cap);
    content += accepted * dt * efficiency;
    content = std::min(content, capacity);
    charged += accepted * dt;
    return accepted;
}

/**
 * Request @p requested AC power for @p dt hours from a battery holding
 * @p content of @p capacity (MWh). Advances @p content and the
 * throughput accumulator @p discharged; returns the AC power
 * delivered.
 *
 * @param rate_cap Discharging C-rate power cap (MW).
 * @param efficiency One-way discharge efficiency.
 * @param floor DoD floor: the minimum allowed content (MWh).
 */
inline double
clcDischargeStep(double requested, double dt, double capacity,
                 double rate_cap, double efficiency, double floor,
                 double &content, double &discharged)
{
    if (capacity <= 0.0 || requested <= 0.0)
        return 0.0;
    // Usable stored energy above the DoD floor, delivered at the AC
    // terminal after discharge losses.
    const double available = std::max(content - floor, 0.0);
    const double content_cap = available * efficiency / dt;
    const double delivered =
        std::min(std::min(requested, rate_cap), content_cap);
    content -= delivered * dt / efficiency;
    content = std::max(content, floor);
    discharged += delivered * dt;
    return delivered;
}

} // namespace carbonx

#endif // CARBONX_BATTERY_CLC_STEP_H
