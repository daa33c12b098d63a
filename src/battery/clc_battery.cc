#include "clc_battery.h"

#include <algorithm>
#include <cmath>

#include "battery/clc_step.h"
#include "common/error.h"
#include "common/tolerances.h"
#include "obs/metrics.h"

namespace carbonx
{

ClcBattery::ClcBattery(MegaWattHours capacity, BatteryChemistry chemistry,
                       double initial_soc)
    : capacity_mwh_(capacity), chemistry_(std::move(chemistry)),
      charged_mwh_(0.0), discharged_mwh_(0.0)
{
    require(capacity.value() >= 0.0, "battery capacity must be >= 0");
    require(chemistry_.charge_efficiency > 0.0 &&
                chemistry_.charge_efficiency <= 1.0,
            "charge efficiency must be in (0, 1]");
    require(chemistry_.discharge_efficiency > 0.0 &&
                chemistry_.discharge_efficiency <= 1.0,
            "discharge efficiency must be in (0, 1]");
    require(chemistry_.max_charge_c_rate > 0.0 &&
                chemistry_.max_discharge_c_rate > 0.0,
            "C-rates must be positive");
    require(chemistry_.depth_of_discharge > 0.0 &&
                chemistry_.depth_of_discharge <= 1.0,
            "depth of discharge must be in (0, 1]");

    const double min_soc = 1.0 - chemistry_.depth_of_discharge;
    double soc = initial_soc;
    if (soc < 0.0)
        soc = min_soc; // Default: start at the empty end of the window.
    require(soc >= min_soc - kUnitIntervalSlack &&
                soc <= 1.0 + kUnitIntervalSlack,
            "initial SoC outside the DoD window");
    initial_content_mwh_ =
        capacity_mwh_ * std::clamp(soc, min_soc, 1.0);
    content_mwh_ = initial_content_mwh_;
}

ClcBattery::~ClcBattery()
{
    if (charge_calls_ == 0 && discharge_calls_ == 0)
        return;
    static auto &c_charge = obs::counter("battery.charge_calls");
    static auto &c_discharge = obs::counter("battery.discharge_calls");
    static auto &g_charged = obs::gauge("battery.charged_mwh_total");
    static auto &g_discharged =
        obs::gauge("battery.discharged_mwh_total");
    c_charge.increment(charge_calls_);
    c_discharge.increment(discharge_calls_);
    g_charged.add((lifetime_charged_mwh_ + charged_mwh_).value());
    g_discharged.add((lifetime_discharged_mwh_ + discharged_mwh_).value());
}

Fraction
ClcBattery::stateOfCharge() const
{
    return Fraction(capacity_mwh_.value() > 0.0
                        ? content_mwh_ / capacity_mwh_
                        : 0.0);
}

MegaWattHours
ClcBattery::usableCapacityMwh() const
{
    return capacity_mwh_ * chemistry_.depth_of_discharge;
}

MegaWattHours
ClcBattery::minContentMwh() const
{
    return capacity_mwh_ * (1.0 - chemistry_.depth_of_discharge);
}

MegaWatts
ClcBattery::charge(MegaWatts offered_power, Hours dt)
{
    require(offered_power.value() >= 0.0, "charge power must be >= 0");
    require(dt.value() > 0.0, "timestep must be positive");
    ++charge_calls_;
    double content = content_mwh_.value();
    double charged = charged_mwh_.value();
    const double accepted = clcChargeStep(
        offered_power.value(), dt.value(), capacity_mwh_.value(),
        chemistry_.max_charge_c_rate * capacity_mwh_.value(),
        chemistry_.charge_efficiency, content, charged);
    content_mwh_ = MegaWattHours(content);
    charged_mwh_ = MegaWattHours(charged);
    return MegaWatts(accepted);
}

MegaWatts
ClcBattery::discharge(MegaWatts requested_power, Hours dt)
{
    require(requested_power.value() >= 0.0,
            "discharge power must be >= 0");
    require(dt.value() > 0.0, "timestep must be positive");
    ++discharge_calls_;
    double content = content_mwh_.value();
    double discharged = discharged_mwh_.value();
    const double delivered = clcDischargeStep(
        requested_power.value(), dt.value(), capacity_mwh_.value(),
        chemistry_.max_discharge_c_rate * capacity_mwh_.value(),
        chemistry_.discharge_efficiency, minContentMwh().value(),
        content, discharged);
    content_mwh_ = MegaWattHours(content);
    discharged_mwh_ = MegaWattHours(discharged);
    return MegaWatts(delivered);
}

void
ClcBattery::setCapacity(MegaWattHours capacity)
{
    require(capacity.value() >= 0.0, "battery capacity must be >= 0");
    lifetime_charged_mwh_ += charged_mwh_;
    lifetime_discharged_mwh_ += discharged_mwh_;
    charged_mwh_ = MegaWattHours(0.0);
    discharged_mwh_ = MegaWattHours(0.0);
    capacity_mwh_ = capacity;
    const double min_soc = 1.0 - chemistry_.depth_of_discharge;
    initial_content_mwh_ = capacity_mwh_ * min_soc;
    content_mwh_ = initial_content_mwh_;
}

void
ClcBattery::reset()
{
    content_mwh_ = initial_content_mwh_;
    lifetime_charged_mwh_ += charged_mwh_;
    lifetime_discharged_mwh_ += discharged_mwh_;
    charged_mwh_ = MegaWattHours(0.0);
    discharged_mwh_ = MegaWattHours(0.0);
}

double
ClcBattery::fullEquivalentCycles() const
{
    const MegaWattHours usable = usableCapacityMwh();
    return usable.value() > 0.0 ? discharged_mwh_ / usable : 0.0;
}

std::string
ClcBattery::description() const
{
    return "C/L/C " + chemistry_.name + " battery";
}

} // namespace carbonx
