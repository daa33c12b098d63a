#include "ideal_battery.h"

#include "common/error.h"

namespace carbonx
{

IdealBattery::IdealBattery(MegaWattHours capacity)
    : capacity_mwh_(capacity), content_mwh_(0.0), charged_mwh_(0.0),
      discharged_mwh_(0.0)
{
    require(capacity.value() >= 0.0, "battery capacity must be >= 0");
}

Fraction
IdealBattery::stateOfCharge() const
{
    return Fraction(capacity_mwh_.value() > 0.0
                        ? content_mwh_ / capacity_mwh_
                        : 0.0);
}

MegaWatts
IdealBattery::charge(MegaWatts offered_power, Hours dt)
{
    require(offered_power.value() >= 0.0, "charge power must be >= 0");
    require(dt.value() > 0.0, "timestep must be positive");
    const MegaWatts headroom_cap =
        max(capacity_mwh_ - content_mwh_, MegaWattHours(0.0)) / dt;
    const MegaWatts accepted = min(offered_power, headroom_cap);
    content_mwh_ += accepted * dt;
    charged_mwh_ += accepted * dt;
    return accepted;
}

MegaWatts
IdealBattery::discharge(MegaWatts requested_power, Hours dt)
{
    require(requested_power.value() >= 0.0,
            "discharge power must be >= 0");
    require(dt.value() > 0.0, "timestep must be positive");
    const MegaWatts content_cap =
        max(content_mwh_, MegaWattHours(0.0)) / dt;
    const MegaWatts delivered = min(requested_power, content_cap);
    content_mwh_ -= delivered * dt;
    discharged_mwh_ += delivered * dt;
    return delivered;
}

void
IdealBattery::reset()
{
    content_mwh_ = MegaWattHours(0.0);
    charged_mwh_ = MegaWattHours(0.0);
    discharged_mwh_ = MegaWattHours(0.0);
}

double
IdealBattery::fullEquivalentCycles() const
{
    return capacity_mwh_.value() > 0.0
        ? discharged_mwh_ / capacity_mwh_
        : 0.0;
}

} // namespace carbonx
