/**
 * @file
 * Lossless, rate-unlimited battery: a simple second implementation of
 * the BatteryModel API, used by the battery tests as the upper bound
 * the C/L/C model must never beat and by the scalar oracle tests.
 */

#ifndef CARBONX_TESTS_SUPPORT_IDEAL_BATTERY_H
#define CARBONX_TESTS_SUPPORT_IDEAL_BATTERY_H

#include "battery/battery_model.h"

namespace carbonx
{

/** Ideal storage: 100% efficient, unbounded power, full DoD. */
class IdealBattery : public BatteryModel
{
  public:
    /** @param capacity Nameplate (and usable) capacity. */
    explicit IdealBattery(MegaWattHours capacity);

    MegaWattHours capacityMwh() const override { return capacity_mwh_; }
    MegaWattHours energyContentMwh() const override { return content_mwh_; }
    Fraction stateOfCharge() const override;

    MegaWatts charge(MegaWatts offered_power, Hours dt) override;
    MegaWatts discharge(MegaWatts requested_power, Hours dt) override;

    void reset() override;

    MegaWattHours totalChargedMwh() const override { return charged_mwh_; }
    MegaWattHours totalDischargedMwh() const override
    {
        return discharged_mwh_;
    }
    double fullEquivalentCycles() const override;

    std::string description() const override { return "ideal battery"; }

  private:
    MegaWattHours capacity_mwh_;
    MegaWattHours content_mwh_;
    MegaWattHours charged_mwh_;
    MegaWattHours discharged_mwh_;
};

} // namespace carbonx

#endif // CARBONX_TESTS_SUPPORT_IDEAL_BATTERY_H
