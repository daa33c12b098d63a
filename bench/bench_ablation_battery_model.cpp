/**
 * @file
 * Ablation: the C/L/C battery model vs an ideal (lossless,
 * rate-unlimited) battery. Quantifies how much the physical limits
 * the paper models — efficiency loss, C-rate caps, DoD window —
 * change coverage and required sizing.
 */

#include <iostream>
#include <limits>

#include "bench_util.h"
#include "core/explorer.h"
#include "scheduler/batched_engine.h"

namespace
{

using namespace carbonx;

/**
 * Ideal storage as a C/L/C chemistry: lossless both ways, full depth
 * of discharge, and a C-rate that never binds.
 */
BatteryChemistry
idealChemistry()
{
    BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    chem.name = "ideal";
    chem.charge_efficiency = 1.0;
    chem.discharge_efficiency = 1.0;
    chem.max_charge_c_rate = std::numeric_limits<double>::infinity();
    chem.max_discharge_c_rate = std::numeric_limits<double>::infinity();
    chem.depth_of_discharge = 1.0;
    return chem;
}

} // namespace

int
main()
{
    bench::banner("Ablation — C/L/C battery vs ideal storage",
                  "physical limits (efficiency, C-rate, DoD) cost "
                  "coverage; ignoring them undersizes batteries");

    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    const CarbonExplorer explorer(config);
    const double dc = config.avg_dc_power_mw.value();

    const CoverageAnalyzer &cov = explorer.coverageAnalyzer();
    const BatchedSimulationEngine engine(explorer.dcPower(),
                                         cov.solarShape(), cov.windShape());
    const BatteryChemistry ideal = idealChemistry();
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    BatteryChemistry dod80 = lfp;
    dod80.depth_of_discharge = 0.8;

    // Coverage of the 4x-oversized farm with @p mwh of @p chem storage.
    SimulationBatch batch(1);
    auto coverageWith = [&](const BatteryChemistry &chem, double mwh) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(4.0 * dc);
        lane.wind_mw = MegaWatts(4.0 * dc);
        lane.capacity_cap_mw = explorer.dcPeakPowerMw();
        lane.chemistry = &chem;
        lane.battery_capacity_mwh = MegaWattHours(mwh);
        batch.clear();
        batch.addLane(lane);
        engine.run(batch);
        return batch.result(0).coverage_pct;
    };

    TextTable table("Coverage vs battery size, by battery model",
                    {"Battery (h of compute)", "Ideal %", "C/L/C %",
                     "C/L/C 80% DoD %", "Gap (ideal - CLC)"});
    double max_gap = 0.0;
    for (double hours : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
        const double mwh = hours * dc;

        const double cov_ideal = coverageWith(ideal, mwh);
        const double cov_clc = coverageWith(lfp, mwh);
        const double cov_80 = coverageWith(dod80, mwh);

        max_gap = std::max(max_gap, cov_ideal - cov_clc);
        table.addRow({formatFixed(hours, 0), formatFixed(cov_ideal, 2),
                      formatFixed(cov_clc, 2), formatFixed(cov_80, 2),
                      formatFixed(cov_ideal - cov_clc, 2)});
    }
    table.print(std::cout);

    // Sizing for a fixed target under each model.
    const double target = 99.0;
    auto sizeFor = [&](bool ideal_model) {
        double lo = 0.0;
        double hi = 200.0 * dc;
        auto coverageAt = [&](double mwh) {
            return coverageWith(ideal_model ? ideal : lfp, mwh);
        };
        if (coverageAt(hi) < target)
            return -1.0;
        for (int i = 0; i < 40; ++i) {
            const double mid = 0.5 * (lo + hi);
            (coverageAt(mid) >= target ? hi : lo) = mid;
        }
        return hi;
    };
    const double mwh_ideal = sizeFor(true);
    const double mwh_clc = sizeFor(false);
    std::cout << "\nBattery for " << target
              << "% coverage: ideal model "
              << formatFixed(mwh_ideal / dc, 1) << " h, C/L/C "
              << formatFixed(mwh_clc / dc, 1)
              << " h — ignoring physics undersizes by "
              << formatPercent(100.0 * (mwh_clc - mwh_ideal) /
                               mwh_clc)
              << "\n";

    bench::shapeCheck(max_gap > 0.1,
                      "physical limits measurably reduce coverage");
    bench::shapeCheck(mwh_clc > mwh_ideal,
                      "C/L/C model requires a larger battery for the "
                      "same target");
    return 0;
}
