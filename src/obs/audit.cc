#include "audit.h"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>

#include "common/tolerances.h"

namespace carbonx::obs
{

namespace
{

/** Tag for whole-year checks in InvariantViolation::hour. */
constexpr size_t kYearTotal = SIZE_MAX;

/** The violation's description, quoting its operands (%g, 6 digits). */
void
writeMessage(std::ostream &os, const InvariantViolation &v)
{
    os.precision(6);
    const auto [a, b, c] = v.operands;
    switch (v.check) {
    case AuditCheck::EnergyBalance:
        os << "supplied " << a << " MW != consumed " << b << " MW";
        break;
    case AuditCheck::SocBelowZero:
        os << "battery content " << a << " MWh below zero";
        break;
    case AuditCheck::SocAboveCapacity:
        os << "battery content " << a << " MWh exceeds capacity " << b
           << " MWh";
        break;
    case AuditCheck::CapacityCap:
        os << "served " << a << " MW exceeds cap " << b << " MW";
        break;
    case AuditCheck::Curtailment:
        os << "curtailed " << a << " MW != renewable " << b << " - used "
           << c;
        break;
    case AuditCheck::BacklogNegative:
        os << "backlog " << a << " MWh negative";
        break;
    case AuditCheck::BacklogGrew:
        os << "backlog grew " << a << " MWh but only " << b
           << " MWh was shifted in";
        break;
    case AuditCheck::NonNegativeFlows:
        os << "a flow column is negative";
        break;
    case AuditCheck::YearEndBacklog:
        os << "recorded year-end backlog " << a
           << " MWh != reported residual " << b << " MWh";
        break;
    case AuditCheck::CarbonReconciliation:
        os << "cumulative hourly carbon " << a
           << " kg != reported operational total " << b << " kg";
        break;
    }
}

} // namespace

std::string_view
InvariantViolation::invariant() const
{
    switch (check) {
    case AuditCheck::EnergyBalance:
        return "energy-balance";
    case AuditCheck::SocBelowZero:
    case AuditCheck::SocAboveCapacity:
        return "soc-bounds";
    case AuditCheck::CapacityCap:
        return "capacity-cap";
    case AuditCheck::Curtailment:
        return "curtailment";
    case AuditCheck::BacklogNegative:
    case AuditCheck::BacklogGrew:
    case AuditCheck::YearEndBacklog:
        return "backlog-conservation";
    case AuditCheck::NonNegativeFlows:
        return "non-negative-flows";
    case AuditCheck::CarbonReconciliation:
        return "carbon-reconciliation";
    }
    return "unknown";
}

std::string
InvariantViolation::format() const
{
    std::ostringstream os;
    if (hour == kYearTotal)
        os << "year-total";
    else
        os << "hour " << hour;
    os << ": [" << invariant() << "] ";
    writeMessage(os, *this);
    return os.str();
}

void
AuditReport::write(std::ostream &os) const
{
    for (const InvariantViolation &v : violations)
        os << v.format() << '\n';
    os << "audit: " << violations.size() << " violation"
       << (violations.size() == 1 ? "" : "s") << " across " << checks
       << " checks over " << hours << " hours\n";
}

AuditReport
auditRecording(const FlightRecorder &recording,
               const AuditContext &context)
{
    AuditReport report;
    const size_t n = recording.hours();
    report.hours = n;

    // Every check is counted; a failing one records its operands and
    // nothing is formatted until someone asks for the text.
    const auto check = [&](bool ok, size_t hour, AuditCheck which,
                           double excess, double a = 0.0,
                           double b = 0.0, double c = 0.0) {
        ++report.checks;
        if (!ok) [[unlikely]]
            report.violations.push_back(
                InvariantViolation{hour, which, {a, b, c}, excess});
    };

    // The recorder's columns, read in place.
    const double *load = recording.load_mw.data();
    const double *served = recording.served_mw.data();
    const double *renewable = recording.renewable_mw.data();
    const double *used = recording.renewable_used_mw.data();
    const double *grid = recording.grid_mw.data();
    const double *charge = recording.battery_charge_mw.data();
    const double *discharge = recording.battery_discharge_mw.data();
    const double *energy = recording.battery_energy_mwh.data();
    const double *curtailed = recording.curtailed_mw.data();
    const double *shifted = recording.shifted_mwh.data();
    const double *backlog = recording.backlog_mwh.data();
    const double *slo = recording.slo_violation_mwh.data();
    const double *grid_charge = recording.grid_charge_mwh.data();
    const double *carbon = recording.carbon_kg.data();
    const double battery_cap = context.battery_capacity_mwh;
    const double capacity_cap = context.capacity_cap_mw;

    double prev_backlog = 0.0;
    double carbon_sum = 0.0;
    for (size_t h = 0; h < n; ++h) {
        // Source-side energy balance: what the hour consumed (served
        // load plus battery charging) must equal what supplied it
        // (renewables used, grid draw, battery discharge).
        const double supplied = used[h] + grid[h] + discharge[h];
        const double consumed = served[h] + charge[h];
        const double imbalance = std::fabs(supplied - consumed);
        check(imbalance <= kAuditEnergyBalanceSlackMw, h,
              AuditCheck::EnergyBalance,
              imbalance - kAuditEnergyBalanceSlackMw, supplied,
              consumed);

        // Storage bounds: stored energy within [0, capacity].
        check(energy[h] >= -kAuditEnergySlackMwh, h,
              AuditCheck::SocBelowZero, -energy[h], energy[h]);
        check(energy[h] <= battery_cap + kAuditEnergySlackMwh, h,
              AuditCheck::SocAboveCapacity, energy[h] - battery_cap,
              energy[h], battery_cap);

        // Physical capacity cap on served power.
        check(served[h] <= capacity_cap + kCapacityCapSlackMw, h,
              AuditCheck::CapacityCap, served[h] - capacity_cap,
              served[h], capacity_cap);

        // Curtailment accounting: what was not used was curtailed.
        const double curtail_gap =
            std::fabs(curtailed[h] - (renewable[h] - used[h]));
        check(curtail_gap <= kAuditEnergyBalanceSlackMw &&
                  curtailed[h] >= -kAuditEnergyBalanceSlackMw,
              h, AuditCheck::Curtailment,
              curtail_gap - kAuditEnergyBalanceSlackMw, curtailed[h],
              renewable[h], used[h]);

        // Backlog conservation: the deferred-work queue can only grow
        // by what was shifted in this hour and can only shrink by
        // work actually served; it can never go negative. Drained
        // work is implicit (backlog decrease), so the two-sided check
        // is: -served-capacity <= delta - shifted <= 0 is too strong
        // (drain is bounded by the backlog itself); the conservation
        // law is delta <= shifted (nothing appears from nowhere) and
        // backlog >= 0.
        const double delta = backlog[h] - prev_backlog;
        check(backlog[h] >= -kAuditEnergySlackMwh, h,
              AuditCheck::BacklogNegative, -backlog[h], backlog[h]);
        check(delta <= shifted[h] + slo[h] + kAuditEnergySlackMwh, h,
              AuditCheck::BacklogGrew, delta - shifted[h] - slo[h],
              delta, shifted[h] + slo[h]);
        prev_backlog = backlog[h];

        // Column sanity: flows are non-negative by construction.
        const bool nonneg =
            load[h] >= 0.0 && served[h] >= 0.0 && renewable[h] >= 0.0 &&
            used[h] >= 0.0 && grid[h] >= 0.0 && charge[h] >= 0.0 &&
            discharge[h] >= 0.0 && shifted[h] >= 0.0 && slo[h] >= 0.0 &&
            grid_charge[h] >= 0.0;
        check(nonneg, h, AuditCheck::NonNegativeFlows, 0.0);

        carbon_sum += carbon[h];
    }
    report.recorded_carbon_kg = carbon_sum;

    // Year totals. Residual backlog must match what the engine
    // reported, closing the shifted-work ledger.
    if (n > 0) {
        const double residual_gap =
            std::fabs(prev_backlog - context.residual_backlog_mwh);
        check(residual_gap <= kAuditEnergySlackMwh, kYearTotal,
              AuditCheck::YearEndBacklog,
              residual_gap - kAuditEnergySlackMwh, prev_backlog,
              context.residual_backlog_mwh);
    }

    // Carbon reconciliation: every kilogram in the reported total
    // must be attributable to a specific hour of the recording.
    if (recording.hasCarbon()) {
        const double carbon_gap =
            std::fabs(carbon_sum - context.reported_operational_kg);
        check(carbon_gap <= kAuditCarbonSlackKg, kYearTotal,
              AuditCheck::CarbonReconciliation,
              carbon_gap - kAuditCarbonSlackKg, carbon_sum,
              context.reported_operational_kg);
    }

    return report;
}

} // namespace carbonx::obs
