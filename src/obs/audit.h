/**
 * @file
 * Invariant auditor for simulation flight recordings.
 *
 * The simulation engine enforces its physics implicitly — energy
 * flows balance because the hourly arithmetic says so. The auditor
 * makes the contract explicit and checkable after the fact: it
 * replays a FlightRecorder buffer and verifies the conservation laws
 * every hour, returning structured violations instead of asserting,
 * so a corrupt recording (or a future engine regression) produces an
 * actionable report rather than a crashed sweep.
 *
 * Invariants checked (tolerances from common/tolerances.h):
 *  - energy balance: renewable_used + grid + battery_discharge ==
 *    served + battery_charge, within kAuditEnergyBalanceSlackMw;
 *  - storage bounds: battery energy content within [0, capacity];
 *  - capacity cap: served power never exceeds the configured cap;
 *  - curtailment: curtailed == renewable - renewable_used and >= 0;
 *  - backlog conservation: the deferred-work backlog never goes
 *    negative, grows by exactly what was shifted in, and ends at the
 *    reported residual — so CAS-shifted work is conserved across the
 *    SLO window, never silently dropped;
 *  - carbon reconciliation: the cumulative hourly carbon column
 *    equals the reported total operational carbon.
 */

#ifndef CARBONX_OBS_AUDIT_H
#define CARBONX_OBS_AUDIT_H

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.h"

namespace carbonx::obs
{

/** Context the recording is audited against. */
struct AuditContext
{
    /** Physical capacity cap the run was configured with (MW). */
    double capacity_cap_mw = 0.0;

    /** Battery nameplate capacity (MWh); 0 when no battery. */
    double battery_capacity_mwh = 0.0;

    /** Residual backlog the engine reported at year end (MWh). */
    double residual_backlog_mwh = 0.0;

    /**
     * Total operational carbon the evaluation reported (kg); the
     * carbon-reconciliation check compares the recording against it.
     * Skipped when the recording has no carbon column.
     */
    double reported_operational_kg = 0.0;
};

/** The individual checks the auditor evaluates, in evaluation order. */
enum class AuditCheck : unsigned char
{
    EnergyBalance,        ///< supplied == consumed.
    SocBelowZero,         ///< Battery content >= 0.
    SocAboveCapacity,     ///< Battery content <= capacity.
    CapacityCap,          ///< Served power <= cap.
    Curtailment,          ///< curtailed == renewable - used, >= 0.
    BacklogNegative,      ///< Backlog >= 0.
    BacklogGrew,          ///< Backlog grows at most by what shifted in.
    NonNegativeFlows,     ///< Every flow column >= 0.
    YearEndBacklog,       ///< Final backlog == reported residual.
    CarbonReconciliation, ///< Hourly carbon sums to the reported total.
};

/**
 * One broken invariant at one hour (or SIZE_MAX for year totals).
 * A violation stores only the check and the magnitudes it failed on;
 * its text is built on demand, so a clean audit formats nothing.
 */
struct InvariantViolation
{
    /** Hour index, or SIZE_MAX for whole-year checks. */
    size_t hour = 0;

    /** The check that failed. */
    AuditCheck check = AuditCheck::EnergyBalance;

    /** Magnitudes the message quotes, in message order (unused = 0). */
    std::array<double, 3> operands{};

    /** How far past the tolerance the check landed (same unit). */
    double excess = 0.0;

    /** Invariant name, e.g. "energy-balance" (shared by sibling checks). */
    std::string_view invariant() const;

    /**
     * "hour H: [invariant] description" (or "year-total: ..."), the
     * description quoting the operands.
     */
    std::string format() const;
};

/** Outcome of one audit pass. */
struct AuditReport
{
    std::vector<InvariantViolation> violations;

    /** Hours audited. */
    size_t hours = 0;

    /** Individual invariant checks evaluated. */
    size_t checks = 0;

    /** Cumulative hourly carbon from the recording (kg). */
    double recorded_carbon_kg = 0.0;

    bool clean() const { return violations.empty(); }

    /** One line per violation, plus a summary line. */
    void write(std::ostream &os) const;
};

/**
 * Replay @p recording against @p context and check every invariant.
 * Never throws on a dirty recording — violations are data. Evaluates
 * 8 checks per hour plus one year-total backlog check (when there are
 * hours) and one carbon reconciliation (when the recording has
 * carbon); a clean recording is audited without a heap allocation.
 */
AuditReport auditRecording(const FlightRecorder &recording,
                           const AuditContext &context);

} // namespace carbonx::obs

#endif // CARBONX_OBS_AUDIT_H
