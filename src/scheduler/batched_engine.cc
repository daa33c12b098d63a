#include "batched_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "battery/chemistry.h"
#include "battery/clc_step.h"
#include "common/error.h"
#include "common/fnv.h"
#include "common/tolerances.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "timeseries/calendar.h"

namespace carbonx
{

void
RecordingObserver::begin(const SimulationBatch &batch, int year,
                         size_t hours, bool with_carbon)
{
    require(batch.size() == 1,
            "the recording observer records a 1-lane batch");
    result_.resetFor(year);
    with_carbon_ = with_carbon;
    prev_deferred_ = 0.0;
    prev_violation_ = 0.0;
    if (recorder_ != nullptr)
        recorder_->begin(year, hours, with_carbon);
}

void
RecordingObserver::hour(size_t /*lane*/, size_t h, const LaneHour &x)
{
    result_.served_power[h] = x.served;
    result_.grid_power[h] = x.grid;
    result_.battery_flow[h] = x.battery_in - x.battery_out;
    result_.battery_soc[h] = x.battery_capacity > 0.0
        ? x.battery_content / x.battery_capacity
        : 0.0;
    if (recorder_ == nullptr)
        return;
    obs::HourlyRecord row;
    row.load_mw = x.load;
    row.served_mw = x.served;
    row.renewable_mw = x.renewable;
    row.renewable_used_mw = x.renewable_used;
    row.grid_mw = x.grid;
    row.battery_charge_mw = x.battery_in;
    row.battery_discharge_mw = x.battery_out;
    row.battery_energy_mwh = x.battery_content;
    row.curtailed_mw = std::max(x.renewable - x.renewable_used, 0.0);
    row.shifted_mwh = x.deferred_total - prev_deferred_;
    row.backlog_mwh = x.backlog;
    row.slo_violation_mwh = x.violation_total - prev_violation_;
    row.grid_charge_mwh = x.grid_charge; // One-hour step.
    // Same expression, same order as the kernel's carbon accumulator
    // (and gridEmissions()), so the recorded column reconciles
    // exactly with the reported operational total.
    row.carbon_kg = with_carbon_ ? x.grid * x.intensity : 0.0;
    recorder_->record(h, row);
    prev_deferred_ = x.deferred_total;
    prev_violation_ = x.violation_total;
}

void
RecordingObserver::end(const SimulationBatch &batch)
{
    const BatchLaneResult &r = batch.result(0);
    result_.load_energy_mwh = r.load_energy_mwh;
    result_.served_energy_mwh = r.served_energy_mwh;
    result_.grid_energy_mwh = r.grid_energy_mwh;
    result_.renewable_used_mwh = r.renewable_used_mwh;
    result_.renewable_excess_mwh = r.renewable_excess_mwh;
    result_.deferred_mwh = r.deferred_mwh;
    result_.max_backlog_mwh = r.max_backlog_mwh;
    result_.residual_backlog_mwh = r.residual_backlog_mwh;
    result_.slo_violation_mwh = r.slo_violation_mwh;
    result_.peak_power_mw = r.peak_power_mw;
    result_.battery_cycles = r.battery_cycles;
    result_.grid_charge_mwh = r.grid_charge_mwh;
    result_.coverage_pct = r.coverage_pct;
}

namespace
{

double
peakOf(std::span<const double> series)
{
    double peak = series.empty() ? 0.0 : series[0];
    for (const double v : series)
        peak = std::max(peak, v);
    return peak;
}

} // namespace

BatchedSimulationEngine::BatchedSimulationEngine(
    int year, std::span<const double> dc_power,
    std::span<const double> solar_shape, std::span<const double> wind_shape,
    const double *grid_intensity)
    : year_(year), dc_power_(dc_power), solar_shape_(solar_shape),
      wind_shape_(wind_shape), grid_intensity_(grid_intensity),
      peak_mw_(peakOf(dc_power))
{
}

BatchedSimulationEngine::BatchedSimulationEngine(
    const TimeSeries &dc_power, const TimeSeries &solar_shape,
    const TimeSeries &wind_shape, const TimeSeries *grid_intensity)
    : BatchedSimulationEngine(
          dc_power.year(), dc_power.values(), solar_shape.values(),
          wind_shape.values(),
          grid_intensity != nullptr ? grid_intensity->values().data()
                                    : nullptr)
{
    require(dc_power.year() == solar_shape.year() &&
                dc_power.year() == wind_shape.year(),
            "load and shape series must cover the same year");
    require(dc_power.min() >= 0.0, "datacenter power must be >= 0");
    require(solar_shape.min() >= 0.0 && wind_shape.min() >= 0.0,
            "renewable shapes must be >= 0");
    if (grid_intensity != nullptr) {
        require(grid_intensity->year() == dc_power.year(),
                "intensity series must cover the simulated year");
    }
}

void
BatchedSimulationEngine::run(SimulationBatch &batch) const
{
    NoObserver none;
    run(batch, none);
}

template <class Observer>
void
BatchedSimulationEngine::run(SimulationBatch &batch,
                             Observer &observer) const
{
    CARBONX_SPAN("sim/batch_run");
    static auto &c_batches = obs::counter("sim.batch_runs");
    static auto &c_lanes = obs::counter("sim.batch_lanes");
    static auto &c_hours = obs::counter("sim.hours_simulated");
    static auto &c_charge = obs::counter("battery.charge_calls");
    static auto &c_discharge = obs::counter("battery.discharge_calls");
    static auto &g_charged = obs::gauge("battery.charged_mwh_total");
    static auto &g_discharged =
        obs::gauge("battery.discharged_mwh_total");
    // Fill factor of this batch relative to its reserved capacity:
    // the sweep's journal/status tooling reads this alongside wave
    // counts to tell "few full waves" from "many ragged ones".
    static auto &g_fill = obs::gauge("sim.batch_fill_lanes");

    const size_t m = batch.size_;
    if (m == 0)
        return;
    g_fill.set(static_cast<double>(m));
    const StepCalls calls = simulate(batch, observer);

    c_batches.increment();
    c_lanes.increment(m);
    c_hours.increment(m * dc_power_.size());
    if (calls.charge > 0 || calls.discharge > 0) {
        c_charge.increment(calls.charge);
        c_discharge.increment(calls.discharge);
        double charged = 0.0;
        double discharged = 0.0;
        for (size_t l = 0; l < m; ++l) {
            charged += batch.bat_charged_[l];
            discharged += batch.bat_discharged_[l];
        }
        g_charged.add(charged);
        g_discharged.add(discharged);
    }
}

template <class Observer>
BatchedSimulationEngine::StepCalls
BatchedSimulationEngine::simulate(SimulationBatch &batch,
                                  Observer &observer) const
{
    const size_t m = batch.size_;
    const size_t n = dc_power_.size();

    // Engine-side lane validation (the batch validated everything it
    // could without trace context in addLane). Branch-then-throw
    // instead of require(): run() sits on the sweep's per-wave path
    // and must not allocate on the success path, while require()
    // builds its message string unconditionally.
    for (size_t l = 0; l < m; ++l) {
        if (batch.cap_[l] < peak_mw_ - kCapacityCapSlackMw)
            throw UserError("capacity cap below the load peak");
        if (batch.grid_charging_[l] != 0 && grid_intensity_ == nullptr)
            throw UserError(
                "grid-charging policy requires an intensity series");
    }

    // Reset per-lane run state; assign/resize never allocate here
    // because every array was reserved for the batch capacity.
    batch.bat_content_.assign(batch.bat_initial_.begin(),
                              batch.bat_initial_.end());
    batch.bat_charged_.assign(m, 0.0);
    batch.bat_discharged_.assign(m, 0.0);
    batch.backlog_total_.assign(m, 0.0);
    batch.ren_.resize(m);
    batch.fixed_.resize(m);
    batch.flex_.resize(m);
    batch.acc_load_.assign(m, 0.0);
    batch.acc_served_.assign(m, 0.0);
    batch.acc_grid_.assign(m, 0.0);
    batch.acc_ren_used_.assign(m, 0.0);
    batch.acc_ren_excess_.assign(m, 0.0);
    batch.acc_deferred_.assign(m, 0.0);
    batch.acc_max_backlog_.assign(m, 0.0);
    batch.acc_violation_.assign(m, 0.0);
    batch.acc_grid_charge_.assign(m, 0.0);
    batch.acc_peak_.assign(m, 0.0);
    batch.acc_carbon_.assign(m, 0.0);
    batch.results_.resize(m);
    for (size_t l = 0; l < m; ++l)
        batch.backlog_[l].clear();

    observer.begin(batch, year_, n, grid_intensity_ != nullptr);

    // Raw SoA pointers hoisted once. The staging arrays carry
    // __restrict so the stage-1 loop needs no runtime alias checks to
    // vectorize; every pointer addresses a distinct vector.
    const std::span<const double> dc = dc_power_;
    const std::span<const double> sshape = solar_shape_;
    const std::span<const double> wshape = wind_shape_;
    const double *inten = grid_intensity_;

    double *__restrict ren = batch.ren_.data();
    double *__restrict fixedv = batch.fixed_.data();
    double *__restrict flexv = batch.flex_.data();
    const double *__restrict solar = batch.solar_.data();
    const double *__restrict wind = batch.wind_.data();
    const double *__restrict fwr = batch.fwr_.data();

    const double *capv = batch.cap_.data();
    const size_t *windowv = batch.window_.data();
    const unsigned char *grid_ch = batch.grid_charging_.data();
    const double *grid_thr = batch.grid_threshold_.data();
    const unsigned char *has_b = batch.has_battery_.data();
    const double *b_cap = batch.bat_capacity_.data();
    const double *b_rate_c = batch.bat_rate_charge_.data();
    const double *b_rate_d = batch.bat_rate_discharge_.data();
    const double *b_eff_c = batch.bat_eff_charge_.data();
    const double *b_eff_d = batch.bat_eff_discharge_.data();
    const double *b_min = batch.bat_min_content_.data();
    double *b_content = batch.bat_content_.data();
    double *b_charged = batch.bat_charged_.data();
    double *b_discharged = batch.bat_discharged_.data();
    double *backlog_total = batch.backlog_total_.data();
    SimulationScratch *backlogs = batch.backlog_.data();
    double *acc_load = batch.acc_load_.data();
    double *acc_served = batch.acc_served_.data();
    double *acc_grid = batch.acc_grid_.data();
    double *acc_ren_used = batch.acc_ren_used_.data();
    double *acc_ren_excess = batch.acc_ren_excess_.data();
    double *acc_deferred = batch.acc_deferred_.data();
    double *acc_max_backlog = batch.acc_max_backlog_.data();
    double *acc_violation = batch.acc_violation_.data();
    double *acc_grid_charge = batch.acc_grid_charge_.data();
    double *acc_peak = batch.acc_peak_.data();
    double *acc_carbon = batch.acc_carbon_.data();

    const double dt = 1.0; // Hourly steps.
    StepCalls calls;

    const auto chargeLane = [&](size_t l, double offered) {
        ++calls.charge;
        return clcChargeStep(offered, dt, b_cap[l], b_rate_c[l],
                             b_eff_c[l], b_content[l], b_charged[l]);
    };
    const auto dischargeLane = [&](size_t l, double requested) {
        ++calls.discharge;
        return clcDischargeStep(requested, dt, b_cap[l], b_rate_d[l],
                                b_eff_d[l], b_min[l], b_content[l],
                                b_discharged[l]);
    };

    {
        CARBONX_PROFILE("sim/batch_step");
        for (size_t h = 0; h < n; ++h) {
            const double load = dc[h];
            const double sh = sshape[h];
            const double wh = wshape[h];

            // Stage 1, the vector kernel: per-lane supply (the exact
            // CoverageAnalyzer::supplyFor expression) and load split.
            // Branch-free and lane-independent — the CI vectorization
            // smoke check requires this loop to stay vectorized. The
            // ivdep pragma is load-bearing: the six arrays are
            // distinct SimulationBatch members so they cannot alias,
            // but GCC loses the restrict tags on locals here and
            // would need more runtime alias checks than its limit
            // (vect-max-version-for-alias-checks) allows.
#pragma GCC ivdep
            for (size_t l = 0; l < m; ++l) {
                ren[l] = sh * solar[l] + wh * wind[l];
                fixedv[l] = load * (1.0 - fwr[l]);
                flexv[l] = load * fwr[l];
            }

            const double inten_h = inten != nullptr ? inten[h] : 0.0;

            // Stage 2: the scheduling/battery step, lane by lane.
            for (size_t l = 0; l < m; ++l) {
                SimulationScratch &backlog = backlogs[l];
                const double cap = capv[l];
                const double flex = flexv[l];
                const double lane_ren = ren[l];

                // Deadline-forced backlog must run now.
                double forced = 0.0;
                while (!backlog.empty() &&
                       backlog.front().deadline_hour <= h) {
                    forced += backlog.front().mwh.value();
                    backlog_total[l] -= backlog.front().mwh.value();
                    backlog.popFront();
                }

                // Mandatory work: inflexible load plus deadline-forced
                // backlog, truncated at the physical capacity cap.
                // Truncated deadline work is an SLO violation; it
                // still runs, one cap-sized slice per hour, until
                // drained.
                double mandatory = fixedv[l] + forced;
                if (mandatory > cap) {
                    const double overflow = mandatory - cap;
                    acc_violation[l] += overflow * dt;
                    backlog.pushFront({h + 1, MegaWattHours(overflow)});
                    backlog_total[l] += overflow;
                    mandatory = cap;
                }

                double served = mandatory;
                double battery_out = 0.0;
                double battery_in = 0.0;

                if (lane_ren >= served) {
                    // Surplus relative to mandatory work. Run
                    // everything available — current flexible work
                    // first, then backlog — on renewable power within
                    // the capacity cap, and charge the battery with
                    // what remains (section 5.2).
                    double surplus = lane_ren - served;

                    const double flex_green =
                        std::min({flex, surplus, cap - served});
                    served += flex_green;
                    surplus -= flex_green;

                    // Flexible work that surplus could not cover
                    // competes for the battery like any other deficit
                    // (below).
                    const double flex_rest = flex - flex_green;

                    // Drain backlog, oldest first, on leftover surplus.
                    while (surplus > 1e-12 && served < cap &&
                           !backlog.empty()) {
                        auto &entry = backlog.front();
                        const double runnable = std::min(
                            {entry.mwh.value() / dt, surplus,
                             cap - served});
                        if (runnable <= 1e-12)
                            break;
                        entry.mwh -= MegaWattHours(runnable * dt);
                        backlog_total[l] -= runnable * dt;
                        served += runnable;
                        surplus -= runnable;
                        if (entry.mwh.value() <= 1e-12)
                            backlog.popFront();
                    }

                    if (flex_rest > 0.0) {
                        // No surplus left for this flexible remainder:
                        // battery first, defer only what storage
                        // cannot cover. Work that does not fit under
                        // the capacity cap must defer regardless.
                        const double fits =
                            std::min(flex_rest, cap - served);
                        double deficit = fits;
                        if (has_b[l] != 0 && deficit > 0.0) {
                            battery_out = dischargeLane(l, deficit);
                            deficit -= battery_out;
                        }
                        const double defer =
                            (flex_rest - fits) + deficit;
                        if (defer > 0.0) {
                            backlog.pushBack(
                                {h + windowv[l],
                                 MegaWattHours(defer * dt)});
                            backlog_total[l] += defer * dt;
                            acc_deferred[l] += defer * dt;
                        }
                        served += flex_rest - defer;
                    }

                    if (has_b[l] != 0 && surplus > 1e-12)
                        battery_in = chargeLane(l, surplus);
                } else {
                    // Deficit: renewables cannot even cover mandatory
                    // work. Battery first, then defer flexible work,
                    // then the grid. Flexible work beyond the capacity
                    // cap must defer.
                    const double flex_fits =
                        std::min(flex, cap - served);
                    double deficit = served + flex_fits - lane_ren;
                    if (has_b[l] != 0) {
                        battery_out = dischargeLane(l, deficit);
                        deficit -= battery_out;
                    }
                    const double defer = (flex - flex_fits) +
                        (fwr[l] > 0.0 ? std::min(flex_fits, deficit)
                                      : 0.0);
                    if (defer > 0.0) {
                        backlog.pushBack(
                            {h + windowv[l],
                             MegaWattHours(defer * dt)});
                        backlog_total[l] += defer * dt;
                        acc_deferred[l] += defer * dt;
                    }
                    served += flex - defer;
                }

                // Carbon-arbitrage extension: top the battery up from
                // the grid whenever the grid is clean enough. This
                // energy counts as grid draw (it is not carbon-free),
                // so it trades coverage for lower operational carbon.
                double grid_charge = 0.0;
                if (grid_ch[l] != 0 && has_b[l] != 0 &&
                    inten_h <= grid_thr[l]) {
                    grid_charge = chargeLane(
                        l, std::numeric_limits<double>::max());
                    battery_in += grid_charge;
                    acc_grid_charge[l] += grid_charge * dt;
                }

                const double green_used = std::min(
                    lane_ren, served + (battery_in - grid_charge));
                const double grid =
                    std::max(served - lane_ren - battery_out, 0.0) +
                    grid_charge;

                acc_load[l] += load * dt;
                acc_served[l] += served * dt;
                acc_grid[l] += grid * dt;
                acc_ren_used[l] += green_used * dt;
                acc_ren_excess[l] +=
                    std::max(lane_ren - green_used, 0.0) * dt;
                acc_max_backlog[l] =
                    std::max(acc_max_backlog[l], backlog_total[l]);
                acc_peak[l] = std::max(acc_peak[l], served);
                // Same expression, same hour order as gridEmissions()
                // sums an hourly grid series (g/kWh == kg/MWh), so the
                // lane's operational carbon reconciles exactly.
                acc_carbon[l] += grid * inten_h;

                observer.hour(
                    l, h,
                    LaneHour{load, lane_ren, served, green_used, grid,
                             battery_in, battery_out, grid_charge,
                             inten_h, b_content[l], b_cap[l],
                             backlog_total[l], acc_deferred[l],
                             acc_violation[l]});
            }
        }
    }

    {
        CARBONX_PROFILE("sim/batch_drain");
        const double *b_usable = batch.bat_usable_.data();
        for (size_t l = 0; l < m; ++l) {
            BatchLaneResult &r = batch.results_[l];
            r.load_energy_mwh = MegaWattHours(acc_load[l]);
            r.served_energy_mwh = MegaWattHours(acc_served[l]);
            r.grid_energy_mwh = MegaWattHours(acc_grid[l]);
            r.renewable_used_mwh = MegaWattHours(acc_ren_used[l]);
            r.renewable_excess_mwh = MegaWattHours(acc_ren_excess[l]);
            r.deferred_mwh = MegaWattHours(acc_deferred[l]);
            r.max_backlog_mwh = MegaWattHours(acc_max_backlog[l]);
            r.residual_backlog_mwh = MegaWattHours(backlog_total[l]);
            r.slo_violation_mwh = MegaWattHours(acc_violation[l]);
            r.peak_power_mw = MegaWatts(acc_peak[l]);
            r.battery_cycles = b_usable[l] > 0.0
                ? b_discharged[l] / b_usable[l]
                : 0.0;
            r.grid_charge_mwh = MegaWattHours(acc_grid_charge[l]);
            // Clamped at zero: with grid charging enabled, battery
            // round-trip losses can push total grid draw past total
            // demand, and a negative "renewable coverage" is
            // meaningless. Without grid charging the clamp is inert.
            r.coverage_pct = acc_load[l] > 0.0
                ? std::max(0.0,
                           (1.0 - acc_grid[l] / acc_load[l]) * 100.0)
                : 100.0;
            r.operational_kg = KilogramsCo2(acc_carbon[l]);
        }
    }
    observer.end(batch);
    return calls;
}

template void BatchedSimulationEngine::run<NoObserver>(
    SimulationBatch &, NoObserver &) const;
template void BatchedSimulationEngine::run<RecordingObserver>(
    SimulationBatch &, RecordingObserver &) const;

BatchLaneResult
BatchedSimulationEngine::canaryResult()
{
    // One week of a small site, built so that every branch of the
    // heuristic runs: nights at the load peak with little wind drain
    // the battery and defer flexible work; deferred work maturing at
    // the peak under a cap half a slack below it overflows the SLO;
    // a clean pre-dawn window triggers grid charging.
    constexpr size_t kHours = 7 * kHoursPerDay;
    std::vector<double> load(kHours), solar(kHours), wind(kHours),
        intensity(kHours);
    for (size_t h = 0; h < kHours; ++h) {
        const size_t d = h % kHoursPerDay;
        const double hour = static_cast<double>(d);
        load[h] = d < 6 ? 12.0 : 9.0 + 0.25 * static_cast<double>(d % 6);
        solar[h] = d >= 8 && d < 18
            ? 1.0 - std::abs(hour - 13.0) / 6.0
            : 0.0;
        wind[h] = 0.1 * static_cast<double>((h * 7) % 10);
        intensity[h] = d >= 2 && d < 4 ? 100.0 : 450.0 + 10.0 * hour;
    }
    const BatchedSimulationEngine engine(0, load, solar, wind,
                                         intensity.data());

    static const BatteryChemistry chemistry =
        BatteryChemistry::lithiumIronPhosphate();
    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(25.0);
    lane.wind_mw = MegaWatts(4.0);
    lane.capacity_cap_mw = MegaWatts(12.0 - 0.5 * kCapacityCapSlackMw);
    lane.flexible_ratio = Fraction(0.6);
    lane.slo_window_hours = Hours(2.0);
    lane.battery_capacity_mwh = MegaWattHours(6.0);
    lane.chemistry = &chemistry;
    lane.grid_charge_policy = GridChargePolicy::BelowIntensityThreshold;
    lane.grid_charge_threshold_gkwh = GramsPerKwh(200.0);

    SimulationBatch batch(1);
    batch.addLane(lane);
    NoObserver none;
    engine.simulate(batch, none);
    return batch.result(0);
}

uint64_t
BatchedSimulationEngine::kernelFingerprint()
{
    static const uint64_t fingerprint = [] {
        const BatchLaneResult r = canaryResult();
        const std::array<double, 14> bits = {
            r.load_energy_mwh.value(),      r.served_energy_mwh.value(),
            r.grid_energy_mwh.value(),      r.renewable_used_mwh.value(),
            r.renewable_excess_mwh.value(), r.deferred_mwh.value(),
            r.max_backlog_mwh.value(),      r.residual_backlog_mwh.value(),
            r.slo_violation_mwh.value(),    r.peak_power_mw.value(),
            r.battery_cycles,               r.grid_charge_mwh.value(),
            r.coverage_pct,                 r.operational_kg.value()};
        return fnv1a64Bytes(bits.data(), sizeof(bits));
    }();
    return fingerprint;
}

} // namespace carbonx
