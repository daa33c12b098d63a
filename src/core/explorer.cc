#include "explorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "carbon/operational.h"
#include "common/error.h"
#include "common/csv.h"
#include "common/fnv.h"
#include "common/tolerances.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/adaptive_sweep.h"
#include "grid/balancing_authority.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{

namespace
{

/** Build the load trace for a config. */
LoadTrace
makeLoadTrace(const ExplorerConfig &config)
{
    LoadModelParams params = config.load_params;
    params.avg_power_mw = config.avg_dc_power_mw.value();
    const DatacenterLoadModel model(params);
    return model.generate(config.year, config.seed);
}

/** Build the grid trace for a config. */
GridTrace
makeGridTrace(const ExplorerConfig &config)
{
    const auto &profile =
        BalancingAuthorityRegistry::instance().lookup(config.ba_code);
    const GridSynthesizer synth(profile, config.seed);
    return synth.synthesize(config.year);
}

/** Wrap external traces in a GridTrace (mix/demand left empty). */
GridTrace
traceFromExternal(const ExternalTraces &traces)
{
    GridTrace trace(traces.dc_power.year());
    trace.intensity = traces.intensity;
    trace.solar_potential = traces.solar_shape;
    trace.wind_potential = traces.wind_shape;
    return trace;
}

/** Simulate @p lane alone in a 1-lane batch of @p engine. */
template <class Observer>
BatchLaneResult
runLane(const BatchedSimulationEngine &engine, const BatchLaneConfig &lane,
        Observer &observer)
{
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch, observer);
    return batch.result(0);
}

/** Wrap an external load series in a LoadTrace. */
LoadTrace
loadFromExternal(const ExternalTraces &traces)
{
    LoadTrace trace(traces.dc_power.year());
    trace.power = traces.dc_power;
    trace.utilization = traces.dc_power.scaledToMax(1.0);
    return trace;
}

} // namespace

ExternalTraces
ExternalTraces::fromCsv(const std::string &path, int year)
{
    CARBONX_SPAN("explorer/load_external_traces");
    inform("loading external traces from " + path +
           "; solar/wind columns are rescaled to per-unit shapes");
    const CsvTable csv = CsvTable::readFile(path);
    const HourlyCalendar calendar(year);
    require(csv.numRows() == calendar.hoursInYear(),
            "trace CSV must have one row per hour of the year");
    TimeSeries load(year, csv.numericColumn("dc_power_mw"));
    TimeSeries solar(year, csv.numericColumn("solar_mw"));
    TimeSeries wind(year, csv.numericColumn("wind_mw"));
    TimeSeries intensity(year,
                         csv.numericColumn("intensity_g_per_kwh"));
    // Dead generation columns are almost always an export bug (wrong
    // units, empty join), so reject them here with the column name
    // instead of letting scaledToMax produce a cryptic error. A region
    // that really lacks a resource can construct ExternalTraces
    // directly with an all-zero shape.
    require(solar.max() > 0.0,
            "trace CSV column solar_mw has no positive values; cannot "
            "derive a per-unit solar shape from " + path);
    require(wind.max() > 0.0,
            "trace CSV column wind_mw has no positive values; cannot "
            "derive a per-unit wind shape from " + path);
    return ExternalTraces(std::move(load), solar.scaledToMax(1.0),
                          wind.scaledToMax(1.0), std::move(intensity));
}

CarbonExplorer::CarbonExplorer(ExplorerConfig config)
    : config_(std::move(config)), grid_trace_(makeGridTrace(config_)),
      load_trace_(makeLoadTrace(config_)),
      solar_shape_(perUnitShape(grid_trace_.solar_potential)),
      wind_shape_(perUnitShape(grid_trace_.wind_potential)),
      coverage_(load_trace_.power, solar_shape_, wind_shape_),
      embodied_(config_.renewable_embodied, config_.server_spec),
      peak_power_mw_(load_trace_.power.max())
{
    require(config_.flexible_ratio.value() >= 0.0 &&
                config_.flexible_ratio.value() <= 1.0,
            "flexible ratio must be in [0, 1]");
}

CarbonExplorer::CarbonExplorer(ExplorerConfig config,
                               const ExternalTraces &traces)
    : config_(std::move(config)), grid_trace_(traceFromExternal(traces)),
      load_trace_(loadFromExternal(traces)),
      solar_shape_(traces.solar_shape), wind_shape_(traces.wind_shape),
      coverage_(load_trace_.power, solar_shape_, wind_shape_),
      embodied_(config_.renewable_embodied, config_.server_spec),
      peak_power_mw_(load_trace_.power.max())
{
    require(config_.flexible_ratio.value() >= 0.0 &&
                config_.flexible_ratio.value() <= 1.0,
            "flexible ratio must be in [0, 1]");
    require(traces.dc_power.year() == traces.intensity.year() &&
                traces.dc_power.year() == traces.solar_shape.year() &&
                traces.dc_power.year() == traces.wind_shape.year(),
            "external traces must cover the same year");
}

uint64_t
CarbonExplorer::configDigest(Strategy strategy) const
{
    // Canonical, version-tagged serialization of every input an
    // Evaluation depends on. Field order and widths are part of the
    // format: any change must bump the version tag below so caches
    // written by older builds rebuild instead of matching spuriously.
    std::string buf;
    buf.reserve(512);
    const auto raw = [&buf](const auto &value) {
        buf.append(reinterpret_cast<const char *>(&value),
                   sizeof(value));
    };
    const auto str = [&](const std::string &s) {
        raw(static_cast<uint64_t>(s.size()));
        buf += s;
    };

    // v2: grid-charging policy/threshold joined the evaluation inputs.
    str("carbonx-sweep-config-v2");
    str(config_.ba_code);
    raw(static_cast<int64_t>(config_.year));
    raw(config_.seed);
    raw(config_.avg_dc_power_mw.value());
    raw(config_.flexible_ratio.value());
    raw(config_.slo_window_hours.value());

    const BatteryChemistry &chem = config_.chemistry;
    str(chem.name);
    raw(chem.charge_efficiency);
    raw(chem.discharge_efficiency);
    raw(chem.max_charge_c_rate);
    raw(chem.max_discharge_c_rate);
    raw(chem.depth_of_discharge);
    raw(chem.embodied_kg_per_kwh);
    raw(static_cast<uint64_t>(chem.cycle_life.size()));
    for (const CycleLifePoint &p : chem.cycle_life) {
        raw(p.depth_of_discharge);
        raw(p.cycles);
    }
    raw(chem.calendar_life_years);

    raw(config_.renewable_embodied.wind_g_per_kwh.value());
    raw(config_.renewable_embodied.solar_g_per_kwh.value());
    raw(config_.renewable_embodied.wind_lifetime_years);
    raw(config_.renewable_embodied.solar_lifetime_years);
    raw(static_cast<int32_t>(config_.attribution));
    raw(static_cast<int32_t>(config_.grid_charge_policy));
    raw(config_.grid_charge_threshold_gkwh.value());

    raw(config_.server_spec.tdp_watts);
    raw(config_.server_spec.idle_fraction);
    raw(config_.server_spec.embodied_kg_co2);
    raw(config_.server_spec.lifetime_years);
    raw(config_.server_spec.infrastructure_multiplier);

    raw(config_.load_params.avg_power_mw);
    raw(config_.load_params.util_mean);
    raw(config_.load_params.util_swing);
    raw(config_.load_params.weekend_dip);
    raw(config_.load_params.util_noise);
    raw(config_.load_params.idle_power_fraction);
    raw(config_.load_params.peak_hour);

    raw(static_cast<int32_t>(strategy));

    // Fold in the actual trace content (not just its parameters):
    // external traces have no generating config, and even synthetic
    // ones could drift across generator changes. Bit-equal digests
    // then really do imply bit-equal evaluation inputs.
    uint64_t digest = fnv1a64String(buf);
    const auto fold = [&digest](const TimeSeries &series) {
        const int32_t series_year = series.year();
        digest =
            fnv1a64Bytes(&series_year, sizeof(series_year), digest);
        const std::span<const double> values = series.values();
        digest = fnv1a64Bytes(values.data(),
                              values.size() * sizeof(double), digest);
    };
    fold(load_trace_.power);
    fold(grid_trace_.intensity);
    fold(solar_shape_);
    fold(wind_shape_);
    return digest;
}

BatchLaneConfig
CarbonExplorer::laneConfig(const DesignPoint &point,
                           Strategy strategy) const
{
    BatchLaneConfig lane;
    lane.solar_mw = point.solar_mw;
    lane.wind_mw = point.wind_mw;
    lane.capacity_cap_mw = MegaWatts(
        peak_power_mw_.value() * (1.0 + (strategyUsesCas(strategy)
                                             ? point.extra_capacity
                                                   .value()
                                             : 0.0)));
    lane.flexible_ratio = strategyUsesCas(strategy)
        ? config_.flexible_ratio
        : Fraction(0.0);
    lane.slo_window_hours = config_.slo_window_hours;
    // A lane has a battery exactly when the strategy uses storage and
    // the point sizes it above zero; grid charging needs a battery.
    if (strategyUsesBattery(strategy) &&
        point.battery_mwh.value() > 0.0) {
        lane.battery_capacity_mwh = point.battery_mwh;
        lane.chemistry = &config_.chemistry;
        lane.grid_charge_policy = config_.grid_charge_policy;
        lane.grid_charge_threshold_gkwh =
            config_.grid_charge_threshold_gkwh;
    }
    return lane;
}

BatchedSimulationEngine
CarbonExplorer::engine() const
{
    // The intensity series is always attached: the kernel accumulates
    // each lane's operational carbon inline, and explain() recordings
    // get their carbon column with no per-call-site plumbing.
    return BatchedSimulationEngine(load_trace_.power, solar_shape_,
                                   wind_shape_, &grid_trace_.intensity);
}

Evaluation
CarbonExplorer::evaluationFrom(const DesignPoint &point, Strategy strategy,
                               const BatchLaneResult &lane) const
{
    Evaluation eval;
    eval.point = point;
    eval.strategy = strategy;
    eval.coverage_pct = lane.coverage_pct;
    eval.operational_kg = lane.operational_kg;

    // Renewable embodied carbon follows generated energy (LCA per-kWh
    // footprints amortize manufacturing over lifetime generation).
    // Under ConsumedEnergy attribution only the energy the DC used is
    // charged (its PPA share, split pro-rata between solar and wind);
    // under WholeFarm the full generation is charged.
    const MegaWattHours solar_gen_mwh(
        solar_shape_.total() * point.solar_mw.value());
    const MegaWattHours wind_gen_mwh(
        wind_shape_.total() * point.wind_mw.value());
    double solar_attr = solar_gen_mwh.value();
    double wind_attr = wind_gen_mwh.value();
    if (config_.attribution == RenewableAttribution::ConsumedEnergy) {
        const double total_gen =
            solar_gen_mwh.value() + wind_gen_mwh.value();
        if (total_gen > 0.0 &&
            lane.renewable_used_mwh.value() >
                total_gen * (1.0 + kUnitIntervalSlack)) {
            warn("renewable energy used exceeds farm generation (" +
                 formatFixed(lane.renewable_used_mwh.value(), 1) +
                 " > " + formatFixed(total_gen, 1) +
                 " MWh); clamping attribution to the whole farm");
        }
        const double used_fraction = total_gen > 0.0
            ? std::min(lane.renewable_used_mwh.value() / total_gen, 1.0)
            : 0.0;
        solar_attr *= used_fraction;
        wind_attr *= used_fraction;
    }
    eval.embodied_solar_kg =
        embodied_.solarAnnual(MegaWattHours(solar_attr));
    eval.embodied_wind_kg =
        embodied_.windAnnual(MegaWattHours(wind_attr));

    if (strategyUsesBattery(strategy) &&
        point.battery_mwh.value() > 0.0) {
        const double days =
            static_cast<double>(load_trace_.power.calendar().daysInYear());
        const double cycles_per_day = lane.battery_cycles / days;
        eval.embodied_battery_kg = embodied_.batteryAnnual(
            point.battery_mwh, config_.chemistry, cycles_per_day);
    }
    if (strategyUsesCas(strategy)) {
        eval.embodied_server_kg = embodied_.extraServersAnnual(
            peak_power_mw_, point.extra_capacity);
    }

    eval.battery_cycles = lane.battery_cycles;
    eval.deferred_mwh = lane.deferred_mwh;
    eval.renewable_excess_mwh = lane.renewable_excess_mwh;
    return eval;
}

SimulationResult
CarbonExplorer::simulate(const DesignPoint &point, Strategy strategy) const
{
    CARBONX_SPAN("explorer/simulate");
    obs::counter("explorer.simulations").increment();
    SimulationResult result(load_trace_.power.year());
    RecordingObserver observer(result);
    runLane(engine(), laneConfig(point, strategy), observer);
    return result;
}

Evaluation
CarbonExplorer::evaluate(const DesignPoint &point, Strategy strategy) const
{
    CARBONX_SPAN("explorer/evaluate");
    obs::counter("explorer.evaluations").increment();
    NoObserver none;
    return evaluationFrom(
        point, strategy,
        runLane(engine(), laneConfig(point, strategy), none));
}

ExplainResult
CarbonExplorer::explain(const DesignPoint &point, Strategy strategy) const
{
    CARBONX_SPAN("explorer/explain");
    CARBONX_PROFILE("explorer/explain");
    obs::counter("explorer.explains").increment();

    ExplainResult out{Evaluation{},
                      SimulationResult(load_trace_.power.year()),
                      obs::FlightRecorder{}};
    const BatchLaneConfig lane = laneConfig(point, strategy);
    RecordingObserver observer(out.simulation, &out.recording);
    out.evaluation = evaluationFrom(point, strategy,
                                    runLane(engine(), lane, observer));
    out.capacity_cap_mw = lane.capacity_cap_mw;
    out.battery_capacity_mwh = lane.battery_capacity_mwh;
    out.grid_only_kg = OperationalCarbonModel::gridEmissions(
        load_trace_.power, grid_trace_.intensity);
    return out;
}

OptimizationResult
CarbonExplorer::optimize(const DesignSpace &space, Strategy strategy) const
{
    return AdaptiveSweeper(*this, {1}).sweep(space, strategy).result;
}

OptimizationResult
CarbonExplorer::optimizeRefined(const DesignSpace &space,
                                Strategy strategy, int rounds) const
{
    return AdaptiveSweeper(*this, {1})
        .sweepRefined(space, strategy, rounds)
        .result;
}

namespace
{

/**
 * Lane waves each worker runs between two checkpoints. Enough that
 * the flush is noise next to the simulation it persists, few enough
 * that a kill loses seconds of work, not the sweep.
 */
constexpr size_t kCheckpointWavesPerWorker = 4;

/** Journal point id of @p point (same bytes as the cache key). */
uint64_t
journalPointId(const DesignPoint &point)
{
    return obs::decisionPointId(
        {point.solar_mw.value(), point.wind_mw.value(),
         point.battery_mwh.value(), point.extra_capacity.value()});
}

constexpr double kJournalNan = std::numeric_limits<double>::quiet_NaN();

/**
 * Per-worker scratch for the design-space sweep: one SoA simulation
 * batch, reused across every wave the worker evaluates so the hot
 * loop allocates nothing once its backlog queues have warmed up.
 */
struct SweepWorkspace
{
    SimulationBatch batch{SweepBatchEvaluator::kLanesPerWave};
};

} // namespace

struct SweepBatchEvaluator::Workspaces
{
    BatchedSimulationEngine engine;
    std::vector<SweepWorkspace> per_worker;

    Workspaces(const BatchedSimulationEngine &kernel, size_t worker_ids)
        : engine(kernel), per_worker(worker_ids)
    {
    }
};

SweepBatchEvaluator::SweepBatchEvaluator(const CarbonExplorer &explorer,
                                         Strategy strategy)
    : explorer_(explorer), strategy_(strategy)
{
    // One workspace per possible worker id (the caller is id 0, pool
    // workers are 1..N-1), so no two workers ever share scratch. The
    // engine itself is shared: run() is const and only touches the
    // worker's own batch.
    const size_t worker_ids = std::max<size_t>(threadCount(), 1);
    workspaces_ =
        std::make_unique<Workspaces>(explorer_.engine(), worker_ids);
}

SweepBatchEvaluator::~SweepBatchEvaluator() = default;

void
SweepBatchEvaluator::evaluate(const DesignPoint *points, size_t count,
                              Evaluation *out,
                              obs::SweepProgressEmitter *emitter)
{
    CARBONX_PROFILE("sweep/batch");
    static auto &c_points = obs::counter("explorer.points_evaluated");
    static auto &h_point = obs::latency("explorer.point_eval_us");
    static auto &c_hits = obs::counter("sweep.cache_hits");

    SweepResultCache *cache = explorer_.sweep_cache_;
    obs::DecisionJournal *journal = explorer_.journal_;
    obs::RunStatus *status = explorer_.run_status_;
    if (journal != nullptr)
        journal->ensureSinks(workspaces_->per_worker.size());

    // Serial cache pass on the coordinating thread; the cache needs
    // no locking because workers never touch it. Cache replays are
    // journaled here (worker 0, no wave of their own): the cached
    // total is the "actual", there was never a prediction.
    std::vector<size_t> misses;
    misses.reserve(count);
    {
        CARBONX_PROFILE("sweep/cache_lookup");
        const uint64_t ts =
            journal != nullptr ? journal->nowUs() : 0;
        for (size_t i = 0; i < count; ++i) {
            if (cache != nullptr &&
                cache->find(points[i], strategy_, &out[i])) {
                ++cache_hits_;
                if (journal != nullptr) {
                    obs::DecisionRow row;
                    row.point_id = journalPointId(points[i]);
                    row.wave = journal->nextWave();
                    row.verdict = obs::DecisionVerdict::CacheHit;
                    row.predicted_kg = kJournalNan;
                    row.actual_kg = out[i].totalKg().value();
                    row.margin_kg = kJournalNan;
                    row.ts_us = ts;
                    journal->sink(0).record(row);
                }
                if (emitter != nullptr)
                    emitter->add(out[i].totalKg().value());
            } else {
                misses.push_back(i);
            }
        }
        if (cache != nullptr)
            c_hits.increment(count - misses.size());
    }

    // Misses shard into fixed-size lane waves: each worker fills its
    // whole wave into its SoA batch and one batched engine pass
    // advances every lane through the hourly trace together. Per-lane
    // supply is evaluated inline from the shared shapes inside the
    // kernel, so no supply series is ever expanded. Wave order is the
    // miss order and out-slots are fixed, so the merged results are
    // bit-identical at any thread count.
    static auto &g_batch = obs::gauge("sweep.batch_size");
    g_batch.set(static_cast<double>(kLanesPerWave));

    // Annotations cover exactly one evaluate() call.
    const PointAnnotation *annotations = annotations_;
    annotations_ = nullptr;

    const CarbonExplorer &ex = explorer_;
    std::vector<SweepWorkspace> &workspaces = workspaces_->per_worker;
    const BatchedSimulationEngine &engine = workspaces_->engine;
    // Misses run in checkpoint intervals, so the work a kill can lose
    // is bounded however many points the caller passes; the last (or
    // only, when everything hit the cache) interval ends the call.
    const size_t interval = checkpointInterval();
    size_t m0 = 0;
    do {
        const size_t m1 = std::min(misses.size(), m0 + interval);
        const size_t waves =
            (m1 - m0 + kLanesPerWave - 1) / kLanesPerWave;
        // Wave ids are claimed from the journal before the parallel
        // region launches: the journal's counter spans the whole run,
        // so ids stay unique even though every sweep pass constructs
        // a fresh evaluator.
        const uint32_t wave_base = journal != nullptr
            ? journal->claimWaves(static_cast<uint32_t>(waves))
            : 0;
        parallelFor(0, waves, 1, [&](size_t wave, size_t worker) {
            CARBONX_PROFILE("sweep/run_group");
            SweepWorkspace &ws = workspaces[worker];
            const size_t i0 = m0 + wave * kLanesPerWave;
            const size_t i1 = std::min(m1, i0 + kLanesPerWave);
            const auto run_start = std::chrono::steady_clock::now();
            {
                CARBONX_PROFILE("sweep/batch_fill");
                ws.batch.clear();
                for (size_t i = i0; i < i1; ++i)
                    ws.batch.addLane(
                        ex.laneConfig(points[misses[i]], strategy_));
            }
            engine.run(ws.batch);
            // One timestamp per wave keeps journaling off the
            // per-point path; rows go into this worker's private
            // sink, so no other worker ever touches the same buffer.
            const uint64_t wave_ts =
                journal != nullptr ? journal->nowUs() : 0;
            for (size_t i = i0; i < i1; ++i) {
                const size_t idx = misses[i];
                out[idx] = ex.evaluationFrom(points[idx], strategy_,
                                             ws.batch.result(i - i0));
                if (journal != nullptr) {
                    const PointAnnotation *ann = annotations != nullptr
                        ? &annotations[idx]
                        : nullptr;
                    obs::DecisionRow row;
                    row.point_id = journalPointId(points[idx]);
                    row.wave =
                        wave_base + static_cast<uint32_t>(wave);
                    row.worker = static_cast<uint16_t>(worker);
                    row.lane = static_cast<uint16_t>(i - i0);
                    row.verdict = ann != nullptr
                        ? ann->verdict
                        : obs::DecisionVerdict::Evaluated;
                    row.predicted_kg = ann != nullptr ? ann->predicted_kg
                                                      : kJournalNan;
                    row.actual_kg = out[idx].totalKg().value();
                    row.margin_kg =
                        ann != nullptr ? ann->margin_kg : kJournalNan;
                    row.ts_us = wave_ts;
                    journal->sink(worker).record(row);
                }
                if (emitter != nullptr)
                    emitter->add(out[idx].totalKg().value());
            }
            if (status != nullptr)
                status->noteWave(worker, i1 - i0);
            // Point latency is sampled once per wave (mean over its
            // lanes) — one clock read and one histogram lock instead
            // of one per design point.
            const std::chrono::duration<double, std::micro> run_us =
                std::chrono::steady_clock::now() - run_start;
            h_point.record(run_us.count() /
                           static_cast<double>(i1 - i0));
            c_points.increment(i1 - i0);
        });

        simulated_points_ += m1 - m0;
        ex.fresh_simulated_points_ += m1 - m0;
        if (cache != nullptr) {
            for (size_t i = m0; i < m1; ++i)
                cache->insert(out[misses[i]]);
        }
        checkpoint();
        m0 = m1;
    } while (m0 < misses.size());
}

size_t
SweepBatchEvaluator::checkpointInterval() const
{
    return kLanesPerWave * kCheckpointWavesPerWorker *
        workspaces_->per_worker.size();
}

void
SweepBatchEvaluator::checkpoint()
{
    SweepResultCache *cache = explorer_.sweep_cache_;
    if (cache != nullptr)
        cache->flush();
    if (explorer_.journal_ != nullptr)
        explorer_.journal_->flush();
    // The abort hook fires only after the flush above, so everything
    // this sweep simulated is already durable when the exception
    // unwinds — the contract the resume tests rely on.
    if (explorer_.abort_after_points_ > 0 &&
        explorer_.fresh_simulated_points_ >=
            explorer_.abort_after_points_) {
        throw SweepAborted(explorer_.fresh_simulated_points_,
                           cache != nullptr ? cache->path()
                                            : std::string());
    }
}

std::vector<Evaluation>
OptimizationResult::paretoSet() const
{
    std::vector<ParetoPoint> points;
    points.reserve(evaluated.size());
    for (size_t i = 0; i < evaluated.size(); ++i) {
        points.push_back(
            ParetoPoint{evaluated[i].embodiedKg(),
                        evaluated[i].operational_kg, i});
    }
    std::vector<Evaluation> out;
    for (const auto &p : paretoFrontier(points))
        out.push_back(evaluated[p.tag]);
    return out;
}

MegaWattHours
CarbonExplorer::minimumBatteryForCoverage(MegaWatts solar_mw,
                                          MegaWatts wind_mw,
                                          double target_pct,
                                          MegaWattHours max_mwh) const
{
    CARBONX_SPAN("explorer/min_battery_bisect");
    if (max_mwh.value() < 0.0)
        max_mwh = MegaWattHours(100.0 * config_.avg_dc_power_mw.value());

    // Renewables plus battery at the load-peak cap: no deferral and
    // no grid charging, whatever the configuration says.
    const BatchedSimulationEngine kernel = engine();
    BatchLaneConfig lane;
    lane.solar_mw = solar_mw;
    lane.wind_mw = wind_mw;
    lane.capacity_cap_mw = peak_power_mw_;
    lane.chemistry = &config_.chemistry;
    NoObserver none;

    auto coverageAt = [&](double mwh) {
        if (mwh <= 0.0)
            return coverage_.coverage(solar_mw, wind_mw);
        lane.battery_capacity_mwh = MegaWattHours(mwh);
        return runLane(kernel, lane, none).coverage_pct;
    };

    if (coverageAt(max_mwh.value()) < target_pct) {
        warn("coverage target " + formatFixed(target_pct, 3) +
             "% unreachable with batteries up to " +
             formatFixed(max_mwh.value(), 0) + " MWh; returning -1");
        return MegaWattHours(-1.0);
    }
    double lo = 0.0;
    double hi = max_mwh.value();
    for (int iter = 0; iter < 50; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (coverageAt(mid) >= target_pct)
            hi = mid;
        else
            lo = mid;
    }
    return MegaWattHours(hi);
}

Fraction
CarbonExplorer::minimumExtraCapacityForCoverage(MegaWatts solar_mw,
                                                MegaWatts wind_mw,
                                                double target_pct,
                                                Fraction max_extra) const
{
    CARBONX_SPAN("explorer/min_extra_capacity_bisect");
    // Renewables plus carbon-aware deferral, no battery.
    const BatchedSimulationEngine kernel = engine();
    BatchLaneConfig lane;
    lane.solar_mw = solar_mw;
    lane.wind_mw = wind_mw;
    lane.flexible_ratio = config_.flexible_ratio;
    lane.slo_window_hours = config_.slo_window_hours;
    NoObserver none;

    auto coverageAt = [&](double extra) {
        lane.capacity_cap_mw =
            MegaWatts(peak_power_mw_.value() * (1.0 + extra));
        return runLane(kernel, lane, none).coverage_pct;
    };

    if (coverageAt(max_extra.value()) < target_pct) {
        warn("coverage target " + formatFixed(target_pct, 3) +
             "% unreachable with extra capacity up to " +
             formatFixed(max_extra.percent(), 0) + "%; returning -1");
        return Fraction(-1.0);
    }
    double lo = 0.0;
    double hi = max_extra.value();
    for (int iter = 0; iter < 50; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (coverageAt(mid) >= target_pct)
            hi = mid;
        else
            lo = mid;
    }
    return Fraction(hi);
}

} // namespace carbonx
