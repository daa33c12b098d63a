/**
 * @file
 * Shared pieces of the perfbench binary: exact work counts, the
 * in-memory span log of the traced run, and the workload interface.
 *
 * A workload has the prologue / loop / epilogue shape: an untimed
 * setup(), a study() main() times in a loop, and an untimed
 * teardown(). Every study checks its own answers.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Deterministic work counts, read from the library's always-on
 * counters (obs::counter and the common layer's hot counters). Two
 * runs of one binary on one seed must produce identical counts; a
 * difference is a behaviour change, never noise.
 */
struct Counts
{
    uint64_t lane_hours = 0;          ///< sim.hours_simulated
    uint64_t points_simulated = 0;    ///< sim.batch_lanes + sim.runs
    uint64_t points_interpolated = 0; ///< sweep.points_skipped
    uint64_t cache_hits = 0;          ///< result_cache.hits
    uint64_t cache_misses = 0;        ///< result_cache.misses
    uint64_t cache_inserts = 0;       ///< result_cache.inserts
    uint64_t battery_calls = 0;       ///< battery.{charge,discharge}_calls
    uint64_t audit_checks = 0;        ///< Summed by the workload.

    /** Current counter values (audit_checks left at 0). */
    static Counts now();

    Counts operator-(const Counts &o) const;
    Counts &operator+=(const Counts &o);
    bool operator==(const Counts &o) const = default;

    /** (name, value) pairs under the count.* metric names. */
    std::vector<std::pair<std::string, uint64_t>> named() const;
};

/**
 * Spans recorded in memory by the benchmark's own code around calls
 * into the library, written out as Chrome trace JSON at the end of a
 * traced run. Nesting follows call order: a span's parent is the
 * innermost span open when it started.
 */
class SpanLog
{
  public:
    /** Run @p f inside a span named @p name; returns its seconds. */
    template <class F> double time(const std::string &name, F &&f)
    {
        const size_t id = begin(name);
        f();
        return end(id);
    }

    /** Write every span as Chrome trace_event JSON to @p path. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        long parent = -1;
        double start_us = 0.0;
        double dur_us = 0.0;
    };

    size_t begin(const std::string &name);
    double end(size_t id);

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/**
 * Moves the process to the quietest allowed CPU before each timed
 * part. On a shared host another tenant on the same physical core
 * slows a vCPU by up to 1.8x, each core on its own, for moments or for
 * minutes. A short probe on every allowed CPU finds the one that runs
 * it fastest right now. The probe streams 1 MiB of doubles through
 * multiply-adds, which that contention slows much as it slows the
 * batched kernel.
 */
class CpuPicker
{
  public:
    CpuPicker();

    /** Pin the calling thread to the quietest allowed CPU. */
    void pinQuietest();

    /** Seconds spent in pinQuietest() so far. */
    double secondsSpent() const { return spent_s_; }

  private:
    double probeSeconds();

    std::vector<int> cpus_;
    std::vector<double> buffer_;
    double spent_s_ = 0.0;
};

/** What one timed study did and whether its answers held. */
struct StudyResult
{
    /** Design points answered: simulated, interpolated or replayed. */
    uint64_t points = 0;
    /** Wall seconds of each input's part of the study, in order. */
    std::vector<double> part_seconds;
    Counts counts;
    /** One line per failed check; empty means the study passed. */
    std::vector<std::string> failures;
};

/**
 * Time one part of a study: move to the quietest CPU (untimed), run
 * @p f and append its wall seconds to out.part_seconds. A study's time
 * is the sum of its parts, so probing, checks and bookkeeping between
 * parts are not in it.
 */
template <class F>
void
timePart(CpuPicker *cpus, StudyResult &out, F &&f)
{
    if (cpus != nullptr)
        cpus->pinQuietest();
    const auto t0 = Clock::now();
    f();
    out.part_seconds.push_back(secondsSince(t0));
}

/** Per-layer metrics of one traced study, by metric name. */
using LayerSample = std::map<std::string, double>;

/** Inputs shared by every workload. */
struct WorkloadContext
{
    uint64_t seed = 0;
    std::string data_dir;  ///< perfbench/ (scenarios/, data/).
    std::string work_dir;  ///< Scratch directory owned by this run.
    std::string reference; ///< Reference answers file.
    CpuPicker *cpus = nullptr; ///< Borrowed; pinQuietest() per part.
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed prologue; may be repeated on fresh objects. */
    virtual void setup() = 0;

    /** One timed study: a pass over every input; checks its answers. */
    virtual StudyResult study() = 0;

    /**
     * The same work as study() plus direct calls into each layer,
     * every call bracketed by a span. Answers are not checked here;
     * the untimed study next to it in the traced run checks them.
     * @return the layer metrics of this study; "study_s" holds the
     *         seconds of the calls an untraced study makes.
     */
    virtual LayerSample tracedStudy(SpanLog &log) = 0;

    /** Untimed epilogue: removes what setup and studies wrote. */
    virtual void teardown() = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadContext &ctx);

/** Every per-layer metric name a traced run reports, with its unit. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/**
 * Write the reference answers of every workload at @p ctx.seed to
 * ctx.reference (regenerates data/reference.json).
 */
void writeReference(const WorkloadContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
