/**
 * @file
 * perfbench binary: one workload, one seed, one process, one worker
 * thread.
 *
 *   carbonx_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     --data DIR --work DIR [--reference FILE]
 *                     [--trace-out FILE] [--write-reference]
 *
 * A run sets the workload up several times (set-up time is the median),
 * runs one untimed study (the exact work counts, and the warm-up), then
 * studies in a closed loop for S seconds. The last
 * line on stdout is one JSON object: correct / attempted / failed and
 * the metrics — the end-to-end ones with --trace 0, the per-layer
 * ones with --trace 1.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "harness.h"

namespace perfbench
{

size_t
SpanLog::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    s.start_us =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

double
SpanLog::end(size_t id)
{
    const double now_us =
        std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    open_.pop_back();
    spans_[id].dur_us = now_us - spans_[id].start_us;
    return spans_[id].dur_us * 1e-6;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[96];
        std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                      s.start_us, s.dur_us);
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

CpuPicker::CpuPicker() : buffer_(size_t{1} << 17, 1.0)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
}

double
CpuPicker::probeSeconds()
{
    const auto t0 = Clock::now();
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    // Eight passes: about 0.3 ms on a quiet core, long enough to
    // average out sub-millisecond jitter.
    for (int pass = 0; pass < 8; ++pass) {
        for (size_t i = 0; i + 3 < buffer_.size(); i += 4) {
            s0 += buffer_[i] * 1.0000001;
            s1 += buffer_[i + 1] * 0.9999999;
            s2 += buffer_[i + 2] * 1.0000002;
            s3 += buffer_[i + 3] * 0.9999998;
        }
    }
    const double elapsed = secondsSince(t0);
    // Feed the sums back so the loop is not optimized away.
    buffer_[0] = 1.0 + (s0 + s1 + s2 + s3) * 1e-300;
    return elapsed;
}

void
CpuPicker::pinQuietest()
{
    if (cpus_.size() < 2)
        return;
    const auto t0 = Clock::now();
    const auto pin = [](int cpu) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        return sched_setaffinity(0, sizeof set, &set) == 0;
    };
    int best = -1;
    double best_s = 0.0;
    for (int cpu : cpus_) {
        if (!pin(cpu))
            continue;
        const double s = std::min(probeSeconds(), probeSeconds());
        if (best < 0 || s < best_s) {
            best = cpu;
            best_s = s;
        }
    }
    if (best >= 0)
        pin(best);
    spent_s_ += secondsSince(t0);
}

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = 2020;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir;
    std::string work_dir;
    std::string reference;
    std::string trace_out;
    bool write_reference = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-reference") {
            a.write_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--data")
            a.data_dir = v;
        else if (flag == "--work")
            a.work_dir = v;
        else if (flag == "--reference")
            a.reference = v;
        else if (flag == "--trace-out")
            a.trace_out = v;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (a.data_dir.empty() || a.work_dir.empty())
        throw std::runtime_error("--data and --work are required");
    if (a.reference.empty())
        a.reference = a.data_dir + "/data/reference.json";
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
countsJson(const Counts &c)
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto &[name, value] : c.named()) {
        os << (first ? "" : ", ") << '"' << name << "\": " << value;
        first = false;
    }
    os << '}';
    return os.str();
}

/** Tally of studies and their check failures. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void add(const StudyResult &r)
    {
        ++attempted;
        if (!r.failures.empty()) {
            ++failed;
            for (const std::string &f : r.failures)
                std::cerr << "perfbench: FAIL " << f << '\n';
        }
    }
};

int
run(const Args &args)
{
    carbonx::setThreadCount(1);
    WorkloadContext ctx;
    ctx.seed = args.seed;
    ctx.data_dir = args.data_dir;
    ctx.work_dir = args.work_dir;
    ctx.reference = args.reference;
    CpuPicker cpus;
    ctx.cpus = &cpus;

    if (args.write_reference) {
        writeReference(ctx);
        return 0;
    }
    if (!makeWorkload(args.workload, ctx)) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    // Prologue, repeated on fresh objects until at least three set-ups
    // and a second were measured; set-up time is their median.
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (double total = 0.0;
         setups.size() < 3 || (total < 1.0 && setups.size() < 100);) {
        if (w)
            w->teardown();
        w = makeWorkload(args.workload, ctx);
        cpus.pinQuietest();
        const double probing0 = cpus.secondsSpent();
        const auto t0 = Clock::now();
        w->setup();
        setups.push_back(secondsSince(t0) -
                         (cpus.secondsSpent() - probing0));
        total += setups.back();
    }

    // One untimed study: the exact work counts every later study must
    // repeat, and the warm-up.
    Tally tally;
    const StudyResult baseline = w->study();
    tally.add(baseline);
    const Counts pass = baseline.counts;
    std::cerr << "perfbench: " << args.workload << " seed " << args.seed
              << " counts per study " << countsJson(pass) << '\n';

    std::vector<double> times; // Study seconds: the sum of its parts.
    std::vector<std::vector<double>> parts;
    uint64_t points = 0;
    std::map<std::string, std::vector<double>> layers;
    std::vector<double> overhead;
    SpanLog log;
    const auto loop0 = Clock::now();
    while (times.empty() || secondsSince(loop0) < args.seconds) {
        StudyResult r = w->study();
        double study = 0.0;
        for (double t : r.part_seconds)
            study += t;
        times.push_back(study);
        parts.push_back(r.part_seconds);
        points += r.points;
        if (!(r.counts == pass))
            r.failures.push_back("work counts changed: " +
                                 countsJson(r.counts) + " vs " +
                                 countsJson(pass));
        tally.add(r);
        if (!args.trace)
            continue;
        const LayerSample s = w->tracedStudy(log);
        for (const auto &[name, value] : s)
            layers[name].push_back(value);
        overhead.push_back(100.0 * (s.at("study_s") / study - 1.0));
    }
    w->teardown();

    double timed = 0.0;
    for (double t : times)
        timed += t;
    // Each part's fastest time in the run, summed over the parts.
    double best = 0.0;
    for (size_t k = 0; k < parts.front().size(); ++k) {
        double part_best = parts.front()[k];
        for (const auto &study : parts)
            part_best = std::min(part_best, study[k]);
        best += part_best;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ostringstream metrics;
    auto metric = [&metrics, first = true](const std::string &name,
                                                 double value,
                                                 const char *unit) mutable {
        metrics << (first ? "" : ", ") << '"' << name
                << "\": {\"value\": " << num(value) << ", \"unit\": \""
                << unit << "\"}";
        first = false;
    };
    if (!args.trace) {
        metric("setup_s", median(setups), "s");
        metric("study_ms_best", 1e3 * best, "ms");
        metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
               "MB");
        metric("pass_ratio",
               1.0 - static_cast<double>(tally.failed) /
                         static_cast<double>(tally.attempted),
               "ratio");
    } else {
        for (const auto &[name, unit] : layerMetrics())
            metric(name, median(layers[name]), unit.c_str());
        for (const auto &[name, value] : pass.named())
            metric(name, static_cast<double>(value), "count");
        metric("trace.overhead_pct", median(overhead), "%");
        if (!args.trace_out.empty())
            log.writeChromeTrace(args.trace_out);
    }

    // The host's load moves these by up to 30% from run to run, so
    // they are context here, not metrics.
    std::cerr << "perfbench: " << times.size() << " timed studies in "
              << num(timed) << " s: median " << 1e3 * median(times)
              << " ms, " << static_cast<double>(points) / timed
              << " points/s; " << setups.size() << " set-ups\n";
    std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
