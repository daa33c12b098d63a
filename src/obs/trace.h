/**
 * @file
 * Chrome trace_event sink for CARBONX_SCOPE (obs/scope.h).
 *
 * Every scope that closes while the tracer was on at its open becomes
 * one "X" (complete) event; lexical nesting on a thread shows up as
 * interval containment, which chrome://tracing and
 * https://ui.perfetto.dev render as a parent/child hierarchy. The
 * same scopes feed the phase profiler (obs/profiler.h) when that sink
 * is on. The tracer is disabled by default.
 */

#ifndef CARBONX_OBS_TRACE_H
#define CARBONX_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/scope.h"

namespace carbonx::obs
{

/** Process-wide collector of closed scopes. */
class SpanTracer
{
  public:
    static SpanTracer &instance();

    /** Collect scopes opened from now on; disabling keeps events. */
    void setEnabled(bool on) { Scope::setSinkEnabled(kTraceSink, on); }
    bool enabled() const { return Scope::sinkEnabled(kTraceSink); }

    /**
     * Record one closed scope as an "X" event on the calling thread.
     * Both clock reads are the scope's, so the event covers exactly
     * the interval the profiler accumulates.
     */
    void record(const char *name,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end);

    /**
     * Attach a counter track: one named series sampled once per
     * simulated hour, rendered by Chrome/Perfetto as a stacked area
     * lane alongside the spans ("C" phase events; the hour index maps
     * to microseconds on the trace clock). No-op while the tracer is
     * disabled. Adding a track with an existing name replaces it, so
     * re-running a command does not stack stale lanes.
     */
    void addCounterTrack(const std::string &name,
                         const std::vector<double> &values);

    /** Counter tracks attached so far. */
    size_t counterTrackCount() const;

    /** Completed scopes recorded so far. */
    size_t eventCount() const;

    /** Chrome trace_event JSON ("X" complete events). */
    void writeChromeTrace(std::ostream &os) const;

    /** Write the Chrome trace JSON to @p path. */
    void writeChromeTraceFile(const std::string &path) const;

    /** Drop all recorded events and counter tracks. */
    void clear();

  private:
    struct Event
    {
        std::string name;
        uint64_t ts_us = 0;  ///< Start, relative to tracer epoch.
        uint64_t dur_us = 0; ///< Wall duration.
        uint32_t tid = 0;    ///< Small per-thread id.
    };

    SpanTracer();

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::vector<std::pair<std::string, std::vector<double>>> counters_;
};

} // namespace carbonx::obs

#endif // CARBONX_OBS_TRACE_H
