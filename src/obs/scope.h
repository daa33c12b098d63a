/**
 * @file
 * CARBONX_SCOPE: the one scope mechanism, feeding two sinks.
 *
 *     void CarbonExplorer::evaluate(...) {
 *         CARBONX_SCOPE("explorer/evaluate");
 *         ...
 *     }
 *
 * A scope reads the enabled sinks once, when it opens, and takes one
 * steady_clock read at open and one at close. On close it reports
 * that interval to each sink that was on at open: a Chrome trace "X"
 * event to SpanTracer (obs/trace.h) and a call-tree node update to
 * PhaseProfiler (obs/profiler.h). With both sinks off (the default) a
 * scope costs one relaxed atomic load. Names must be unique string
 * literals tree-wide (carbonx-lint rule profile-phase).
 */

#ifndef CARBONX_OBS_SCOPE_H
#define CARBONX_OBS_SCOPE_H

#include <atomic>
#include <chrono>

namespace carbonx::obs
{

struct PhaseNode;

/** A consumer of closed scopes; one bit each. */
enum ScopeSink : unsigned
{
    kTraceSink = 1u << 0,
    kProfileSink = 1u << 1,
};

/**
 * RAII scope. All open state lives in the object, so toggling a sink
 * mid-scope unbalances neither sink; the profiler's per-thread tree
 * cursor is the only per-thread scope state.
 */
class Scope
{
  public:
    /** @param name A string literal. */
    explicit Scope(const char *name)
        : sinks_(enabled_sinks_.load(std::memory_order_relaxed))
    {
        if (sinks_ != 0)
            open(name);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope()
    {
        if (sinks_ != 0)
            close();
    }

    /** Turn @p sink on or off for scopes opened from now on. */
    static void setSinkEnabled(ScopeSink sink, bool on)
    {
        if (on)
            enabled_sinks_.fetch_or(sink, std::memory_order_relaxed);
        else
            enabled_sinks_.fetch_and(~static_cast<unsigned>(sink),
                                     std::memory_order_relaxed);
    }

    static bool sinkEnabled(ScopeSink sink)
    {
        return (enabled_sinks_.load(std::memory_order_relaxed) & sink) !=
               0;
    }

  private:
    void open(const char *name);
    void close();

    inline static std::atomic<unsigned> enabled_sinks_{0};

    unsigned sinks_; ///< ScopeSink bits on at open.
    const char *name_ = nullptr;
    PhaseNode *node_ = nullptr;
    std::chrono::steady_clock::time_point start_;
};

#define CARBONX_SCOPE_CONCAT2(a, b) a##b
#define CARBONX_SCOPE_CONCAT(a, b) CARBONX_SCOPE_CONCAT2(a, b)

/** Time the enclosing block as one scope named @p name (a literal). */
#define CARBONX_SCOPE(name)                                           \
    ::carbonx::obs::Scope CARBONX_SCOPE_CONCAT(carbonx_scope_,        \
                                               __LINE__)(name)

} // namespace carbonx::obs

#endif // CARBONX_OBS_SCOPE_H
