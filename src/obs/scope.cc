#include "scope.h"

#include "obs/profiler.h"
#include "obs/trace.h"

namespace carbonx::obs
{

void
Scope::open(const char *name)
{
    name_ = name;
    if ((sinks_ & kProfileSink) != 0)
        node_ = PhaseProfiler::instance().beginPhase(name);
    start_ = std::chrono::steady_clock::now();
}

void
Scope::close()
{
    const auto end = std::chrono::steady_clock::now();
    if (node_ != nullptr)
        PhaseProfiler::instance().endPhase(node_, end - start_);
    if ((sinks_ & kTraceSink) != 0)
        SpanTracer::instance().record(name_, start_, end);
}

} // namespace carbonx::obs
