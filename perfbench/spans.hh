/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * A span brackets one public call into the simulator library (workload
 * generation, System construction and run, a SweepEngine cell, a
 * CellCache load/save, a figure build) as seen from the benchmark: name,
 * start, end, parent span and cell id.  Spans stay in memory and are
 * written once, at exit, as Chrome trace-event JSON.  A disabled log
 * records nothing, so the timed runs pay one branch per call.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * Open a span and make it the calling thread's innermost one.
     * @p parent 0 takes the thread's innermost open span.  Returns
     * the span id (0 when the log is disabled).
     */
    std::uint64_t open(const char *name, const std::string &cell,
                       std::uint64_t parent = 0);

    /** Close span @p id (opened on this thread); no-op for id 0. */
    void close(std::uint64_t id);

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::string cell;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t prevCurrent = 0;
        unsigned thread = 0;
        double startUs = 0;
        double endUs = -1;
    };

    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; //!< index id-1
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, const std::string &cell = {},
              std::uint64_t parent = 0)
        : log_(log),
          id_(log.enabled() ? log.open(name, cell, parent) : 0)
    {
    }

    ~SpanScope() { log_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
