/**
 * @file
 * In-memory span recorder for the traced run. Spans are taken from the
 * benchmark's own code around calls into each layer, kept in memory
 * while the run measures, and written once at exit in the traceEvents
 * layout of sim/trace_export's toChromeTrace, so measured and
 * simulated rounds open side by side in chrome://tracing or Perfetto.
 *
 * Single-threaded: only the driver thread records; other threads hand
 * their timings to it after they are joined.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Trace rows ("threads" in the viewer), one per layer family. */
enum class Lane : int
{
    Bench = 0,
    Loadgen,
    Engine,
    Request,
    Replay,
};

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    Lane lane = Lane::Bench;
    std::int64_t startNs = 0;  ///< from the recorder's origin
    std::int64_t endNs = 0;
    std::int64_t parent = -1;     ///< span id of the cause; -1 = root
    std::int64_t requestId = -1;  ///< -1 = not tied to one request
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point origin = Clock::now());

    /** Record a finished span; returns its id. */
    std::int64_t add(std::string name, Lane lane, Clock::time_point start,
                     Clock::time_point end, std::int64_t parent = -1,
                     std::int64_t requestId = -1);
    /** Start a span that ends later with close(); returns its id. */
    std::int64_t open(std::string name, Lane lane,
                      std::int64_t parent = -1);
    void close(std::int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** traceEvents JSON: thread_name metadata per lane, then one
     *  complete ('X') event per span with its id, parent and request
     *  id under args. Timestamps in microseconds. */
    std::string chromeTrace(const std::string &processName) const;
    /** Write chromeTrace() to @p path; false on I/O failure. */
    bool write(const std::string &path,
               const std::string &processName) const;

  private:
    std::int64_t nsSince(Clock::time_point t) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
