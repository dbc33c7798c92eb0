#include "trace.hh"

#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

const char *const kLaneNames[] = {"bench", "loadgen", "runtime/engine",
                                  "request", "replay"};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

} // namespace

SpanRecorder::SpanRecorder(Clock::time_point origin) : origin_(origin)
{
    spans_.reserve(1 << 14);
}

std::int64_t
SpanRecorder::nsSince(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

std::int64_t
SpanRecorder::add(std::string name, Lane lane, Clock::time_point start,
                  Clock::time_point end, std::int64_t parent,
                  std::int64_t requestId)
{
    spans_.push_back(Span{std::move(name), lane, nsSince(start),
                          nsSince(end), parent, requestId});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t
SpanRecorder::open(std::string name, Lane lane, std::int64_t parent)
{
    Clock::time_point now = Clock::now();
    return add(std::move(name), lane, now, now, parent);
}

void
SpanRecorder::close(std::int64_t id)
{
    spans_.at(static_cast<std::size_t>(id)).endNs = nsSince(Clock::now());
}

std::string
SpanRecorder::chromeTrace(const std::string &processName) const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (int lane = 0; lane < static_cast<int>(std::size(kLaneNames));
         ++lane) {
        os << (lane ? "," : "")
           << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << lane << ",\"args\":{\"name\":\""
           << kLaneNames[lane] << "\"}}";
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << ",{\"name\":\"" << jsonEscape(s.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << static_cast<int>(s.lane)
           << ",\"ts\":" << static_cast<double>(s.startNs) / 1e3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"request\":" << s.requestId << "}}";
    }
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"process\":\"" << jsonEscape(processName) << "\"}}";
    return os.str();
}

bool
SpanRecorder::write(const std::string &path,
                    const std::string &processName) const
{
    std::ofstream f(path);
    f << chromeTrace(processName);
    return static_cast<bool>(f);
}

} // namespace perfbench
