#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

int
SpanLog::open(const std::string& name)
{
    spans_.push_back({name, nowNs(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
SpanLog::close(int index)
{
    spans_[index].end_ns = nowNs();
    current_ = spans_[index].parent;
}

void
SpanLog::record(const std::string& name, int64_t start_ns, int64_t end_ns)
{
    spans_.push_back({name, start_ns, end_ns, current_});
}

std::vector<double>
SpanLog::durationsMs(const std::string& name) const
{
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
        if (s.name == name) {
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
    }
    return out;
}

double
SpanLog::medianMs(const std::string& name) const
{
    return median(durationsMs(name));
}

bool
SpanLog::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return false;
    }
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":" << jsonString(s.name)
            << ",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
            << jsonNumber(static_cast<double>(s.start_ns - t0) / 1e3)
            << ",\"dur\":"
            << jsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
            << ",\"args\":{\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {
SpanLog* g_span_log = nullptr;
} // namespace

SpanLog*
spanLog()
{
    return g_span_log;
}

void
setSpanLog(SpanLog* log)
{
    g_span_log = log;
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so it would report the launching process's peak when that
    // one was larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    return 0;
}

} // namespace perfbench
