#include "harness.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "numerics/matrix.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : origin_(Clock::now())
{
    spans_.reserve(1 << 16);
    childNs_.reserve(1 << 16);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::int32_t
Tracer::begin(const char *name)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    span.startNs = nowNs();
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    childNs_.push_back(0);
    open_.push_back(id);
    return id;
}

void
Tracer::end(std::int32_t id)
{
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.endNs = nowNs();
    open_.pop_back();
    if (span.parent >= 0)
        childNs_[static_cast<std::size_t>(span.parent)] +=
            span.endNs - span.startNs;
}

std::int64_t
Tracer::selfNs(std::size_t id) const
{
    const Span &span = spans_[id];
    return span.endNs - span.startNs - childNs_[id];
}

std::vector<double>
Tracer::selfTimes(const std::string &name) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back(static_cast<double>(selfNs(i)));
    return out;
}

double
Tracer::totalSelfNs(const std::string &name) const
{
    double total = 0.0;
    for (double ns : selfTimes(name))
        total += ns;
    return total;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    // Complete ("X") events in microseconds; one track, since every span
    // is opened from the benchmark's single client thread.
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << quote(span.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << fmt(static_cast<double>(span.startNs) / 1e3)
            << ",\"dur\":"
            << fmt(static_cast<double>(span.endNs - span.startNs) / 1e3)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << ",\"self_us\":"
            << fmt(static_cast<double>(selfNs(i)) / 1e3) << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
percentileOf(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(std::vector<double> xs)
{
    return percentileOf(std::move(xs), 50.0);
}

double
tailPercentile(std::size_t samples)
{
    for (double p : { 99.9, 99.0, 95.0, 90.0, 75.0, 50.0 }) {
        const double beyond =
            static_cast<double>(samples) * (1.0 - p / 100.0);
        if (beyond >= 10.0)
            return p;
    }
    return -1.0;
}

bool
bitIdentical(const prose::Matrix &a, const prose::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(float)) == 0;
}

namespace {

std::uint64_t
statusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0) {
            std::istringstream fields(line.substr(prefix.size()));
            std::uint64_t kb = 0;
            fields >> kb;
            return kb;
        }
    }
    return 0;
}

} // namespace

std::uint64_t
peakRssBytes()
{
    return statusKb("VmHWM") * 1024;
}

std::uint64_t
currentRssBytes()
{
    return statusKb("VmRSS") * 1024;
}

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out += esc;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

void
Ledger::add(const std::string &name, double value)
{
    entries_[name] = fmt(value);
}

void
Ledger::add(const std::string &name, const std::string &value)
{
    entries_[name] = quote(value);
}

std::string
Ledger::digest() const
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const auto &[name, value] : entries_) {
        for (char c : name + "=" + value + "\n") {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ull;
        }
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
Ledger::json() const
{
    std::string out = "{";
    for (const auto &[name, value] : entries_) {
        if (out.size() > 1)
            out += ",";
        out += quote(name) + ":" + value;
    }
    return out + "}";
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        { "model.forward_ms", "ms" },
        { "model.forward_ns_per_token", "ns/token" },
        { "model.pad_waste_ratio", "ratio" },
        { "model.tokenize_us", "us" },
        { "trace.build_us", "us" },
        { "trace.tasks_per_request", "count" },
        { "accel.batch_perfsim_us", "us" },
        { "systolic.df1_ms", "ms" },
        { "systolic.df2_ms", "ms" },
        { "systolic.df3_ms", "ms" },
        { "systolic.host_ps_per_mac", "ps/MAC" },
        { "systolic.cycles_per_layer", "cycles" },
        { "fault.drill_df1_ms", "ms" },
        { "fault.drill_df2_ms", "ms" },
        { "fault.drill_df3_ms", "ms" },
        { "fault.drill_slowdown", "ratio" },
        { "fault.events_per_drill", "count" },
        { "fault.abft_corrected_ratio", "ratio" },
        { "serve.healthy_run_ms", "ms" },
        { "serve.flash_run_ms", "ms" },
        { "serve.chaos_run_ms", "ms" },
        { "serve.tenants2_run_ms", "ms" },
        { "serve.host_ns_per_request", "ns" },
        { "serve.rss_bytes_per_request", "B" },
        { "serve.arrivals_ms", "ms" },
        { "serve.batch_fill", "ratio" },
        { "serve.retries", "count" },
        { "dse.explore_ms", "ms" },
        { "dse.evaluate_best_lanes_ms", "ms" },
        { "accel.perfsim_run_us", "us" },
        { "accel.host_ns_per_task", "ns" },
        { "accel.run_shared_us", "us" },
        { "common.pool_busy_ratio", "ratio" },
        { "common.pool_idle_ms", "ms" },
        { "bench.trace_overhead_ratio", "ratio" },
    };
    return names;
}

} // namespace perfbench
