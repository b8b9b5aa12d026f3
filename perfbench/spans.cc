#include "spans.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint64_t
Tracer::begin(std::string name, std::string layer, std::uint64_t parent)
{
    Span s;
    s.parent = parent;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start_us = nowUs();
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::end(std::uint64_t id)
{
    double now = nowUs();
    Span &s = spans_.at(id - 1);
    s.dur_us = now - s.start_us;
}

std::size_t
Tracer::size() const
{
    return spans_.size();
}

bool
Tracer::writeChromeJson(
    const std::string &path, const NamedValues &table,
    const std::vector<std::pair<std::string, std::string>> &info) const
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &s : spans_) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":" << jsonString(s.name)
           << ",\"cat\":" << jsonString(s.layer)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":0"
           << ",\"ts\":" << s.start_us
           << ",\"dur\":" << s.dur_us << ",\"args\":{\"span_id\":"
           << s.id << ",\"parent_id\":" << s.parent << "}}";
    }
    os << "\n],\"otherData\":{";
    first = true;
    for (const auto &[k, v] : info) {
        os << (first ? "" : ",") << jsonString(k) << ":" << jsonString(v);
        first = false;
    }
    for (const auto &[k, v] : table) {
        os << (first ? "" : ",") << jsonString(k) << ":"
           << (std::isfinite(v) ? v : 0.0);
        first = false;
    }
    os << "}}\n";

    std::ofstream f(path);
    f << os.str();
    f.close();
    return !f.fail();
}

} // namespace perfbench
