#include "spans.hh"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench
{

namespace
{

thread_local std::uint64_t innermost = 0;

unsigned
threadNumber()
{
    return static_cast<unsigned>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

/** @p s with JSON string escapes applied. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
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
    return out;
}

} // namespace

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now())
{
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

std::uint64_t
SpanLog::open(const char *name, const std::string &cell,
              std::uint64_t parent)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = name;
    s.cell = cell;
    s.parent = parent != 0 ? parent : innermost;
    s.prevCurrent = innermost;
    s.thread = threadNumber();
    s.startUs = nowUs();
    std::lock_guard<std::mutex> lk(mu_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    innermost = spans_.back().id;
    return innermost;
}

void
SpanLog::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const double end = nowUs();
    std::lock_guard<std::mutex> lk(mu_);
    Span &s = spans_[id - 1];
    s.endUs = end;
    innermost = s.prevCurrent;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      s.thread, s.startUs,
                      (s.endUs < 0 ? s.startUs : s.endUs) - s.startUs);
        os << "  {\"name\": \"" << jsonEscape(s.name) << "\", " << buf
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
           << s.parent << ", \"cell\": \"" << jsonEscape(s.cell)
           << "\"}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
