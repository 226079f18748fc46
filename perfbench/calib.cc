/**
 * @file
 * The host speed reference loop.
 */

#include "calib.hh"

#include <time.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench
{

namespace
{

constexpr std::uint32_t tableWords = 1u << 18; // 1 MiB
constexpr unsigned actors = 4096;
constexpr unsigned events = 100000;

double
threadCpu()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

std::uint64_t
splitmix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

/** Keeps the loop's result alive so the compiler cannot drop it. */
volatile std::uint64_t referenceSink;

double
referenceLoopSeconds()
{
    // Each run starts from the same table, so every run does the same
    // work; filling it is not timed.  One table per thread: sweep workers
    // sample the loop side by side.
    thread_local std::vector<std::uint32_t> table(tableWords);
    std::uint64_t x = 1;
    for (std::uint32_t &w : table)
        w = static_cast<std::uint32_t>(splitmix(x));
    using Event = std::pair<std::uint64_t, std::uint32_t>; // (when, actor)
    std::vector<Event> init;
    init.reserve(actors);
    for (std::uint32_t a = 0; a < actors; ++a)
        init.emplace_back(splitmix(x) & 1023, a);

    const double t0 = threadCpu();
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q(
        std::greater<Event>(), std::move(init));
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < events; ++i) {
        const Event e = q.top();
        q.pop();
        const std::uint32_t idx =
            static_cast<std::uint32_t>((e.first * 0x9e3779b1u) ^ e.second) &
            (tableWords - 1);
        const std::uint32_t v = table[idx];
        table[idx] = v * 2654435761u + e.second;
        sum += v;
        q.emplace(e.first + 1 + (v & 63), e.second);
    }
    const double s = threadCpu() - t0;
    referenceSink = sum;
    return s;
}

} // namespace perfbench
