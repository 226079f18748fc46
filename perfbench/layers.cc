#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bloom/bloom_bank.hh"
#include "cache/cache_array.hh"
#include "dram/dram_channel.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/traffic.hh"
#include "profile/word_profiler.hh"
#include "sim/event_queue.hh"

using namespace wastesim;

namespace perfbench
{

namespace
{

constexpr unsigned reps = 3;

/** Median over reps of ops / seconds of @p body, in millions.  @p body
 *  returns the operation count of one repetition. */
template <class Body>
double
medianRate(Body body)
{
    std::vector<double> rates;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const double ops = static_cast<double>(body());
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        rates.push_back(ops / s / 1e6);
    }
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

/** Keeps results of pure loops observable. */
volatile std::uint64_t sink;

std::uint64_t
splitmix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

double
eventQueueMEventsPerS()
{
    // The delay mix and population of bench_kernel's micro loop: core
    // step, link hop, L2 latency, NACK retry, DRAM access and the
    // write-combine timeout (which exercises the overflow path).
    static constexpr Tick delays[] = {1, 3, 8, 20, 150, 500, 10000};
    static constexpr unsigned numDelays = sizeof(delays) / sizeof(delays[0]);
    constexpr unsigned actors = 4096;
    constexpr std::uint64_t totalEvents = 20'000'000;

    return medianRate([] {
        EventQueue eq;
        std::uint64_t remaining = totalEvents;
        struct Actor
        {
            EventQueue *eq;
            std::uint64_t *remaining;
            unsigned phase;

            void
            operator()()
            {
                if (*remaining == 0)
                    return;
                --*remaining;
                const Tick d = delays[phase % numDelays];
                ++phase;
                eq->schedule(d, Actor{*this});
            }
        };
        for (unsigned a = 0; a < actors; ++a)
            eq.schedule(a % 7, Actor{&eq, &remaining, a});
        eq.run();
        return eq.executed();
    });
}

double
networkSendMMsgsPerS()
{
    constexpr unsigned messages = 1'000'000;
    constexpr unsigned batch = 256;

    struct Counter : MessageHandler
    {
        std::uint64_t n = 0;
        void handle(Message) override { ++n; }
    };

    return medianRate([] {
        EventQueue eq;
        TrafficRecorder tr;
        const Topology topo;
        Network net(eq, tr, 3, topo);
        Counter counter;
        for (unsigned i = 0; i < topo.numTiles(); ++i) {
            net.attach(l1Ep(i), &counter);
            net.attach(l2Ep(i), &counter);
        }
        const unsigned tiles = topo.numTiles();
        for (unsigned i = 0; i < messages; ++i) {
            // Alternate a request header (L1 -> L2 slice) with a
            // full-line data response (L2 slice -> L1).
            Message m;
            m.line = (Addr{1} << 20) + Addr{i} * bytesPerLine;
            m.cls = TrafficClass::Load;
            if (i % 2 == 0) {
                m.kind = MsgKind::GetS;
                m.ctl = CtlType::ReqCtl;
                m.src = l1Ep(i % tiles);
                m.dst = l2Ep((i * 7 + 3) % tiles);
            } else {
                m.kind = MsgKind::Data;
                m.ctl = CtlType::RespCtl;
                m.src = l2Ep((i * 5 + 1) % tiles);
                m.dst = l1Ep(i % tiles);
                m.chunks.emplace_back(m.line, WordMask::full());
            }
            net.send(std::move(m));
            if (i % batch == batch - 1)
                eq.run();
        }
        eq.run();
        sink = counter.n;
        return counter.n;
    });
}

double
cacheLookupMOpsPerS()
{
    constexpr unsigned sets = 32, ways = 16; // scaled L2 slice
    constexpr unsigned lookups = 20'000'000;

    CacheArray arr(sets, ways);
    const unsigned resident = sets * ways;
    for (unsigned i = 0; i < resident; ++i) {
        const Addr la = Addr{i} * bytesPerLine;
        if (CacheLine *s = arr.victimFor(la))
            arr.resetTo(*s, la);
    }
    std::vector<Addr> addrs(4096);
    std::uint64_t x = 1;
    for (Addr &a : addrs)
        a = (splitmix(x) % (2 * resident)) * bytesPerLine;

    return medianRate([&] {
        std::uint64_t hits = 0;
        for (unsigned i = 0; i < lookups; ++i)
            hits += arr.find(addrs[i % addrs.size()]) != nullptr;
        sink = hits;
        return lookups;
    });
}

double
bloomMOpsPerS()
{
    constexpr unsigned iters = 5'000'000;

    return medianRate([] {
        BloomBank bank;
        std::uint64_t maybe = 0;
        Addr la = Addr{1} << 20;
        for (unsigned i = 0; i < iters; ++i) {
            bank.insert(la);
            maybe += bank.maybeContains(la + 64 * bytesPerLine);
            bank.remove(la);
            la += bytesPerLine;
        }
        sink = maybe;
        return 3ULL * iters;
    });
}

namespace
{

/** Drive one channel with @p requests line requests in batches of a
 *  memory controller's queue depth; @p next gives each line. */
template <class NextLine>
std::uint64_t
driveDram(unsigned requests, bool writes, NextLine next)
{
    constexpr unsigned batch = 32;
    EventQueue eq;
    DramChannel ch(eq, DramMap{}, 0);
    std::uint64_t done = 0;
    for (unsigned i = 0; i < requests; ++i) {
        DramRequest req;
        req.line = next(i);
        req.isWrite = writes;
        req.onDone = [&done](Tick) { ++done; };
        ch.enqueue(std::move(req));
        if (i % batch == batch - 1)
            eq.run();
    }
    eq.run();
    sink = done + ch.rowHits();
    return ch.reads() + ch.writes();
}

} // namespace

double
dramWriteStreamMReqsPerS()
{
    const DramMap map;
    return medianRate([&] {
        return driveDram(1'000'000, true, [&](unsigned i) {
            return Addr{i} * map.numChannels * bytesPerLine;
        });
    });
}

double
dramReadRandomMReqsPerS()
{
    const DramMap map;
    return medianRate([&] {
        std::uint64_t x = 7;
        return driveDram(1'000'000, false, [&](unsigned) {
            return (splitmix(x) % (1u << 20)) * map.numChannels *
                   bytesPerLine;
        });
    });
}

double
wordProfilerMOpsPerS()
{
    constexpr unsigned lines = 65536;

    return medianRate([] {
        WordProfiler p(WordProfiler::Level::L1);
        std::uint64_t ops = 0;
        for (unsigned l = 0; l < lines; ++l) {
            const Addr base = (Addr{1} << 16) + Addr{l} * wordsPerLine;
            for (unsigned w = 0; w < wordsPerLine; ++w)
                p.arrive(base + w, TrafficClass::Load);
            for (unsigned w = 0; w < wordsPerLine; w += 2)
                p.load(base + w);
            p.store(base + 1);
            p.store(base + 3);
            for (unsigned w = 0; w < wordsPerLine; ++w)
                p.evict(base + w);
            ops += 2 * wordsPerLine + wordsPerLine / 2 + 2;
        }
        sink = p.numRecords();
        return ops;
    });
}

double
memProfilerMOpsPerS()
{
    constexpr unsigned lines = 32768;

    return medianRate([] {
        MemProfiler p;
        std::uint64_t ops = 0;
        InstId ids[wordsPerLine];
        for (unsigned l = 0; l < lines; ++l) {
            const Addr base = (Addr{1} << 16) + Addr{l} * wordsPerLine;
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                ids[w] = p.create(base + w, false);
                p.addRef(ids[w]);
            }
            for (unsigned w = 0; w < wordsPerLine; w += 2)
                p.used(ids[w]);
            p.storeAddr(base + 1);
            p.storeAddr(base + 3);
            for (unsigned w = 0; w < wordsPerLine; ++w)
                p.dropRef(ids[w], false);
            ops += 3 * wordsPerLine + wordsPerLine / 2 + 2;
        }
        sink = p.numInstances();
        return ops;
    });
}

} // namespace perfbench
