/** Unit tests: DRAM timing, address mapping, FR-FCFS scheduling. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_channel.hh"
#include "dram/dram_timing.hh"
#include "sim/event_queue.hh"

namespace wastesim
{

namespace
{

/** A line in channel 0, local line number @p n. */
Addr
ch0Line(Addr n)
{
    return n * numMemCtrls * bytesPerLine;
}

/**
 * Reference FR-FCFS channel: one age-ordered vector of every pending
 * request, scanned in full for each pick, with the pick erased from
 * the middle.  DramChannel keeps per-bank queues instead and must
 * issue exactly the same requests at exactly the same ticks.
 */
class RefChannel
{
  public:
    RefChannel(EventQueue &eq, DramMap map)
        : eq_(eq), map_(map), banks_(map.timing.totalBanks())
    {
    }

    void
    enqueue(Addr line, bool is_write, unsigned words,
            std::function<void(Tick)> on_done)
    {
        queue_.push_back({line, is_write, words, std::move(on_done),
                          map_.bankOf(line)});
        queuePeak = std::max(queuePeak, queue_.size());
        trySchedule();
    }

    std::uint64_t rowHits = 0, rowMisses = 0, rowConflicts = 0;
    std::size_t queuePeak = 0;

  private:
    struct Req
    {
        Addr line;
        bool isWrite;
        unsigned words;
        std::function<void(Tick)> onDone;
        unsigned bank;
    };

    struct Bank
    {
        bool rowOpen = false;
        Addr openRow = 0;
        Tick readyAt = 0;
    };

    void
    trySchedule()
    {
        while (!queue_.empty()) {
            const Tick now = eq_.now();
            // Oldest open-row hit on a ready bank, else the oldest
            // request on a ready bank.
            const std::size_t none = ~std::size_t(0);
            std::size_t pick = none, fallback = none;
            for (std::size_t i = 0; i < queue_.size(); ++i) {
                const Bank &b = banks_[queue_[i].bank];
                if (b.readyAt > now)
                    continue;
                if (b.rowOpen && b.openRow == map_.rowOf(queue_[i].line)) {
                    pick = i;
                    break;
                }
                if (fallback == none)
                    fallback = i;
            }
            if (pick == none)
                pick = fallback;
            if (pick == none) {
                if (!wakeupPending_) {
                    Tick earliest = ~Tick(0);
                    for (const Req &r : queue_)
                        earliest = std::min(earliest, banks_[r.bank].readyAt);
                    wakeupPending_ = true;
                    eq_.scheduleAt(earliest, [this] {
                        wakeupPending_ = false;
                        trySchedule();
                    });
                }
                return;
            }
            Req req = std::move(queue_[pick]);
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(pick));
            issue(req);
        }
    }

    void
    issue(Req &req)
    {
        const Tick now = eq_.now();
        Bank &bank = banks_[req.bank];
        const Addr row = map_.rowOf(req.line);
        const DramTiming &t = map_.timing;
        Tick lat;
        if (bank.rowOpen && bank.openRow == row) {
            lat = t.rowHitLatency();
            ++rowHits;
        } else if (!bank.rowOpen) {
            lat = t.rowMissLatency();
            ++rowMisses;
        } else {
            lat = t.rowConflictLatency();
            ++rowConflicts;
        }
        bank.rowOpen = true;
        bank.openRow = row;
        const Tick data_start = std::max(now + lat - t.tBurst, busReadyAt_);
        const Tick done = data_start + t.burstFor(req.words);
        busReadyAt_ = done;
        bank.readyAt = done;
        if (req.onDone) {
            eq_.scheduleAt(done,
                           [cb = std::move(req.onDone), done] { cb(done); });
        }
    }

    EventQueue &eq_;
    DramMap map_;
    std::vector<Bank> banks_;
    std::vector<Req> queue_;
    Tick busReadyAt_ = 0;
    bool wakeupPending_ = false;
};

/** One request of a differential stream. */
struct StreamReq
{
    Tick arrive;
    Addr line;
    bool isWrite;
    unsigned words;
};

/**
 * A seeded request stream: a dense burst that backs the channel up
 * thousands of requests deep, then a sparse tail that lets it drain
 * and idle between arrivals.  Lines mix sequential runs (row hits)
 * with random rows across a few rows per bank (misses, conflicts).
 */
std::vector<StreamReq>
makeStream(const DramMap &map, std::uint64_t seed)
{
    Rng rng(seed);
    const Addr span = Addr{map.timing.linesPerRow} *
                      map.timing.totalBanks() * 4;
    std::vector<StreamReq> out;
    Tick at = 0;
    Addr local = 0;
    for (unsigned i = 0; i < 3500; ++i) {
        at += i < 3000 ? rng.below(3) : rng.below(400);
        local = rng.below(2) ? (local + 1) % span : rng.below(span);
        out.push_back({at, ch0Line(local), rng.below(10) < 3,
                       1 + static_cast<unsigned>(rng.below(wordsPerLine))});
    }
    return out;
}

/** Drive @p stream through @p enqueue(request, on_done) on @p eq
 *  and return every request's completion tick. */
template <typename Enqueue>
std::vector<Tick>
runStream(EventQueue &eq, const std::vector<StreamReq> &stream,
          Enqueue enqueue)
{
    std::vector<Tick> done(stream.size(), 0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        eq.scheduleAt(stream[i].arrive, [&, i] {
            enqueue(stream[i], [&done, i](Tick t) { done[i] = t; });
        });
    }
    eq.run();
    return done;
}

} // namespace

TEST(DramMap, ChannelLocality)
{
    DramMap map;
    EXPECT_EQ(map.localLine(ch0Line(5)), 5u);
    EXPECT_EQ(map.channelOf(ch0Line(5)), 0u);
}

TEST(DramMap, RowAndBank)
{
    DramMap map;
    const unsigned lpr = map.timing.linesPerRow;
    // Lines within one row share bank and row.
    EXPECT_EQ(map.bankOf(ch0Line(0)), map.bankOf(ch0Line(lpr - 1)));
    EXPECT_EQ(map.rowOf(ch0Line(0)), map.rowOf(ch0Line(lpr - 1)));
    // The next row lands on the next bank (row-interleaved banking).
    EXPECT_NE(map.bankOf(ch0Line(0)), map.bankOf(ch0Line(lpr)));
}

TEST(DramMap, SameRowPredicate)
{
    DramMap map;
    EXPECT_TRUE(map.sameRow(ch0Line(0), ch0Line(1)));
    EXPECT_FALSE(map.sameRow(ch0Line(0),
                             ch0Line(map.timing.linesPerRow)));
    // Different channels never share a row.
    EXPECT_FALSE(map.sameRow(ch0Line(0), ch0Line(0) + bytesPerLine));
}

TEST(DramTiming, LatencyOrdering)
{
    DramTiming t;
    EXPECT_LT(t.rowHitLatency(), t.rowMissLatency());
    EXPECT_LT(t.rowMissLatency(), t.rowConflictLatency());
    EXPECT_EQ(t.totalBanks(), 16u);
}

TEST(DramChannel, SingleReadLatency)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    Tick done = 0;
    ch.enqueue({ch0Line(0), false, wordsPerLine, [&](Tick t) { done = t; }});
    eq.run();
    EXPECT_EQ(done, map.timing.rowMissLatency());
    EXPECT_EQ(ch.reads(), 1u);
    EXPECT_EQ(ch.rowMisses(), 1u);
}

TEST(DramChannel, OpenPageRowHit)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    Tick t0 = 0, done = 0;
    // Chain the second access off the first completion so the row is
    // guaranteed open and the bank/bus idle.
    ch.enqueue({ch0Line(0), false, wordsPerLine, [&](Tick t) {
                    t0 = t;
                    ch.enqueue({ch0Line(1), false, wordsPerLine,
                                [&](Tick t2) { done = t2; }});
                }});
    eq.run();
    EXPECT_EQ(ch.rowHits(), 1u);
    EXPECT_EQ(done - t0, map.timing.rowHitLatency());
}

TEST(DramChannel, RowConflictReopens)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    const unsigned lpr = map.timing.linesPerRow;
    const unsigned banks = map.timing.totalBanks();
    ch.enqueue({ch0Line(0), false, wordsPerLine, nullptr});
    eq.run();
    // Same bank, different row: banks rows apart.
    ch.enqueue({ch0Line(static_cast<Addr>(lpr) * banks), false, wordsPerLine,
                nullptr});
    eq.run();
    EXPECT_EQ(ch.rowConflicts(), 1u);
}

TEST(DramChannel, FrFcfsPrefersRowHit)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    // Open row 0 of bank 0.
    ch.enqueue({ch0Line(0), false, wordsPerLine, nullptr});
    eq.run();

    // Enqueue a conflicting older request and a row-hit newer one
    // while the bank is busy... they both target bank 0; issue them
    // at the same instant and check the row hit goes first.
    std::vector<int> order;
    const unsigned lpr = map.timing.linesPerRow;
    const unsigned banks = map.timing.totalBanks();
    ch.enqueue({ch0Line(static_cast<Addr>(lpr) * banks), false, wordsPerLine,
                [&](Tick) { order.push_back(1); }}); // row conflict
    ch.enqueue({ch0Line(1), false, wordsPerLine,
                [&](Tick) { order.push_back(2); }}); // row hit
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2); // first-ready wins
    EXPECT_EQ(order[1], 1);
}

TEST(DramChannel, BankParallelismBeatsSerial)
{
    DramMap map;

    // Two requests to the same bank (serialized)...
    EventQueue eq1;
    DramChannel same(eq1, map);
    Tick done_same = 0;
    const unsigned lpr = map.timing.linesPerRow;
    const unsigned banks = map.timing.totalBanks();
    same.enqueue({ch0Line(0), false, wordsPerLine, nullptr});
    same.enqueue({ch0Line(static_cast<Addr>(lpr) * banks), false, wordsPerLine,
                  [&](Tick t) { done_same = t; }});
    eq1.run();

    // ...take longer than two to different banks.
    EventQueue eq2;
    DramChannel diff(eq2, map);
    Tick done_diff = 0;
    diff.enqueue({ch0Line(0), false, wordsPerLine, nullptr});
    diff.enqueue({ch0Line(lpr), false, wordsPerLine,
                  [&](Tick t) { done_diff = t; }});
    eq2.run();

    EXPECT_LT(done_diff, done_same);
}

TEST(DramChannel, WritesCounted)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    ch.enqueue({ch0Line(0), true, wordsPerLine, nullptr});
    ch.enqueue({ch0Line(1), false, wordsPerLine, nullptr});
    eq.run();
    EXPECT_EQ(ch.writes(), 1u);
    EXPECT_EQ(ch.reads(), 1u);
}

TEST(DramChannel, BusSerializesBursts)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    // Many independent banks issued together still serialize on the
    // data bus: completion spacing >= tBurst.
    std::vector<Tick> dones;
    const unsigned lpr = map.timing.linesPerRow;
    for (unsigned b = 0; b < 4; ++b) {
        ch.enqueue({ch0Line(static_cast<Addr>(b) * lpr), false, wordsPerLine,
                    [&](Tick t) { dones.push_back(t); }});
    }
    eq.run();
    ASSERT_EQ(dones.size(), 4u);
    for (std::size_t i = 1; i < dones.size(); ++i)
        EXPECT_GE(dones[i] - dones[i - 1], map.timing.tBurst);
}

TEST(DramChannel, PerBankQueuesMatchSingleQueueScan)
{
    struct Geometry
    {
        unsigned ranks, banks, linesPerRow;
        bool partialReads;
    };
    // The default channel, small and odd geometries, and one with more
    // than 64 banks (a multi-word work mask).
    const Geometry geometries[] = {
        {2, 8, 32, false}, {1, 4, 8, true}, {3, 8, 16, true},
        {9, 8, 4, false}};
    for (const Geometry &g : geometries) {
        DramMap map;
        map.timing.numRanks = g.ranks;
        map.timing.numBanksPerRank = g.banks;
        map.timing.linesPerRow = g.linesPerRow;
        map.timing.partialReads = g.partialReads;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << g.ranks << "x" << g.banks << " banks, "
                         << g.linesPerRow << " lines/row, partial "
                         << g.partialReads << ", seed " << seed);
            const std::vector<StreamReq> stream = makeStream(map, seed);

            EventQueue ref_eq;
            RefChannel ref(ref_eq, map);
            const std::vector<Tick> want = runStream(
                ref_eq, stream, [&](const StreamReq &r, auto on_done) {
                    ref.enqueue(r.line, r.isWrite, r.words, on_done);
                });

            EventQueue eq;
            DramChannel ch(eq, map);
            const std::vector<Tick> got = runStream(
                eq, stream, [&](const StreamReq &r, auto on_done) {
                    ch.enqueue({r.line, r.isWrite, r.words, on_done});
                });

            ASSERT_GE(ref.queuePeak, 2000u) << "stream not deep enough";
            EXPECT_EQ(ch.queuePeak(), ref.queuePeak);
            EXPECT_EQ(ch.queued(), 0u);
            EXPECT_EQ(ch.rowHits(), ref.rowHits);
            EXPECT_EQ(ch.rowMisses(), ref.rowMisses);
            EXPECT_EQ(ch.rowConflicts(), ref.rowConflicts);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], want[i]) << "request " << i;
        }
    }
}

TEST(DramChannel, WakeupTargetsEarliestBankWithWork)
{
    EventQueue eq;
    DramMap map;
    DramChannel ch(eq, map);
    const DramTiming &t = map.timing;
    const Addr lpr = t.linesPerRow;
    const Addr banks = t.totalBanks();

    // One access per bank, issued at tick 0 in bank order: the bus
    // serializes them, so bank b frees at rowMissLatency + b * tBurst
    // and bank 0 frees first.
    for (Addr b = 0; b < banks; ++b)
        ch.enqueue({ch0Line(b * lpr), false, wordsPerLine, nullptr});
    EXPECT_EQ(ch.queued(), 0u);
    EXPECT_EQ(eq.pending(), 0u);

    // Every bank is busy; give all but bank 0 more work.  Each enqueue
    // retries the schedule, but only one wake-up may be pending.
    for (Addr b = 1; b < banks; ++b) {
        for (Addr row = 1; row <= 3; ++row) {
            ch.enqueue({ch0Line((row * banks + b) * lpr), false,
                        wordsPerLine, nullptr});
            EXPECT_EQ(eq.pending(), 1u);
        }
    }

    // The wake-up skips idle bank 0 for bank 1, the earliest with work.
    const std::size_t pending = ch.queued();
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), t.rowMissLatency() + t.tBurst);
    EXPECT_EQ(ch.queued(), pending - 1);

    while (eq.step())
        EXPECT_LE(eq.pending(), 1u);
    EXPECT_EQ(ch.queued(), 0u);
    EXPECT_EQ(ch.rowConflicts(), (banks - 1) * 3);
}

} // namespace wastesim
