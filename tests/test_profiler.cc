/** Unit tests: the L1/L2 word-instance waste FSMs (Figs. 4.1/4.2). */

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

#include "profile/word_profiler.hh"

namespace wastesim
{

namespace
{

WasteCounts
finalizeCounts(WordProfiler &p)
{
    TrafficStats t;
    return p.finalize(t);
}

} // namespace

TEST(WordProfiler, LoadClassifiesUsed)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    p.load(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c.waste(), 0.0);
}

TEST(WordProfiler, OverwriteBeforeUseIsWriteWaste)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Store);
    p.store(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, UsedThenStoreStaysUsed)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    p.load(100);
    p.store(100); // first classification wins
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c[WasteCat::Write], 0.0);
}

TEST(WordProfiler, ArriveWhilePresentIsFetchWaste)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    p.arrive(100, TrafficClass::Load); // duplicate arrival
    p.load(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(WordProfiler, EvictBeforeUse)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    p.evict(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_FALSE(p.present(100));
}

TEST(WordProfiler, InvalidateBeforeUseL1)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    p.invalidate(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Invalidate], 1.0);
}

TEST(WordProfiler, L2HasNoInvalidateCategory)
{
    // Fig. 4.2: the L2 FSM folds invalidation into eviction.
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load);
    p.invalidate(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_EQ(c[WasteCat::Invalidate], 0.0);
}

TEST(WordProfiler, UnevictedAtEnd)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
}

TEST(WordProfiler, StoreAllocatesUntracked)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.store(100); // write-validate allocation, no record
    EXPECT_TRUE(p.present(100));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c.total(), 0.0);
}

TEST(WordProfiler, ArriveOnStoreAllocatedIsFetch)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.store(100);
    p.arrive(100, TrafficClass::Load);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
}

TEST(WordProfiler, RespUsedMarksL2Reuse)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load);
    p.respUsed(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(WordProfiler, OverwriteKeepsPresence)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load);
    p.overwrite(100); // L1 writeback data lands on it
    EXPECT_TRUE(p.present(100));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, ArriveReplaceClosesOldOpensNew)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load);
    const InstId fresh = p.arriveReplace(100, TrafficClass::Load);
    p.addTraffic(fresh, 1.0);
    p.respUsed(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0); // the superseded copy
    EXPECT_EQ(c[WasteCat::Used], 1.0);  // the fresh copy, reused
}

TEST(WordProfiler, WriteKillEndsPresence)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load);
    p.writeKill(100);
    EXPECT_FALSE(p.present(100));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, TrafficResolvedByClassification)
{
    WordProfiler p(WordProfiler::Level::L1);
    const InstId used = p.arrive(100, TrafficClass::Load);
    p.addTraffic(used, 2.0);
    p.load(100);
    const InstId wasted = p.arrive(200, TrafficClass::Load);
    p.addTraffic(wasted, 3.0);
    p.evict(200);

    TrafficStats t;
    p.finalize(t);
    EXPECT_DOUBLE_EQ(t.ldRespL1Used, 2.0);
    EXPECT_DOUBLE_EQ(t.ldRespL1Waste, 3.0);
}

TEST(WordProfiler, StoreClassTrafficGoesToStoreBuckets)
{
    WordProfiler p(WordProfiler::Level::L2);
    const InstId i = p.arrive(100, TrafficClass::Store);
    p.addTraffic(i, 4.0);
    TrafficStats t;
    p.finalize(t);
    EXPECT_DOUBLE_EQ(t.stRespL2Waste, 4.0); // Unevicted => waste
}

TEST(WordProfiler, EpochExcludesWarmup)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load);
    p.load(100);
    p.markEpoch();
    p.arrive(200, TrafficClass::Load);
    p.load(200);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c.total(), 1.0); // only the post-epoch word
}

TEST(WordProfiler, FullyEvictedLineReArrivesFresh)
{
    // Once every word of a line has left, the line's presence is gone
    // entirely: a later arrival opens a fresh record, not Fetch waste.
    WordProfiler p(WordProfiler::Level::L1);
    const Addr base = 64 * wordsPerLine;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        p.arrive(base + w, TrafficClass::Load);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        p.evict(base + w);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        EXPECT_FALSE(p.present(base + w));

    p.arrive(base + 3, TrafficClass::Load);
    EXPECT_TRUE(p.present(base + 3));
    EXPECT_FALSE(p.present(base + 4));
    p.load(base + 3);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], double(wordsPerLine));
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c[WasteCat::Fetch], 0.0);
}

namespace
{

/**
 * Plain per-word reference for the Fig. 4.1/4.2 FSMs: one
 * present/instance entry per word, no per-line grouping and nothing
 * ever erased.
 */
class RefWordProfiler
{
  public:
    explicit RefWordProfiler(WordProfiler::Level level) : level_(level) {}

    InstId
    arrive(Addr word, TrafficClass cls)
    {
        const InstId id = newRec(cls);
        Word &w = words_[word];
        if (w.present)
            recs_[id].cat = WasteCat::Fetch;
        else
            w = Word{true, id};
        return id;
    }

    void
    arriveUntracked(Addr word)
    {
        Word &w = words_[word];
        if (!w.present)
            w = Word{true, invalidInst};
    }

    InstId
    arriveReplace(Addr word, TrafficClass cls)
    {
        Word &w = words_[word];
        if (w.present)
            classify(w.inst, WasteCat::Write);
        const InstId id = newRec(cls);
        w = Word{true, id};
        return id;
    }

    void load(Addr word) { classify(words_[word].inst, WasteCat::Used); }

    /** store() (L1) and overwrite() (L2) share one transition. */
    void
    store(Addr word)
    {
        Word &w = words_[word];
        if (w.present)
            classify(w.inst, WasteCat::Write);
        else
            w = Word{true, invalidInst};
    }

    void
    respUsed(Addr word)
    {
        if (present(word))
            classify(words_[word].inst, WasteCat::Used);
    }

    void writeKill(Addr word) { leave(word, WasteCat::Write); }
    void evict(Addr word) { leave(word, WasteCat::Evict); }

    void
    invalidate(Addr word)
    {
        leave(word, level_ == WordProfiler::Level::L1
                        ? WasteCat::Invalidate
                        : WasteCat::Evict);
    }

    bool
    present(Addr word) const
    {
        auto it = words_.find(word);
        return it != words_.end() && it->second.present;
    }

    void addTraffic(InstId id, double hops) { recs_[id].flitHops += hops; }
    void markEpoch() { epochStart_ = recs_.size(); }

    WasteCounts
    counts() const
    {
        WasteCounts c;
        for (std::size_t i = epochStart_; i < recs_.size(); ++i)
            c[recs_[i].cat] += 1.0;
        return c;
    }

    WasteCounts
    finalize(TrafficStats &t)
    {
        const bool l1 = level_ == WordProfiler::Level::L1;
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            Rec &r = recs_[i];
            if (r.cat == WasteCat::Unclassified)
                r.cat = WasteCat::Unevicted;
            if (i < epochStart_ || r.flitHops == 0)
                continue;
            const bool used = r.cat == WasteCat::Used;
            const bool load = r.cls == TrafficClass::Load;
            double &bucket =
                l1 ? (load ? (used ? t.ldRespL1Used : t.ldRespL1Waste)
                           : (used ? t.stRespL1Used : t.stRespL1Waste))
                   : (load ? (used ? t.ldRespL2Used : t.ldRespL2Waste)
                           : (used ? t.stRespL2Used : t.stRespL2Waste));
            bucket += r.flitHops;
        }
        return counts();
    }

  private:
    struct Word
    {
        bool present = false;
        InstId inst = invalidInst;
    };

    struct Rec
    {
        WasteCat cat;
        TrafficClass cls;
        double flitHops;
    };

    InstId
    newRec(TrafficClass cls)
    {
        recs_.push_back(Rec{WasteCat::Unclassified, cls, 0});
        return static_cast<InstId>(recs_.size() - 1);
    }

    void
    classify(InstId id, WasteCat cat)
    {
        if (id != invalidInst && recs_[id].cat == WasteCat::Unclassified)
            recs_[id].cat = cat;
    }

    void
    leave(Addr word, WasteCat cat)
    {
        if (!present(word))
            return;
        classify(words_[word].inst, cat);
        words_[word] = Word{};
    }

    WordProfiler::Level level_;
    std::size_t epochStart_ = 0;
    std::vector<Rec> recs_;
    std::unordered_map<Addr, Word> words_;
};

void
expectSameCounts(const WasteCounts &a, const WasteCounts &b)
{
    for (unsigned c = 0; c < numWasteCats; ++c)
        ASSERT_EQ(a.byCat[c], b.byCat[c])
            << wasteCatName(static_cast<WasteCat>(c));
}

/**
 * Drive a WordProfiler and the reference through the same random
 * mutator stream over a small line universe, so line slots are
 * erased, re-created and shifted along colliding probe chains
 * throughout.
 */
void
shadowRun(WordProfiler::Level level, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    WordProfiler p(level);
    RefWordProfiler ref(level);

    // 48 lines, past the 70% growth point of the map's first 64
    // slots, so the table rehashes.  Line k is k << 36: the map's
    // multiplicative hash then sends all 48 to at most 8 home slots,
    // so probe chains are long and erases shift them.
    constexpr Addr lines = 48;
    std::uniform_int_distribution<Addr> line_d(0, lines - 1);
    std::uniform_int_distribution<unsigned> widx_d(0, wordsPerLine - 1);
    std::uniform_int_distribution<int> op_d(0, 11);
    const TrafficClass classes[] = {TrafficClass::Load,
                                    TrafficClass::Store};

    for (int i = 0; i < 100'000; ++i) {
        const Addr word = (line_d(rng) << 36) * wordsPerLine + widx_d(rng);
        const TrafficClass cls = classes[rng() & 1];
        switch (op_d(rng)) {
          case 0:
          case 1: {
            const InstId id = p.arrive(word, cls);
            ASSERT_EQ(id, ref.arrive(word, cls));
            const double hops = double(rng() % 8) / 4.0;
            p.addTraffic(id, hops);
            ref.addTraffic(id, hops);
            break;
          }
          case 2:
            p.arriveUntracked(word);
            ref.arriveUntracked(word);
            break;
          case 3: {
            const InstId id = p.arriveReplace(word, cls);
            ASSERT_EQ(id, ref.arriveReplace(word, cls));
            p.addTraffic(id, 0.5);
            ref.addTraffic(id, 0.5);
            break;
          }
          case 4: // an L1 load requires a present word
            if (level == WordProfiler::Level::L1 && ref.present(word)) {
                p.load(word);
                ref.load(word);
            }
            break;
          case 5:
            if (level == WordProfiler::Level::L1)
                p.store(word);
            else
                p.overwrite(word);
            ref.store(word);
            break;
          case 6:
            p.respUsed(word);
            ref.respUsed(word);
            break;
          case 7:
            p.writeKill(word);
            ref.writeKill(word);
            break;
          case 8:
            p.evict(word);
            ref.evict(word);
            break;
          case 9:
            p.invalidate(word);
            ref.invalidate(word);
            break;
          default: { // a whole-line eviction, as a cache victim
            const Addr base = word - word % wordsPerLine;
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                p.evict(base + w);
                ref.evict(base + w);
            }
            break;
          }
        }
        ASSERT_EQ(p.present(word), ref.present(word)) << "op " << i;
        if (i == 20'000) {
            p.markEpoch();
            ref.markEpoch();
        }
        if (i % 5'000 == 0)
            expectSameCounts(p.counts(), ref.counts());
    }

    TrafficStats tp, tr;
    expectSameCounts(p.finalize(tp), ref.finalize(tr));
    EXPECT_EQ(tp.ldRespL1Used, tr.ldRespL1Used);
    EXPECT_EQ(tp.ldRespL1Waste, tr.ldRespL1Waste);
    EXPECT_EQ(tp.ldRespL2Used, tr.ldRespL2Used);
    EXPECT_EQ(tp.ldRespL2Waste, tr.ldRespL2Waste);
    EXPECT_EQ(tp.stRespL1Used, tr.stRespL1Used);
    EXPECT_EQ(tp.stRespL1Waste, tr.stRespL1Waste);
    EXPECT_EQ(tp.stRespL2Used, tr.stRespL2Used);
    EXPECT_EQ(tp.stRespL2Waste, tr.stRespL2Waste);
}

} // namespace

TEST(WordProfiler, RandomizedMatchesPerWordReferenceL1)
{
    shadowRun(WordProfiler::Level::L1, 7);
}

TEST(WordProfiler, RandomizedMatchesPerWordReferenceL2)
{
    shadowRun(WordProfiler::Level::L2, 11);
}

TEST(WordProfilerDeath, LoadOnAbsentWordPanics)
{
    WordProfiler p(WordProfiler::Level::L1);
    EXPECT_DEATH(p.load(100), "absent");
}

} // namespace wastesim
