/**
 * @file
 * Per-cache word-instance profiler implementing the L1 and L2 waste
 * FSMs of Figs. 4.1 and 4.2.
 *
 * Every word delivered into a cache by a data message creates an
 * *instance record*.  The record is classified exactly once:
 *
 *  - arrival while the word is already present     -> Fetch
 *  - first read (L1) / returned in a response (L2) -> Used
 *  - overwritten before use                        -> Write
 *  - invalidated before use (L1 only)              -> Invalidate
 *  - evicted before use                            -> Evict
 *  - still unclassified at end of simulation       -> Unevicted
 *
 * The record also banks the fractional data flit-hops that carried the
 * word, so the Used/Waste split of Figs. 5.1b/5.1c can be resolved
 * post-hoc from the final classification.
 */

#ifndef WASTESIM_PROFILE_WORD_PROFILER_HH
#define WASTESIM_PROFILE_WORD_PROFILER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Word-instance waste profiler for one L1 cache or one L2 slice. */
class WordProfiler
{
  public:
    /** Which FSM flavor this profiler implements. */
    enum class Level { L1, L2 };

    explicit WordProfiler(Level level) : level_(level) {}

    /**
     * A tracked word arrives in a data message.
     *
     * @param word_num global word number (address / 4)
     * @param cls      traffic class of the delivering message
     * @return the instance id to bank traffic against
     */
    InstId arrive(Addr word_num, TrafficClass cls);

    /**
     * A word becomes present without a profiled fetch: store-allocated
     * at the L1 under write-validate, or installed by an L1 writeback
     * at the L2.  Subsequent tracked arrivals of the word classify as
     * Fetch waste.
     */
    void arriveUntracked(Addr word_num);

    /** The core reads the word (L1) — classifies Used. */
    void
    load(Addr word_num)
    {
        LineSlot *ls = present_.find(lineKey(word_num));
        const unsigned w = widx(word_num);
        panic_if(!ls || !(ls->mask & (1u << w)),
                 "L1 load hit on word %llu the profiler believes absent",
                 static_cast<unsigned long long>(word_num));
        classify(ls->inst[w], WasteCat::Used);
    }

    /**
     * The core writes the word (L1).  An open record is classified
     * Write (overwritten before use); an absent word becomes present
     * untracked (write-validate allocation).
     */
    void
    store(Addr word_num)
    {
        LineSlot &ls = present_.getOrDefault(lineKey(word_num));
        const unsigned w = widx(word_num);
        if (ls.mask & (1u << w)) {
            classify(ls.inst[w], WasteCat::Write);
        } else {
            // Write-validate allocation: present, untracked.
            ls.mask |= 1u << w;
            ls.inst[w] = invalidInst;
        }
    }

    /**
     * The L2's resident copy of this word satisfied a request (an L2
     * hit) — classifies Used.  Demand-fill forwards do not count: a
     * fetched word only becomes Used through reuse.
     */
    void respUsed(Addr word_num);

    /**
     * Newer data for a tracked word arrives (e.g. an owner's dirty
     * copy reaching the L2): the old open record becomes Write waste
     * and a fresh open record takes over as the resident instance.
     */
    InstId arriveReplace(Addr word_num, TrafficClass cls);

    /**
     * A remote write kills the resident copy (DeNovo registration
     * stealing the word): open record becomes Write waste, presence
     * ends.
     */
    void writeKill(Addr word_num);

    /**
     * An L1 writeback overwrites this word at the L2 — an open record
     * becomes Write waste.  The word stays (or becomes) present.
     */
    void overwrite(Addr word_num);

    /** The word is evicted from the cache. */
    void evict(Addr word_num);

    /** The word is invalidated by the protocol. */
    void invalidate(Addr word_num);

    /** True if the profiler believes the word is present. */
    bool
    present(Addr word_num) const
    {
        const LineSlot *ls = present_.find(lineKey(word_num));
        return ls && (ls->mask & (1u << widx(word_num)));
    }

    /** Bank @p flit_hops of data traffic against instance @p id. */
    void
    addTraffic(InstId id, double flit_hops)
    {
        panic_if(id == invalidInst || id >= recs_.size(),
                 "traffic banked against invalid instance");
        recs_[id].flitHops += flit_hops;
    }

    /**
     * Begin the measurement window: records created earlier (cache
     * warm-up) are excluded from counts and traffic resolution.
     */
    void markEpoch() { epochStart_ = recs_.size(); }

    /**
     * Close out the run: open records become Unevicted.  Returns word
     * counts by category and adds this cache's resolved data flit-hops
     * into @p traffic (dest = ToL1 or ToL2 by level).
     */
    WasteCounts finalize(TrafficStats &traffic);

    /** Word counts by category so far (without finalizing). */
    WasteCounts counts() const;

    /** Number of instance records created. */
    std::size_t numRecords() const { return recs_.size(); }

  private:
    struct Rec
    {
        WasteCat cat = WasteCat::Unclassified;
        TrafficClass cls = TrafficClass::Load;
        double flitHops = 0;
    };

    /**
     * Presence state of one cache line's words: a present mask plus
     * the resident instance per word (invalidInst = present but
     * untracked).  Grouping by line means a fill/evict/load burst
     * over a line costs one hash probe, not sixteen, and the 32-bit
     * InstId keeps a LineSlot at two cache lines.
     *
     * Only lines with a present word have a slot: the slot is erased
     * when its mask reaches 0, and an absent slot means mask 0.  The
     * map therefore holds about as many lines as the cache does.
     */
    struct LineSlot
    {
        std::uint16_t mask = 0;
        std::array<InstId, wordsPerLine> inst;
    };

    /** A present word leaves the cache: classify its open record as
     *  @p cat and clear its present bit, erasing the line's slot once
     *  no word of the line is present. */
    void leave(Addr word_num, WasteCat cat);

    /** Classify record @p id as @p cat if still open. */
    void
    classify(InstId id, WasteCat cat)
    {
        if (id != invalidInst &&
            recs_[id].cat == WasteCat::Unclassified) {
            recs_[id].cat = cat;
        }
    }

    static Addr lineKey(Addr word_num) { return word_num / wordsPerLine; }
    static unsigned widx(Addr word_num)
    {
        return static_cast<unsigned>(word_num % wordsPerLine);
    }

    Level level_;
    std::size_t epochStart_ = 0;
    std::vector<Rec> recs_;
    /** line number -> per-word presence/instance state. */
    FlatMap<LineSlot> present_;
    bool finalized_ = false;
};

} // namespace wastesim

#endif // WASTESIM_PROFILE_WORD_PROFILER_HH
