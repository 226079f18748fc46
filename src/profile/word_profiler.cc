#include "profile/word_profiler.hh"

#include "common/log.hh"

namespace wastesim
{

InstId
WordProfiler::arrive(Addr word_num, TrafficClass cls)
{
    panic_if(recs_.size() >= invalidInst, "instance id space exhausted");
    InstId id = static_cast<InstId>(recs_.size());
    recs_.push_back(Rec{WasteCat::Unclassified, cls, 0});

    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    if (ls.mask & (1u << w)) {
        // Word already present: the arriving copy is Fetch waste
        // (Fig. 4.1/4.2, "word present in cache? yes -> Fetch").
        recs_[id].cat = WasteCat::Fetch;
        return id;
    }
    ls.mask |= 1u << w;
    ls.inst[w] = id;
    return id;
}

void
WordProfiler::arriveUntracked(Addr word_num)
{
    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    if (!(ls.mask & (1u << w))) {
        ls.mask |= 1u << w;
        ls.inst[w] = invalidInst;
    }
}

InstId
WordProfiler::arriveReplace(Addr word_num, TrafficClass cls)
{
    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    if (ls.mask & (1u << w)) {
        classify(ls.inst[w], WasteCat::Write);
        ls.mask &= static_cast<std::uint16_t>(~(1u << w));
    }

    panic_if(recs_.size() >= invalidInst, "instance id space exhausted");
    InstId id = static_cast<InstId>(recs_.size());
    recs_.push_back(Rec{WasteCat::Unclassified, cls, 0});
    ls.mask |= 1u << w;
    ls.inst[w] = id;
    return id;
}

void
WordProfiler::writeKill(Addr word_num)
{
    leave(word_num, WasteCat::Write);
}

void
WordProfiler::respUsed(Addr word_num)
{
    LineSlot *ls = present_.find(lineKey(word_num));
    const unsigned w = widx(word_num);
    if (ls && (ls->mask & (1u << w)))
        classify(ls->inst[w], WasteCat::Used);
}

void
WordProfiler::overwrite(Addr word_num)
{
    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    if (ls.mask & (1u << w)) {
        classify(ls.inst[w], WasteCat::Write);
    } else {
        ls.mask |= 1u << w;
        ls.inst[w] = invalidInst;
    }
}

void
WordProfiler::evict(Addr word_num)
{
    leave(word_num, WasteCat::Evict);
}

void
WordProfiler::invalidate(Addr word_num)
{
    leave(word_num,
          level_ == Level::L1 ? WasteCat::Invalidate : WasteCat::Evict);
}

void
WordProfiler::leave(Addr word_num, WasteCat cat)
{
    const Addr key = lineKey(word_num);
    LineSlot *ls = present_.find(key);
    const unsigned w = widx(word_num);
    if (!ls || !(ls->mask & (1u << w)))
        return;
    classify(ls->inst[w], cat);
    ls->mask &= static_cast<std::uint16_t>(~(1u << w));
    if (ls->mask == 0)
        present_.erase(key);
}

WasteCounts
WordProfiler::finalize(TrafficStats &traffic)
{
    panic_if(finalized_, "WordProfiler finalized twice");
    finalized_ = true;

    for (auto &r : recs_)
        if (r.cat == WasteCat::Unclassified)
            r.cat = WasteCat::Unevicted;

    const bool to_l1 = level_ == Level::L1;
    for (std::size_t i = epochStart_; i < recs_.size(); ++i) {
        const Rec &r = recs_[i];
        if (r.flitHops == 0)
            continue;
        const bool used = r.cat == WasteCat::Used;
        if (r.cls == TrafficClass::Load) {
            double &bucket = to_l1
                ? (used ? traffic.ldRespL1Used : traffic.ldRespL1Waste)
                : (used ? traffic.ldRespL2Used : traffic.ldRespL2Waste);
            bucket += r.flitHops;
        } else {
            double &bucket = to_l1
                ? (used ? traffic.stRespL1Used : traffic.stRespL1Waste)
                : (used ? traffic.stRespL2Used : traffic.stRespL2Waste);
            bucket += r.flitHops;
        }
    }
    return counts();
}

WasteCounts
WordProfiler::counts() const
{
    WasteCounts c;
    for (std::size_t i = epochStart_; i < recs_.size(); ++i)
        c[recs_[i].cat] += 1.0;
    return c;
}

} // namespace wastesim
