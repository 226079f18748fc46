#include "dram/dram_channel.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "obs/debug.hh"
#include "obs/observer.hh"

namespace wastesim
{

DramChannel::DramChannel(EventQueue &eq, DramMap map, unsigned channel)
    : eq_(eq), map_(map), channel_(channel),
      banks_(map.timing.totalBanks()),
      hasWork_((banks_.size() + 63) / 64)
{
}

template <typename F>
void
DramChannel::forEachBankWithWork(F &&f) const
{
    for (std::size_t w = 0; w < hasWork_.size(); ++w) {
        for (std::uint64_t m = hasWork_[w]; m != 0; m &= m - 1)
            f(static_cast<unsigned>(w * 64 + std::countr_zero(m)));
    }
}

void
DramChannel::enqueue(DramRequest req)
{
    if (req.isWrite)
        ++writes_;
    else
        ++reads_;

    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(req));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(req);
    }

    const Addr line = slots_[slot].line;
    const unsigned b = map_.bankOf(line);
    banks_[b].queue.push_back({nextSeq_++, map_.rowOf(line), slot});
    hasWork_[b / 64] |= std::uint64_t(1) << (b % 64);
    queuePeak_ = std::max(queuePeak_, ++queued_);
    trySchedule();
}

void
DramChannel::trySchedule()
{
    while (queued_ > 0) {
        const Tick now = eq_.now();

        // First-ready: oldest request hitting an open row on a ready
        // bank.  Fallback: oldest request whose bank is ready.  Each
        // bank's queue is oldest first, so its head is its fallback
        // candidate and its row-hit scan stops at the first hit, or
        // once it is no older than the best hit found so far.
        constexpr std::uint64_t none = ~std::uint64_t(0);
        std::uint64_t hitSeq = none, headSeq = none;
        unsigned hitBank = 0, headBank = 0;
        std::size_t hitPos = 0;
        forEachBankWithWork([&](unsigned b) {
            const Bank &bank = banks_[b];
            if (bank.readyAt > now)
                return;
            const std::vector<Pending> &q = bank.queue;
            if (q.front().seq < headSeq) {
                headSeq = q.front().seq;
                headBank = b;
            }
            if (!bank.rowOpen)
                return;
            for (std::size_t i = 0; i < q.size() && q[i].seq < hitSeq;
                 ++i) {
                if (q[i].row == bank.openRow) {
                    hitSeq = q[i].seq;
                    hitBank = b;
                    hitPos = i;
                    break;
                }
            }
        });

        if (hitSeq != none) {
            issue(hitBank, hitPos);
        } else if (headSeq != none) {
            issue(headBank, 0);
        } else {
            // No targeted bank is ready: wake when the earliest bank
            // that actually has work frees up.
            if (!wakeupPending_) {
                Tick earliest = ~Tick(0);
                forEachBankWithWork([&](unsigned b) {
                    earliest = std::min(earliest, banks_[b].readyAt);
                });
                panic_if(earliest <= now, "bank ready but not found");
                wakeupPending_ = true;
                eq_.scheduleAt(earliest, [this] {
                    wakeupPending_ = false;
                    trySchedule();
                });
            }
            return;
        }
    }
}

void
DramChannel::issue(unsigned b, std::size_t pos)
{
    const Tick now = eq_.now();
    Bank &bank = banks_[b];
    const Pending p = bank.queue[pos];
    bank.queue.erase(bank.queue.begin() + static_cast<std::ptrdiff_t>(pos));
    if (bank.queue.empty())
        hasWork_[b / 64] &= ~(std::uint64_t(1) << (b % 64));
    --queued_;
    DramRequest &req = slots_[p.slot];
    const DramTiming &t = map_.timing;

    Tick lat;
    const char *outcome;
    if (bank.rowOpen && bank.openRow == p.row) {
        lat = t.rowHitLatency();
        ++rowHits_;
        outcome = "hit";
    } else if (!bank.rowOpen) {
        lat = t.rowMissLatency();
        ++rowMisses_;
        outcome = "miss";
    } else {
        lat = t.rowConflictLatency();
        ++rowConflicts_;
        outcome = "conflict";
    }

    // Open-page policy: leave the row open.
    bank.rowOpen = true;
    bank.openRow = p.row;

    // The burst occupies the shared data bus; back-to-back accesses
    // serialize on it.  With the partial-read extension, short
    // transfers occupy the bus proportionally less.
    const Tick burst = t.burstFor(req.words);
    const Tick data_start =
        std::max(now + lat - t.tBurst, busReadyAt_);
    const Tick done = data_start + burst;
    busReadyAt_ = done;
    bank.readyAt = done;

    DPRINTF(Dram, eq_, "ch%u %s line %llx bank %u row-%s done %llu",
            channel_, req.isWrite ? "write" : "read",
            static_cast<unsigned long long>(req.line), b, outcome,
            static_cast<unsigned long long>(done));

    if (SimObserver *o = simObserver(); o && o->wantTimeline()) {
        o->timeline.complete("dram", req.isWrite ? "write" : "read",
                             static_cast<double>(now),
                             static_cast<double>(done - now), 0,
                             1000 + channel_);
    }

    if (req.onDone) {
        eq_.scheduleAt(done,
                       [cb = std::move(req.onDone), done] { cb(done); });
    }
    freeSlots_.push_back(p.slot);
}

} // namespace wastesim
