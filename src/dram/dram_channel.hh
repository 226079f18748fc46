/**
 * @file
 * One DRAM channel: FR-FCFS scheduling over 2 ranks x 8 banks with an
 * open-page policy.
 *
 * The scheduler prefers (F)irst-(R)eady requests — those hitting an
 * open row on a free bank — and falls back to the oldest request on a
 * free bank; the shared data bus serializes bursts.
 *
 * Pending requests wait in a free-list slot pool and never move until
 * they issue.  Each bank keeps its own arrival-ordered queue of
 * {arrival seq, row, slot} entries, and a bitmask marks the banks with
 * work, so picking a request costs O(banks) rather than O(queue depth).
 */

#ifndef WASTESIM_DRAM_DRAM_CHANNEL_HH
#define WASTESIM_DRAM_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"

namespace wastesim
{

/** A single line-granularity DRAM access. */
struct DramRequest
{
    /** Completion callback; captures are small (a controller pointer
     *  plus a pooled transaction index), so they stay inline. */
    using DoneFn = InlineFunction<void(Tick done), 32>;

    Addr line = 0;
    bool isWrite = false;
    /** Words actually transferred (partial-read extension); a full
     *  line unless the timing model enables partialReads. */
    unsigned words = wordsPerLine;
    DoneFn onDone; //!< may be empty for writes
};

/** Event-driven FR-FCFS DRAM channel model. */
class DramChannel
{
  public:
    /** @p channel is this channel's index (trace/metric labels). */
    DramChannel(EventQueue &eq, DramMap map, unsigned channel = 0);

    /** Enqueue an access; onDone fires at completion time. */
    void enqueue(DramRequest req);

    /** Statistics. */
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t rowConflicts() const { return rowConflicts_; }

    /** Pending queue depth (testing hook / sampler gauge). */
    std::size_t queued() const { return queued_; }

    /** Deepest the request queue has ever been (whole run). */
    std::size_t queuePeak() const { return queuePeak_; }

    unsigned channel() const { return channel_; }

    const DramMap &map() const { return map_; }

  private:
    /** A pending request as its bank sees it. */
    struct Pending
    {
        std::uint64_t seq; //!< channel-wide arrival order
        Addr row;
        std::uint32_t slot; //!< index into slots_
    };

    struct Bank
    {
        bool rowOpen = false;
        Addr openRow = 0;
        Tick readyAt = 0;
        std::vector<Pending> queue; //!< oldest first
    };

    /** Try to issue the best request; reschedule if none ready. */
    void trySchedule();

    /** Issue entry @p pos of bank @p b's queue, starting no earlier
     *  than now, and recycle its slot. */
    void issue(unsigned b, std::size_t pos);

    /** Call @p f(bank index) for every bank with pending work. */
    template <typename F>
    void forEachBankWithWork(F &&f) const;

    EventQueue &eq_;
    DramMap map_;
    unsigned channel_;
    std::vector<Bank> banks_;
    /** Bit b of word b / 64 is set while bank b's queue is non-empty. */
    std::vector<std::uint64_t> hasWork_;
    std::vector<DramRequest> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    std::size_t queued_ = 0;
    Tick busReadyAt_ = 0;
    bool wakeupPending_ = false;

    std::uint64_t reads_ = 0, writes_ = 0;
    std::uint64_t rowHits_ = 0, rowMisses_ = 0, rowConflicts_ = 0;
    std::size_t queuePeak_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_DRAM_DRAM_CHANNEL_HH
