/**
 * @file
 * DeNovo shared L2 slice (Chapter 2 + Section 3.1).
 *
 * Word-granularity state: each word is Valid (data present),
 * Registered to an L1 (the registrant holds the up-to-date copy), or
 * Invalid.  There are no sharer lists and no transient states; the
 * only "blocking" is a per-line MSHR for outstanding memory fetches,
 * which merges later requesters.  A request that needs a way of a set
 * whose every way is mid-transaction is parked on that set and re-run
 * when a way frees up; the slice never NACKs.
 *
 * Optimizations implemented here: L2 write-validate (no
 * fetch-on-write), dirty-words-only writebacks to memory, L2 Flex
 * memory requests (word-filtered, same-DRAM-row), L2 response bypass
 * (memory data not installed), and the counting Bloom filters backing
 * L2 request bypass.
 */

#ifndef WASTESIM_PROTOCOL_DENOVO_DENOVO_L2_HH
#define WASTESIM_PROTOCOL_DENOVO_DENOVO_L2_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_bank.hh"
#include "cache/cache_array.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/word_profiler.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace wastesim
{

/** One DeNovo L2 slice. */
class DenovoL2 : public MessageHandler
{
  public:
    DenovoL2(NodeId slice, const ProtocolConfig &cfg,
             const SimParams &params, EventQueue &eq, Network &net,
             WordProfiler &prof, MemProfiler &mem_prof);

    /** Dispatch @p msg, then re-run the waiters of every set a way
     *  of which stopped being busy meanwhile. */
    void handle(Message msg) override;

    /** MC presence oracle. */
    bool
    wordPresent(Addr line_addr, unsigned widx) const
    {
        const CacheLine *cl = array_.find(line_addr);
        return cl && cl->validWords.test(widx);
    }

    const BloomBank &bloom() const { return bloom_; }

    // Statistics.
    std::uint64_t wordHits() const { return wordHits_; }
    std::uint64_t memFetches() const { return memFetches_; }
    std::uint64_t registrations() const { return registrations_; }
    std::uint64_t recallsIssued() const { return recallsIssued_; }
    /** Requests parked because every way of their set was busy. */
    std::uint64_t parked() const { return parked_; }
    /** Requests parked right now (0 once a run has drained). */
    std::size_t parkedNow() const;

    const CacheArray &array() const { return array_; }

    /** Debug: print this slice's view of a line. */
    void dumpLine(Addr line_addr) const;

  private:
    struct MemMshr
    {
        struct Waiter
        {
            CoreId core;
            WordMask want;
        };
        std::vector<Waiter> waiters;
        /** Pending registrations for the fetch-on-write path. */
        std::vector<std::pair<CoreId, WordMask>> pendingRegs;
        /** Requester that gets the MC->L1 copy (DMemL1). */
        CoreId directTo = invalidNode;
    };

    struct RecallTxn
    {
        unsigned pending = 0;
        std::vector<std::function<void()>> conts;
    };

    void dispatch(Message &msg);
    void handleLoadReq(Message &msg);
    void handleReg(Message &msg);
    void handleWb(Message &msg);
    void handleMemData(Message &msg);
    void handleBloomReq(const Message &msg);

    /**
     * Ensure a memory fetch covering @p missing of @p line_addr is in
     * flight, allocating (and recalling a victim) as needed.
     */
    void startMemFetch(Addr line_addr, WordMask missing, CoreId requester,
                       TrafficClass cls, bool flex_request);

    void applyRegistration(CacheLine &cl, CoreId req, WordMask mask);

    /**
     * Run @p cont once @p line_addr can have a way: after recalling
     * @p victim, or, if every way is busy (@p victim is nullptr),
     * after one stops being busy.
     */
    void awaitWay(Addr line_addr, CacheLine *victim,
                  std::function<void()> cont);
    /** A way of @p line_addr's set stopped being busy. */
    void wakeSet(Addr line_addr);
    /** Re-run the woken sets' waiters in arrival order. */
    void drainWoken();

    void recallVictim(CacheLine &victim, std::function<void()> cont);
    void progressRecall(Addr victim_line);
    void finishVictim(Addr victim_line);

    void sendLoadResp(CoreId to, ChunkVec chunks, Tick t_mc = 0,
                      Tick t_mem = 0);
    void sendRegInvs(Addr line_addr,
                     const std::unordered_map<NodeId, WordMask> &invs);

    void syncBloom(CacheLine &cl);

    NodeId slice_;
    ProtocolConfig cfg_;
    const SimParams &params_;
    EventQueue &eq_;
    Network &net_;
    WordProfiler &prof_;
    MemProfiler &memProf_;
    CacheArray array_;
    BloomBank bloom_;

    std::unordered_map<Addr, MemMshr> memMshrs_;
    std::unordered_map<Addr, RecallTxn> recalls_;
    /** Per-set FIFO of requests waiting for a way to stop being busy. */
    std::unordered_map<unsigned, std::deque<std::function<void()>>>
        setWaiters_;
    /** Sets with waiters a way of which stopped being busy. */
    std::vector<unsigned> woken_;
    static constexpr unsigned noSet = ~0u;
    unsigned drainingSet_ = noSet;
    bool reparked_ = false;

    std::uint64_t wordHits_ = 0, memFetches_ = 0, registrations_ = 0;
    std::uint64_t recallsIssued_ = 0, parked_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_DENOVO_DENOVO_L2_HH
