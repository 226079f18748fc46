/**
 * @file
 * Set-associative tag/metadata array shared by the MESI and DeNovo
 * controllers.
 *
 * The simulator is metadata-only: lines carry per-word coherence
 * state, dirty bits and profiler instance references, but no data
 * values (no reported metric depends on values).
 */

#ifndef WASTESIM_CACHE_CACHE_ARRAY_HH
#define WASTESIM_CACHE_CACHE_ARRAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/sharer_mask.hh"
#include "common/types.hh"
#include "common/word_mask.hh"

namespace wastesim
{

/** MESI line states (used by the L1; the directory tracks its own). */
enum class MesiState : unsigned char { I, S, E, M };

/** Printable name of a MESI state. */
const char *mesiStateName(MesiState s);

/**
 * One cache line's metadata.  Fields are a superset of what the two
 * protocol families need; unused fields stay at their defaults.
 */
struct CacheLine
{
    Addr line = 0;              //!< line byte address
    bool valid = false;         //!< tag valid
    bool busy = false;          //!< mid-transaction; not evictable

    // --- MESI L1 ---
    MesiState mesi = MesiState::I;

    // --- word-granular state (both families) ---
    WordMask validWords;        //!< words with (conceptually) live data
    WordMask dirtyWords;        //!< words modified vs. the next level
    WordMask regWords;          //!< DeNovo L1: words this core registered

    // --- directory / L2 ---
    SharerMask sharers;         //!< MESI dir: L1 sharer bit vector
    NodeId owner = invalidNode; //!< MESI dir: exclusive/modified owner
    /** DeNovo L2: registrant L1 per word (invalidNode = none). */
    std::array<NodeId, wordsPerLine> regOwner;

    /** Memory-profiler instance carried by each resident word. */
    std::array<InstId, wordsPerLine> memRef;

    std::uint64_t lastUse = 0;  //!< LRU stamp
    bool inBloom = false;       //!< tracked by the slice's Bloom bank

    CacheLine() { clearPerWord(); }

    /** Reset per-word metadata arrays. */
    void
    clearPerWord()
    {
        regOwner.fill(invalidNode);
        memRef.fill(invalidInst);
    }

    /** Re-initialize the slot for a new line address. */
    void
    resetTo(Addr line_addr)
    {
        line = line_addr;
        valid = true;
        busy = false;
        mesi = MesiState::I;
        validWords = WordMask::none();
        dirtyWords = WordMask::none();
        regWords = WordMask::none();
        sharers.reset();
        owner = invalidNode;
        inBloom = false;
        clearPerWord();
    }

    /** DeNovo L2: words registered to any L1. */
    WordMask
    registeredMask() const
    {
        WordMask m;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (regOwner[w] != invalidNode)
                m.set(w);
        return m;
    }
};

/** A set-associative array of CacheLine slots with LRU replacement. */
class CacheArray
{
  public:
    /**
     * @param sets       number of sets
     * @param ways       associativity
     * @param index_div  line-address divisor applied before set
     *                   indexing (L2 slices see every 16th 256-byte
     *                   chunk, so they divide out the interleaving)
     */
    CacheArray(unsigned sets, unsigned ways, unsigned index_div = 1);

    /** Find the line, or nullptr. Does not touch LRU. */
    CacheLine *
    find(Addr line_addr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * ways_;
        for (unsigned w = 0; w < ways_; ++w)
            if (tags_[base + w] == line_addr)
                return &slots_[base + w];
        return nullptr;
    }

    const CacheLine *
    find(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /** Mark the line most-recently used. */
    void touch(CacheLine &cl) { cl.lastUse = ++useClock_; }

    /**
     * Re-initialize @p cl for @p line_addr (after the caller finished
     * evicting any victim), keeping the packed tag array in sync.
     * Always use this for slots owned by the array; the raw
     * CacheLine::resetTo is only for detached copies (evict buffers).
     */
    void
    resetTo(CacheLine &cl, Addr line_addr)
    {
        cl.resetTo(line_addr);
        tags_[slotIndex(cl)] = line_addr;
    }

    /**
     * Choose the slot a fill of @p line_addr should use: an invalid
     * way if one exists, else the LRU non-busy way.  Returns nullptr
     * if every way is busy (caller must retry).
     *
     * The returned slot may hold a valid victim; the caller performs
     * the protocol eviction actions and then calls resetTo().
     */
    CacheLine *victimFor(Addr line_addr);

    /** Invalidate (tag-drop) a line slot. */
    void
    invalidate(CacheLine &cl)
    {
        cl.valid = false;
        cl.busy = false;
        tags_[slotIndex(cl)] = noTag;
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Set index for @p line_addr (sets_ is a power of two). */
    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(
            (line_addr / bytesPerLine / indexDiv_) & (sets_ - 1));
    }

    /** Iterate all valid lines (testing / end-of-run sweeps). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &cl : slots_)
            if (cl.valid)
                fn(cl);
    }

  private:
    /** Tag slot of invalid ways (never a real line address). */
    static constexpr Addr noTag = ~Addr(0);

    std::size_t
    slotIndex(const CacheLine &cl) const
    {
        return static_cast<std::size_t>(&cl - slots_.data());
    }

    unsigned sets_, ways_, indexDiv_;
    std::uint64_t useClock_ = 0;
    std::vector<CacheLine> slots_;
    /**
     * Packed tag array mirroring slots_ (noTag = invalid way).  A
     * CacheLine is ~260 bytes, so a ways-wide lookup over the slots
     * touches one cache line per way; scanning the packed tags
     * touches one or two for the whole set.
     */
    std::vector<Addr> tags_;
};

} // namespace wastesim

#endif // WASTESIM_CACHE_CACHE_ARRAY_HH
