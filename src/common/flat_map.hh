/**
 * @file
 * FlatMap: an open-addressing hash map from Addr-sized keys to small
 * values, used on the profiling hot path.
 *
 * The per-word profilers perform millions of find/getOrDefault/erase
 * operations per simulated run; std::unordered_map pays a node
 * allocation per insert and a pointer chase per lookup.  This map
 * stores slots in one flat array (linear probing, backward-shift
 * deletion, power-of-two capacity), so lookups are cache-friendly and
 * steady-state operation never allocates.
 *
 * Determinism note: no simulation result may depend on iteration
 * order; this map deliberately provides no iteration, so replacing
 * std::unordered_map with it cannot change any figure.
 */

#ifndef WASTESIM_COMMON_FLAT_MAP_HH
#define WASTESIM_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace wastesim
{

/** Open-addressing Addr -> V hash map (no iteration by design). */
template <typename V>
class FlatMap
{
  public:
    FlatMap() { rehash(initialCap); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pointer to the value for @p key, or nullptr when absent. */
    V *
    find(Addr key)
    {
        const std::size_t i = probe(key);
        return slots_[i].state == Slot::Used ? &slots_[i].val : nullptr;
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = probe(key);
        return slots_[i].state == Slot::Used ? &slots_[i].val : nullptr;
    }

    /**
     * Value for @p key, default-constructing it on first use (the
     * default V is only built on a miss).
     */
    V &
    getOrDefault(Addr key)
    {
        if (size_ + 1 > (slots_.size() * 7) / 10)
            rehash(slots_.size() * 2);
        const std::size_t i = probe(key);
        if (slots_[i].state != Slot::Used) {
            slots_[i].key = key;
            slots_[i].val = V{};
            slots_[i].state = Slot::Used;
            ++size_;
        }
        return slots_[i].val;
    }

    /** Remove @p key if present. @return true when removed. */
    bool
    erase(Addr key)
    {
        const std::size_t i = probe(key);
        if (slots_[i].state != Slot::Used)
            return false;
        eraseSlot(i);
        return true;
    }

  private:
    struct Slot
    {
        enum State : unsigned char { Empty, Used };
        Addr key = 0;
        V val{};
        State state = Empty;
    };

    static constexpr std::size_t initialCap = 64;

    /** Fibonacci multiplicative hash onto the table. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask_;
    }

    /** First slot that holds @p key or is empty. */
    std::size_t
    probe(Addr key) const
    {
        std::size_t i = home(key);
        while (slots_[i].state == Slot::Used && slots_[i].key != key)
            i = (i + 1) & mask_;
        return i;
    }

    /**
     * Empty slot @p i.  Backward-shift deletion keeps probe chains
     * intact without tombstones: pull each displaced follower into
     * the hole unless its home slot lies inside the (hole, follower]
     * arc.
     */
    void
    eraseSlot(std::size_t i)
    {
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (slots_[j].state != Slot::Used)
                break;
            const std::size_t h = home(slots_[j].key);
            const bool in_arc = i <= j ? (h > i && h <= j)
                                       : (h > i || h <= j);
            if (!in_arc) {
                slots_[i] = std::move(slots_[j]);
                i = j;
            }
        }
        slots_[i].state = Slot::Empty;
        --size_;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        size_ = 0;
        for (auto &s : old) {
            if (s.state != Slot::Used)
                continue;
            const std::size_t i = probe(s.key);
            slots_[i] = std::move(s);
            ++size_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_COMMON_FLAT_MAP_HH
