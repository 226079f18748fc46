/** Unit tests: address math, word masks, RNG, flat map, text tables. */

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/topology.hh"
#include "common/types.hh"
#include "common/word_mask.hh"

namespace wastesim
{

TEST(Types, LineAndWordMath)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 64u);
    EXPECT_EQ(lineAddr(130), 128u);
    EXPECT_EQ(wordIndex(0), 0u);
    EXPECT_EQ(wordIndex(4), 1u);
    EXPECT_EQ(wordIndex(63), 15u);
    EXPECT_EQ(wordIndex(68), 1u);
    EXPECT_EQ(wordNumber(64), 16u);
    EXPECT_TRUE(isLineAligned(128));
    EXPECT_FALSE(isLineAligned(132));
}

TEST(Types, Geometry)
{
    EXPECT_EQ(numTiles, 16u);
    EXPECT_EQ(wordsPerLine, 16u);
    EXPECT_EQ(wordsPerFlit, 4u);
    EXPECT_EQ(maxWordsPerMsg, 16u);
}

TEST(Types, HomeSliceInterleave)
{
    const Topology topo;
    // 256-byte interleave: four consecutive lines share a slice.
    const Addr base = 1u << 20;
    const NodeId s = topo.homeSlice(base);
    EXPECT_EQ(topo.homeSlice(base + 64), s);
    EXPECT_EQ(topo.homeSlice(base + 128), s);
    EXPECT_EQ(topo.homeSlice(base + 192), s);
    EXPECT_NE(topo.homeSlice(base + 256), s);
    // All 16 slices are covered.
    bool seen[16] = {};
    for (Addr a = base; a < base + 16 * 256; a += 256)
        seen[topo.homeSlice(a)] = true;
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(Types, MemChannelInterleave)
{
    const Topology topo;
    const Addr base = 1u << 20;
    bool seen[4] = {};
    for (unsigned i = 0; i < 4; ++i)
        seen[topo.memChannel(base + i * 64)] = true;
    for (bool b : seen)
        EXPECT_TRUE(b);
    // MC tiles are the corners.
    EXPECT_EQ(topo.memCtrlTile(0), 0u);
    EXPECT_EQ(topo.memCtrlTile(1), 3u);
    EXPECT_EQ(topo.memCtrlTile(2), 12u);
    EXPECT_EQ(topo.memCtrlTile(3), 15u);
}

TEST(WordMask, Basics)
{
    WordMask m;
    EXPECT_TRUE(m.empty());
    m.set(3);
    m.set(15);
    EXPECT_TRUE(m.test(3));
    EXPECT_TRUE(m.test(15));
    EXPECT_FALSE(m.test(0));
    EXPECT_EQ(m.count(), 2u);
    m.clear(3);
    EXPECT_FALSE(m.test(3));
    EXPECT_EQ(WordMask::full().count(), 16u);
    EXPECT_TRUE(WordMask::full().isFull());
}

TEST(WordMask, SetOperations)
{
    const WordMask a = WordMask::range(0, 8);
    const WordMask b = WordMask::range(4, 8);
    EXPECT_EQ((a | b), WordMask::range(0, 12));
    EXPECT_EQ((a & b), WordMask::range(4, 4));
    EXPECT_EQ((a - b), WordMask::range(0, 4));
    EXPECT_EQ(WordMask::single(5).count(), 1u);
    EXPECT_TRUE(WordMask::single(5).test(5));
}

TEST(WordMask, RangeEdgeCases)
{
    EXPECT_TRUE(WordMask::range(0, 0).empty());
    EXPECT_TRUE(WordMask::range(0, 16).isFull());
    EXPECT_EQ(WordMask::range(15, 1).raw(), 0x8000u);
    EXPECT_EQ(WordMask::range(12, 16).count(), 4u); // clipped at 16
}

TEST(WordMask, ToString)
{
    WordMask m = WordMask::single(1);
    EXPECT_EQ(m.toString(), "0100000000000000");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool diff = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        diff |= a2.next() != c.next();
    EXPECT_TRUE(diff);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng r(99);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Stats, TextTableAlignsColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"ccc", "d"});
    const std::string s = t.render();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("ccc"), std::string::npos);
    EXPECT_NE(s.find("="), std::string::npos);
}

TEST(Stats, Formatting)
{
    EXPECT_EQ(pct(0.395), "39.5%");
    EXPECT_EQ(fixed(1.5, 1), "1.5");
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(FlatMap, GetOrDefault)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(3), nullptr);

    int &v = m.getOrDefault(3);
    EXPECT_EQ(v, 0);
    v = 42;
    // A present key keeps its value.
    EXPECT_EQ(m.getOrDefault(3), 42);
    EXPECT_EQ(m.size(), 1u);
    const FlatMap<int> &cm = m;
    ASSERT_NE(cm.find(3), nullptr);
    EXPECT_EQ(*cm.find(3), 42);
    EXPECT_EQ(cm.find(4), nullptr);
}

TEST(FlatMap, Erase)
{
    FlatMap<int> m;
    // 100 keys grow the table past its initial 64 slots twice.
    for (Addr k = 0; k < 100; ++k)
        m.getOrDefault(k) = static_cast<int>(k * 10);
    EXPECT_EQ(m.size(), 100u);

    EXPECT_TRUE(m.erase(50));
    EXPECT_FALSE(m.erase(50));
    EXPECT_EQ(m.find(50), nullptr);
    EXPECT_EQ(m.size(), 99u);

    // Every untouched key is still reachable after the deletion.
    for (Addr k = 0; k < 100; ++k) {
        if (k == 50)
            continue;
        ASSERT_NE(m.find(k), nullptr) << "lost key " << k;
        EXPECT_EQ(*m.find(k), static_cast<int>(k * 10));
    }

    // An erased key comes back default-constructed.
    EXPECT_EQ(m.getOrDefault(50), 0);
    for (Addr k = 0; k < 100; ++k)
        EXPECT_TRUE(m.erase(k));
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);
}

// Randomized shadow test: a long interleaving of getOrDefault writes,
// erases and rehash-triggering growth must match std::unordered_map
// exactly.  This is the only exerciser of the backward-shift deletion
// over colliding probe chains, which the word profiler runs on every
// line whose last word leaves the cache, so it runs enough operations
// to wrap the table many times.
TEST(FlatMap, RandomizedShadowEquivalence)
{
    std::mt19937_64 rng(12345);
    FlatMap<std::uint64_t> m;
    std::unordered_map<Addr, std::uint64_t> ref;

    // Key universe deliberately small so probe chains collide and
    // deletions regularly shift later entries.
    std::uniform_int_distribution<Addr> key(0, 400);
    std::uniform_int_distribution<int> op(0, 9);

    for (int i = 0; i < 200'000; ++i) {
        const Addr k = key(rng);
        switch (op(rng)) {
          case 0:
          case 1:
          case 2:
          case 3: { // getOrDefault, overwriting the value half the time
            std::uint64_t &v = m.getOrDefault(k);
            std::uint64_t &rv = ref[k];
            ASSERT_EQ(v, rv);
            if (rng() & 1)
                v = rv = rng();
            break;
          }
          case 4:
          case 5:
          case 6: { // erase
            ASSERT_EQ(m.erase(k), ref.erase(k) > 0);
            break;
          }
          default: { // find
            auto it = ref.find(k);
            const std::uint64_t *p = m.find(k);
            if (it == ref.end()) {
                ASSERT_EQ(p, nullptr);
            } else {
                ASSERT_NE(p, nullptr);
                ASSERT_EQ(*p, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
}

} // namespace wastesim
