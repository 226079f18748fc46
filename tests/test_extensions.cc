/** Tests for the extension features: partial DRAM reads, the energy
 *  estimator and link-utilization tracking. */

#include <gtest/gtest.h>

#include "profile/energy.hh"
#include "script_workload.hh"
#include "system/report.hh"
#include "system/runner.hh"

namespace wastesim
{

namespace
{

std::unique_ptr<ScriptWorkload>
flexStream()
{
    // A flex region streamed once: every struct has 4 of 16 words
    // used, so line-granular DRAM produces 12 Excess words per
    // struct under L2 Flex.
    auto wl = std::make_unique<ScriptWorkload>();
    const Addr a = wl->alloc(128 * 1024);
    Region r;
    r.name = "structs";
    r.base = a;
    r.size = 128 * 1024;
    r.flex = true;
    r.strideWords = 16;
    r.usedFields = {0, 1, 2, 3};
    wl->regionTable().add(r);
    for (unsigned s = 0; s < 512; ++s)
        for (unsigned f = 0; f < 4; ++f)
            wl->load(s % numTiles, a + (s * 16 + f) * bytesPerWord);
    wl->finish();
    return wl;
}

} // namespace

TEST(PartialDram, EliminatesExcessWaste)
{
    auto wl = flexStream();

    SimParams line = SimParams::scaled();
    const RunResult with_line =
        runOne(ProtocolName::DFlexL2, *wl, line);
    EXPECT_GT(with_line.memWaste[WasteCat::Excess], 0.0);

    SimParams partial = SimParams::scaled();
    partial.dram.partialReads = true;
    const RunResult with_partial =
        runOne(ProtocolName::DFlexL2, *wl, partial);
    EXPECT_DOUBLE_EQ(with_partial.memWaste[WasteCat::Excess], 0.0);

    // Words fetched from memory shrink accordingly.
    EXPECT_LT(with_partial.memWaste.total(),
              with_line.memWaste.total());
}

TEST(PartialDram, ShortBurstsFreeTheBus)
{
    DramTiming t;
    EXPECT_EQ(t.burstFor(16), t.tBurst);
    EXPECT_EQ(t.burstFor(4), t.tBurst); // disabled by default
    t.partialReads = true;
    EXPECT_EQ(t.burstFor(16), t.tBurst);
    EXPECT_LT(t.burstFor(4), t.tBurst);
    EXPECT_GE(t.burstFor(1), t.tBurst / 4);
    EXPECT_LE(t.burstFor(8), t.tBurst / 2);
}

TEST(PartialDram, NonFlexProtocolsUnaffected)
{
    auto wl = makeRandomWorkload(77, 2, 100);
    SimParams partial = SimParams::scaled();
    partial.dram.partialReads = true;
    const RunResult a = runOne(ProtocolName::MESI, *wl,
                               SimParams::scaled());
    const RunResult b = runOne(ProtocolName::MESI, *wl, partial);
    // MESI always moves whole lines: identical traffic.
    EXPECT_DOUBLE_EQ(a.traffic.total(), b.traffic.total());
    EXPECT_EQ(a.wordsFromMemory, b.wordsFromMemory);
}

TEST(Energy, ComponentsTrackCounters)
{
    RunResult r;
    r.traffic.ldReqCtl = 100; // 100 flit-hops
    r.l1Accesses = 10;
    r.l2Accesses = 5;
    r.dramReads = 2;
    r.dramWrites = 1;

    EnergyParams p;
    // 16 mm die on a 4x4 mesh = 4 mm links: 0.5 pJ/flit/mm = 2 pJ/hop.
    p.pjPerFlitHopMm = 0.5;
    p.dieEdgeMm = 16.0;
    p.pjPerL1Access = 3.0;
    p.pjPerL2Access = 7.0;
    p.pjPerWordFill = 0.0;
    p.pjPerDramBurst = 60.0;
    p.pjPerDramActivate = 40.0;

    const EnergyBreakdown e = estimateEnergy(r, p);
    EXPECT_DOUBLE_EQ(e.network, 200.0);
    EXPECT_DOUBLE_EQ(e.l1, 30.0);
    EXPECT_DOUBLE_EQ(e.l2, 35.0);
    // 3 accesses, no row hits: 3 x (60 + 40).
    EXPECT_DOUBLE_EQ(e.dram, 300.0);
    EXPECT_DOUBLE_EQ(e.total(), 565.0);
}

TEST(Energy, RowHitsSkipActivateEnergy)
{
    RunResult r;
    r.dramReads = 4;
    EnergyParams p;
    p.pjPerDramBurst = 60.0;
    p.pjPerDramActivate = 40.0;

    r.dramRowHits = 0;
    EXPECT_DOUBLE_EQ(estimateEnergy(r, p).dram, 400.0);
    r.dramRowHits = 3; // only one access pays activate+precharge
    EXPECT_DOUBLE_EQ(estimateEnergy(r, p).dram, 280.0);
    r.dramRowHits = 10; // inconsistent input must clamp, not go negative
    EXPECT_DOUBLE_EQ(estimateEnergy(r, p).dram, 240.0);
}

TEST(Energy, LinkLengthScalesWithMeshGeometry)
{
    // A denser mesh on the same die has shorter, cheaper links.
    const EnergyModel m44{Topology(4, 4)};
    const EnergyModel m88{Topology(8, 8)};
    EXPECT_DOUBLE_EQ(m44.linkLengthMm(), 4.0);
    EXPECT_DOUBLE_EQ(m88.linkLengthMm(), 2.0);
    EXPECT_DOUBLE_EQ(m88.pjPerFlitHop(), m44.pjPerFlitHop() / 2);
    // Non-square meshes average the X and Y pitches.
    const EnergyModel m82{Topology(8, 2)};
    EXPECT_DOUBLE_EQ(m82.linkLengthMm(), 16.0 * (1.0 / 8 + 1.0 / 2) / 2);

    RunResult r;
    r.traffic.ldReqCtl = 1000;
    EXPECT_DOUBLE_EQ(m88.estimate(r).network,
                     m44.estimate(r).network / 2);
    // The historical flat 13 pJ/flit-hop is reproduced at 4x4.
    EXPECT_DOUBLE_EQ(m44.pjPerFlitHop(), 13.0);
}

TEST(Energy, LessTrafficMeansLessEnergy)
{
    auto wl = makeBenchmark(BenchmarkName::FFT);
    const RunResult mesi =
        runOne(ProtocolName::MESI, *wl, SimParams::scaled());
    const RunResult dn =
        runOne(ProtocolName::DBypFull, *wl, SimParams::scaled());
    EXPECT_LT(estimateEnergy(dn).total(),
              estimateEnergy(mesi).total());
}

TEST(LinkLoad, TotalsMatchFlitHops)
{
    auto wl = makeRandomWorkload(78, 2, 100);
    System sys(ProtocolName::MESI, *wl, SimParams::scaled());
    const RunResult r = sys.run();
    // Every flit-hop crosses exactly one link counter.
    EXPECT_DOUBLE_EQ(static_cast<double>(
                         sys.network().totalLinkFlits()),
                     r.rawFlitHops);
    EXPECT_GT(r.maxLinkFlits, 0u);
    EXPECT_LE(r.maxLinkFlits, sys.network().totalLinkFlits());
}

TEST(LinkLoad, OnlyAdjacentAndEjectionLinksUsed)
{
    auto wl = makeRandomWorkload(79, 1, 50);
    System sys(ProtocolName::DValidateL2, *wl, SimParams::scaled());
    sys.run();
    for (NodeId a = 0; a < numTiles; ++a) {
        for (NodeId b = 0; b < numTiles; ++b) {
            if (Mesh{}.manhattan(a, b) > 1) {
                EXPECT_EQ(sys.network().linkFlits(a, b), 0u)
                    << a << "->" << b;
            }
        }
    }
}

} // namespace wastesim
