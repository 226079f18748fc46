/** Unit tests: trace capture/replay (src/trace/). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "system/runner.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/trace_workload.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

/** Unique-ish temp path inside the build dir; removed on scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_("trace_test_" + tag + ".trc")
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
expectWorkloadsEqual(const Workload &a, const Workload &b)
{
    // Regions.
    ASSERT_EQ(a.regions().numRegions(), b.regions().numRegions());
    for (std::size_t i = 0; i < a.regions().numRegions(); ++i) {
        const Region &ra = a.regions().region(static_cast<RegionId>(i));
        const Region &rb = b.regions().region(static_cast<RegionId>(i));
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.name, rb.name);
        EXPECT_EQ(ra.base, rb.base);
        EXPECT_EQ(ra.size, rb.size);
        EXPECT_EQ(ra.flex, rb.flex);
        EXPECT_EQ(ra.strideWords, rb.strideWords);
        EXPECT_EQ(ra.usedFields, rb.usedFields);
        EXPECT_EQ(ra.bypass, rb.bypass);
        EXPECT_EQ(ra.stream, rb.stream);
    }

    // Barriers.
    ASSERT_EQ(a.barriers().size(), b.barriers().size());
    for (std::size_t i = 0; i < a.barriers().size(); ++i)
        EXPECT_EQ(a.barriers()[i].selfInvalidate,
                  b.barriers()[i].selfInvalidate);

    // Per-core op streams, bit-identical.
    ASSERT_EQ(a.traces().size(), b.traces().size());
    for (CoreId c = 0; c < a.traces().size(); ++c) {
        const Trace &ta = a.traces()[c];
        const Trace &tb = b.traces()[c];
        ASSERT_EQ(ta.size(), tb.size()) << "core " << c;
        for (std::size_t i = 0; i < ta.size(); ++i) {
            EXPECT_EQ(static_cast<int>(ta[i].type),
                      static_cast<int>(tb[i].type))
                << "core " << c << " op " << i;
            EXPECT_EQ(ta[i].addr, tb[i].addr)
                << "core " << c << " op " << i;
            EXPECT_EQ(ta[i].arg, tb[i].arg)
                << "core " << c << " op " << i;
        }
    }
}

void
expectResultsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    EXPECT_EQ(a.traffic.load(), b.traffic.load());
    EXPECT_EQ(a.traffic.store(), b.traffic.store());
    EXPECT_EQ(a.traffic.writeback(), b.traffic.writeback());
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.nacks, b.nacks);
    EXPECT_EQ(a.selfInvalidations, b.selfInvalidations);
    EXPECT_EQ(a.wordsFromMemory, b.wordsFromMemory);
    for (std::size_t i = 0; i < a.l1Waste.byCat.size(); ++i) {
        EXPECT_EQ(a.l1Waste.byCat[i], b.l1Waste.byCat[i]);
        EXPECT_EQ(a.l2Waste.byCat[i], b.l2Waste.byCat[i]);
        EXPECT_EQ(a.memWaste.byCat[i], b.memWaste.byCat[i]);
    }
}

} // namespace

TEST(TraceIo, RoundTripIsBitIdentical)
{
    // Barnes exercises every region feature: flex, stream, bypass.
    auto src = makeBenchmark(BenchmarkName::Barnes);

    TempFile tmp("roundtrip");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto loaded = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(loaded, nullptr) << err;

    EXPECT_EQ(loaded->name(), src->name());
    EXPECT_EQ(loaded->inputDesc(), src->inputDesc());
    expectWorkloadsEqual(*src, *loaded);
}

TEST(TraceIo, SyntheticRoundTrip)
{
    SynthParams p;
    p.seed = 99;
    p.pattern = SynthParams::Pattern::HotSet;
    p.opsPerCore = 2000;
    p.bypassShared = true;
    auto src = makeSynthetic(p);

    TempFile tmp("synth");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto loaded = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(loaded, nullptr) << err;
    expectWorkloadsEqual(*src, *loaded);
}

TEST(TraceIo, LoadRejectsMissingFile)
{
    std::string err;
    auto wl = TraceWorkload::load("nonexistent_dir/nope.trc", &err);
    EXPECT_EQ(wl, nullptr);
    EXPECT_FALSE(err.empty());
}

TEST(TraceIo, LoadRejectsBadMagic)
{
    TempFile tmp("badmagic");
    {
        std::ofstream os(tmp.path(), std::ios::binary);
        os << "this is not a trace file at all";
    }
    std::string err;
    auto wl = TraceWorkload::load(tmp.path(), &err);
    EXPECT_EQ(wl, nullptr);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(TraceIo, LoadRejectsTruncatedFile)
{
    auto src = makeBenchmark(BenchmarkName::LU);
    TempFile tmp("trunc");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    // Chop off the trailer and some op bytes.
    std::ifstream is(tmp.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    is.close();
    ASSERT_GT(bytes.size(), 100u);
    bytes.resize(bytes.size() - 64);
    std::ofstream os(tmp.path(),
                     std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    os.close();

    std::string err;
    auto wl = TraceWorkload::load(tmp.path(), &err);
    EXPECT_EQ(wl, nullptr);
    EXPECT_FALSE(err.empty());
}

/**
 * The acceptance property: replaying a recorded trace through a
 * protocol reproduces the source workload's RunResult exactly.  The
 * simulation is a pure function of ops, regions and barriers.
 */
TEST(TraceReplay, ReproducesRunResultExactly)
{
    auto src = makeBenchmark(BenchmarkName::LU);

    TempFile tmp("replay");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto replay = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(replay, nullptr) << err;

    const SimParams params = SimParams::scaled();
    for (ProtocolName p :
         {ProtocolName::MESI, ProtocolName::DBypFull}) {
        const RunResult a = runOne(p, *src, params);
        const RunResult b = runOne(p, *replay, params);
        SCOPED_TRACE(protocolName(p));
        expectResultsEqual(a, b);
    }
}

TEST(TraceIo, V2HeaderRoundTripsFullGeometry)
{
    // Record on a non-default topology: 4x2 mesh, MCs on tiles 1/6.
    const Topology topo(4, 2, std::vector<NodeId>{1, 6});
    SynthParams p;
    p.seed = 17;
    p.opsPerCore = 200;
    p.sharingDegree = 2;
    auto src = makeSynthetic(p, topo);

    TempFile tmp("v2geom");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    // The header itself carries the current version + geometry.
    {
        std::ifstream is(tmp.path(), std::ios::binary);
        TraceReader r(is);
        TraceHeader h;
        ASSERT_TRUE(r.readHeader(h)) << r.error();
        EXPECT_EQ(h.version, traceFormatVersion);
        EXPECT_EQ(h.meshX, 4u);
        EXPECT_EQ(h.meshY, 2u);
        EXPECT_EQ(h.mcTiles, (std::vector<std::uint32_t>{1, 6}));
    }

    // Matching topology: loads, with the geometry visible pre-load.
    std::string err;
    auto any = TraceWorkload::loadAnyTopology(tmp.path(), &err);
    ASSERT_NE(any, nullptr) << err;
    EXPECT_EQ(any->topo(), topo);

    auto loaded = TraceWorkload::load(tmp.path(), topo, &err);
    ASSERT_NE(loaded, nullptr) << err;
    expectWorkloadsEqual(*src, *loaded);

    // Same core count, different mesh shape: rejected.
    auto wrong_mesh =
        TraceWorkload::load(tmp.path(), Topology(2, 4), &err);
    EXPECT_EQ(wrong_mesh, nullptr);
    EXPECT_NE(err.find("recorded on"), std::string::npos) << err;

    // Same mesh, different MC placement: also rejected.
    auto wrong_mcs = TraceWorkload::load(
        tmp.path(), Topology(4, 2, std::vector<NodeId>{0, 7}), &err);
    EXPECT_EQ(wrong_mcs, nullptr);
    EXPECT_NE(err.find("recorded on"), std::string::npos) << err;
}

TEST(TraceIo, RejectsV1Traces)
{
    // A v1 header, written byte by byte: magic, version 1, then the
    // core count with no geometry after it.  Only v2 is read.
    TempFile tmp("v1trace");
    {
        std::ofstream os(tmp.path(), std::ios::binary);
        os.write("WASTETRC", 8);
        const char le_u32[] = {1, 0, 0, 0, 16, 0, 0, 0};
        os.write(le_u32, sizeof(le_u32));
    }
    std::string err;
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err), nullptr);
    EXPECT_NE(err.find("unsupported trace version 1"), std::string::npos)
        << err;
    EXPECT_EQ(TraceWorkload::load(tmp.path(), Topology{}, &err), nullptr);
    EXPECT_NE(err.find("unsupported trace version 1"), std::string::npos)
        << err;
}

TEST(TraceIo, RejectsCorruptV2Geometry)
{
    auto write_header = [](const std::string &path, std::uint32_t mx,
                           std::uint32_t my,
                           std::vector<std::uint32_t> mcs) {
        std::ofstream os(path, std::ios::binary);
        TraceWriter w(os);
        TraceHeader h;
        h.numCores = mx * my;
        h.meshX = mx;
        h.meshY = my;
        h.mcTiles = std::move(mcs);
        h.name = "x";
        w.writeHeader(h);
        w.writeTrailer(); // content never reached; header must fail
    };

    TempFile tmp("v2corrupt");
    std::string err;

    write_header(tmp.path(), 70, 1, {0}); // beyond Topology::maxDim
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);
    EXPECT_NE(err.find("mesh"), std::string::npos) << err;

    // Dims individually legal but the product beyond maxTiles: must
    // be a loader error, not a fatal() when the Topology rebuilds.
    write_header(tmp.path(), 64, 64, {0});
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);
    EXPECT_NE(err.find("mesh"), std::string::npos) << err;

    write_header(tmp.path(), 2, 2, {9}); // MC outside the mesh
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);

    write_header(tmp.path(), 2, 2, {1, 1}); // duplicate MC tile
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);
}

TEST(TraceReplay, SyntheticReproducesRunResultExactly)
{
    SynthParams p;
    p.seed = 5;
    p.pattern = SynthParams::Pattern::Random;
    p.opsPerCore = 1500;
    auto src = makeSynthetic(p);

    TempFile tmp("synthreplay");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto replay = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(replay, nullptr) << err;

    const SimParams params = SimParams::scaled();
    const RunResult a = runOne(ProtocolName::DeNovo, *src, params);
    const RunResult b = runOne(ProtocolName::DeNovo, *replay, params);
    expectResultsEqual(a, b);
}

} // namespace wastesim
