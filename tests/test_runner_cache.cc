/** Unit tests: sweep serialization and the on-disk sweep cache. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "system/runner.hh"
#include "system/sweep_engine.hh"
#include "trace/synthetic.hh"

namespace wastesim
{

namespace
{

/** A fabricated sweep with recognizable, distinct values. */
Sweep
fakeSweep(double salt)
{
    Sweep s;
    for (unsigned b = 0; b < numBenchmarks; ++b)
        s.benchNames.push_back(benchmarkName(allBenchmarks[b]));
    for (unsigned p = 0; p < numProtocols; ++p)
        s.protoNames.push_back(protocolName(allProtocols[p]));
    s.results.assign(numBenchmarks,
                     std::vector<RunResult>(numProtocols));
    for (unsigned b = 0; b < numBenchmarks; ++b) {
        for (unsigned p = 0; p < numProtocols; ++p) {
            RunResult &r = s.results[b][p];
            r.benchmark = s.benchNames[b];
            r.protocol = s.protoNames[p];
            r.cycles = 1000 * (b + 1) + p;
            r.traffic.ldReqCtl = salt + b * 10 + p;
            r.traffic.wbMemWaste = salt * 2 + 0.25;
            r.l1Waste.byCat[0] = salt + 0.5;
            r.time.busy = salt + 1.5;
            r.dramReads = b * 7 + p;
            r.maxLinkFlits = 42 + b;
        }
    }
    return s;
}

/** RAII environment variable override. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvVar()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_;
};

class TempPath
{
  public:
    explicit TempPath(const std::string &p) : path_(p)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
expectSweepsEqual(const Sweep &a, const Sweep &b)
{
    ASSERT_EQ(a.benchNames, b.benchNames);
    ASSERT_EQ(a.protoNames, b.protoNames);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        ASSERT_EQ(a.results[i].size(), b.results[i].size());
        for (std::size_t j = 0; j < a.results[i].size(); ++j) {
            const RunResult &x = a.results[i][j];
            const RunResult &y = b.results[i][j];
            EXPECT_EQ(x.protocol, y.protocol);
            EXPECT_EQ(x.benchmark, y.benchmark);
            EXPECT_EQ(x.cycles, y.cycles);
            EXPECT_EQ(x.traffic.ldReqCtl, y.traffic.ldReqCtl);
            EXPECT_EQ(x.traffic.wbMemWaste, y.traffic.wbMemWaste);
            EXPECT_EQ(x.l1Waste.byCat[0], y.l1Waste.byCat[0]);
            EXPECT_EQ(x.time.busy, y.time.busy);
            EXPECT_EQ(x.dramReads, y.dramReads);
            EXPECT_EQ(x.maxLinkFlits, y.maxLinkFlits);
        }
    }
}

} // namespace

TEST(SweepCache, CachedFullSweepUsesCacheOnHit)
{
    TempPath tmp("sweep_hit.cache");
    EnvVar cache("WASTESIM_CACHE", tmp.path().c_str());
    EnvVar no_cache("WASTESIM_NO_CACHE", nullptr);

    int computed = 0;
    auto compute = [&](unsigned, SimParams) {
        ++computed;
        return fakeSweep(7.0);
    };

    // Miss: compute runs once and populates the cache file.
    const Sweep first = cachedFullSweep(1, SimParams::scaled(), compute);
    EXPECT_EQ(computed, 1);
    expectSweepsEqual(first, fakeSweep(7.0));

    // Hit: served from disk, compute not invoked again.
    const Sweep second =
        cachedFullSweep(1, SimParams::scaled(), compute);
    EXPECT_EQ(computed, 1);
    expectSweepsEqual(second, fakeSweep(7.0));
}

TEST(SweepCache, NoCacheEnvForcesRecompute)
{
    TempPath tmp("sweep_nocache.cache");
    EnvVar cache("WASTESIM_CACHE", tmp.path().c_str());

    int computed = 0;
    auto compute = [&](unsigned, SimParams) {
        ++computed;
        return fakeSweep(9.0);
    };

    // Populate the cache normally...
    {
        EnvVar no_cache("WASTESIM_NO_CACHE", nullptr);
        cachedFullSweep(1, SimParams::scaled(), compute);
        ASSERT_EQ(computed, 1);
    }

    // ...then WASTESIM_NO_CACHE must bypass both read and write.
    {
        EnvVar no_cache("WASTESIM_NO_CACHE", "1");
        cachedFullSweep(1, SimParams::scaled(), compute);
        EXPECT_EQ(computed, 2);
        cachedFullSweep(1, SimParams::scaled(), compute);
        EXPECT_EQ(computed, 3);
    }

    // With the variable gone the earlier cache file serves again.
    {
        EnvVar no_cache("WASTESIM_NO_CACHE", nullptr);
        cachedFullSweep(1, SimParams::scaled(), compute);
        EXPECT_EQ(computed, 3);
    }
}

TEST(SweepCache, ConfigChangeInvalidatesCache)
{
    TempPath tmp("sweep_config.cache");
    EnvVar cache("WASTESIM_CACHE", tmp.path().c_str());
    EnvVar no_cache("WASTESIM_NO_CACHE", nullptr);

    int computed = 0;
    auto compute = [&](unsigned, SimParams) {
        ++computed;
        return fakeSweep(13.0);
    };

    cachedFullSweep(1, SimParams::scaled(), compute);
    ASSERT_EQ(computed, 1);

    // Same path, different scale: must recompute, not serve scale-1.
    cachedFullSweep(2, SimParams::scaled(), compute);
    EXPECT_EQ(computed, 2);

    // Different hierarchy parameters: also a miss.
    cachedFullSweep(2, SimParams{}, compute);
    EXPECT_EQ(computed, 3);

    // Unchanged configuration: hit again.
    cachedFullSweep(2, SimParams{}, compute);
    EXPECT_EQ(computed, 3);

    // A different topology (--mesh) must miss, not serve 4x4 figures.
    SimParams mesh2x2;
    mesh2x2.topo = Topology(2, 2);
    cachedFullSweep(2, mesh2x2, compute);
    EXPECT_EQ(computed, 4);

    // Same mesh, different MC placement: still a miss.
    SimParams mc2;
    mc2.topo = Topology(2, 2, 2);
    cachedFullSweep(2, mc2, compute);
    EXPECT_EQ(computed, 5);

    // Unchanged topology: hit.
    cachedFullSweep(2, mc2, compute);
    EXPECT_EQ(computed, 5);
}

TEST(SweepCache, StaleCacheShapeTriggersRecompute)
{
    TempPath tmp("sweep_stale.cache");
    EnvVar cache("WASTESIM_CACHE", tmp.path().c_str());
    EnvVar no_cache("WASTESIM_NO_CACHE", nullptr);

    // A valid cell cache holding one cell of this configuration, not
    // the full 9x6 paper grid.
    const SweepSpec spec = SweepSpec::fullGrid(1, SimParams::scaled());
    CellCache one;
    one.put(spec.cellKey(spec.cellAt(0)), fakeSweep(5.0).results[0][0]);
    ASSERT_TRUE(one.save(tmp.path()));
    CellCache reloaded;
    ASSERT_TRUE(reloaded.load(tmp.path()));
    ASSERT_EQ(reloaded.size(), 1u);

    int computed = 0;
    auto compute = [&](unsigned, SimParams) {
        ++computed;
        return fakeSweep(11.0);
    };
    const Sweep s = cachedFullSweep(1, SimParams::scaled(), compute);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(s.benchNames.size(), numBenchmarks);
}

TEST(RunSweep, WorkloadOverloadKeepsFigureOrder)
{
    // A degenerate grid (no workloads) still carries protocol names
    // in figure order; exercises the thread-pool path cheaply.
    const Sweep s = runSweep(std::vector<const Workload *>{},
                             {ProtocolName::MESI, ProtocolName::DeNovo},
                             SimParams::scaled());
    ASSERT_EQ(s.protoNames.size(), 2u);
    EXPECT_EQ(s.protoNames[0], "MESI");
    EXPECT_EQ(s.protoNames[1], "DeNovo");
    EXPECT_TRUE(s.benchNames.empty());
    EXPECT_TRUE(s.results.empty());
}

TEST(RunSweep, ParallelMatchesSerial)
{
    // The pool must not change results, only wall-clock: a sweep at
    // WASTESIM_JOBS=4 is cell-for-cell identical to WASTESIM_JOBS=1.
    SynthParams p;
    p.opsPerCore = 400;
    p.phases = 2;
    auto wa = makeSynthetic(p);
    p.seed = 2;
    auto wb = makeSynthetic(p);
    const std::vector<const Workload *> workloads{wa.get(), wb.get()};
    const std::vector<ProtocolName> protos{ProtocolName::MESI,
                                           ProtocolName::DBypFull};

    Sweep serial, parallel;
    {
        EnvVar jobs("WASTESIM_JOBS", "1");
        serial = runSweep(workloads, protos, SimParams::scaled());
    }
    {
        EnvVar jobs("WASTESIM_JOBS", "4");
        parallel = runSweep(workloads, protos, SimParams::scaled());
    }

    ASSERT_EQ(serial.benchNames, parallel.benchNames);
    ASSERT_EQ(serial.protoNames, parallel.protoNames);
    for (std::size_t b = 0; b < serial.results.size(); ++b) {
        for (std::size_t pr = 0; pr < serial.results[b].size(); ++pr) {
            const RunResult &x = serial.results[b][pr];
            const RunResult &y = parallel.results[b][pr];
            EXPECT_EQ(x.cycles, y.cycles) << b << "," << pr;
            EXPECT_EQ(x.traffic.total(), y.traffic.total())
                << b << "," << pr;
            EXPECT_EQ(x.messages, y.messages) << b << "," << pr;
        }
    }
}

} // namespace wastesim
