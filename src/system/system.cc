#include "system/system.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/log.hh"
#include "obs/debug.hh"
#include "obs/observer.hh"
#include "sim/parallel.hh"
#include "system/kernel_threads.hh"

namespace wastesim
{

namespace
{

/** Write @p text to @p path (plain overwrite; obs outputs are not
 *  consumed concurrently, unlike the sweep cache). */
void
writeObsFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("cannot write observation file '%s'", path.c_str());
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

System::System(ProtocolName protocol, const Workload &workload,
               SimParams params, unsigned threads)
    : protocolName_(protocol), cfg_(ProtocolConfig::make(protocol)),
      params_(std::move(params)), workload_(workload),
      layout_(DomainLayout::rowBands(params_.topo, threads)),
      barrier_(params_.topo.numTiles())
{
    const Topology &topo = params_.topo;
    const unsigned tiles = topo.numTiles();
    const unsigned D = layout_.count;

    fatal_if(workload_.numCores() != tiles,
             "workload '%s' drives %u cores but the active topology "
             "%s has %u tiles",
             workload_.name().c_str(), workload_.numCores(),
             topo.describe().c_str(), tiles);

    for (unsigned d = 0; d < D; ++d) {
        eqs_.push_back(std::make_unique<EventQueue>());
        traffics_.push_back(std::make_unique<TrafficRecorder>());
    }
    std::vector<EventQueue *> qs;
    std::vector<TrafficRecorder *> ts;
    for (unsigned d = 0; d < D; ++d) {
        qs.push_back(eqs_[d].get());
        ts.push_back(traffics_[d].get());
    }
    net_ = std::make_unique<Network>(layout_, qs, ts,
                                     params_.linkLatency, topo);
    if (layout_.parallel())
        memProf_.setParallel(qs);

    // Queue owning each tile's components.
    auto eqOf = [this](NodeId tile) -> EventQueue & {
        return *eqs_[layout_.of(tile)];
    };

    l1Profs_.reserve(tiles);
    l2Profs_.reserve(tiles);
    for (unsigned i = 0; i < tiles; ++i) {
        l1Profs_.emplace_back(WordProfiler::Level::L1);
        l2Profs_.emplace_back(WordProfiler::Level::L2);
    }

    // Protocol controllers.
    l1Ifaces_.resize(tiles, nullptr);
    if (cfg_.isMesi()) {
        for (unsigned i = 0; i < tiles; ++i) {
            mesiDirs_.push_back(std::make_unique<MesiDir>(
                i, cfg_, params_, eqOf(i), *net_, l2Profs_[i],
                memProf_));
            net_->attach(l2Ep(i), mesiDirs_.back().get());
        }
        for (unsigned i = 0; i < tiles; ++i) {
            mesiL1s_.push_back(std::make_unique<MesiL1>(
                i, cfg_, params_, eqOf(i), *net_, l1Profs_[i],
                memProf_));
            net_->attach(l1Ep(i), mesiL1s_.back().get());
            l1Ifaces_[i] = mesiL1s_.back().get();
        }
    } else {
        for (unsigned i = 0; i < tiles; ++i) {
            dnL2s_.push_back(std::make_unique<DenovoL2>(
                i, cfg_, params_, eqOf(i), *net_, l2Profs_[i],
                memProf_));
            net_->attach(l2Ep(i), dnL2s_.back().get());
        }
        for (unsigned i = 0; i < tiles; ++i) {
            dnL1s_.push_back(std::make_unique<DenovoL1>(
                i, cfg_, params_, eqOf(i), *net_, l1Profs_[i],
                memProf_, workload_.regions()));
            net_->attach(l1Ep(i), dnL1s_.back().get());
            l1Ifaces_[i] = dnL1s_.back().get();
        }
    }

    // Memory system: each controller (and its DRAM channel) lives on
    // the domain of its host tile.
    auto present = [this](Addr line, unsigned w) {
        const NodeId s = params_.topo.homeSlice(line);
        if (cfg_.isMesi())
            return mesiDirs_[s]->wordPresent(line, w);
        return dnL2s_[s]->wordPresent(line, w);
    };
    for (unsigned c = 0; c < topo.numMemCtrls(); ++c) {
        DramMap map;
        map.timing = params_.dram;
        map.numChannels = topo.numMemCtrls();
        EventQueue &mc_eq = eqOf(topo.memCtrlTile(c));
        drams_.push_back(std::make_unique<DramChannel>(mc_eq, map, c));
        mcs_.push_back(std::make_unique<MemoryController>(
            c, mc_eq, *net_, *drams_.back(), memProf_, present));
        net_->attach(mcEp(c), mcs_.back().get());
    }

    // Per-domain run bookkeeping.
    lastDoneAt_.assign(D, 0);
    coresDoneD_.assign(D, 0);
    activeCores_.assign(D, 0);
    waitingCores_.assign(D, 0);
    stagedArrivals_.resize(D);
    debugBuf_.resize(D);
    domainStopTick_.assign(D, ~Tick(0));
    stopFlags_ = std::make_unique<bool[]>(D);
    for (unsigned d = 0; d < D; ++d)
        stopFlags_[d] = false;

    // Cores.
    for (CoreId c = 0; c < tiles; ++c) {
        Core::Hooks hooks;
        hooks.onEpoch = [this] { onEpoch(); };
        hooks.onDone = [this](CoreId id) {
            const unsigned d = layout_.of(id);
            ++coresDoneD_[d];
            --activeCores_[d];
            lastDoneAt_[d] = eqs_[d]->now();
        };
        hooks.barrierInfo = [this](unsigned idx) -> const BarrierInfo & {
            return workload_.barriers().at(idx);
        };
        ++activeCores_[layout_.of(c)];
        cores_.push_back(std::make_unique<Core>(
            c, eqOf(c), *l1Ifaces_[c], barrier_, workload_.traces()[c],
            std::move(hooks)));
    }

    if (layout_.parallel())
        setupParallel();
}

System::~System()
{
    // The debug hook captures `this`.
    debugLineDump = nullptr;
}

bool
System::coresDone() const
{
    unsigned done = 0;
    for (unsigned d : coresDoneD_)
        done += d;
    return done == params_.topo.numTiles();
}

// --- parallel-kernel plumbing ------------------------------------------

void
System::setupParallel()
{
    // Rounds run with cross-domain sends staged (merged episodes flip
    // to Direct and back); the serial kernel stays on the Direct
    // default, where every send is same-domain anyway.
    net_->setCrossMode(Network::CrossMode::Staged);

    // Barrier arrivals are routed: mid-window they are staged with
    // their canonical key (the arriving event's key) and the domain's
    // round is stopped once its last active core is waiting; sync
    // points and merged execution replay them in key order through
    // arriveDirect, so releases fire at exactly the serial position.
    barrier_.setRouter([this](CoreId c, std::function<void()> rel) {
        const unsigned d = layout_.of(c);
        --activeCores_[d];
        ++waitingCores_[d];
        auto wrapped = wrapRelease(c, std::move(rel));
        if (mergedActive_) {
            pendingReleaseTick_ = eqs_[d]->now();
            barrier_.arriveDirect(c, std::move(wrapped));
            return;
        }
        stagedArrivals_[d].push_back(
            {eqs_[d]->currentKey(), c, std::move(wrapped)});
        if (activeCores_[d] == 0)
            stopFlags_[d] = true;
    });
}

std::function<void()>
System::wrapRelease(CoreId c, std::function<void()> released)
{
    const unsigned d = layout_.of(c);
    return [this, d, released = std::move(released)] {
        ++activeCores_[d];
        --waitingCores_[d];
        lastReleaseTick_ = pendingReleaseTick_;
        // The release executes inside the filling arrival's event,
        // which may belong to another domain's queue: rebind the
        // accounting domain and bring this domain's clock up to the
        // release tick before the core's callback schedules anything.
        setCurrentDomain(d);
        eqs_[d]->setNow(pendingReleaseTick_);
        released();
    };
}

void
System::enterDomain(unsigned d)
{
    setCurrentDomain(d);
    debug::setThreadBuffer(&debugBuf_[d]);
}

void
System::leaveDomain(unsigned d)
{
    (void)d;
    debug::setThreadBuffer(nullptr);
    setCurrentDomain(0);
}

const bool *
System::stopFlag(unsigned d) const
{
    return &stopFlags_[d];
}

void
System::flushDebugBuffers()
{
    // Trace lines buffered by concurrent rounds are replayed in
    // domain order at each sync: per-domain streams stay internally
    // ordered, but interleaving across domains is by domain, not key.
    for (auto &buf : debugBuf_) {
        if (buf.empty())
            continue;
        if (debug::sink)
            debug::sink(buf);
        else
            std::fputs(buf.c_str(), stderr);
        buf.clear();
    }
}

void
System::atSync(Tick frontier)
{
    const unsigned D = layout_.count;
    for (unsigned d = 0; d < D; ++d)
        stopFlags_[d] = false;
    for (unsigned d = 0; d < D; ++d)
        net_->injectStaged(d);
    memProf_.flushJournals();
    flushDebugBuffers();

    for (auto &v : stagedArrivals_) {
        for (auto &a : v)
            pendingArrivals_.push_back(std::move(a));
        v.clear();
    }
    if (!pendingArrivals_.empty()) {
        std::sort(pendingArrivals_.begin() + pendingHead_,
                  pendingArrivals_.end(),
                  [](const StagedArrival &a, const StagedArrival &b) {
                      return a.key < b.key;
                  });
        if (!needMerged()) {
            // No domain is fully waiting, so these arrivals cannot
            // fill the barrier (a fill needs every core waiting):
            // apply them now, in key order, and resume rounds.
            for (std::size_t i = pendingHead_;
                 i < pendingArrivals_.size(); ++i) {
                barrier_.arriveDirect(
                    pendingArrivals_[i].core,
                    std::move(pendingArrivals_[i].released));
            }
            pendingArrivals_.clear();
            pendingHead_ = 0;
        }
    }

    if (obs_ && obs_->cfg.sampleWindow != 0 &&
        frontier >= nextSampleAt_) {
        obs_->sampler.sample(frontier);
        obs_->heatmapWindow(frontier);
        nextSampleAt_ = frontier + obs_->cfg.sampleWindow;
    }

    // Publish per-domain progress for the sweep heartbeat.
    std::uint64_t executed = 0;
    for (const auto &q : eqs_)
        executed += q->executed();
    addLiveKernelEvents(static_cast<std::int64_t>(executed) -
                        static_cast<std::int64_t>(liveReported_));
    liveReported_ = executed;
}

bool
System::needMerged() const
{
    for (unsigned d = 0; d < layout_.count; ++d) {
        if (waitingCores_[d] > 0 && activeCores_[d] == 0)
            return true;
    }
    return false;
}

void
System::runMerged()
{
    const unsigned D = layout_.count;
    mergedActive_ = true;
    memProf_.setDirect(true);
    net_->setCrossMode(Network::CrossMode::Direct);
    for (unsigned d = 0; d < D; ++d) {
        domainStopTick_[d] =
            (waitingCores_[d] > 0 && activeCores_[d] == 0)
                ? eqs_[d]->now()
                : ~Tick(0);
    }

    // Execute all queues' events in global canonical key order, with
    // the staged barrier arrivals participating as pseudo-events at
    // their keys, until the episode resolves.  The episode extends
    // one tick past the release so the epoch marker (scheduled right
    // after a barrier) executes merged, at its exact serial position.
    for (;;) {
        unsigned best = D;
        EventKey bk{};
        for (unsigned d = 0; d < D; ++d) {
            EventKey k;
            if (eqs_[d]->nextKey(k) && (best == D || k < bk)) {
                bk = k;
                best = d;
            }
        }
        const bool have_arr = pendingHead_ < pendingArrivals_.size();
        if (!needMerged() && !have_arr &&
            (best == D || bk.when > lastReleaseTick_ + 1)) {
            break;
        }
        if (have_arr &&
            (best == D || pendingArrivals_[pendingHead_].key < bk)) {
            StagedArrival &a = pendingArrivals_[pendingHead_++];
            pendingReleaseTick_ = a.key.when;
            barrier_.arriveDirect(a.core, std::move(a.released));
            continue;
        }
        if (best == D)
            break; // drained (or deadlocked): the driver decides
        setCurrentDomain(best);
        eqs_[best]->step();
    }
    if (pendingHead_ == pendingArrivals_.size()) {
        pendingArrivals_.clear();
        pendingHead_ = 0;
    }

    setCurrentDomain(0);
    net_->setCrossMode(Network::CrossMode::Staged);
    memProf_.setDirect(false);
    mergedActive_ = false;

    if (obs_ && obs_->wantTimeline()) {
        for (unsigned d = 0; d < D; ++d) {
            if (domainStopTick_[d] == ~Tick(0))
                continue;
            const Tick start = domainStopTick_[d];
            const Tick end = std::max(lastReleaseTick_, start);
            obs_->timeline.complete(
                "stalled", "merged episode",
                static_cast<double>(start),
                static_cast<double>(end - start), 0, 3000 + d);
        }
    }
}

// --- epoch --------------------------------------------------------------

void
System::onEpoch()
{
    if (epochMarked_)
        return;
    epochMarked_ = true;
    // In a parallel run the epoch marker must execute at its exact
    // canonical position with all queues coherent; the benchmarks
    // place it right after a global barrier, so it always lands in
    // the merged episode the barrier resolution opened.
    panic_if(layout_.parallel() && !mergedActive_,
             "epoch marker outside merged execution (epochs must "
             "follow a global barrier)");
    epochStart_ = eqs_[currentDomain()]->now();

    for (auto &t : traffics_)
        t->markEpoch();
    memProf_.markEpoch();
    for (auto &p : l1Profs_)
        p.markEpoch();
    for (auto &p : l2Profs_)
        p.markEpoch();
    for (auto &c : cores_)
        c->resetTime();

    dramReadsAtEpoch_ = 0;
    dramWritesAtEpoch_ = 0;
    dramChanReadsAtEpoch_.assign(drams_.size(), 0);
    dramChanWritesAtEpoch_.assign(drams_.size(), 0);
    for (std::size_t c = 0; c < drams_.size(); ++c) {
        dramReadsAtEpoch_ += drams_[c]->reads();
        dramWritesAtEpoch_ += drams_[c]->writes();
        dramChanReadsAtEpoch_[c] = drams_[c]->reads();
        dramChanWritesAtEpoch_[c] = drams_[c]->writes();
    }
    msgsAtEpoch_ = net_->messagesSent();
}

RunResult
System::run(Tick max_ticks)
{
    // Install the stuck-line debug dump (see common/log.hh).
    debugLineDump = [this](std::uint64_t line) {
        std::fprintf(stderr, "state of line %llx (home slice %u):\n",
                     static_cast<unsigned long long>(line),
                     params_.topo.homeSlice(line));
        if (cfg_.isDeNovo()) {
            dnL2s_[params_.topo.homeSlice(line)]->dumpLine(line);
            for (const auto &l1 : dnL1s_)
                l1->dumpLine(line);
        }
    };

    // Observation is opt-in: with obsConfig() inactive none of this
    // runs and the simulation path is exactly the unobserved one.
    std::unique_ptr<SimObserver> obs_owner;
    if (obsConfig().active())
        obs_owner = std::make_unique<SimObserver>(obsConfig(), *eqs_[0]);
    SimObserver *obs = obs_owner.get();
    obs_ = obs;
    ScopedSimObserver scoped(obs);
    if (obs)
        registerObservables(*obs);

    for (auto &c : cores_)
        c->start();

    bool drained;
    if (layout_.parallel()) {
        if (obs && obs->cfg.sampleWindow != 0) {
            obs->sampler.setWindowTicks(obs->cfg.sampleWindow);
            obs->sampler.begin(0);
            obs->heatmapBegin(0);
            nextSampleAt_ = obs->cfg.sampleWindow;
        }
        std::vector<EventQueue *> qs;
        for (auto &q : eqs_)
            qs.push_back(q.get());
        WindowDriver driver(qs, params_.linkLatency, *this);
        drained = driver.run(max_ticks);
        rounds_ = driver.rounds();
        mergedEpisodes_ = driver.mergedEpisodes();
        // Withdraw this run's live-progress contribution: the caller
        // now accounts its events as completed-cell work.
        addLiveKernelEvents(-static_cast<std::int64_t>(liveReported_));
        liveReported_ = 0;
        if (obs && obs->cfg.sampleWindow != 0) {
            Tick end = 0;
            for (auto &q : eqs_)
                end = std::max(end, q->now());
            obs->sampler.sample(end);
            obs->heatmapWindow(end);
        }
    } else if (obs && obs->cfg.sampleWindow != 0) {
        // Run the kernel window by window.  EventQueue::run(limit) is
        // exact-to-the-tick and nothing external schedules between
        // calls, so chaining runs is behaviorally identical to one
        // call — the event stream, and therefore every result, is
        // unchanged by sampling.
        EventQueue &eq = *eqs_[0];
        const Tick w = obs->cfg.sampleWindow;
        obs->sampler.setWindowTicks(w);
        obs->sampler.begin(eq.now());
        obs->heatmapBegin(eq.now());
        Tick window_end = w;
        for (;;) {
            const Tick stop = std::min(window_end, max_ticks);
            drained = eq.run(stop);
            obs->sampler.sample(eq.now());
            obs->heatmapWindow(eq.now());
            if (drained || stop >= max_ticks)
                break;
            window_end += w;
        }
    } else {
        drained = eqs_[0]->run(max_ticks);
    }
    fatal_if(!drained, "simulation exceeded %llu ticks",
             static_cast<unsigned long long>(max_ticks));

    if (!coresDone()) {
        for (CoreId c = 0; c < params_.topo.numTiles(); ++c) {
            if (!cores_[c]->done()) {
                warn("core %u stuck at op %zu of %zu", c,
                     cores_[c]->opsExecuted(),
                     workload_.traces()[c].size());
            }
        }
        panic("event queue drained with cores unfinished (deadlock)");
    }

    RunResult r;
    r.protocol = protocolName(protocolName_);
    r.benchmark = workload_.name();

    // Per-domain recorders merge by memberwise sum: every bucket is a
    // sum of quarter-flit charges (wordsPerFlit divides each one), so
    // double addition is exact and order-free — the merged stats are
    // byte-identical to the serial recorder's.
    TrafficStats traffic{};
    double raw_flit_hops = 0;
    for (const auto &t : traffics_) {
        traffic += t->stats();
        raw_flit_hops += t->rawFlitHops();
    }

    for (auto &p : l1Profs_)
        r.l1Waste += p.finalize(traffic);
    for (auto &p : l2Profs_)
        r.l2Waste += p.finalize(traffic);
    r.memWaste = memProf_.finalize();
    r.traffic = traffic;
    r.rawFlitHops = raw_flit_hops;

    for (const auto &c : cores_)
        r.time += c->time();
    Tick last_done = 0;
    for (Tick t : lastDoneAt_)
        last_done = std::max(last_done, t);
    r.cycles = last_done - epochStart_;

    r.messages = net_->messagesSent() - msgsAtEpoch_;
    for (const auto &q : eqs_)
        r.eventsExecuted += q->executed();
    for (const auto &d : drams_) {
        r.dramReads += d->reads();
        r.dramWrites += d->writes();
        r.dramRowHits += d->rowHits();
    }
    r.dramReads -= dramReadsAtEpoch_;
    r.dramWrites -= dramWritesAtEpoch_;

    r.dramChan.resize(drams_.size());
    for (std::size_t c = 0; c < drams_.size(); ++c) {
        RunResult::DramChanStats &s = r.dramChan[c];
        s.reads = drams_[c]->reads();
        s.writes = drams_[c]->writes();
        s.rowHits = drams_[c]->rowHits();
        s.queuePeak = drams_[c]->queuePeak();
        if (c < dramChanReadsAtEpoch_.size()) {
            s.reads -= dramChanReadsAtEpoch_[c];
            s.writes -= dramChanWritesAtEpoch_[c];
        }
    }

    // Per-channel counters and the aggregates are derived from the
    // same DRAM channels with the same epoch baselines, so they must
    // balance exactly; a mismatch means a counter path regressed.
    {
        std::uint64_t chan_reads = 0, chan_writes = 0;
        for (const auto &s : r.dramChan) {
            chan_reads += s.reads;
            chan_writes += s.writes;
        }
        panic_if(chan_reads != r.dramReads,
                 "dram.chan.*.reads sum %llu != dram.reads %llu "
                 "(delta %lld)",
                 static_cast<unsigned long long>(chan_reads),
                 static_cast<unsigned long long>(r.dramReads),
                 static_cast<long long>(chan_reads) -
                     static_cast<long long>(r.dramReads));
        panic_if(chan_writes != r.dramWrites,
                 "dram.chan.*.writes sum %llu != dram.writes %llu "
                 "(delta %lld)",
                 static_cast<unsigned long long>(chan_writes),
                 static_cast<unsigned long long>(r.dramWrites),
                 static_cast<long long>(chan_writes) -
                     static_cast<long long>(r.dramWrites));
    }

    if (cfg_.isMesi()) {
        for (const auto &d : mesiDirs_) {
            r.nacks += d->nacks();
            r.recalls += d->recalls();
            r.l2Accesses += d->hits() + d->misses();
        }
        for (const auto &l1 : mesiL1s_) {
            r.l1Accesses += l1->loadHits() + l1->loadMisses() +
                            l1->storeHits() + l1->storeMisses();
        }
    } else {
        for (const auto &l2 : dnL2s_) {
            r.recalls += l2->recallsIssued();
            r.l2Accesses += l2->wordHits() + l2->memFetches() +
                            l2->registrations();
        }
        for (const auto &l1 : dnL1s_) {
            r.bypassDirect += l1->bypassDirect();
            r.selfInvalidations += l1->selfInvalidated();
            r.l1Accesses += l1->loadHits() + l1->loadMisses();
        }
    }
    r.wordsFromMemory = memProf_.numInstances();
    r.maxLinkFlits = net_->maxLinkFlits();

    if (obs) {
        const std::string proto = protocolName(protocolName_);
        const std::string bench = workload_.name();
        if (obs->cfg.sampleWindow != 0 && !obs->cfg.sampleOut.empty()) {
            writeObsFile(
                expandObsPath(obs->cfg.sampleOut, proto, bench),
                obs->sampler.toJson());
        }
        if (obs->wantTimeline()) {
            const std::string path =
                expandObsPath(obs->cfg.timelineOut, proto, bench);
            if (!obs->timeline.save(path))
                warn("cannot write timeline '%s'", path.c_str());
        }
        if (!obs->cfg.heatmapOut.empty()) {
            writeObsFile(
                expandObsPath(obs->cfg.heatmapOut, proto, bench),
                obs->heatmapCsv());
        }
    }
    obs_ = nullptr;
    return r;
}

void
System::registerObservables(SimObserver &o)
{
    if (o.wantTimeline()) {
        for (unsigned s = 0; s < params_.topo.numTiles(); ++s) {
            o.timeline.threadName(0, s,
                                  "slice " + std::to_string(s));
        }
        for (std::size_t c = 0; c < drams_.size(); ++c) {
            o.timeline.threadName(
                0, 1000 + static_cast<unsigned>(c),
                "dram ch " + std::to_string(c));
        }
        o.timeline.threadName(0, 2000, "barrier");
        if (layout_.parallel()) {
            for (unsigned d = 0; d < layout_.count; ++d) {
                o.timeline.threadName(0, 3000 + d,
                                      "domain " + std::to_string(d));
            }
        }
    }

    if (!o.cfg.heatmapOut.empty()) {
        Network *net = net_.get();
        o.linkSnapshot = [net] { return net->linkFlitsSnapshot(); };
    }

    if (o.cfg.sampleWindow == 0)
        return;

    Sampler &s = o.sampler;
    const char *cnt = "count";
    Network *net = net_.get();

    s.add("noc.flits", "flits", MetricKind::U64, true, [net] {
        return static_cast<double>(net->totalLinkFlits());
    });
    s.add("noc.messages", cnt, MetricKind::U64, true, [net] {
        return static_cast<double>(net->messagesSent());
    });
    s.add("queue.pending", "events", MetricKind::U64, false, [this] {
        std::size_t v = 0;
        for (const auto &q : eqs_)
            v += q->pending();
        return static_cast<double>(v);
    });
    s.add("queue.overflow", "events", MetricKind::U64, false, [this] {
        std::size_t v = 0;
        for (const auto &q : eqs_)
            v += q->overflowSize();
        return static_cast<double>(v);
    });
    s.add("queue.executed", "events", MetricKind::U64, true, [this] {
        std::uint64_t v = 0;
        for (const auto &q : eqs_)
            v += q->executed();
        return static_cast<double>(v);
    });

    for (std::size_t c = 0; c < drams_.size(); ++c) {
        const std::string base =
            "dram.chan." + std::to_string(c) + ".";
        DramChannel *d = drams_[c].get();
        s.add(base + "queue_depth", "reqs", MetricKind::U64, false,
              [d] { return static_cast<double>(d->queued()); });
        s.add(base + "reads", cnt, MetricKind::U64, true,
              [d] { return static_cast<double>(d->reads()); });
        s.add(base + "writes", cnt, MetricKind::U64, true,
              [d] { return static_cast<double>(d->writes()); });
        s.add(base + "row_hits", cnt, MetricKind::U64, true,
              [d] { return static_cast<double>(d->rowHits()); });
    }

    if (cfg_.isMesi()) {
        s.add("mesi.invalidations", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->invalidations();
            return static_cast<double>(v);
        });
        s.add("mesi.recalls", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->recalls();
            return static_cast<double>(v);
        });
        s.add("mesi.nacks", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->nacks();
            return static_cast<double>(v);
        });
        s.add("l1.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l1 : mesiL1s_)
                v += l1->loadMisses() + l1->storeMisses();
            return static_cast<double>(v);
        });
        s.add("l2.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->misses();
            return static_cast<double>(v);
        });
    } else {
        s.add("denovo.recalls", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l2 : dnL2s_)
                v += l2->recallsIssued();
            return static_cast<double>(v);
        });
        s.add("denovo.parked", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l2 : dnL2s_)
                v += l2->parked();
            return static_cast<double>(v);
        });
        s.add("l1.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l1 : dnL1s_)
                v += l1->loadMisses();
            return static_cast<double>(v);
        });
        s.add("l2.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l2 : dnL2s_)
                v += l2->memFetches();
            return static_cast<double>(v);
        });
    }
}

void
System::checkInvariants() const
{
    const unsigned tiles = params_.topo.numTiles();
    if (cfg_.isMesi()) {
        // At most one exclusive owner per line; an owner implies no
        // sharers recorded alongside stale exclusivity.
        for (const auto &dir : mesiDirs_) {
            const_cast<CacheArray &>(dir->array())
                .forEachValid([tiles](CacheLine &cl) {
                    if (cl.owner != invalidNode) {
                        panic_if(cl.owner >= tiles,
                                 "bogus owner id");
                    }
                });
        }
        // No two L1s hold the same line in M.
        for (unsigned i = 0; i < tiles; ++i) {
            const_cast<CacheArray &>(mesiL1s_[i]->array())
                .forEachValid([&](CacheLine &a) {
                    if (a.mesi != MesiState::M)
                        return;
                    for (unsigned j = i + 1; j < tiles; ++j) {
                        const CacheLine *b =
                            mesiL1s_[j]->array().find(a.line);
                        panic_if(b && b->valid &&
                                     b->mesi == MesiState::M,
                                 "two M owners for line %llx",
                                 static_cast<unsigned long long>(
                                     a.line));
                    }
                });
        }
    } else {
        // A word is registered to at most one L1 (the L2 regOwner is
        // the single source of truth; check L1 regWords agree).
        for (unsigned i = 0; i < tiles; ++i) {
            const_cast<CacheArray &>(dnL1s_[i]->array())
                .forEachValid([&](CacheLine &a) {
                    for (unsigned j = i + 1; j < tiles; ++j) {
                        const CacheLine *b =
                            dnL1s_[j]->array().find(a.line);
                        if (!b || !b->valid)
                            continue;
                        const WordMask both = a.regWords & b->regWords;
                        panic_if(!both.empty(),
                                 "word registered to two L1s: line "
                                 "%llx mask %s",
                                 static_cast<unsigned long long>(
                                     a.line),
                                 both.toString().c_str());
                    }
                });
        }
    }
}

SystemProbe
System::probe() const
{
    SystemProbe p;
    for (const L1Cache *l1 : l1Ifaces_) {
        p.demandLoads += l1->demandLoads();
        p.demandStores += l1->demandStores();
    }
    p.msgPoolSlots = net_->msgPoolSlots();
    p.msgPoolFree = net_->msgPoolFreeSlots();
    for (const auto &q : eqs_) {
        p.eqPending += q->pending();
        p.eqOverflow += q->overflowSize();
    }
    for (const auto &l2 : dnL2s_)
        p.l2Parked += l2->parkedNow();
    p.linkFlitsTotal = net_->totalLinkFlits();
    p.flitHopsCharged = net_->flitHopsCharged();
    return p;
}

} // namespace wastesim
