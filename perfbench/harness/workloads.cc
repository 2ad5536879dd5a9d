#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "crypto/mont_cache.hh"
#include "rig.hh"
#include "stats.hh"
#include "unit_costs.hh"

namespace perfbench {

namespace {

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/** Sum of the timed segments of a run, wall and process CPU. */
class TimedWindow
{
  public:
    void begin()
    {
        wallStart_ = nowNs();
        cpuStart_ = cpuSeconds();
    }
    void end()
    {
        wallS_ += secondsSince(wallStart_);
        cpuS_ += cpuSeconds() - cpuStart_;
    }
    double wallS() const { return wallS_; }
    double cpuS() const { return cpuS_; }

  private:
    std::int64_t wallStart_ = 0;
    double cpuStart_ = 0.0;
    double wallS_ = 0.0;
    double cpuS_ = 0.0;
};

/** Counters read across a timed segment (deltas are summed). */
struct Counters
{
    std::uint64_t wireMessages = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t mutations = 0;
    std::uint64_t walBytes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t riskRejections = 0;
    std::uint64_t montHits = 0;
    std::uint64_t montMisses = 0;

    static Counters of(const Rig &rig)
    {
        Counters c;
        c.wireMessages = rig.wireMessages();
        c.wireBytes = rig.wireBytes();
        c.retransmits = rig.retransmits();
        const StoreCounters store = rig.storeCounters();
        c.mutations = store.mutations;
        c.walBytes = store.walBytes;
        c.syncs = store.syncs;
        c.snapshots = store.snapshots;
        const auto verdicts = rig.serverVerdicts();
        c.accepted = verdicts.first;
        c.rejected = verdicts.second;
        c.dedupHits = rig.serverCounter("dedup-hit");
        c.riskRejections = rig.serverCounter("request-rejected:risk");
        c.montHits = trust::crypto::montgomeryCacheHits();
        c.montMisses = trust::crypto::montgomeryCacheMisses();
        return c;
    }

    /** this += (after − before), field by field. */
    void addDelta(const Counters &after, const Counters &before)
    {
        wireMessages += after.wireMessages - before.wireMessages;
        wireBytes += after.wireBytes - before.wireBytes;
        retransmits += after.retransmits - before.retransmits;
        mutations += after.mutations - before.mutations;
        walBytes += after.walBytes - before.walBytes;
        syncs += after.syncs - before.syncs;
        snapshots += after.snapshots - before.snapshots;
        accepted += after.accepted - before.accepted;
        rejected += after.rejected - before.rejected;
        dedupHits += after.dedupHits - before.dedupHits;
        riskRejections += after.riskRejections - before.riskRejections;
        montHits += after.montHits - before.montHits;
        montMisses += after.montMisses - before.montMisses;
    }
};

/** Everything a run measured, before it becomes metrics. */
struct Measurement
{
    TimedWindow window;
    Counters counters;
    std::vector<double> setupS;
    SetupTimes setup;
    std::vector<double> recoveryS;
    std::vector<double> storeRecoverS;
    std::vector<double> restartS;
    std::vector<double> attachS;
    std::uint64_t replayed = 0;
    std::uint64_t logBytes = 0;

    OpCounts ops;
    std::uint64_t touches = 0;
    std::uint64_t touchesCompleted = 0;
    std::uint64_t dispatches = 0;
    std::vector<double> interactionMs;
    std::vector<double> channelBusyS;
    double busyS = 0.0;

    // Traced runs only.
    std::vector<double> selfUs;
    std::vector<double> dispatchUs;
    std::array<std::vector<double>, kRequestKinds.size()> kindUs;
    Closure closure;
    std::size_t spansRecorded = 0;

    std::vector<std::string> failures;
    std::vector<std::vector<Span>> spanLogs;
};

void
requireReady(const Rig &rig, Measurement &m, const char *when)
{
    for (int c = 0; c < rig.channelCount(); ++c) {
        if (!rig.channelReady(c)) {
            m.failures.push_back(std::string(when) + ": channel " +
                                 std::to_string(c) +
                                 " is not registered and logged in");
            return;
        }
    }
}

void
noteRestart(const RestartReport &r, Measurement &m)
{
    m.recoveryS.push_back(r.wallS);
    m.storeRecoverS.push_back(r.storeRecoverS);
    m.restartS.push_back(r.serverRestartS);
    m.attachS.push_back(r.attachS);
    m.replayed += r.replayed;
    if (r.importedAccounts != r.storedAccounts)
        m.failures.push_back(
            "attachStore imported " + std::to_string(r.importedAccounts) +
            " accounts, the stores hold " +
            std::to_string(r.storedAccounts));
}

/** Fold a finished rig's channel stats and spans into @p m. */
void
harvest(const Rig &rig, bool traced, Measurement &m)
{
    for (int c = 0; c < rig.channelCount(); ++c) {
        const ChannelStats &s = rig.stats(c);
        m.ops += s.ops;
        m.touches += s.touches;
        m.touchesCompleted += s.touchesCompleted;
        m.dispatches += s.dispatches;
        m.interactionMs.insert(m.interactionMs.end(),
                               s.interactionMs.begin(),
                               s.interactionMs.end());
        const double busy = static_cast<double>(s.busyNs) / 1e9;
        m.channelBusyS.push_back(busy);
        m.busyS += busy;
        if (!traced)
            continue;
        const auto &spans = s.spans.spans();
        const std::vector<std::int64_t> self = selfTimesNs(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::string_view name = spans[i].name;
            if (name == "interaction")
                m.selfUs.push_back(static_cast<double>(self[i]) / 1e3);
            else if (name == "dispatch")
                m.dispatchUs.push_back(
                    static_cast<double>(spans[i].durationNs()) / 1e3);
        }
        m.closure.add(spans, "interaction", "dispatch");
        m.spansRecorded += spans.size();
        for (std::size_t k = 0; k < kRequestKinds.size(); ++k)
            m.kindUs[k].insert(m.kindUs[k].end(), s.kindUs[k].begin(),
                               s.kindUs[k].end());
        m.spanLogs.push_back(spans);
    }
    if (traced)
        m.spanLogs.push_back(rig.mainSpans().spans());
    m.setup += rig.setupTimes();
    m.logBytes += rig.storeCounters().logBytes;
}

RigConfig
rigConfig(const RunOptions &opt, const WorkloadShape &shape,
          std::uint64_t generation)
{
    RigConfig cfg;
    cfg.seed = opt.seed;
    cfg.generation = generation;
    cfg.servers = shape.servers;
    cfg.setupThreads = std::max(1, std::min(4, opt.nproc));
    cfg.traced = opt.traced;
    cfg.populationPerServer = shape.population;
    return cfg;
}

// --- Workloads -----------------------------------------------------------

void
runBrowse(const RunOptions &opt, const WorkloadShape &shape,
          Measurement &m)
{
    Rig rig(rigConfig(opt, shape, 0));
    const std::int64_t setup_start = nowNs();
    rig.startServers();
    rig.addDevices(shape.devices);
    rig.warmup(true, shape.warmupClicks, shape.threads);
    m.setupS.push_back(secondsSince(setup_start));
    requireReady(rig, m, "set-up");

    rig.setRecording(true);
    const Counters before = Counters::of(rig);
    m.window.begin();
    const std::int64_t start = nowNs();
    while (secondsSince(start) < opt.seconds)
        rig.browse(shape.clicks, shape.threads);
    m.window.end();
    m.counters.addDelta(Counters::of(rig), before);
    rig.setRecording(false);
    harvest(rig, opt.traced, m);
    for (int r = 0; r < shape.restarts; ++r)
        noteRestart(rig.crashAndRestart(shape.threads), m);
}

void
runOnboard(const RunOptions &opt, const WorkloadShape &shape,
           Measurement &m)
{
    for (std::uint64_t gen = 0; m.window.wallS() < opt.seconds; ++gen) {
        Rig rig(rigConfig(opt, shape, gen));
        const std::int64_t setup_start = nowNs();
        rig.startServers();
        rig.addDevices(shape.devices);
        m.setupS.push_back(secondsSince(setup_start));

        rig.setRecording(true);
        const Counters before = Counters::of(rig);
        m.window.begin();
        rig.registerAndLogin(shape.threads);
        rig.sweepPages(shape.clicks, shape.threads);
        m.window.end();
        m.counters.addDelta(Counters::of(rig), before);
        rig.setRecording(false);
        requireReady(rig, m, "onboard round");
        harvest(rig, opt.traced, m);
        for (int r = 0; r < shape.restarts; ++r)
            noteRestart(rig.crashAndRestart(shape.threads), m);
    }
}

void
runRecover(const RunOptions &opt, const WorkloadShape &shape,
           Measurement &m)
{
    Rig rig(rigConfig(opt, shape, 0));
    const std::int64_t setup_start = nowNs();
    rig.startServers();
    rig.addDevices(shape.devices);
    rig.warmup(false, shape.warmupClicks, shape.threads);
    m.setupS.push_back(secondsSince(setup_start));
    requireReady(rig, m, "set-up");

    const std::vector<std::string> pre_crash = rig.storeDigests();
    rig.setRecording(true);
    for (int cycle = 0; m.window.wallS() < opt.seconds; ++cycle) {
        m.window.begin();
        const RestartReport report = rig.crashAndRestart(shape.threads);
        if (cycle == 0) {
            // The digest check runs once, outside the timed window.
            m.window.end();
            if (rig.storeDigests() != pre_crash)
                m.failures.push_back(
                    "recovered store digest differs from the pre-crash "
                    "digest");
            m.window.begin();
        }
        noteRestart(report, m);
        // The users come back to the recovered servers: a fixed set of
        // pages per server, on cold page caches.
        const Counters before = Counters::of(rig);
        rig.sweepPages(shape.clicks, shape.threads);
        m.window.end();
        m.counters.addDelta(Counters::of(rig), before);
    }
    rig.setRecording(false);
    harvest(rig, opt.traced, m);
}

// --- Determinism gate ----------------------------------------------------

/** A reduced copy of the workload, fully recorded. */
std::vector<ChannelOutcome>
replica(const RunOptions &opt, const WorkloadShape &shape, int threads,
        bool traced, std::vector<std::string> &failures)
{
    RigConfig cfg;
    cfg.seed = opt.seed;
    cfg.servers = 2;
    cfg.setupThreads = threads;
    cfg.traced = traced;
    cfg.populationPerServer = shape.population > 0 ? 32 : 0;
    Rig rig(cfg);
    rig.setRecording(true);
    rig.startServers();
    rig.addDevices(6);
    rig.registerAndLogin(threads);
    rig.sweepPages(1, threads);
    rig.browse(2, threads);
    if (shape.population > 0) {
        const std::vector<std::string> pre = rig.storeDigests();
        const RestartReport report = rig.crashAndRestart(threads);
        if (rig.storeDigests() != pre)
            failures.push_back("replica: recovered digest differs");
        if (report.importedAccounts != report.storedAccounts)
            failures.push_back("replica: attachStore import mismatch");
        rig.browse(2, threads);
    }
    std::vector<ChannelOutcome> outcomes;
    for (int c = 0; c < rig.channelCount(); ++c) {
        outcomes.push_back(rig.outcome(c));
        if (!rig.channelReady(c))
            failures.push_back("replica: channel " + std::to_string(c) +
                               " not registered and logged in");
    }
    return outcomes;
}

/**
 * Per-channel outcomes of the reduced workload must be identical at
 * 1 and N threads and with spans on; returns the reference failed
 * ratio (deterministic for the seed).
 */
double
determinismGate(const RunOptions &opt, const WorkloadShape &shape,
                std::vector<std::string> &failures)
{
    const int wide = std::max(1, std::min(4, opt.nproc));
    const auto serial = replica(opt, shape, 1, false, failures);
    const auto parallel = replica(opt, shape, wide, false, failures);
    const auto traced = replica(opt, shape, wide, true, failures);
    if (parallel != serial)
        failures.push_back("channel outcomes differ between 1 and " +
                           std::to_string(wide) + " threads");
    if (traced != serial)
        failures.push_back(
            "channel outcomes differ between traced and untraced runs");
    OpCounts ops;
    for (const ChannelOutcome &o : serial) {
        ops.attempted += o.attempted;
        ops.failed += o.failed;
    }
    return ops.failedRatio();
}

// --- Metrics -------------------------------------------------------------

class MetricSink
{
  public:
    explicit MetricSink(RunReport &report) : report_(report) {}

    void add(const std::string &name, double value, const std::string &unit,
             std::size_t samples = 0)
    {
        report_.metrics.push_back({name, value, unit, samples});
    }

    /** Add a percentile, or record why it is refused. */
    void percentileOf(const std::string &name,
                      const std::vector<double> &samples, double q,
                      const std::string &unit)
    {
        const std::optional<double> p = percentile(samples, q);
        if (p) {
            add(name, *p, unit, samples.size());
            return;
        }
        report_.refused.push_back(
            name + ": " + std::to_string(samples.size()) +
            " samples, needs " + std::to_string(samplesNeeded(q)));
    }

  private:
    RunReport &report_;
};

/** Wall cost of one SpanLog open/close pair on this host (ns). */
double
spanCostNs()
{
    constexpr int kPairs = 1 << 16;
    SpanLog log;
    const std::int64_t start = nowNs();
    for (int i = 0; i < kPairs; ++i)
        log.close(log.open("interaction", static_cast<std::uint64_t>(i)));
    return static_cast<double>(nowNs() - start) / kPairs;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
endToEndMetrics(const Measurement &m, MetricSink &out)
{
    const auto requests = static_cast<double>(m.dispatches);
    out.add("setup_s", median(m.setupS), "s", m.setupS.size());
    out.add("requests_per_s", ratio(requests, m.window.wallS()), "1/s");
    out.percentileOf("interaction_p50_ms", m.interactionMs, 0.50, "ms");
    out.percentileOf("interaction_p95_ms", m.interactionMs, 0.95, "ms");
    out.add("cpu_ms_per_request", ratio(m.window.cpuS() * 1e3, requests),
            "ms");
    out.add("recovery_s", median(m.recoveryS), "s", m.recoveryS.size());
    out.add("peak_rss_mib", peakRssMib(), "MiB");
}

void
perLayerMetrics(const Measurement &m, const WorkloadShape &shape,
                std::uint64_t seed, MetricSink &out)
{
    const auto requests = static_cast<double>(m.dispatches);
    double self_s = 0.0;
    for (double us : m.selfUs)
        self_s += us / 1e6;
    double dispatch_s = 0.0;
    for (double us : m.dispatchUs)
        dispatch_s += us / 1e6;

    out.percentileOf("device.self_p50_us", m.selfUs, 0.50, "us");
    out.percentileOf("device.self_p95_us", m.selfUs, 0.95, "us");
    out.add("device.self_s", self_s, "s", m.selfUs.size());
    out.add("device.retransmits",
            static_cast<double>(m.counters.retransmits), "count");
    out.add("device.touch_accept_ratio",
            ratio(static_cast<double>(m.touchesCompleted),
                  static_cast<double>(m.touches)),
            "ratio");

    out.percentileOf("server.dispatch_p50_us", m.dispatchUs, 0.50, "us");
    out.percentileOf("server.dispatch_p95_us", m.dispatchUs, 0.95, "us");
    out.add("server.dispatch_s", dispatch_s, "s", m.dispatchUs.size());
    for (std::size_t k = 0; k < kRequestKinds.size(); ++k)
        out.percentileOf(std::string("server.") + kRequestKinds[k] +
                             ".p50_us",
                         m.kindUs[k], 0.50, "us");
    out.add("server.accepted_ratio",
            ratio(static_cast<double>(m.counters.accepted),
                  static_cast<double>(m.counters.accepted +
                                      m.counters.rejected)),
            "ratio");
    out.add("server.dedup_hits", static_cast<double>(m.counters.dedupHits),
            "count");

    out.add("net.messages_per_request",
            ratio(static_cast<double>(m.counters.wireMessages), requests),
            "count");
    out.add("net.bytes_per_request",
            ratio(static_cast<double>(m.counters.wireBytes), requests), "B");

    out.add("store.mutations_per_request",
            ratio(static_cast<double>(m.counters.mutations), requests),
            "count");
    out.add("store.wal_bytes_per_request",
            ratio(static_cast<double>(m.counters.walBytes), requests), "B");
    out.add("store.syncs_per_request",
            ratio(static_cast<double>(m.counters.syncs), requests), "count");
    out.add("store.snapshots", static_cast<double>(m.counters.snapshots),
            "count");
    out.add("store.log_bytes", static_cast<double>(m.logBytes), "B");
    out.add("store.recover_s", median(m.storeRecoverS), "s",
            m.storeRecoverS.size());
    out.add("store.replayed_records", static_cast<double>(m.replayed),
            "count");
    out.add("server.restart_s", median(m.restartS), "s", m.restartS.size());
    out.add("server.attach_s", median(m.attachS), "s", m.attachS.size());

    out.add("crypto.mont_cache_hit_ratio",
            ratio(static_cast<double>(m.counters.montHits),
                  static_cast<double>(m.counters.montHits +
                                      m.counters.montMisses)),
            "ratio");

    const double capacity = shape.threads * m.window.wallS();
    out.add("parallel.idle_ratio", 1.0 - ratio(m.busyS, capacity), "ratio");
    double busiest = 0.0;
    for (double b : m.channelBusyS)
        busiest = std::max(busiest, b);
    out.add("parallel.imbalance",
            ratio(busiest, ratio(m.busyS, static_cast<double>(
                                              m.channelBusyS.size()))),
            "ratio");

    out.add("setup.servers_s", m.setup.servers, "s");
    out.add("setup.flock_keygen_s", m.setup.flockKeygen, "s");
    out.add("setup.placement_s", m.setup.placement, "s");
    out.add("setup.enroll_s", m.setup.enroll, "s");
    out.add("setup.population_s", m.setup.population, "s");
    out.add("setup.warmup_s", m.setup.warmup, "s");

    for (const UnitCost &cost : measureUnitCosts(seed))
        out.add(cost.name, cost.value, cost.unit);

    // Recording cost: spans recorded × the measured cost of one
    // open/close pair, over the interaction time they traced.
    out.add("trace.overhead_ratio",
            ratio(static_cast<double>(m.spansRecorded) * spanCostNs(),
                  m.busyS * 1e9),
            "ratio");
    out.add("trace.closure_error", m.closure.error(), "ratio");
    out.add("failed_ratio", m.ops.failedRatio(), "ratio");
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"browse", "onboard", "recover"};
}

WorkloadShape
workloadShape(const std::string &name, int nproc)
{
    const int wide = std::max(1, std::min(4, nproc));
    WorkloadShape s;
    if (name == "browse") {
        s.devices = 64;
        s.servers = 4;
        s.threads = wide;
        s.clicks = 4;
        s.warmupClicks = 8;
        s.restarts = 5;
    } else if (name == "onboard") {
        s.devices = 48;
        s.servers = 8;
        s.threads = 1;
        s.clicks = 2;
        s.restarts = 3;
    } else if (name == "recover") {
        s.devices = 32;
        s.servers = 4;
        s.threads = wide;
        s.clicks = 2;
        s.population = 10000;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return s;
}

RunReport
runWorkload(const RunOptions &opt)
{
    const WorkloadShape shape = workloadShape(opt.workload, opt.nproc);
    RunReport report;
    Measurement m;

    const double reference = determinismGate(opt, shape, m.failures);
    report.notes.push_back("gate: reduced workload at 1 and " +
                           std::to_string(std::min(4, opt.nproc)) +
                           " threads, traced and untraced; failed ratio " +
                           std::to_string(reference));

    if (opt.workload == "browse")
        runBrowse(opt, shape, m);
    else if (opt.workload == "onboard")
        runOnboard(opt, shape, m);
    else
        runRecover(opt, shape, m);

    // A request the server refused by the k-of-n risk policy got the
    // protocol's typed answer; any other hard failure is a fault.
    const std::uint64_t risk = m.counters.riskRejections;
    const std::uint64_t faults =
        m.ops.hardFailed > risk ? m.ops.hardFailed - risk : 0;
    if (faults > 0)
        m.failures.push_back(std::to_string(faults) +
                             " operations failed on retry exhaustion, "
                             "ServerBusy or an ErrorReply other than a "
                             "risk rejection");
    if (m.dispatches == 0)
        m.failures.push_back("no server request completed");

    MetricSink sink(report);
    if (opt.traced)
        perLayerMetrics(m, shape, opt.seed, sink);
    else
        endToEndMetrics(m, sink);

    report.attempted = m.ops.attempted;
    report.failed = faults;
    report.failures = m.failures;
    report.correct = m.failures.empty() && report.refused.empty();
    report.spanLogs = std::move(m.spanLogs);
    report.notes.push_back(
        "timed " + std::to_string(m.window.wallS()) + " s, " +
        std::to_string(m.dispatches) + " requests, " +
        std::to_string(m.interactionMs.size()) + " interactions, " +
        std::to_string(m.setupS.size()) + " set-ups, " +
        std::to_string(m.recoveryS.size()) + " restarts, " +
        std::to_string(m.ops.failed) + " failed operations of which " +
        std::to_string(risk) + " risk rejections");
    return report;
}

std::vector<std::string>
endToEndMetricNames()
{
    return {"setup_s",          "requests_per_s",     "interaction_p50_ms",
            "interaction_p95_ms", "cpu_ms_per_request", "recovery_s",
            "peak_rss_mib"};
}

std::vector<std::string>
perLayerMetricNames()
{
    std::vector<std::string> names = {
        "device.self_p50_us", "device.self_p95_us", "device.self_s",
        "device.retransmits", "device.touch_accept_ratio",
        "server.dispatch_p50_us", "server.dispatch_p95_us",
        "server.dispatch_s"};
    for (const char *kind : kRequestKinds)
        names.push_back(std::string("server.") + kind + ".p50_us");
    const std::vector<std::string> rest = {
        "server.accepted_ratio",
        "server.dedup_hits", "net.messages_per_request",
        "net.bytes_per_request", "store.mutations_per_request",
        "store.wal_bytes_per_request", "store.syncs_per_request",
        "store.snapshots", "store.log_bytes", "store.recover_s",
        "store.replayed_records", "server.restart_s", "server.attach_s",
        "crypto.mont_cache_hit_ratio", "parallel.idle_ratio",
        "parallel.imbalance", "setup.servers_s", "setup.flock_keygen_s",
        "setup.placement_s", "setup.enroll_s", "setup.population_s",
        "setup.warmup_s", "frames.render_hash_us", "frames.expected_set_ms",
        "flock.process_touch_us", "crypto.rsa_keygen_ms",
        "crypto.rsa_verify_us", "crypto.aes_ctr_kb_us",
        "messages.page_request_codec_us", "store.put_session_us",
        "trace.overhead_ratio", "trace.closure_error", "failed_ratio"};
    names.insert(names.end(), rest.begin(), rest.end());
    return names;
}

} // namespace perfbench
