#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "common/sim_error.hh"
#include "explore/explore.hh"
#include "explore/grid.hh"
#include "layers.hh"
#include "serve/serve.hh"
#include "sim/interval.hh"
#include "sim/machine.hh"
#include "spans.hh"
#include "stats_util.hh"
#include "workload/prepared.hh"
#include "workload/suite_runner.hh"
#include "workload/workload.hh"

namespace simbench
{

using namespace mipsx;
using workload::Workload;

namespace
{

/**
 * Cold set-up repetitions: at least this many and at least this long in
 * all; setup_s is their median. A single cold set-up lasts 3-50 ms, so
 * one sample would mostly measure host noise.
 */
constexpr unsigned setupMinReps = 9;
constexpr double setupMinSeconds = 0.5;
/** serve_mix: jobs per round, clients and server workers. */
constexpr unsigned serveRoundJobs = 512;
constexpr unsigned serveClients = 2;
constexpr unsigned serveWorkers = 2;
/** Jobs in the serve probe round of the other workloads' traced runs. */
constexpr unsigned serveProbeJobs = 64;
/** Memory probe: ISS steps recorded per image at most. */
constexpr std::uint64_t streamStepsPerImage = 1'500'000;

/** E15's interval settings (EXPERIMENTS.md, bench_bigwork). */
sim::IntervalConfig
e15Intervals(const Workload &w)
{
    sim::IntervalConfig ic;
    ic.intervals = 12;
    ic.warmup = 12000;
    ic.sample = 16000;
    ic.jobs = 1;
    ic.totalHint = w.dynamicEstimate;
    ic.phases = w.dynamicPhases;
    return ic;
}

struct OpOutcome
{
    double instructions = 0; ///< whole-program simulated instructions
    bool ok = true;
};

/** Everything one run accumulates. */
struct Ctx
{
    explicit Ctx(const Options &o) : opt(o), tracer(o.trace) {}

    const Options &opt;
    Tracer tracer;
    Report rep;

    std::vector<double> setupSec;
    std::vector<double> opMs; ///< untraced ops only
    /**
     * Untraced rounds of identical work (an op; serve_mix: 512 jobs)
     * and their durations, for the throughput figure.
     */
    std::vector<double> roundSec;
    double plainSec = 0, plainInstr = 0;
    double tracedSec = 0, tracedInstr = 0;
    std::uint64_t tracedOps = 0;
    double peakRssMb = 0;
    double sampledErrorPct = 0;

    /** Machine::run totals over traced passes. */
    struct
    {
        double cycles = 0, instr = 0, stalls = 0, runSec = 0;
        std::uint64_t passes = 0;
    } core;
    /**
     * runIntervals totals over traced passes, and the serial stages
     * timed alone over the passes that measured them.
     */
    struct
    {
        double runSec = 0, pieces = 0, planIss = 0, caInstr = 0;
        std::uint64_t passes = 0;
        double stageRunSec = 0, issSec = 0, cloneSec = 0;
        std::uint64_t stagePasses = 0;
    } interval;
    /** PreparedCache over the timed phase. */
    struct
    {
        std::uint64_t hits = 0, misses = 0, maxEntries = 0;
    } cache;
    std::uint64_t toolchainPasses = 0;
    MemoryProbe memory;
    double issBlockMips = 0, issStepMips = 0;
    /** serve.* per-layer figures (filled by the serve run or probe). */
    std::map<std::string, double> serve;

    Tracer *tr(bool traced) { return traced ? &tracer : nullptr; }

    /** Mean duration of the spans called @p name, in microseconds. */
    double
    meanSpanUs(const char *name) const
    {
        const auto a = tracer.agg(name);
        return a.count ? a.totalUs / double(a.count) : 0.0;
    }

    void
    check(const Errors &errs)
    {
        rep.errors.insert(rep.errors.end(), errs.begin(), errs.end());
    }

    void
    metric(const std::string &name, double value, const char *unit)
    {
        rep.metrics.push_back({name, value, unit});
    }
};

/** A cache-stats delta window around timed work. */
class CacheWindow
{
  public:
    CacheWindow() : s0_(workload::PreparedCache::global().stats()) {}

    void
    close(Ctx &c) const
    {
        const auto s1 = workload::PreparedCache::global().stats();
        c.cache.hits += s1.hits - s0_.hits;
        c.cache.misses += s1.misses - s0_.misses;
        c.cache.maxEntries = std::max<std::uint64_t>(c.cache.maxEntries,
                                                     s1.entries);
    }

  private:
    workload::PreparedCacheStats s0_;
};

/**
 * Run ops until the time is up: one untimed warm-up op first (op 0,
 * whose outputs the checks read), then timed ops; a traced run
 * alternates untraced and traced ops so both rates come from the same
 * process and period.
 */
void
timedLoop(Ctx &c, const std::function<OpOutcome(bool, std::uint64_t)> &op)
{
    const auto count = [&](const OpOutcome &o) {
        ++c.rep.attempted;
        if (!o.ok)
            ++c.rep.failed;
    };
    {
        const CacheWindow cw;
        count(op(false, 0));
        cw.close(c);
    }
    const CacheWindow cw;
    const auto start = Clock::now();
    for (std::uint64_t id = 1;
         secondsSince(start) < c.opt.seconds ||
         (c.opt.trace && c.tracedOps == 0);
         ++id) {
        const bool traced = c.opt.trace && id % 2 == 0;
        const auto t0 = Clock::now();
        const OpOutcome o = op(traced, id);
        const double dt = secondsSince(t0);
        count(o);
        if (traced) {
            c.tracedSec += dt;
            c.tracedInstr += o.instructions;
            ++c.tracedOps;
        } else {
            c.plainSec += dt;
            c.plainInstr += o.instructions;
            c.opMs.push_back(dt * 1e3);
            c.roundSec.push_back(dt);
        }
    }
    cw.close(c);
    c.peakRssMb = peakRssMb();
}

/**
 * Repeat a cold set-up (see setupMinReps) and record each duration;
 * @p tearDown, when given, undoes the previous repetition untimed.
 */
void
repeatSetup(Ctx &c, const std::function<void()> &setUp,
            const std::function<void()> &tearDown = {})
{
    double total = 0;
    while (c.setupSec.size() < setupMinReps || total < setupMinSeconds) {
        if (tearDown && !c.setupSec.empty())
            tearDown();
        const auto t0 = Clock::now();
        setUp();
        c.setupSec.push_back(secondsSince(t0));
        total += c.setupSec.back();
    }
}

// ---------------------------------------------------------------------
// Inputs

/** The 26-program full suite in a seeded order. */
std::vector<Workload>
suitePrograms(std::uint64_t seed)
{
    auto suite = workload::fullSuite();
    SplitMix rng(seed ^ 0x5017eu);
    shuffle(suite, rng);
    return suite;
}

/**
 * The three scaledWorkloads() programs (7.36M instructions, data
 * footprints twice the E-cache) in a seeded order. The programs
 * themselves stay fixed: their generator seeds move the sampled
 * estimate's error between 12% and 29%, which would swamp the figure.
 */
std::vector<Workload>
scaledPrograms(std::uint64_t seed)
{
    auto progs = workload::scaledWorkloads();
    SplitMix rng(seed ^ 0x5ca1edu);
    shuffle(progs, rng);
    return progs;
}

/** The distinct reorganizer configs a sweep's points use. */
std::vector<reorg::ReorgConfig>
sweepReorgs(const explore::SweepConfig &cfg)
{
    std::vector<reorg::ReorgConfig> out;
    std::set<std::string> seen;
    for (const auto &pt : explore::expandGrid(cfg.grid)) {
        workload::SuiteRunOptions opts = cfg.runner;
        explore::applyPoint(opts, pt);
        if (seen.insert(workload::reorgFingerprint(opts.reorg)).second)
            out.push_back(opts.reorg);
    }
    return out;
}

/** Cold preparation of every (program, config) image. */
void
prepareCold(Ctx &c, const std::vector<Workload> &progs,
            const std::vector<reorg::ReorgConfig> &reorgs)
{
    auto s = c.tracer.span("workload.prepare_cold");
    workload::PreparedCache::global().clear();
    for (const auto &rc : reorgs)
        for (const auto &w : progs)
            workload::PreparedCache::global().get(w, rc, false);
}

// ---------------------------------------------------------------------
// The monolithic path: Machine::run per program

struct MachineRun
{
    core::RunResult result;
    sim::MachineCounters counters;
    std::uint32_t resultWord = 0;
    std::uint32_t expectedWord = 0;
};

MachineRun
machineRun(Ctx &c, Tracer *tr, const Workload &w,
           const reorg::ReorgConfig &rc, const sim::MachineConfig &mc,
           std::uint64_t op)
{
    workload::PreparedPtr prep;
    {
        Tracer::Scope s(tr, "workload.cache_get", op);
        prep = workload::PreparedCache::global().get(w, rc, false);
    }
    std::unique_ptr<sim::Machine> m;
    {
        Tracer::Scope s(tr, "sim.machine_setup", op);
        m = std::make_unique<sim::Machine>(mc);
        m->load(prep->image, &prep->decoded);
    }
    MachineRun out;
    const auto t0 = Clock::now();
    {
        Tracer::Scope s(tr, "sim.machine_run", op);
        out.result = m->run();
    }
    const double dt = secondsSince(t0);
    out.counters = m->steadyCounters();
    if (tr) {
        c.core.cycles += double(out.counters.pipeline.cycles);
        c.core.instr += double(out.counters.pipeline.committed);
        c.core.stalls += double(out.counters.icacheStalls +
                                out.counters.ecacheStalls);
        c.core.runSec += dt;
    }
    if (prep->image.symbols.count("result") &&
        prep->image.symbols.count("exp")) {
        out.resultWord = m->readSymbol("result");
        out.expectedWord = m->readSymbol("exp");
    }
    return out;
}

/** One monolithic pass over @p progs at the default machine. */
std::vector<MonoRecord>
monoPass(Ctx &c, Tracer *tr, const std::vector<Workload> &progs,
         std::uint64_t op, double *instructions = nullptr)
{
    std::vector<MonoRecord> out;
    double instr = 0;
    for (const auto &w : progs) {
        const MachineRun r = machineRun(c, tr, w, {}, {}, op);
        MonoRecord rec;
        rec.name = w.name;
        rec.reason = r.result.reason;
        rec.committed = r.counters.pipeline.committed;
        rec.cycles = r.counters.pipeline.cycles;
        rec.result = r.resultWord;
        rec.expected = r.expectedWord;
        instr += double(rec.committed);
        out.push_back(rec);
    }
    if (tr)
        ++c.core.passes;
    if (instructions)
        *instructions = instr;
    return out;
}

/** Fill each record's ISS reference: a delayed-mode block run. */
void
addIssReference(std::vector<MonoRecord> &recs,
                const std::vector<Workload> &progs)
{
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto prep =
            workload::PreparedCache::global().get(progs[i], {}, false);
        const IssRun r = runDelayedIss(prep->image, {}, true);
        recs[i].issStop = r.stop;
        recs[i].issSteps = r.steps;
    }
}

bool
allHalted(const std::vector<MonoRecord> &recs)
{
    return std::all_of(recs.begin(), recs.end(), [](const MonoRecord &r) {
        return r.reason == core::StopReason::Halt;
    });
}

// ---------------------------------------------------------------------
// The sampled path: runIntervals per program

/**
 * One E15 runIntervals pass over @p progs. With @p stages (a traced
 * pass outside the timed loop) the serial stages are also timed alone
 * on each image: one ISS pass, as the plan's checkpoint run makes, and
 * one memory clone per piece.
 */
std::vector<SampledRecord>
intervalPass(Ctx &c, Tracer *tr, const std::vector<Workload> &progs,
             std::uint64_t op, bool stages = false)
{
    std::vector<SampledRecord> out;
    for (const auto &w : progs) {
        workload::PreparedPtr prep;
        {
            Tracer::Scope s(tr, "workload.cache_get", op);
            prep = workload::PreparedCache::global().get(w, {}, false);
        }
        sim::IntervalResult r;
        const auto t0 = Clock::now();
        {
            Tracer::Scope s(tr, "sim.interval_run", op);
            r = sim::runIntervals(prep->image, {}, e15Intervals(w),
                                  &prep->decoded);
        }
        const double dt = secondsSince(t0);
        SampledRecord rec;
        rec.name = w.name;
        rec.intervalRan = r.intervalRan;
        rec.pieces = r.pieces.size();
        rec.estCommitted = r.estimated.pipeline.committed;
        rec.estCycles = r.estimated.pipeline.cycles;
        rec.hint = w.dynamicEstimate;
        out.push_back(rec);
        if (tr) {
            c.interval.runSec += dt;
            c.interval.pieces += double(r.pieces.size());
            c.interval.planIss += double(r.planIssInstructions);
            for (const auto &p : r.pieces)
                c.interval.caInstr += double(p.end - p.handoff);
        }
        if (tr && stages) {
            const IssRun iss = runDelayedIss(prep->image, {}, true);
            const auto c0 = Clock::now();
            {
                Tracer::Scope s(tr, "sim.checkpoint_clone", op);
                for (std::size_t p = 0; p < r.pieces.size(); ++p) {
                    const auto copy = iss.memory.cloneImage();
                    (void)copy;
                }
            }
            c.interval.cloneSec += secondsSince(c0);
            c.interval.issSec += iss.seconds;
            c.interval.stageRunSec += dt;
        }
    }
    if (tr)
        ++c.interval.passes;
    if (tr && stages)
        ++c.interval.stagePasses;
    return out;
}

/** Pair sampled records with their monolithic references. */
void
attachReferences(std::vector<SampledRecord> &sampled,
                 const std::vector<MonoRecord> &mono)
{
    for (std::size_t i = 0; i < sampled.size() && i < mono.size(); ++i)
        sampled[i].mono = mono[i];
}

// ---------------------------------------------------------------------
// The sweep path

void
addRun(workload::SuiteStats &s, const sim::MachineCounters &c,
       const sim::MachineConfig &mc)
{
    s.workloads += 1;
    s.cycles += c.pipeline.cycles;
    s.committed += c.pipeline.committed;
    s.committedNops += c.pipeline.committedNops;
    s.nopsInBranchSlots += c.pipeline.nopsInBranchSlots;
    s.nopsForLoadDelay += c.pipeline.nopsForLoadDelay;
    s.squashed += c.pipeline.squashed;
    s.branches += c.pipeline.branches;
    s.branchesTaken += c.pipeline.branchesTaken;
    s.branchWastedSlots += c.pipeline.branchWastedSlots;
    s.jumps += c.pipeline.jumps;
    s.jumpWastedSlots += c.pipeline.jumpWastedSlots;
    s.icacheAccesses += c.icacheAccesses;
    s.icacheMisses += c.icacheMisses;
    s.icacheRefillWords += c.icacheRefillWords;
    s.icacheStalls += c.icacheStalls;
    s.ecacheAccesses += c.ecacheAccesses;
    s.ecacheMisses += c.ecacheMisses;
    s.ecacheWritebacks += c.ecacheWritebacks;
    s.ecacheMemCycles += c.ecacheMemCycles;
    s.ecacheStalls += c.ecacheStalls;
    s.icacheSizeWords = std::max<std::uint64_t>(
        s.icacheSizeWords, mc.cpu.icache.totalWords());
    s.ecacheSizeWords =
        std::max<std::uint64_t>(s.ecacheSizeWords, mc.cpu.ecache.sizeWords);
}

std::string
emitSweep(const explore::SweepResult &r)
{
    std::ostringstream os;
    explore::writeCsv(os, r);
    explore::writeJson(os, r);
    return os.str();
}

/**
 * The sweep engine's work done by hand, one layer call at a time under
 * spans: per point the bindings, then per program a cache get, a
 * Machine setup and run, then the metrics snapshot; finally the CSV
 * and JSON emitters. Produces the same SweepResult as runSweep().
 */
explore::SweepResult
sweepByHand(Ctx &c, Tracer *tr, const explore::SweepConfig &cfg,
            const std::vector<Workload> &suite, std::uint64_t op,
            std::string &emitted)
{
    explore::SweepResult res;
    res.grid = cfg.grid;
    res.suite = cfg.suite;
    res.base = cfg.base;
    res.workloads = static_cast<unsigned>(suite.size());
    const auto points = explore::expandGrid(cfg.grid);
    for (std::size_t i = 0; i < points.size(); ++i) {
        Tracer::Scope sp(tr, "explore.point", op);
        workload::SuiteRunOptions opts = cfg.runner;
        explore::applyPoint(opts, points[i]);
        explore::SweepPointResult pr;
        pr.index = i;
        pr.point = points[i];
        for (unsigned w = 0; w < suite.size(); ++w) {
            const MachineRun r =
                machineRun(c, tr, suite[w], opts.reorg, opts.machine, op);
            if (r.result.reason != core::StopReason::Halt) {
                ++pr.stats.failures;
                pr.failures.push_back(
                    {w, suite[w].name,
                     core::stopReasonName(r.result.reason), {}});
                continue;
            }
            addRun(pr.stats, r.counters, opts.machine);
        }
        {
            Tracer::Scope s(tr, "stats.collect", op);
            workload::collectMetrics(pr.stats, pr.metrics, "suite");
            workload::collectEnergy(pr.stats, opts.machine.cpu.energy,
                                    pr.metrics, "energy");
        }
        res.points.push_back(std::move(pr));
    }
    if (tr)
        ++c.core.passes;
    Tracer::Scope s(tr, "explore.emit", op);
    emitted = emitSweep(res);
    return res;
}

double
sweepInstructions(const explore::SweepResult &r)
{
    double n = 0;
    for (const auto &p : r.points)
        n += double(p.stats.committed);
    return n;
}

/** The paper's study: scheme x slots x missPenalty x fetchWords. */
explore::SweepConfig
paperSweepConfig(std::uint64_t seed)
{
    std::vector<explore::GridAxis> axes = {
        {"branch.scheme", {"no-squash", "squash-optional"}},
        {"branch.slots", {"1", "2"}},
        {"icache.missPenalty", {"2", "3"}},
        {"icache.fetchWords", {"1", "2"}},
    };
    SplitMix rng(seed ^ 0xa8e5u);
    shuffle(axes, rng); // the seed picks the point order
    explore::SweepConfig cfg;
    cfg.grid.axes = axes;
    cfg.suite = "full";
    cfg.runner.jobs = 1;
    return cfg;
}

// ---------------------------------------------------------------------
// The serve path

enum class JobKind : std::uint8_t
{
    Named,
    Inline,
    FastForward,
};

const char *
jobKindName(JobKind k)
{
    switch (k) {
      case JobKind::Named: return "named";
      case JobKind::Inline: return "inline";
      case JobKind::FastForward: return "fast_forward";
    }
    return "?";
}

struct ServeJob
{
    JobKind kind = JobKind::Named;
    std::size_t program = 0;
    bool fetchBinding = false; ///< icache.fetchWords = 1
    std::uint64_t fastForward = 0;
};

/**
 * One round of the mix: 1/8 inline programs, 1/8 fast-forward jobs,
 * the rest suite workloads by name, half of those with an
 * icache.fetchWords binding. Each kind cycles through the suite in a
 * seeded program order, and the jobs are then shuffled, so the seed
 * moves which jobs meet in the queue, not the amount of work.
 */
std::vector<ServeJob>
makeServeMix(SplitMix &rng, std::size_t programs, unsigned jobs)
{
    std::vector<std::size_t> perm(programs);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    shuffle(perm, rng);
    std::vector<ServeJob> mix(jobs);
    const unsigned eighth = jobs / 8;
    for (unsigned j = 0; j < jobs; ++j) {
        ServeJob &s = mix[j];
        if (j < eighth) {
            s.kind = JobKind::Inline;
            s.program = perm[j % programs];
        } else if (j < 2 * eighth) {
            s.kind = JobKind::FastForward;
            s.program = perm[(j - eighth) % programs];
            s.fastForward = 200 + rng.below(1800);
        } else {
            const unsigned k = j - 2 * eighth;
            s.program = perm[(k / 2) % programs];
            s.fetchBinding = k % 2 == 1;
        }
    }
    shuffle(mix, rng);
    return mix;
}

/** A suite program's source made unique to (round, job). */
std::string
uniqueSource(const Workload &w, std::uint64_t round, std::size_t job)
{
    return w.source +
        strformat("\n; simbench round %llu job %zu\n",
                  static_cast<unsigned long long>(round), job);
}

std::string
requestLine(const ServeJob &s, const Workload &w, std::uint64_t round,
            std::size_t job)
{
    std::string line =
        strformat("{\"op\":\"run\",\"id\":\"j%zu\",", job);
    if (s.kind == JobKind::Inline) {
        line += "\"program\":" + serve::jsonQuote(uniqueSource(w, round, job));
    } else {
        line += "\"workload\":" + serve::jsonQuote(w.name);
        if (s.fetchBinding)
            line += ",\"config\":{\"icache.fetchWords\":1}";
        if (s.kind == JobKind::FastForward)
            line += strformat(",\"fast_forward\":%llu",
                              static_cast<unsigned long long>(
                                  s.fastForward));
    }
    return line + "}";
}

/** What one round of jobs through the server produced. */
struct ServeRound
{
    std::vector<double> latencyMs;   ///< per job, submit to reply
    std::vector<double> toCallbackMs; ///< per job, submit to completion
    /** ok and passed, per job (bytes: clients write neighbours). */
    std::vector<std::uint8_t> good;
    std::vector<double> instructions; ///< whole-program, per job
    std::vector<std::string> replies; ///< kept where requested
    double seconds = 0;
};

/** A client's reply slot, reused for each of its jobs. */
class ReplySlot
{
  public:
    void
    post(bool good, std::string reply, Clock::time_point cb)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        good_ = good;
        reply_ = std::move(reply);
        callback_ = cb;
        done_ = true;
        cv_.notify_one();
    }

    /** Wait for the reply, then re-arm for the next job. */
    void
    wait(bool &good, std::string &reply, Clock::time_point &cb)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_; });
        good = good_;
        reply = std::move(reply_);
        cb = callback_;
        done_ = false;
    }

  private:
    std::mutex mu_; // guards everything below
    std::condition_variable cv_;
    bool done_ = false;
    bool good_ = false;
    std::string reply_;
    Clock::time_point callback_;
};

/** The integer after "key": in a rendered reply, 0 when absent. */
std::uint64_t
replyField(const std::string &reply, const char *key)
{
    const std::string pat = strformat("\"%s\":", key);
    const auto pos = reply.find(pat);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(reply.c_str() + pos + pat.size(), nullptr, 10);
}

/**
 * Push @p lines through @p server from serveClients closed-loop
 * clients: each parses a request, submits it and waits for the
 * rendered reply before taking the next job.
 */
ServeRound
runServeRound(serve::Server &server, const std::vector<std::string> &lines,
              Tracer *tr, std::uint64_t opBase,
              const std::vector<bool> &keepReply)
{
    const std::size_t n = lines.size();
    ServeRound out;
    out.latencyMs.assign(n, 0);
    out.toCallbackMs.assign(n, 0);
    out.good.assign(n, false);
    out.instructions.assign(n, 0);
    out.replies.assign(n, {});
    std::atomic<std::size_t> next{0};
    const auto client = [&] {
        ReplySlot slot;
        for (std::size_t j = next.fetch_add(1); j < n; j = next.fetch_add(1)) {
            const std::uint64_t op = opBase + j;
            const auto t0 = Clock::now();
            serve::JobRequest req;
            {
                Tracer::Scope s(tr, "serve.parse", op);
                req = serve::parseJobRequest(lines[j]);
            }
            const std::string id = req.id;
            server.submit(std::move(req),
                          [&slot, &id, tr, op](std::uint64_t seq,
                                               const serve::JobOutcome &o) {
                              const auto cb = Clock::now();
                              std::string reply;
                              {
                                  Tracer::Scope s(tr, "serve.render", op);
                                  reply = serve::formatReply(id, seq, o);
                              }
                              slot.post(o.ok && o.passed, std::move(reply),
                                        cb);
                          });
            bool good = false;
            std::string reply;
            Clock::time_point cb;
            slot.wait(good, reply, cb);
            const auto t1 = Clock::now();
            out.latencyMs[j] =
                std::chrono::duration<double, std::milli>(t1 - t0).count();
            out.toCallbackMs[j] =
                std::chrono::duration<double, std::milli>(cb - t0).count();
            out.good[j] = good;
            out.instructions[j] =
                double(replyField(reply, "instructions") +
                       replyField(reply, "fast_forward_steps"));
            if (keepReply[j])
                out.replies[j] = std::move(reply);
        }
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned i = 0; i < serveClients; ++i)
        clients.emplace_back(client);
    for (auto &t : clients)
        t.join();
    out.seconds = secondsSince(t0);
    return out;
}

/** Everything a serve run keeps between rounds. */
struct ServeSetup
{
    std::vector<Workload> suite;
    std::vector<ServeJob> mix;
    std::unique_ptr<serve::Server> server;
};

ServeSetup
setUpServe(Ctx &c, std::uint64_t seed, unsigned jobs)
{
    ServeSetup s;
    {
        auto sp = c.tracer.span("workload.generate");
        s.suite = suitePrograms(seed);
        SplitMix rng(seed ^ 0x5e7eu);
        s.mix = makeServeMix(rng, s.suite.size(), jobs);
    }
    prepareCold(c, s.suite, {reorg::ReorgConfig{}});
    serve::ServeConfig sc;
    sc.workers = serveWorkers;
    s.server = std::make_unique<serve::Server>(sc);
    return s;
}

std::vector<std::string>
roundLines(const ServeSetup &s, std::uint64_t round)
{
    std::vector<std::string> lines;
    lines.reserve(s.mix.size());
    for (std::size_t j = 0; j < s.mix.size(); ++j)
        lines.push_back(
            requestLine(s.mix[j], s.suite[s.mix[j].program], round, j));
    return lines;
}

/** A direct run of one served job, apart from the serve code path. */
ServeSample
directRun(Tracer *tr, const ServeSetup &s, std::size_t j,
          std::string reply)
{
    const ServeJob &job = s.mix[j];
    Workload w = s.suite[job.program];
    if (job.kind == JobKind::Inline) {
        w.name = "inline";
        w.source = uniqueSource(w, 0, j);
    }
    // The machine a served run job gets (serve.hh): the counter
    // coprocessor attached as in mipsx-run, the server's cycle cap, and
    // the job's own bindings.
    sim::MachineConfig mc;
    mc.attachCounterCop = true;
    mc.cpu.maxCycles = serve::ServeConfig{}.maxCycles;
    if (job.fetchBinding)
        mc.cpu.icache.fetchWords = 1;
    mc.fastForward.instructions = job.fastForward;
    const auto prep = workload::prepareWorkload(w, {}, false);
    sim::Machine m(mc);
    m.load(prep->image, &prep->decoded);
    core::RunResult r;
    {
        // Spanned for named jobs only: serve.overhead_us compares them
        // with runJob on the same requests.
        Tracer::Scope sp(job.kind == JobKind::Named ? tr : nullptr,
                         "serve.direct_machine_run", j);
        r = m.run();
    }
    ServeSample out;
    out.kind = jobKindName(job.kind);
    out.reply = std::move(reply);
    out.directCycles = m.cpu().stats().cycles;
    out.directInstructions = m.cpu().stats().committed;
    out.directFastForward =
        m.fastForwarded().ran ? m.fastForwarded().issSteps : 0;
    out.directHalted = r.reason == core::StopReason::Halt;
    return out;
}

/** The jobs of round 0 whose replies the checks compare: a seeded
 *  sample of 16 named, 4 inline and 4 fast-forward jobs. */
std::vector<bool>
sampleJobs(const std::vector<ServeJob> &mix, std::uint64_t seed)
{
    std::vector<std::size_t> order(mix.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    SplitMix rng(seed ^ 0x5a3b1eu);
    shuffle(order, rng);
    std::map<JobKind, unsigned> want = {{JobKind::Named, 16},
                                        {JobKind::Inline, 4},
                                        {JobKind::FastForward, 4}};
    std::vector<bool> keep(mix.size(), false);
    for (const std::size_t j : order)
        if (want[mix[j].kind] > 0) {
            --want[mix[j].kind];
            keep[j] = true;
        }
    return keep;
}

/**
 * The serve layer's per-job figures for a traced run: direct runJob
 * calls on the sampled requests (by kind; @p lines carry inline
 * sources no earlier job used, so those calls miss the cache as served
 * inline jobs do), the matching direct Machine::run, and the queue
 * handoff estimated as the mean time to the completion callback minus
 * the mean runJob time.
 */
void
serveLayerFigures(Ctx &c, const ServeSetup &s,
                  const std::vector<std::string> &lines,
                  const std::vector<bool> &keep,
                  const std::vector<double> &toCallbackMs)
{
    const serve::ServeConfig cfg;
    std::map<JobKind, std::pair<double, unsigned>> runjob;
    for (std::size_t j = 0; j < lines.size(); ++j) {
        if (!keep[j])
            continue;
        const auto req = serve::parseJobRequest(lines[j]);
        const auto t0 = Clock::now();
        {
            auto sp = c.tracer.span("serve.runjob", j);
            serve::runJob(req, cfg);
        }
        auto &[sum, n] = runjob[s.mix[j].kind];
        sum += secondsSince(t0) * 1e6;
        ++n;
    }
    const auto mean = [&](JobKind k) {
        const auto &[sum, n] = runjob[k];
        return n ? sum / n : 0.0;
    };
    c.serve["serve.runjob_named_us"] = mean(JobKind::Named);
    c.serve["serve.runjob_inline_us"] = mean(JobKind::Inline);
    c.serve["serve.runjob_ff_us"] = mean(JobKind::FastForward);
    c.serve["serve.overhead_us"] =
        mean(JobKind::Named) - c.meanSpanUs("serve.direct_machine_run");
    // Mix-weighted: each kind's callback latency minus its runJob time.
    std::map<JobKind, std::pair<double, unsigned>> cb;
    for (std::size_t j = 0; j < toCallbackMs.size(); ++j) {
        if (toCallbackMs[j] <= 0)
            continue;
        auto &[sum, n] = cb[s.mix[j % s.mix.size()].kind];
        sum += toCallbackMs[j];
        ++n;
    }
    double wait = 0;
    unsigned jobs = 0;
    for (const auto &[k, sn] : cb) {
        wait += (sn.first / sn.second - mean(k) / 1e3) * sn.second;
        jobs += sn.second;
    }
    c.serve["serve.queue_wait_ms"] = jobs ? wait / jobs : 0.0;
    c.serve["serve.parse_us"] = c.meanSpanUs("serve.parse");
    c.serve["serve.render_us"] = c.meanSpanUs("serve.render");
}

/** Direct runs of the round-0 samples, for the checks. */
std::vector<ServeSample>
serveSamples(Tracer *tr, const ServeSetup &s,
             const std::vector<bool> &keep,
             std::vector<std::string> &replies)
{
    std::vector<ServeSample> out;
    for (std::size_t j = 0; j < keep.size(); ++j)
        if (keep[j])
            out.push_back(directRun(tr, s, j, std::move(replies[j])));
    return out;
}

// ---------------------------------------------------------------------
// Probes for the layers a workload's own loop does not reach

/** Toolchain, cache models and ISS on the workload's images. */
void
probeCommon(Ctx &c, const std::vector<Workload> &progs,
            const std::vector<reorg::ReorgConfig> &reorgs)
{
    std::vector<std::pair<const Workload *, reorg::ReorgConfig>> images;
    for (const auto &rc : reorgs)
        for (const auto &w : progs)
            images.emplace_back(&w, rc);
    for (int pass = 0; pass < 3; ++pass) {
        probeToolchain(c.tracer, images, pass);
        ++c.toolchainPasses;
    }

    std::vector<workload::PreparedPtr> prepared;
    for (const auto &w : progs)
        prepared.push_back(
            workload::PreparedCache::global().get(w, {}, false));
    c.memory = probeMemory(prepared, streamStepsPerImage);

    double steps = 0, blockSec = 0, stepSec = 0;
    for (const auto &p : prepared) {
        const IssRun b = runDelayedIss(p->image, {}, true);
        const IssRun s = runDelayedIss(p->image, {}, false);
        steps += double(b.steps);
        blockSec += b.seconds;
        stepSec += s.seconds;
    }
    c.issBlockMips = blockSec > 0 ? steps / blockSec / 1e6 : 0;
    c.issStepMips = stepSec > 0 ? steps / stepSec / 1e6 : 0;
}

/** A one-point traced sweep over @p progs (explore and stats layers). */
void
probeExplore(Ctx &c, const std::vector<Workload> &progs)
{
    explore::SweepConfig cfg;
    cfg.suite = "probe";
    cfg.runner.jobs = 1;
    std::string emitted;
    sweepByHand(c, &c.tracer, cfg, progs, 0, emitted);
}

/** One traced serve round of the mix over the full suite. */
void
probeServe(Ctx &c)
{
    ServeSetup s = setUpServe(c, c.opt.seed, serveProbeJobs);
    const auto lines = roundLines(s, 0);
    const auto keep = sampleJobs(s.mix, c.opt.seed);
    const ServeRound r =
        runServeRound(*s.server, lines, &c.tracer, 0, keep);
    auto replies = r.replies;
    serveSamples(&c.tracer, s, keep, replies);
    serveLayerFigures(c, s, roundLines(s, 1), keep, r.toCallbackMs);
}

// ---------------------------------------------------------------------
// The workloads

void
runPaperSweep(Ctx &c)
{
    const explore::SweepConfig cfg = paperSweepConfig(c.opt.seed);
    const auto reorgs = sweepReorgs(cfg);
    std::vector<Workload> suite;
    repeatSetup(c, [&] {
        {
            auto s = c.tracer.span("workload.generate");
            suite = suitePrograms(c.opt.seed);
        }
        prepareCold(c, suite, reorgs);
    });

    explore::SweepResult first;
    std::string firstEmitted;
    timedLoop(c, [&](bool traced, std::uint64_t op) {
        std::string emitted;
        explore::SweepResult r;
        if (traced) {
            r = sweepByHand(c, &c.tracer, cfg, suite, op, emitted);
        } else {
            r = explore::runSweep(cfg, suite);
            emitted = emitSweep(r);
        }
        bool ok = r.totalFailures() == 0;
        if (op == 0) {
            first = r;
            firstEmitted = emitted;
        } else if (traced && emitted != firstEmitted) {
            c.rep.errors.push_back("the traced sweep's CSV/JSON differs "
                                   "from the engine's");
            ok = false;
        }
        return OpOutcome{sweepInstructions(r), ok};
    });

    if (c.opt.doctor && !first.points.empty())
        first.points.front().stats.cycles += 1;
    c.check(checkPaperSweep(first, static_cast<unsigned>(suite.size())));

    // The sweep's own traced ops cover the Cpu; the reference pass
    // stays out of the core.* figures.
    auto mono = monoPass(c, nullptr, suite, 0);
    auto sampled = intervalPass(c, c.tr(c.opt.trace), suite, 0, true);
    attachReferences(sampled, mono);
    c.sampledErrorPct = sampledCycleErrorPct(sampled);
    if (c.opt.trace) {
        probeCommon(c, suite, reorgs);
        probeServe(c);
    }
}

/** The scaled workloads' set-up: generate and prepare cold. */
std::vector<Workload>
setUpScaled(Ctx &c)
{
    std::vector<Workload> progs;
    repeatSetup(c, [&] {
        {
            auto s = c.tracer.span("workload.generate");
            progs = scaledPrograms(c.opt.seed);
        }
        prepareCold(c, progs, {reorg::ReorgConfig{}});
    });
    return progs;
}

void
runScaledMono(Ctx &c)
{
    const std::vector<Workload> progs = setUpScaled(c);

    std::vector<MonoRecord> first;
    timedLoop(c, [&](bool traced, std::uint64_t op) {
        double instr = 0;
        auto recs = monoPass(c, c.tr(traced), progs, op, &instr);
        const bool ok = allHalted(recs);
        if (op == 0)
            first = std::move(recs);
        return OpOutcome{instr, ok};
    });

    addIssReference(first, progs);
    if (c.opt.doctor && !first.empty())
        first.front().committed += 1;
    c.check(checkMono(first));

    auto sampled = intervalPass(c, c.tr(c.opt.trace), progs, 0, true);
    attachReferences(sampled, first);
    c.sampledErrorPct = sampledCycleErrorPct(sampled);
    if (c.opt.trace) {
        probeCommon(c, progs, {reorg::ReorgConfig{}});
        probeExplore(c, progs);
        probeServe(c);
    }
}

void
runScaledSampled(Ctx &c)
{
    const std::vector<Workload> progs = setUpScaled(c);

    // Whole-program instructions come from the reference run below;
    // ops count them once it is known.
    std::vector<SampledRecord> first;
    std::uint64_t plainOps = 0, tracedOps = 0;
    timedLoop(c, [&](bool traced, std::uint64_t op) {
        auto recs = intervalPass(c, c.tr(traced), progs, op);
        const bool ok = std::all_of(
            recs.begin(), recs.end(),
            [](const SampledRecord &r) { return r.intervalRan; });
        if (op == 0)
            first = std::move(recs);
        else
            ++(traced ? tracedOps : plainOps);
        return OpOutcome{0, ok};
    });

    double instr = 0;
    auto mono = monoPass(c, c.tr(c.opt.trace), progs, 0, &instr);
    addIssReference(mono, progs);
    c.plainInstr = instr * double(plainOps);
    c.tracedInstr = instr * double(tracedOps);
    attachReferences(first, mono);
    if (c.opt.doctor && !first.empty())
        first.front().mono.committed += 1;
    c.check(checkSampled(first));
    c.sampledErrorPct = sampledCycleErrorPct(first);
    if (c.opt.trace) {
        intervalPass(c, &c.tracer, progs, 0, true);
        probeCommon(c, progs, {reorg::ReorgConfig{}});
        probeExplore(c, progs);
        probeServe(c);
    }
}

void
runServeMix(Ctx &c)
{
    ServeSetup s;
    repeatSetup(
        c, [&] { s = setUpServe(c, c.opt.seed, serveRoundJobs); },
        [&] { s.server.reset(); }); // joins the workers
    const auto keep = sampleJobs(s.mix, c.opt.seed);
    const std::vector<bool> keepNone(s.mix.size(), false);

    // Whole rounds until the timed rounds add up to the run length.
    // Between rounds (untimed) the cache is emptied and the named
    // images primed again, so every round starts from the same cache
    // and every inline job is a miss (PreparedCache never evicts).
    std::vector<std::string> round0Replies;
    std::vector<double> toCallbackMs;
    double timed = 0;
    std::uint64_t round = 0;
    for (;
         timed < c.opt.seconds || (c.opt.trace && c.tracedOps == 0);
         ++round) {
        if (round > 0)
            prepareCold(c, s.suite, {reorg::ReorgConfig{}});
        const auto lines = roundLines(s, round);
        const bool traced = c.opt.trace && round % 2 == 1;
        const CacheWindow cw;
        ServeRound r = runServeRound(*s.server, lines, c.tr(traced),
                                     round * s.mix.size(),
                                     round == 0 ? keep : keepNone);
        cw.close(c);
        double instr = 0;
        for (std::size_t j = 0; j < lines.size(); ++j) {
            ++c.rep.attempted;
            if (!r.good[j])
                ++c.rep.failed;
            instr += r.instructions[j];
        }
        if (round == 0)
            round0Replies = std::move(r.replies);
        if (traced) {
            c.tracedSec += r.seconds;
            c.tracedInstr += instr;
            ++c.tracedOps;
            toCallbackMs.insert(toCallbackMs.end(), r.toCallbackMs.begin(),
                                r.toCallbackMs.end());
        } else {
            c.plainSec += r.seconds;
            c.plainInstr += instr;
            c.roundSec.push_back(r.seconds);
            c.opMs.insert(c.opMs.end(), r.latencyMs.begin(),
                          r.latencyMs.end());
        }
        timed += r.seconds;
    }
    c.peakRssMb = peakRssMb();

    auto samples =
        serveSamples(c.tr(c.opt.trace), s, keep, round0Replies);
    if (c.opt.doctor && !samples.empty())
        samples.front().directCycles += 1;
    c.check(checkServeSamples(samples));

    auto mono = monoPass(c, c.tr(c.opt.trace), s.suite, 0);
    auto sampled = intervalPass(c, c.tr(c.opt.trace), s.suite, 0, true);
    attachReferences(sampled, mono);
    c.sampledErrorPct = sampledCycleErrorPct(sampled);
    if (c.opt.trace) {
        serveLayerFigures(c, s, roundLines(s, round), keep, toCallbackMs);
        probeCommon(c, s.suite, {reorg::ReorgConfig{}});
        probeExplore(c, s.suite);
    }
    s.server->shutdown();
}

// ---------------------------------------------------------------------
// Reporting

/**
 * Simulated instructions of one round over its 90th-percentile duration:
 * the rate nine rounds in ten reached. On a shared host the op times
 * spread with the neighbours' load; the slow rounds repeat from run to
 * run far better than the median or the mean (see README.md).
 */
double
roundMinstrPerS(const Ctx &c)
{
    if (c.roundSec.empty())
        return 0;
    const double perRound = c.plainInstr / double(c.roundSec.size());
    return perRound / percentile(c.roundSec, 0.90) / 1e6;
}

void
reportEndToEnd(Ctx &c)
{
    c.metric("setup_s", median(c.setupSec), "s");
    c.metric("sim_minstr_per_s", roundMinstrPerS(c), "Minstr/s");
    c.metric("peak_rss_mb", c.peakRssMb, "MB");
    c.metric("sampled_cycle_error_pct", c.sampledErrorPct, "%");
}

void
reportPerLayer(Ctx &c)
{
    const auto meanUs = [&](const char *name) { return c.meanSpanUs(name); };
    const auto perPass = [](double v, std::uint64_t passes) {
        return passes ? v / double(passes) : 0.0;
    };
    const double tp = double(std::max<std::uint64_t>(c.toolchainPasses, 1));
    c.metric("assembler.assemble_ms",
             c.tracer.agg("assembler.assemble").totalUs / tp / 1e3, "ms");
    c.metric("reorg.reorganize_ms",
             c.tracer.agg("reorg.reorganize").totalUs / tp / 1e3, "ms");
    c.metric("memory.predecode_ms",
             c.tracer.agg("memory.predecode").totalUs / tp / 1e3, "ms");
    c.metric("workload.generate_ms", meanUs("workload.generate") / 1e3,
             "ms");
    c.metric("workload.prepare_cold_ms",
             meanUs("workload.prepare_cold") / 1e3, "ms");

    const std::uint64_t gets = c.cache.hits + c.cache.misses;
    c.metric("workload.cache_get_us", meanUs("workload.cache_get"), "us");
    c.metric("workload.cache_hit_ratio",
             gets ? double(c.cache.hits) / double(gets) : 0, "ratio");
    c.metric("workload.cache_gets", double(gets), "count");
    c.metric("workload.cache_entries", double(c.cache.maxEntries),
             "count");
    c.metric("sim.machine_setup_us", meanUs("sim.machine_setup"), "us");

    c.metric("sim.machine_run_ms", meanUs("sim.machine_run") / 1e3, "ms");
    c.metric("core.minstr_per_s",
             c.core.runSec > 0 ? c.core.instr / c.core.runSec / 1e6 : 0,
             "Minstr/s");
    c.metric("core.ns_per_cycle",
             c.core.cycles > 0 ? c.core.runSec * 1e9 / c.core.cycles : 0,
             "ns");
    c.metric("core.cycles", perPass(c.core.cycles, c.core.passes),
             "count");
    c.metric("core.instructions", perPass(c.core.instr, c.core.passes),
             "count");
    c.metric("core.stall_cycle_share",
             c.core.cycles > 0 ? c.core.stalls / c.core.cycles : 0,
             "ratio");

    c.metric("memory.icache_mfetch_per_s", c.memory.icache.mAccessPerS,
             "Mfetch/s");
    c.metric("memory.icache_miss_ratio", c.memory.icache.missRatio,
             "ratio");
    c.metric("memory.icache_fetches", double(c.memory.icache.accesses),
             "count");
    c.metric("memory.ecache_maccess_per_s", c.memory.ecache.mAccessPerS,
             "Maccess/s");
    c.metric("memory.ecache_miss_ratio", c.memory.ecache.missRatio,
             "ratio");
    c.metric("memory.ecache_accesses", double(c.memory.ecache.accesses),
             "count");

    c.metric("sim.iss_block_minstr_per_s", c.issBlockMips, "Minstr/s");
    c.metric("sim.iss_step_minstr_per_s", c.issStepMips, "Minstr/s");
    c.metric("sim.interval_run_ms", meanUs("sim.interval_run") / 1e3,
             "ms");
    c.metric("sim.interval_pieces",
             perPass(c.interval.pieces, c.interval.passes), "count");
    c.metric("sim.interval_plan_iss_instr",
             perPass(c.interval.planIss, c.interval.passes), "count");
    c.metric("sim.interval_ca_instr",
             perPass(c.interval.caInstr, c.interval.passes), "count");
    c.metric("sim.checkpoint_clone_ms",
             perPass(c.interval.cloneSec * 1e3, c.interval.stagePasses),
             "ms");
    c.metric("sim.interval_iss_share",
             c.interval.stageRunSec > 0
                 ? c.interval.issSec / c.interval.stageRunSec
                 : 0,
             "ratio");

    c.metric("explore.point_ms", meanUs("explore.point") / 1e3, "ms");
    c.metric("explore.emit_ms", meanUs("explore.emit") / 1e3, "ms");
    c.metric("stats.collect_us", meanUs("stats.collect"), "us");

    for (const char *name :
         {"serve.parse_us", "serve.runjob_named_us", "serve.runjob_inline_us",
          "serve.runjob_ff_us", "serve.overhead_us", "serve.render_us"})
        c.metric(name, c.serve[name], "us");
    c.metric("serve.queue_wait_ms", c.serve["serve.queue_wait_ms"], "ms");

    // The untraced ops' median, tail and mean, reported here rather
    // than gated with the end-to-end metrics (see roundMinstrPerS).
    c.metric("run.op_p50_ms", median(c.opMs), "ms");
    c.metric("run.op_p99_ms", percentile(c.opMs, 0.99), "ms");
    const double plain = c.plainSec > 0 ? c.plainInstr / c.plainSec : 0;
    c.metric("run.mean_minstr_per_s", plain / 1e6, "Minstr/s");
    const double traced = c.tracedSec > 0 ? c.tracedInstr / c.tracedSec : 0;
    c.metric("trace.sim_minstr_per_s", traced / 1e6, "Minstr/s");
    c.metric("trace.overhead_pct",
             plain > 0 ? 100.0 * (1.0 - traced / plain) : 0, "%");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "scaled_mono", "scaled_sampled", "serve_mix"};
    return names;
}

Report
runBenchmark(const Options &opt)
{
    static const std::map<std::string, void (*)(Ctx &)> table = {
        {"paper_sweep", runPaperSweep},
        {"scaled_mono", runScaledMono},
        {"scaled_sampled", runScaledSampled},
        {"serve_mix", runServeMix},
    };
    const auto it = table.find(opt.workload);
    if (it == table.end())
        fatal(strformat("unknown workload '%s'", opt.workload.c_str()));
    Ctx c(opt);
    it->second(c);
    if (!c.opMs.empty())
        std::fprintf(stderr,
                     "op ms over %zu untraced ops: p10 %.4f p25 %.4f p50 "
                     "%.4f p75 %.4f p90 %.4f p99 %.4f\n",
                     c.opMs.size(), percentile(c.opMs, 0.10),
                     percentile(c.opMs, 0.25), percentile(c.opMs, 0.50),
                     percentile(c.opMs, 0.75), percentile(c.opMs, 0.90),
                     percentile(c.opMs, 0.99));
    if (!c.roundSec.empty())
        std::fprintf(stderr,
                     "round s over %zu rounds: p10 %.4f p50 %.4f p75 %.4f "
                     "p90 %.4f max %.4f\n",
                     c.roundSec.size(), percentile(c.roundSec, 0.10),
                     percentile(c.roundSec, 0.50),
                     percentile(c.roundSec, 0.75),
                     percentile(c.roundSec, 0.90),
                     percentile(c.roundSec, 1.0));
    if (c.rep.attempted == 0)
        c.rep.errors.push_back("no operation ran");
    if (opt.trace) {
        reportPerLayer(c);
        std::fprintf(stderr, "%-36s %9s %12s %12s\n", "span", "count",
                     "total ms", "self ms");
        for (const auto &[name, a] : c.tracer.aggregate())
            std::fprintf(stderr, "%-36s %9llu %12.3f %12.3f\n",
                         name.c_str(),
                         static_cast<unsigned long long>(a.count),
                         a.totalUs / 1e3, a.selfUs / 1e3);
        if (!opt.traceFile.empty() &&
            !c.tracer.writeChromeTrace(opt.traceFile))
            c.rep.errors.push_back("cannot write " + opt.traceFile);
    } else {
        reportEndToEnd(c);
    }
    c.rep.correct = c.rep.errors.empty();
    return std::move(c.rep);
}

} // namespace simbench
