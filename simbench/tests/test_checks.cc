/**
 * @file
 * The benchmark's checks must pass on real simulator output and reject
 * a doctored copy of it: one cycle, one instruction or one reply field
 * changed.
 */

#include <gtest/gtest.h>

#include <string>

#include "checks.hh"
#include "common/sim_error.hh"
#include "explore/explore.hh"
#include "serve/serve.hh"
#include "sim/machine.hh"
#include "workload/prepared.hh"
#include "workload/workload.hh"

using namespace simbench;
using namespace mipsx;

namespace
{

/** The paper sweep's grid over a three-program slice of the suite. */
explore::SweepResult
smallPaperSweep()
{
    explore::SweepConfig cfg;
    cfg.grid.axes = {
        {"branch.scheme", {"no-squash", "squash-optional"}},
        {"branch.slots", {"1", "2"}},
        {"icache.missPenalty", {"2", "3"}},
        {"icache.fetchWords", {"1", "2"}},
    };
    cfg.runner.jobs = 1;
    auto suite = workload::fullSuite();
    suite.resize(3);
    return explore::runSweep(cfg, suite);
}

explore::SweepPointResult &
pointAt(explore::SweepResult &r, const char *scheme, const char *slots,
        const char *penalty, const char *fetch)
{
    for (auto &p : r.points)
        if (*p.point.valueOf("branch.scheme") == scheme &&
            *p.point.valueOf("branch.slots") == slots &&
            *p.point.valueOf("icache.missPenalty") == penalty &&
            *p.point.valueOf("icache.fetchWords") == fetch)
            return p;
    throw SimError("no such point");
}

} // namespace

TEST(PaperSweepCheck, PassesOnARealSweep)
{
    const auto r = smallPaperSweep();
    EXPECT_TRUE(checkPaperSweep(r, 3).empty());
}

TEST(PaperSweepCheck, RejectsOneExtraCycle)
{
    auto r = smallPaperSweep();
    pointAt(r, "squash-optional", "2", "3", "1").stats.cycles += 1;
    EXPECT_FALSE(checkPaperSweep(r, 3).empty());
}

TEST(PaperSweepCheck, RejectsCommittedDriftAcrossICacheSettings)
{
    auto r = smallPaperSweep();
    pointAt(r, "no-squash", "1", "2", "2").stats.committed += 1;
    EXPECT_FALSE(checkPaperSweep(r, 3).empty());
}

TEST(PaperSweepCheck, RejectsMissDriftAcrossPenalties)
{
    auto r = smallPaperSweep();
    pointAt(r, "no-squash", "2", "3", "2").stats.icacheMisses += 1;
    EXPECT_FALSE(checkPaperSweep(r, 3).empty());
}

TEST(PaperSweepCheck, RejectsAFailedProgramOrAMissingPoint)
{
    auto r = smallPaperSweep();
    r.points.front().stats.failures = 1;
    EXPECT_FALSE(checkPaperSweep(r, 3).empty());
    auto s = smallPaperSweep();
    EXPECT_FALSE(checkPaperSweep(s, 4).empty()); // a program missing
    s.points.pop_back();
    EXPECT_FALSE(checkPaperSweep(s, 3).empty());
}

namespace
{

/** A real monolithic run of a small scaled program plus its ISS run. */
MonoRecord
realMonoRecord()
{
    const auto w = workload::scaledLoopNest("small_loopnest", 1u << 10, 1, 7);
    const auto prep = workload::prepareWorkload(w, {}, false);
    sim::Machine m;
    m.load(prep->image, &prep->decoded);
    const auto r = m.run();
    MonoRecord rec;
    rec.name = w.name;
    rec.reason = r.reason;
    rec.committed = m.cpu().stats().committed;
    rec.cycles = m.cpu().stats().cycles;
    rec.result = m.readSymbol("result");
    rec.expected = m.readSymbol("exp");
    memory::MainMemory mem;
    sim::IssConfig ic;
    ic.mode = sim::IssMode::Delayed;
    ic.exec = sim::IssExec::Block;
    const auto iss = sim::runIss(prep->image, mem, ic);
    rec.issStop = iss.reason;
    rec.issSteps = iss.stats.steps;
    return rec;
}

} // namespace

TEST(MonoCheck, PassesOnARealRun)
{
    EXPECT_TRUE(checkMono({realMonoRecord()}).empty());
}

TEST(MonoCheck, RejectsDoctoredRuns)
{
    auto rec = realMonoRecord();
    rec.committed += 1;
    EXPECT_FALSE(checkMono({rec}).empty());
    rec = realMonoRecord();
    rec.result ^= 1;
    EXPECT_FALSE(checkMono({rec}).empty());
    rec = realMonoRecord();
    rec.reason = core::StopReason::Fail;
    EXPECT_FALSE(checkMono({rec}).empty());
    EXPECT_FALSE(checkMono({}).empty());
}

namespace
{

SampledRecord
sampledRecord()
{
    SampledRecord s;
    s.name = "p";
    s.intervalRan = true;
    s.pieces = 12;
    s.mono = realMonoRecord();
    s.hint = s.mono.committed + 4;
    s.estCommitted = s.hint;
    s.estCycles = s.mono.cycles + s.mono.cycles / 10;
    return s;
}

} // namespace

TEST(SampledCheck, AcceptsTheHintsSlackOnly)
{
    auto s = sampledRecord();
    EXPECT_TRUE(checkSampled({s}).empty());
    s.estCommitted = s.mono.committed + 4 + 12 + 1;
    EXPECT_FALSE(checkSampled({s}).empty());
}

TEST(SampledCheck, RejectsAnUnsplitRunOrABadReference)
{
    auto s = sampledRecord();
    s.pieces = 1;
    EXPECT_FALSE(checkSampled({s}).empty());
    s = sampledRecord();
    s.mono.committed += 1;
    EXPECT_FALSE(checkSampled({s}).empty());
}

TEST(SampledCheck, ErrorIsTheMeanRelativeCycleError)
{
    SampledRecord a, b;
    a.mono.cycles = 1000;
    a.estCycles = 1100; // +10%
    b.mono.cycles = 2000;
    b.estCycles = 1900; // -5%
    EXPECT_DOUBLE_EQ(sampledCycleErrorPct({a, b}), 7.5);
}

namespace
{

/** A served named job with a binding, beside a direct run of it. */
ServeSample
realServeSample(std::uint64_t fastForward)
{
    const auto suite = workload::fullSuite();
    serve::JobRequest req;
    req.op = serve::Op::Run;
    req.id = "t";
    req.workload = suite.front().name;
    req.config.emplace_back("icache.fetchWords", "1");
    req.fastForward = fastForward;
    const serve::ServeConfig cfg;
    const auto out = serve::runJob(req, cfg);

    sim::MachineConfig mc;
    mc.attachCounterCop = true;
    mc.cpu.maxCycles = cfg.maxCycles;
    mc.cpu.icache.fetchWords = 1;
    mc.fastForward.instructions = fastForward;
    const auto prep = workload::prepareWorkload(suite.front(), {}, false);
    sim::Machine m(mc);
    m.load(prep->image, &prep->decoded);
    const auto r = m.run();

    ServeSample s;
    s.kind = fastForward ? "fast_forward" : "named";
    s.reply = serve::formatReply(req.id, 0, out);
    s.directCycles = m.cpu().stats().cycles;
    s.directInstructions = m.cpu().stats().committed;
    s.directFastForward =
        m.fastForwarded().ran ? m.fastForwarded().issSteps : 0;
    s.directHalted = r.reason == core::StopReason::Halt;
    return s;
}

/** Replace the first occurrence of @p from in @p s. */
std::string
replaced(std::string s, const std::string &from, const std::string &to)
{
    const auto pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        s.replace(pos, from.size(), to);
    return s;
}

} // namespace

TEST(ServeCheck, PassesOnRealReplies)
{
    EXPECT_TRUE(checkServeSamples({realServeSample(0)}).empty());
    EXPECT_TRUE(checkServeSamples({realServeSample(300)}).empty());
}

TEST(ServeCheck, RejectsAChangedReplyField)
{
    auto s = realServeSample(0);
    const std::string cyc = strformat(
        "\"cycles\":%llu", static_cast<unsigned long long>(s.directCycles));
    const std::string cyc1 =
        strformat("\"cycles\":%llu",
                  static_cast<unsigned long long>(s.directCycles + 1));
    auto t = s;
    t.reply = replaced(s.reply, cyc, cyc1);
    EXPECT_FALSE(checkServeSamples({t}).empty());
    t = s;
    t.reply = replaced(s.reply, "\"passed\":true", "\"passed\":false");
    EXPECT_FALSE(checkServeSamples({t}).empty());
    t = s;
    t.reply = replaced(s.reply, "\"stop\":\"halt\"", "\"stop\":\"fail\"");
    EXPECT_FALSE(checkServeSamples({t}).empty());
    t = s;
    t.reply = replaced(s.reply, "\"ok\":true", "\"ok\":false");
    EXPECT_FALSE(checkServeSamples({t}).empty());
    t = s;
    t.reply = s.reply.substr(0, s.reply.size() / 2);
    EXPECT_FALSE(checkServeSamples({t}).empty());
}

TEST(ServeCheck, RejectsADifferentDirectRun)
{
    auto s = realServeSample(0);
    s.directCycles += 1;
    EXPECT_FALSE(checkServeSamples({s}).empty());
    s = realServeSample(300);
    s.directFastForward += 1;
    EXPECT_FALSE(checkServeSamples({s}).empty());
    s = realServeSample(0);
    s.directFastForward = 300; // the reply has no fast-forward phase
    EXPECT_FALSE(checkServeSamples({s}).empty());
    EXPECT_FALSE(checkServeSamples({}).empty());
}
