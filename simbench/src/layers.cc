#include "layers.hh"

#include <memory>

#include "assembler/assembler.hh"
#include "coproc/counter_cop.hh"
#include "coproc/fpu.hh"
#include "isa/decode.hh"
#include "memory/ecache.hh"
#include "memory/icache.hh"

namespace simbench
{

using namespace mipsx;

void
probeToolchain(
    Tracer &tr,
    const std::vector<std::pair<const workload::Workload *,
                                reorg::ReorgConfig>> &images,
    std::uint64_t op)
{
    for (const auto &[w, rc] : images) {
        assembler::Program prog;
        {
            auto s = tr.span("assembler.assemble", op);
            prog = assembler::assemble(w->source, w->name + ".s");
        }
        assembler::Program image;
        {
            auto s = tr.span("reorg.reorganize", op);
            image = reorg::reorganize(prog, rc);
        }
        auto s = tr.span("memory.predecode", op);
        const auto snap = memory::DecodedImage::snapshotProgram(image);
        (void)snap;
    }
}

namespace
{

struct Streams
{
    std::vector<addr_t> pcs;
    std::vector<std::pair<std::uint64_t, bool>> data; ///< key, is_write
};

void
recordStreams(const assembler::Program &image, std::uint64_t maxSteps,
              Streams &out)
{
    memory::MainMemory mem;
    mem.loadProgram(image);
    sim::IssConfig cfg;
    cfg.mode = sim::IssMode::Delayed;
    if (image.entrySpace == AddressSpace::System)
        cfg.initialPsw |= isa::psw_bits::mode;
    sim::Iss iss(cfg, mem);
    iss.attachCoprocessor(1, std::make_unique<coproc::Fpu>());
    iss.attachCoprocessor(2, std::make_unique<coproc::CounterCop>());
    iss.reset(image.entry);
    iss.setGpr(isa::reg::sp, sim::MachineConfig{}.stackTop);
    const AddressSpace space = image.entrySpace;
    for (std::uint64_t n = 0; n < maxSteps && !iss.stopped(); ++n) {
        const addr_t pc = iss.pc();
        out.pcs.push_back(pc);
        const isa::Instruction in = isa::decode(mem.read(space, pc));
        if (in.accessesMemory() && !in.isCoproc() && !iss.nextIsSquashed()) {
            const auto addr = static_cast<addr_t>(
                static_cast<std::int64_t>(iss.gpr(in.rs1)) + in.imm);
            out.data.emplace_back(memory::physKey(space, addr),
                                  in.isStore());
        }
        iss.step();
    }
}

/** Three timed passes over a stream on fresh models; median rate. */
template <typename Model, typename Stream, typename Access>
CacheProbe
replay(const Stream &stream, Access access)
{
    CacheProbe p;
    p.accesses = stream.size();
    std::vector<double> rates;
    for (int pass = 0; pass < 3; ++pass) {
        Model model;
        const auto t0 = Clock::now();
        for (const auto &e : stream)
            access(model, e);
        const double dt = secondsSince(t0);
        if (pass == 0)
            p.missRatio = model.missRatio();
        rates.push_back(dt > 0 ? double(stream.size()) / dt / 1e6 : 0);
    }
    p.mAccessPerS = median(rates);
    return p;
}

} // namespace

MemoryProbe
probeMemory(const std::vector<workload::PreparedPtr> &images,
            std::uint64_t maxSteps)
{
    Streams s;
    for (const auto &img : images)
        recordStreams(img->image, maxSteps, s);
    MemoryProbe p;
    p.icache = replay<memory::ICache>(s.pcs, [](memory::ICache &c,
                                                addr_t pc) {
        c.fetch(AddressSpace::User, pc);
    });
    p.ecache = replay<memory::ECache>(
        s.data,
        [](memory::ECache &c, const std::pair<std::uint64_t, bool> &e) {
            c.access(e.first, e.second);
        });
    return p;
}

IssRun
runDelayedIss(const assembler::Program &image, const sim::MachineConfig &mc,
              bool block)
{
    sim::IssConfig cfg;
    cfg.mode = sim::IssMode::Delayed;
    cfg.branchDelay = mc.cpu.branchDelay;
    cfg.maxSteps = mc.cpu.maxCycles;
    cfg.exec = block ? sim::IssExec::Block : sim::IssExec::Step;
    IssRun out;
    const auto t0 = Clock::now();
    const auto r = sim::runIss(image, out.memory, cfg, mc.stackTop);
    out.seconds = secondsSince(t0);
    out.stop = r.reason;
    out.steps = r.stats.steps;
    return out;
}

} // namespace simbench
