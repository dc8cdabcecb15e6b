/**
 * @file
 * The per-cell host-time ledger. Each replayed cell is timed by a
 * chain of clock readings: every reading closes the interval since the
 * previous one and charges it to exactly one bucket — a layer when the
 * interval spans one public layer call, `other` for the benchmark's
 * own bookkeeping between calls. The buckets therefore partition the
 * cell span: sum(buckets) == span holds by construction, as PcProfile's
 * per-PC cycles sum to its total. What is checked per cell is the
 * chain against a reading it does not make itself: a steady_clock span
 * the caller takes around the whole replay. The ledger must cover it
 * to within kLedgerSlackMicros, so no replayed work escapes the layers.
 *
 * compileUnit parses the runtime library and the user source itself,
 * so its parse share cannot be read from outside. It is estimated by a
 * readAll of the same four sources just before the cell span opens,
 * and moved from the compile bucket to the parse bucket (never more
 * than the compile interval, so the sum is unchanged).
 */

#include <atomic>
#include <cstdio>

#include "analysis/verify.h"
#include "bench.h"
#include "bench_export.h"
#include "compiler/unit.h"
#include "exec/texec.h"
#include "runtime/lisplib.h"
#include "runtime/syslisp.h"
#include "sexpr/reader.h"
#include "support/format.h"
#include "support/panic.h"

namespace perfbench {

using namespace mxl;

Memory
materialize(const CompiledUnit &unit)
{
    Memory full(unit.layout.memBytes);
    const uint32_t live = unit.memory.size() / 4;
    for (uint32_t i = 0; i < live; ++i)
        full.word(i) = unit.memory.word(i);
    return full;
}

void
LedgerTotals::add(const LedgerTotals &o)
{
    cells += o.cells;
    for (int l = 0; l < kLayers; ++l)
        micros[l] += o.micros[l];
    cellMicros += o.cellMicros;
    execMicrosTrans += o.execMicrosTrans;
    execMicrosInterp += o.execMicrosInterp;
    cyclesTrans += o.cyclesTrans;
    cyclesInterp += o.cyclesInterp;
    cellsTrans += o.cellsTrans;
    cellsInterp += o.cellsInterp;
    simCycles += o.simCycles;
    instructions += o.instructions;
    compiles += o.compiles;
    codeInsts += o.codeInsts;
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    liveShareSum += o.liveShareSum;
    overheadMs.insert(overheadMs.end(), o.overheadMs.begin(),
                      o.overheadMs.end());
    for (const auto &[note, n] : o.fallbackNotes)
        fallbackNotes[note] += n;
}

namespace {

/** Allowed gap between the caller's span and the ledger: the clock
 *  readings and trace calls at either end of the chain. */
constexpr uint64_t kLedgerSlackMicros = 1000;

const char *
layerName(Layer l)
{
    switch (l) {
      case kParse: return "parse";
      case kCompile: return "compile";
      case kTranslate: return "translate";
      case kPlace: return "place";
      case kVerify: return "verify";
      case kImage: return "image";
      case kExecute: return "execute";
      case kOther: return "other";
      case kLayers: break;
    }
    return "?";
}

/** The engine's cache keeps only the live prefix of an image. */
Memory
trimToLivePrefix(const Memory &full)
{
    uint32_t live = full.size() / 4;
    while (live > 0 && full.word(live - 1) == 0)
        --live;
    Memory t(live * 4);
    for (uint32_t i = 0; i < live; ++i)
        t.word(i) = full.word(i);
    return t;
}

/** The clock-reading chain of one cell (see the file comment). */
struct Chain
{
    TraceRecorder *tr;
    int tid;
    const std::string &label;
    const std::string &traceId;
    uint64_t start = 0;
    uint64_t last = 0;
    uint64_t us[kLayers] = {};

    void
    begin()
    {
        start = last = tr->nowMicros();
    }

    /** Charge the interval since the last reading to @p l. */
    uint64_t
    mark(Layer l)
    {
        const uint64_t now = tr->nowMicros();
        const uint64_t d = now - last;
        us[l] += d;
        if (l != kOther && d > 0)
            tr->complete(layerName(l), "perfbench/ledger", tid, last, d,
                         label, traceId);
        last = now;
        return d;
    }
};

/** Replays cells (see replayCells); one instance serves all threads. */
class Replayer
{
  public:
    explicit Replayer(TraceRecorder *trace) : trace_(trace) {}

    /** Run @p req on @p engine, replay it, add its ledger to @p totals
     *  (one LedgerTotals per thread). */
    void cell(Engine &engine, const RunRequest &req, int tid,
              LedgerTotals *totals, Result *result);

  private:
    struct Unit
    {
        std::shared_ptr<const CompiledUnit> unit; ///< trimmed
        std::shared_ptr<const TranslatedUnit> trans;
    };
    bool lookup(const std::string &key, Unit *out);
    void store(const std::string &key, const Unit &u);

    TraceRecorder *trace_;
    std::atomic<uint64_t> cellSeq_{0}; ///< trace ids
    std::mutex mu_;
    std::map<std::string, Unit> cache_;
};

bool
Replayer::lookup(const std::string &key, Unit *out)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end())
        return false;
    *out = it->second;
    return true;
}

void
Replayer::store(const std::string &key, const Unit &u)
{
    std::lock_guard<std::mutex> lk(mu_);
    cache_.emplace(key, u);
}

void
Replayer::cell(Engine &engine, const RunRequest &req, int tid,
               LedgerTotals *totals, Result *result)
{
    const std::string traceId = strcat("cell", cellSeq_.fetch_add(1));

    // The engine path, timed from outside.
    const uint64_t e0 = trace_->nowMicros();
    RunReport rep = engine.run(req);
    const uint64_t engineMicros = trace_->nowMicros() - e0;
    trace_->complete("engine.run", "perfbench/engine", tid, e0,
                     engineMicros, req.label, traceId);
    if (!rep.ok()) {
        result->mismatch(strcat(req.label, ": engine run failed: ",
                                rep.status.message));
        return;
    }

    const Backend want = req.exec.backend;
    const std::string key = Engine::cacheKey(req.source, req.opts, want);
    Unit u;
    const bool have = lookup(key, &u);
    const bool compileInSpan = !rep.cacheHit;

    auto compileFresh = [&](Chain *chain) {
        auto unit = std::make_shared<CompiledUnit>(
            compileUnit(req.source, req.opts));
        if (chain)
            chain->mark(kCompile);
        Unit fresh;
        if (want != Backend::Interpreter) {
            fresh.trans = translateUnit(*unit).unit;
            if (chain)
                chain->mark(kTranslate);
        }
        totals->compiles++;
        totals->codeInsts += unit->prog.code.size();
        unit->memory = trimToLivePrefix(unit->memory);
        if (chain)
            chain->mark(kImage);
        fresh.unit = std::move(unit);
        return fresh;
    };

    try {
        uint64_t parseMicros = 0;
        if (compileInSpan) {
            // Estimate compileUnit's own parse (see the file comment).
            SxArena arena;
            const uint64_t p0 = trace_->nowMicros();
            readAll(arena, lispLibSource());
            readAll(arena, gcSource());
            readAll(arena, genericArithSource());
            readAll(arena, req.source);
            parseMicros = trace_->nowMicros() - p0;
        } else if (!have) {
            // The engine compiled this cell before the replay began:
            // warm the replay's cache outside the span, as the engine's
            // was.
            u = compileFresh(nullptr);
            store(key, u);
        }

        const Clock::time_point outer0 = Clock::now();
        Chain chain{trace_, tid, req.label, traceId};
        chain.begin();
        if (compileInSpan) {
            u = compileFresh(&chain);
            store(key, u);
            const uint64_t parse =
                std::min(parseMicros, chain.us[kCompile]);
            chain.us[kCompile] -= parse;
            chain.us[kParse] += parse;
            totals->cacheMisses++;
        } else {
            totals->cacheHits++;
        }

        const bool useTrans = want != Backend::Interpreter &&
                              !req.hooks.needsInterpreter() && u.trans;
        std::shared_ptr<const CompiledUnit> unit = u.unit;
        if (req.hooks.unitTransform) {
            chain.mark(kOther);
            unit = req.hooks.unitTransform(unit);
            chain.mark(kPlace);
            if (!unit)
                fatal("unitTransform returned a null unit");
            if (req.hooks.verifyTransformed && unit != u.unit) {
                VerifyResult ver = verifyUnit(*unit);
                chain.mark(kVerify);
                if (!ver.ok())
                    result->mismatch(strcat(req.label,
                                            ": verifier rejects the "
                                            "transformed unit"));
            }
        }
        chain.mark(kOther);
        Memory image = materialize(*unit);
        chain.mark(kImage);
        if (req.hooks.imageMutator)
            req.hooks.imageMutator(image, *unit);

        RunResult rr;
        if (useTrans) {
            TranslatedControls controls;
            controls.maxCycles = req.exec.maxCycles;
            controls.deadlineSeconds = req.exec.deadlineSeconds;
            controls.installTrapHandlers = req.exec.installTrapHandlers;
            chain.mark(kOther);
            rr = runTranslated(*unit, *u.trans, std::move(image), controls);
        } else {
            RunControls controls;
            controls.maxCycles = req.exec.maxCycles;
            controls.deadlineSeconds = req.exec.deadlineSeconds;
            controls.installUnitTrapHandlers = req.exec.installTrapHandlers;
            controls.machineSetup = req.hooks.machineSetup;
            controls.pauseAtCycle = req.hooks.pauseAtCycle;
            controls.snapshotHook = req.hooks.snapshotHook;
            controls.collectProfile = req.hooks.collectProfile;
            chain.mark(kOther);
            rr = runUnitOn(*unit, std::move(image), controls);
        }
        const uint64_t execMicros = chain.mark(kExecute);
        const uint64_t outer = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - outer0)
                .count());
        const uint64_t span = chain.last - chain.start;
        trace_->complete("cell", "perfbench/ledger", tid, chain.start, span,
                         req.label, traceId);

        uint64_t sum = 0, layers = 0;
        for (int l = 0; l < kLayers; ++l) {
            sum += chain.us[l];
            if (l != kOther)
                layers += chain.us[l];
        }
        // The two clocks truncate to microseconds independently.
        if (sum > outer + 2 || outer > sum + kLedgerSlackMicros)
            result->mismatch(strcat(req.label, ": ledger sums to ", sum,
                                    "us, the caller's span is ", outer,
                                    "us"));
        if (rr.stats.total != rep.result.stats.total ||
            rr.stats.instructions != rep.result.stats.instructions ||
            rr.output != rep.result.output || rr.stop != rep.result.stop)
            result->mismatch(strcat(req.label, ": replay ran ",
                                    rr.stats.total, " cycles, engine ",
                                    rep.result.stats.total));
        if (useTrans != (rep.backend == Backend::Translated))
            result->mismatch(strcat(req.label, ": replay backend differs"));

        totals->cells++;
        for (int l = 0; l < kLayers; ++l)
            totals->micros[l] += chain.us[l];
        totals->cellMicros += span;
        (useTrans ? totals->execMicrosTrans : totals->execMicrosInterp) +=
            execMicros;
        (useTrans ? totals->cyclesTrans : totals->cyclesInterp) +=
            rr.stats.total;
        (useTrans ? totals->cellsTrans : totals->cellsInterp)++;
        totals->simCycles += rr.stats.total;
        totals->instructions += rr.stats.instructions;
        totals->liveShareSum +=
            static_cast<double>(unit->memory.size()) / unit->layout.memBytes;
        totals->overheadMs.push_back(
            (static_cast<double>(engineMicros) - layers) / 1e3);
        if (rep.backendFellBack)
            totals->fallbackNotes[rep.backendNote]++;
    } catch (const std::exception &e) {
        result->mismatch(strcat(req.label, ": replay threw: ", e.what()));
    }
}

/** Set the ledger's per-layer metrics from @p t. */
void
ledgerMetrics(const LedgerTotals &t, Result *r)
{
    const double cells = t.cells ? static_cast<double>(t.cells) : 1.0;
    auto perCellMs = [&](Layer l) { return t.micros[l] / 1e3 / cells; };
    r->set("sexpr.parse_ms", perCellMs(kParse));
    r->set("compiler.compile_ms", perCellMs(kCompile));
    r->set("compiler.code_insts",
           t.compiles ? static_cast<double>(t.codeInsts) / t.compiles : 0);
    r->set("exec.translate_ms", perCellMs(kTranslate));
    r->set("analysis.place_ms", perCellMs(kPlace));
    r->set("analysis.verify_ms", perCellMs(kVerify));
    r->set("image.materialize_ms", perCellMs(kImage));
    r->set("image.live_share", t.liveShareSum / cells);
    r->set("exec.run_ms",
           t.cellsTrans ? t.execMicrosTrans / 1e3 / t.cellsTrans : 0);
    r->set("exec.mcycles_per_s",
           t.execMicrosTrans
               ? static_cast<double>(t.cyclesTrans) / t.execMicrosTrans
               : 0);
    r->set("machine.run_ms",
           t.cellsInterp ? t.execMicrosInterp / 1e3 / t.cellsInterp : 0);
    r->set("machine.mcycles_per_s",
           t.execMicrosInterp
               ? static_cast<double>(t.cyclesInterp) / t.execMicrosInterp
               : 0);
    r->set("ledger.other_ms", perCellMs(kOther));
    r->set("ledger.cell_ms", t.cellMicros / 1e3 / cells);
    r->set("ledger.cells", static_cast<double>(t.cells));
    r->set("engine.overhead_ms", median(t.overheadMs));
    r->set("count.sim_cycles", static_cast<double>(t.simCycles));
    r->set("count.instructions", static_cast<double>(t.instructions));
    r->set("count.cache_hits", static_cast<double>(t.cacheHits));
    r->set("count.cache_misses", static_cast<double>(t.cacheMisses));
}

} // namespace

LedgerTotals
replayCells(Engine &engine, const std::vector<RunRequest> &cells,
            unsigned threads, TraceRecorder *trace, Result *r)
{
    Replayer replayer(trace);
    std::vector<LedgerTotals> per(threads);
    parallelFor(cells.size(), threads, [&](unsigned t, size_t i) {
        // Ledger spans go on their own tracks, clear of the engine's
        // (0 inline, 1..N workers).
        replayer.cell(engine, cells[i], 100 + static_cast<int>(t), &per[t],
                      r);
    });
    LedgerTotals all;
    for (const LedgerTotals &t : per)
        all.add(t);
    ledgerMetrics(all, r);
    return all;
}

void
finishTraced(const std::string &workload, const Args &a,
             const LedgerTotals &ledger, const Json &extra,
             const TraceRecorder &trace, Result *r)
{
    const CpuTimes cpu = cpuTimes();
    r->set("proc.user_s", cpu.user);
    r->set("proc.sys_s", cpu.sys);

    Json notes = Json::object();
    for (const auto &[note, n] : ledger.fallbackNotes) {
        std::printf("interpreter fallback x%llu: %s\n",
                    static_cast<unsigned long long>(n), note.c_str());
        notes.set(note, n);
    }
    Json doc = Json::object();
    doc.set("workload", workload);
    doc.set("seed", a.seed);
    doc.set("fallbackNotes", std::move(notes));
    for (size_t i = 0; i < extra.size(); ++i)
        doc.set(extra.entry(i).first, extra.entry(i).second);
    if (!writeBenchJson("perfbench_" + workload, doc) ||
        !writeBenchTrace("perfbench_" + workload, trace))
        r->mismatch("cannot write the run's details or trace");
}

} // namespace perfbench
