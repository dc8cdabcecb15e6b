/**
 * The translated backend's equivalence contract (src/exec/): for every
 * benchmark program, under every Table 2 hardware configuration and
 * both checking levels, the threaded executor must be byte-identical
 * to the reference interpreter — CycleStats, output, stop reason,
 * error code, exit value, fault index, and GC cells. On top of the
 * differential matrix this suite pins the trap paths (the software
 * Addt/Subt overflow fallback, handled and unhandled), cycle-limit
 * stops, the run-time seams (pause into a snapshot and resume from
 * one, the per-PC profile) against the interpreter's, the Engine's
 * two-tier Auto policy (backend stamping, the fallback counters), and
 * the translator's refusal diagnostics.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/run.h"
#include "exec/texec.h"
#include "faults/fault_injector.h"
#include "machine/snapshot.h"
#include "programs/programs.h"
#include "support/panic.h"

using namespace mxl;

namespace {

const char *const kLoop =
    "(de tri (n) (if (lessp n 1) 0 (+ n (tri (sub1 n)))))"
    "(print (tri 40))";

RunRequest
request(const char *source, Checking checking)
{
    RunRequest req;
    req.source = source;
    req.opts = baselineOptions(checking);
    return req;
}

/**
 * Field-by-field comparison of the two backends' results. Everything
 * both backends define is compared; the seam-only fields (profile,
 * snapshotTaken, timedOut) are owned by the caller's expectations.
 */
::testing::AssertionResult
sameResult(const RunResult &a, const RunResult &b)
{
    static_assert(std::is_trivially_copyable_v<CycleStats>);
    if (std::memcmp(&a.stats, &b.stats, sizeof(CycleStats)) != 0)
        return ::testing::AssertionFailure()
               << "CycleStats differ: total " << a.stats.total << " vs "
               << b.stats.total << ", instructions "
               << a.stats.instructions << " vs " << b.stats.instructions;
    if (a.output != b.output)
        return ::testing::AssertionFailure()
               << "output differs (" << a.output.size() << " vs "
               << b.output.size() << " bytes)";
    if (a.stop != b.stop)
        return ::testing::AssertionFailure()
               << "stop " << int(a.stop) << " vs " << int(b.stop);
    if (a.errorCode != b.errorCode)
        return ::testing::AssertionFailure()
               << "errorCode " << a.errorCode << " vs " << b.errorCode;
    if (a.exitValue != b.exitValue)
        return ::testing::AssertionFailure()
               << "exitValue " << a.exitValue << " vs " << b.exitValue;
    if (a.faultIndex != b.faultIndex)
        return ::testing::AssertionFailure()
               << "faultIndex " << a.faultIndex << " vs " << b.faultIndex;
    if (a.gcCount != b.gcCount || a.heapUsed != b.heapUsed)
        return ::testing::AssertionFailure()
               << "GC cells differ: " << a.gcCount << "/" << a.heapUsed
               << " vs " << b.gcCount << "/" << b.heapUsed;
    return ::testing::AssertionSuccess();
}

/** Interpreter-vs-translated differential for one compiled cell. */
::testing::AssertionResult
differential(const CompiledUnit &unit, uint64_t maxCycles)
{
    auto tr = translateUnit(unit);
    if (!tr.unit)
        return ::testing::AssertionFailure()
               << "translation refused: " << tr.note;
    RunControls rc;
    rc.maxCycles = maxCycles;
    RunResult a = runUnitOn(unit, unit.memory, rc);
    TranslatedControls tc;
    tc.maxCycles = maxCycles;
    RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
    return sameResult(a, b);
}

/**
 * The memory-tagging configurations: the fault campaign's memtag rung
 * (low tags, no compiled checks) at both checking levels, and memory
 * tagging beside checked-memory hardware, whose Ldt/Stt then carry the
 * lock/key check too and whose tag traps have a handler.
 */
std::vector<CompilerOptions>
memTagConfigs()
{
    std::vector<CompilerOptions> configs;
    for (Checking c : {Checking::Off, Checking::Full}) {
        CompilerOptions o = lowTagSoftwareOptions(c);
        o.hw.memTagging = true;
        configs.push_back(o);
    }
    CompilerOptions checked = baselineOptions(Checking::Full);
    checked.hw.checkedMemory = CheckedMem::All;
    checked.hw.memTagging = true;
    configs.push_back(checked);
    return configs;
}

/** Baselines, every Table 2 row at both checking levels, and memtag. */
std::vector<CompilerOptions>
ladderConfigs()
{
    std::vector<CompilerOptions> configs;
    configs.push_back(baselineOptions(Checking::Off));
    configs.push_back(baselineOptions(Checking::Full));
    for (const auto &cfg : table2Configs()) {
        configs.push_back(cfg.withChecking(Checking::Off));
        configs.push_back(cfg.withChecking(Checking::Full));
    }
    for (const CompilerOptions &o : memTagConfigs())
        configs.push_back(o);
    return configs;
}

/**
 * A translated pause snapshot marks no more pages than the interpreter's
 * beyond this slack: the executor re-derives its bitmap at the pause
 * instead of marking the whole image.
 */
constexpr size_t kDirtySlackPages = 4;

/** A machineSetup hook that does nothing: the interpreter-only seam. */
void
noSetup(Machine &, const CompiledUnit &)
{
}

} // namespace

// ---------------------------------------------------------------------
// The differential matrix: ten programs × (2 baselines + Table 2 rows)
// × both checking levels. One test per program so failures name the
// program and ctest can parallelize the matrix.
// ---------------------------------------------------------------------

class BackendDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(BackendDifferential, ByteIdenticalAcrossConfigs)
{
    const auto &bp = benchmarkPrograms()[size_t(GetParam())];
    const std::vector<CompilerOptions> configs = ladderConfigs();
    ASSERT_GE(configs.size(), 16u);
    for (size_t i = 0; i < configs.size(); ++i) {
        CompilerOptions opts = configs[i];
        opts.heapBytes = bp.heapBytes;
        CompiledUnit unit = compileUnit(bp.source, opts);
        EXPECT_TRUE(differential(unit, bp.maxCycles))
            << bp.name << " config #" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BackendDifferential, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int> &info) {
        return benchmarkPrograms()[size_t(info.param)].name;
    });

// ---------------------------------------------------------------------
// The per-PC profile: the translated executor's per-index counters,
// folded, must equal the interpreter's attachProfile histograms array
// for array, for every program x configuration the translator accepts.
// ---------------------------------------------------------------------

class BackendProfile : public ::testing::TestWithParam<int>
{
};

TEST_P(BackendProfile, ByteIdenticalAcrossConfigs)
{
    const auto &bp = benchmarkPrograms()[size_t(GetParam())];
    int compared = 0;
    for (CompilerOptions opts : ladderConfigs()) {
        opts.heapBytes = bp.heapBytes;
        CompiledUnit unit = compileUnit(bp.source, opts);
        auto tr = translateUnit(unit);
        if (!tr.unit)
            continue;
        RunControls rc;
        rc.maxCycles = bp.maxCycles;
        rc.collectProfile = true;
        RunResult a = runUnitOn(unit, unit.memory, rc);
        TranslatedControls tc;
        tc.maxCycles = bp.maxCycles;
        tc.collectProfile = true;
        RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
        SCOPED_TRACE(bp.name + " config #" + std::to_string(compared));
        EXPECT_TRUE(sameResult(a, b));
        ASSERT_TRUE(a.profile && b.profile);
        EXPECT_TRUE(a.profile->execCount == b.profile->execCount);
        EXPECT_TRUE(a.profile->cycles == b.profile->cycles);
        EXPECT_EQ(b.profile->totalCycles(), b.stats.total);
        ++compared;
    }
    EXPECT_GE(compared, 16);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BackendProfile, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int> &info) {
        return benchmarkPrograms()[size_t(info.param)].name;
    });

// ---------------------------------------------------------------------
// Pause and resume: at seeded pause points of every program under every
// configuration, the translated executor pauses into the snapshot the
// interpreter takes (pipeline state, stats, output and image included),
// and a run resumed from it — on either executor — ends exactly like
// the unpaused run.
// ---------------------------------------------------------------------

class BackendPause : public ::testing::TestWithParam<int>
{
};

TEST_P(BackendPause, SeededPausePointsMatchInterpreter)
{
    const auto &bp = benchmarkPrograms()[size_t(GetParam())];
    FaultRng rng(0x50415553u + uint64_t(GetParam())); // "PAUS"
    int compared = 0;
    for (CompilerOptions opts : ladderConfigs()) {
        opts.heapBytes = bp.heapBytes;
        CompiledUnit unit = compileUnit(bp.source, opts);
        auto tr = translateUnit(unit);
        if (!tr.unit)
            continue;
        TranslatedControls plain;
        plain.maxCycles = bp.maxCycles;
        const RunResult whole =
            runTranslated(unit, *tr.unit, unit.memory, plain);
        ASSERT_GT(whole.stats.total, 2u);
        const uint64_t pause = 1 + rng.below(whole.stats.total - 1);
        SCOPED_TRACE(bp.name + " config #" + std::to_string(compared) +
                     " pause " + std::to_string(pause));

        MachineSnapshot interpSnap;
        RunControls rc;
        rc.maxCycles = bp.maxCycles;
        rc.pauseAtCycle = pause;
        rc.snapshotHook = [&](MachineSnapshot &s, const CompiledUnit &) {
            interpSnap = s;
        };
        const RunResult a = runUnitOn(unit, unit.memory, rc);

        // Compared in place, so the hook sees the leg's own image.
        bool same = false;
        bool sameBytes = true;
        size_t imagePages = 0, lockPages = 0;
        TranslatedControls tc = plain;
        tc.pauseAtCycle = pause;
        tc.snapshotHook = [&](MachineSnapshot &s, const CompiledUnit &) {
            same = s == interpSnap;
            imagePages = s.memory.dirtyPages();
            lockPages = s.memTagLocks.dirtyPages();
            // Memory tagging: the lock-carrying MXSNAP02 bytes too.
            if (opts.hw.memTagging)
                sameBytes = s.serialize() == interpSnap.serialize();
        };
        const RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
        ASSERT_TRUE(a.snapshotTaken);
        ASSERT_TRUE(b.snapshotTaken);
        EXPECT_TRUE(same) << "snapshots differ at pc " << interpSnap.pc;
        EXPECT_TRUE(sameBytes) << "MXSNAP02 bytes differ";
        EXPECT_EQ(interpSnap.memTagLocks.size() != 0, opts.hw.memTagging);
        EXPECT_LE(imagePages,
                  interpSnap.memory.dirtyPages() + kDirtySlackPages);
        EXPECT_LE(lockPages,
                  interpSnap.memTagLocks.dirtyPages() + kDirtySlackPages);
        EXPECT_TRUE(sameResult(a, b));
        EXPECT_TRUE(sameResult(whole, b));

        // The interpreter's snapshot resumes on the translated tier.
        EXPECT_TRUE(sameResult(
            whole, resumeTranslated(unit, *tr.unit, interpSnap, plain)));
        ++compared;
    }
    EXPECT_GE(compared, 19); // every ladder config, memtag included
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BackendPause, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int> &info) {
        return benchmarkPrograms()[size_t(info.param)].name;
    });

TEST(Backend, MutatingHookGivesIdenticalResultsOnBothTiers)
{
    // The heap-zeroing hook of Snapshot.EngineHookMutationPerturbsTheRun
    // perturbs the run; both tiers must perturb it the same way.
    const char *src =
        "(de build (n) (if (lessp n 1) nil (cons n (build (sub1 n)))))"
        "(print (length (build 80)))";
    Engine eng(1);
    RunRequest req = request(src, Checking::Full);
    RunReport base = eng.run(req);
    ASSERT_TRUE(base.ok());
    req.hooks.pauseAtCycle = base.result.stats.total / 2;
    req.hooks.snapshotHook = [](MachineSnapshot &snap,
                                const CompiledUnit &unit) {
        uint32_t lo =
            snap.memory.word(unit.layout.cellAddr(Cell::FromLo) / 4) / 4;
        uint32_t hi = snap.regs[mxl::abi::hp] / 4;
        for (uint32_t i = lo; i < hi && i < snap.memory.size() / 4; ++i)
            snap.memory.word(i) = 0;
    };
    req.exec.backend = Backend::Interpreter;
    RunReport i = eng.run(req);
    req.exec.backend = Backend::Translated;
    RunReport t = eng.run(req);
    EXPECT_EQ(t.backend, Backend::Translated);
    EXPECT_EQ(i.status.code, t.status.code);
    EXPECT_TRUE(i.result.snapshotTaken);
    EXPECT_TRUE(t.result.snapshotTaken);
    EXPECT_TRUE(sameResult(i.result, t.result));
    EXPECT_FALSE(sameResult(base.result, t.result));
}

TEST(Backend, UnhonorableSnapshotIsAnInternalError)
{
    // A hook that leaves the snapshot in a state the translated
    // executor cannot continue gets a structured InternalError, never a
    // silent divergence.
    Engine eng(1);
    RunRequest req = request(kLoop, Checking::Full);
    req.exec.backend = Backend::Translated;
    req.hooks.pauseAtCycle = 500;

    // Memory-tag locks are honored now, on a unit without the hardware
    // too: carried along and never consulted, as Machine::restore()
    // carries them.
    req.hooks.snapshotHook = [](MachineSnapshot &snap,
                                const CompiledUnit &) {
        snap.memTagLocks = ZeroPages(snap.memory.size() / 4);
        *snap.memTagLocks.touch(0) = 1;
    };
    RunReport locked = eng.run(req);
    ASSERT_TRUE(locked.ok()) << locked.status.message;
    req.exec.backend = Backend::Interpreter;
    RunReport interp = eng.run(req);
    EXPECT_TRUE(sameResult(interp.result, locked.result));
    req.exec.backend = Backend::Translated;

    // A wild pc is a panic, not a wild dispatch.
    req.hooks.snapshotHook = [](MachineSnapshot &snap,
                                const CompiledUnit &) {
        snap.pc = 1 << 30;
        snap.slotsRemaining = 0;
    };
    RunReport rep = eng.run(req);
    EXPECT_EQ(rep.status.code, RunStatus::Code::InternalError);
    EXPECT_NE(rep.status.message.find("pc out of range"), std::string::npos)
        << rep.status.message;
}

TEST(Backend, CallPauseSnapshotsMatchInterpreter)
{
    // The second pause trigger: just before the N-th issued call, both
    // executors pause into the same MXSNAP02 bytes (memory-tag locks
    // included), and a register rewritten there — the call-argument
    // fault — perturbs both runs identically.
    std::vector<CompilerOptions> configs = memTagConfigs();
    configs.push_back(baselineOptions(Checking::Full));
    for (const auto &bp : benchmarkPrograms()) {
        if (bp.name != "inter" && bp.name != "deduce" && bp.name != "opt")
            continue;
        for (CompilerOptions opts : configs) {
            opts.heapBytes = bp.heapBytes;
            CompiledUnit unit = compileUnit(bp.source, opts);
            auto tr = translateUnit(unit);
            ASSERT_TRUE(tr.unit) << tr.note;
            for (int64_t call : {0, 3, 15, 400}) {
                SCOPED_TRACE(bp.name + " call " + std::to_string(call));
                std::string interpBytes;
                RunControls rc;
                rc.maxCycles = bp.maxCycles;
                rc.pauseAtCall = call;
                rc.snapshotHook = [&](MachineSnapshot &s,
                                      const CompiledUnit &) {
                    interpBytes = s.serialize();
                    s.regs[mxl::abi::arg0] ^= 3;
                };
                const RunResult a = runUnitOn(unit, unit.memory, rc);

                bool sameBytes = false;
                TranslatedControls tc;
                tc.maxCycles = bp.maxCycles;
                tc.pauseAtCall = call;
                tc.snapshotHook = [&](MachineSnapshot &s,
                                      const CompiledUnit &) {
                    sameBytes = s.serialize() == interpBytes;
                    s.regs[mxl::abi::arg0] ^= 3;
                };
                const RunResult b =
                    runTranslated(unit, *tr.unit, unit.memory, tc);
                ASSERT_TRUE(a.snapshotTaken);
                ASSERT_TRUE(b.snapshotTaken);
                EXPECT_TRUE(sameBytes);
                EXPECT_TRUE(sameResult(a, b));
            }
        }
    }

    // A run that issues fewer calls never pauses, on either executor.
    CompiledUnit unit = compileUnit(kLoop, baselineOptions(Checking::Off));
    auto tr = translateUnit(unit);
    ASSERT_TRUE(tr.unit);
    int hooked = 0;
    RunControls rc;
    rc.pauseAtCall = 1'000'000;
    rc.snapshotHook = [&](MachineSnapshot &, const CompiledUnit &) {
        ++hooked;
    };
    TranslatedControls tc;
    tc.pauseAtCall = rc.pauseAtCall;
    tc.snapshotHook = rc.snapshotHook;
    const RunResult a = runUnitOn(unit, unit.memory, rc);
    const RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
    EXPECT_EQ(hooked, 0);
    EXPECT_FALSE(a.snapshotTaken || b.snapshotTaken);
    EXPECT_TRUE(sameResult(a, b));
}

TEST(Backend, BenchmarkSuiteHasTenPrograms)
{
    // Keeps the Range(0, 10) instantiation honest.
    EXPECT_EQ(benchmarkPrograms().size(), 10u);
}

// ---------------------------------------------------------------------
// Trap paths. The generic-arithmetic hardware latches the operands and
// vectors to the software bignum fallback; Addt and Subt report
// different trap operation codes (abi::scratch = 1 vs 2), so both
// directions get their own overflow.
// ---------------------------------------------------------------------

TEST(Backend, OverflowTrapPathsMatch)
{
    const char *const sources[] = {
        "(print (+ 40000000 40000000))",  // Addt overflow
        "(print (- -40000000 40000000))", // Subt overflow
        "(print (+ (- -40000000 40000000) (+ 40000000 40000000)))",
    };
    for (const char *src : sources)
        for (ArithMode mode :
             {ArithMode::InlineBiased, ArithMode::ForceDispatch}) {
            CompilerOptions opts;
            opts.scheme = SchemeKind::High5;
            opts.checking = Checking::Full;
            opts.arithMode = mode;
            opts.hw.genericArith = true;
            CompiledUnit unit = compileUnit(src, opts);
            EXPECT_TRUE(differential(unit, kDefaultMaxCycles))
                << src << " mode " << int(mode);
        }
}

TEST(Backend, UnhandledTrapEncodingMatches)
{
    // With handler installation off, the hardware trap must stop the
    // run with the interpreter's exact unhandled-trap error encoding.
    CompilerOptions opts;
    opts.scheme = SchemeKind::High5;
    opts.checking = Checking::Full;
    opts.hw.genericArith = true;
    CompiledUnit unit = compileUnit("(print (+ 40000000 40000000))", opts);
    auto tr = translateUnit(unit);
    ASSERT_TRUE(tr.unit) << tr.note;
    RunControls rc;
    rc.installUnitTrapHandlers = false;
    RunResult a = runUnitOn(unit, unit.memory, rc);
    TranslatedControls tc;
    tc.installTrapHandlers = false;
    RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
    EXPECT_EQ(a.stop, StopReason::Errored);
    EXPECT_NE(a.errorCode, 0);
    EXPECT_TRUE(sameResult(a, b));
}

TEST(Backend, CycleLimitStopsAreIdentical)
{
    // A mid-run cycle guard must fire on the same cycle in both
    // backends, even when it lands inside a fused pair or a control
    // group's delay slots.
    CompiledUnit unit =
        compileUnit(kLoop, baselineOptions(Checking::Full));
    for (uint64_t limit : {100ull, 1001ull, 5002ull, 20003ull})
        EXPECT_TRUE(differential(unit, limit)) << "limit " << limit;
}

// ---------------------------------------------------------------------
// The Engine's two-tier policy.
// ---------------------------------------------------------------------

TEST(Backend, EngineStampsBackendAndTiersMatch)
{
    Engine eng(1);
    RunRequest req = request(kLoop, Checking::Full); // default: Auto
    RunReport t = eng.run(req);
    ASSERT_TRUE(t.ok()) << t.status.message;
    EXPECT_EQ(t.backend, Backend::Translated);
    EXPECT_FALSE(t.backendFellBack);

    req.exec.backend = Backend::Interpreter;
    RunReport i = eng.run(req);
    ASSERT_TRUE(i.ok());
    EXPECT_EQ(i.backend, Backend::Interpreter);
    EXPECT_TRUE(sameResult(t.result, i.result));

    req.exec.backend = Backend::Translated;
    RunReport e = eng.run(req);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.backend, Backend::Translated);
    EXPECT_TRUE(sameResult(t.result, e.result));
}

TEST(Backend, AutoFallbackStampsAndCounts)
{
    Engine eng(1);
    Counter &fallbacks = eng.metrics().counter("engine.backend.fallbacks");
    uint64_t before = fallbacks.value();

    Counter &bySetup =
        eng.metrics().counter("engine.backend.fallback.machine_setup");

    RunRequest req = request(kLoop, Checking::Full);
    bool setUp = false; // interpreter-only seam
    req.hooks.machineSetup = [&](Machine &, const CompiledUnit &) {
        setUp = true;
    };
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.ok()) << rep.status.message;
    EXPECT_EQ(rep.backend, Backend::Interpreter);
    EXPECT_TRUE(rep.backendFellBack);
    EXPECT_FALSE(rep.backendNote.empty());
    EXPECT_EQ(fallbacks.value(), before + 1);
    EXPECT_EQ(bySetup.value(), 1u);
    EXPECT_TRUE(setUp); // the hook was honored
}

TEST(Backend, ExplicitTranslatedRefusesInterpreterSeams)
{
    Engine eng(1);
    RunRequest req = request(kLoop, Checking::Off);
    req.exec.backend = Backend::Translated;
    req.hooks.machineSetup = noSetup;
    RunReport rep = eng.run(req);
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.status.code, RunStatus::Code::InternalError);
    EXPECT_NE(rep.status.message.find("translated backend unavailable"),
              std::string::npos)
        << rep.status.message;
}

TEST(Backend, TranslatedPauseResumeMatchesUnpausedAndInterpreter)
{
    // A pause/snapshot request runs on the translated tier, and the
    // paused run is byte-identical both to the unpaused run of the same
    // cell and to the interpreter's pause of it: the pause is invisible
    // on both executors.
    Engine eng(1);
    RunRequest plain = request(kLoop, Checking::Full);
    RunReport t = eng.run(plain);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(t.backend, Backend::Translated);

    RunRequest paused = plain;
    paused.hooks.pauseAtCycle = 2000;
    int hooked = 0;
    paused.hooks.snapshotHook = [&](MachineSnapshot &,
                                    const CompiledUnit &) { ++hooked; };
    RunReport p = eng.run(paused);
    ASSERT_TRUE(p.ok()) << p.status.message;
    EXPECT_EQ(p.backend, Backend::Translated);
    EXPECT_FALSE(p.backendFellBack);
    EXPECT_EQ(hooked, 1);
    EXPECT_TRUE(p.result.snapshotTaken);
    EXPECT_TRUE(sameResult(t.result, p.result));

    paused.exec.backend = Backend::Interpreter;
    RunReport i = eng.run(paused);
    ASSERT_TRUE(i.ok()) << i.status.message;
    EXPECT_EQ(hooked, 2);
    EXPECT_TRUE(i.result.snapshotTaken);
    EXPECT_TRUE(sameResult(i.result, p.result));
    EXPECT_EQ(eng.metrics().counter("engine.backend.fallbacks").value(),
              0u);
}

TEST(Backend, ProfileRequestsRunTranslated)
{
    Engine eng(1);
    RunRequest req = request(kLoop, Checking::Full);
    req.hooks.collectProfile = true;
    RunReport t = eng.run(req);
    ASSERT_TRUE(t.ok()) << t.status.message;
    EXPECT_EQ(t.backend, Backend::Translated);
    ASSERT_TRUE(t.result.profile);
    EXPECT_EQ(t.result.profile->totalCycles(), t.result.stats.total);
    EXPECT_EQ(t.result.profile->totalExecuted(),
              t.result.stats.instructions);

    req.exec.backend = Backend::Interpreter;
    RunReport i = eng.run(req);
    ASSERT_TRUE(i.result.profile);
    EXPECT_TRUE(i.result.profile->execCount == t.result.profile->execCount);
    EXPECT_TRUE(i.result.profile->cycles == t.result.profile->cycles);
}

TEST(Backend, CacheKeysAreTieredByBackend)
{
    CompilerOptions opts = baselineOptions(Checking::Off);
    std::string i = Engine::cacheKey(kLoop, opts, Backend::Interpreter);
    std::string t = Engine::cacheKey(kLoop, opts, Backend::Translated);
    std::string a = Engine::cacheKey(kLoop, opts, Backend::Auto);
    EXPECT_NE(i, t);
    EXPECT_EQ(a, t); // Auto shares the translated tier's entry
}

TEST(Backend, GridMixesBackendsDeterministically)
{
    // One grid with Auto, pinned-interpreter, and fallback cells: the
    // reports must carry per-cell backend stamps and identical stats.
    Engine eng(2);
    std::vector<RunRequest> reqs(3, request(kLoop, Checking::Full));
    reqs[1].exec.backend = Backend::Interpreter;
    reqs[2].hooks.machineSetup = noSetup;
    auto reps = eng.runGrid(reqs);
    ASSERT_EQ(reps.size(), 3u);
    for (const auto &r : reps)
        ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(reps[0].backend, Backend::Translated);
    EXPECT_EQ(reps[1].backend, Backend::Interpreter);
    EXPECT_EQ(reps[2].backend, Backend::Interpreter);
    EXPECT_TRUE(reps[2].backendFellBack);
    EXPECT_TRUE(sameResult(reps[0].result, reps[1].result));
    EXPECT_TRUE(sameResult(reps[0].result, reps[2].result));
}

// ---------------------------------------------------------------------
// Translator refusals: diagnosed, never mistranslated.
// ---------------------------------------------------------------------

TEST(Backend, RefusalsAreDiagnosed)
{
    // CompiledUnit is move-only; compile one per mutation.
    CompiledUnit empty =
        compileUnit(kLoop, baselineOptions(Checking::Off));
    empty.prog.code.clear();
    auto r1 = translateUnit(empty);
    EXPECT_EQ(r1.unit, nullptr);
    EXPECT_NE(r1.note.find("empty"), std::string::npos) << r1.note;

    CompiledUnit bad = compileUnit(kLoop, baselineOptions(Checking::Off));
    bad.entry = int(bad.prog.code.size()) + 7;
    auto r2 = translateUnit(bad);
    EXPECT_EQ(r2.unit, nullptr);
    EXPECT_NE(r2.note.find("entry"), std::string::npos) << r2.note;
}

TEST(Backend, DeadlineExpiresUnderTranslatedBackend)
{
    // The translated executor shares the interpreter's chunked
    // wall-clock deadline (kDeadlineChunkCycles in both run loops): a
    // pinned-Translated spin must time out there, not fall back, and
    // come back with the same Timeout encoding the interpreter uses.
    Engine eng(1);
    RunRequest spin;
    spin.source = "(setq i 0) (while t (setq i (add1 i)))";
    spin.opts = baselineOptions(Checking::Off);
    spin.exec.backend = Backend::Translated;
    spin.exec.deadlineSeconds = 0.2;
    spin.exec.maxCycles = ~0ull; // the deadline, not the budget, stops it
    RunReport rep = eng.run(spin);
    EXPECT_EQ(rep.backend, Backend::Translated);
    EXPECT_FALSE(rep.backendFellBack);
    EXPECT_EQ(rep.status.code, RunStatus::Code::Timeout);
    EXPECT_TRUE(rep.result.timedOut);
    EXPECT_EQ(rep.result.stop, StopReason::CycleLimit);
    EXPECT_EQ(eng.metrics().counter("engine.timeouts").value(), 1u);

    // The engine is not wedged: the same source under a generous
    // deadline completes normally on the translated tier.
    RunRequest fine = spin;
    fine.source = kLoop;
    fine.exec.maxCycles = kDefaultMaxCycles;
    fine.exec.deadlineSeconds = 60;
    RunReport ok = eng.run(fine);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.backend, Backend::Translated);
    EXPECT_FALSE(ok.result.timedOut);
}

TEST(Backend, BackendNamesAreStable)
{
    EXPECT_STREQ(backendName(Backend::Auto), "auto");
    EXPECT_STREQ(backendName(Backend::Interpreter), "interpreter");
    EXPECT_STREQ(backendName(Backend::Translated), "translated");
}
