/**
 * MachineSnapshot: checkpoint/restore invisibility.
 *
 * The defining invariant (machine/snapshot.h): pausing a run at ANY
 * cycle, snapshotting, restoring — into the same machine or a freshly
 * constructed one — and resuming must be cycle-identical to the
 * uninterrupted run: same CycleStats, same output bytes, same halt
 * value. Exercised three ways:
 *
 *  - exhaustively, at every cycle of a small assembly program dense
 *    with branches, annulled delay slots, and load-delay shadows;
 *  - property-style, at seeded pause fractions of all ten benchmark
 *    programs under two configurations (unchecked High5 and the full
 *    checked-memory hardware ladder rung);
 *  - through the Engine seam (RunRequest::pauseAtCycle/snapshotHook);
 *  - across executors: the translated backend pauses into the same
 *    MXSNAP02 bytes at every pause point, and each executor resumes
 *    the other's snapshot.
 *
 * Plus the serialization contract: deterministic bytes, lossless
 * round-trip, and rejection of malformed input.
 */

#include <gtest/gtest.h>

#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/run.h"
#include "exec/texec.h"
#include "isa/assembler.h"
#include "machine/snapshot.h"
#include "programs/programs.h"
#include "faults/fault_injector.h"
#include "support/panic.h"

using namespace mxl;

namespace {

/** Build the machine for @p unit exactly as core/run.cc does. */
void
setupMachine(Machine &m, const CompiledUnit &unit)
{
    if (unit.opts.hw.genericArith && unit.arithTrap >= 0)
        m.setTrapHandler(TrapKind::ArithFail, unit.arithTrap);
    if (unit.opts.hw.checkedMemory != CheckedMem::None &&
        unit.tagTrap >= 0)
        m.setTrapHandler(TrapKind::TagMismatch, unit.tagTrap);
}

CompilerOptions
checkedHwOpts()
{
    CompilerOptions o = baselineOptions(Checking::Full);
    o.hw.branchOnTag = true;
    o.hw.genericArith = true;
    o.hw.checkedMemory = CheckedMem::All;
    return o;
}

/**
 * Run @p unit to completion twice — once uninterrupted, once paused at
 * @p pauseCycle with the snapshot serialized, deserialized, and
 * restored into a FRESH machine — and require identical end states.
 */
void
expectPauseInvisible(const CompiledUnit &unit, uint64_t pauseCycle,
                     uint64_t maxCycles)
{
    Machine whole(unit.prog, unit.memory, unit.opts.hw,
                  unit.scheme.get());
    setupMachine(whole, unit);
    StopReason wholeStop = whole.run(unit.entry, maxCycles);

    Machine first(unit.prog, unit.memory, unit.opts.hw,
                  unit.scheme.get());
    setupMachine(first, unit);
    StopReason stop = first.run(unit.entry, pauseCycle);
    if (stop != StopReason::CycleLimit) {
        // The run finished before the pause point; nothing to split.
        ASSERT_EQ(stop, wholeStop);
        return;
    }

    MachineSnapshot snap = first.snapshot();
    std::string bytes = snap.serialize();
    MachineSnapshot decoded;
    ASSERT_TRUE(MachineSnapshot::deserialize(bytes, &decoded));
    ASSERT_TRUE(decoded == snap) << "serialize round-trip lost state";

    Machine resumed(unit.prog, unit.memory, unit.opts.hw,
                    unit.scheme.get());
    setupMachine(resumed, unit);
    resumed.restore(decoded);
    StopReason resumedStop = resumed.resume(maxCycles);

    EXPECT_EQ(resumedStop, wholeStop) << "pause at " << pauseCycle;
    EXPECT_TRUE(resumed.stats() == whole.stats())
        << "CycleStats diverged after pause at cycle " << pauseCycle
        << ": " << resumed.stats().total << " vs "
        << whole.stats().total;
    EXPECT_EQ(resumed.output(), whole.output());
    EXPECT_EQ(resumed.exitValue(), whole.exitValue());
    EXPECT_EQ(resumed.errorCode(), whole.errorCode());
}

} // namespace

// ---- exhaustive: every pause point of a control-dense program ---------

TEST(Snapshot, EveryPausePointOfBranchyProgramIsInvisible)
{
    // Taken and not-taken branches, annulled slots, loads in the branch
    // shadow, and a store loop: every pipeline state a pause can land
    // in, within a few hundred cycles.
    const char *src = R"(
        main:
            li r2, 12
            li r3, 0
            li r4, 0x100
        loop:
            st r3, 0(r4)
            ld r5, 0(r4)
            add r3, r5, r2
            addi r2, r2, -1
            bne r2, r0, loop
            addi r4, r4, 4
            noop
            beq r2, r3, never
            ld r6, -4(r4)
            add r3, r3, r6
            bne.t r3, r0, over
            addi r3, r3, 99
            addi r3, r3, 1000
        over:
            sys putfixraw, r3
            sys halt, r3
        never:
            sys halt, r0
    )";
    Program prog = assemble(src);

    Machine whole(prog, Memory(1 << 16), HardwareConfig{}, nullptr);
    ASSERT_EQ(whole.run(prog.symbol("main")), StopReason::Halted);
    const uint64_t total = whole.stats().total;
    ASSERT_GT(total, 50u);

    for (uint64_t pause = 1; pause < total; ++pause) {
        Machine first(prog, Memory(1 << 16), HardwareConfig{}, nullptr);
        StopReason stop = first.run(prog.symbol("main"), pause);
        if (stop == StopReason::Halted) {
            // A budget within one instruction group of the total lets
            // the final halt slip in; nothing left to split.
            ASSERT_TRUE(first.stats() == whole.stats()) << pause;
            continue;
        }
        ASSERT_EQ(stop, StopReason::CycleLimit) << pause;

        MachineSnapshot snap = first.snapshot();
        Machine resumed(prog, Memory(1 << 16), HardwareConfig{}, nullptr);
        resumed.restore(snap);
        ASSERT_EQ(resumed.resume(kDefaultMaxCycles), StopReason::Halted)
            << pause;
        ASSERT_TRUE(resumed.stats() == whole.stats())
            << "diverged after pause at " << pause;
        ASSERT_EQ(resumed.output(), whole.output()) << pause;
        ASSERT_EQ(resumed.exitValue(), whole.exitValue()) << pause;
    }
}

TEST(Snapshot, TranslatedPausesIntoTheInterpretersBytesAtEveryPoint)
{
    // The branchy program again, as a unit both executors run: at every
    // pause point — mid delay slot, mid squash, between the halves of a
    // fused st/ld pair — the translated executor's snapshot serializes
    // to the interpreter's MXSNAP02 bytes, and each executor's snapshot
    // resumes on the other to the unpaused end state.
    CompiledUnit unit;
    unit.prog = assemble(R"(
        main:
            li r2, 12
            li r3, 0
            li r4, 0x100
        loop:
            st r3, 0(r4)
            ld r5, 0(r4)
            add r3, r5, r2
            addi r2, r2, -1
            bne r2, r0, loop
            addi r4, r4, 4
            noop
            beq r2, r3, never
            ld r6, -4(r4)
            add r3, r3, r6
            bne.t r3, r0, over
            addi r3, r3, 99
            addi r3, r3, 1000
        over:
            sys putfixraw, r3
            sys halt, r3
        never:
            sys halt, r0
    )");
    unit.memory = Memory(1 << 16);
    unit.scheme = makeScheme(unit.opts.scheme);
    unit.entry = unit.prog.symbol("main");
    auto tr = translateUnit(unit);
    ASSERT_TRUE(tr.unit) << tr.note;

    const RunResult whole = runUnitOn(unit, unit.memory, RunControls{});
    ASSERT_EQ(whole.stop, StopReason::Halted);
    int midSlot = 0, midSquash = 0, stalled = 0;
    for (uint64_t pause = 1; pause < whole.stats.total; ++pause) {
        SCOPED_TRACE("pause at " + std::to_string(pause));
        std::string interpBytes, transBytes;
        MachineSnapshot interpSnap, transSnap;
        RunControls rc;
        rc.pauseAtCycle = pause;
        rc.snapshotHook = [&](MachineSnapshot &s, const CompiledUnit &) {
            interpBytes = s.serialize();
            interpSnap = s;
        };
        TranslatedControls tc;
        tc.pauseAtCycle = pause;
        tc.snapshotHook = [&](MachineSnapshot &s, const CompiledUnit &) {
            transBytes = s.serialize();
            transSnap = s;
        };
        const RunResult a = runUnitOn(unit, unit.memory, rc);
        const RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
        ASSERT_EQ(a.snapshotTaken, b.snapshotTaken);
        EXPECT_TRUE(a.stats == whole.stats && b.stats == whole.stats);
        EXPECT_EQ(b.output, whole.output);
        EXPECT_EQ(b.exitValue, whole.exitValue);
        if (!a.snapshotTaken)
            continue; // the halt slipped in before the pause
        ASSERT_EQ(interpBytes, transBytes)
            << "pc " << interpSnap.pc << " slots "
            << interpSnap.slotsRemaining;
        midSlot += interpSnap.slotsRemaining > 0 && !interpSnap.annulSlots;
        midSquash += interpSnap.slotsRemaining > 0 && interpSnap.annulSlots;
        stalled += interpSnap.pendingLoadReg >= 0;

        // Cross-executor resume.
        const RunResult t =
            resumeTranslated(unit, *tr.unit, interpSnap, TranslatedControls{});
        EXPECT_TRUE(t.stats == whole.stats);
        EXPECT_EQ(t.output, whole.output);
        EXPECT_EQ(t.stop, StopReason::Halted);
        Machine m(unit.prog, Memory(1 << 16), HardwareConfig{}, nullptr);
        m.restore(transSnap);
        ASSERT_EQ(m.resume(kDefaultMaxCycles), StopReason::Halted);
        EXPECT_TRUE(m.stats() == whole.stats);
        EXPECT_EQ(m.output(), whole.output);
    }
    // The program reaches every pipeline state a pause can land in.
    EXPECT_GT(midSlot, 0);
    EXPECT_GT(midSquash, 0);
    EXPECT_GT(stalled, 0);
}

// ---- property: seeded pause points across the whole suite -------------

TEST(Snapshot, SeededPausePointsAcrossAllProgramsAndConfigs)
{
    const CompilerOptions configs[2] = {baselineOptions(Checking::Off),
                                        checkedHwOpts()};
    FaultRng rng(0x534E4150); // "SNAP"
    for (const auto &p : benchmarkPrograms()) {
        for (const CompilerOptions &base : configs) {
            CompilerOptions opts = base;
            opts.heapBytes = p.heapBytes;
            CompiledUnit unit = compileUnit(p.source, opts);

            // Golden length bounds the pause points.
            Machine probe(unit.prog, unit.memory, unit.opts.hw,
                          unit.scheme.get());
            setupMachine(probe, unit);
            ASSERT_EQ(probe.run(unit.entry, p.maxCycles),
                      StopReason::Halted)
                << p.name;
            uint64_t total = probe.stats().total;

            for (int i = 0; i < 2; ++i) {
                uint64_t pause = 1 + rng.below(total - 1);
                SCOPED_TRACE(p.name + " pause " +
                             std::to_string(pause));
                expectPauseInvisible(unit, pause, p.maxCycles);
            }
        }
    }
}

// ---- serialization contract -------------------------------------------

TEST(Snapshot, SerializationIsDeterministicAndValidated)
{
    CompiledUnit unit =
        compileUnit("(print (+ 1 2))", baselineOptions(Checking::Off));
    Machine m(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    ASSERT_EQ(m.run(unit.entry, 50), StopReason::CycleLimit);

    MachineSnapshot snap = m.snapshot();
    std::string a = snap.serialize();
    std::string b = m.snapshot().serialize();
    EXPECT_EQ(a, b) << "equal state must serialize to equal bytes";

    MachineSnapshot out;
    EXPECT_TRUE(MachineSnapshot::deserialize(a, &out));
    EXPECT_TRUE(out == snap);

    // Truncation, corruption, and garbage are rejected, not crashed on.
    EXPECT_FALSE(MachineSnapshot::deserialize("", &out));
    EXPECT_FALSE(MachineSnapshot::deserialize("MXSNAP01", &out));
    EXPECT_FALSE(
        MachineSnapshot::deserialize(a.substr(0, a.size() - 3), &out));
    std::string wrongMagic = a;
    wrongMagic[0] = 'X';
    EXPECT_FALSE(MachineSnapshot::deserialize(wrongMagic, &out));
    std::string trailing = a + "x";
    EXPECT_FALSE(MachineSnapshot::deserialize(trailing, &out));
}

TEST(Snapshot, RestoreRejectsMismatchedImageSize)
{
    CompiledUnit unit =
        compileUnit("(print 7)", baselineOptions(Checking::Off));
    Machine m(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    ASSERT_EQ(m.run(unit.entry, 20), StopReason::CycleLimit);
    MachineSnapshot snap = m.snapshot();
    snap.memory = Memory(snap.memory.size() / 2);
    Machine other(unit.prog, unit.memory, unit.opts.hw,
                  unit.scheme.get());
    EXPECT_THROW(other.restore(snap), MxlError);
}

// ---- page-sparse images -------------------------------------------------

TEST(Snapshot, SnapshotAndRestoreCopyOnlyTouchedPages)
{
    CompiledUnit unit =
        compileUnit("(print (+ 1 2))", baselineOptions(Checking::Off));
    const size_t addressPages =
        unit.layout.memBytes / ZeroPages::kPageBytes;
    Machine m(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    setupMachine(m, unit);
    ASSERT_EQ(m.run(unit.entry, 30), StopReason::CycleLimit);

    // The snapshot holds the pages the run touched, not the space.
    const size_t touched = m.memory().dirtyPages();
    EXPECT_GT(touched, 0u);
    EXPECT_LT(touched, addressPages / 16);
    MachineSnapshot snap = m.snapshot();
    EXPECT_EQ(snap.memory.dirtyPages(), touched);
    EXPECT_LT(snap.memory.residentPages(), addressPages / 16);
    EXPECT_TRUE(snap.memory == m.memory());

    // Restoring into a fresh machine copies the same pages back.
    Machine fresh(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    setupMachine(fresh, unit);
    fresh.restore(snap);
    EXPECT_EQ(fresh.memory().dirtyPages(), touched);
    EXPECT_LT(fresh.memory().residentPages(), addressPages / 16);
    EXPECT_TRUE(fresh.memory() == m.memory());

    // And the restored run finishes exactly like the original.
    EXPECT_EQ(fresh.resume(kDefaultMaxCycles), m.resume(kDefaultMaxCycles));
    EXPECT_TRUE(fresh.stats() == m.stats());
    EXPECT_EQ(fresh.output(), m.output());
}

TEST(Snapshot, MemoryEqualityAndSerializationAcrossSparseAndDense)
{
    const uint32_t bytes = 1u << 20;
    const uint32_t lastWord = bytes / 4 - 1;

    // Sparse: two words on distant pages; every other page unwritten.
    Memory sparse(bytes);
    sparse.word(5) = 0xdeadbeef;
    sparse.word(lastWord) = 7;
    EXPECT_EQ(sparse.dirtyPages(), 2u);

    // Equality is by contents: a written zero equals an unwritten page.
    Memory other(bytes);
    other.word(5) = 0xdeadbeef;
    other.word(lastWord) = 7;
    other.word(4096) = 0;
    EXPECT_EQ(other.dirtyPages(), 3u);
    EXPECT_TRUE(sparse == other);
    other.word(4096) = 1;
    EXPECT_FALSE(sparse == other);
    EXPECT_FALSE(sparse == Memory(bytes / 2));

    // Dense: every word written through the raw array.
    Memory dense(bytes);
    uint32_t *raw = dense.data();
    for (uint32_t i = 0; i <= lastWord; ++i)
        raw[i] = i * 2654435761u;
    EXPECT_EQ(dense.dirtyPages(), bytes / ZeroPages::kPageBytes);
    Memory denseCopy = dense;
    EXPECT_TRUE(denseCopy == dense);
    EXPECT_FALSE(denseCopy == sparse);

    // A partial last page.
    Memory odd(4100);
    odd.word(1024) = 9;
    EXPECT_TRUE(Memory(odd) == odd);

    // MXSNAP02 keeps the plain word list whatever the backing holds, and
    // decoding restores the contents without densifying them.
    for (const Memory *img : {&sparse, &dense, &odd}) {
        MachineSnapshot snap;
        snap.memory = *img;
        std::string bytesOut = snap.serialize();

        std::string tail;
        auto put = [&](uint64_t v, int n) {
            for (int i = 0; i < n; ++i)
                tail += static_cast<char>((v >> (8 * i)) & 0xff);
        };
        put(img->size() / 4, 8);
        for (uint32_t i = 0; i < img->size() / 4; ++i)
            put(img->word(i), 4);
        put(0, 8); // no memTagging locks
        ASSERT_GE(bytesOut.size(), tail.size());
        EXPECT_EQ(bytesOut.substr(bytesOut.size() - tail.size()), tail);

        MachineSnapshot back;
        ASSERT_TRUE(MachineSnapshot::deserialize(bytesOut, &back));
        EXPECT_TRUE(back == snap);
        EXPECT_LE(back.memory.dirtyPages(), img->dirtyPages());
        EXPECT_EQ(back.serialize(), bytesOut);
    }
}

// ---- the Engine seam --------------------------------------------------

TEST(Snapshot, EnginePauseWithIdentityHookIsInvisible)
{
    const char *src =
        "(de build (n) (if (lessp n 1) nil (cons n (build (sub1 n)))))"
        "(print (length (build 60)))";
    Engine eng(2);

    RunRequest plain;
    plain.source = src;
    plain.opts = baselineOptions(Checking::Full);
    RunReport base = eng.run(plain);
    ASSERT_TRUE(base.ok()) << base.status.message;
    EXPECT_FALSE(base.result.snapshotTaken);

    RunRequest paused = plain;
    paused.hooks.pauseAtCycle = base.result.stats.total / 2;
    bool hookRan = false;
    uint64_t hookCycle = 0;
    paused.hooks.snapshotHook = [&](MachineSnapshot &snap,
                              const CompiledUnit &) {
        hookRan = true;
        hookCycle = snap.stats.total;
    };
    RunReport rep = eng.run(paused);
    ASSERT_TRUE(rep.ok()) << rep.status.message;
    EXPECT_TRUE(hookRan);
    EXPECT_TRUE(rep.result.snapshotTaken);
    EXPECT_GE(hookCycle, paused.hooks.pauseAtCycle);
    EXPECT_TRUE(rep.result.stats == base.result.stats);
    EXPECT_EQ(rep.result.output, base.result.output);
}

TEST(Snapshot, EnginePauseAfterHaltNeverFiresHook)
{
    RunRequest req;
    req.source = "(print 11)";
    req.opts = baselineOptions(Checking::Off);
    req.hooks.pauseAtCycle = 1u << 30; // far past the program's halt
    bool hookRan = false;
    req.hooks.snapshotHook = [&](MachineSnapshot &, const CompiledUnit &) {
        hookRan = true;
    };
    Engine eng(1);
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.ok());
    EXPECT_FALSE(hookRan);
    EXPECT_FALSE(rep.result.snapshotTaken);
}

TEST(Snapshot, EngineHookMutationPerturbsTheRun)
{
    const char *src =
        "(de build (n) (if (lessp n 1) nil (cons n (build (sub1 n)))))"
        "(print (length (build 80)))";
    RunRequest req;
    req.source = src;
    req.opts = baselineOptions(Checking::Off);
    Engine eng(1);
    RunReport base = eng.run(req);
    ASSERT_TRUE(base.ok());

    // Zero the whole live heap at the pause: the run must observably
    // diverge (wrong output, error, or crash) yet stay a classified
    // simulation outcome — never a host failure.
    RunRequest mutated = req;
    mutated.hooks.pauseAtCycle = base.result.stats.total / 2;
    mutated.hooks.snapshotHook = [](MachineSnapshot &snap,
                              const CompiledUnit &unit) {
        uint32_t lo =
            snap.memory.word(unit.layout.cellAddr(Cell::FromLo) / 4) / 4;
        uint32_t hi = snap.regs[mxl::abi::hp] / 4;
        for (uint32_t i = lo; i < hi && i < snap.memory.size() / 4; ++i)
            snap.memory.word(i) = 0;
    };
    RunReport rep = eng.run(mutated);
    EXPECT_TRUE(rep.result.snapshotTaken);
    bool diverged = !rep.status.ok() ||
                    rep.result.stop != StopReason::Halted ||
                    rep.result.output != base.result.output;
    EXPECT_TRUE(diverged);
}
