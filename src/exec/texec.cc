/**
 * @file
 * The directly-threaded executor. One computed-goto dispatch per
 * straight-line instruction; one dispatch per control-transfer *group*
 * (the branch and both delay slots execute fused, including squash
 * cycles and the load interlock) — the per-block epilogue of the
 * translation scheme (docs/BACKEND.md).
 *
 * Equivalence discipline: every accounting rule of machine/machine.cc's
 * runLoop() is reproduced at the same sequence point — the cycle-limit
 * guard runs before every instruction step (including each delay-slot
 * and squash step), the load interlock charges the stalled reader and
 * always clears, squashed cycles charge the branch's annotation, traps
 * charge before redirecting, and Div/Rem/memory errors stop before any
 * register or memory write. Per-index execution/stall/squash counters
 * are folded into a CycleStats once at run end; an assertion checks the
 * rebuilt total against the live cycle counter on every run.
 *
 * Pause and resume live off the hot path. A paused run is two executor
 * calls ("legs"): an armed cycle pause only lowers the first leg's
 * cycle guard limit, and an armed call pause runs the first leg on a
 * private copy of the ops whose Jal/Jalr handlers count calls first.
 * When either fires, the leg returns its state, resume point (pc,
 * delay slots left) included, as a MachineSnapshot; the second leg
 * starts from that snapshot through a cold path that replays any
 * remaining delay-slot steps one at a time, as the interpreter's loop
 * does. Each leg sees one fixed image mapping, so the hot loop's
 * memory base stays a constant. The executor writes the image through
 * Memory::untrackedData(); a pause re-derives the dirty-page bitmap
 * (Memory::markWritten) before the image leaves the leg.
 */

#include "exec/texec.h"

#include <algorithm>
#include <chrono>

#include "exec/texec_internal.h"
#include "machine/snapshot.h"
#include "support/bits.h"
#include "support/format.h"
#include "support/panic.h"

namespace mxl {

namespace {

/** Must match core/run.cc's deadline chunking. */
constexpr uint64_t kDeadlineChunkCycles = 1'000'000;

/**
 * Re-raise an executor panic with the same context suffix
 * Machine::runGuarded() appends: pc, nearest preceding symbol, cycle.
 */
[[noreturn]] void
contextPanic(const Program &prog, int pc, uint64_t cycle,
             const std::string &msg)
{
    std::string near;
    for (const auto &[name, idx] : prog.symbols) {
        if (idx <= pc && (near.empty() || idx > prog.symbols.at(near)))
            near = name;
    }
    throw MxlError(MxlError::Kind::Panic,
                   strcat("panic: ", msg, " [at pc=", pc, " near '", near,
                          "', cycle ", cycle, "]"));
}

/**
 * Add the per-index counters' accounting to @p st: the interpreter's
 * CycleStats attribution, rebuilt once instead of per issue.
 */
void
foldCounts(const std::vector<Instruction> &code, const uint64_t *EC,
           const uint64_t *ST, const uint64_t *SQ, int n, CycleStats &st)
{
    for (int i = 0; i < n; ++i) {
        const uint64_t e = EC[i], stl = ST[i], sq = SQ[i];
        if ((e | stl | sq) == 0)
            continue;
        const Instruction &inst = code[i];
        const int f = inst.ann.fromChecking ? 1 : 0;
        const uint64_t charged =
            e * static_cast<uint64_t>(opCycles(inst.op)) + stl + sq;
        st.total += charged;
        st.byPurpose[static_cast<int>(inst.ann.purpose)][f] += charged;
        st.byCat[static_cast<int>(inst.ann.cat)][f] += charged;
        st.loadStalls += stl;
        st.squashed += sq;
        if (e == 0)
            continue;
        st.instructions += e;
        switch (inst.op) {
          case Opcode::And:
          case Opcode::Andi:
            st.andOps += e;
            break;
          case Opcode::Mov:
            st.moveOps += e;
            break;
          case Opcode::Noop:
            st.noops += e;
            break;
          case Opcode::Ld:
          case Opcode::Ldt:
            st.loads += e;
            break;
          case Opcode::St:
          case Opcode::Stt:
            st.stores += e;
            break;
          default:
            if (isCondBranch(inst.op))
                st.branches += e;
            break;
        }
    }
}

/**
 * Add the counters to the per-PC profile: an issue count is EC[i], and
 * every cycle charged to i is EC[i] * opCycles + its stalls + its
 * squashed slots — Machine::attachProfile's attribution exactly.
 */
void
addProfile(PcProfile &prof, const TranslatedOp *ops, const uint64_t *EC,
           const uint64_t *ST, const uint64_t *SQ, int n)
{
    for (int i = 0; i < n; ++i) {
        prof.execCount[i] += EC[i];
        prof.cycles[i] += EC[i] * ops[i].cycles + ST[i] + SQ[i];
    }
}

/** What one executor call does besides running (see runLegs). */
struct Leg
{
    /** Origin of the wall-clock deadline, shared by both legs. */
    std::chrono::steady_clock::time_point start;
    /** Start from this paused state (its memory and locks are already
     *  the image and lock table). */
    const MachineSnapshot *from = nullptr;
    /** Pause into this snapshot when an armed trigger below fires; null
     *  for a leg that must not pause. */
    MachineSnapshot *pauseInto = nullptr;
    /** Pause once cycles pass this (0 = not armed). */
    uint64_t pauseAtCycle = 0;
    /** Pause before the issue of the call with this 0-based index; the
     *  ops must then be a copy whose calls run the TC_ handlers. */
    uint64_t pauseAtCall = 0;
    /** The ops to run: the unit's, or an armed call pause's copy. */
    const TranslatedOp *ops = nullptr;
    /** Add the per-index counters here (collectProfile). */
    PcProfile *prof = nullptr;
};

#if defined(__GNUC__)

/**
 * The executor. When @p labelsOut is non-null this is a *bind* call:
 * the function publishes its handler-label table (indexed by TKind)
 * and returns without touching the other arguments. GCC resolves
 * &&label identically on every call of the same function, so the
 * table bound here is valid for all later run calls.
 *
 * A leg that pauses returns with RunResult::snapshotTaken set, its
 * state in *leg.pauseInto and the image moved there; nothing else in
 * the result is meaningful.
 */
RunResult
coreRun(const CompiledUnit &unit, const TranslatedUnit &tu, Memory &image,
        ZeroPages &locks, const TranslatedControls &controls,
        const Leg &leg, const void *const **labelsOut)
{
    if (labelsOut) {
        // Order must match TKind (texec_internal.h).
        static const void *const table[kNumTKinds] = {
            &&L_Add, &&L_Sub, &&L_And, &&L_Or, &&L_Xor, &&L_Sll, &&L_Srl,
            &&L_Sra, &&L_Mul, &&L_Div, &&L_Rem,
            &&L_Addi, &&L_Andi, &&L_Ori, &&L_Xori, &&L_Slli, &&L_Srli,
            &&L_Srai,
            &&L_Li, &&L_Mov, &&L_Noop,
            &&L_Ld, &&L_St, &&L_Ldt, &&L_Stt,
            &&L_LdM, &&L_StM, &&L_LdtM, &&L_SttM,
            &&L_AddtHigh, &&L_SubtHigh, &&L_AddtLow, &&L_SubtLow,
            &&L_SysHalt, &&L_SysPutChar, &&L_SysPutFixRaw, &&L_SysPutFix,
            &&L_SysError,
            &&L_Beq, &&L_Bne, &&L_Blt, &&L_Bge, &&L_Ble, &&L_Bgt,
            &&L_Beqi, &&L_Bnei, &&L_Btag, &&L_Bntag,
            &&L_J, &&L_Jal, &&L_Jr, &&L_Jalr,
            &&L_End,
            &&L_F_Addi_St, &&L_F_St_Ld, &&L_F_St_St, &&L_F_And_Ld,
            &&L_F_Ld_Srli, &&L_F_Ld_Addi, &&L_F_Ld_And, &&L_F_Ld_Ld,
            &&L_F_Ld_Li, &&L_F_Mov_Ld, &&L_F_Slli_Srai, &&L_F_Addi_Ld,
            &&L_F_St_Li, &&L_F_Ld_Slli,
            &&L_C_Jal, &&L_C_Jalr,
        };
        *labelsOut = table;
        return {};
    }

    const TranslatedOp *const ops = leg.ops;
    const int n = static_cast<int>(tu.nInsts);
    MXL_ASSERT(tu.entry >= 0 && tu.entry < n, "bad entry point");

    // Machine state. Slot 32 is the write sink for rd == 0 (reads of
    // r0 always see the never-written regs[0] == 0).
    uint32_t regs[33] = {};
    uint32_t *const mem = image.untrackedData();
    const uint32_t nWords = image.size() / 4;
    int pending = -1; // load-interlock register, -1 none

    // Memory-tagging locks (memTagging units only): each lock is stored
    // XOR kMemTagUnpainted, as in Machine, read through bytes() and
    // written through touch() so the table's dirty pages stay exact. A
    // word past the table (a resumed snapshot may carry any size) is
    // unchecked, like Machine::memTagAccess.
    const uint8_t *const lockBytes = locks.bytes();
    const uint32_t nLocks = static_cast<uint32_t>(locks.size());
    constexpr uint8_t kUnpainted = Machine::kMemTagUnpainted;
    const bool lowTags = tu.lowTags;
    uint64_t callsBeforePause = leg.pauseAtCall; // TC_ handlers only

    // Per-index accounting, folded into CycleStats at the end.
    std::vector<uint64_t> counts(static_cast<size_t>(n) * 3, 0);
    uint64_t *const EC = counts.data();          // executions
    uint64_t *const ST = EC + n;                 // stall cycles
    uint64_t *const SQ = ST + n;                 // squash cycles
    uint64_t cycles = 0;
    RunResult r; // r.stats: the accounting the counters add onto

    int trapHandler[3] = {-1, -1, -1};
    if (controls.installTrapHandlers) {
        trapHandler[static_cast<int>(TrapKind::ArithFail)] = tu.arithTrap;
        trapHandler[static_cast<int>(TrapKind::TagMismatch)] = tu.tagTrap;
    }

    // Scheme/hardware constants.
    const uint32_t tagShift = tu.tagShift;
    const uint32_t tagMask = tu.tagMask;
    const uint32_t detagMask = tu.detagMask;
    const uint32_t memMask = tu.memMask;
    const unsigned dataBits = tu.dataBits;

    // Budget: effLimit == maxCycles without a deadline; with one, the
    // run pauses every kDeadlineChunkCycles to poll the wall clock,
    // exactly like runUnitOn()'s Machine::resume chunking. An armed
    // snapshot pause (at most one per run) caps effLimit too, so the
    // guard that fires for it is the one every step already runs.
    const uint64_t maxCycles = controls.maxCycles;
    const bool deadlined = controls.deadlineSeconds > 0;
    const auto start = leg.start;
    const uint64_t pauseAt = leg.pauseAtCycle;
    bool pauseArmed = pauseAt > 0;
    auto nextLimit = [&]() -> uint64_t {
        const uint64_t lim =
            deadlined ? std::min(maxCycles, cycles + kDeadlineChunkCycles)
                      : maxCycles;
        return pauseArmed ? std::min(lim, pauseAt) : lim;
    };
    uint64_t effLimit = nextLimit();

    StopReason stop = StopReason::Running;
    int64_t errorCode = 0;
    uint32_t exitValue = 0;
    int faultIndex = -1;
    bool timedOut = false;
    std::string out;

    // True when the run must leave the hot loop: for the armed snapshot
    // pause (checked first: runUnitOn() pauses before it looks at the
    // budget again; `stop` stays Running) or a stop (cycle limit /
    // deadline; `stop` set). False when only the deadline-poll chunk
    // expired and execution continues.
    auto overBudget = [&]() -> bool {
        if (pauseArmed && cycles > pauseAt) {
            pauseArmed = false;
            return true;
        }
        if (cycles > maxCycles) {
            stop = StopReason::CycleLimit;
            return true;
        }
        if (deadlined && std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                                 .count() >= controls.deadlineSeconds) {
            timedOut = true;
            stop = StopReason::CycleLimit;
            return true;
        }
        effLimit = nextLimit();
        return false;
    };

#define IDX(p) ((p)->idx)

    // The loop-top cycle guard: runs before every step, like runLoop().
    // EXIT names the kind of guard site, a cold label that works out
    // the step about to run (its instruction index and the delay slots
    // left in its control group: the resume point a snapshot taken here
    // records), so a site costs no more than a plain guard.
#define BUDGET(EXIT)                                                        \
    do {                                                                    \
        if (__builtin_expect(cycles > effLimit, 0)) {                       \
            if (overBudget())                                               \
                goto EXIT;                                                  \
        }                                                                   \
    } while (0)

    // Issue one instruction at *p: load interlock, execution count,
    // base cycle charge. Mirrors observeIssue + the stall check +
    // chargeAndCount's charge.
#define ISSUE(p)                                                            \
    do {                                                                    \
        if (pending >= 0) {                                                 \
            if (((p)->readMask >> pending) & 1u) {                          \
                cycles++;                                                   \
                ST[IDX(p)]++;                                               \
            }                                                               \
            pending = -1;                                                   \
        }                                                                   \
        EC[IDX(p)]++;                                                       \
        cycles += (p)->cycles;                                              \
    } while (0)

#define NEXT(nip)                                                           \
    do {                                                                    \
        ip = (nip);                                                         \
        BUDGET(exit_at_ip);                                                 \
        goto *const_cast<void *>(ip->handler);                              \
    } while (0)

#define STOP_ILLEGAL(p, a)                                                  \
    do {                                                                    \
        errorCode = static_cast<int64_t>(a);                                \
        faultIndex = static_cast<int>(IDX(p));                              \
        stop = StopReason::IllegalAccess;                                   \
        goto done;                                                          \
    } while (0)

#define STOP_DIV0()                                                         \
    do {                                                                    \
        errorCode = kDivideByZeroCode;                                      \
        stop = StopReason::Errored;                                         \
        goto done;                                                          \
    } while (0)

    // Take a trap at ip with @p kind; @p scratchVal is what
    // abi::scratch holds on entry to the handler (the trap kind, or
    // the Addt/Subt op code which overwrites it).
#define TRAP(kind, scratchVal)                                              \
    do {                                                                    \
        const int h_ = trapHandler[static_cast<int>(kind)];                 \
        if (h_ < 0) {                                                       \
            errorCode =                                                     \
                encodeUnhandledTrap(kind, static_cast<int>(IDX(ip)));       \
            faultIndex = static_cast<int>(IDX(ip));                         \
            stop = StopReason::Errored;                                     \
            goto done;                                                      \
        }                                                                   \
        regs[abi::trapRet] =                                                \
            Machine::codeAddr(static_cast<int>(IDX(ip)) + 1);               \
        regs[abi::scratch] = static_cast<uint32_t>(scratchVal);             \
        NEXT(ops + h_);                                                     \
    } while (0)

    // One delay-slot instruction's semantics (issue accounting is done
    // by the caller). Only the kinds the translator admits into slots
    // can appear: non-control, non-trapping, non-Sys.
#define SLOT_EXEC(p)                                                        \
    do {                                                                    \
        const TranslatedOp *const s_ = (p);                                 \
        switch (s_->kind) {                                                 \
          case TAdd: regs[s_->wslot] = regs[s_->rs] + regs[s_->rt]; break;  \
          case TSub: regs[s_->wslot] = regs[s_->rs] - regs[s_->rt]; break;  \
          case TAnd: regs[s_->wslot] = regs[s_->rs] & regs[s_->rt]; break;  \
          case TOr:  regs[s_->wslot] = regs[s_->rs] | regs[s_->rt]; break;  \
          case TXor: regs[s_->wslot] = regs[s_->rs] ^ regs[s_->rt]; break;  \
          case TSll:                                                        \
            regs[s_->wslot] = regs[s_->rs] << (regs[s_->rt] & 31u);         \
            break;                                                          \
          case TSrl:                                                        \
            regs[s_->wslot] = regs[s_->rs] >> (regs[s_->rt] & 31u);         \
            break;                                                          \
          case TSra:                                                        \
            regs[s_->wslot] = static_cast<uint32_t>(                        \
                static_cast<int32_t>(regs[s_->rs]) >>                       \
                (regs[s_->rt] & 31u));                                      \
            break;                                                          \
          case TMul:                                                        \
            regs[s_->wslot] = static_cast<uint32_t>(                        \
                static_cast<int32_t>(regs[s_->rs]) *                        \
                static_cast<int64_t>(                                       \
                    static_cast<int32_t>(regs[s_->rt])));                   \
            break;                                                          \
          case TDiv:                                                        \
            if (static_cast<int32_t>(regs[s_->rt]) == 0)                    \
                STOP_DIV0();                                                \
            regs[s_->wslot] = static_cast<uint32_t>(                        \
                static_cast<int32_t>(regs[s_->rs]) /                        \
                static_cast<int32_t>(regs[s_->rt]));                        \
            break;                                                          \
          case TRem:                                                        \
            if (static_cast<int32_t>(regs[s_->rt]) == 0)                    \
                STOP_DIV0();                                                \
            regs[s_->wslot] = static_cast<uint32_t>(                        \
                static_cast<int32_t>(regs[s_->rs]) %                        \
                static_cast<int32_t>(regs[s_->rt]));                        \
            break;                                                          \
          case TAddi:                                                       \
            regs[s_->wslot] =                                               \
                regs[s_->rs] + s_->uimm;              \
            break;                                                          \
          case TAndi:                                                       \
            regs[s_->wslot] =                                               \
                regs[s_->rs] & s_->uimm;              \
            break;                                                          \
          case TOri:                                                        \
            regs[s_->wslot] =                                               \
                regs[s_->rs] | s_->uimm;              \
            break;                                                          \
          case TXori:                                                       \
            regs[s_->wslot] =                                               \
                regs[s_->rs] ^ s_->uimm;              \
            break;                                                          \
          case TSlli:                                                       \
            regs[s_->wslot] = regs[s_->rs] << (s_->uimm & 31);               \
            break;                                                          \
          case TSrli:                                                       \
            regs[s_->wslot] = regs[s_->rs] >> (s_->uimm & 31);               \
            break;                                                          \
          case TSrai:                                                       \
            regs[s_->wslot] = static_cast<uint32_t>(                        \
                static_cast<int32_t>(regs[s_->rs]) >> (s_->uimm & 31));      \
            break;                                                          \
          case TLi:                                                         \
            regs[s_->wslot] = s_->uimm;               \
            break;                                                          \
          case TMov: regs[s_->wslot] = regs[s_->rs]; break;                 \
          case TNoop: break;                                                \
          case TLd: {                                                       \
            const uint32_t a_ =                                             \
                (regs[s_->rs] + s_->uimm) & memMask;  \
            if ((a_ >> 2) >= nWords)                                        \
                STOP_ILLEGAL(s_, a_);                                       \
            regs[s_->wslot] = mem[a_ >> 2];                                 \
            pending = s_->pendReg;                                          \
            break;                                                          \
          }                                                                 \
          case TSt: {                                                       \
            const uint32_t a_ =                                             \
                (regs[s_->rs] + s_->uimm) & memMask;  \
            if ((a_ >> 2) >= nWords)                                        \
                STOP_ILLEGAL(s_, a_);                                       \
            mem[a_ >> 2] = regs[s_->rt];                                    \
            break;                                                          \
          }                                                                 \
          case TLdM: {                                                      \
            const uint32_t b_ = regs[s_->rs];                               \
            const uint32_t a_ = (b_ + s_->uimm) & memMask;                  \
            if ((a_ >> 2) >= nWords)                                        \
                STOP_ILLEGAL(s_, a_);                                       \
            MEMTAG_LOAD(b_, a_, MEMTAG_SLOT_TRAP);                          \
            regs[s_->wslot] = mem[a_ >> 2];                                 \
            pending = s_->pendReg;                                          \
            break;                                                          \
          }                                                                 \
          case TStM: {                                                      \
            const uint32_t b_ = regs[s_->rs];                               \
            const uint32_t a_ = (b_ + s_->uimm) & memMask;                  \
            if ((a_ >> 2) >= nWords)                                        \
                STOP_ILLEGAL(s_, a_);                                       \
            MEMTAG_STORE(b_, a_);                                           \
            mem[a_ >> 2] = regs[s_->rt];                                    \
            break;                                                          \
          }                                                                 \
          default:                                                          \
            panic("unexpected opcode in a delay slot");                     \
        }                                                                   \
    } while (0)

    // Semantic actions shared by standalone and fused-pair handlers
    // (issue accounting and dispatch stay with the caller). Only the
    // kinds that participate in fusion need one.
#define SEM_ADDI(p) (regs[(p)->wslot] = regs[(p)->rs] + (p)->uimm)
#define SEM_AND(p) (regs[(p)->wslot] = regs[(p)->rs] & regs[(p)->rt])
#define SEM_SLLI(p) (regs[(p)->wslot] = regs[(p)->rs] << ((p)->uimm & 31))
#define SEM_SRLI(p) (regs[(p)->wslot] = regs[(p)->rs] >> ((p)->uimm & 31))
#define SEM_SRAI(p)                                                         \
    (regs[(p)->wslot] = static_cast<uint32_t>(                              \
         static_cast<int32_t>(regs[(p)->rs]) >> ((p)->uimm & 31)))
#define SEM_LI(p) (regs[(p)->wslot] = (p)->uimm)
#define SEM_MOV(p) (regs[(p)->wslot] = regs[(p)->rs])
#define SEM_LD(p)                                                           \
    do {                                                                    \
        const uint32_t a_ = (regs[(p)->rs] + (p)->uimm) & memMask;          \
        if ((a_ >> 2) >= nWords)                                            \
            STOP_ILLEGAL(p, a_);                                            \
        regs[(p)->wslot] = mem[a_ >> 2];                                    \
        pending = (p)->pendReg;                                             \
    } while (0)
#define SEM_ST(p)                                                           \
    do {                                                                    \
        const uint32_t a_ = (regs[(p)->rs] + (p)->uimm) & memMask;          \
        if ((a_ >> 2) >= nWords)                                            \
            STOP_ILLEGAL(p, a_);                                            \
        mem[a_ >> 2] = regs[(p)->rt];                                       \
    } while (0)

    // Memory-tagging hardware: Machine::memTagAccess for an access to
    // in-bounds word address a_ through base-register word b_. A fixnum
    // base is raw: a raw store releases the lock, a raw load bypasses
    // it. A keyed store repaints; a keyed load paints an unpainted word
    // and calls MISMATCH(lock) when the word's lock is another key.
#define IS_FIXNUM(w)                                                        \
    (lowTags ? ((w) & 3u) == 0                                              \
             : static_cast<uint32_t>(signExtend((w), dataBits)) == (w))
#define MEMTAG_LOAD(b_, a_, MISMATCH)                                       \
    do {                                                                    \
        const uint32_t w_ = (a_) >> 2;                                      \
        if (w_ < nLocks && !IS_FIXNUM(b_)) {                                \
            const uint8_t key_ =                                            \
                static_cast<uint8_t>(((b_) >> tagShift) & tagMask);         \
            const uint8_t lock_ = lockBytes[w_] ^ kUnpainted;               \
            if (lock_ == kUnpainted)                                        \
                *locks.touch(w_) = key_ ^ kUnpainted;                       \
            else if (lock_ != key_)                                         \
                MISMATCH(b_, lock_);                                        \
        }                                                                   \
    } while (0)
#define MEMTAG_STORE(b_, a_)                                                \
    do {                                                                    \
        const uint32_t w_ = (a_) >> 2;                                      \
        if (w_ < nLocks) {                                                  \
            if (!IS_FIXNUM(b_))                                             \
                *locks.touch(w_) = static_cast<uint8_t>(                    \
                    (((b_) >> tagShift) & tagMask) ^ kUnpainted);           \
            else if (lockBytes[w_] != 0)                                    \
                *locks.touch(w_) = 0;                                       \
        }                                                                   \
    } while (0)
    // The memory-tag trap of the op at ip.
#define MEMTAG_TRAP(b_, lock_)                                              \
    do {                                                                    \
        regs[abi::trapA] = (b_);                                            \
        regs[abi::trapB] = (lock_);                                         \
        TRAP(TrapKind::TagMismatch,                                         \
             static_cast<int>(TrapKind::TagMismatch));                      \
    } while (0)
    // The memory-tag trap of a delay-slot op at s_: Machine's loop stops
    // the run when no handler is installed and asserts otherwise (a
    // handler would redirect from inside the group).
#define MEMTAG_SLOT_TRAP(b_, lock_)                                         \
    do {                                                                    \
        regs[abi::trapA] = (b_);                                            \
        regs[abi::trapB] = (lock_);                                         \
        const int h_ =                                                      \
            trapHandler[static_cast<int>(TrapKind::TagMismatch)];           \
        if (h_ >= 0)                                                        \
            contextPanic(unit.prog, h_, cycles, "trap in a delay slot");    \
        errorCode = encodeUnhandledTrap(TrapKind::TagMismatch,              \
                                        static_cast<int>(IDX(s_)));         \
        faultIndex = static_cast<int>(IDX(s_));                             \
        stop = StopReason::Errored;                                         \
        goto done;                                                          \
    } while (0)

    // A fused pair: two instructions, one dispatch. Both sequence
    // points are intact — the cycle guard runs between the halves and
    // the second half does its own interlock check, so the accounting
    // is bit-for-bit what two standalone dispatches produce.
#define FUSED2(SEMA, SEMB)                                                  \
    do {                                                                    \
        ISSUE(ip);                                                          \
        SEMA(ip);                                                           \
        const TranslatedOp *const q_ = ip + 1;                              \
        BUDGET(exit_mid_pair);                                              \
        ISSUE(q_);                                                          \
        SEMB(q_);                                                           \
        NEXT(ip + 2);                                                       \
    } while (0)

    const TranslatedOp *ip = ops + tu.entry;
    // Shared control-group tail state (set by every branch handler).
    const TranslatedOp *br = nullptr;
    int btarget = -1;
    bool btaken = false;

    // Pause/resume state: the resume point a guard exit records, and the
    // branch fields a loaded snapshot carries (Machine's in-flight
    // branch state — stale once its group is done, but part of the
    // snapshot encoding) until a branch runs here and br takes over.
    int atPc = tu.entry;
    int atSlots = 0;
    int staleIdx = -1;
    int staleTarget = -1;
    bool staleTaken = false;
    bool staleAnnul = false;

    if (leg.from)
        goto load_state;
    NEXT(ip);

    // ------------------------------------------------------------------
    // Straight-line handlers (also reachable mid-block via trap returns
    // and computed jumps; delay-slot positions keep standalone handlers
    // for exactly that case).
    // ------------------------------------------------------------------

L_Add:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] + regs[ip->rt];
    NEXT(ip + 1);
L_Sub:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] - regs[ip->rt];
    NEXT(ip + 1);
L_And:
    ISSUE(ip);
    SEM_AND(ip);
    NEXT(ip + 1);
L_Or:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] | regs[ip->rt];
    NEXT(ip + 1);
L_Xor:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] ^ regs[ip->rt];
    NEXT(ip + 1);
L_Sll:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] << (regs[ip->rt] & 31u);
    NEXT(ip + 1);
L_Srl:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] >> (regs[ip->rt] & 31u);
    NEXT(ip + 1);
L_Sra:
    ISSUE(ip);
    regs[ip->wslot] = static_cast<uint32_t>(
        static_cast<int32_t>(regs[ip->rs]) >> (regs[ip->rt] & 31u));
    NEXT(ip + 1);
L_Mul:
    ISSUE(ip);
    regs[ip->wslot] = static_cast<uint32_t>(
        static_cast<int32_t>(regs[ip->rs]) *
        static_cast<int64_t>(static_cast<int32_t>(regs[ip->rt])));
    NEXT(ip + 1);
L_Div:
    ISSUE(ip);
    if (static_cast<int32_t>(regs[ip->rt]) == 0)
        STOP_DIV0();
    regs[ip->wslot] =
        static_cast<uint32_t>(static_cast<int32_t>(regs[ip->rs]) /
                              static_cast<int32_t>(regs[ip->rt]));
    NEXT(ip + 1);
L_Rem:
    ISSUE(ip);
    if (static_cast<int32_t>(regs[ip->rt]) == 0)
        STOP_DIV0();
    regs[ip->wslot] =
        static_cast<uint32_t>(static_cast<int32_t>(regs[ip->rs]) %
                              static_cast<int32_t>(regs[ip->rt]));
    NEXT(ip + 1);
L_Addi:
    ISSUE(ip);
    SEM_ADDI(ip);
    NEXT(ip + 1);
L_Andi:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] & ip->uimm;
    NEXT(ip + 1);
L_Ori:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] | ip->uimm;
    NEXT(ip + 1);
L_Xori:
    ISSUE(ip);
    regs[ip->wslot] = regs[ip->rs] ^ ip->uimm;
    NEXT(ip + 1);
L_Slli:
    ISSUE(ip);
    SEM_SLLI(ip);
    NEXT(ip + 1);
L_Srli:
    ISSUE(ip);
    SEM_SRLI(ip);
    NEXT(ip + 1);
L_Srai:
    ISSUE(ip);
    SEM_SRAI(ip);
    NEXT(ip + 1);
L_Li:
    ISSUE(ip);
    SEM_LI(ip);
    NEXT(ip + 1);
L_Mov:
    ISSUE(ip);
    SEM_MOV(ip);
    NEXT(ip + 1);
L_Noop:
    ISSUE(ip);
    NEXT(ip + 1);

L_Ld:
    ISSUE(ip);
    SEM_LD(ip);
    NEXT(ip + 1);
L_St:
    ISSUE(ip);
    SEM_ST(ip);
    NEXT(ip + 1);
L_Ldt: {
    ISSUE(ip);
    const uint32_t w = regs[ip->rs];
    if (((w >> tagShift) & tagMask) != ip->timm) {
        regs[abi::trapA] = w;
        regs[abi::trapB] = ip->timm;
        TRAP(TrapKind::TagMismatch,
             static_cast<int>(TrapKind::TagMismatch));
    }
    const uint32_t a =
        ((w & detagMask) + ip->uimm) & memMask;
    if ((a >> 2) >= nWords)
        STOP_ILLEGAL(ip, a);
    regs[ip->wslot] = mem[a >> 2];
    pending = ip->pendReg;
    NEXT(ip + 1);
}
L_Stt: {
    ISSUE(ip);
    const uint32_t w = regs[ip->rs];
    if (((w >> tagShift) & tagMask) != ip->timm) {
        regs[abi::trapA] = w;
        regs[abi::trapB] = ip->timm;
        TRAP(TrapKind::TagMismatch,
             static_cast<int>(TrapKind::TagMismatch));
    }
    const uint32_t a =
        ((w & detagMask) + ip->uimm) & memMask;
    if ((a >> 2) >= nWords)
        STOP_ILLEGAL(ip, a);
    mem[a >> 2] = regs[ip->rt];
    NEXT(ip + 1);
}

    // Memory under memory-tagging hardware: bounds, then the lock/key
    // check on the raw base register, then the access (Machine::execute).
L_LdM: {
    ISSUE(ip);
    const uint32_t b = regs[ip->rs];
    const uint32_t a = (b + ip->uimm) & memMask;
    if ((a >> 2) >= nWords)
        STOP_ILLEGAL(ip, a);
    MEMTAG_LOAD(b, a, MEMTAG_TRAP);
    regs[ip->wslot] = mem[a >> 2];
    pending = ip->pendReg;
    NEXT(ip + 1);
}
L_StM: {
    ISSUE(ip);
    const uint32_t b = regs[ip->rs];
    const uint32_t a = (b + ip->uimm) & memMask;
    if ((a >> 2) >= nWords)
        STOP_ILLEGAL(ip, a);
    MEMTAG_STORE(b, a);
    mem[a >> 2] = regs[ip->rt];
    NEXT(ip + 1);
}
L_LdtM: {
    ISSUE(ip);
    const uint32_t w = regs[ip->rs];
    if (((w >> tagShift) & tagMask) != ip->timm) {
        regs[abi::trapA] = w;
        regs[abi::trapB] = ip->timm;
        TRAP(TrapKind::TagMismatch,
             static_cast<int>(TrapKind::TagMismatch));
    }
    const uint32_t a = ((w & detagMask) + ip->uimm) & memMask;
    if ((a >> 2) >= nWords)
        STOP_ILLEGAL(ip, a);
    MEMTAG_LOAD(w, a, MEMTAG_TRAP);
    regs[ip->wslot] = mem[a >> 2];
    pending = ip->pendReg;
    NEXT(ip + 1);
}
L_SttM: {
    ISSUE(ip);
    const uint32_t w = regs[ip->rs];
    if (((w >> tagShift) & tagMask) != ip->timm) {
        regs[abi::trapA] = w;
        regs[abi::trapB] = ip->timm;
        TRAP(TrapKind::TagMismatch,
             static_cast<int>(TrapKind::TagMismatch));
    }
    const uint32_t a = ((w & detagMask) + ip->uimm) & memMask;
    if ((a >> 2) >= nWords)
        STOP_ILLEGAL(ip, a);
    MEMTAG_STORE(w, a);
    mem[a >> 2] = regs[ip->rt];
    NEXT(ip + 1);
}

    // Trapping tagged arithmetic. High-tag: §4.1 method 2, the fixnum
    // test is sign-extend-and-compare; low-tag: both low schemes tag
    // fixnums 00 in the bottom bits. A failed op latches the operands
    // in trapA/trapB and leaves the op code (1=addt, 2=subt) in
    // scratch, exactly like Machine::execute.
L_AddtHigh: {
    ISSUE(ip);
    const uint32_t a = regs[ip->rs], b = regs[ip->rt];
    if (static_cast<uint32_t>(signExtend(a, dataBits)) == a &&
        static_cast<uint32_t>(signExtend(b, dataBits)) == b) {
        const int64_t v = static_cast<int64_t>(signExtend(a, dataBits)) +
                          signExtend(b, dataBits);
        if (fitsSigned(v, dataBits)) {
            regs[ip->wslot] = static_cast<uint32_t>(v & 0xffffffff);
            NEXT(ip + 1);
        }
    }
    regs[abi::trapA] = a;
    regs[abi::trapB] = b;
    TRAP(TrapKind::ArithFail, 1);
}
L_SubtHigh: {
    ISSUE(ip);
    const uint32_t a = regs[ip->rs], b = regs[ip->rt];
    if (static_cast<uint32_t>(signExtend(a, dataBits)) == a &&
        static_cast<uint32_t>(signExtend(b, dataBits)) == b) {
        const int64_t v = static_cast<int64_t>(signExtend(a, dataBits)) -
                          signExtend(b, dataBits);
        if (fitsSigned(v, dataBits)) {
            regs[ip->wslot] = static_cast<uint32_t>(v & 0xffffffff);
            NEXT(ip + 1);
        }
    }
    regs[abi::trapA] = a;
    regs[abi::trapB] = b;
    TRAP(TrapKind::ArithFail, 2);
}
L_AddtLow: {
    ISSUE(ip);
    const uint32_t a = regs[ip->rs], b = regs[ip->rt];
    if (((a | b) & 3u) == 0) {
        const int64_t v =
            static_cast<int64_t>(static_cast<int32_t>(a) >> 2) +
            (static_cast<int32_t>(b) >> 2);
        if (fitsSigned(v, 30)) {
            regs[ip->wslot] = static_cast<uint32_t>(v) << 2;
            NEXT(ip + 1);
        }
    }
    regs[abi::trapA] = a;
    regs[abi::trapB] = b;
    TRAP(TrapKind::ArithFail, 1);
}
L_SubtLow: {
    ISSUE(ip);
    const uint32_t a = regs[ip->rs], b = regs[ip->rt];
    if (((a | b) & 3u) == 0) {
        const int64_t v =
            static_cast<int64_t>(static_cast<int32_t>(a) >> 2) -
            (static_cast<int32_t>(b) >> 2);
        if (fitsSigned(v, 30)) {
            regs[ip->wslot] = static_cast<uint32_t>(v) << 2;
            NEXT(ip + 1);
        }
    }
    regs[abi::trapA] = a;
    regs[abi::trapB] = b;
    TRAP(TrapKind::ArithFail, 2);
}

L_SysHalt:
    ISSUE(ip);
    exitValue = regs[ip->rs];
    stop = StopReason::Halted;
    goto done;
L_SysPutChar:
    ISSUE(ip);
    out += static_cast<char>(regs[ip->rs] & 0xff);
    NEXT(ip + 1);
L_SysPutFixRaw:
    ISSUE(ip);
    out += strcat(static_cast<int32_t>(regs[ip->rs]));
    NEXT(ip + 1);
L_SysPutFix:
    ISSUE(ip);
    out += strcat(tu.lowTags
                      ? static_cast<int64_t>(
                            static_cast<int32_t>(regs[ip->rs]) >> 2)
                      : static_cast<int64_t>(
                            signExtend(regs[ip->rs], dataBits)));
    NEXT(ip + 1);
L_SysError:
    ISSUE(ip);
    errorCode = static_cast<int32_t>(regs[ip->rs]);
    stop = StopReason::Errored;
    goto done;

    // ------------------------------------------------------------------
    // Control transfers: resolve the condition, then run the whole
    // group (two delay slots or two squash cycles) in the shared tail.
    // ------------------------------------------------------------------

L_Beq:
    ISSUE(ip);
    btaken = regs[ip->rs] == regs[ip->rt];
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Bne:
    ISSUE(ip);
    btaken = regs[ip->rs] != regs[ip->rt];
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Blt:
    ISSUE(ip);
    btaken = static_cast<int32_t>(regs[ip->rs]) <
             static_cast<int32_t>(regs[ip->rt]);
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Bge:
    ISSUE(ip);
    btaken = static_cast<int32_t>(regs[ip->rs]) >=
             static_cast<int32_t>(regs[ip->rt]);
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Ble:
    ISSUE(ip);
    btaken = static_cast<int32_t>(regs[ip->rs]) <=
             static_cast<int32_t>(regs[ip->rt]);
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Bgt:
    ISSUE(ip);
    btaken = static_cast<int32_t>(regs[ip->rs]) >
             static_cast<int32_t>(regs[ip->rt]);
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Beqi:
    ISSUE(ip);
    btaken = static_cast<int32_t>(regs[ip->rs]) ==
             static_cast<int32_t>(ip->uimm);
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Bnei:
    ISSUE(ip);
    btaken = static_cast<int32_t>(regs[ip->rs]) !=
             static_cast<int32_t>(ip->uimm);
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Btag:
    ISSUE(ip);
    btaken = ((regs[ip->rs] >> tagShift) & tagMask) == ip->timm;
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Bntag:
    ISSUE(ip);
    btaken = ((regs[ip->rs] >> tagShift) & tagMask) != ip->timm;
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_J:
    ISSUE(ip);
    btaken = true;
    btarget = ip->target;
    br = ip;
    goto branch_common;
L_Jal:
    ISSUE(ip);
    btaken = true;
    btarget = ip->target;
    // Link written at resolve time, before the slots run.
    regs[ip->wslot] =
        Machine::codeAddr(static_cast<int>(IDX(ip)) + 3);
    br = ip;
    goto branch_common;
L_Jr:
    ISSUE(ip);
    btaken = true;
    btarget = static_cast<int>(regs[ip->rs] >> 2);
    br = ip;
    goto branch_common;
L_Jalr:
    ISSUE(ip);
    btaken = true;
    // Target reads rs before the link write (rd may alias rs).
    btarget = static_cast<int>(regs[ip->rs] >> 2);
    regs[ip->wslot] =
        Machine::codeAddr(static_cast<int>(IDX(ip)) + 3);
    br = ip;
    goto branch_common;

    // An armed call pause: the calls before the paused one run the plain
    // handlers; the paused one has not issued yet (Machine's run loop
    // pauses before observeIssue).
L_C_Jal:
    if (callsBeforePause-- == 0)
        goto exit_call;
    goto L_Jal;
L_C_Jalr:
    if (callsBeforePause-- == 0)
        goto exit_call;
    goto L_Jalr;

branch_common: {
    const int bidx = static_cast<int>(IDX(br));
    if (br->annul & (btaken ? 1 : 2)) {
        // Two squashed cycles, charged to the branch. The branch's own
        // issue already cleared the load interlock, matching the
        // interpreter's per-squash pendingLoadReg_ reset.
        BUDGET(exit_slot1);
        cycles++;
        SQ[bidx]++;
        BUDGET(exit_slot2);
        cycles++;
        SQ[bidx]++;
    } else {
        const TranslatedOp *s = br + 1;
        BUDGET(exit_slot1);
        ISSUE(s);
        SLOT_EXEC(s);
        s = br + 2;
        BUDGET(exit_slot2);
        ISSUE(s);
        SLOT_EXEC(s);
    }
    if (btaken) {
        if (btarget < 0 || btarget >= n)
            contextPanic(unit.prog, bidx + 2, cycles,
                         "bad branch target");
        NEXT(ops + btarget);
    }
    NEXT(br + 3);
}

    // ------------------------------------------------------------------
    // Fused pairs (installed as the first op's handler by the
    // translator; the second op keeps its standalone handler for
    // mid-pair entries).
    // ------------------------------------------------------------------

L_F_Addi_St:
    FUSED2(SEM_ADDI, SEM_ST);
L_F_St_Ld:
    FUSED2(SEM_ST, SEM_LD);
L_F_St_St:
    FUSED2(SEM_ST, SEM_ST);
L_F_And_Ld:
    FUSED2(SEM_AND, SEM_LD);
L_F_Ld_Srli:
    FUSED2(SEM_LD, SEM_SRLI);
L_F_Ld_Addi:
    FUSED2(SEM_LD, SEM_ADDI);
L_F_Ld_And:
    FUSED2(SEM_LD, SEM_AND);
L_F_Ld_Ld:
    FUSED2(SEM_LD, SEM_LD);
L_F_Ld_Li:
    FUSED2(SEM_LD, SEM_LI);
L_F_Mov_Ld:
    FUSED2(SEM_MOV, SEM_LD);
L_F_Slli_Srai:
    FUSED2(SEM_SLLI, SEM_SRAI);
L_F_Addi_Ld:
    FUSED2(SEM_ADDI, SEM_LD);
L_F_St_Li:
    FUSED2(SEM_ST, SEM_LI);
L_F_Ld_Slli:
    FUSED2(SEM_LD, SEM_SLLI);

L_End:
    // Fell off the end of the code (or a trap return landed there).
    contextPanic(unit.prog, n, cycles, strcat("pc out of range: ", n));

    // ------------------------------------------------------------------
    // Guard exits, the snapshot pause, and the cold re-entry path.
    // ------------------------------------------------------------------

exit_at_ip:
    atPc = static_cast<int>(ip - ops);
    atSlots = 0;
    goto budget_exit;
exit_mid_pair: // FUSED2's guard between the halves at ip and ip + 1
    atPc = static_cast<int>(ip + 1 - ops);
    atSlots = 0;
    goto budget_exit;
exit_slot1:
    atPc = static_cast<int>(IDX(br)) + 1;
    atSlots = 2;
    goto budget_exit;
exit_slot2:
    atPc = static_cast<int>(IDX(br)) + 2;
    atSlots = 1;
    goto budget_exit;
exit_call:
    atPc = static_cast<int>(ip - ops);
    atSlots = 0;
budget_exit: {
    // A stop, or the snapshot pause: the state Machine::snapshot()
    // captures at this guard. The image and locks move in (no copy),
    // the counters fold into the stats, and the leg ends.
    if (stop != StopReason::Running)
        goto done;
    MachineSnapshot &s = *leg.pauseInto;
    std::copy(regs, regs + 32, s.regs);
    s.pc = atPc;
    std::copy(trapHandler, trapHandler + 3, s.trapHandler);
    image.markWritten();
    s.memory = std::move(image);
    s.memTagLocks = std::move(locks);
    s.pendingLoadReg = pending;
    s.slotsRemaining = atSlots;
    if (br) {
        s.branchTaken = btaken;
        s.annulSlots = (br->annul & (btaken ? 1 : 2)) != 0;
        s.branchTarget = btarget;
        s.branchIdx = static_cast<int>(IDX(br));
    } else {
        s.branchTaken = staleTaken;
        s.annulSlots = staleAnnul;
        s.branchTarget = staleTarget;
        s.branchIdx = staleIdx;
    }
    s.stats = r.stats;
    foldCounts(unit.prog.code, EC, ST, SQ, n, s.stats);
    if (leg.prof)
        addProfile(*leg.prof, ops, EC, ST, SQ, n);
    s.output = std::move(out);
    s.exitValue = exitValue;
    s.errorCode = errorCode;
    s.stop = StopReason::CycleLimit;
    s.faultIndex = faultIndex;
    r.snapshotTaken = true;
    return r;
}

load_state: {
    // Adopt *leg.from wholesale, like Machine::restore() (the caller
    // already made its memory and locks the image and lock table).
    const MachineSnapshot &s = *leg.from;
    std::copy(s.regs, s.regs + 32, regs);
    // A handler past the code lands on the pc-out-of-range sentinel.
    for (int k = 0; k < 3; ++k)
        trapHandler[k] = std::min(s.trapHandler[k], n);
    // A register number outside 0..31 never matches a reader, and the
    // next issue clears it either way.
    pending = s.pendingLoadReg >= 0 && s.pendingLoadReg < 32
                  ? s.pendingLoadReg
                  : -1;
    atPc = s.pc;
    atSlots = s.slotsRemaining;
    staleTaken = s.branchTaken;
    staleAnnul = s.annulSlots;
    staleTarget = s.branchTarget;
    staleIdx = s.branchIdx;
    if (atSlots > 0 && staleAnnul && (staleIdx < 0 || staleIdx >= n))
        contextPanic(unit.prog, atPc, s.stats.total,
                     strcat("squashed slots of branch ", staleIdx,
                            " out of range"));
    r.stats = s.stats;
    cycles = s.stats.total;
    out = s.output;
    exitValue = s.exitValue;
    errorCode = s.errorCode;
    faultIndex = s.faultIndex;
    effLimit = nextLimit();
}

resume_at:
    // One interpreter loop step from the loaded state: the guard, then
    // either dispatch at atPc or one delay-slot step of the loaded
    // control group (a squash cycle or a slot instruction), repeated
    // until the group is done.
    BUDGET(budget_exit);
    if (atPc < 0 || atPc >= n)
        contextPanic(unit.prog, atPc, cycles,
                     strcat("pc out of range: ", atPc));
    if (atSlots <= 0) {
        ip = ops + atPc;
        goto *const_cast<void *>(ip->handler);
    }
    if (staleAnnul) {
        cycles++;
        SQ[staleIdx]++;
        pending = -1;
    } else {
        const TranslatedOp *const s = ops + atPc;
        ISSUE(s);
        SLOT_EXEC(s);
    }
    if (--atSlots == 0 && staleTaken) {
        if (staleTarget < 0 || staleTarget >= n)
            contextPanic(unit.prog, atPc, cycles, "bad branch target");
        atPc = staleTarget;
    } else {
        ++atPc;
    }
    goto resume_at;

done: {
    // ------------------------------------------------------------------
    // Fold the per-index counters into the interpreter's CycleStats.
    // ------------------------------------------------------------------
    foldCounts(unit.prog.code, EC, ST, SQ, n, r.stats);
    MXL_ASSERT(r.stats.total == cycles,
               "translated-backend cycle accounting diverged: rebuilt ",
               r.stats.total, " vs live ", cycles);
    if (leg.prof)
        addProfile(*leg.prof, ops, EC, ST, SQ, n);

    r.output = std::move(out);
    r.stop = stop;
    r.errorCode = errorCode;
    r.exitValue = exitValue;
    r.faultIndex = faultIndex;
    r.timedOut = timedOut;
    r.gcCount = image.load(tu.gcCountAddr);
    r.heapUsed = image.load(tu.heapUsedAddr);
    return r;
}

#undef FUSED2
#undef MEMTAG_SLOT_TRAP
#undef MEMTAG_TRAP
#undef MEMTAG_STORE
#undef MEMTAG_LOAD
#undef IS_FIXNUM
#undef SEM_ST
#undef SEM_LD
#undef SEM_MOV
#undef SEM_LI
#undef SEM_SRAI
#undef SEM_SRLI
#undef SEM_SLLI
#undef SEM_AND
#undef SEM_ADDI
#undef SLOT_EXEC
#undef TRAP
#undef STOP_DIV0
#undef STOP_ILLEGAL
#undef NEXT
#undef ISSUE
#undef BUDGET
#undef IDX
}

/**
 * Label-table retrieval: the addresses live inside coreRun, so they
 * are fetched through a one-time bind call. The function-local static
 * makes concurrent first calls race-free.
 */
const void *const *
labelTable()
{
    static const void *const *table = [] {
        const void *const *t = nullptr;
        CompiledUnit dummyUnit;
        TranslatedUnit dummyTu;
        Memory dummyMem(0);
        ZeroPages dummyLocks;
        TranslatedControls dummyControls;
        coreRun(dummyUnit, dummyTu, dummyMem, dummyLocks, dummyControls,
                Leg{}, &t);
        return t;
    }();
    return table;
}

#endif // __GNUC__

} // namespace

#if defined(__GNUC__)

namespace {

/**
 * Run on @p image and @p locks — from the entry point, or from @p from
 * (whose memory and locks they already are) — with the pause seam: a
 * run paused by its first leg hands the snapshot to the hook and
 * continues from it in a second leg, the counterpart of runUnitOn()'s
 * snapshot/restore/resume.
 */
RunResult
runLegs(const CompiledUnit &unit, const TranslatedUnit &tu, Memory &image,
        ZeroPages &locks, const MachineSnapshot *from,
        const TranslatedControls &controls)
{
    Leg leg;
    leg.start = std::chrono::steady_clock::now();
    leg.from = from;
    leg.ops = tu.ops.data();
    std::shared_ptr<PcProfile> prof;
    if (controls.collectProfile) {
        prof = std::make_shared<PcProfile>();
        prof->resize(tu.nInsts);
        leg.prof = prof.get();
    }
    std::unique_ptr<MachineSnapshot> paused;
    std::vector<TranslatedOp> callOps;
    if (controls.snapshotHook) {
        if (controls.pauseAtCycle > 0 &&
            controls.pauseAtCycle < controls.maxCycles)
            leg.pauseAtCycle = controls.pauseAtCycle;
        if (controls.pauseAtCall >= 0) {
            // The first leg's private ops: every call counts first.
            const void *const *labels = labelTable();
            callOps = tu.ops;
            for (TranslatedOp &op : callOps)
                if (op.kind == TJal || op.kind == TJalr)
                    op.handler = labels[op.kind == TJal ? TC_Jal : TC_Jalr];
            leg.ops = callOps.data();
            leg.pauseAtCall = static_cast<uint64_t>(controls.pauseAtCall);
        }
        if (leg.pauseAtCycle > 0 || !callOps.empty()) {
            paused = std::make_unique<MachineSnapshot>();
            leg.pauseInto = paused.get();
        }
    }
    RunResult r = coreRun(unit, tu, image, locks, controls, leg, nullptr);
    if (r.snapshotTaken) {
        const uint32_t bytes = paused->memory.size();
        controls.snapshotHook(*paused, unit);
        // The hook may have changed anything; the run stays paused.
        if (paused->memory.size() != bytes)
            panic("snapshot image size mismatch: ", paused->memory.size(),
                  " != ", bytes);
        image = std::move(paused->memory);
        locks = std::move(paused->memTagLocks);
        leg.from = paused.get();
        leg.pauseInto = nullptr;
        leg.pauseAtCycle = 0;
        leg.ops = tu.ops.data();
        r = coreRun(unit, tu, image, locks, controls, leg, nullptr);
        r.snapshotTaken = true;
    }
    r.profile = std::move(prof);
    return r;
}

} // namespace

const void *const *
texecLabelTable()
{
    return labelTable();
}

RunResult
runTranslated(const CompiledUnit &unit, const TranslatedUnit &tu,
              Memory image, const TranslatedControls &controls)
{
    // Machine's constructor: one unpainted lock per word under memory
    // tagging, none otherwise.
    ZeroPages locks(tu.memTagging ? image.size() / 4 : 0);
    return runLegs(unit, tu, image, locks, nullptr, controls);
}

RunResult
resumeTranslated(const CompiledUnit &unit, const TranslatedUnit &tu,
                 MachineSnapshot snap, const TranslatedControls &controls)
{
    MXL_ASSERT(snap.stop == StopReason::CycleLimit,
               "resume requires a CycleLimit-paused snapshot");
    Memory image = std::move(snap.memory);
    ZeroPages locks = std::move(snap.memTagLocks);
    return runLegs(unit, tu, image, locks, &snap, controls);
}

#else // !__GNUC__

const void *const *
texecLabelTable()
{
    return nullptr;
}

RunResult
runTranslated(const CompiledUnit &, const TranslatedUnit &, Memory,
              const TranslatedControls &)
{
    panic("translated backend requires computed-goto support");
}

RunResult
resumeTranslated(const CompiledUnit &, const TranslatedUnit &,
                 MachineSnapshot, const TranslatedControls &)
{
    panic("translated backend requires computed-goto support");
}

#endif

} // namespace mxl
