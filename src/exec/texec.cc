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
 */

#include "exec/texec.h"

#include <algorithm>
#include <chrono>

#include "exec/texec_internal.h"
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

#if defined(__GNUC__)

/**
 * The executor. When @p labelsOut is non-null this is a *bind* call:
 * the function publishes its handler-label table (indexed by TKind)
 * and returns without touching the other arguments. GCC resolves
 * &&label identically on every call of the same function, so the
 * table bound here is valid for all later run calls.
 */
RunResult
coreRun(const CompiledUnit &unit, const TranslatedUnit &tu, Memory &image,
        const TranslatedControls &controls,
        const void *const **labelsOut)
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
        };
        *labelsOut = table;
        return {};
    }

    const TranslatedOp *const ops = tu.ops.data();
    const int n = static_cast<int>(tu.nInsts);
    MXL_ASSERT(tu.entry >= 0 && tu.entry < n, "bad entry point");

    // Machine state. Slot 32 is the write sink for rd == 0 (reads of
    // r0 always see the never-written regs[0] == 0).
    uint32_t regs[33] = {};
    uint32_t *const mem = image.data();
    const uint32_t nWords = image.size() / 4;
    int pending = -1; // load-interlock register, -1 none

    // Per-index accounting, folded into CycleStats at the end.
    std::vector<uint64_t> counts(static_cast<size_t>(n) * 3, 0);
    uint64_t *const EC = counts.data();          // executions
    uint64_t *const ST = EC + n;                 // stall cycles
    uint64_t *const SQ = ST + n;                 // squash cycles
    uint64_t cycles = 0;

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
    // exactly like runUnitOn()'s Machine::resume chunking.
    const uint64_t maxCycles = controls.maxCycles;
    const bool deadlined = controls.deadlineSeconds > 0;
    const auto start = std::chrono::steady_clock::now();
    uint64_t effLimit =
        deadlined ? std::min(maxCycles, kDeadlineChunkCycles) : maxCycles;

    StopReason stop = StopReason::Running;
    int64_t errorCode = 0;
    uint32_t exitValue = 0;
    int faultIndex = -1;
    bool timedOut = false;
    std::string out;

    // True when the run must stop (cycle limit / deadline); false when
    // only the deadline-poll chunk expired and execution continues.
    auto overBudget = [&]() -> bool {
        if (cycles > maxCycles) {
            stop = StopReason::CycleLimit;
            return true;
        }
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count() >= controls.deadlineSeconds) {
            timedOut = true;
            stop = StopReason::CycleLimit;
            return true;
        }
        effLimit = std::min(maxCycles, cycles + kDeadlineChunkCycles);
        return false;
    };

#define IDX(p) ((p)->idx)

    // The loop-top cycle guard: runs before every step, like runLoop().
#define BUDGET()                                                            \
    do {                                                                    \
        if (__builtin_expect(cycles > effLimit, 0)) {                       \
            if (overBudget())                                               \
                goto done;                                                  \
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
        BUDGET();                                                           \
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

    // A fused pair: two instructions, one dispatch. Both sequence
    // points are intact — the cycle guard runs between the halves and
    // the second half does its own interlock check, so the accounting
    // is bit-for-bit what two standalone dispatches produce.
#define FUSED2(SEMA, SEMB)                                                  \
    do {                                                                    \
        ISSUE(ip);                                                          \
        SEMA(ip);                                                           \
        const TranslatedOp *const q_ = ip + 1;                              \
        BUDGET();                                                           \
        ISSUE(q_);                                                          \
        SEMB(q_);                                                           \
        NEXT(ip + 2);                                                       \
    } while (0)

    const TranslatedOp *ip = ops + tu.entry;
    // Shared control-group tail state (set by every branch handler).
    const TranslatedOp *br = nullptr;
    int btarget = -1;
    bool btaken = false;

    BUDGET();
    goto *const_cast<void *>(ip->handler);

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

branch_common: {
    const int bidx = static_cast<int>(IDX(br));
    if (br->annul & (btaken ? 1 : 2)) {
        // Two squashed cycles, charged to the branch. The branch's own
        // issue already cleared the load interlock, matching the
        // interpreter's per-squash pendingLoadReg_ reset.
        BUDGET();
        cycles++;
        SQ[bidx]++;
        BUDGET();
        cycles++;
        SQ[bidx]++;
    } else {
        const TranslatedOp *s = br + 1;
        BUDGET();
        ISSUE(s);
        SLOT_EXEC(s);
        s = br + 2;
        BUDGET();
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

done: {
    // ------------------------------------------------------------------
    // Fold the per-index counters into the interpreter's CycleStats.
    // ------------------------------------------------------------------
    RunResult r;
    CycleStats &st = r.stats;
    const auto &code = unit.prog.code;
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
    MXL_ASSERT(st.total == cycles,
               "translated-backend cycle accounting diverged: rebuilt ",
               st.total, " vs live ", cycles);

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
        TranslatedControls dummyControls;
        coreRun(dummyUnit, dummyTu, dummyMem, dummyControls, &t);
        return t;
    }();
    return table;
}

#endif // __GNUC__

} // namespace

#if defined(__GNUC__)

const void *const *
texecLabelTable()
{
    return labelTable();
}

RunResult
runTranslated(const CompiledUnit &unit, const TranslatedUnit &tu,
              Memory image, const TranslatedControls &controls)
{
    return coreRun(unit, tu, image, controls, nullptr);
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

#endif

} // namespace mxl
