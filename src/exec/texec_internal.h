/**
 * @file
 * Shared internals of the translated backend: the dispatch-token enum
 * the translator assigns and the executor's handler table resolves.
 * Private to src/exec/.
 */

#ifndef MXLISP_EXEC_TEXEC_INTERNAL_H_
#define MXLISP_EXEC_TEXEC_INTERNAL_H_

#include <cstdint>

namespace mxl {

/**
 * Specialized dispatch kinds. One per straight-line opcode semantics
 * (with the tag-scheme placement baked in where it matters), one per
 * control transfer, one per Sys code, plus the pc-out-of-range
 * sentinel appended after the last instruction. Order must match the
 * executor's label table (texec.cc).
 */
enum TKind : uint16_t
{
    // ALU register-register
    TAdd, TSub, TAnd, TOr, TXor, TSll, TSrl, TSra, TMul, TDiv, TRem,
    // ALU register-immediate
    TAddi, TAndi, TOri, TXori, TSlli, TSrli, TSrai,
    // Moves / constants
    TLi, TMov, TNoop,
    // Memory
    TLd, TSt, TLdt, TStt,
    // Memory under memory-tagging hardware: the same accesses plus the
    // per-word lock/key check (emitted only for memTagging units)
    TLdM, TStM, TLdtM, TSttM,
    // Trapping tagged arithmetic, by tag placement
    TAddtHigh, TSubtHigh, TAddtLow, TSubtLow,
    // Sys, by code
    TSysHalt, TSysPutChar, TSysPutFixRaw, TSysPutFix, TSysError,
    // Control transfers (executed fused with their two delay slots)
    TBeq, TBne, TBlt, TBge, TBle, TBgt, TBeqi, TBnei, TBtag, TBntag,
    TJ, TJal, TJr, TJalr,
    // Sentinel at instruction index n
    TEnd,
    // Fused straight-line pairs: one dispatch executes two adjacent
    // instructions (both accounting sequence points preserved). The
    // translator installs these as the *handler* of the first op only —
    // every index keeps its standalone TKind, so delay-slot execution,
    // computed jumps, and trap returns that land on either op still
    // behave. Chosen by dynamic pair frequency over the benchmark
    // suite; these 14 cover >90% of the fusable issue stream.
    TF_Addi_St, TF_St_Ld, TF_St_St, TF_And_Ld, TF_Ld_Srli, TF_Ld_Addi,
    TF_Ld_And, TF_Ld_Ld, TF_Ld_Li, TF_Mov_Ld, TF_Slli_Srai, TF_Addi_Ld,
    TF_St_Li, TF_Ld_Slli,
    // Call-pause variants of Jal/Jalr: count calls down to an armed
    // TranslatedControls::pauseAtCall, then run the plain handler.
    // Installed as handlers only, in an armed run's private copy of the
    // ops, so unarmed runs never execute them.
    TC_Jal, TC_Jalr,
    kNumTKinds,
};

/**
 * Host dispatch addresses indexed by TKind, or null when the build has
 * no computed-goto support (translation then refuses every unit and
 * the engine stays on the interpreter tier).
 */
const void *const *texecLabelTable();

} // namespace mxl

#endif // MXLISP_EXEC_TEXEC_INTERNAL_H_
